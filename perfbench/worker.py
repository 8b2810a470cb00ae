"""One benchmark process: makes a workload's inputs, runs its ops, checks them.

run.py starts this in a fresh interpreter for every measurement, because
the module-level `lru_cache`s of slval would otherwise carry results from
one run into the next.  The client is closed-loop: one thread sends one op
at a time, the next as soon as the previous one has returned.

A workload is split into strata (the ambient dimension, or the hull size
for hull_wide).  Each stratum draws its inputs from a fixed pool of
indices whose exact outputs were digested at the seed commit
(expected.json); the workload seed picks the order in which the pool is
visited.  A run visits a fixed number of pool entries per stratum,
sized so that every stratum takes about the same time at the seed
commit, and interleaves the strata so that each is spread over the whole
run.

Between ops, at most every REFERENCE_EVERY_S, the worker times a fixed
reference loop that does not touch slval (`reference_s`).  Each op's
time is scaled by the loop's nominal time over the mean of the loop
times just before and just after the op, so that the host's speed, which
changes by up to 2x from second to second on a shared VM, cancels out.

Usage (normally called by run.py):

    python3 perfbench/worker.py run --workload verify --seed 1 --seconds 20
    python3 perfbench/worker.py pass --workload verify --seed 1 [--trace]
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import io
import json
import os
import random
import resource
import sys
import tempfile
import time
from fractions import Fraction
from itertools import cycle, islice

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")

#: verify invocations use this many cases per check family
VERIFY_CASES = 5
#: hull_wide clouds: coordinates in [-COORD_BOUND, COORD_BOUND]
COORD_BOUND = 20

#: pool size per stratum; a 20 s run visits at most a fifth of each pool,
#: and wraps around (onto warm caches) only if --seconds is over 100
POOLS = {
    "verify": {"2": 320, "3": 96, "4": 32},
    "hull_wide": {"2x40": 320, "3x24": 96, "3x40": 32, "4x12": 96, "4x20": 32},
    "surd_union": {"2": 2400, "3": 160},
}

#: pool entries per stratum of a 20 s run (scaled by --seconds / 20).  A
#: verify entry is one invocation, whose 23 check lines are 23 ops; any
#: other entry is one op.  At the seed commit and the reference speed the
#: strata of a workload take about the same time (hull_wide 2-4 s each,
#: surd_union ~6 s each), except that verify gives n = 4 about two thirds
#: of its ~13 s, as the CLI spends most of its time there.  hull_wide's
#: 2x40 class, its fastest, holds most of its ops, so that op_p50_ms
#: falls inside that class and not on its slowest op.
RUN_INPUTS = {
    "verify": {"2": 9, "3": 3, "4": 4},
    "hull_wide": {"2x40": 30, "3x24": 5, "3x40": 1, "4x12": 8, "4x20": 1},
    "surd_union": {"2": 320, "3": 32},
}

#: pool entries per stratum of a traced pass, so that the three passes of
#: a traced run fit in one
PASS_INPUTS = {
    "verify": {"2": 6, "3": 2, "4": 1},
    "hull_wide": {"2x40": 5, "3x24": 2, "3x40": 1, "4x12": 2, "4x20": 1},
    "surd_union": {"2": 80, "3": 5},
}

#: terms of the reference loop
REFERENCE_TERMS = 1500
#: what the reference loop takes on the host the benchmark was tuned on,
#: in its faster state
REFERENCE_NOMINAL_S = 0.004
#: the reference loop runs again once this much time has passed
REFERENCE_EVERY_S = 0.2


def reference_s() -> float:
    """Time of a fixed loop of Fraction arithmetic that does not touch slval.

    The cyclic garbage collector is off meanwhile: a collection would scan
    slval's caches, whose size depends on the run, not on the host.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, REFERENCE_TERMS):
            total += Fraction(i % 97, i % 89 + 1)
        return time.perf_counter() - start
    finally:
        gc.enable()


class Reference:
    """The reference loop's times during a run, and the scale they give."""

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.times: list[float] = []
        self.sample()

    def sample(self) -> None:
        self.times.append(reference_s())
        self.ends.append(time.perf_counter())

    def maybe(self) -> None:
        """Sample unless the last sample is under REFERENCE_EVERY_S old."""
        if time.perf_counter() - self.ends[-1] >= REFERENCE_EVERY_S:
            self.sample()

    @property
    def spent(self) -> float:
        return sum(self.times)

    def factor(self, start: float, end: float) -> float:
        """Scale for an op from start to end: the samples just before and after."""
        before = self.times[bisect.bisect_right(self.ends, start) - 1]
        after = self.times[bisect.bisect_left(self.ends, end)]
        return 2 * REFERENCE_NOMINAL_S / (before + after)


def import_slval() -> None:
    """Import slval from the checkout's src/."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "slval")):
        raise SystemExit(f"no slval sources under {src}")
    sys.path.insert(0, src)
    import slval.cli  # noqa: F401


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def pool_order(workload: str, stratum: str, seed: int) -> list[int]:
    order = list(range(POOLS[workload][stratum]))
    random.Random(f"{workload}/{stratum}/{seed}").shuffle(order)
    return order


class LineClock(io.TextIOBase):
    """Stdout sink that timestamps every complete line the program prints.

    With a Reference, it may sample the reference loop after a line; the
    next line is then timed from `resumes`, after the sample.
    """

    def __init__(self, reference: Reference | None = None) -> None:
        self.lines: list[str] = []
        self.stamps: list[float] = []
        self.resumes: list[float] = []
        self._partial = ""
        self.reference = reference

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self._partial += text
        while "\n" in self._partial:
            line, self._partial = self._partial.split("\n", 1)
            self.lines.append(line)
            self.stamps.append(time.perf_counter())
            if self.reference is not None:
                self.reference.maybe()
            self.resumes.append(time.perf_counter())
        return len(text)


def run_cli(argv: list[str], reference: Reference | None = None):
    """slval.cli.main with stdout captured: (exit code, sink, start, error)."""
    from slval import cli

    sink = LineClock(reference)
    real = sys.stdout
    sys.stdout = sink
    start = time.perf_counter()
    code, error = None, None
    try:
        code = cli.main(argv)
    except Exception as exc:  # an op that raises is a failed op
        error = f"{type(exc).__name__}: {exc}"
    finally:
        sys.stdout = real
    return code, sink, start, error


# -- verify ------------------------------------------------------------------
# One op is one check line of `slval verify --n N --seed INDEX`.


def verify_argv(stratum: str, index: int, inject_broken: bool = False) -> list[str]:
    argv = ["verify", "--n", stratum, "--seed", str(index), "--cases", str(VERIFY_CASES)]
    return argv + ["--inject-broken"] if inject_broken else argv


def verify_ops(stratum, index, expected, reference=None, inject_broken=False):
    """Yield (start, end, ok) per check line of one invocation."""
    code, sink, start, error = run_cli(verify_argv(stratum, index, inject_broken), reference)
    want = expected.get(f"{stratum}:{index}", [])
    for k, (line, stamp) in enumerate(zip(sink.lines, sink.stamps)):
        ok = k < len(want) and digest(line) == want[k] and json.loads(line)["pass"] is True
        yield (sink.resumes[k - 1] if k else start), stamp, ok
    prev = sink.resumes[-1] if sink.resumes else start
    if error is not None:
        yield prev, time.perf_counter(), False
    elif len(sink.lines) < len(want):
        yield prev, prev, False  # the invocation ended early


def verify_record(stratum: str, index: int) -> list[str]:
    code, sink, _, error = run_cli(verify_argv(stratum, index))
    if error is not None or code != 0:
        raise RuntimeError(f"verify {stratum}:{index} failed: {error or code}")
    return [digest(line) for line in sink.lines]


# -- hull_wide ---------------------------------------------------------------
# One op is one `slval valuate` call on a centrally symmetric integer cloud.

HULL_VALUATION = {
    "c0": "1", "c0p": "2", "d0": "4",
    "psi": {"kind": "linear", "lambda": "3"},
    "phi": {"kind": "linear", "lambda": "5"},
}


def symmetric_cloud(stratum: str, index: int) -> list[tuple[int, ...]]:
    """m distinct nonzero integer points closed under negation, spanning R^n."""
    n, m = map(int, stratum.split("x"))
    rng = random.Random(f"hull_wide/{stratum}/{index}")
    while True:
        pts: set[tuple[int, ...]] = set()
        while len(pts) < m:
            p = tuple(rng.randint(-COORD_BOUND, COORD_BOUND) for _ in range(n))
            if any(p) and p not in pts:
                pts.add(p)
                pts.add(tuple(-x for x in p))
        cloud = sorted(pts)
        if _rank(cloud) == n:
            return cloud


def _rank(points) -> int:
    rows = [[Fraction(x) for x in p] for p in points]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def shoelace_value(cloud) -> Fraction:
    """valuate's answer for a planar cloud, computed without slval.

    The hull comes from Andrew's monotone chain and its area from the
    shoelace formula.  A centrally symmetric full-dimensional cloud has
    the origin in its interior, so all five basis terms are known:
    c0 + c0p*(-1)^2 + psi(area) + d0 + phi(area) = 1 + 2 + 3*area + 4 + 5*area.
    """
    pts = sorted(set(cloud))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    upper: list = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    twice = sum(hull[i][0] * hull[i - 1][1] - hull[i - 1][0] * hull[i][1]
                for i in range(len(hull)))
    return 7 + 8 * Fraction(abs(twice), 2)


class HullFiles:
    """Polytope and valuation JSON files for valuate to read, in `directory`."""

    def __init__(self, directory: str) -> None:
        self.dir = directory
        self.valuation = os.path.join(self.dir, "valuation.json")
        with open(self.valuation, "w") as fh:
            json.dump(HULL_VALUATION, fh)

    def write(self, stratum: str, index: int) -> str:
        cloud = symmetric_cloud(stratum, index)
        path = os.path.join(self.dir, f"{stratum}-{index}.json")
        with open(path, "w") as fh:
            json.dump({"ambient_dim": len(cloud[0]), "field_d": 0,
                       "vertices": [[str(x) for x in p] for p in cloud]}, fh)
        return path


def valuate(files: HullFiles, path: str):
    code, sink, start, error = run_cli(["valuate", "--in", path, "--valuation", files.valuation])
    end = sink.stamps[-1] if sink.stamps else time.perf_counter()
    out = "\n".join(sink.lines)
    return start, end, (out if error is None and code == 0 and len(sink.lines) == 1 else None)


def hull_ops(stratum, index, prepared, expected, files):
    start, end, out = valuate(files, prepared)
    ok = out is not None and digest(out) == expected.get(f"{stratum}:{index}")
    if ok and stratum.startswith("2x"):
        ok = Fraction(out) == shoelace_value(symmetric_cloud(stratum, index))
    yield start, end, ok


def hull_record(stratum, index, prepared, files) -> str:
    *_, out = valuate(files, prepared)
    if out is None:
        raise RuntimeError(f"valuate {stratum}:{index} failed")
    if stratum.startswith("2x") and Fraction(out) != shoelace_value(symmetric_cloud(stratum, index)):
        raise RuntimeError(f"valuate {stratum}:{index} disagrees with the shoelace area")
    return digest(out)


# -- surd_union --------------------------------------------------------------
# One op cuts a polytope over Q(sqrt 2) into three slabs by two parallel
# clips and checks evaluate_union(V, slabs) == evaluate(V, whole).


def surd_input(stratum: str, index: int):
    """Full-dimensional polytope with coordinates a + b*sqrt(2), and two cuts."""
    from slval.exactnum import Scalar
    from slval.linalg import Vector
    from slval.polytope import dim, from_points

    n = int(stratum)
    rng = random.Random(f"surd_union/{stratum}/{index}")
    root2 = Scalar.sqrt_of(2)
    while True:
        # more points make slower and far more scattered ops
        count = rng.randint(n + 2, n + 3)
        pts = [Vector([Scalar(rng.randint(-3, 3)) + root2 * rng.randint(-2, 2)
                       for _ in range(n)]) for _ in range(count)]
        P = from_points(pts, n)
        if dim(P) == n:
            break
    while True:
        u = Vector([rng.randint(-2, 2) for _ in range(n)])
        values = [u.dot(v) for v in P.vertices]
        low, high = min(values), max(values)
        if low != high:
            break
    r1, r2 = sorted(rng.sample(range(1, 8), 2))
    return P, u, low + (high - low) * Fraction(r1, 8), low + (high - low) * Fraction(r2, 8)


def surd_union_text(P, u, c1, c2) -> str:
    from slval import polytope, valuation
    from slval.exactnum import Linear, RationalPart, Scalar

    V = valuation.ClassifiedValuation(Scalar(1), Scalar(2), Scalar(4),
                                      psi=RationalPart(), phi=Linear(5))
    H = polytope.Halfspace
    slabs = [
        polytope.clip(P, H(u, c1)),
        polytope.clip(polytope.clip(P, H(-u, -c1)), H(u, c2)),
        polytope.clip(P, H(-u, -c2)),
    ]
    union = valuation.evaluate_union(V, slabs)
    whole = valuation.evaluate(V, P)
    return f"{union}\n{whole}"


def surd_ops(stratum, index, prepared, expected):
    start = time.perf_counter()
    try:
        text = surd_union_text(*prepared)
    except Exception:  # an op that raises is a failed op
        text = None
    end = time.perf_counter()
    ok = text is not None and len(set(text.split("\n"))) == 1
    yield start, end, ok and digest(text) == expected.get(f"{stratum}:{index}")


def surd_record(stratum, index, prepared) -> str:
    text = surd_union_text(*prepared)
    union, whole = text.split("\n")
    if union != whole:
        raise RuntimeError(f"surd_union {stratum}:{index}: union {union} != whole {whole}")
    return digest(text)


# -- driving -----------------------------------------------------------------


class Workload:
    """Prepares inputs (untimed) and runs or records ops for one workload."""

    def __init__(self, name: str, work_dir: str) -> None:
        self.name = name
        self.strata = list(POOLS[name])
        self.files = HullFiles(work_dir) if name == "hull_wide" else None

    def prepare(self, stratum: str, index: int):
        if self.name == "hull_wide":
            return self.files.write(stratum, index)
        if self.name == "surd_union":
            return surd_input(stratum, index)
        return None

    def ops(self, stratum, index, prepared, expected, reference=None, inject_broken=False):
        """Run one pool entry; yields (start, end, ok) per op."""
        if self.name == "verify":
            return verify_ops(stratum, index, expected, reference, inject_broken)
        if self.name == "hull_wide":
            return hull_ops(stratum, index, prepared, expected, self.files)
        return surd_ops(stratum, index, prepared, expected)

    def record(self, stratum: str, index: int):
        if self.name == "verify":
            return verify_record(stratum, index)
        prepared = self.prepare(stratum, index)
        if self.name == "hull_wide":
            return hull_record(stratum, index, prepared, self.files)
        return surd_record(stratum, index, prepared)


def schedule(workload: Workload, seed: int, counts: dict[str, int]) -> list[tuple[str, int]]:
    """The pool entries of a run as (stratum, index), strata interleaved.

    Entry j of a stratum with c entries sits at (j + 1/2) / c of the run,
    so that every stratum sees the whole run and not one stretch of it.
    """
    slots = []
    for rank, stratum in enumerate(workload.strata):
        indices = islice(cycle(pool_order(workload.name, stratum, seed)), counts[stratum])
        slots += [((j + 0.5) / counts[stratum], rank, stratum, index)
                  for j, index in enumerate(indices)]
    return [(stratum, index) for *_, stratum, index in sorted(slots)]


def run_ops(workload: Workload, seed: int, expected, counts: dict[str, int], tracer=None,
            inject_broken: bool = False) -> tuple[list, float, float]:
    """Run the scheduled pool entries once each.

    Returns (stratum, latency_s, ok, factor) per op, where factor scales
    the op's time to reference seconds; the busy time, which is the wall
    time of all ops together with the benchmark's own checks of them; and
    the busy time's factor, the ops' factors weighted by their latency.

    Every input is prepared first, outside the busy time, so that a
    tracer, reset afterwards, sees only the ops.
    """
    plan = [(stratum, index, workload.prepare(stratum, index))
            for stratum, index in schedule(workload, seed, counts)]
    if tracer is not None:
        tracer.reset()
    spans = []
    busy = 0.0
    reference = Reference()
    for stratum, index, prepared in plan:
        spent = reference.spent
        t0 = time.perf_counter()
        # a traced pass samples only between inputs, outside every traced span
        inside = reference if tracer is None else None
        for start, end, ok in workload.ops(stratum, index, prepared, expected, inside,
                                           inject_broken):
            spans.append((stratum, start, end, ok))
        busy += time.perf_counter() - t0 - (reference.spent - spent)
        reference.maybe()
    reference.sample()
    ops = [(stratum, end - start, ok, reference.factor(start, end))
           for stratum, start, end, ok in spans]
    op_s = sum(latency for _, latency, _, _ in ops)
    scaled_s = sum(latency * factor for _, latency, _, factor in ops)
    return ops, busy, scaled_s / op_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark process")
    parser.add_argument("mode", choices=("run", "pass"))
    parser.add_argument("--workload", required=True, choices=tuple(POOLS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--inject-broken", action="store_true",
                        help="verify only: add slval's deliberately failing check")
    args = parser.parse_args(argv)

    import_slval()
    with open(EXPECTED_PATH) as fh:
        expected = json.load(fh)[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    if args.mode == "run":
        counts = {s: max(1, round(c * args.seconds / 20))
                  for s, c in RUN_INPUTS[args.workload].items()}
    else:
        counts = PASS_INPUTS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as directory:
        workload = Workload(args.workload, directory)
        ops, busy, factor = run_ops(workload, args.seed, expected, counts, tracer,
                                    args.inject_broken)
    result = {
        "ops": ops,
        "busy_s": busy,
        "host_factor": factor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["counts"] = tracer.counts()
        result["traced_s"] = tracer.traced_s
    print(json.dumps(result), flush=True)
    return 0 if all(ok for _, _, ok, _ in ops) else 1


if __name__ == "__main__":
    raise SystemExit(main())
