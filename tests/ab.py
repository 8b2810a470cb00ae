"""In-process A/B timing of two slval trees on the three benchmark workloads.

    python tests/ab.py PARENT_DIR CHANGE_DIR ROUNDS

PARENT_DIR/src/slval and CHANGE_DIR/src/slval are loaded into this one
interpreter under two package names, so that both sides share the host's
state second by second, which separate benchmark runs do not.  A unit of
work runs on both sides, with the cyclic garbage collector off:

- verify: one invocation of `verify --n N --seed S --cases 5`;
- hull_wide: `HULL_REPEATS` runs of `valuate` on one cloud of
  `perfbench/worker.py`, so that a round lasts about as long as a verify
  round;
- surd_union: one op of `worker.surd_union_text`, its input rebuilt
  untimed on each side;
- cold_start: one fresh interpreter that imports `slval.cli` from the
  side's tree, timed around the subprocess in the caller's environment, as
  the benchmark's setup_s probe is; a round runs `COLD_REPEATS` of them per
  side.

Each workload runs the indices 0 to c - 1 of each stratum for its
`RUN_INPUTS` count c, the benchmark's own mix: 16 verify invocations
(9 at n = 2, 3 at n = 3, 4 at n = 4), 45 clouds and 352 ops.  cold_start
is no benchmark workload: it gives import-time changes an A/B of their own.

Inputs come from CHANGE_DIR/perfbench/worker.py, which is read and never
changed.  A round runs every unit once per side, alternating which side
goes first from unit to unit (ABBA), and sums each side's time; successive
rounds start on alternate sides.  For each workload the script prints the
median over the rounds of the change's time over the parent's, the least
and greatest round ratio, and whether every unit printed the same text on
both sides and in every repeat.  Under the hull_wide row it prints the same
ratios for each of its size classes (2x40, 3x24, 3x40, 4x12, 4x20), each
over the summed time of the class's units.  Given the same directory twice
it is an A/A run, which shows the spread that the host alone gives.  It
exits 1 if any output differed.

pytest does not collect this file: its name does not start with `test_`.
"""

from __future__ import annotations

import contextlib
import gc
import importlib.util
import io
import os
import statistics
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("verify", "hull_wide", "surd_union")
HULL_REPEATS = 5
COLD_REPEATS = 20
#: a fresh interpreter that imports slval.cli from the tree/src given as argv[1]
COLD_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import slval.cli"


def load_package(name: str, tree: str):
    """The slval package under tree/src, imported as `name`."""
    path = os.path.join(os.path.abspath(tree), "src", "slval")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"), submodule_search_locations=[path])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    return package


def load_worker(tree: str):
    spec = importlib.util.spec_from_file_location(
        "ab_worker", os.path.join(os.path.abspath(tree), "perfbench", "worker.py"))
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


@contextlib.contextmanager
def as_slval(package):
    """`slval` and its submodules name the side's modules meanwhile, for the
    worker's functions, which import slval by name."""
    prefix = package.__name__
    saved = {key: mod for key, mod in sys.modules.items() if key.split(".")[0] == "slval"}
    for key in saved:
        del sys.modules[key]
    sys.modules.update({"slval" + key[len(prefix):]: mod for key, mod in list(sys.modules.items())
                        if key.split(".")[0] == prefix})
    try:
        yield
    finally:
        for key in [key for key in sys.modules if key.split(".")[0] == "slval"]:
            del sys.modules[key]
        sys.modules.update(saved)


def cli_unit(argv: list[str], repeats: int = 1):
    """A unit that runs `main(argv)` `repeats` times on a side: (seconds,
    [stdout and exit code of each run])."""
    def unit(package):
        texts = []
        start = time.perf_counter()
        for _ in range(repeats):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = package.cli.main(argv)
            texts.append(f"{out.getvalue()}exit {code}\n")
        return time.perf_counter() - start, texts
    return unit


def surd_unit(worker, stratum: str, index: int):
    """A unit that builds the surd_union input untimed, then times the op."""
    def unit(package):
        with as_slval(package):
            prepared = worker.surd_input(stratum, index)
            start = time.perf_counter()
            text = worker.surd_union_text(*prepared)
            return time.perf_counter() - start, [text]
    return unit


def cold_unit(package):
    """One fresh interpreter that imports the side's `slval.cli`: (seconds,
    [its output and exit code])."""
    src = os.path.dirname(package.__path__[0])
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", COLD_PROBE, src], capture_output=True, text=True)
    seconds = time.perf_counter() - start
    return seconds, [f"{proc.stdout}{proc.stderr}exit {proc.returncode}\n"]


def units(worker, workload: str, directory: str) -> list:
    """The workload's units, each with its stratum ("" for cold_start)."""
    if workload == "cold_start":
        return [("", cold_unit)] * COLD_REPEATS
    counts = worker.RUN_INPUTS[workload]
    inputs = [(stratum, index) for stratum, count in counts.items() for index in range(count)]
    if workload == "verify":
        return [(stratum, cli_unit(worker.verify_argv(stratum, index))) for stratum, index in inputs]
    if workload == "hull_wide":
        files = worker.HullFiles(directory)
        return [(stratum, cli_unit(["valuate", "--in", files.write(stratum, index),
                                    "--valuation", files.valuation], HULL_REPEATS))
                for stratum, index in inputs]
    return [(stratum, surd_unit(worker, stratum, index)) for stratum, index in inputs]


def round_ratios(work: list, sides: tuple, first: int) -> tuple[dict, bool]:
    """One round: the change's summed time over the parent's, keyed None
    for the whole workload and by stratum for each stratum, and whether
    every run of every unit printed the same text on both sides."""
    spent, same = {}, True
    gc.collect()
    gc.disable()
    try:
        for k, (stratum, unit) in enumerate(work):
            order = (first, 1 - first) if k % 2 == 0 else (1 - first, first)
            outputs = [None, None]
            for side in order:
                seconds, outputs[side] = unit(sides[side])
                for key in (None, stratum):
                    spent.setdefault(key, [0.0, 0.0])[side] += seconds
            same = same and len({*outputs[0], *outputs[1]}) == 1
    finally:
        gc.enable()
    return {key: change / parent for key, (parent, change) in spent.items()}, same


def summary(results: list, key, rounds: int, count: int) -> str:
    ratios = [ratios[key] for ratios, _ in results]
    return (f"median ratio {statistics.median(ratios):.3f}, range {min(ratios):.3f}"
            f" to {max(ratios):.3f} over {rounds} rounds of {count} units")


def main(argv: list[str]) -> int:
    if len(argv) != 3 or not argv[2].isdigit() or int(argv[2]) < 1:
        raise SystemExit(__doc__.split("\n\n")[1])
    parent, change, rounds = argv[0], argv[1], int(argv[2])
    sides = (load_package("slval_parent", parent), load_package("slval_change", change))
    worker = load_worker(change)
    identical = True
    for workload in (*WORKLOADS, "cold_start"):
        with tempfile.TemporaryDirectory() as directory:
            work = units(worker, workload, directory)
            results = [round_ratios(work, sides, r % 2) for r in range(rounds)]
        same = all(ok for _, ok in results)
        identical = identical and same
        print(f"{workload}: {summary(results, None, rounds, len(work))},"
              f" outputs {'identical' if same else 'DIFFER'}", flush=True)
        if workload == "hull_wide":  # a hull pass change shows which size class gains
            for stratum in dict.fromkeys(s for s, _ in work):
                count = sum(s == stratum for s, _ in work)
                print(f"  {workload} {stratum}: {summary(results, stratum, rounds, count)}", flush=True)
    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
