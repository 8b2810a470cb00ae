"""Per-module tracing of slval from outside the package.

`Tracer.install()` replaces every public function of every slval module,
at every module binding (so `from_points` is wrapped both as
`slval.polytope.from_points` and as the copy imported into `harness`),
with a wrapper that opens a span on a stack.  When the span closes its
duration, minus the time of the spans it caused, is added to the self
time of the module that owns the function.  Spans are folded into these
per-module totals as they close instead of being stored, so a pass with
millions of `Scalar` calls runs in constant memory.

`Scalar`, `Vector` and `Matrix` methods are wrapped the same way, as the
exactnum and linalg layers; they get aggregated counters (calls per
operator, how many operands lived in Q(sqrt d)) rather than named calls.
Cache figures come from `cache_info()` of every `lru_cache` in a module.
Methods of other classes are not wrapped: their time counts toward the
module whose function called them.
"""

from __future__ import annotations

import importlib
import inspect
import time

MODULES = ("exactnum", "linalg", "polytope", "triangulate", "valuation", "harness", "cli")

_SCALAR_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "inverse",
)
_SCALAR_OTHER = (
    "__init__", "__abs__", "sign", "_cmp_sign", "__eq__", "__lt__", "__le__",
    "__gt__", "__ge__", "__hash__", "__str__", "parse",
)
_VECTOR_METHODS = (
    "__init__", "__add__", "__sub__", "__neg__", "scale", "dot", "is_zero",
    "sort_key", "__eq__", "__hash__",
)
_MATRIX_METHODS = ("__init__", "__matmul__", "transpose", "row", "column")
#: counters reset together and compared between two traced passes
_COUNTERS = ("scalar_ops", "surd_ops", "sign_calls", "cone_hull_rebuilds", "simplices",
             "hulls_in_gen", "union_terms")


class Tracer:
    """Wraps slval in place; one instance per process, never uninstalled."""

    def __init__(self) -> None:
        self.layer_index = {name: i for i, name in enumerate(MODULES)}
        self.self_s = [0.0] * len(MODULES)
        for key in _COUNTERS:
            setattr(self, key, 0)
        # calls of gen_polytope / evaluate_union in progress
        self.gen_depth = 0
        self.union_depth = 0
        # root frame: child time of everything traced from benchmark code
        self._stack = [[0.0]]
        self._counts: list[int] = []
        self._names: list[str] = []
        self.modules = {}
        self._caches: dict[str, list] = {}

    # -- wrapping ----------------------------------------------------------

    def _slot(self, name: str) -> int:
        self._names.append(name)
        self._counts.append(0)
        return len(self._counts) - 1

    def _wrap(self, layer: str, name: str, fn, after=None):
        """Timed, counted wrapper; `after(result, args)` runs on return."""
        slot = self._slot(name)
        li = self.layer_index[layer]
        perf = time.perf_counter
        stack = self._stack
        counts = self._counts
        self_s = self.self_s

        if inspect.isgeneratorfunction(fn):
            # time each resumption of the generator, not its creation
            def gen_wrapper(*args, **kwargs):
                counts[slot] += 1
                it = fn(*args, **kwargs)
                while True:
                    frame = [0.0]
                    stack.append(frame)
                    t0 = perf()
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        d = perf() - t0
                        stack.pop()
                        self_s[li] += d - frame[0]
                        stack[-1][0] += d
                    yield value

            return gen_wrapper

        def wrapper(*args, **kwargs):
            counts[slot] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = perf() - t0
                stack.pop()
                self_s[li] += d - frame[0]
                stack[-1][0] += d
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_scalar_op(self, name: str, fn):
        slot = self._slot(f"exactnum.Scalar.{name}")
        li = self.layer_index["exactnum"]
        perf = time.perf_counter
        stack = self._stack
        counts = self._counts
        self_s = self.self_s
        tracer = self

        def wrapper(self, *args):
            counts[slot] += 1
            tracer.scalar_ops += 1
            if self.d or (args and getattr(args[0], "d", 0)):
                tracer.surd_ops += 1
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(self, *args)
            finally:
                d = perf() - t0
                stack.pop()
                self_s[li] += d - frame[0]
                stack[-1][0] += d

        return wrapper

    def _wrap_class(self, layer: str, cls, names, scalar_ops=()) -> None:
        for name in names:
            raw = cls.__dict__[name]
            label = f"{layer}.{cls.__name__}.{name}"
            if isinstance(raw, classmethod):
                setattr(cls, name, classmethod(self._wrap(layer, label, raw.__func__)))
            elif name in scalar_ops:
                setattr(cls, name, self._wrap_scalar_op(name, raw))
            else:
                setattr(cls, name, self._wrap(layer, label, raw))

    def install(self) -> None:
        for name in MODULES:
            self.modules[name] = importlib.import_module(f"slval.{name}")
        exactnum = self.modules["exactnum"]
        linalg = self.modules["linalg"]

        hooks = {
            "polytope.cone_hull": self._after_cone_hull,
            "triangulate.triangulate": self._after_triangulate,
        }
        replaced: dict[int, object] = {}
        for name, module in self.modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not callable(value) or inspect.isclass(value):
                    continue
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                label = f"{name}.{attr}"
                if hasattr(value, "cache_info"):
                    self._caches[label] = [value, (0, 0)]
                wrapped = self._wrap(name, label, value, hooks.get(label))
                if label == "polytope.from_points":
                    wrapped = self._count(wrapped, "hulls_in_gen", inside="gen_depth")
                elif label == "harness.gen_polytope":
                    wrapped = self._depth(wrapped, "gen_depth")
                elif label == "valuation.evaluate_union":
                    wrapped = self._depth(wrapped, "union_depth")
                elif label == "valuation.evaluate":
                    wrapped = self._count(wrapped, "union_terms", inside="union_depth")
                replaced[id(value)] = wrapped
        # private caches count toward their module's hit ratio as well
        for name, module in self.modules.items():
            for attr, value in vars(module).items():
                label = f"{name}.{attr}"
                if hasattr(value, "cache_info") and label not in self._caches:
                    self._caches[label] = [value, (0, 0)]

        def rebind(value):
            if id(value) in replaced:
                return replaced[id(value)]
            if isinstance(value, tuple):
                items = tuple(rebind(v) for v in value)
                if any(a is not b for a, b in zip(items, value)):
                    return items
            return value

        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                new = rebind(value)
                if new is not value:
                    setattr(module, attr, new)

        self._wrap_class("exactnum", exactnum.Scalar, _SCALAR_OPS + _SCALAR_OTHER, _SCALAR_OPS)
        self._wrap_class("linalg", linalg.Vector, _VECTOR_METHODS)
        self._wrap_class("linalg", linalg.Matrix, _MATRIX_METHODS)
        exactnum._surd_sign = self._count(exactnum._surd_sign, "sign_calls")
        self.reset()

    def _after_cone_hull(self, result, args) -> None:
        if result is not args[0]:
            self.cone_hull_rebuilds += 1

    def _after_triangulate(self, result, args) -> None:
        self.simplices += len(result)

    def _count(self, fn, attr: str, inside: str | None = None):
        """Add one to counter `attr` per call, only under `inside` if given."""
        tracer = self

        def wrapper(*args, **kwargs):
            if inside is None or getattr(tracer, inside):
                setattr(tracer, attr, getattr(tracer, attr) + 1)
            return fn(*args, **kwargs)

        return wrapper

    def _depth(self, fn, attr: str):
        """Track in counter `attr` how many calls of fn are in progress."""
        tracer = self

        def wrapper(*args, **kwargs):
            setattr(tracer, attr, getattr(tracer, attr) + 1)
            try:
                return fn(*args, **kwargs)
            finally:
                setattr(tracer, attr, getattr(tracer, attr) - 1)

        return wrapper

    # -- reading -----------------------------------------------------------

    def reset(self) -> None:
        """Zero every figure; cache counts are taken relative to now."""
        self.self_s[:] = [0.0] * len(MODULES)
        self._counts[:] = [0] * len(self._counts)
        for key in _COUNTERS:
            setattr(self, key, 0)
        self._stack[0][0] = 0.0
        for entry in self._caches.values():
            info = entry[0].cache_info()
            entry[1] = (info.hits, info.misses)

    @property
    def traced_s(self) -> float:
        """Time spent inside any wrapped function, summed over top-level spans."""
        return self._stack[0][0]

    def call_counts(self) -> dict[str, int]:
        return dict(zip(self._names, self._counts))

    def cache_counts(self) -> dict[str, tuple[int, int]]:
        out = {}
        for label, (cached, (hits0, misses0)) in self._caches.items():
            info = cached.cache_info()
            out[label] = (info.hits - hits0, info.misses - misses0)
        return out

    def counts(self) -> dict[str, int]:
        """Every deterministic count, for the repeat check between two passes."""
        out = {f"calls:{k}": v for k, v in self.call_counts().items()}
        for label, (hits, misses) in self.cache_counts().items():
            out[f"cache_hits:{label}"] = hits
            out[f"cache_misses:{label}"] = misses
        for key in _COUNTERS:
            out[key] = getattr(self, key)
        return out

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-module metrics as name -> (value, unit)."""
        calls = self.call_counts()
        caches = self.cache_counts()

        def ratio(labels):
            hits = sum(caches[l][0] for l in labels)
            total = sum(sum(caches[l]) for l in labels)
            return (hits / total if total else 0.0), total

        poly_ratio, poly_base = ratio([l for l in caches if l.startswith("polytope.")])
        vol_ratio, vol_base = ratio(["triangulate.volume"])
        gen_calls = calls["harness.gen_polytope"]
        self_s = dict(zip(MODULES, self.self_s))
        return {
            "exactnum.ops": (self.scalar_ops, "count"),
            "exactnum.sign_calls": (self.sign_calls, "count"),
            "exactnum.surd_frac": (self.surd_ops / self.scalar_ops if self.scalar_ops else 0.0, "ratio"),
            "exactnum.self_s": (self_s["exactnum"], "s"),
            "linalg.kernel_basis.calls": (calls["linalg.kernel_basis"], "count"),
            "linalg.det.calls": (calls["linalg.det"], "count"),
            "linalg.matrix_rank.calls": (calls["linalg.matrix_rank"], "count"),
            "linalg.solve_any.calls": (calls["linalg.solve_any"], "count"),
            "linalg.self_s": (self_s["linalg"], "s"),
            "polytope.from_points.calls": (calls["polytope.from_points"], "count"),
            "polytope.cone_hull.rebuilds": (self.cone_hull_rebuilds, "count"),
            "polytope.clip.calls": (calls["polytope.clip"], "count"),
            "polytope.intersect.calls": (calls["polytope.intersect"], "count"),
            "polytope.cache_hit_ratio": (poly_ratio, "ratio"),
            "polytope.cache_lookups": (poly_base, "count"),
            "polytope.self_s": (self_s["polytope"], "s"),
            "triangulate.simplices": (self.simplices, "count"),
            "triangulate.volume.cache_hit_ratio": (vol_ratio, "ratio"),
            "triangulate.volume.cache_lookups": (vol_base, "count"),
            "triangulate.self_s": (self_s["triangulate"], "s"),
            "valuation.evaluate.calls": (calls["valuation.evaluate"], "count"),
            "valuation.union_terms": (self.union_terms, "count"),
            "valuation.self_s": (self_s["valuation"], "s"),
            "harness.gen_polytope.calls": (gen_calls, "count"),
            "harness.gen_polytope.hulls_per_call": (self.hulls_in_gen / gen_calls if gen_calls else 0.0, "hulls/call"),
            "harness.self_s": (self_s["harness"], "s"),
            "cli.self_s": (self_s["cli"], "s"),
        }
