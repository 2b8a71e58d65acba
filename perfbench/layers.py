"""Outside-in layer trace: wrappers installed around topolab's public functions.

The wrappers are put in place from outside the package, after it is imported
and before the workload runs, and taken out again afterwards:

* each timed module-level function is rebound in every ``topolab.*`` module
  that holds it, whether it was defined there or imported by name, and in the
  module-level registries that hold it (``REFLECT_OPS``);
* ``__post_init__``, ``__eq__``, ``__hash__`` and ``preimage`` are patched on
  the classes;
* the entries of the ``SUITES`` registry are wrapped, which gives one span per
  suite.

Per metric the trace keeps three numbers (calls, total time, self time), never
one record per call: a call list would put millions of objects in memory and
distort the peak-memory figure. Self time is a call's own duration minus the
time of the wrapped calls made inside it. Spans are kept only for suites and
for the workload as a whole.
"""

from __future__ import annotations

import sys
import time

# (metric, module, attribute): one entry per wrapped function. Several entries
# may share a metric, which then aggregates them.
TIMED = (
    ("FiniteSpace.init", "topolab.spaces", "FiniteSpace.__post_init__"),
    ("FiniteSpace.eq", "topolab.spaces", "FiniteSpace.__eq__"),
    ("ContinuousMap.init", "topolab.spaces", "ContinuousMap.__post_init__"),
    ("ContinuousMap.preimage", "topolab.spaces", "ContinuousMap.preimage"),
    ("compose", "topolab.spaces", "compose"),
    ("build_space", "topolab.spaces", "build_space"),
    ("find_homeomorphism", "topolab.spaces", "find_homeomorphism"),
    ("enumerate_continuous_maps", "topolab.spaces", "enumerate_continuous_maps"),
    ("classify", "topolab.spaces", "classify"),
    ("lift_space", "topolab.filters", "lift_space"),
    ("lift_map", "topolab.filters", "lift_map"),
    ("unit", "topolab.filters", "unit"),
    ("mult", "topolab.filters", "mult"),
    ("alpha", "topolab.filters", "alpha"),
    ("check_filter_point", "topolab.filters", "check_filter_point"),
    ("check_functor_laws", "topolab.monadlab", "check_functor_laws"),
    ("check_naturality", "topolab.monadlab", "check_naturality"),
    ("check_monad_laws", "topolab.monadlab", "check_monad_laws"),
    ("find_splitting", "topolab.monadlab", "find_splitting"),
    ("FrameMap.init", "topolab.frames", "FrameMap.__post_init__"),
    ("opens_frame_map", "topolab.frames", "opens_frame_map"),
    ("compose_frame_maps", "topolab.frames", "compose_frame_maps"),
    ("frame_from_leq", "topolab.frames", "frame_from_leq"),
    ("enumerate_frame_maps", "topolab.frames", "enumerate_frame_maps"),
    ("reg_coreflect", "topolab.frames", "reg_coreflect"),
    ("enumerate_spaces", "topolab.corpus", "enumerate_spaces"),
    ("maps_between", "topolab.corpus", "maps_between"),
    ("enumerate_lattices", "topolab.corpus", "enumerate_lattices"),
    ("recount", "topolab.corpus", "recount_topologies"),
    ("recount", "topolab.corpus", "recount_lattices"),
    ("recount", "topolab.suites", "_recount_classes"),
    ("reflect", "topolab.reflectors", "t0_reflect"),
    ("reflect", "topolab.reflectors", "sobrify"),
    ("reflect", "topolab.reflectors", "hausdorff_reflect"),
    ("factor_through_reflection", "topolab.reflectors", "factor_through_reflection"),
    ("check_reflector_universal", "topolab.reflectors", "check_reflector_universal"),
)

# Counted but not timed: these run inside nearly every cache lookup, where a
# clock read per call would cost more than the call itself.
COUNTED = (
    ("FiniteSpace.hash", "topolab.spaces", "FiniteSpace.__hash__"),
    ("ContinuousMap.hash", "topolab.spaces", "ContinuousMap.__hash__"),
)

SUITE_PREFIX = "suites."


class LayerTrace:
    """Installs the wrappers, aggregates per metric, and removes them again."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # metric -> [calls, total_s, inner_s]
        self.counts: dict[str, list] = {}  # metric -> [calls]
        self.spans: list[tuple[str, float, float]] = []
        self._inner = [0.0]  # total time of the wrapped calls finished so far
        self._undo: list[tuple[object, str, object]] = []
        self._cached: dict[str, list] = {}  # metric -> lru_cache objects

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import topolab.suites

        for metric, module, attr in TIMED:
            owner, name, original = _resolve(module, attr)
            if hasattr(original, "cache_info"):
                self._cached.setdefault(metric, []).append(original)
            method = isinstance(owner, type)
            self._replace(owner, name, original, self._timed(metric, original, method=method))
        for metric, module, attr in COUNTED:
            owner, name, original = _resolve(module, attr)
            self._replace(owner, name, original, self._counted(metric, original))
        registry = topolab.suites.SUITES
        for sid, fn in list(registry.items()):
            self._set(registry, sid, self._timed(SUITE_PREFIX + sid, fn, span=True))

    def remove(self) -> None:
        while self._undo:
            target, key, value = self._undo.pop()
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)

    def _replace(self, owner, name, original, wrapper) -> None:
        if isinstance(owner, type):
            self._set(owner, name, wrapper)
            return
        # a module-level function: rebind it wherever a topolab module or a
        # module-level registry holds the same object
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "topolab" or mod_name.startswith("topolab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if v is original:
                            self._set(value, k, wrapper)

    def _set(self, target, key, value) -> None:
        if isinstance(target, dict):
            self._undo.append((target, key, target[key]))
            target[key] = value
        else:
            self._undo.append((target, key, getattr(target, key)))
            setattr(target, key, value)

    # -- wrappers ---------------------------------------------------------

    def _timed(self, metric: str, fn, span: bool = False, method: bool = False):
        stat = self.stats.setdefault(metric, [0, 0.0, 0.0])
        # inner[0] sums the time of every finished wrapped call; the part added
        # during a call is the time of its wrapped callees, which the call then
        # replaces by its own duration, so no stack of frames is needed
        inner = self._inner
        spans = self.spans
        clock = time.perf_counter

        if method:  # hot and never called with keywords: spare the dict

            def wrapper(*args):
                before = inner[0]
                start = clock()
                try:
                    return fn(*args)
                finally:
                    elapsed = clock() - start
                    stat[0] += 1
                    stat[1] += elapsed
                    stat[2] += inner[0] - before
                    inner[0] = before + elapsed

        else:

            def wrapper(*args, **kwargs):
                before = inner[0]
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    elapsed = end - start
                    stat[0] += 1
                    stat[1] += elapsed
                    stat[2] += inner[0] - before
                    inner[0] = before + elapsed
                    if span:
                        spans.append((metric, start, end))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", metric)
        return wrapper

    def _counted(self, metric: str, fn):
        count = self.counts.setdefault(metric, [0])

        def wrapper(*args):
            count[0] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ----------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Every count the trace takes; two runs of one input must agree on all."""
        out = {f"{metric}.calls": stat[0] for metric, stat in self.stats.items()}
        out.update({f"{metric}.calls": count[0] for metric, count in self.counts.items()})
        for metric, (hits, misses, size) in self._caches().items():
            out[f"{metric}.hits"] = hits
            out[f"{metric}.misses"] = misses
            out[f"{metric}.{'size' if metric == 'memo' else 'cache_size'}"] = size
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of one traced process, without the overhead ratio."""
        out: dict[str, float] = {}
        suites_self = 0.0
        for metric, (calls, total, inner) in self.stats.items():
            if metric.startswith(SUITE_PREFIX):
                out[f"{metric}.wall_s"] = total
                suites_self += total - inner
            else:
                out[f"{metric}.calls"] = calls
                out[f"{metric}.self_s"] = total - inner
        out.update({f"{metric}.calls": count[0] for metric, count in self.counts.items()})
        for metric, (hits, misses, size) in self._caches().items():
            out[f"{metric}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
            out[f"{metric}.{'size' if metric == 'memo' else 'cache_size'}"] = size
        out["suites.self_s"] = suites_self
        return out

    def _caches(self) -> dict[str, tuple[int, int, int]]:
        """(hits, misses, size) per cached metric, with the monad memos as ``memo``."""
        out = {metric: _cache_totals(funcs) for metric, funcs in self._cached.items()}
        out["memo"] = _cache_totals(_monad_memos())
        return out


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
    return owner, name, original


def _cache_totals(funcs) -> tuple[int, int, int]:
    hits = misses = size = 0
    for fn in funcs:
        info = fn.cache_info()
        hits, misses, size = hits + info.hits, misses + info.misses, size + info.currsize
    return hits, misses, size


def _monad_memos() -> list:
    """The ``_cached`` memo wrappers reachable from ``filter_monad(kind)``."""
    from dataclasses import fields, is_dataclass

    from topolab import filters, monadlab

    seen: dict[int, object] = {}
    todo = [monadlab.filter_monad(kind) for kind in filters.KINDS]
    while todo:
        obj = todo.pop()
        if is_dataclass(obj):
            todo.extend(getattr(obj, f.name) for f in fields(obj))
        elif hasattr(obj, "cache_info") and id(obj) not in seen:
            seen[id(obj)] = obj
    return list(seen.values())
