"""The benchmark's outside-in layer trace still finds every name it wraps,
still reads the counts of the monad memos, and still reports every per-layer
metric that ``BENCHMARK.json`` lists.

``perfbench/layers.py`` wraps public functions and methods by name; renaming or
deleting one of them would only show when the benchmark is traced. It sums the
``cache_info()`` of the memos into its ``memo.*`` metrics, which would read 0
if the memos stopped reporting. Its source is read and executed here without
importing it, so nothing is written next to it.
"""

import json
import types
from pathlib import Path

import topolab.suites  # noqa: F401  (loads every module the trace resolves)
from topolab import spaces
from topolab.corpus import maps_between, spaces_up_to
from topolab.filters import KINDS, ULTRA
from topolab.monadlab import check_naturality, filter_monad

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ROOT / "perfbench" / "layers.py"
BENCHMARK = ROOT / "BENCHMARK.json"


def _layers_module() -> types.ModuleType:
    module = types.ModuleType("perfbench_layers")
    exec(compile(LAYERS.read_text(encoding="utf-8"), str(LAYERS), "exec"), module.__dict__)
    return module


def test_layer_trace_installs_and_removes_cleanly():
    layers = _layers_module()
    wrapped = layers.TIMED + layers.COUNTED
    originals = {(module, attr): layers._resolve(module, attr)[2] for _, module, attr in wrapped}
    suites = dict(topolab.suites.SUITES)
    trace = layers.LayerTrace()
    try:
        trace.install()
        for (module, attr), original in originals.items():
            assert layers._resolve(module, attr)[2] is not original, attr
        assert all(topolab.suites.SUITES[sid] is not fn for sid, fn in suites.items())
    finally:
        trace.remove()
    for (module, attr), original in originals.items():
        assert layers._resolve(module, attr)[2] is original, attr
    assert topolab.suites.SUITES == suites


def test_layer_trace_sums_the_monad_memo_counts():
    layers = _layers_module()
    memos = [
        action
        for monad in map(filter_monad, KINDS)
        for action in (monad.functor.mor, monad.unit.at, monad.mult.at)
    ]
    unit = filter_monad(ULTRA).unit
    maps = maps_between(spaces_up_to(2))
    calls_before = sum(m.cache_info().hits + m.cache_info().misses for m in memos)
    trace = layers.LayerTrace()
    try:
        trace.install()
        assert check_naturality(unit, maps).ok
        counters = trace.counters()
    finally:
        trace.remove()
    infos = [m.cache_info() for m in memos]
    assert counters["memo.size"] > 0
    assert counters["memo.size"] == sum(info.currsize for info in infos)
    assert counters["memo.hits"] == sum(info.hits for info in infos)
    assert counters["memo.misses"] == sum(info.misses for info in infos)
    # each square reads the unit at both ends and the lift of f
    assert counters["memo.hits"] + counters["memo.misses"] == calls_before + 3 * len(maps)


def test_layer_trace_counts_one_constructor_run_per_map(monkeypatch):
    # the trace wraps ContinuousMap.__post_init__ by name, so a constructor
    # that bypassed it would read 0 here; the map search runs without its
    # memo, so every map of the corpus is built inside the trace
    layers = _layers_module()
    monkeypatch.setattr(
        spaces, "enumerate_continuous_maps", spaces.enumerate_continuous_maps.__wrapped__
    )
    trace = layers.LayerTrace()
    try:
        trace.install()
        maps = maps_between.__wrapped__(spaces_up_to(2))
        counters = trace.counters()
    finally:
        trace.remove()
    assert maps == maps_between(spaces_up_to(2))
    assert counters["ContinuousMap.init.calls"] == len(maps) > 0


def test_layer_trace_reports_every_per_layer_metric_of_the_benchmark():
    # the metrics exist from install on, whatever the workload calls: a
    # wrapped name or a memo's cache_info that went missing would silently
    # drop them from every traced run; the overhead ratio is added per run
    layers = _layers_module()
    listed = {m["name"] for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]}
    listed.discard("trace.overhead_ratio")
    trace = layers.LayerTrace()
    try:
        trace.install()
    finally:
        trace.remove()
    assert listed - set(trace.metrics()) == set()
    assert len(listed) == 112
