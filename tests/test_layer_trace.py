"""The benchmark's outside-in layer trace still finds every name it wraps.

``perfbench/layers.py`` wraps public functions and methods by name; renaming or
deleting one of them would only show when the benchmark is traced. Its source
is read and executed here without importing it, so nothing is written next to
it.
"""

import types
from pathlib import Path

import topolab.suites  # noqa: F401  (loads every module the trace resolves)

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


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
