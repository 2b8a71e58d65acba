"""Every module-level function, class and import of ``src/topolab`` has a use.

A name counts as used when it appears, as a whole word, on some line of a
``src/topolab`` module other than the line that defines it, or in the
``TIMED`` or ``COUNTED`` tables of ``perfbench/layers.py``, which wrap it by
name. ``__init__.py`` only re-exports, so a name it lists is not used by that.
``check_filter_point``, ``compose_frame_maps`` and ``enumerate_frame_maps``
pass only through the ``layers.py`` tables. ``layers.py`` is read as text and
executed without importing it, as in ``test_layer_trace.py``.

An import made at module level counts as used when the name it binds appears
on a line of its module outside the import statement. ``from __future__``
imports and re-exports marked ``# noqa: F401`` are exempt.
"""

import ast
import re
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "topolab"
LAYERS = ROOT / "perfbench" / "layers.py"


def _traced_names() -> set[str]:
    module = types.ModuleType("perfbench_layers")
    exec(compile(LAYERS.read_text(encoding="utf-8"), str(LAYERS), "exec"), module.__dict__)
    return {part for _, _, attr in module.TIMED + module.COUNTED for part in attr.split(".")}


def test_every_module_level_def_and_class_in_src_is_named_elsewhere():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    sources = {p: p.read_text(encoding="utf-8") for p in modules}
    places: dict[str, set[tuple[Path, int]]] = {}  # word -> (module, line) it is on
    for path, source in sources.items():
        for number, line in enumerate(source.splitlines(), 1):
            for word in re.findall(r"\w+", line):
                places.setdefault(word, set()).add((path, number))
    traced = _traced_names()
    unused = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, source in sources.items()
        for node in ast.parse(source, str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not places[node.name] - {(path, node.lineno)}
        and node.name not in traced
    ]
    assert unused == []


def test_every_module_level_import_in_src_is_used_in_its_module():
    unused = []
    for path in sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for node in ast.parse(source, str(path)).body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            statement = range(node.lineno - 1, node.end_lineno)
            if any("# noqa: F401" in lines[i] for i in statement):
                continue
            rest = [line for i, line in enumerate(lines) if i not in statement]
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if not any(re.search(rf"\b{name}\b", line) for line in rest):
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
