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

One rule turns a stream of witnesses into PASS or FAIL, ``reports.verdict``,
and it is the only code that builds a PASS or FAIL report: no module but
``reports`` calls ``CheckReport``, and the one other helper of ``reports``,
``not_applicable``, marks a check whose hypothesis fails (``fakir_test``).

A fault is one ``(site, bend)`` entry of ``suites.FAULTS``, the only fault
table of ``src/topolab``, and the run's fault is read only by
``suites._bent``, which looks the table up, and by ``suites.run_suite``. A
new fault cannot be wired in through a string compare elsewhere.

The process-long memos are pinned by name, so a new one shows up as a diff.
"""

import ast
import importlib
import itertools
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


def _names_imported_from_reports() -> dict[str, set[str]]:
    """The names each module of ``src/topolab`` imports from ``.reports``."""
    imported: dict[str, set[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "reports":
                imported.setdefault(path.name, set()).update(a.name for a in node.names)
    return imported


def _where(path: Path, hit) -> set[str]:
    """Where a node that ``hit`` accepts sits in a module: each enclosing
    module-level function by name, or ``<module>`` for a node outside one."""
    where = set()
    for top in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
        for node in ast.walk(top):
            if hit(node):
                where.add(top.name if isinstance(top, ast.FunctionDef) else "<module>")
    return where


def _calls_check_report(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and "CheckReport" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)
    )


def test_the_checkers_decide_through_the_verdict_rule():
    callers = {path.name: _where(path, _calls_check_report) for path in sorted(SRC.glob("*.py"))}
    assert {name: where for name, where in callers.items() if where} == {
        "reports.py": {"not_applicable", "verdict"}
    }
    imported = _names_imported_from_reports()
    for module in ("monadlab.py", "frames.py", "reflectors.py", "suites.py"):
        assert "verdict" in imported[module]
    helpers = set().union(*imported.values()) - {"CheckReport"}
    assert helpers == {"verdict", "not_applicable"}
    assert [name for name, names in imported.items() if "not_applicable" in names] == [
        "monadlab.py"
    ]
    reports = ast.parse((SRC / "reports.py").read_text(encoding="utf-8"))
    defs = {node.name for node in reports.body if isinstance(node, ast.FunctionDef)}
    assert defs == {"not_applicable", "verdict"}


def test_the_run_fault_is_read_only_by_the_fault_table_lookup():
    # a fault is wired in through ``suites.FAULTS`` alone: no string compare
    # on ``bounds.fault`` anywhere else
    def reads_fault(node: ast.AST) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "fault"

    readers = {path.name: _where(path, reads_fault) for path in sorted(SRC.glob("*.py"))}
    assert {name: where for name, where in readers.items() if where} == {
        "suites.py": {"_bent", "run_suite"}
    }


def test_every_fault_is_a_site_and_a_bend():
    from topolab import filters, reflectors, suites

    kinds, names = set(filters.KINDS), set(reflectors.REFLECT_OPS)
    sites = kinds | names | set(itertools.product(names, kinds))
    for entry in suites.FAULTS.values():
        assert type(entry) is tuple and len(entry) == 2
        site, bend = entry
        assert site in sites and callable(bend)
    tables = [
        f"{path.name}:{target.id}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and "FAULT" in target.id.upper()
    ]
    assert tables == ["suites.py:FAULTS"]


# Every process-long memo of ``src/topolab``: a module-level callable with
# ``cache_info``, named by its defining module, so a re-export counts once.
MODULE_MEMOS = [
    "corpus.enumerate_lattices",
    "corpus.enumerate_spaces",
    "corpus.spaces_up_to",
    "filters.lift_space",
    "frames._points",
    "frames.ideal_frame",
    "frames.opens_frame",
    "monadlab.alpha_transformation",
    "monadlab.compose_reflector_monad",
    "monadlab.filter_monad",
    "monadlab.identity_monad",
    "monadlab.reflector_spec",
    "reflectors.hausdorff_reflect",
    "reflectors.sobrify",
    "reflectors.t0_reflect",
    "spaces._compact_masks",
    "spaces._order_relation",
    "spaces._precomposers",
    "spaces.classify",
    "spaces.compact_saturated_sets",
    "spaces.enumerate_continuous_maps",
    "spaces.maps_between",
]


def test_the_module_level_memos_are_the_pinned_inventory():
    memos = []
    for path in sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"):
        module = importlib.import_module(f"topolab.{path.stem}")
        memos.extend(
            f"{path.stem}.{name}"
            for name, value in vars(module).items()
            if hasattr(value, "cache_info") and value.__module__ == module.__name__
        )
    assert sorted(memos) == MODULE_MEMOS
