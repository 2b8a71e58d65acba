"""Command-line contract: commands, flags, exit codes, reproducible output."""

import ast
import hashlib
import json
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import topolab
from topolab.cli import MONAD_KINDS, main
from topolab.serialization import dumps, space_to_json
from topolab import errors
from topolab.errors import InvalidInput, NotWellDefined
from topolab.corpus import MAX_POINTS, spaces_up_to
from topolab.filters import ULTRA_MAX_POINTS
from topolab.monadlab import filter_monad
from topolab.reflectors import REFLECT_OPS
from topolab.suites import (
    _FAULT_KIND,
    FAULT_TARGETS,
    FAULTS,
    SUITES,
    RunBounds,
    _swap_first_two,
    run_suite,
)
from topolab import build_space, identity_map


@pytest.fixture()
def e1_file(tmp_path):
    path = tmp_path / "e1.json"
    path.write_text(dumps(space_to_json(build_space(3, [{0}]))), encoding="utf-8")
    return path


def test_analyze(e1_file, capsys):
    assert main(["analyze", str(e1_file)]) == 0
    out = capsys.readouterr().out
    assert "T0: False" in out
    assert "stable: True" in out
    assert "irreducible closed sets: {1,2}, {0,1,2}" in out


def test_analyze_invalid_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"points": 2, "opens": [[0]]}', encoding="utf-8")
    assert main(["analyze", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        '{"points": true, "opens": [[], [false]]}',
        '{"points": 1, "opens": [[], [false]]}',
        '{"points": 2, "opens": [[], [true], [0, 1]]}',
    ],
)
def test_analyze_rejects_booleans(tmp_path, text, capsys):
    bad = tmp_path / "bool.json"
    bad.write_text(text, encoding="utf-8")
    assert main(["analyze", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert captured.out == ""


def test_analyze_rejects_a_large_family_with_a_union_gap(tmp_path, capsys):
    # 40 points, opens the empty set, the full set and the complements of the
    # singletons: the singletons are the U_x and have 2^40 unions
    n = 40
    full = (1 << n) - 1
    masks = sorted({0, full, *(full ^ 1 << x for x in range(n))})
    opens = [[y for y in range(n) if m >> y & 1] for m in masks]
    bad = tmp_path / "gap.json"
    bad.write_text(json.dumps({"points": n, "opens": opens}), encoding="utf-8")
    assert main(["analyze", str(bad)]) == 2
    assert "not closed under union/intersection" in capsys.readouterr().err


def test_analyze_missing_file(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize(
    "command", [["analyze"], ["compactify"], ["reflect"], ["export-dot"]]
)
@pytest.mark.parametrize(
    "raw, diagnostic",
    [
        (b"\xff\xfe{}", "is not UTF-8 text"),
        (b"[" * 200_000, "nests too deeply"),
    ],
    ids=["not-utf8", "deep-nesting"],
)
def test_undecodable_input_exits_2(tmp_path, command, raw, diagnostic, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(raw)
    assert main([*command, str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad} {diagnostic}")
    assert "Traceback" not in err


def _assert_cannot_write(capsys, path):
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path}: ")
    assert "Traceback" not in err


def test_export_dot_into_a_missing_directory_exits_2(e1_file, tmp_path, capsys):
    target = tmp_path / "missing" / "dir" / "x.dot"
    assert main(["export-dot", str(e1_file), "--out", str(target)]) == 2
    _assert_cannot_write(capsys, target)
    assert not target.parent.exists()


@pytest.mark.parametrize("command", ["compactify", "reflect"])
def test_writing_results_under_a_regular_file_exits_2(e1_file, command, capsys):
    out_dir = e1_file / "out"
    assert main([command, str(e1_file), "--out", str(out_dir)]) == 2
    _assert_cannot_write(capsys, out_dir)


def test_compactify_sigma(e1_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["compactify", str(e1_file), "--monad", "sigma", "--out", str(out_dir)]) == 0
    stdout = capsys.readouterr().out
    assert "result points: 2" in stdout
    space = json.loads((out_dir / "e1.sigma.space.json").read_text())
    assert space["points"] == 2
    unit = json.loads((out_dir / "e1.sigma.unit.json").read_text())
    assert unit["map"] == [0, 1, 1]
    sidecar = json.loads((out_dir / "e1.sigma.points.json").read_text())
    assert sidecar["generators"] == [[0], [0, 1, 2]]


def test_compactify_point_is_fixed(tmp_path, capsys):
    path = tmp_path / "pt.json"
    path.write_text(dumps(space_to_json(build_space(1, []))), encoding="utf-8")
    assert main(["compactify", str(path), "--monad", "sigma"]) == 0
    assert "result points: 1" in capsys.readouterr().out


def test_reflect_hausdorff(e1_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["reflect", str(e1_file), "--via", "hausdorff", "--out", str(out_dir)]) == 0
    assert "result points: 1" in capsys.readouterr().out
    space = json.loads((out_dir / "e1.hausdorff.space.json").read_text())
    assert space["points"] == 1


def _indiscrete(n):
    return [[], list(range(n))]


def _chain(n):
    return [list(range(k)) for k in range(n + 1)]


_FORTY_POINT_RUNS = [
    (command, 40, opens, line.format(n=n))
    for opens, n in ((_chain, 40), (_indiscrete, 1))
    for command, line in (
        (["analyze"], "points: 40"),
        (["reflect", "--via", "t0"], "result points: {n}"),
        (["reflect", "--via", "sober"], "result points: {n}"),
        (["compactify", "--monad", "sigma"], "result points: {n}"),
        (["compactify", "--monad", "pcf"], "result points: {n}"),
        (["export-dot", "--monad", "sigma"], "wrote TMP/big.dot"),
        (["export-dot", "--monad", "pcf"], "wrote TMP/big.dot"),
    )
]


@pytest.mark.parametrize(
    "command, points, opens, line",
    [
        (["analyze"], 20, _indiscrete, "points: 20"),
        (["reflect", "--via", "t0"], 20, _indiscrete, "result points: 1"),
        (["compactify", "--monad", "ultra"], 14, _chain, "result points: 14"),
        (["compactify", "--monad", "pcf"], 16, _chain, "result points: 16"),
        (["reflect", "--via", "sober"], 16, _chain, "result points: 16"),
        *_FORTY_POINT_RUNS,
    ],
    ids=["analyze-indiscrete20", "t0-indiscrete20", "ultra-chain14", "pcf-chain16",
         "sober-chain16"]
    + ["-".join([*c[::2], f"{o.__name__[1:]}40"]) for c, _, o, _ in _FORTY_POINT_RUNS],
)
def test_file_commands_finish_on_larger_inputs(tmp_path, capsys, command, points, opens, line):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"points": points, "opens": opens(points)}), encoding="utf-8")
    start = time.perf_counter()
    assert main([command[0], str(path), *command[1:]]) == 0
    assert time.perf_counter() - start < 10
    assert line in capsys.readouterr().out.replace(str(tmp_path), "TMP").splitlines()


@pytest.mark.parametrize("command", ["compactify", "export-dot"])
@pytest.mark.parametrize("opens", [_chain, _indiscrete], ids=["chain40", "indiscrete40"])
def test_ultra_refuses_forty_points(tmp_path, capsys, command, opens):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"points": 40, "opens": opens(40)}), encoding="utf-8")
    start = time.perf_counter()
    assert main([command, str(path), "--monad", "ultra"]) == 2
    assert time.perf_counter() - start < 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: the ultrafilter lift is refused above {ULTRA_MAX_POINTS} points, got 40\n"
    )


# sha256 of the file commands run on every class with at most 3 points: per
# run, its arguments, exit code and stdout and the text of every file it
# wrote, with the temporary directory written as "TMP"
PINNED_FILE_COMMANDS_SHA256 = "19fefdb5cb2a0feefd1904c189193aec9f26e131b81f8d9fa9fa8b100635b9d2"


def test_file_command_outputs_are_pinned(tmp_path, capsys):
    runs = [["analyze"]]
    runs += [["compactify", "--monad", m] for m in sorted(MONAD_KINDS)]
    runs += [["reflect", "--via", r] for r in sorted(REFLECT_OPS)]
    runs += [["export-dot", "--monad", m] for m in sorted(MONAD_KINDS)]
    digest = hashlib.sha256()
    files = 0
    for i, space in enumerate(spaces_up_to(3)):
        path = tmp_path / f"space{i}.json"
        path.write_text(dumps(space_to_json(space)), encoding="utf-8")
        for run in runs:
            code = main([run[0], str(path), *run[1:]])
            out = capsys.readouterr().out
            written = [Path(w[len("wrote "):]) for w in out.splitlines() if w.startswith("wrote ")]
            files += len(written)
            record = [*run, str(code), out, *(w.read_text(encoding="utf-8") for w in written)]
            digest.update("\0".join(record).replace(str(tmp_path), "TMP").encode())
    assert files == 13 * (3 * 3 + 3 * 2 + 3)  # 13 classes; 3, 2 and 1 files a run
    assert digest.hexdigest() == PINNED_FILE_COMMANDS_SHA256


def test_check_single_suite(capsys):
    assert main(["check", "--suite", "prop3.7", "--max-points", "3"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] prop3.7" in out
    assert "failures: 0" in out


def test_check_fault_injection(capsys):
    code = main(
        ["check", "--suite", "monad-laws", "--max-points", "3",
         "--inject-fault", "sigma-mult-swap"]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out


def test_check_unknown_suite(capsys):
    assert main(["check", "--suite", "nope"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_check_unknown_fault(capsys):
    assert main(["check", "--suite", "monad-laws", "--inject-fault", "nope"]) == 2


@pytest.mark.parametrize("fault,suite", sorted(FAULT_TARGETS.items()))
def test_every_fault_is_caught_by_its_target_suite(fault, suite, capsys):
    assert main(["check", "--suite", suite, "--inject-fault", fault]) == 1
    out = capsys.readouterr().out
    assert any(line.startswith("[FAIL]") for line in out.splitlines())


@pytest.mark.parametrize("fault", ["sigma-mult-swap", "ultra-mult-swap", "pcf-mult-swap"])
def test_mult_swap_fault_is_live(fault):
    # the swap falls back to the identity on one point or where it is not
    # continuous; on some lifted space of the monad-laws corpus it must move points
    monad = filter_monad(_FAULT_KIND[fault])
    lifted = [monad.obj(s) for s in spaces_up_to(RunBounds().max_points)]
    assert any(_swap_first_two(t).map != identity_map(t).map for t in lifted)


def test_t0_coarsen_fails_the_full_run_without_crashing(capsys):
    # the faulted T0 quotient makes the descents of prop3.6, thm4.11 and prop5.4
    # ill-defined; each such suite is one FAIL, and the run still completes
    assert main(["check", "--suite", "all", "--inject-fault", "t0-coarsen"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    failing = {line.split()[1] for line in captured.out.splitlines() if line.startswith("[FAIL]")}
    assert {"reflector-universal[t0]", "prop3.7[lattice-iso]"} <= failing
    assert {"prop3.6", "thm4.11", "prop5.4"} <= failing
    # every suite that quotients by T0 takes the faulted reflector
    assert {
        "lemma4.8[S-fixed-point]",
        "lemma4.8[P-fixed-point]",
        "lemma5.3",
        "sobriety[matches-t0]",
        "sobriety[filter-space]",
        "divergence[sobrify-t0]",
    } <= failing


# The exact FAIL ids of ``check --suite all`` under each fault.
FAULT_MATRIX = {
    "sigma-mult-swap": {
        "monad-laws[S]", "prop3.4[alpha->S]", "prop3.6[monad-morphism]", "thm4.6[S]",
        "prop5.4[morphism]", "prop5.7[monad-morphism]", "filters[mult-natural-S]",
    },
    "ultra-mult-swap": {
        "monad-laws[U]", "prop3.4[alpha->S]", "prop3.4[alpha->P]", "prop3.6[composite-laws]",
        "prop3.6[monad-morphism]", "thm4.6[U]", "prop4.9", "thm4.11[monad-morphism]", "prop5.1",
        "prop5.7[monad-morphism]", "filters[mult-natural-U]",
    },
    "pcf-mult-swap": {
        "monad-laws[P]", "prop3.4[alpha->P]", "thm4.6[P]", "thm4.11[monad-morphism]",
        "prop5.4[morphism]", "filters[mult-natural-P]",
    },
    "t0-coarsen": {
        "prop3.6", "prop3.7[lattice-iso]", "lemma4.8[S-fixed-point]", "lemma4.8[P-fixed-point]",
        "thm4.11", "prop5.4", "lemma5.3", "reflector-universal[t0]", "sobriety[matches-t0]",
        "sobriety[filter-space]", "divergence[sobrify-t0]",
    },
    "composite-mult-collapse": {
        "prop3.6[composite-laws]", "prop3.6[monad-morphism]", "thm4.1[rU]",
        "lemma4.8[t0.U-idempotent]", "prop4.9", "thm4.11[monad-morphism]",
    },
    "ultra-lift-unswap": {
        "prop3.6[monad-morphism]", "prop4.9", "thm4.11[monad-morphism]", "prop5.1",
        "prop5.7[monad-morphism]", "filters[functor-U]", "filters[unit-natural-U]",
    },
}


# sha256 of the full report of ``check --suite all`` under each fault: every
# report's line(), each ended by "\n", so the witnesses and the N/A line of
# composite-mult-collapse are pinned too
FAULT_REPORT_SHA256 = {
    "composite-mult-collapse": "37e1961e5f50149dcb081a0201226651b091778b600045f8033668899e384e44",
    "pcf-mult-swap": "8e10045cf17e49f7d198fbcb8bd9a5fe4cdd64b97cfdadf44da8850f22c81dcc",
    "sigma-mult-swap": "96908fd4ca981e71f887ab1646426d6673643471adb344fc7b2f9254ffdffd22",
    "t0-coarsen": "ece624a5d289662b5d6357b3c2be15cac7da24239b32e0eba12ebe2ee619ea48",
    "ultra-lift-unswap": "2ec321a5cd2641f2b6b85cb2aef43c95856d31f12b832aed330415805a91da0e",
    "ultra-mult-swap": "a7ba35dcb5f90ce4db9f853b2c02e85e464856cc7465271cab992a8b8f1e80ca",
}


@pytest.mark.parametrize("fault", sorted(FAULT_MATRIX))
def test_each_fault_fails_exactly_its_pinned_checks(fault):
    assert set(FAULT_MATRIX) == set(FAULTS) == set(FAULT_REPORT_SHA256)
    reports = run_suite("all", RunBounds(fault=fault))
    assert {r.check_id for r in reports if not r.ok} == FAULT_MATRIX[fault]
    text = "".join(r.line() + "\n" for r in reports)
    assert hashlib.sha256(text.encode()).hexdigest() == FAULT_REPORT_SHA256[fault]


def test_run_suite_reports_a_failed_construction_as_a_fail(monkeypatch):
    def ill_defined(bounds):
        raise NotWellDefined("fiber over 0 carries both values 0 and 1")

    monkeypatch.setitem(SUITES, "ill-defined", ill_defined)
    [report] = run_suite("ill-defined")
    assert report.check_id == "ill-defined" and not report.ok
    assert report.witness == "NotWellDefined: fiber over 0 carries both values 0 and 1"


def test_run_suite_propagates_other_errors(monkeypatch):
    def malformed(bounds):
        raise InvalidInput("malformed")

    monkeypatch.setitem(SUITES, "malformed", malformed)
    with pytest.raises(InvalidInput, match="malformed"):
        run_suite("malformed")


def _raised_names(path):
    """``(line, name)`` of each ``raise`` with an exception in the module,
    outside its ``if __name__ == "__main__":`` guard."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    guarded = {
        id(node)
        for top in tree.body
        if isinstance(top, ast.If) and ast.unparse(top.test) == "__name__ == '__main__'"
        for node in ast.walk(top)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None and id(node) not in guarded:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield node.lineno, ast.unparse(exc)


def test_every_raise_in_the_package_is_a_workbench_error():
    # run_suite and main turn a TopolabError into a FAIL or exit 2; any other
    # exception would end a run in a traceback
    package = Path(topolab.__file__).resolve().parent
    stray = [
        f"{path.name}:{line}: {name}"
        for path in sorted(package.glob("*.py"))
        for line, name in _raised_names(path)
        if not (
            isinstance(getattr(errors, name, None), type)
            and issubclass(getattr(errors, name), errors.TopolabError)
        )
    ]
    assert stray == []


def test_package_exports_no_submodules():
    assert topolab.__all__
    assert not [n for n in topolab.__all__ if isinstance(getattr(topolab, n), types.ModuleType)]
    assert {"run_suite", "RunBounds", "FiniteSpace", "check_reflector_universal"} <= set(
        topolab.__all__
    )


def test_the_package_imports_only_the_standard_library():
    # pyproject.toml declares no dependencies; the probe lists what importing
    # the package and its CLI adds to a fresh interpreter
    probe = (
        "import sys; before = set(sys.modules); import topolab, topolab.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    src = Path(topolab.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert "topolab.cli" in out
    roots = {name.split(".")[0] for name in out}
    assert roots - sys.stdlib_module_names == {"topolab"}


@pytest.mark.parametrize(
    "flags",
    [
        ["--max-points", "0"],
        ["--max-points", "-1"],
        ["--max-points", "6"],
        ["--epi-cap", "0"],
        ["--epi-cap", "6"],
    ],
)
def test_check_rejects_out_of_range_bounds(flags, capsys):
    assert main(["check", "--suite", "monad-laws", *flags]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "must lie in" in captured.err
    assert "[PASS]" not in captured.out


@pytest.mark.parametrize(
    "bounds",
    [
        RunBounds(map_points=0),
        # a map corpus (3 points by default) past the law corpus or the epi cap
        RunBounds(max_points=2),
        RunBounds(max_points=2, epi_cap=2),
        RunBounds(epi_cap=2),
    ],
)
def test_run_suite_rejects_out_of_range_bounds(bounds):
    with pytest.raises(InvalidInput, match=r"^map_points must lie in 1\.\.5"):
        run_suite("lemma5.8", bounds)


def test_check_defaults_are_the_run_bounds(monkeypatch):
    seen = []

    def record(suite_id, bounds=None):
        seen.append((suite_id, bounds))
        return []

    monkeypatch.setattr("topolab.cli.run_suite", record)
    assert main(["check"]) == 0
    assert seen == [("all", RunBounds())]


def test_check_map_points_sets_the_map_corpus(monkeypatch, capsys):
    assert main(["check", "--suite", "prop4.9", "--map-points", "2"]) == 0
    assert capsys.readouterr().out.startswith("[PASS] prop4.9 [classes<=2 (4)]")
    seen = []

    def record(suite_id, bounds=None):
        seen.append(bounds)
        return []

    monkeypatch.setattr("topolab.cli.run_suite", record)
    assert main(["check", "--map-points", "4"]) == 0
    assert main(["check", "--max-points", "5", "--epi-cap", "5", "--map-points", "5"]) == 0
    assert main(["check", "--max-points", "2"]) == 0  # no flag: min(3, --max-points, --epi-cap)
    assert seen == [
        RunBounds(map_points=4),
        RunBounds(max_points=5, map_points=5, epi_cap=5),
        RunBounds(max_points=2, map_points=2),
    ]


def test_lowering_only_the_epi_cap_lowers_the_default_map_corpus(monkeypatch, capsys):
    assert main(["check", "--suite", "corpus-counts", "--epi-cap", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "[FAIL]" not in captured.out
    seen = []

    def record(suite_id, bounds=None):
        seen.append(bounds)
        return []

    monkeypatch.setattr("topolab.cli.run_suite", record)
    assert main(["check", "--epi-cap", "2"]) == 0  # no flag: min(3, --max-points, --epi-cap)
    assert seen == [RunBounds(map_points=2, epi_cap=2)]


def test_a_pair_scan_past_four_points_exits_2(monkeypatch, capsys):
    # a one-map 5-point corpus reaches the functoriality kernel at once
    five = build_space(5, [{0}])
    monkeypatch.setattr(
        "topolab.suites._map_corpus", lambda bounds: ((five,), (identity_map(five),), "five")
    )
    flags = ["--max-points", "5", "--epi-cap", "5", "--map-points", "5"]
    assert main(["check", "--suite", "filter-naturality", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: map pair scans run on spaces of at most 4 points\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "flags",
    [
        ["--map-points", "0"],
        ["--map-points", "-1"],
        ["--map-points", "6"],
        ["--max-points", "5", "--epi-cap", "5", "--map-points", "6"],
        ["--max-points", "2", "--map-points", "3"],
        ["--epi-cap", "2", "--map-points", "3"],
    ],
)
def test_check_rejects_out_of_range_map_points(flags, capsys):
    assert main(["check", "--suite", "prop4.9", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: map_points must lie in 1..5")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_check_output_is_reproducible(capsys):
    main(["check", "--suite", "example2.2", "--max-points", "3"])
    first = capsys.readouterr().out
    main(["check", "--suite", "example2.2", "--max-points", "3"])
    second = capsys.readouterr().out
    assert first == second


def test_corpus_command(capsys):
    assert main(["corpus", "--max-points", "3"]) == 0
    out = capsys.readouterr().out
    assert "n=3: 29 labeled topologies" in out


@pytest.mark.parametrize("bound", ["0", "-3", str(MAX_POINTS + 1)])
def test_corpus_rejects_out_of_range_bounds(bound, capsys):
    assert main(["corpus", "--max-points", bound]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "must lie in" in captured.err
    assert captured.out == ""


def test_corpus_up_to_homeo(capsys):
    assert main(["corpus", "--max-points", "4", "--up-to-homeo"]) == 0
    out = capsys.readouterr().out
    assert "n=4: 33 classes" in out


def test_export_dot(e1_file, tmp_path, capsys):
    target = tmp_path / "e1.dot"
    assert main(["export-dot", str(e1_file), "--monad", "sigma", "--out", str(target)]) == 0
    text = target.read_text()
    assert "digraph specialization" in text
    assert "digraph lifted_sigma" in text
