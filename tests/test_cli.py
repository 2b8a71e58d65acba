"""Command-line contract: commands, flags, exit codes, reproducible output."""

import json
import types

import pytest

import topolab
from topolab.cli import main
from topolab.serialization import dumps, space_to_json
from topolab.errors import InvalidInput, NotWellDefined
from topolab.frames import LATTICE_ENUM_CAP
from topolab.suites import FAULT_TARGETS, SUITES, RunBounds, run_suite
from topolab import build_space


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


def test_analyze_missing_file(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.json")]) == 2


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


def test_t0_coarsen_fails_the_full_run_without_crashing(capsys):
    # the faulted T0 quotient makes the descents of prop3.6, thm4.11 and prop5.4
    # ill-defined; each such suite is one FAIL, and the run still completes
    assert main(["check", "--suite", "all", "--inject-fault", "t0-coarsen"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    failing = {line.split()[1] for line in captured.out.splitlines() if line.startswith("[FAIL]")}
    assert {"reflector-universal[t0]", "prop3.7[lattice-iso]"} <= failing
    assert {"prop3.6", "thm4.11", "prop5.4"} <= failing


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


def test_package_exports_no_submodules():
    assert topolab.__all__
    assert not [n for n in topolab.__all__ if isinstance(getattr(topolab, n), types.ModuleType)]
    assert {"run_suite", "RunBounds", "FiniteSpace", "check_reflector_universal"} <= set(
        topolab.__all__
    )


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
        RunBounds(lattice_cap=0),
        RunBounds(lattice_cap=LATTICE_ENUM_CAP + 1),
        RunBounds(mono_lattice_cap=LATTICE_ENUM_CAP + 1),
    ],
)
def test_run_suite_rejects_out_of_range_bounds(bounds):
    with pytest.raises(InvalidInput, match="must lie in"):
        run_suite("lemma5.8", bounds)


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
