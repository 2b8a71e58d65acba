"""Round trips and rejection diagnostics for the file formats."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import topolab
from topolab import InvalidInput, lift_space
from topolab.filters import OPEN_PRIME
from topolab.reports import CheckReport, verdict
from topolab.serialization import (
    lifted_dot,
    lifted_sidecar_to_json,
    map_to_json,
    space_from_json,
    space_to_json,
    specialization_dot,
)
from topolab.spaces import ContinuousMap


def test_space_round_trip(e1):
    assert space_from_json(space_to_json(e1)) == e1


def test_space_example_shape(e1):
    assert space_to_json(e1) == {"points": 3, "opens": [[], [0], [0, 1, 2]]}


def test_space_rejects_missing_bounds():
    with pytest.raises(InvalidInput, match="empty and the full"):
        space_from_json({"points": 2, "opens": [[0]]})


def test_space_rejects_non_canonical_order():
    with pytest.raises(InvalidInput, match="canonical ascending"):
        space_from_json({"points": 2, "opens": [[], [0, 1], [1]]})


def test_space_rejects_unsorted_member_list():
    with pytest.raises(InvalidInput, match="sorted"):
        space_from_json({"points": 2, "opens": [[], [1, 0]]})


def test_space_rejects_non_topology():
    with pytest.raises(InvalidInput, match="not a topology"):
        space_from_json({"points": 3, "opens": [[], [0], [1], [0, 1, 2]]})


def test_space_rejects_wrong_keys():
    with pytest.raises(InvalidInput, match="keys"):
        space_from_json({"points": 2})


def test_map_to_json_shape(e1, sierpinski):
    f = ContinuousMap(e1, sierpinski, (1, 0, 0))
    assert map_to_json(f) == {
        "dom": space_to_json(e1),
        "cod": space_to_json(sierpinski),
        "map": [1, 0, 0],
    }


def test_lifted_sidecar(e1):
    lifted = lift_space(OPEN_PRIME, e1)
    sidecar = lifted_sidecar_to_json(lifted)
    assert sidecar["kind"] == OPEN_PRIME
    assert sidecar["generators"] == [[0], [0, 1, 2]]


def test_report_json_shape():
    report = verdict("x", "small corpus", ["broken at 3"])
    assert report.to_json() == {
        "id": "x",
        "corpus": "small corpus",
        "status": "fail",
        "witness": "broken at 3",
    }


def test_report_witness_invariant():
    with pytest.raises(InvalidInput):
        CheckReport("x", "c", "fail")
    with pytest.raises(InvalidInput):
        CheckReport("x", "c", "pass", witness="spurious")
    with pytest.raises(InvalidInput):
        CheckReport("x", "c", "maybe")
    assert verdict("x", "c", []).ok


def test_verdict_names_a_failure_by_its_pair_and_a_pass_by_its_check():
    def witnesses():
        yield ""
        yield ("x[sub]", "")  # a pair with no text is no failure
        yield ("x[sub]", "broken at 3")
        raise AssertionError("resumed after a failure")

    report = verdict("x", "c", witnesses(), note="n")
    assert report.line() == "[FAIL] x[sub] [c] witness: broken at 3"
    assert verdict("x", "c", ["", ("x[sub]", "")], note="n").line() == "[PASS] x [c] (n)"


def test_report_invariant_survives_optimized_mode():
    # the rule is enforced by raising, so ``python -O`` cannot strip it
    src = str(Path(topolab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "from topolab.reports import CheckReport\n"
        "from topolab.errors import InvalidInput\n"
        "try:\n"
        "    CheckReport('x', 'c', 'fail')\n"
        "except InvalidInput:\n"
        "    print('rejected')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=False
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "rejected"


def test_dot_export(e1):
    text = specialization_dot(e1)
    assert "digraph specialization" in text
    assert "p1 -> p0;" in text and "p0 -> p1;" not in text
    lifted = lift_space(OPEN_PRIME, e1)
    lifted_text = lifted_dot(lifted)
    assert 'label="^{0}"' in lifted_text
    assert "f0 -> f1;" not in lifted_text and "f1 -> f0;" in lifted_text
