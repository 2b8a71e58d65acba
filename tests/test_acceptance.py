"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; everything is exact (discrete mathematics, no tolerances).
"""

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import topolab
from topolab import (
    CLOSED_PRIME,
    OPEN_PRIME,
    ULTRA,
    alpha_transformation,
    build_space,
    check_monad_laws,
    check_monad_morphism,
    classify,
    compose,
    compose_reflector_monad,
    enumerate_lattices,
    enumerate_spaces,
    filter_monad,
    find_homeomorphism,
    hausdorff_reflect,
    is_homeomorphism,
    recount_topologies,
    reflection_onto_composite,
    reflector_spec,
    run_suite,
    RunBounds,
    universal_separation,
)
from topolab.corpus import lattice_class_counts, maps_between, recount_lattices, spaces_up_to
from topolab.divergences import DIVERGENCES
from topolab.monadlab import count_descents, horizontal

T0 = reflector_spec("t0")
HAUSDORFF = reflector_spec("hausdorff")
PINNED_CHECK_ALL = Path(__file__).resolve().parent.parent / "perfbench" / "check-all.stdout"
# sha256 of the report lines (each ending in a newline) of the six suites that
# read max_points, run in this order with max_points=5
LAW_SUITES = ("monad-laws", "prop3.7", "example2.2", "topo-invariants", "sobriety", "divergences")
PINNED_FIVE_POINT_SHA256 = "8b0208b66c74628e041756d92e228e6bafab3962b98409157a9c377e1956a626"


def _verdict(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def _suite_ok(suite_id: str, bounds: RunBounds | None = None) -> bool:
    return all(r.ok for r in run_suite(suite_id, bounds))


@pytest.fixture(scope="module")
def law_corpus():
    three = enumerate_spaces(3, up_to_homeo=True)
    four = enumerate_spaces(4, up_to_homeo=True)
    assert len(three) == 9 and len(four) == 33
    return three + four


@pytest.fixture(scope="module")
def map_corpus():
    spaces = spaces_up_to(3, True)
    return spaces, maps_between(spaces)


def test_criterion_1_monad_laws(law_corpus):
    start = time.monotonic()
    lawful = all(
        check_monad_laws(filter_monad(kind), law_corpus).ok
        for kind in (ULTRA, OPEN_PRIME, CLOSED_PRIME)
    )
    injected = all(
        any(not r.ok for r in run_suite("monad-laws", RunBounds(fault=fault)))
        for fault in ("sigma-mult-swap", "ultra-mult-swap", "pcf-mult-swap")
    )
    elapsed = time.monotonic() - start
    _verdict(
        1,
        f"monad laws on 9+33 classes and fault detection in {elapsed:.1f}s (< 60s)",
        lawful and injected and elapsed < 60,
    )


def test_criterion_2_comparison_monad_morphisms(map_corpus):
    spaces, maps = map_corpus
    u = filter_monad(ULTRA)
    ok = all(
        check_monad_morphism(
            alpha_transformation(kind), u, filter_monad(kind), spaces, maps
        ).ok
        for kind in (OPEN_PRIME, CLOSED_PRIME)
    )
    _verdict(2, "ultrafilter comparisons are monad morphisms on the map corpus", ok)


def test_criterion_3_composite_matches_open_prime(map_corpus):
    spaces, maps = map_corpus
    u = filter_monad(ULTRA)
    s = filter_monad(OPEN_PRIME)
    composite = compose_reflector_monad(T0, u)
    phi = universal_separation(alpha_transformation(OPEN_PRIME), T0, u, s, spaces, maps)
    ok = check_monad_laws(composite, spaces).ok
    ok = ok and check_monad_morphism(phi, composite, s, spaces, maps).ok
    for space in spaces:
        ok = ok and is_homeomorphism(phi.at(space))
        # the pipelined multiplication transports exactly onto the target one
        lhs = compose(phi.at(space), composite.mult.at(space))
        rhs = compose(s.mult.at(space), horizontal(phi, phi, space))
        ok = ok and lhs.map == rhs.map
    _verdict(3, "T0 of the ultrafilter monad is the open-prime monad, exactly", ok)


def test_criterion_4_universal_separation(map_corpus):
    spaces, maps = map_corpus
    u = filter_monad(ULTRA)
    p = filter_monad(CLOSED_PRIME)
    lam = universal_separation(alpha_transformation(CLOSED_PRIME), T0, u, p, spaces, maps)
    composite = compose_reflector_monad(T0, u)
    r_u = reflection_onto_composite(T0, u)
    ok = check_monad_morphism(lam, composite, p, spaces, maps).ok
    for space in spaces_up_to(4, True):  # descent targets up to four points
        alpha_x = alpha_transformation(CLOSED_PRIME).at(space)
        ok = ok and is_homeomorphism(lam.at(space))
        ok = ok and compose(lam.at(space), r_u.at(space)).map == alpha_x.map
        ok = ok and count_descents(alpha_x, r_u.at(space)) == 1
    _verdict(4, "descent to the closed-prime monad is a unique natural homeomorphism", ok)


def test_criterion_5_quotient_lattice_isomorphism():
    ok = _suite_ok("prop3.7")
    _verdict(5, "T0 quotient identities hold for every open of every corpus space", ok)


def test_criterion_6_worked_example():
    example = build_space(3, [{0}])
    profile = classify(example)
    ok = (
        profile.is_stable
        and profile.is_locally_compact
        and profile.is_weakly_sober
        and not profile.is_T0
        and profile.irreducible_closed_sets == (0b110, 0b111)
    )
    ok = ok and _suite_ok("example2.2")
    _verdict(6, "the three-point witness classifies exactly as stated", ok)


def test_criterion_7_hausdorff_composites(map_corpus):
    spaces, _ = map_corpus
    ok = _suite_ok("prop5.7") and _suite_ok("lemma2.6")
    hu = compose_reflector_monad(HAUSDORFF, filter_monad(ULTRA))
    hs = compose_reflector_monad(HAUSDORFF, filter_monad(OPEN_PRIME))
    for space in spaces:
        components = hausdorff_reflect(space)[0]
        ok = ok and find_homeomorphism(hu.obj(space), components) is not None
        ok = ok and find_homeomorphism(hs.obj(space), components) is not None
    _verdict(
        7,
        "both Hausdorff composites give the component quotient; patch counit couniversal",
        ok,
    )


def test_criterion_8_stable_compactification_universal():
    ok = _suite_ok("prop5.2")
    _verdict(
        8,
        "unique mediating maps into stably compact targets; unit embeds iff T0",
        ok,
    )


def test_criterion_9_frames():
    ok = _suite_ok("ideal-comonad") and _suite_ok("lemma5.8") and _suite_ok("prop5.9")
    ok = ok and len(enumerate_lattices(8)) == sum(lattice_class_counts(8).values())
    _verdict(9, "ideal comonad, regular coreflection, and mono preservation", ok)


def test_five_point_law_reports_are_pinned():
    bounds = RunBounds(max_points=5)
    lines = [r.line() for suite in LAW_SUITES for r in run_suite(suite, bounds)]
    assert len(lines) == 20
    digest = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
    assert digest == PINNED_FIVE_POINT_SHA256


def test_criterion_10_corpus_and_determinism():
    counts_ok = all(
        len(enumerate_spaces(n)) == recount_topologies(n) for n in (1, 2, 3, 4)
    )
    counts_ok = counts_ok and (
        [len(enumerate_spaces(n)) for n in (1, 2, 3, 4)] == [1, 4, 29, 355]
    )
    counts_ok = counts_ok and (
        [len(enumerate_spaces(n, up_to_homeo=True)) for n in (1, 2, 3, 4)]
        == [1, 3, 9, 33]
    )
    counts_ok = counts_ok and lattice_class_counts(6) == recount_lattices(6)

    start = time.monotonic()
    first = [r.line() for r in run_suite("all")]
    elapsed = time.monotonic() - start
    second = [r.line() for r in run_suite("all")]
    deterministic = first == second and all("FAIL" not in line for line in first)
    # the reports of the default run, pinned byte for byte (the file's last
    # line is the CLI summary, which run_suite does not produce)
    pinned = PINNED_CHECK_ALL.read_text(encoding="utf-8").splitlines()[:-1]
    deterministic = deterministic and first == pinned

    # the child imports the same package as this process
    src = str(Path(topolab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    outputs = []
    for seed in ("1", "2"):
        env["PYTHONHASHSEED"] = seed
        proc = subprocess.run(
            [sys.executable, "-m", "topolab.cli", "check", "--suite", "corpus-counts"],
            capture_output=True,
            env=env,
            check=False,
        )
        outputs.append(proc.stdout)
    cross_process = outputs[0] == outputs[1] and outputs[0]

    _verdict(
        10,
        f"corpus counts recounted; full suite green in {elapsed:.0f}s (< 300s); "
        "reports byte-identical",
        counts_ok and deterministic and bool(cross_process) and elapsed < 300,
    )


def test_criterion_11_documented_divergences():
    reports = run_suite("divergences")
    ok = all(r.ok for r in reports)
    # each assertion must carry its pointer into the divergence registry
    ok = ok and all(r.note for r in reports)
    _verdict(11, "finite-scale degeneracies assert positively with their notes", ok)


def test_every_divergence_is_the_source_of_a_note():
    # a note quotes the head of its registry entry, cut at 60 or 64 characters
    notes = {r.note.removesuffix("...") for r in run_suite("all") if r.note}
    unread = [key for key, text in DIVERGENCES.items() if not any(map(text.startswith, notes))]
    assert not unread
