"""Engine tests: law checkers, the composite pipeline, universality."""

import dataclasses
import gc
import tracemalloc
from collections import Counter

import pytest

from topolab import (
    CLOSED_PRIME,
    KINDS,
    ContinuousMap,
    OPEN_PRIME,
    ULTRA,
    HypothesisViolated,
    MonadSpec,
    NoSplitting,
    NatTransSpec,
    alpha_transformation,
    build_space,
    check_functor_laws,
    check_idempotent,
    check_monad_laws,
    check_monad_morphism,
    check_naturality,
    check_unit_transition_epi,
    compose,
    compose_reflector_monad,
    enumerate_continuous_maps,
    fakir_test,
    filter_monad,
    find_homeomorphism,
    find_splitting,
    hausdorff_reflect,
    identity_map,
    identity_monad,
    inverse_map,
    is_homeomorphism,
    lift_space,
    reflection_onto_composite,
    reflector_spec,
    t0_reflect,
    unit,
    universal_separation,
)
from topolab import monadlab, suites
from topolab.corpus import maps_between, spaces_up_to
from topolab.filters import LABELS
from topolab.spaces import FiniteSpace, classify, composes_to, is_proper
from topolab.monadlab import (
    IDENTITY_FUNCTOR,
    EndofunctorSpec,
    ReflectorSpec,
    _cached,
    algebra_structure,
    count_descents,
    horizontal,
    monad_preserves_epis,
)

T0 = reflector_spec("t0")
HAUSDORFF = reflector_spec("hausdorff")


@pytest.fixture(scope="module")
def corpus(classes3):
    maps = []
    for a in classes3:
        for b in classes3:
            maps.extend(enumerate_continuous_maps(a, b))
    return classes3, tuple(maps)


def _swap_mult(monad):
    def component(space):
        m = monad.mult.at(space)
        tx = monad.obj(space)
        if tx.n >= 2:
            arr = list(range(tx.n))
            arr[0], arr[1] = arr[1], arr[0]
            try:
                from topolab import ContinuousMap

                return compose(ContinuousMap(tx, tx, tuple(arr)), m)
            except Exception:
                pass
        return m

    broken = NatTransSpec("mult!", monad.mult.source, monad.mult.target, component)
    return MonadSpec(monad.name + "!", monad.functor, monad.unit, broken)


def test_functor_laws_all_monads(corpus):
    spaces, _ = corpus
    for kind in (ULTRA, OPEN_PRIME, CLOSED_PRIME):
        assert check_functor_laws(filter_monad(kind).functor, spaces[:8]).ok


def test_monad_laws_pass(corpus):
    spaces, _ = corpus
    for kind in (ULTRA, OPEN_PRIME, CLOSED_PRIME):
        assert check_monad_laws(filter_monad(kind), spaces).ok


def test_monad_laws_catch_mutation(corpus):
    spaces, _ = corpus
    report = check_monad_laws(_swap_mult(filter_monad(OPEN_PRIME)), spaces)
    assert not report.ok and report.witness


def test_alpha_is_monad_morphism(corpus):
    spaces, maps = corpus
    u = filter_monad(ULTRA)
    for kind in (OPEN_PRIME, CLOSED_PRIME):
        report = check_monad_morphism(
            alpha_transformation(kind), u, filter_monad(kind), spaces, maps
        )
        assert report.ok


def test_identity_transformation_is_monad_morphism(corpus):
    spaces, maps = corpus
    s = filter_monad(OPEN_PRIME)
    ident = NatTransSpec(
        "id", s.functor, s.functor, lambda space: identity_map(s.obj(space))
    )
    assert check_monad_morphism(ident, s, s, spaces, maps).ok


def _crooked_unit():
    """The unit of U with its first two values swapped wherever that is continuous."""
    u = filter_monad(ULTRA)

    def crooked(space):
        e = unit(ULTRA, space)
        tx = u.obj(space)
        if tx.n >= 2 and space.n >= 2:
            arr = list(e.map)
            arr[0], arr[1] = arr[1], arr[0]
            try:
                return ContinuousMap(space, tx, tuple(arr))
            except Exception:
                return e
        return e

    return NatTransSpec("crooked", identity_monad().functor, u.functor, crooked)


def test_naturality_checker_catches_breakage(corpus):
    spaces, maps = corpus
    nt = _crooked_unit()
    report = check_naturality(nt, maps)
    assert not report.ok
    # the first failing square of a plain scan, both sides built by compose
    f = next(
        f
        for f in maps
        if compose(nt.at(f.cod), nt.source.mor(f)).map
        != compose(nt.target.mor(f), nt.at(f.dom)).map
    )
    assert report.witness == f"crooked square fails at {f.dom!r} -> {f.cod!r}, f={f.map}"


# --- splittings ---------------------------------------------------------------


def test_filter_transformations_print_the_naturality_pass_line():
    # the naturality benchmark counts a transformation as failed unless its
    # report prints exactly this line
    maps = maps_between(spaces_up_to(2))
    monads = [filter_monad(kind) for kind in KINDS]
    transformations = [nt for monad in monads for nt in (monad.unit, monad.mult)]
    transformations += [alpha_transformation(kind) for kind in (OPEN_PRIME, CLOSED_PRIME)]
    assert len(transformations) == 8
    for nt in transformations:
        assert check_naturality(nt, maps).line() == f"[PASS] naturality [{len(maps)} maps]"


def test_find_splitting_of_unit_at_lifted(e1):
    sigma_e1 = lift_space(OPEN_PRIME, e1).space
    eta = unit(ULTRA, sigma_e1)
    beta = find_splitting(eta)
    assert beta is not None
    assert compose(beta, eta).map == identity_map(sigma_e1).map


def test_find_splitting_identity(e1):
    assert find_splitting(identity_map(e1)).map == identity_map(e1).map


def test_find_splitting_agrees_with_exhaustive_count(sierpinski):
    chain3 = build_space(3, [{2}, {1, 2}])
    j = None
    from topolab import ContinuousMap

    j = ContinuousMap(sierpinski, chain3, (0, 2))
    found = find_splitting(j)
    everything = [
        g
        for g in enumerate_continuous_maps(chain3, sierpinski)
        if compose(g, j).map == (0, 1)
    ]
    if everything:
        assert found is not None and found.map == everything[0].map
    else:
        assert found is None


def test_find_splitting_absent(discrete2, sierpinski):
    # maps from a connected space into a discrete one are constant, so the
    # embedding of the discrete pair admits no continuous retraction
    from topolab import ContinuousMap

    j = ContinuousMap(discrete2, sierpinski, (0, 1))
    assert find_splitting(j) is None


def test_find_splitting_requires_injective(e1, sierpinski):
    f = next(
        f for f in enumerate_continuous_maps(e1, sierpinski) if not f.is_injective
    )
    with pytest.raises(HypothesisViolated):
        find_splitting(f)


# --- the composite pipeline ---------------------------------------------------


def test_composite_t0_ultra_is_lawful(corpus):
    spaces, _ = corpus
    composite = compose_reflector_monad(T0, filter_monad(ULTRA))
    assert check_monad_laws(composite, spaces).ok


def test_composite_objects_match_open_prime(corpus):
    spaces, _ = corpus
    composite = compose_reflector_monad(T0, filter_monad(ULTRA))
    s = filter_monad(OPEN_PRIME)
    for space in spaces:
        assert find_homeomorphism(composite.obj(space), s.obj(space)) is not None


def test_composite_with_identity_monad_is_reflector(corpus, e1):
    spaces, _ = corpus
    composite = compose_reflector_monad(T0, identity_monad())
    assert check_monad_laws(composite, spaces).ok
    assert check_idempotent(composite, spaces).ok
    from topolab import t0_reflect

    assert composite.obj(e1) == t0_reflect(e1)[0]
    assert composite.unit.at(e1).map == t0_reflect(e1)[1].map


def test_composite_hausdorff_ultra_collapses_components(corpus):
    spaces, _ = corpus
    composite = compose_reflector_monad(HAUSDORFF, filter_monad(ULTRA))
    for space in spaces:
        assert find_homeomorphism(composite.obj(space), hausdorff_reflect(space)[0])


def test_composite_unit_decompositions_agree(corpus):
    # built-in assertion: building the unit already compares both readings
    spaces, _ = corpus
    composite = compose_reflector_monad(T0, filter_monad(OPEN_PRIME))
    for space in spaces:
        composite.unit.at(space)


def loop_unit_component(R, T, space):
    """The composite unit as ``compose_reflector_monad`` built it before it
    took ``horizontal``: r_TX . eta_X, checked against R(eta_X) . r_X."""
    eta = T.unit.at(space)
    first = compose(R.unit_at(T.obj(space)), eta)
    if not composes_to(R.mor(eta), R.unit_at(space), first):
        raise HypothesisViolated(f"unit decompositions differ at {space!r}")
    return first


@pytest.mark.parametrize(
    "reflector, kind",
    [("t0", ULTRA), ("t0", OPEN_PRIME), ("t0", CLOSED_PRIME),
     ("hausdorff", ULTRA), ("hausdorff", OPEN_PRIME)],
)
def test_the_composite_unit_matches_the_decompositions_it_replaced(classes3, reflector, kind):
    R, T = reflector_spec(reflector), filter_monad(kind)
    composite = compose_reflector_monad(R, T)
    for space in classes3:
        assert composite.unit.at(space) == loop_unit_component(R, T, space)


class _ConstantMorphisms(ReflectorSpec):
    """The T0 reflection with every morphism sent to a constant map."""

    def mor(self, f):
        rx, ry = self.obj(f.dom), self.obj(f.cod)
        return ContinuousMap(rx, ry, (0,) * rx.n)


def test_the_composite_unit_raises_when_its_two_decompositions_differ(discrete2):
    # on the discrete 2-point space R(eta) is the identity, not a constant
    bent = _ConstantMorphisms("t0-constant", t0_reflect, T0.in_class)
    composite = compose_reflector_monad(bent, filter_monad(ULTRA))
    with pytest.raises(HypothesisViolated, match=r"decompositions of r\[t0-constant\]\.unit"):
        composite.unit.at(discrete2)


def test_algebra_structure_raises_no_splitting_when_the_unit_has_no_retraction(
    monkeypatch, point
):
    asked = []
    monkeypatch.setattr(monadlab, "find_splitting", lambda m: asked.append(m))
    monad = filter_monad(ULTRA)
    rttx = T0.obj(monad.obj(monad.obj(point)))
    with pytest.raises(NoSplitting) as raised:
        algebra_structure(T0, monad, point)
    assert str(raised.value) == f"unit of U at {rttx!r} admits no continuous retraction"
    assert asked == [monad.unit.at(rttx)]


def test_reflection_onto_composite_is_monad_morphism(corpus):
    spaces, maps = corpus
    for kind in (ULTRA, OPEN_PRIME, CLOSED_PRIME):
        monad = filter_monad(kind)
        composite = compose_reflector_monad(T0, monad)
        r_t = reflection_onto_composite(T0, monad)
        assert check_monad_morphism(r_t, monad, composite, spaces, maps).ok


def test_horizontal_composition_decompositions(corpus, e1):
    a = alpha_transformation(OPEN_PRIME)
    horizontal(a, a, e1)  # raises if the two readings disagree


# --- idempotency and the mono-epi test ----------------------------------------


def test_composite_idempotent(corpus):
    spaces, _ = corpus
    composite = compose_reflector_monad(T0, filter_monad(ULTRA))
    assert check_idempotent(composite, spaces).ok


def test_ultra_idempotent_at_finite_scale(corpus):
    spaces, _ = corpus
    assert check_idempotent(filter_monad(ULTRA), spaces).ok


def _collapse_mult(monad):
    """``monad`` with every multiplication component sent to the point 0."""

    def component(space):
        tx = monad.obj(space)
        ttx = monad.obj(tx)
        return ContinuousMap(ttx, tx, tuple(0 for _ in range(ttx.n)))

    return MonadSpec(
        monad.name + "!",
        monad.functor,
        monad.unit,
        NatTransSpec("mult!", monad.mult.source, monad.mult.target, component),
    )


def test_idempotency_checker_catches_collapse(corpus):
    spaces, _ = corpus
    broken = _collapse_mult(compose_reflector_monad(T0, filter_monad(ULTRA)))
    assert not check_idempotent(broken, spaces).ok


def test_fakir_on_idempotent_composite(corpus, classes4):
    spaces, _ = corpus
    composite = compose_reflector_monad(T0, filter_monad(ULTRA))
    assert fakir_test(composite, spaces, classes4).ok


def test_fakir_identity_monad(corpus, classes4):
    spaces, _ = corpus
    assert fakir_test(identity_monad(), spaces, classes4).ok


def test_fakir_follows_computed_idempotency(corpus, classes4):
    spaces, _ = corpus
    p = filter_monad(CLOSED_PRIME)
    idempotent = check_idempotent(p, spaces).ok
    report = fakir_test(p, spaces, classes4)
    if idempotent:
        assert report.status in ("pass", "fail")
    else:
        assert report.status == "not-applicable"


# --- transition epimorphisms ---------------------------------------------------


def test_unit_transition_epi(corpus, classes4):
    spaces, _ = corpus
    for reflector, kind in ((T0, ULTRA), (T0, OPEN_PRIME), (HAUSDORFF, ULTRA)):
        report = check_unit_transition_epi(
            reflector, filter_monad(kind), spaces, classes4
        )
        assert report.ok, report.witness


# --- universal separation -------------------------------------------------------


def test_universal_separation_to_closed_prime(corpus):
    spaces, maps = corpus
    u = filter_monad(ULTRA)
    p = filter_monad(CLOSED_PRIME)
    lam = universal_separation(
        alpha_transformation(CLOSED_PRIME), T0, u, p, spaces, maps
    )
    composite = compose_reflector_monad(T0, u)
    assert check_monad_morphism(lam, composite, p, spaces, maps).ok
    r_u = reflection_onto_composite(T0, u)
    for space in spaces:
        assert is_homeomorphism(lam.at(space))
        assert (
            compose(lam.at(space), r_u.at(space)).map
            == alpha_transformation(CLOSED_PRIME).at(space).map
        )
        assert count_descents(
            alpha_transformation(CLOSED_PRIME).at(space), r_u.at(space)
        ) == 1


def test_universal_separation_rejects_bad_target(corpus):
    spaces, maps = corpus
    u = filter_monad(ULTRA)
    ident = NatTransSpec(
        "id", u.functor, u.functor, lambda space: identity_map(u.obj(space))
    )
    with pytest.raises(HypothesisViolated):
        universal_separation(ident, T0, u, u, spaces, maps)


def test_monads_preserve_epis(corpus):
    _, maps = corpus
    for kind in (ULTRA, OPEN_PRIME, CLOSED_PRIME):
        assert monad_preserves_epis(filter_monad(kind), maps) is None


def test_open_to_closed_iso(corpus):
    spaces, maps = corpus
    u = filter_monad(ULTRA)
    s = filter_monad(OPEN_PRIME)
    p = filter_monad(CLOSED_PRIME)
    phi = universal_separation(alpha_transformation(OPEN_PRIME), T0, u, s, spaces, maps)
    lam = universal_separation(alpha_transformation(CLOSED_PRIME), T0, u, p, spaces, maps)
    psi = NatTransSpec(
        "open-to-closed",
        s.functor,
        p.functor,
        lambda space: compose(lam.at(space), inverse_map(phi.at(space))),
    )
    assert check_monad_morphism(psi, s, p, spaces, maps).ok
    for space in spaces:
        assert is_homeomorphism(psi.at(space))


def test_prop_5_4_builds_each_open_to_closed_component_once(monkeypatch):
    # the component is built once per space: the 13 classes <= 3 and the 5
    # lifts that the multiplication square reads; built at both ends of each
    # of the 1,462 maps it would make 3,015 inversions
    inversions = []

    def counted(f):
        inversions.append(f)
        return inverse_map(f)

    monkeypatch.setattr(suites, "inverse_map", counted)
    reports = suites.run_suite("prop5.4")
    assert [(r.check_id, r.ok) for r in reports] == [
        ("prop5.4[morphism]", True),
        ("prop5.4[iso]", True),
    ]
    assert len(inversions) == 18


def test_reflector_spec_round_trip(e1):
    t0 = reflector_spec("t0")
    assert t0.obj(e1).n == 2
    assert t0.unit_at(e1).map == (1, 0, 0)


@pytest.mark.parametrize("end", ["dom", "cod"])
def test_functor_laws_fail_on_a_lift_with_the_wrong_ends(end):
    spaces = spaces_up_to(3, True)
    maps = maps_between(spaces)
    target = next(m for m in maps if m.dom.n == 2 and m.cod.n == 2)
    ends = {"dom": target.dom, "cod": target.cod}
    ends[end] = next(s for s in spaces if s.n == 2 and s != ends[end])
    # constants are continuous, so the wrong lift is a valid map
    wrong = ContinuousMap(ends["dom"], ends["cod"], (0, 0))
    functor = EndofunctorSpec("W", lambda s: s, lambda m: wrong if m == target else m)
    report = check_functor_laws(functor, spaces)
    assert not report.ok
    assert report.witness == f"W sends {target.map} off W({target.dom!r}) -> W({target.cod!r})"


def _first_breaks(functor, maps):
    """All-pairs scan: the first f that breaks composition, with every g it fails on."""
    for f in maps:
        bad = [
            g
            for g in maps
            if f.cod == g.dom
            and functor.mor(compose(g, f)).map != compose(functor.mor(g), functor.mor(f)).map
        ]
        if bad:
            return f, bad
    return None, []


def _wrong_at(target):
    """The identity functor, except on ``target``, which goes to another constant."""
    value = (target.map[0] + 1) % target.cod.n
    wrong = ContinuousMap(target.dom, target.cod, (value,) * target.dom.n)
    return EndofunctorSpec("W", lambda s: s, lambda m: wrong if m == target else m)


def test_functor_laws_witness_order_on_closed_corpus():
    spaces = spaces_up_to(3, True)
    maps = maps_between(spaces)
    # a point of a three-point space: the first failing f then fails with
    # several g, so the witness pins the order of g as well as of f
    target = next(m for m in maps if m.dom.n == 1 and m.cod.n == 3)
    functor = _wrong_at(target)
    f, bad = _first_breaks(functor, maps)
    assert len(bad) > 1
    report = check_functor_laws(functor, spaces)
    assert report.witness == f"W breaks composition at {f.map};{bad[0].map}"


@pytest.mark.parametrize("listed", ["corpus"])
def test_lift_fault_fails_at_the_first_pair_of_the_all_pairs_scan(listed):
    """``ultra-lift-unswap`` lifts one map to a valid map with the right ends,
    so only the array comparison of the pair kernel can catch it."""
    from topolab import suites

    bounds = suites.RunBounds(fault="ultra-lift-unswap")
    functor = suites._monad(ULTRA, bounds).functor
    _, maps, _ = suites._map_corpus(bounds)
    discrete = build_space(2, [{0}, {1}])
    swap = ContinuousMap(discrete, discrete, (1, 0))
    assert functor.mor(swap) != filter_monad(ULTRA).mor(swap)
    # from the CLI's suite
    [report] = [
        r for r in suites.run_suite("filter-naturality", bounds)
        if r.check_id == "filters[functor-U]"
    ]
    f, bad = _first_breaks(functor, maps)
    assert report.witness == f"U breaks composition at {f.map};{bad[0].map}"


# ---------------------------------------------------------------------------
# the per-action memo


def test_memo_counts_a_scripted_call_sequence(point, sierpinski, discrete2):
    computed = []
    memo = _cached(lambda s: computed.append(s) or s.n)
    calls = (sierpinski, point, sierpinski, sierpinski, discrete2, point, sierpinski)
    assert [memo(s) for s in calls] == [2, 1, 2, 2, 2, 1, 2]
    assert computed == [sierpinski, point, discrete2]
    info = memo.cache_info()
    assert (info.hits, info.misses, info.currsize) == (4, 3, 3)


def test_memo_hit_returns_the_stored_object_for_an_equal_key(sierpinski):
    f = identity_map(sierpinski)
    twin = ContinuousMap(sierpinski, sierpinski, (0, 1))
    assert twin == f and twin is not f
    memo = _cached(lambda m: compose(m, m))  # a new map on every evaluation
    first = memo(f)
    assert memo(f) is first
    assert memo(twin) is first
    assert memo.cache_info() == (2, 1, 1)


def test_memo_stores_nothing_for_a_raising_call(sierpinski):
    outcomes = [HypothesisViolated("no component yet"), None]

    def component(space):
        failure = outcomes.pop(0)
        if failure is not None:
            raise failure
        return identity_map(space)

    memo = _cached(component)
    with pytest.raises(HypothesisViolated):
        memo(sierpinski)
    assert memo.cache_info() == (0, 1, 0)
    stored = memo(sierpinski)  # evaluated again, not read back
    assert outcomes == []
    assert memo(sierpinski) is stored
    assert memo.cache_info() == (1, 2, 1)


def test_specs_holding_memos_are_memo_keys():
    # the frozen specs hold the memo wrappers as fields and are hashed as
    # the lru_cache keys of compose_reflector_monad
    monad = filter_monad(ULTRA)
    assert hash(monad) == hash(filter_monad(ULTRA))
    assert compose_reflector_monad(T0, monad) is compose_reflector_monad(T0, monad)


def test_memo_entry_costs_one_dict_slot():
    # the dict slot and its share of the table take about 50 bytes an
    # entry; a key tuple per entry, as lru_cache stores, takes nearly 100
    maps = maps_between(spaces_up_to(3))
    assert len(maps) == 1462
    memo = _cached(lambda f: f)
    # no collection inside the window: freeing earlier garbage would
    # lower the count
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for f in maps:
            memo(f)
        per_entry = (tracemalloc.get_traced_memory()[0] - before) / len(maps)
    finally:
        tracemalloc.stop()
        gc.enable()
    assert memo.cache_info().currsize == len(maps)
    assert per_entry < 80


def test_restriction_injectivity_matches_the_tally(monkeypatch):
    # every (map, codomain) pair that prop4.10, lemma4.5 and divergences
    # decide, against the definition: as many restrictions as continuous phi
    real = monadlab._restriction_injective
    pairs = []

    def recorded(pre, codomain):
        pairs.append((pre, codomain))
        return real(pre, codomain)

    monkeypatch.setattr(monadlab, "_restriction_injective", recorded)
    for suite in ("prop4.10", "lemma4.5", "divergences"):
        suites.run_suite(suite)
    distinct = set(pairs)
    assert (len(pairs), len(distinct)) == (3310, 996)
    # those are all injective; every map between classes <= 2 adds failures
    small = spaces_up_to(2)
    distinct.update((pre, codomain) for pre in maps_between(small) for codomain in small)
    verdicts = set()
    for pre, codomain in distinct:
        phis = enumerate_continuous_maps(pre.cod, codomain)
        verdict = len({tuple(phi.map[v] for v in pre.map) for phi in phis}) == len(phis)
        assert real(pre, codomain) == verdict
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_restriction_injectivity_holds_on_an_empty_hom(monkeypatch, point, discrete2):
    # the four self-maps of discrete2 restrict along a point to two maps
    pre = ContinuousMap(point, discrete2, (0,))
    assert not monadlab._restriction_injective(pre, discrete2)
    monkeypatch.setattr("topolab.spaces.enumerate_continuous_maps", lambda dom, cod: ())
    assert monadlab._restriction_injective(pre, discrete2)


def test_prop_5_1_inverts_each_algebra_structure_once(monkeypatch):
    # one inversion per class <= 3 instead of one per pair of classes (169)
    inversions = []

    def counted(f):
        inversions.append(f)
        return inverse_map(f)

    monkeypatch.setattr(suites, "inverse_map", counted)
    reports = suites.run_suite("prop5.1")
    assert [(r.check_id, r.ok) for r in reports] == [("prop5.1", True)]
    assert len(inversions) == 13


def _bent_at_call(real, k, value):
    """``real``, except that its k-th call returns ``value``."""
    calls = []

    def bent(*args):
        calls.append(args)
        return value if len(calls) == k else real(*args)

    return bent


NATURAL_HOMEO_IDS = {
    "prop3.6": ["prop3.6[composite-laws]", "prop3.6[monad-morphism]"],
    "thm4.11": ["thm4.11[monad-morphism]"],
    "prop5.7": ["prop5.7[monad-morphism]", "prop5.7[components]", "prop5.7[compact-hausdorff]"],
}


@pytest.mark.parametrize("suite", sorted(NATURAL_HOMEO_IDS))
@pytest.mark.parametrize(
    "predicate,value,sub_claim,witness",
    [
        ("is_homeomorphism", False, "homeomorphism", "component at {!r}"),
        ("composes_to", False, "descends-gamma", "at {!r}"),
        ("count_descents", 2, "unique", "at {!r}"),
    ],
    ids=["homeomorphism", "descends-gamma", "unique"],
)
def test_a_natural_homeomorphism_fails_under_the_sub_claim_it_breaks(
    monkeypatch, suite, predicate, value, sub_claim, witness
):
    # each predicate is read once per space of the map corpus, in order, so
    # bending its last call breaks the sub-claim at the last space only
    spaces = spaces_up_to(suites.RunBounds().map_points)
    monkeypatch.setattr(
        suites, predicate, _bent_at_call(getattr(suites, predicate), len(spaces), value)
    )
    reports = suites.run_suite(suite)
    fail_id = f"{suite}[{sub_claim}]"
    ids = [r.check_id for r in reports]
    assert sorted(ids) == sorted([*NATURAL_HOMEO_IDS[suite], fail_id])
    assert ids.index(fail_id) == ids.index(f"{suite}[monad-morphism]") + 1
    assert [(r.check_id, r.witness) for r in reports if not r.ok] == [
        (fail_id, witness.format(spaces[-1]))
    ]


def test_prop_3_7_fails_as_improper_at_the_quotient_it_bends(monkeypatch):
    # is_proper is read once per space of the law corpus, after its opens
    points = suites.RunBounds().max_points
    spaces = spaces_up_to(points)
    monkeypatch.setattr(suites, "is_proper", _bent_at_call(is_proper, len(spaces), False))
    [report] = suites.run_suite("prop3.7")
    assert (report.check_id, report.corpus, report.witness) == (
        "prop3.7[proper]", f"classes<={points} ({len(spaces)})", f"quotient of {spaces[-1]!r}"
    )


def test_prop_5_2_decides_each_hom_out_of_a_prime_open_filter_space_once(monkeypatch):
    # 3,121 distinct maps; one scan per x_space would make 3,889 calls
    calls = []

    def counted(f):
        calls.append(f)
        return is_proper(f)

    monkeypatch.setattr(suites, "is_proper", counted)
    reports = suites.run_suite("prop5.2")
    assert all(r.ok for r in reports)
    assert len(calls) == len(set(calls)) == 3121


def test_prop_5_2_names_every_space_whose_shared_hom_fails(monkeypatch):
    # maps out of the most shared S(x) are declared not proper: every x with
    # that S(x) is named once per target, in corpus order
    spaces = spaces_up_to(3)
    targets = tuple(s for s in spaces_up_to(4) if classify(s).is_stably_compact)
    lifted = [unit(OPEN_PRIME, x).cod for x in spaces]
    shared, count = Counter(lifted).most_common(1)[0]
    assert count > 1
    monkeypatch.setattr(suites, "is_proper", lambda f: f.dom != shared and is_proper(f))
    monkeypatch.setattr(
        suites, "verdict", lambda check_id, corpus, witnesses, note="": list(witnesses)
    )
    universal, _ = suites.suite_prop_5_2(suites.RunBounds())
    assert universal == [
        f"mediator not proper at {x!r}"
        for x, cod in zip(spaces, lifted)
        if cod == shared
        for _ in targets
    ]


# ---------------------------------------------------------------------------
# the witness texts of the law checkers: one failing case of each, built by
# bending the checker's input, pinned with the report line where the corpus
# description is the one the check passes with


def _bent(action, key, value):
    """``action`` with its value at ``key`` replaced by ``value``."""
    return lambda arg: value if arg == key else action(arg)


def _constant(dom, cod):
    return ContinuousMap(dom, cod, (0,) * dom.n)


def _identity_nt(monad):
    return NatTransSpec(
        "id", monad.functor, monad.functor, lambda space: identity_map(monad.obj(space))
    )


def test_functor_laws_name_the_space_whose_identity_is_bent():
    spaces = spaces_up_to(3, True)
    target = next(s for s in spaces if s.n == 2)
    lift = _bent(lambda m: m, identity_map(target), _constant(target, target))
    report = check_functor_laws(EndofunctorSpec("W", lambda s: s, lift), spaces)
    assert report.line() == (
        f"[FAIL] functor-laws [{len(spaces)} spaces, {len(maps_between(spaces))} maps] "
        f"witness: W breaks identities at {target!r}"
    )


def test_monad_laws_name_the_unit_law_a_swapped_multiplication_breaks(corpus):
    # mu' = swap . mu gives mu' . unit_TX = swap, the first law checked
    spaces, _ = corpus
    s = filter_monad(OPEN_PRIME)
    swapped = _swap_mult(s)
    space = next(x for x in spaces if swapped.mult.at(x).map != s.mult.at(x).map)
    assert check_monad_laws(swapped, spaces).line() == (
        f"[FAIL] monad-laws [{len(spaces)} spaces] "
        f"witness: S!: mu.(unit at T) fails at {space!r}"
    )


@pytest.mark.parametrize("bent,law", [("unit", "mu.T(unit)"), ("mult", "associativity")])
def test_monad_laws_name_the_law_a_constant_lift_breaks(corpus, bent, law):
    # the lift of the unit (or of the multiplication) at the first space
    # whose S has two points becomes a constant; mu after it is constant.
    # On a sober space SSX is X, and the unit and the multiplication can be
    # equal maps, so the memoized component is matched by identity
    spaces, _ = corpus
    s = filter_monad(OPEN_PRIME)
    space = next(x for x in spaces if s.obj(x).n >= 2)
    m = getattr(s, bent).at(space)
    flat = _constant(s.obj(m.dom), s.obj(m.cod))

    def lift(f):
        return flat if f is m else s.mor(f)

    monad = MonadSpec("S~", EndofunctorSpec("S~", s.obj, lift), s.unit, s.mult)
    assert check_monad_laws(monad, spaces).line() == (
        f"[FAIL] monad-laws [{len(spaces)} spaces] witness: S~: {law} fails at {space!r}"
    )


def test_monad_morphism_reports_a_broken_square_under_its_own_id(corpus):
    spaces, maps = corpus
    nt = _crooked_unit()
    square = check_naturality(nt, maps).witness
    assert square.startswith("crooked square fails at ")
    report = check_monad_morphism(nt, identity_monad(), filter_monad(ULTRA), spaces, maps)
    assert report.line() == (
        f"[FAIL] monad-morphism [{len(spaces)} spaces, {len(maps)} maps] witness: {square}"
    )


def test_monad_morphism_names_the_space_whose_unit_it_misses(corpus):
    spaces, maps = corpus
    s = filter_monad(OPEN_PRIME)
    space = next(x for x in spaces if len(set(s.unit.at(x).map)) > 1)
    flat = _bent(s.unit.at, space, _constant(space, s.obj(space)))
    unit_ = NatTransSpec("unit~", IDENTITY_FUNCTOR, s.functor, flat)
    target = MonadSpec("S~", s.functor, unit_, s.mult)
    report = check_monad_morphism(_identity_nt(s), s, target, spaces, maps)
    assert report.line() == (
        f"[FAIL] monad-morphism [{len(spaces)} spaces, {len(maps)} maps] "
        f"witness: id misses the unit at {space!r}"
    )


def test_monad_morphism_names_the_space_whose_multiplication_it_misses(corpus):
    spaces, maps = corpus
    s = filter_monad(OPEN_PRIME)
    swapped = _swap_mult(s)
    space = next(x for x in spaces if swapped.mult.at(x).map != s.mult.at(x).map)
    report = check_monad_morphism(_identity_nt(s), s, swapped, spaces, maps)
    assert report.witness == f"id misses the multiplication at {space!r}"


def _unit_only_monad(component):
    """The identity monad with its unit replaced: the epi checkers read only the unit."""
    ident = identity_monad()
    return MonadSpec(
        "K", ident.functor, NatTransSpec("k", IDENTITY_FUNCTOR, IDENTITY_FUNCTOR, component),
        ident.mult,
    )


def test_unit_transition_epi_names_a_unit_that_no_reading_finds_epic(discrete2):
    # a constant unit into two discrete points, reflected by the identity
    spaces = spaces_up_to(3)
    monad = _unit_only_monad(lambda s: _constant(s, discrete2))
    identity = ReflectorSpec("Id", lambda s: (s, identity_map(s)), lambda s: True)
    report = check_unit_transition_epi(identity, monad, spaces, spaces)
    assert report.line() == (
        f"[FAIL] unit-transition-epi [{len(spaces)} spaces, {len(spaces)} codomains] "
        f"witness: reflected unit not epi at {spaces[0]!r}"
    )


def test_unit_transition_epi_names_the_space_where_its_readings_disagree(point, discrete2):
    # the reflection onto the point sends the constant unit to an identity
    spaces = spaces_up_to(3)
    monad = _unit_only_monad(lambda s: _constant(s, discrete2))
    collapse = ReflectorSpec("Pt", lambda s: (point, _constant(s, point)), lambda s: True)
    report = check_unit_transition_epi(collapse, monad, spaces, spaces)
    assert report.witness == f"formulations disagree at {spaces[0]!r}: False vs True"


def test_idempotency_checker_names_the_first_collapsed_multiplication(corpus):
    spaces, _ = corpus
    broken = _collapse_mult(compose_reflector_monad(T0, filter_monad(ULTRA)))
    # a constant is a homeomorphism only between one-point spaces
    space = next(x for x in spaces if broken.obj(broken.obj(x)).n > 1)
    assert check_idempotent(broken, spaces).line() == (
        f"[FAIL] idempotent [{len(spaces)} spaces] "
        f"witness: t0.U!: mult not a homeomorphism at {space!r}"
    )


def test_fakir_is_not_applicable_to_a_monad_that_is_not_idempotent(corpus, classes4):
    spaces, _ = corpus
    broken = _collapse_mult(compose_reflector_monad(T0, filter_monad(ULTRA)))
    assert fakir_test(broken, spaces, classes4).line() == (
        f"[N/A ] fakir [{len(spaces)} spaces] (t0.U! is not idempotent)"
    )


@pytest.mark.parametrize(
    "opens,witness",
    [([{0}, {1}], "epi readings disagree"), ([], "monic unit fails to be epic")],
    ids=["discrete", "indiscrete"],
)
def test_fakir_names_a_monic_unit_that_misses_a_point(point, sierpinski, opens, witness):
    # the unit picks the open point of the Sierpinski space: monic, not onto;
    # maps into two discrete points cannot tell it from an epi, maps into
    # two indiscrete points can
    monad = _unit_only_monad(lambda s: ContinuousMap(s, sierpinski, (1,)))
    report = fakir_test(monad, (point,), (build_space(2, opens),))
    assert report.line() == f"[FAIL] fakir [1 spaces] witness: {witness} at {point!r}"


# ---------------------------------------------------------------------------
# the FAIL branches of the suites: each test bends the predicate or object
# one branch reads, through a name the suite looks up, and pins the FAIL id
# and its witness


def _failures(reports):
    return [(r.check_id, r.witness) for r in reports if not r.ok]


def _with_an_isolated_point(space):
    """The sum of ``space`` and one point, the new point last."""
    opens = {o | extra for o in space.opens for extra in (0, 1 << space.n)}
    return FiniteSpace(space.n + 1, tuple(sorted(opens)))


def test_prop_3_7_fails_on_the_quotient_side_when_the_quotient_misses_a_point(monkeypatch):
    # the T0 quotient followed by the inclusion into a sum with one more
    # point: every open downstairs still comes back, the lone point upstairs does not
    def reflect(space):
        rx, r = t0_reflect(space)
        bigger = _with_an_isolated_point(rx)
        return bigger, ContinuousMap(space, bigger, r.map)

    bent = ReflectorSpec("t0+", reflect, T0.in_class)
    monkeypatch.setattr(suites, "reflector_spec", lambda name: bent)
    first = spaces_up_to(suites.RunBounds().max_points)[0]
    upstairs = _with_an_isolated_point(t0_reflect(first)[0])
    assert _failures(suites.run_suite("prop3.7")) == [
        ("prop3.7[lattice-iso]", f"open {1 << first.n} of {upstairs!r}")
    ]


def test_thm_4_6_names_a_unit_without_a_splitting(monkeypatch):
    monkeypatch.setattr(suites, "find_splitting", lambda eta: None)
    first = spaces_up_to(suites.RunBounds().map_points)[0]
    witness = "unit at {!r} does not split"
    assert _failures(suites.run_suite("thm4.6")) == [
        (f"thm4.6[{LABELS[kind]}]", witness.format(T0.obj(filter_monad(kind).obj(first))))
        for kind in LABELS
    ]


def test_thm_4_6_names_a_structure_map_that_fails_the_multiplication_square(monkeypatch):
    monkeypatch.setattr(suites, "commutes", lambda *maps: False)
    first = spaces_up_to(suites.RunBounds().map_points)[0]
    assert _failures(suites.run_suite("thm4.6")) == [
        (f"thm4.6[{label}]", f"b not a structure at {first!r}") for label in LABELS.values()
    ]


def test_prop_5_2_counts_the_mediators_through_a_unit_into_a_larger_space(monkeypatch):
    # past the isolated point the mediators are free: one per target point
    def unit_with_a_point(kind, space):
        e = unit(kind, space)
        return ContinuousMap(space, _with_an_isolated_point(e.cod), e.map)

    monkeypatch.setattr(suites, "unit", unit_with_a_point)
    spaces = spaces_up_to(suites.RunBounds().map_points)
    target = next(s for s in spaces_up_to(4) if s.n > 1 and classify(s).is_stably_compact)
    f = enumerate_continuous_maps(spaces[0], target)[0]
    assert _failures(suites.run_suite("prop5.2")) == [
        (
            "prop5.2[universal]",
            f"{target.n} mediators for f={f.map} on {spaces[0]!r} -> {target!r}",
        )
    ]


def test_prop_5_2_names_a_space_whose_t0_reading_disagrees_with_the_unit(monkeypatch):
    monkeypatch.setattr(
        suites, "classify", lambda s: dataclasses.replace(classify(s), is_T0=not classify(s).is_T0)
    )
    [universal, embedding] = suites.run_suite("prop5.2")
    assert universal.ok
    first = spaces_up_to(suites.RunBounds().map_points)[0]
    assert (embedding.check_id, embedding.witness) == (
        "prop5.2[embedding-iff-T0]", f"at {first!r}"
    )


def test_prop_5_7_names_a_composite_that_is_not_the_components(monkeypatch):
    monkeypatch.setattr(suites, "find_homeomorphism", lambda a, b: None)
    first = spaces_up_to(suites.RunBounds().map_points)[0]
    name = compose_reflector_monad(reflector_spec("hausdorff"), filter_monad(ULTRA)).name
    assert _failures(suites.run_suite("prop5.7")) == [
        ("prop5.7[components]", f"{name} at {first!r}")
    ]


def test_prop_5_7_names_a_unit_whose_fibers_split_a_component(monkeypatch):
    # the component quotient replaced by the identity on points: the first
    # space with a component of two points splits a fiber of the unit
    monkeypatch.setattr(
        suites, "hausdorff_reflect", lambda space: (hausdorff_reflect(space)[0], lambda x: x)
    )
    spaces = spaces_up_to(suites.RunBounds().map_points)
    space = next(s for s in spaces if hausdorff_reflect(s)[0].n < s.n)
    assert _failures(suites.run_suite("prop5.7")) == [
        ("prop5.7[components]", f"unit fibers at {space!r}")
    ]


def test_continuous_equals_monotone_names_the_pair_whose_maps_disagree(monkeypatch):
    monkeypatch.setattr(
        suites, "enumerate_continuous_maps", lambda a, b: enumerate_continuous_maps(a, b)[1:]
    )
    first = spaces_up_to(suites.RunBounds().map_points)[0]
    assert _failures(suites.run_suite("topo-invariants")) == [
        ("invariants[continuous=monotone]", f"{first!r}->{first!r}")
    ]


@pytest.mark.parametrize(
    "recount,check_id,witness",
    [
        ("recount_topologies", "corpus[labeled]", "n=1: 1 vs recount 0"),
        ("_recount_classes", "corpus[classes]", "n=1: 1 vs recount 0"),
    ],
)
def test_corpus_counts_name_the_first_size_whose_recount_disagrees(
    monkeypatch, recount, check_id, witness
):
    monkeypatch.setattr(suites, recount, lambda n: 0)
    assert _failures(suites.run_suite("corpus-counts")) == [(check_id, witness)]


def test_corpus_counts_name_the_lattice_recount_that_disagrees(monkeypatch):
    monkeypatch.setattr(suites, "recount_lattices", lambda k: {1: 1})
    [(check_id, witness)] = _failures(suites.run_suite("corpus-counts"))
    assert check_id == "corpus[lattices]"
    assert witness == f"{suites.lattice_class_counts(6)} vs {{1: 1}}"


def test_universal_separation_refuses_a_monad_that_does_not_preserve_an_epimorphism(monkeypatch):
    # U with every map lifted to a constant: the first surjection onto two
    # points lifts to a map that is not onto, and the descent of thm4.11,
    # built before any square is checked, fails as a construction
    u = filter_monad(ULTRA)
    constant = EndofunctorSpec("C", u.obj, lambda f: _constant(u.obj(f.dom), u.obj(f.cod)))
    bent = MonadSpec("C", constant, u.unit, u.mult)
    monkeypatch.setattr(
        suites, "filter_monad", lambda kind: bent if kind == ULTRA else filter_monad(kind)
    )
    _, maps, _ = suites._map_corpus(suites.RunBounds())
    epi = next(f for f in maps if f.is_surjective and f.cod.n > 1)
    witness = f"HypothesisViolated: C does not preserve the epimorphism {epi.map}"
    assert _failures(suites.run_suite("thm4.11")) == [("thm4.11", witness)]
    with pytest.raises(HypothesisViolated, match=r"C does not preserve the epimorphism"):
        universal_separation(
            alpha_transformation(CLOSED_PRIME), T0, bent, filter_monad(CLOSED_PRIME),
            spaces_up_to(2), maps_between(spaces_up_to(2)),
        )
