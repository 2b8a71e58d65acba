"""Kernel tests: spaces, maps, predicates.

Derived expectations are recomputed here with independent set-based oracles
(frozensets of frozensets) before being compared with the bitmask kernel.
"""

import pytest
from hypothesis import given, settings, strategies as st

from topolab import (
    ContinuousMap,
    FiniteSpace,
    InvalidInput,
    NotOpen,
    build_space,
    classify,
    closure,
    compose,
    enumerate_continuous_maps,
    find_homeomorphism,
    hausdorff_reflect,
    identity_map,
    is_homeomorphism,
    is_proper,
    patch_topology,
    specialization,
    subset_is_compact,
    t0_reflect,
    way_below_open,
    way_below_via_subset,
)
from topolab.corpus import maps_between, spaces_up_to
from topolab.spaces import restriction_counts


# --- independent oracles ----------------------------------------------------


def opens_as_sets(space):
    return [frozenset(i for i in range(space.n) if o >> i & 1) for o in space.opens]


def oracle_closure(space, subset):
    """Closure by brute force over closed supersets."""
    closeds = [frozenset(range(space.n)) - o for o in opens_as_sets(space)]
    out = frozenset(range(space.n))
    for c in closeds:
        if subset <= c:
            out &= c
    return out


def oracle_specialization(space):
    return {
        (x, y)
        for x in range(space.n)
        for y in range(space.n)
        if x in oracle_closure(space, frozenset([y]))
    }


def oracle_irreducibles(space):
    closeds = [frozenset(range(space.n)) - o for o in opens_as_sets(space)]
    out = set()
    for g in closeds:
        if not g:
            continue
        if all(
            not (g <= f1 | f2) or g <= f1 or g <= f2
            for f1 in closeds
            for f2 in closeds
        ):
            out.add(g)
    return out


def as_mask(subset):
    return sum(1 << i for i in subset)


# --- construction -----------------------------------------------------------


def test_build_space_paper_example(e1):
    # three points with one open point, as in the worked example
    assert e1.n == 3
    assert e1.opens == (0, 0b001, 0b111)


def test_build_space_indiscrete():
    space = build_space(2, [])
    assert space.opens == (0, 0b11)


def test_build_space_discrete_two_points(discrete2):
    assert len(discrete2.opens) == 4


def test_build_space_rejects_empty():
    with pytest.raises(InvalidInput):
        build_space(0, [])


def test_build_space_rejects_out_of_range_generator():
    with pytest.raises(InvalidInput):
        build_space(2, [{5}])


def test_space_validation_rejects_non_topology():
    with pytest.raises(InvalidInput):
        FiniteSpace(2, (0, 1, 2, 3, 3))
    with pytest.raises(InvalidInput):
        FiniteSpace(3, (0, 0b001, 0b010, 0b111))  # missing the union {0,1}


def test_continuous_map_rejects_discontinuity(e1, sierpinski):
    with pytest.raises(InvalidInput):
        ContinuousMap(e1, sierpinski, (0, 1, 1))  # preimage of {1} is {1,2}
    ContinuousMap(e1, sierpinski, (1, 0, 0))  # fine


# --- specialization ---------------------------------------------------------


def test_specialization_sierpinski(sierpinski):
    order = specialization(sierpinski)
    assert order.leq[0][1] and not order.leq[1][0]


def test_specialization_e1_matches_oracle(e1):
    order = specialization(e1)
    expected = oracle_specialization(e1)
    got = {(x, y) for x in range(3) for y in range(3) if order.leq[x][y]}
    assert got == expected
    assert order.leq[1][0] and order.leq[2][0]
    assert order.leq[1][2] and order.leq[2][1]
    assert not order.leq[0][1]


def test_specialization_discrete_is_identity(discrete3):
    order = specialization(discrete3)
    assert all(order.leq[x][y] == (x == y) for x in range(3) for y in range(3))


# --- classification ---------------------------------------------------------


def test_classify_e1_matches_example(e1):
    p = classify(e1)
    assert p.is_stable and p.is_locally_compact and p.is_weakly_sober
    assert not p.is_T0 and not p.is_sober and not p.is_stably_compact
    assert p.irreducible_closed_sets == (0b110, 0b111)
    assert {frozenset([1, 2]), frozenset([0, 1, 2])} == oracle_irreducibles(e1)


def test_classify_sierpinski_stably_compact(sierpinski):
    assert classify(sierpinski).is_stably_compact


def test_every_small_space_weakly_sober(classes3):
    for space in classes3:
        p = classify(space)
        assert p.is_weakly_sober and p.is_salbany, space


def test_hausdorff_iff_discrete(classes3):
    for space in classes3:
        assert classify(space).is_hausdorff == (len(space.opens) == 1 << space.n)


# --- way below --------------------------------------------------------------


def test_way_below_empty_set(e1):
    assert way_below_open(e1, 0, 0b111)
    assert way_below_open(e1, 0, 0)


def test_way_below_open_point_in_whole(e1):
    assert way_below_open(e1, 0b001, 0b111)


def test_way_below_rejects_non_open(e1):
    with pytest.raises(NotOpen):
        way_below_open(e1, 0b010, 0b111)


def test_way_below_agrees_with_subset_on_classes(classes3):
    for space in classes3:
        for o in space.opens:
            for u in space.opens:
                assert way_below_open(space, o, u) == way_below_via_subset(space, o, u)


def test_way_below_agrees_on_four_point_discrete():
    space = build_space(4, [{0}, {1}, {2}, {3}])  # 16 opens, the worst case
    opens = space.opens
    for o in opens:
        for u in opens:
            assert way_below_open(space, o, u) == (o & ~u == 0)


# --- compactness and patch --------------------------------------------------


def test_every_subset_compact(classes3):
    for space in classes3:
        for mask in range(space.full + 1):
            assert subset_is_compact(space, mask)


def test_patch_of_sierpinski_is_discrete(sierpinski):
    assert len(patch_topology(sierpinski).opens) == 4


def test_patch_of_discrete_is_itself(discrete3):
    assert patch_topology(discrete3) == discrete3


def test_patch_of_stably_compact_is_hausdorff(classes3):
    for space in classes3:
        if classify(space).is_stably_compact:
            patched = patch_topology(space)
            assert classify(patched).is_hausdorff
            assert patch_topology(patched) == patched


def test_patch_of_e1_not_discrete(e1):
    # the example is not T0, so its patch cannot separate the doubled point
    assert patch_topology(e1).opens == (0, 0b001, 0b110, 0b111)


# --- properness -------------------------------------------------------------


def test_identity_proper(e1):
    assert is_proper(identity_map(e1))


def test_t0_quotient_of_e1_proper(e1):
    _, r = t0_reflect(e1)
    assert is_proper(r)


def test_all_small_maps_proper(classes3):
    for a in classes3:
        for b in classes3:
            for f in enumerate_continuous_maps(a, b):
                assert is_proper(f)


# --- map enumeration --------------------------------------------------------


def test_sierpinski_self_maps(sierpinski):
    maps = enumerate_continuous_maps(sierpinski, sierpinski)
    assert [m.map for m in maps] == [(0, 0), (0, 1), (1, 1)]


def test_maps_into_point(e1, point):
    assert len(enumerate_continuous_maps(e1, point)) == 1


def test_maps_from_point(e1, point):
    assert len(enumerate_continuous_maps(point, e1)) == 3


def test_enumeration_is_monotone_maps(classes3):
    for a in classes3:
        order_a = specialization(a).leq
        for b in classes3:
            order_b = specialization(b).leq
            import itertools

            monotone = [
                arr
                for arr in itertools.product(range(b.n), repeat=a.n)
                if all(
                    not order_a[x][y] or order_b[arr[x]][arr[y]]
                    for x in range(a.n)
                    for y in range(a.n)
                )
            ]
            assert [f.map for f in enumerate_continuous_maps(a, b)] == monotone


# --- homeomorphism search ---------------------------------------------------


def test_find_homeomorphism_identity_first(e1):
    witness = find_homeomorphism(e1, e1)
    assert witness is not None and witness.map == (0, 1, 2)


def test_find_homeomorphism_cardinality_mismatch(e1, sierpinski):
    assert find_homeomorphism(e1, sierpinski) is None


def test_find_homeomorphism_flipped_sierpinski(sierpinski):
    flipped = build_space(2, [{0}])
    witness = find_homeomorphism(sierpinski, flipped)
    assert witness is not None and is_homeomorphism(witness)


# --- property-based invariants ----------------------------------------------


small_space = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.sets(st.integers(min_value=0, max_value=n - 1)), max_size=4
    ).map(lambda gens: build_space(n, gens))
)


@settings(max_examples=80, deadline=None)
@given(small_space)
def test_random_space_is_canonical_topology(space):
    assert list(space.opens) == sorted(set(space.opens))
    family = set(space.opens)
    assert 0 in family and space.full in family
    for a in family:
        for b in family:
            assert a | b in family and a & b in family


@settings(max_examples=80, deadline=None)
@given(small_space)
def test_random_space_opens_are_upsets(space):
    order = specialization(space).leq
    for o in space.opens:
        for x in range(space.n):
            for y in range(space.n):
                if o >> x & 1 and order[x][y]:
                    assert o >> y & 1


@settings(max_examples=80, deadline=None)
@given(small_space)
def test_random_space_t0_iff_antisymmetric(space):
    assert classify(space).is_T0 == specialization(space).is_antisymmetric


@settings(max_examples=60, deadline=None)
@given(small_space)
def test_random_space_closure_matches_oracle(space):
    for x in range(space.n):
        assert closure(space, 1 << x) == as_mask(oracle_closure(space, frozenset([x])))


# --- the mediator-counting kernel ----------------------------------------------


def _naive_counts(pre, cod, keep=None):
    """Per map f: pre.dom -> cod, enumerate every phi, filter by phi . pre == f, count."""
    return {
        f.map: sum(
            1
            for phi in enumerate_continuous_maps(pre.cod, cod)
            if (keep is None or keep(phi)) and compose(phi, pre).map == f.map
        )
        for f in enumerate_continuous_maps(pre.dom, cod)
    }


def _assert_matches_naive(pre, cod, keep=None):
    counts = restriction_counts(pre, cod, keep)
    naive = _naive_counts(pre, cod, keep)
    assert set(counts) <= set(naive)
    assert {f: counts.get(f, 0) for f in naive} == naive
    return naive


def test_restriction_counts_matches_naive_count_on_reflection_units():
    corpus = spaces_up_to(3, True)
    seen = set()
    for space in corpus:
        for reflect in (t0_reflect, hausdorff_reflect):
            _, r = reflect(space)
            for z in corpus:
                seen.update(_assert_matches_naive(r, z).values())
    assert {0, 1} <= seen


def test_restriction_counts_sees_no_factorization_through_a_coarsened_t0():
    # the component quotient of the three-point example identifies two points
    # that a map into the Sierpinski space tells apart
    e1 = build_space(3, [{0}])
    sierpinski = build_space(2, [{1}])
    _, r = hausdorff_reflect(e1)
    naive = _assert_matches_naive(r, sierpinski)
    assert 0 in naive.values()


def test_restriction_counts_counts_several_extensions_along_a_non_injective_map():
    corpus = spaces_up_to(3, True)
    pres = [m for m in maps_between(corpus) if not m.is_injective and m.cod.n == 3][:12]
    assert pres
    seen = set()
    for pre in pres:
        for z in corpus:
            seen.update(_assert_matches_naive(pre, z).values())
            _assert_matches_naive(pre, z, keep=lambda phi: phi.is_surjective)
    assert max(seen) >= 2
