"""Kernel tests: spaces, maps, predicates.

Derived expectations are recomputed here with independent set-based oracles
(frozensets of frozensets) before being compared with the bitmask kernel.
"""

import ast
import dataclasses
import itertools
import time
from operator import and_, or_

import pytest
from hypothesis import given, settings, strategies as st

from topolab import (
    BoundExceeded,
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
    inverse_map,
    is_homeomorphism,
    is_proper,
    patch_topology,
    subset_is_compact,
    t0_reflect,
    way_below_open,
    way_below_via_subset,
)
from topolab.corpus import enumerate_spaces, maps_between, recount_topologies, spaces_up_to
from topolab.filters import KINDS, lift_map
from topolab.spaces import (
    _ARRAYS,
    _interior_of,
    _union_prime,
    commutes,
    compact_saturated_sets,
    composition_breaks,
    composes_to,
    irreducible_closed_sets,
    mediator_breaks,
    restriction_counts,
    saturation,
)
from topolab import suites
from topolab.suites import RunBounds, run_suite


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


def order_of(space):
    """The specialization preorder read from ``hoods``: x <= y iff y in U_x."""
    return [[bool(h >> y & 1) for y in range(space.n)] for h in space.hoods]


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
    with pytest.raises(InvalidInput, match="outside the space"):
        build_space(2, [0b101])


def test_space_validation_rejects_non_topology():
    with pytest.raises(InvalidInput):
        FiniteSpace(2, (0, 1, 2, 3, 3))
    with pytest.raises(InvalidInput):
        FiniteSpace(3, (0, 0b001, 0b010, 0b111))  # missing the union {0,1}


# --- the opens-scan routines that hoods replaced, as references -------------


def closed_under_union_and_intersection(family):
    return all(a | b in family and a & b in family for a in family for b in family)


def scan_saturation(space, mask):
    s = space.full
    for o in space.opens:
        if o & mask == mask:
            s &= o
    return s


def scan_closure(space, mask):
    c = space.full
    for o in space.opens:
        if (space.full ^ o) & mask == mask:
            c &= space.full ^ o
    return c


def scan_interior(space, mask):
    m = 0
    for o in space.opens:
        if o & ~mask == 0:
            m |= o
    return m


def fixpoint_space(n, masks):
    """The smallest family with the empty set, the full set and ``masks``
    that is closed under pairwise union and intersection."""
    family = {0, (1 << n) - 1, *masks}
    while True:
        extra = {op(a, b) for a in family for b in family for op in (or_, and_)} - family
        if not extra:
            return FiniteSpace(n, tuple(sorted(family)))
        family |= extra


@pytest.mark.parametrize("n, topologies", [(1, 1), (2, 4), (3, 29), (4, 355)])
def test_space_accepts_exactly_the_families_closed_under_union_and_intersection(n, topologies):
    full = (1 << n) - 1
    middles = range(1, full)
    accepted = 0
    for picks in itertools.product((False, True), repeat=len(middles)):
        family = {0, full, *itertools.compress(middles, picks)}
        closed = closed_under_union_and_intersection(family)
        try:
            FiniteSpace(n, tuple(sorted(family)))
        except InvalidInput as exc:
            assert not closed and str(exc) == "opens are not closed under union/intersection"
        else:
            assert closed
            accepted += 1
    assert accepted == topologies == recount_topologies(n)


@pytest.mark.parametrize("n", [40, 200])
def test_space_rejects_a_union_gap_without_enumerating_the_unions(n):
    """The complements of the singletons have the singletons as U_x, whose
    unions number 2^n; the constructor must reject without listing them."""
    full = (1 << n) - 1
    opens = tuple(sorted({0, full, *(full ^ 1 << x for x in range(n))}))
    start = time.perf_counter()
    with pytest.raises(InvalidInput, match="^opens are not closed under union/intersection$"):
        FiniteSpace(n, opens)
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_saturation_closure_and_interior_read_the_hoods_as_the_opens_scans_do(n):
    for space in enumerate_spaces(n):
        for x in range(n):
            assert space.hoods[x] == saturation(space, 1 << x) == scan_saturation(space, 1 << x)
        for mask in range(space.full + 1):
            assert saturation(space, mask) == scan_saturation(space, mask)
            assert closure(space, mask) == scan_closure(space, mask)
            assert _interior_of(space, mask) == scan_interior(space, mask)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_build_space_is_the_union_intersection_fixpoint(n):
    masks = range(1 << n)
    for k in (0, 1, 2):
        for gens in itertools.combinations(masks, k):
            assert build_space(n, gens) == fixpoint_space(n, gens), gens


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=5)
        )
    )
)
def test_random_build_space_is_the_union_intersection_fixpoint(drawn):
    n, gens = drawn
    assert build_space(n, gens) == fixpoint_space(n, gens)


def test_space_equality_is_structural(e1, sierpinski):
    twin = FiniteSpace(e1.n, tuple(e1.opens))
    assert twin is not e1 and twin == e1 and hash(twin) == hash(e1)
    # same number of points, other opens
    assert build_space(2, []) != sierpinski
    assert e1 != (e1.n, e1.opens) and e1 != e1.opens


def test_continuous_map_rejects_discontinuity(e1, sierpinski):
    with pytest.raises(InvalidInput):
        ContinuousMap(e1, sierpinski, (0, 1, 1))  # preimage of {1} is {1,2}
    ContinuousMap(e1, sierpinski, (1, 0, 0))  # fine


# --- specialization ---------------------------------------------------------


def test_specialization_sierpinski(sierpinski):
    order = order_of(sierpinski)
    assert order[0][1] and not order[1][0]


def test_specialization_e1_matches_oracle(e1):
    for space in [s for n in range(1, 5) for s in enumerate_spaces(n)]:
        order = order_of(space)
        got = {(x, y) for x in range(space.n) for y in range(space.n) if order[x][y]}
        assert got == oracle_specialization(space), space
    order = order_of(e1)
    assert order[1][0] and order[2][0]
    assert order[1][2] and order[2][1]
    assert not order[0][1]


def test_specialization_discrete_is_identity(discrete3):
    order = order_of(discrete3)
    assert all(order[x][y] == (x == y) for x in range(3) for y in range(3))


# --- classification ---------------------------------------------------------


def test_classify_e1_matches_example(e1):
    p = classify(e1)
    assert p.is_stable and p.is_locally_compact and p.is_weakly_sober
    assert not p.is_T0 and not p.is_sober and not p.is_stably_compact
    assert p.irreducible_closed_sets == (0b110, 0b111)
    assert {frozenset([1, 2]), frozenset([0, 1, 2])} == oracle_irreducibles(e1)


def loop_irreducible(g, closeds):
    """The test of one nonzero closed ``g`` in ``irreducible_closed_sets`` as
    it was written before it called ``_union_prime``: the reference for that
    helper."""
    irreducible = True
    for f1 in closeds:
        for f2 in closeds:
            if g & ~(f1 | f2) == 0 and g & ~f1 != 0 and g & ~f2 != 0:
                irreducible = False
                break
        if not irreducible:
            break
    return irreducible


def test_union_prime_matches_the_irreducibility_loop_it_replaced():
    for space in spaces_up_to(4, False):
        for family in (space.opens, space.closeds):
            for g in family:
                if g:
                    assert _union_prime(g, family) == loop_irreducible(g, family), (space, g)
        closeds = space.closeds
        expected = tuple(g for g in closeds if g and loop_irreducible(g, closeds))
        assert irreducible_closed_sets(space) == expected


def test_classify_sierpinski_stably_compact(sierpinski):
    assert classify(sierpinski).is_stably_compact


def test_every_small_space_weakly_sober(classes3):
    for space in classes3:
        p = classify(space)
        assert p.is_weakly_sober and p.is_salbany, space


def test_hausdorff_iff_discrete(classes3):
    for space in classes3:
        assert classify(space).is_hausdorff == (len(space.opens) == 1 << space.n)


def _profile_by_full_scans(space):
    """``classify`` with stability scanned over every quadruple of opens and
    local compactness over every subset as the candidate neighbourhood."""
    from topolab import spaces as spaces_module

    profile = classify(space)
    wb = spaces_module._way_below_matrix(space)
    stable = wb[(space.full, space.full)] and all(
        not (wb[(o, u)] and wb[(w, v)]) or wb[(o & w, u & v)]
        for o in space.opens
        for u in space.opens
        for w in space.opens
        for v in space.opens
    )
    locally_compact = all(
        any(
            saturation(space, 1 << x) & ~_interior_of(space, k) == 0
            and k & ~o == 0
            and spaces_module.subset_is_compact(space, k)
            for k in range(space.full + 1)
            if (k >> x & 1)
        )
        for x in range(space.n)
        for o in space.opens
        if o >> x & 1
    )
    salbany = locally_compact and stable and profile.is_weakly_sober
    return dataclasses.replace(
        profile,
        is_stable=stable,
        is_locally_compact=locally_compact,
        is_salbany=salbany,
        is_stably_compact=profile.is_T0 and salbany,
    )


@pytest.mark.parametrize("predicates", ["definition", "no-singletons"])
def test_classify_scans_give_the_full_scans_profile(predicates, monkeypatch):
    """Every finite space is stable and locally compact, so a second run
    swaps in way-below and compactness predicates that fail on some opens
    and subsets, and the two scans must still agree."""
    from topolab import spaces as spaces_module

    if predicates == "no-singletons":
        monkeypatch.setattr(
            spaces_module, "way_below_open", lambda space, o, u: o & ~u == 0 and o.bit_count() != 1
        )
        monkeypatch.setattr(spaces_module, "subset_is_compact", lambda space, k: k.bit_count() != 1)
    spaces = spaces_up_to(4, up_to_homeo=False)
    assert len(spaces) == 389  # every labeled space with at most 4 points
    classify.cache_clear()
    try:
        profiles = [classify(space) for space in spaces]
        assert profiles == [_profile_by_full_scans(space) for space in spaces]
    finally:
        monkeypatch.undo()
        classify.cache_clear()
    verdicts = {(p.is_stable, p.is_locally_compact) for p in profiles}
    assert (verdicts == {(True, True)}) == (predicates == "definition"), verdicts


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
    space = build_space(4, [{0}, {1}, {2}, {3}])  # 16 opens
    opens = space.opens
    for o in opens:
        for u in opens:
            assert way_below_open(space, o, u) == (o & ~u == 0)


def subfamily_unions(space):
    """The distinct unions of all 2^|opens| subfamilies of the topology."""
    opens = space.opens
    unions = [0] * (1 << len(opens))
    for bits in range(1, 1 << len(opens)):
        low = (bits & -bits).bit_length() - 1
        unions[bits] = unions[bits & (bits - 1)] | opens[low]
    return tuple(sorted(set(unions)))


def test_covers_are_decided_by_the_opens_as_by_every_subfamily():
    """Both quantifiers over open covers, read through the opens, agree with
    the same quantifiers over every subfamily of the topology.  A cover of a
    finite space is finite, so it is its own finite subfamily and covers a
    set exactly when its union does; the subfamily route reads each cover
    through its union, out of the full table."""
    spaces = [s for n in range(1, 5) for s in enumerate_spaces(n)]
    assert len(spaces) == 389  # every labeled space with at most 4 points
    for space in spaces:
        unions = subfamily_unions(space)
        assert unions == space.opens, space
        for o in space.opens:
            for u in space.opens:
                covered = all(o & ~w == 0 for w in unions if u & ~w == 0)
                assert way_below_open(space, o, u) == covered, (space, o, u)
        for mask in range(space.full + 1):
            covered = all(mask & ~w == 0 for w in unions if mask & ~w == 0)
            assert subset_is_compact(space, mask) == covered, (space, mask)


def test_way_below_past_eighteen_opens_is_the_definition(monkeypatch):
    """On the 5-point discrete space (32 opens) ``classify`` reads the
    definitional way-below relation, never the inclusion shortcut."""
    from topolab import spaces as spaces_module

    def shortcut(space, smaller, larger):
        raise AssertionError("the inclusion shortcut was called")

    space = build_space(5, [{x} for x in range(5)])
    assert len(space.opens) == 32
    monkeypatch.setattr(spaces_module, "way_below_via_subset", shortcut)
    classify.cache_clear()
    try:
        assert classify(space).is_stable
        matrix = spaces_module._way_below_matrix(space)
    finally:
        monkeypatch.undo()
        classify.cache_clear()
    assert len(matrix) == 32 * 32
    assert all(wb == (o & ~u == 0) for (o, u), wb in matrix.items())


# --- compactness and patch --------------------------------------------------


def test_every_subset_compact(classes3):
    for space in classes3:
        for mask in range(space.full + 1):
            assert subset_is_compact(space, mask)


@pytest.mark.parametrize("n", [3, 5])
def test_compactness_fails_on_a_space_whose_hoods_are_bent(n):
    """A discrete space (8 or 32 opens) whose U_0 is widened to {0, 1}
    behind the constructor's back: the open {0} covers itself, and the
    decider must see that U_0 does not lie inside it."""
    space = build_space(n, [{x} for x in range(n)])
    assert all(subset_is_compact(space, mask) for mask in range(space.full + 1))
    object.__setattr__(space, "hoods", (0b11,) + space.hoods[1:])
    assert not subset_is_compact(space, 0b1)
    assert subset_is_compact(space, 0b10)


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


def _proper_by_definition(f, compact):
    """The per-call route: every compact open of the codomain pulls back to a
    compact subset of the domain, each decided on the spot."""
    return all(compact(f.dom, f.preimage(k)) for k in f.cod.opens if compact(f.cod, k))


@pytest.mark.parametrize("compact", ["definition", "at-most-two-points"])
def test_is_proper_reads_what_the_per_call_definition_decides(compact, monkeypatch):
    """Every map of the 3-point corpus and the U, S and P units at 4 points.
    Every subset of a finite space is compact, so a second run swaps in a
    predicate that rejects some, and the memos must follow it."""
    from topolab import spaces as spaces_module
    from topolab.filters import unit

    def clear():
        compact_saturated_sets.cache_clear()
        spaces_module._compact_masks.cache_clear()

    if compact == "at-most-two-points":
        monkeypatch.setattr(
            spaces_module, "subset_is_compact", lambda space, mask: mask.bit_count() <= 2
        )
    clear()
    try:
        maps = list(maps_between(spaces_up_to(3)))
        maps += [unit(kind, s) for kind in KINDS for s in spaces_up_to(4)]
        verdicts = [is_proper(f) for f in maps]
        definition = spaces_module.subset_is_compact
        assert verdicts == [_proper_by_definition(f, definition) for f in maps]
    finally:
        monkeypatch.undo()
        clear()
    assert (False in verdicts) == (compact != "definition")


def test_compact_saturated_sets_is_the_filter_over_all_subsets():
    spaces = [s for n in range(1, 5) for s in enumerate_spaces(n)]
    assert len(spaces) == 389  # every labeled space with at most 4 points
    for space in spaces:
        definitional = tuple(
            m
            for m in range(space.full + 1)
            if saturation(space, m) == m and subset_is_compact(space, m)
        )
        assert compact_saturated_sets(space) == definitional, space


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
        order_a = order_of(a)
        for b in classes3:
            order_b = order_of(b)
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


def _opens_pull_back(a, b, arr):
    """Definitional continuity: every open of b has an open preimage in a."""
    for o in b.opens:
        pre = 0
        for x, fx in enumerate(arr):
            if o >> fx & 1:
                pre |= 1 << x
        if not a.is_open(pre):
            return False
    return True


LABELED3 = spaces_up_to(3, up_to_homeo=False)


def _named_hood(message):
    """The point set a discontinuity message names, as a mask."""
    head, tail = "not continuous: preimage of ", " is not open"
    assert message.startswith(head) and message.endswith(tail), message
    return as_mask(ast.literal_eval(message[len(head) : -len(tail)]))


def test_continuous_map_accepts_exactly_the_arrays_with_open_preimages():
    # 1-point domains and discrete domains have only the diagonal order pairs
    assert {a.n for a in LABELED3} == {1, 2, 3}
    assert sum(len(a.opens) == 1 << a.n for a in LABELED3) == 3
    for a in LABELED3:
        for b in LABELED3:
            for arr in itertools.product(range(b.n), repeat=a.n):
                try:
                    ContinuousMap(a, b, arr)
                    accepted = True
                except InvalidInput as exc:
                    accepted = False
                    hood = _named_hood(str(exc))
                    assert hood in b.hoods and not a.is_open(
                        sum(1 << x for x in range(a.n) if hood >> arr[x] & 1)
                    ), (a, b, arr, exc)
                assert accepted == _opens_pull_back(a, b, arr), (a, b, arr)


def test_continuous_map_rejects_malformed_arrays():
    for a in LABELED3:
        for b in LABELED3:
            arr = (0,) * a.n  # constant, so continuous
            ContinuousMap(a, b, arr)
            for bad in (-1, b.n, b.n + 7, -b.n):
                for x in range(a.n):
                    wrong = arr[:x] + (bad,) + arr[x + 1 :]
                    with pytest.raises(InvalidInput, match="out of codomain range"):
                        ContinuousMap(a, b, wrong)
            for wrong in (arr[:-1], arr + (0,)):
                with pytest.raises(InvalidInput, match="map length"):
                    ContinuousMap(a, b, wrong)


def test_a_value_out_of_range_is_named_before_a_broken_order_pair(sierpinski, point):
    chain3 = build_space(3, [{2}, {1, 2}])  # 0 <= 1 <= 2
    with pytest.raises(InvalidInput, match="not continuous"):
        ContinuousMap(chain3, sierpinski, (1, 0, 0))
    # the same broken pair (0, 1), and 2 is no point of the Sierpinski space
    with pytest.raises(InvalidInput, match="map value out of codomain range"):
        ContinuousMap(chain3, sierpinski, (1, 0, 2))
    # a 1-point domain has one order pair, (0, 0), padded to two
    for cod in (point, sierpinski, chain3):
        with pytest.raises(InvalidInput, match="map value out of codomain range"):
            ContinuousMap(point, cod, (cod.n,))


def test_maps_with_equal_arrays_share_one_tuple():
    maps = list(maps_between(spaces_up_to(3)))
    maps += [lift_map(kind, f) for kind in KINDS for f in maps]
    assert len({f.map for f in maps}) == len({id(f.map) for f in maps})
    assert all(_ARRAYS[f.map] is f.map for f in maps)


def test_a_rejected_array_stays_out_of_the_shared_table(e1, sierpinski, indiscrete2):
    # opens {k..29}: no map in any corpus has a value this large
    chain = build_space(30, [((1 << 30) - 1) ^ ((1 << k) - 1) for k in range(30)])
    rejected = [
        (e1, sierpinski, (0, 1, 1)),  # discontinuous
        (indiscrete2, chain, (28, 29)),  # discontinuous
        (e1, sierpinski, (0, 0, 2)),  # out of range
        (e1, sierpinski, (-1, 0, 0)),  # out of range
        (e1, sierpinski, (0, 0)),  # wrong length
        (indiscrete2, chain, (29, 29, 29)),  # wrong length
    ]
    before = dict(_ARRAYS)
    assert (28, 29) not in before and (-1, 0, 0) not in before
    for dom, cod, arr in rejected:
        with pytest.raises(InvalidInput):
            ContinuousMap(dom, cod, arr)
    assert _ARRAYS == before


def test_float_entries_never_reach_the_shared_table(monkeypatch, e1):
    monkeypatch.setattr("topolab.spaces._ARRAYS", {})
    floats = (0.0, 1.0, 2.0)  # equal to the identity array, so the order test passes
    with pytest.raises(InvalidInput, match="must be ints"):
        ContinuousMap(e1, e1, floats)
    ident = identity_map(e1)
    assert [type(v) for v in ident.map] == [int] * 3
    assert compose(ident, ident) == ident
    # once the int array is stored, an equal float array is handed the ints
    f = ContinuousMap(e1, e1, floats)
    assert f.map is ident.map
    assert compose(f, f) == ident


def test_a_map_from_a_fresh_equal_tuple_is_the_same_map(e1, sierpinski):
    known = ContinuousMap(e1, sierpinski, (1, 0, 0))
    fresh = tuple([1, 0, 0])
    assert fresh is not known.map
    again = ContinuousMap(e1, sierpinski, fresh)
    assert again.map is known.map
    assert again == known and hash(again) == hash(known)


def test_enumeration_is_the_filtered_product(classes4):
    for a in classes4:
        for b in classes4:
            expected = [
                arr
                for arr in itertools.product(range(b.n), repeat=a.n)
                if _opens_pull_back(a, b, arr)
            ]
            assert [f.map for f in enumerate_continuous_maps(a, b)] == expected, (a, b)


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


def _first_permutation_onto(a, b):
    """The first permutation, in lexicographic order, taking opens onto opens."""
    opens_b = set(b.opens)
    for perm in itertools.permutations(range(b.n)):
        images = set()
        for o in a.opens:
            images.add(sum(1 << perm[x] for x in range(a.n) if o >> x & 1))
        if images == opens_b:
            return perm
    return None


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_find_homeomorphism_is_the_first_permutation_onto_the_opens(n):
    # every labeled space against every labeled space up to 3 points, and
    # against every class representative with as many opens at 4
    targets = enumerate_spaces(n, up_to_homeo=n == 4)
    for a in enumerate_spaces(n):
        for b in targets:
            if n == 4 and len(a.opens) != len(b.opens):
                continue
            found = find_homeomorphism(a, b)
            assert (found and found.map) == _first_permutation_onto(a, b), (a, b)


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
    order = order_of(space)
    for o in space.opens:
        for x in range(space.n):
            for y in range(space.n):
                if o >> x & 1 and order[x][y]:
                    assert o >> y & 1


@settings(max_examples=80, deadline=None)
@given(small_space)
def test_random_space_t0_iff_antisymmetric(space):
    order = order_of(space)
    antisymmetric = all(
        x == y or not (order[x][y] and order[y][x]) for x in range(space.n) for y in range(space.n)
    )
    assert classify(space).is_T0 == antisymmetric


def test_specialization_t0_check_catches_a_broken_preorder(monkeypatch):
    # the two routes to T0 must be independent: minimal neighbourhoods bent
    # to the discrete ones on the indiscrete two-point space leave the opens,
    # and so classify's T0, alone and fail the comparison
    bent = FiniteSpace(2, (0, 3))
    object.__setattr__(bent, "hoods", (1, 2))
    real = suites.spaces_up_to
    monkeypatch.setattr(suites, "spaces_up_to", lambda n, *a: (bent,) if n == 4 else real(n, *a))
    classify.cache_clear()
    try:
        reports = run_suite("topo-invariants", RunBounds(max_points=4))
    finally:
        classify.cache_clear()
    assert [r.check_id for r in reports if not r.ok] == ["invariants[specialization-T0]"]
    assert not classify(build_space(2, [])).is_T0


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


def _naive_breaks(pre, cod, keep=None):
    """Per map f: pre.dom -> cod, count the phi with phi . pre == f; keep n != 1."""
    out = []
    for f in enumerate_continuous_maps(pre.dom, cod):
        n = sum(
            1
            for phi in enumerate_continuous_maps(pre.cod, cod)
            if compose(phi, pre).map == f.map and (keep is None or keep(phi))
        )
        if n != 1:
            out.append((f.map, n))
    return out


def _assert_breaks_match(pre, cod, keep=None):
    got = [(f.map, n) for f, n in mediator_breaks(pre, cod, keep)]
    assert got == _naive_breaks(pre, cod, keep)
    return got


def test_mediator_breaks_is_the_naive_loop_on_reflection_units():
    corpus = spaces_up_to(3, True)
    seen = set()
    for space in corpus:
        for reflect in (t0_reflect, hausdorff_reflect):
            _, r = reflect(space)
            for z in corpus:
                breaks = _assert_breaks_match(r, z)
                if classify(z).is_T0 and reflect is t0_reflect:
                    assert breaks == []
                seen.update(n for _, n in breaks)
    # the component quotient posing as the T0 quotient misses some maps
    assert 0 in seen


def test_mediator_breaks_is_the_naive_loop_along_non_injective_maps():
    corpus = spaces_up_to(3, True)
    pres = [m for m in maps_between(corpus) if not m.is_injective and m.cod.n == 3][:12]
    assert pres
    seen, kept = set(), set()
    for pre in pres:
        for z in corpus:
            seen.update(n for _, n in _assert_breaks_match(pre, z))
            kept.update(
                n for _, n in _assert_breaks_match(pre, z, keep=lambda phi: phi.is_surjective)
            )
    assert max(seen) >= 2
    assert seen != kept


# --- the hom-block kernel for functoriality ----------------------------------


def _all_pairs_breaks(maps, lifted, contravariant):
    """Naive scan: every (i, j) with f.cod == g.dom at which the lift of g after
    f (the map listed with its ends and array) differs in an end or in its
    array from the composite of the two lifts."""
    position, number = {}, {}
    for k, m in enumerate(maps):
        position[m.dom, m.cod, m.map] = k
    dom = [number.setdefault(m.dom, len(number)) for m in maps]
    cod = [number.setdefault(m.cod, len(number)) for m in maps]
    breaks = []
    for i, f in enumerate(maps):
        for j, g in enumerate(maps):
            if cod[i] != dom[j]:
                continue
            lifted_h = lifted[position[f.dom, g.cod, tuple(g.map[v] for v in f.map)]]
            early, late = (lifted[j], lifted[i]) if contravariant else (lifted[i], lifted[j])
            if (lifted_h.dom, lifted_h.cod, lifted_h.map) != (
                early.dom, late.cod, tuple(late.map[v] for v in early.map)
            ):
                breaks.append((i, j))
    return breaks


# a 4-point space with 8 opens; its constant 3 to itself has the top code,
# 3·(1 + 4 + 16 + 64) = 255
_FOUR_POINTS = build_space(4, [{0}, {1}, {0, 2}, {0, 1, 3}])


@pytest.mark.parametrize("corpus", ["closed", "four-points"])
def test_composable_pairs_is_the_all_pairs_scan(corpus):
    """The kernel against the naive loop, covariant (the U lift) and
    contravariant (the opens frame map), each corrupted on the constants
    into the largest spaces other than the constant 0, so that some pairs
    break."""
    from topolab.frames import opens_frame_map
    from topolab.monadlab import filter_monad

    if corpus == "closed":
        spaces = spaces_up_to(3)
    else:
        spaces = spaces_up_to(4)[:3] + (_FOUR_POINTS,)
    maps = maps_between(spaces)
    top = max(s.n for s in spaces)
    u = filter_monad("ultra").functor.mor

    def bent(m):
        return m.cod.n == top and len(set(m.map)) == 1 and m.map[0] != 0

    def bent_u(m):
        h = u(m)
        if not bent(m):
            return h
        return ContinuousMap(h.dom, h.cod, ((h.map[0] + 1) % h.cod.n,) * h.dom.n)

    def bent_opens(m):
        if bent(m):
            m = ContinuousMap(m.dom, m.cod, (0,) * m.dom.n)
        return opens_frame_map(m)

    for lift, contravariant in ((bent_u, False), (bent_opens, True)):
        lifted = [lift(m) for m in maps]
        expected = _all_pairs_breaks(maps, lifted, contravariant)
        got = list(composition_breaks(spaces, lifted, contravariant))
        assert got == expected
        assert len({i for i, _ in got}) > 1


def test_composition_breaks_takes_one_lift_per_map():
    spaces = spaces_up_to(2)
    maps = maps_between(spaces)
    with pytest.raises(InvalidInput, match=f"{len(maps) - 1} lifts for the {len(maps)} maps"):
        list(composition_breaks(spaces, maps[:-1]))


@pytest.mark.parametrize("lifted_only", [False, True])
def test_composition_breaks_refuses_a_space_past_four_points(lifted_only):
    # a 5-point space, or only the lift of a 1-point space: both leave the byte codes
    five = build_space(5, [{0}])
    if lifted_only:
        spaces, lifted = (build_space(1),), (identity_map(five),)
    else:
        spaces = (five,)
        lifted = maps_between(spaces)
    with pytest.raises(BoundExceeded, match="map pair scans run on spaces of at most 4 points"):
        list(composition_breaks(spaces, lifted))


# --- composing g onto a known map: compose builds, composes_to decides ------


def test_compose_onto_returns_the_known_map_when_it_is_the_composite(e1, sierpinski):
    f = identity_map(e1)
    g = next(m for m in enumerate_continuous_maps(e1, sierpinski) if len(set(m.map)) > 1)
    known = ContinuousMap(e1, sierpinski, g.map)
    assert composes_to(g, f, known)
    assert compose(g, f) == known


@pytest.mark.parametrize("end", ["dom", "cod"])
def test_compose_onto_builds_when_only_the_array_matches(end, discrete2, indiscrete2, sierpinski):
    if end == "dom":
        f = ContinuousMap(discrete2, indiscrete2, (0, 1))
        g = identity_map(indiscrete2)
        known = ContinuousMap(sierpinski, indiscrete2, (0, 1))
    else:
        f = g = identity_map(discrete2)
        known = ContinuousMap(discrete2, sierpinski, (0, 1))
    built = compose(g, f)
    assert built.map == known.map and built != known
    assert (built.dom, built.cod) == (f.dom, g.cod)
    assert not composes_to(g, f, known)


def test_compose_onto_builds_when_the_arrays_differ(discrete2):
    f = g = identity_map(discrete2)
    known = ContinuousMap(discrete2, discrete2, (1, 0))
    assert compose(g, f).map == (0, 1)
    assert not composes_to(g, f, known)


def test_compose_onto_rejects_a_mismatch(discrete2, indiscrete2):
    # the arrays would compose to ``known``, but f does not land in dom g
    f = identity_map(discrete2)
    g = identity_map(indiscrete2)
    known = ContinuousMap(discrete2, indiscrete2, (0, 1))
    with pytest.raises(InvalidInput, match="composition mismatch"):
        compose(g, f)
    with pytest.raises(InvalidInput, match="composition mismatch"):
        composes_to(g, f, known)


# --- commuting squares: commutes decides g.f = k.h without building ---------


def test_commutes_when_the_composites_agree(e1, sierpinski):
    g = next(m for m in enumerate_continuous_maps(e1, sierpinski) if len(set(m.map)) > 1)
    f = identity_map(e1)
    k = identity_map(sierpinski)
    assert commutes(g, f, k, g)
    assert compose(g, f) == compose(k, g)


@pytest.mark.parametrize("end", ["dom", "cod"])
def test_commutes_rejects_composites_that_differ_only_in_an_end(
    end, discrete2, indiscrete2, sierpinski
):
    if end == "dom":
        f = ContinuousMap(discrete2, indiscrete2, (0, 1))
        h = ContinuousMap(sierpinski, indiscrete2, (0, 1))
        g = k = identity_map(indiscrete2)
    else:
        f = g = h = identity_map(discrete2)
        k = ContinuousMap(discrete2, sierpinski, (0, 1))
    left, right = compose(g, f), compose(k, h)
    assert left.map == right.map and left != right
    assert not commutes(g, f, k, h)


def test_commutes_rejects_composites_whose_arrays_differ(discrete2):
    f = g = h = identity_map(discrete2)
    k = ContinuousMap(discrete2, discrete2, (1, 0))
    assert compose(g, f).map != compose(k, h).map
    assert not commutes(g, f, k, h)


@pytest.mark.parametrize("side", ["left", "right"])
def test_commutes_rejects_a_non_composable_pair(side, discrete2, indiscrete2):
    ident = identity_map(discrete2)
    f, g = ident, identity_map(indiscrete2)  # f does not land in dom g
    with pytest.raises(InvalidInput, match="composition mismatch"):
        compose(g, f)
    square = (g, f, ident, ident) if side == "left" else (ident, ident, g, f)
    with pytest.raises(InvalidInput, match="composition mismatch"):
        commutes(*square)


# ---------------------------------------------------------------------------
# the public constructors refuse data of the wrong type with InvalidInput


# a list passes the order test and fails the shared-table lookup, or fails
# the order test; either way its type is named, and nothing is stored
@pytest.mark.parametrize(
    "arr",
    [("a", "b"), (0.5, 1), (True, 1), [0, 1], [1, 0]],
    ids=["str", "float", "bool", "list", "list-not-monotone"],
)
def test_a_map_of_non_int_values_is_refused(monkeypatch, arr):
    table = {}
    monkeypatch.setattr("topolab.spaces._ARRAYS", table)
    s = build_space(2, [{0}])
    with pytest.raises(InvalidInput, match="map values must be ints"):
        ContinuousMap(s, s, arr)
    assert table == {}


@pytest.mark.parametrize("opens", [(0, 1.0, 3), [0, 1, 3]], ids=["float", "list"])
def test_a_space_whose_opens_are_not_a_tuple_of_ints_is_refused(opens):
    with pytest.raises(InvalidInput, match="opens must be ints"):
        FiniteSpace(2, opens)


def test_a_space_of_bool_points_is_refused():
    with pytest.raises(InvalidInput, match="at least one point, got True"):
        FiniteSpace(True, (False, True))


def test_a_generator_of_non_int_points_is_refused():
    with pytest.raises(InvalidInput, match=r"point 0.0 is not an int in 0\.\.1"):
        build_space(2, [{0.0}])


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: FiniteSpace(0, (0,)), "at least one point"),
        (lambda: build_space(0), "at least one point"),
        (lambda: FiniteSpace(2, (0, 3, 4)), "open 0x4 mentions points outside the space"),
    ],
    ids=["no-points", "build-no-points", "open-outside"],
)
def test_a_space_without_points_or_with_an_open_outside_it_is_refused(build, message):
    with pytest.raises(InvalidInput, match=message):
        build()


def test_only_a_homeomorphism_is_inverted(sierpinski, discrete2):
    # a constant is not a bijection; the identity onto a finer space is one,
    # but its inverse is not continuous
    for f in (
        ContinuousMap(sierpinski, sierpinski, (0, 0)),
        ContinuousMap(discrete2, build_space(2, []), (0, 1)),
    ):
        with pytest.raises(InvalidInput, match="only homeomorphisms can be inverted"):
            inverse_map(f)
