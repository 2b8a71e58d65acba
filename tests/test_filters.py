"""Filter-space tests: enumeration, units, multiplications, comparisons.

The small expected values (point counts, generators, where units land) were
derived by enumerating filters of the relevant lattices by hand and are
frozen here; structural invariants are rechecked by the library's own
assertion routine plus an independent primality oracle.
"""

import pytest
from hypothesis import given, settings, strategies as st

from topolab import (
    CLOSED_PRIME,
    KINDS,
    OPEN_PRIME,
    ULTRA,
    ContinuousMap,
    FilterNotWellFormed,
    FiniteSpace,
    alpha,
    build_space,
    classify,
    compose,
    closure,
    enumerate_continuous_maps,
    find_homeomorphism,
    identity_map,
    is_homeomorphism,
    lift_map,
    lift_space,
    mult,
    saturation,
    unit,
)
from topolab import filters
from topolab.corpus import maps_between, spaces_up_to
from topolab.filters import LiftedSpace, ambient_lattice, check_filter_point, member_set


def oracle_prime_filters(kind, space):
    """Independent enumeration: every up-closed, meet-closed, proper subset
    of the ambient lattice, tested for the kind's primality directly."""
    ambient = ambient_lattice(kind, space)
    out = set()
    for picks in range(1 << len(ambient)):
        fam = {ambient[i] for i in range(len(ambient)) if picks >> i & 1}
        if not fam or 0 in fam or space.full not in fam:
            continue
        if any(a & b not in fam for a in fam for b in fam):
            continue
        if any(b in ambient and a in fam and a & b == a and b not in fam
               for a in fam for b in ambient):
            continue
        if kind == ULTRA:
            if not all((m in fam) != (space.full ^ m in fam) for m in ambient):
                continue
        else:
            if any(
                a | b in fam and a not in fam and b not in fam
                for a in ambient
                for b in ambient
            ):
                continue
        out.add(frozenset(fam))
    return out


def _filters(lifted):
    """The filter of each lifted point: the up-set of its generator in the ambient."""
    ambient = ambient_lattice(lifted.kind, lifted.base)
    return [tuple(sorted(m for m in ambient if m & g == g)) for g in lifted.generators]


# --- enumeration ------------------------------------------------------------


def test_open_prime_points_of_e1(e1):
    lifted = lift_space(OPEN_PRIME, e1)
    assert list(lifted.generators) == [0b001, 0b111]
    assert find_homeomorphism(lifted.space, build_space(2, [{1}])) is not None


def test_closed_prime_points_of_e1(e1):
    lifted = lift_space(CLOSED_PRIME, e1)
    assert list(lifted.generators) == [0b110, 0b111]
    assert find_homeomorphism(lifted.space, build_space(2, [{1}])) is not None


def test_ultra_points_of_discrete(discrete3):
    lifted = lift_space(ULTRA, discrete3)
    assert list(lifted.generators) == [1, 2, 4]
    assert len(lifted.space.opens) == 8


def test_enumeration_matches_oracle(classes3):
    for space in classes3:
        for kind in (ULTRA, OPEN_PRIME, CLOSED_PRIME):
            got = set(map(frozenset, _filters(lift_space(kind, space))))
            assert got == oracle_prime_filters(kind, space), (kind, space)


def test_filter_points_pass_invariant_audit(classes3):
    for space in classes3:
        for kind in (ULTRA, OPEN_PRIME, CLOSED_PRIME):
            for g in lift_space(kind, space).generators:
                check_filter_point(kind, g, space)


def test_check_filter_point_rejects_the_zero_generator(e1):
    for kind in KINDS:
        with pytest.raises(FilterNotWellFormed, match="not proper: contains the empty set"):
            check_filter_point(kind, 0, e1)


def test_check_filter_point_rejects_a_generator_outside_the_ambient(e1):
    assert 0b010 not in e1.opens
    with pytest.raises(FilterNotWellFormed, match="generator outside its ambient lattice"):
        check_filter_point(OPEN_PRIME, 0b010, e1)


def test_check_filter_point_rejects_a_non_prime_generator(discrete2):
    # the up-set of the full set holds {0} | {1} but neither {0} nor {1},
    # which for U is neither {0} nor its complement
    for kind in KINDS:
        with pytest.raises(FilterNotWellFormed, match=f"filter is not {kind}-prime"):
            check_filter_point(kind, discrete2.full, discrete2)


# --- functor action ---------------------------------------------------------


def test_lift_identity_is_identity(e1):
    for kind in (ULTRA, OPEN_PRIME, CLOSED_PRIME):
        lifted = lift_map(kind, identity_map(e1))
        assert lifted.map == identity_map(lift_space(kind, e1).space).map


def test_lift_map_example(e1, sierpinski):
    f = ContinuousMap(e1, sierpinski, (1, 0, 0))
    sf = lift_map(OPEN_PRIME, f)
    dom = lift_space(OPEN_PRIME, e1)
    cod = lift_space(OPEN_PRIME, sierpinski)
    # {0}-generated filter lands on the {1}-generated one, the whole-space
    # filter on the whole-space one
    assert cod.generators[sf.map[dom.points_above([0b001])[0]]] == 0b10
    assert cod.generators[sf.map[dom.points_above([0b111])[0]]] == 0b11


def _point_with(lifted, family):
    """Index of the one lifted point whose filter is exactly ``family``."""
    matches = [i for i, filt in enumerate(_filters(lifted)) if filt == family]
    assert len(matches) == 1, (lifted.kind, family)
    return matches[0]


def _pushforward_by_preimages(kind, f):
    """The preimage formula: p goes to {b : f^-1(b) in p}, found by its family."""
    cod_l = lift_space(kind, f.cod)
    ambient = ambient_lattice(kind, f.cod)
    return tuple(
        _point_with(cod_l, tuple(sorted(b for b in ambient if f.preimage(b) in filt)))
        for filt in _filters(lift_space(kind, f.dom))
    )


def test_lift_map_is_the_preimage_pushforward():
    for kind in KINDS:
        for f in maps_between(spaces_up_to(3)):
            lifted = lift_map(kind, f)
            assert lifted.dom == lift_space(kind, f.dom).space
            assert lifted.cod == lift_space(kind, f.cod).space
            assert lifted.map == _pushforward_by_preimages(kind, f), (kind, f)
            # F(F f), which the naturality of mult quantifies over
            twice = lift_map(kind, lifted)
            assert twice.map == _pushforward_by_preimages(kind, lifted), (kind, f)


def test_unit_sends_each_point_to_its_neighbourhood_filter():
    for kind in KINDS:
        for space in spaces_up_to(4, up_to_homeo=False):
            eta = unit(kind, space)
            lifted = lift_space(kind, space)
            assert eta.dom == space and eta.cod == lifted.space
            ambient = ambient_lattice(kind, space)
            assert eta.map == tuple(
                _point_with(lifted, tuple(m for m in ambient if m >> x & 1))
                for x in range(space.n)
            ), (kind, space)


def test_lift_map_and_unit_raise_on_a_missing_point(monkeypatch, e1):
    twin = FiniteSpace(e1.n, e1.opens)  # equal to e1, told apart by identity
    for kind in KINDS:
        full = lift_space(kind, e1)
        gens = full.generators
        for drop in range(len(gens)):
            short = LiftedSpace(e1, kind, gens[:drop] + gens[drop + 1 :], full.space)
            monkeypatch.setattr(
                filters,
                "lift_space",
                lambda k, s: short if k == kind and s is e1 else lift_space(k, s),
            )
            # every point is hit: the identity pushes each one to itself,
            # each point is generated by the least member above some {x},
            # and alpha is onto
            with pytest.raises(FilterNotWellFormed, match="no point with generator"):
                lift_map(kind, ContinuousMap(twin, e1, tuple(range(e1.n))))
            with pytest.raises(FilterNotWellFormed, match="no point with generator"):
                unit(kind, e1)
            if kind != ULTRA:
                with pytest.raises(FilterNotWellFormed, match="no point with generator"):
                    alpha(kind, e1)
            monkeypatch.undo()
        # mult flattens the points of the lift of full.space: give that lift
        # one point, the improper filter generated by the empty set, whose
        # empty union generates no point of full
        improper = LiftedSpace(full.space, kind, (0,), build_space(1))
        monkeypatch.setattr(
            filters,
            "lift_space",
            lambda k, s: improper if k == kind and s is full.space else lift_space(k, s),
        )
        with pytest.raises(FilterNotWellFormed, match="no point with generator 0x0$"):
            mult(kind, e1)
        monkeypatch.undo()


def test_points_above_reads_the_least_ambient_member_above():
    # the shortcuts points_above does not take: the subset itself for U,
    # its saturation for S, its closure for P
    shortcut = {ULTRA: lambda space, mask: mask, OPEN_PRIME: saturation, CLOSED_PRIME: closure}
    misses = 0
    for space in spaces_up_to(3, up_to_homeo=False):
        for kind in KINDS:
            lifted = lift_space(kind, space)
            generators = list(lifted.generators)
            for mask in range(space.full + 1):
                least = shortcut[kind](space, mask)
                if least in generators:
                    assert lifted.points_above([mask]) == (generators.index(least),)
                else:
                    misses += least != 0  # proper filters only, so 0 is always a miss
                    with pytest.raises(FilterNotWellFormed, match=f"generator {least:#x}$"):
                        lifted.points_above([mask])
    assert misses  # some nonempty least member generates no point


def test_ultra_is_the_identity_monad_literally():
    # every filter is principal and its generator is a singleton, so U
    # returns each space, unit, multiplication and map itself, not a copy
    for space in spaces_up_to(4):
        assert lift_space(ULTRA, space).space == space
        assert unit(ULTRA, space).map == tuple(range(space.n))
        assert mult(ULTRA, space).map == tuple(range(space.n))
    maps = maps_between(spaces_up_to(3))
    assert len(maps) == 1462
    for f in maps:
        assert lift_map(ULTRA, f) == f


def test_functor_composition(classes3):
    spaces = classes3[:6]
    for kind in (ULTRA, OPEN_PRIME, CLOSED_PRIME):
        for a in spaces:
            for b in spaces:
                for f in enumerate_continuous_maps(a, b):
                    for g in enumerate_continuous_maps(b, a):
                        lhs = lift_map(kind, compose(g, f))
                        rhs = compose(lift_map(kind, g), lift_map(kind, f))
                        assert lhs.map == rhs.map


# --- units ------------------------------------------------------------------


def test_ultra_unit_is_principal(e1):
    lifted = lift_space(ULTRA, e1)
    eta = unit(ULTRA, e1)
    for x in range(3):
        assert lifted.generators[eta(x)] == 1 << x


def test_open_unit_on_e1(e1):
    lifted = lift_space(OPEN_PRIME, e1)
    e = unit(OPEN_PRIME, e1)
    assert lifted.generators[e(0)] == 0b001
    assert lifted.generators[e(1)] == 0b111
    assert lifted.generators[e(2)] == 0b111


def test_closed_unit_generators(classes3):
    for space in classes3:
        lifted = lift_space(CLOSED_PRIME, space)
        d = unit(CLOSED_PRIME, space)
        for x in range(space.n):
            assert lifted.generators[d(x)] == closure(space, 1 << x)


def test_unit_preimage_identity(classes3):
    # preimage of a member-set under the unit recovers the open itself
    for space in classes3:
        eta = unit(ULTRA, space)
        for o in space.opens:
            assert eta.preimage(member_set(ULTRA, space, o)) == o
        e = unit(OPEN_PRIME, space)
        for o in space.opens:
            assert e.preimage(member_set(OPEN_PRIME, space, o)) == o


def test_ultra_unit_is_homeomorphism(classes3):
    for space in classes3:
        assert is_homeomorphism(unit(ULTRA, space))


# --- multiplication ---------------------------------------------------------


def test_mult_open_prime_on_e1(e1):
    m = mult(OPEN_PRIME, e1)
    dom = lift_space(OPEN_PRIME, lift_space(OPEN_PRIME, e1).space)
    cod = lift_space(OPEN_PRIME, e1)
    assert dom.space.n == 2
    # the filter generated by the open point flattens onto the open-point
    # filter, the whole-space one onto the whole-space filter
    assert cod.generators[m.map[0]] == 0b001
    assert cod.generators[m.map[1]] == 0b111


def test_mult_after_unit_laws(classes3):
    for space in classes3:
        for kind in (ULTRA, OPEN_PRIME, CLOSED_PRIME):
            lifted = lift_space(kind, space)
            m = mult(kind, space)
            ident = identity_map(lifted.space).map
            assert compose(m, unit(kind, lifted.space)).map == ident
            assert compose(m, lift_map(kind, unit(kind, space))).map == ident


def test_mult_is_the_flattening_by_member_sets():
    for kind in KINDS:
        for space in spaces_up_to(4, up_to_homeo=False):
            m = mult(kind, space)
            l1 = lift_space(kind, space)
            l2 = lift_space(kind, l1.space)
            assert m.dom == l2.space and m.cod == l1.space
            ambient = ambient_lattice(kind, space)
            # the flattening keeps the sets whose member-set the filter of filters holds
            assert m.map == tuple(
                _point_with(
                    l1,
                    tuple(a for a in ambient if member_set(kind, space, a) in big),
                )
                for big in _filters(l2)
            ), (kind, space)


# --- comparison maps --------------------------------------------------------


def test_alpha_commutes_with_units(classes3):
    for space in classes3:
        eta = unit(ULTRA, space)
        for kind in (OPEN_PRIME, CLOSED_PRIME):
            a = alpha(kind, space)
            assert compose(a, eta).map == unit(kind, space).map


def test_alpha_on_e1(e1):
    a = alpha(OPEN_PRIME, e1)
    cod = lift_space(OPEN_PRIME, e1)
    assert cod.generators[a.map[0]] == 0b001  # principal at the open point
    assert cod.generators[a.map[1]] == 0b111
    b = alpha(CLOSED_PRIME, e1)
    codb = lift_space(CLOSED_PRIME, e1)
    assert codb.generators[b.map[0]] == 0b111
    assert codb.generators[b.map[1]] == 0b110


def test_alpha_surjective(classes3):
    for space in classes3:
        for kind in (OPEN_PRIME, CLOSED_PRIME):
            assert alpha(kind, space).is_surjective


def test_alpha_preimage_of_member_sets(classes3):
    # the preimage of a basic open downstairs is the matching basic open upstairs
    for space in classes3:
        a = alpha(OPEN_PRIME, space)
        for o in space.opens:
            assert a.preimage(member_set(OPEN_PRIME, space, o)) == member_set(
                ULTRA, space, o
            )


def test_alpha_is_the_restriction_to_the_target_ambient():
    for kind in (OPEN_PRIME, CLOSED_PRIME):
        for space in spaces_up_to(4, up_to_homeo=False):
            a = alpha(kind, space)
            src = lift_space(ULTRA, space)
            dst = lift_space(kind, space)
            assert a.dom == src.space and a.cod == dst.space
            keep = set(ambient_lattice(kind, space))
            assert a.map == tuple(
                _point_with(dst, tuple(m for m in filt if m in keep)) for filt in _filters(src)
            ), (kind, space)


# --- structure of the lifted spaces ----------------------------------------


def test_lifted_spaces_stably_compact(classes3):
    for space in classes3:
        for kind in (OPEN_PRIME, CLOSED_PRIME):
            assert classify(lift_space(kind, space).space).is_stably_compact


def test_open_prime_points_are_minimal_neighborhoods(classes4):
    for space in classes4:
        gens = set(lift_space(OPEN_PRIME, space).generators)
        assert gens == set(space.hoods)


def test_closed_prime_points_are_point_closures(classes4):
    for space in classes4:
        gens = set(lift_space(CLOSED_PRIME, space).generators)
        assert gens == {closure(space, 1 << x) for x in range(space.n)}


small_space = st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.lists(
        st.sets(st.integers(min_value=0, max_value=n - 1)), max_size=3
    ).map(lambda gens: build_space(n, gens))
)


@settings(max_examples=40, deadline=None)
@given(small_space)
def test_random_space_filters_match_oracle(space):
    for kind in (ULTRA, OPEN_PRIME, CLOSED_PRIME):
        got = set(map(frozenset, _filters(lift_space(kind, space))))
        assert got == oracle_prime_filters(kind, space)
