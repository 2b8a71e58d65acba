"""Reflector tests: quotients, factorization, the patch counit."""

import pytest

from topolab import (
    ContinuousMap,
    HypothesisViolated,
    InvalidInput,
    NotStablyCompact,
    NotWellDefined,
    check_patch_couniversal,
    check_reflector_universal,
    classify,
    compose,
    enumerate_continuous_maps,
    factor_through_reflection,
    find_homeomorphism,
    hausdorff_reflect,
    identity_map,
    patch_coreflect,
    reflector_spec,
    sobrify,
    t0_reflect,
)
from topolab.corpus import enumerate_spaces, maps_between
from topolab.reflectors import HAUSDORFF, SOBER, T0, in_hausdorff, in_sober, in_t0
from topolab.spaces import FiniteSpace, closure, image_under


def test_t0_reflect_e1(e1, sierpinski):
    rx, r = t0_reflect(e1)
    assert rx == sierpinski
    assert r.map == (1, 0, 0)


def test_t0_reflect_identity_on_t0(sierpinski, discrete3):
    for space in (sierpinski, discrete3):
        rx, r = t0_reflect(space)
        assert rx == space and r.map == identity_map(space).map


def test_t0_lattice_isomorphism(classes4):
    for space in classes4:
        rx, r = t0_reflect(space)
        for o in space.opens:
            assert r.preimage(r.image(o)) == o
        for u in rx.opens:
            assert r.image(r.preimage(u)) == u


def test_t0_reflect_twice_is_once(classes3):
    for space in classes3:
        once, _ = t0_reflect(space)
        twice, _ = t0_reflect(once)
        assert once == twice


def test_sobrify_twice_is_once(classes3):
    for space in classes3:
        once, _ = sobrify(space)
        twice, _ = sobrify(once)
        assert find_homeomorphism(twice, once) is not None


def test_hausdorff_twice_is_once(classes3):
    for space in classes3:
        once, _ = hausdorff_reflect(space)
        twice, _ = hausdorff_reflect(once)
        assert twice == once


def test_sobrify_e1(e1, sierpinski):
    sx, s = sobrify(e1)
    assert sx.n == 2
    assert find_homeomorphism(sx, sierpinski) is not None
    assert s.map == (1, 0, 0)  # points 1 and 2 share the closure {1,2}


def test_sobrify_result_always_sober(classes3):
    for space in classes3:
        sx, _ = sobrify(space)
        assert classify(sx).is_sober


def test_sobrify_sober_space_is_identity_like(sierpinski):
    sx, s = sobrify(sierpinski)
    assert find_homeomorphism(sx, sierpinski) is not None
    assert s.is_injective and s.is_surjective


def test_sobrify_matches_t0_quotient(classes4):
    for space in classes4:
        assert find_homeomorphism(sobrify(space)[0], t0_reflect(space)[0]) is not None


def test_hausdorff_reflect_values(e1, sierpinski, discrete3):
    assert hausdorff_reflect(sierpinski)[0].n == 1
    assert hausdorff_reflect(e1)[0].n == 1
    hx, h = hausdorff_reflect(discrete3)
    assert hx == discrete3 and h.map == (0, 1, 2)


def test_hausdorff_reflect_is_discrete_on_components(classes3):
    for space in classes3:
        hx, h = hausdorff_reflect(space)
        assert classify(hx).is_hausdorff
        assert len(hx.opens) == 1 << hx.n
        assert h.is_surjective


def test_reflection_units_surjective(classes3):
    for space in classes3:
        for reflect in (t0_reflect, sobrify, hausdorff_reflect):
            assert reflect(space)[1].is_surjective


def test_factor_example(e1, sierpinski):
    f = ContinuousMap(e1, sierpinski, (1, 0, 0))
    _, r = t0_reflect(e1)
    phi = factor_through_reflection(f, r, in_t0)
    assert phi.map == (0, 1)


def test_factor_of_unit_is_identity(e1):
    rx, r = t0_reflect(e1)
    phi = factor_through_reflection(r, r, in_t0)
    assert phi.map == identity_map(rx).map


def test_factor_rejects_wrong_class(e1):
    _, r = t0_reflect(e1)
    with pytest.raises(HypothesisViolated):
        factor_through_reflection(identity_map(e1), r, in_t0)  # e1 is not T0


def test_factor_not_well_defined(sierpinski):
    # collapsing to a point cannot factor the identity of a two-point space;
    # Sierpinski space is T0, so it is the fibre check that raises
    collapsed, h = hausdorff_reflect(sierpinski)
    assert collapsed.n == 1
    with pytest.raises(NotWellDefined):
        factor_through_reflection(identity_map(sierpinski), h, in_t0)


def test_factor_of_a_composite_is_the_factor_of_the_built_composite(classes3):
    for name in (T0, SOBER, HAUSDORFF):
        spec = reflector_spec(name)
        for f in maps_between(classes3):
            _, r_dom = spec.reflect(f.dom)
            _, r_cod = spec.reflect(f.cod)
            built = factor_through_reflection(compose(r_cod, f), r_dom, spec.in_class)
            assert spec.mor(f) == built, (name, f)


def test_factor_of_a_composite_keeps_the_mismatch_check(e1, sierpinski):
    _, r = t0_reflect(e1)
    f = ContinuousMap(e1, sierpinski, (1, 0, 0))
    with pytest.raises(InvalidInput, match="composition mismatch"):
        factor_through_reflection(f, r, in_t0, then=r)


def test_patch_coreflect_sierpinski(sierpinski):
    kx, counit = patch_coreflect(sierpinski)
    assert len(kx.opens) == 4 and counit.map == (0, 1)


def test_patch_coreflect_discrete_identity(discrete3):
    kx, counit = patch_coreflect(discrete3)
    assert kx == discrete3 and counit.map == (0, 1, 2)


def test_patch_coreflect_rejects_non_stably_compact(e1):
    with pytest.raises(NotStablyCompact):
        patch_coreflect(e1)


def test_patch_couniversal(classes3):
    sources = tuple(s for s in classes3 if classify(s).is_hausdorff)
    for space in classes3:
        if classify(space).is_stably_compact:
            assert check_patch_couniversal(space, sources).ok


def test_reflector_universal_t0(classes3):
    assert check_reflector_universal(t0_reflect, classes3, in_t0).ok


def test_reflector_universal_hausdorff(classes3):
    assert check_reflector_universal(hausdorff_reflect, classes3, in_hausdorff).ok


def test_reflector_universal_sober(classes3):
    assert check_reflector_universal(sobrify, classes3, in_sober).ok


def test_reflector_universal_catches_coarsening(classes3):
    # mutation: pretend the component quotient were the T0 reflection
    report = check_reflector_universal(hausdorff_reflect, classes3, in_t0)
    assert not report.ok and report.witness


def test_unique_factorization_never_raises(classes3):
    for space in classes3:
        rx, r = t0_reflect(space)
        for z in classes3:
            if not in_t0(z):
                continue
            for f in enumerate_continuous_maps(space, z):
                phi = factor_through_reflection(f, r, in_t0)
                assert compose(phi, r).map == f.map


# --- the quotients against the specialization-matrix route -------------------


def _order_matrix(space):
    """The specialization preorder as a matrix: order[x][y] iff y in U_x."""
    return [[bool(h >> y & 1) for y in range(space.n)] for h in space.hoods]


def _t0_by_matrix(space):
    """Reference T0 quotient: a representative scan over the preorder matrix."""
    if classify(space).is_T0:
        return space, identity_map(space)
    order = _order_matrix(space)
    reps, cls_of, classes = [], [], []
    for x in range(space.n):
        for i, r in enumerate(reps):
            if order[x][r] and order[r][x]:
                cls_of.append(i)
                classes[i] |= 1 << x
                break
        else:
            cls_of.append(len(reps))
            reps.append(x)
            classes.append(1 << x)
    ordering = sorted(range(len(reps)), key=lambda i: closure(space, classes[i]))
    rank = {old: new for new, old in enumerate(ordering)}
    arr = tuple(rank[c] for c in cls_of)
    quotient = FiniteSpace(len(reps), tuple(sorted({image_under(arr, o) for o in space.opens})))
    return quotient, ContinuousMap(space, quotient, arr)


def _hausdorff_by_matrix(space):
    """Reference component quotient: union-find over the preorder matrix."""
    order = _order_matrix(space)
    comp = list(range(space.n))

    def find(a):
        while comp[a] != a:
            a = comp[a]
        return a

    for x in range(space.n):
        for y in range(space.n):
            if order[x][y] or order[y][x]:
                comp[find(x)] = find(y)
    roots = sorted({find(x) for x in range(space.n)})
    arr = tuple(roots.index(find(x)) for x in range(space.n))
    discrete = FiniteSpace(len(roots), tuple(range(1 << len(roots))))
    return discrete, ContinuousMap(space, discrete, arr)


_QUOTIENT_INPUTS = [s for n in range(1, 5) for s in enumerate_spaces(n)] + list(
    enumerate_spaces(5, up_to_homeo=True)
)


@pytest.mark.parametrize(
    "reflect,reference",
    [(t0_reflect, _t0_by_matrix), (hausdorff_reflect, _hausdorff_by_matrix)],
    ids=["t0", "hausdorff"],
)
def test_quotient_is_the_specialization_matrix_route(reflect, reference):
    # every labeled space with at most 4 points and every 5-point class
    assert len(_QUOTIENT_INPUTS) == 389 + 139
    for space in _QUOTIENT_INPUTS:
        quotient, unit_map = reflect(space)
        expected, expected_unit = reference(space)
        assert quotient == expected, space
        assert unit_map.map == expected_unit.map, space
