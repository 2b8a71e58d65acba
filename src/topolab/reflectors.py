"""The T0, sobriety, and Hausdorff reflections of finite spaces, plus the
factorization machinery every composite construction leans on.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import HypothesisViolated, InvalidInput, NotStablyCompact, NotWellDefined
from .reports import CheckReport, failed, passed
from .spaces import (
    ContinuousMap,
    FiniteSpace,
    classify,
    closure,
    composes_to,
    enumerate_continuous_maps,
    identity_map,
    image_under,
    irreducible_closed_sets,
    is_proper,
    mediator_breaks,
    patch_topology,
)

T0 = "t0"
SOBER = "sober"
HAUSDORFF = "hausdorff"


def in_t0(space: FiniteSpace) -> bool:
    return classify(space).is_T0


def in_sober(space: FiniteSpace) -> bool:
    return classify(space).is_sober


def in_hausdorff(space: FiniteSpace) -> bool:
    return classify(space).is_hausdorff


CLASS_PREDICATES = {T0: in_t0, SOBER: in_sober, HAUSDORFF: in_hausdorff}


@lru_cache(maxsize=None)
def t0_reflect(space: FiniteSpace) -> tuple[FiniteSpace, ContinuousMap]:
    """Quotient by topological indistinguishability.

    Two points are indistinguishable exactly when they have the same minimal
    neighbourhood.  Classes are ordered by ascending closure mask, which
    fixes the labelling of the quotient.  A space that is already T0, one
    class per point, comes back unchanged with the identity as unit.
    """
    classes: dict[int, int] = {}  # minimal neighbourhood -> its class mask
    for x, hood in enumerate(space.hoods):
        classes[hood] = classes.get(hood, 0) | 1 << x
    if len(classes) == space.n:
        return space, identity_map(space)
    ordering = sorted(classes, key=lambda hood: closure(space, classes[hood]))
    rank = {hood: i for i, hood in enumerate(ordering)}
    arr = tuple(rank[hood] for hood in space.hoods)
    opens = {image_under(arr, o) for o in space.opens}
    quotient = FiniteSpace(len(classes), tuple(sorted(opens)))
    return quotient, ContinuousMap(space, quotient, arr)


@lru_cache(maxsize=None)
def sobrify(space: FiniteSpace) -> tuple[FiniteSpace, ContinuousMap]:
    """Points of the result are the irreducible closed sets of the input."""
    irr = irreducible_closed_sets(space)
    index = {g: i for i, g in enumerate(irr)}
    opens = []
    for o in space.opens:
        m = 0
        for g, i in index.items():
            if g & o:
                m |= 1 << i
        opens.append(m)
    sober_space = FiniteSpace(len(irr), tuple(sorted(set(opens))))
    arr = tuple(index[closure(space, 1 << x)] for x in range(space.n))
    return sober_space, ContinuousMap(space, sober_space, arr)


@lru_cache(maxsize=None)
def hausdorff_reflect(space: FiniteSpace) -> tuple[FiniteSpace, ContinuousMap]:
    """Collapse each connected component of the specialization preorder.

    Finite Hausdorff spaces are discrete, and a map into a discrete space is
    constant on preorder components, so the finest such quotient is the
    component quotient with the discrete topology; x and y are joined when
    one lies in the other's minimal neighbourhood.
    """
    hoods = space.hoods
    comp = list(range(space.n))

    def find(a: int) -> int:
        while comp[a] != a:
            comp[a] = comp[comp[a]]
            a = comp[a]
        return a

    for x in range(space.n):
        for y in range(space.n):
            if hoods[x] >> y & 1 or hoods[y] >> x & 1:
                comp[find(x)] = find(y)
    roots = sorted({find(x) for x in range(space.n)})
    rank = {r: i for i, r in enumerate(roots)}
    arr = tuple(rank[find(x)] for x in range(space.n))
    k = len(roots)
    discrete = FiniteSpace(k, tuple(range(1 << k)))
    return discrete, ContinuousMap(space, discrete, arr)


REFLECT_OPS = {T0: t0_reflect, SOBER: sobrify, HAUSDORFF: hausdorff_reflect}


def factor_through_reflection(
    f: ContinuousMap,
    r: ContinuousMap,
    in_class,
    then: ContinuousMap | None = None,
) -> ContinuousMap:
    """The unique map phi with phi . r = f, defined on the fibers of r.

    With ``then``, phi . r = then . f instead; that composite is read as the
    array of ``then`` gathered along ``f`` and never built.  ``in_class`` is
    the membership predicate of the reflective class, which the codomain of
    the map factored must satisfy.
    """
    cod, arr = f.cod, f.map
    if then is not None:
        if f.cod != then.dom:
            raise InvalidInput("composition mismatch: cod of f differs from dom of g")
        cod, arr = then.cod, tuple(map(then.map.__getitem__, arr))
    if f.dom != r.dom:
        raise HypothesisViolated("f and r must share their domain")
    if not in_class(cod):
        raise HypothesisViolated("codomain is not in the reflective class")
    values: dict[int, int] = {}
    for c, v in zip(r.map, arr):
        if values.setdefault(c, v) != v:
            raise NotWellDefined(f"fiber over {c} carries both values {values[c]} and {v}")
    if len(values) != r.cod.n:
        raise NotWellDefined("the quotient map is not surjective")
    return ContinuousMap(r.cod, cod, tuple(values[c] for c in range(r.cod.n)))


def patch_coreflect(space: FiniteSpace) -> tuple[FiniteSpace, ContinuousMap]:
    """Patch topology with the identity-on-points counit, for stably compact input."""
    if not classify(space).is_stably_compact:
        raise NotStablyCompact(f"{space!r} is not stably compact")
    patched = patch_topology(space)
    counit = ContinuousMap(patched, space, tuple(range(space.n)))
    return patched, counit


def check_reflector_universal(
    reflect,
    corpus: tuple[FiniteSpace, ...],
    in_class,
    check_id: str = "reflector-universal",
    corpus_desc: str = "",
) -> CheckReport:
    """For every map into a class member, exactly one factorization exists."""
    desc = corpus_desc or f"{len(corpus)} spaces"
    for x_space in corpus:
        _, r = reflect(x_space)
        for z in corpus:
            if not in_class(z):
                continue
            for f, n in mediator_breaks(r, z):
                return failed(
                    check_id, desc, f"f={f.map} on {x_space!r} -> {z!r}: {n} factorizations"
                )
    return passed(check_id, desc)


def check_patch_couniversal(
    space: FiniteSpace,
    sources: tuple[FiniteSpace, ...],
) -> CheckReport:
    """Every proper map from a compact Hausdorff source lifts uniquely
    through the patch counit."""
    kx, counit = patch_coreflect(space)
    for c in sources:
        if not classify(c).is_hausdorff:
            continue
        for g in enumerate_continuous_maps(c, space):
            if not is_proper(g):
                continue
            lifts = [
                h
                for h in enumerate_continuous_maps(c, kx)
                if composes_to(counit, h, g) and is_proper(h)
            ]
            if len(lifts) != 1:
                return failed(
                    "patch-couniversal",
                    f"{space!r}",
                    f"source {c!r}, g={g.map}: {len(lifts)} lifts",
                )
    return passed("patch-couniversal", f"{space!r}; {len(sources)} sources")
