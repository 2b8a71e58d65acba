"""The T0, sobriety, and Hausdorff reflections of finite spaces, plus the
factorization machinery every composite construction leans on.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import HypothesisViolated, NotStablyCompact, NotWellDefined
from .reports import CheckReport, failed, passed
from .spaces import (
    ContinuousMap,
    FiniteSpace,
    classify,
    closure,
    compose,
    enumerate_continuous_maps,
    identity_map,
    image_under,
    irreducible_closed_sets,
    is_proper,
    patch_topology,
    restriction_counts,
    specialization,
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

    Classes are ordered by ascending closure mask, which fixes the labelling
    of the quotient.  A space that is already T0 comes back unchanged with
    the identity as unit.
    """
    if classify(space).is_T0:
        return space, identity_map(space)
    order = specialization(space).leq
    reps: list[int] = []
    cls_of = [-1] * space.n
    classes: list[int] = []
    for x in range(space.n):
        for i, r in enumerate(reps):
            if order[x][r] and order[r][x]:
                cls_of[x] = i
                classes[i] |= 1 << x
                break
        else:
            cls_of[x] = len(reps)
            reps.append(x)
            classes.append(1 << x)
    ordering = sorted(range(len(reps)), key=lambda i: closure(space, classes[i]))
    rank = {old: new for new, old in enumerate(ordering)}
    arr = tuple(rank[cls_of[x]] for x in range(space.n))
    opens = {image_under(arr, o) for o in space.opens}
    quotient = FiniteSpace(len(reps), tuple(sorted(opens)))
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
    component quotient with the discrete topology.
    """
    order = specialization(space).leq
    comp = list(range(space.n))

    def find(a: int) -> int:
        while comp[a] != a:
            comp[a] = comp[comp[a]]
            a = comp[a]
        return a

    for x in range(space.n):
        for y in range(space.n):
            if order[x][y] or order[y][x]:
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
    in_class=None,
) -> ContinuousMap:
    """The unique map phi with phi . r = f, defined on the fibers of r.

    ``in_class`` is the membership predicate of the reflective class; when
    given, the codomain of ``f`` must satisfy it.
    """
    if f.dom != r.dom:
        raise HypothesisViolated("f and r must share their domain")
    if in_class is not None and not in_class(f.cod):
        raise HypothesisViolated("codomain is not in the reflective class")
    values: dict[int, int] = {}
    for x in range(f.dom.n):
        c = r(x)
        if c in values and values[c] != f(x):
            raise NotWellDefined(
                f"fiber over {c} carries both values {values[c]} and {f(x)}"
            )
        values[c] = f(x)
    if len(values) != r.cod.n:
        raise NotWellDefined("the quotient map is not surjective")
    arr = tuple(values[c] for c in range(r.cod.n))
    return ContinuousMap(r.cod, f.cod, arr)


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
            counts = restriction_counts(r, z)
            for f in enumerate_continuous_maps(x_space, z):
                n = counts.get(f.map, 0)
                if n != 1:
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
                if compose(counit, h).map == g.map and is_proper(h)
            ]
            if len(lifts) != 1:
                return failed(
                    "patch-couniversal",
                    f"{space!r}",
                    f"source {c!r}, g={g.map}: {len(lifts)} lifts",
                )
    return passed("patch-couniversal", f"{space!r}; {len(sources)} sources")
