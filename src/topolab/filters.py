"""The three filter-space constructions: ultrafilters, prime open filters,
and prime closed filters, together with their units, multiplications, and
the comparison maps out of the ultrafilter space.

A filter point is stored redundantly as its element family *and* its
principal generator (every filter on a finite lattice is principal); the
redundancy is asserted at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import FilterNotWellFormed, InvalidInput
from .spaces import FiniteSpace, ContinuousMap, build_space, closure, minimal_neighborhood

ULTRA = "ultra"
OPEN_PRIME = "open-prime"
CLOSED_PRIME = "closed-prime"
KINDS = (ULTRA, OPEN_PRIME, CLOSED_PRIME)


@dataclass(frozen=True)
class FilterPoint:
    """A proper filter in the ambient lattice, prime in the sense of its kind."""

    kind: str
    elements: tuple[int, ...]
    generator: int


@dataclass(frozen=True)
class LiftedSpace:
    """A filter space over a base space, with its points kept alongside."""

    base: FiniteSpace
    kind: str
    points: tuple[FilterPoint, ...]
    space: FiniteSpace

    def index_of(self, generator: int) -> int:
        for i, p in enumerate(self.points):
            if p.generator == generator:
                return i
        raise FilterNotWellFormed(f"no point with generator {generator:#x}")


def ambient_lattice(kind: str, space: FiniteSpace) -> tuple[int, ...]:
    """The lattice a filter of this kind lives in."""
    if kind == ULTRA:
        return tuple(range(space.full + 1))
    if kind == OPEN_PRIME:
        return space.opens
    if kind == CLOSED_PRIME:
        return space.closeds
    raise InvalidInput(f"unknown filter kind {kind!r}")


def _principal_filter(kind: str, ambient: tuple[int, ...], generator: int) -> FilterPoint:
    elements = tuple(sorted(m for m in ambient if m & generator == generator))
    return FilterPoint(kind, elements, generator)


def _is_prime(kind: str, elements: frozenset[int], ambient: tuple[int, ...], full: int) -> bool:
    if kind == ULTRA:
        return all((m in elements) != (full ^ m in elements) for m in ambient)
    # union-splitting over the ambient (open or closed) lattice
    for a in ambient:
        for b in ambient:
            if a | b in elements and a not in elements and b not in elements:
                return False
    return True


def check_filter_point(point: FilterPoint, space: FiniteSpace) -> None:
    """Assert every structural invariant; raises FilterNotWellFormed."""
    ambient = ambient_lattice(point.kind, space)
    elems = frozenset(point.elements)
    if 0 in elems:
        raise FilterNotWellFormed("filter is not proper: contains the empty set")
    if space.full not in elems:
        raise FilterNotWellFormed("filter misses the full set")
    for m in elems:
        if m not in ambient:
            raise FilterNotWellFormed("filter element outside its ambient lattice")
        for a in ambient:
            if a & m == m and a not in elems:
                raise FilterNotWellFormed("filter is not upward closed")
    for a in elems:
        for b in elems:
            if a & b not in elems:
                raise FilterNotWellFormed("filter is not closed under intersection")
    gen = space.full
    for m in elems:
        gen &= m
    if gen != point.generator or gen not in elems:
        raise FilterNotWellFormed("stored generator disagrees with the element family")
    if tuple(sorted(m for m in ambient if m & gen == gen)) != point.elements:
        raise FilterNotWellFormed("elements are not the up-set of the generator")
    if not _is_prime(point.kind, elems, ambient, space.full):
        raise FilterNotWellFormed(f"filter is not {point.kind}-prime")


@lru_cache(maxsize=None)
def lift_space(kind: str, space: FiniteSpace) -> LiftedSpace:
    """Enumerate the filter points of the given kind and topologise them.

    Points come in ascending generator order.  Every candidate filter is
    enumerated from the ambient lattice and tested; nothing about which
    generators survive is assumed up front.
    """
    ambient = ambient_lattice(kind, space)
    points = []
    for gen in sorted(ambient):
        if gen == 0:
            continue  # proper filters only
        cand = _principal_filter(kind, ambient, gen)
        if _is_prime(kind, frozenset(cand.elements), ambient, space.full):
            check_filter_point(cand, space)
            points.append(cand)
    pts = tuple(points)

    if kind in (ULTRA, OPEN_PRIME):
        gens = [_member_mask(pts, o) for o in space.opens]
    else:
        # closed sets of the lifted space are generated; opens are complements
        full_pts = (1 << len(pts)) - 1
        gens = [full_pts ^ _member_mask(pts, h) for h in space.closeds]
    lifted = build_space(len(pts), gens)
    return LiftedSpace(space, kind, pts, lifted)


def _member_mask(points: tuple[FilterPoint, ...], subset: int) -> int:
    """Mask of lifted points whose filter contains ``subset``."""
    m = 0
    for i, p in enumerate(points):
        if subset & p.generator == p.generator:
            m |= 1 << i
    return m


def member_set(kind: str, space: FiniteSpace, subset: int) -> int:
    """The set of filter points containing ``subset``, as a mask on lift_space."""
    return _member_mask(lift_space(kind, space).points, subset)


def _principal_index(lifted: LiftedSpace, elements: tuple[int, ...], what: str) -> int:
    """Index of the lifted point whose filter is exactly ``elements``.

    The generator is the meet of the family; the point it names must carry
    the same family, or the construction produced a non-principal filter.
    """
    gen = lifted.base.full
    for m in elements:
        gen &= m
    idx = lifted.index_of(gen)
    if lifted.points[idx].elements != elements:
        raise FilterNotWellFormed(f"{what} is not principal-consistent")
    return idx


def lift_map(kind: str, f: ContinuousMap) -> ContinuousMap:
    """Functor action: push a filter forward along the preimage formula."""
    dom_l = lift_space(kind, f.dom)
    cod_l = lift_space(kind, f.cod)
    ambient_cod = ambient_lattice(kind, f.cod)
    arr = []
    for p in dom_l.points:
        elems = frozenset(p.elements)
        image_elems = tuple(sorted(b for b in ambient_cod if f.preimage(b) in elems))
        arr.append(_principal_index(cod_l, image_elems, "pushforward filter"))
    return ContinuousMap(dom_l.space, cod_l.space, tuple(arr))


def unit(kind: str, space: FiniteSpace) -> ContinuousMap:
    """The point-to-filter map: all supersets / open or closed neighborhoods."""
    lifted = lift_space(kind, space)
    arr = []
    for x in range(space.n):
        if kind == ULTRA:
            gen = 1 << x
        elif kind == OPEN_PRIME:
            gen = minimal_neighborhood(space, x)
        else:
            gen = closure(space, 1 << x)
        arr.append(lifted.index_of(gen))
    return ContinuousMap(space, lifted.space, tuple(arr))


def mult(kind: str, space: FiniteSpace) -> ContinuousMap:
    """Flatten a filter of filters: keep the sets whose member-set it contains."""
    l1 = lift_space(kind, space)
    l2 = lift_space(kind, l1.space)
    ambient = ambient_lattice(kind, space)
    arr = []
    for big in l2.points:
        big_elems = frozenset(big.elements)
        flat = tuple(sorted(a for a in ambient if _member_mask(l1.points, a) in big_elems))
        idx = _principal_index(l1, flat, "flattened filter")
        check_filter_point(l1.points[idx], space)
        arr.append(idx)
    return ContinuousMap(l2.space, l1.space, tuple(arr))


def alpha(target_kind: str, space: FiniteSpace) -> ContinuousMap:
    """Restrict an ultrafilter to the open or to the closed part of its ambient."""
    if target_kind not in (OPEN_PRIME, CLOSED_PRIME):
        raise InvalidInput("alpha targets the open-prime or closed-prime space")
    src = lift_space(ULTRA, space)
    dst = lift_space(target_kind, space)
    keep = set(ambient_lattice(target_kind, space))
    arr = []
    for p in src.points:
        restricted = tuple(sorted(m for m in p.elements if m in keep))
        arr.append(_principal_index(dst, restricted, "restricted filter"))
    return ContinuousMap(src.space, dst.space, tuple(arr))
