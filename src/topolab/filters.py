"""The three filter-space constructions: ultrafilters, prime open filters,
and prime closed filters, together with their units, multiplications, and
the comparison maps out of the ultrafilter space.

Every filter on a finite lattice is principal, so a filter point is its
generator g: its filter is the up-set of g in the ambient lattice, and a
member m of the ambient lies in it exactly when ``m & g == g``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import and_, or_
from typing import Sequence

from .errors import BoundExceeded, FilterNotWellFormed, InvalidInput
from .spaces import FiniteSpace, ContinuousMap, _union_prime, build_space, image_under

ULTRA = "ultra"
OPEN_PRIME = "open-prime"
CLOSED_PRIME = "closed-prime"
KINDS = (ULTRA, OPEN_PRIME, CLOSED_PRIME)
LABELS = {ULTRA: "U", OPEN_PRIME: "S", CLOSED_PRIME: "P"}  # the paper's names of the monads
ULTRA_MAX_POINTS = 16  # the U ambient lists all 2^n subsets of the base


@dataclass(frozen=True)
class LiftedSpace:
    """A filter space over a base space, with the generators of its points
    kept alongside: point i is the filter generated by ``generators[i]``.

    Every structure map (F f, unit, mult, alpha) reads its array through
    ``points_above``, which finds the point generated by the least ambient
    member above a subset of the base: the meet of the members that contain
    it, exact because each ambient is closed under intersection.  Each
    answer is kept in ``_above``, so a subset is looked up once and subsets
    nobody asks about are never looked up.
    """

    base: FiniteSpace
    kind: str
    generators: tuple[int, ...]
    space: FiniteSpace
    _above: dict[int, int] = field(default_factory=dict, init=False, repr=False, compare=False)

    def points_above(self, masks: Sequence[int]) -> tuple[int, ...]:
        """For each subset in ``masks``, the index of the point generated by
        the least ambient member above it; raises FilterNotWellFormed when
        there is no such point."""
        above = self._above
        for mask in masks:
            if mask not in above:
                ambient = ambient_lattice(self.kind, self.base)
                least = reduce(and_, (m for m in ambient if m & mask == mask), self.base.full)
                if least not in self.generators:
                    raise FilterNotWellFormed(f"no point with generator {least:#x}")
                above[mask] = self.generators.index(least)
        return tuple(map(above.__getitem__, masks))


def ambient_lattice(kind: str, space: FiniteSpace) -> tuple[int, ...]:
    """The lattice a filter of this kind lives in."""
    if kind == ULTRA:
        if space.n > ULTRA_MAX_POINTS:
            raise BoundExceeded(
                f"the ultrafilter lift is refused above {ULTRA_MAX_POINTS} points, got {space.n}"
            )
        return tuple(range(space.full + 1))
    if kind == OPEN_PRIME:
        return space.opens
    if kind == CLOSED_PRIME:
        return space.closeds
    raise InvalidInput(f"unknown filter kind {kind!r}")


def _is_prime(kind: str, g: int, ambient: tuple[int, ...], full: int) -> bool:
    """Whether the up-set of ``g`` in ``ambient`` is prime in the sense of ``kind``."""
    if kind == ULTRA:
        return all((m & g == g) != ((full ^ m) & g == g) for m in ambient)
    return _union_prime(g, ambient)


def check_filter_point(kind: str, generator: int, space: FiniteSpace) -> None:
    """Check what a generator can get wrong; raises FilterNotWellFormed.

    The up-set of a member of an ambient that holds the full set and is
    closed under intersection (the opens, the closeds, all subsets) is
    upward closed, closed under meets and generated by that member, so what
    is left is properness, membership of the ambient and primality.
    """
    ambient = ambient_lattice(kind, space)
    if generator == 0:
        raise FilterNotWellFormed("filter is not proper: contains the empty set")
    if generator not in ambient:
        raise FilterNotWellFormed("generator outside its ambient lattice")
    if not _is_prime(kind, generator, ambient, space.full):
        raise FilterNotWellFormed(f"filter is not {kind}-prime")


@lru_cache(maxsize=None)
def lift_space(kind: str, space: FiniteSpace) -> LiftedSpace:
    """Enumerate the filter points of the given kind and topologise them.

    Points come in ascending generator order.  Every nonzero member of the
    ambient lattice is a candidate generator (proper filters only), and the
    primality of its up-set is tested; nothing about which generators
    survive is assumed up front.
    """
    ambient = ambient_lattice(kind, space)
    kept = []
    for gen in sorted(ambient):
        if gen and _is_prime(kind, gen, ambient, space.full):
            kept.append(gen)
    gens = tuple(kept)

    if kind in (ULTRA, OPEN_PRIME):
        opens = [_member_mask(gens, o) for o in space.opens]
    else:
        # closed sets of the lifted space are generated; opens are complements
        full_pts = (1 << len(gens)) - 1
        opens = [full_pts ^ _member_mask(gens, h) for h in space.closeds]
    lifted = build_space(len(gens), opens)
    # a lift equal to its base is the base itself, so its maps can be shared
    return LiftedSpace(space, kind, gens, space if lifted == space else lifted)


def _member_mask(generators: tuple[int, ...], subset: int) -> int:
    """Mask of lifted points whose filter contains ``subset``."""
    m = 0
    for i, g in enumerate(generators):
        if subset & g == g:
            m |= 1 << i
    return m


def member_set(kind: str, space: FiniteSpace, subset: int) -> int:
    """The set of filter points containing ``subset``, as a mask on lift_space."""
    return _member_mask(lift_space(kind, space).generators, subset)


def lift_map(kind: str, f: ContinuousMap) -> ContinuousMap:
    """Functor action: push each filter forward along ``f``.

    The pushforward of the filter generated by g is {b : f^-1(b) contains g}
    = {b : b contains f(g)}, so it is generated by the least ambient member
    above the image of g.
    """
    dom_l = lift_space(kind, f.dom)
    cod_l = lift_space(kind, f.cod)
    arr = cod_l.points_above([image_under(f.map, g) for g in dom_l.generators])
    if dom_l.space is f.dom and cod_l.space is f.cod and arr == f.map:
        return f  # the lift equals f, which was validated when it was built
    return ContinuousMap(dom_l.space, cod_l.space, arr)


def unit(kind: str, space: FiniteSpace) -> ContinuousMap:
    """The point-to-filter map: all supersets / open or closed neighborhoods."""
    lifted = lift_space(kind, space)
    arr = lifted.points_above([1 << x for x in range(space.n)])
    return ContinuousMap(space, lifted.space, arr)


def mult(kind: str, space: FiniteSpace) -> ContinuousMap:
    """Flatten a filter of filters: keep the sets whose member-set it contains.

    The point of FFX generated by G flattens to {a : every p in G contains a}
    = {a : a contains the generator of every p in G}, so it is generated by
    the least ambient member above the union of those generators.
    """
    l1 = lift_space(kind, space)
    l2 = lift_space(kind, l1.space)
    unions = [
        reduce(or_, (g for i, g in enumerate(l1.generators) if big >> i & 1), 0)
        for big in l2.generators
    ]
    return ContinuousMap(l2.space, l1.space, l1.points_above(unions))


def alpha(target_kind: str, space: FiniteSpace) -> ContinuousMap:
    """Restrict an ultrafilter to the open or to the closed part of its ambient.

    The ultrafilter generated by g restricts to the members of the target
    ambient that contain g, so it goes to the point generated by the least
    of them.
    """
    if target_kind not in (OPEN_PRIME, CLOSED_PRIME):
        raise InvalidInput("alpha targets the open-prime or closed-prime space")
    src = lift_space(ULTRA, space)
    dst = lift_space(target_kind, space)
    arr = dst.points_above(src.generators)
    return ContinuousMap(src.space, dst.space, arr)
