"""Finite topological spaces, continuous maps, and the point-set predicates.

Points of an ``n``-point space are the indices ``0 .. n-1``; subsets are
machine-word bitmasks, so set algebra is ``&``, ``|`` and ``^`` on ints.
A topology is stored as the strictly ascending tuple of its open masks,
which makes equality of spaces structural.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .errors import BoundExceeded, InvalidInput, NotOpen

# Enumerating all subfamilies of a topology is exponential in the number of
# opens; past this many opens the definitional routines refuse to run.
SUBFAMILY_ENUM_LIMIT = 18


def mask_of(points: Iterable[int], n: int) -> int:
    m = 0
    for p in points:
        if not 0 <= p < n:
            raise InvalidInput(f"point {p} out of range for an {n}-point space")
        m |= 1 << p
    return m


def mask_to_points(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def image_under(arr: Sequence[int], mask: int) -> int:
    """Image of the subset ``mask`` under the point map ``arr``."""
    m = 0
    for x, fx in enumerate(arr):
        if mask >> x & 1:
            m |= 1 << fx
    return m


@dataclass(frozen=True, slots=True)
class FiniteSpace:
    """A topology on the points ``0 .. n-1``, opens as ascending bitmasks.

    The open-set membership set and the hash are computed once at
    construction; neither takes part in equality.
    """

    n: int
    opens: tuple[int, ...]
    _open_set: frozenset[int] = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidInput("spaces must have at least one point")
        full = (1 << self.n) - 1
        if list(self.opens) != sorted(set(self.opens)):
            raise InvalidInput("opens must be strictly ascending and duplicate-free")
        if 0 not in self.opens or full not in self.opens:
            raise InvalidInput("opens must contain the empty and the full set")
        family = frozenset(self.opens)
        for a in self.opens:
            if a & ~full:
                raise InvalidInput(f"open {a:#x} mentions points outside the space")
            for b in self.opens:
                if a | b not in family or a & b not in family:
                    raise InvalidInput("opens are not closed under union/intersection")
        object.__setattr__(self, "_open_set", family)
        object.__setattr__(self, "_hash", hash((self.n, self.opens)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    @property
    def closeds(self) -> tuple[int, ...]:
        return tuple(sorted(self.full ^ o for o in self.opens))

    def is_open(self, mask: int) -> bool:
        return mask in self._open_set

    def __repr__(self) -> str:  # compact; opens as point lists
        body = ",".join("{" + ",".join(map(str, mask_to_points(o))) + "}" for o in self.opens)
        return f"Space({self.n}; {body})"


@dataclass(frozen=True, slots=True)
class ContinuousMap:
    """A function between finite spaces with the open-preimage property."""

    dom: FiniteSpace
    cod: FiniteSpace
    map: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.map) != self.dom.n:
            raise InvalidInput("map length must equal the number of domain points")
        if any(not 0 <= v < self.cod.n for v in self.map):
            raise InvalidInput("map value out of codomain range")
        for o in self.cod.opens:
            if not self.dom.is_open(self.preimage(o)):
                raise InvalidInput(
                    f"not continuous: preimage of {mask_to_points(o)} is not open"
                )

    def __call__(self, x: int) -> int:
        return self.map[x]

    def preimage(self, mask: int) -> int:
        m = 0
        for x, fx in enumerate(self.map):
            if mask >> fx & 1:
                m |= 1 << x
        return m

    def image(self, mask: int) -> int:
        return image_under(self.map, mask)

    @property
    def is_injective(self) -> bool:
        return len(set(self.map)) == self.dom.n

    @property
    def is_surjective(self) -> bool:
        return len(set(self.map)) == self.cod.n


@dataclass(frozen=True)
class PreorderMatrix:
    """Specialization preorder; ``leq[x][y]`` means x lies in the closure of {y}."""

    n: int
    leq: tuple[tuple[bool, ...], ...]

    @property
    def is_antisymmetric(self) -> bool:
        return all(
            not (self.leq[x][y] and self.leq[y][x])
            for x in range(self.n)
            for y in range(self.n)
            if x != y
        )


def identity_map(space: FiniteSpace) -> ContinuousMap:
    return ContinuousMap(space, space, tuple(range(space.n)))


def compose(g: ContinuousMap, f: ContinuousMap) -> ContinuousMap:
    """g after f."""
    if f.cod != g.dom:
        raise InvalidInput("composition mismatch: cod of f differs from dom of g")
    return ContinuousMap(f.dom, g.cod, tuple(g.map[v] for v in f.map))


def composable_pairs(
    maps: Sequence[ContinuousMap],
) -> Iterator[tuple[ContinuousMap, ContinuousMap, ContinuousMap]]:
    """Every ``(f, g, g after f)`` with ``f.cod == g.dom``, f-major in input order.

    When the composite is itself one of ``maps`` that (already validated)
    object is returned; otherwise it is built by :func:`compose`.
    """
    by_dom: dict[FiniteSpace, list[ContinuousMap]] = {}
    known: dict[tuple[FiniteSpace, FiniteSpace, tuple[int, ...]], ContinuousMap] = {}
    for m in maps:
        by_dom.setdefault(m.dom, []).append(m)
        known.setdefault((m.dom, m.cod, m.map), m)
    for f in maps:
        for g in by_dom.get(f.cod, ()):
            gf = known.get((f.dom, g.cod, tuple(g.map[v] for v in f.map)))
            yield f, g, gf if gf is not None else compose(g, f)


def build_space(n: int, generators: Sequence[Iterable[int]] = ()) -> FiniteSpace:
    """Smallest topology on ``n`` points containing every generator set."""
    if n < 1:
        raise InvalidInput("spaces must have at least one point")
    full = (1 << n) - 1
    family = {0, full}
    for g in generators:
        family.add(g if isinstance(g, int) else mask_of(g, n))
    while True:
        extra = set()
        for a in family:
            for b in family:
                if a | b not in family:
                    extra.add(a | b)
                if a & b not in family:
                    extra.add(a & b)
        if not extra:
            break
        family |= extra
    return FiniteSpace(n, tuple(sorted(family)))


def closure(space: FiniteSpace, mask: int) -> int:
    """Smallest closed set containing ``mask``."""
    c = space.full
    for o in space.opens:
        closed = space.full ^ o
        if closed & mask == mask:
            c &= closed
    return c


def saturation(space: FiniteSpace, mask: int) -> int:
    """Intersection of all opens containing ``mask``."""
    s = space.full
    for o in space.opens:
        if o & mask == mask:
            s &= o
    return s


def minimal_neighborhood(space: FiniteSpace, x: int) -> int:
    return saturation(space, 1 << x)


def specialization(space: FiniteSpace) -> PreorderMatrix:
    """x <= y iff every open containing x contains y (x in closure of {y})."""
    rows = []
    for x in range(space.n):
        row = []
        for y in range(space.n):
            row.append(all(not (o >> x & 1) or (o >> y & 1) for o in space.opens))
        rows.append(tuple(row))
    return PreorderMatrix(space.n, tuple(rows))


@lru_cache(maxsize=None)
def _subfamily_unions(space: FiniteSpace) -> tuple[int, ...]:
    """All unions realised by subfamilies of the topology, by full enumeration."""
    opens = space.opens
    k = len(opens)
    if k > SUBFAMILY_ENUM_LIMIT:
        raise BoundExceeded(f"{k} opens: subfamily enumeration refused")
    unions = [0] * (1 << k)
    for bits in range(1, 1 << k):
        low = (bits & -bits).bit_length() - 1
        unions[bits] = unions[bits & (bits - 1)] | opens[low]
    return tuple(sorted(set(unions)))


def way_below_open(space: FiniteSpace, smaller: int, larger: int) -> bool:
    """Every open cover of ``larger`` has a finite subfamily covering ``smaller``.

    Evaluated by enumerating every subfamily of the topology; a subfamily is
    finite, so it can cover ``smaller`` only through its own union.  The
    subset shortcut lives in :func:`way_below_via_subset` and the equivalence
    of the two is itself a corpus check.
    """
    _require_open(space, smaller)
    _require_open(space, larger)
    for union in _subfamily_unions(space):
        if larger & ~union == 0 and smaller & ~union != 0:
            return False
    return True


def way_below_via_subset(space: FiniteSpace, smaller: int, larger: int) -> bool:
    """Cheap equivalent of :func:`way_below_open` on finite spaces."""
    _require_open(space, smaller)
    _require_open(space, larger)
    return smaller & ~larger == 0


def _require_open(space: FiniteSpace, mask: int) -> None:
    if not space.is_open(mask):
        raise NotOpen(f"{mask_to_points(mask)} is not open in {space!r}")


def _way_below_matrix(space: FiniteSpace) -> dict[tuple[int, int], bool]:
    # Definitional route while the subfamily enumeration is affordable,
    # the (corpus-verified) subset shortcut beyond that.
    if len(space.opens) <= SUBFAMILY_ENUM_LIMIT:
        rel = way_below_open
    else:
        rel = way_below_via_subset
    return {(o, u): rel(space, o, u) for o in space.opens for u in space.opens}


def subset_is_compact(space: FiniteSpace, mask: int) -> bool:
    """Every open cover of ``mask`` admits a finite subcover.

    Any subfamily of a finite topology is itself finite, hence its own finite
    subcover; the scan keeps the cover-by-cover quantifier explicit instead
    of hard-coding the constant.
    """
    if len(space.opens) > SUBFAMILY_ENUM_LIMIT:
        return True
    return all(
        mask & ~union == 0  # the cover itself is the finite subcover
        for union in _subfamily_unions(space)
        if mask & ~union == 0
    )


def compact_saturated_sets(space: FiniteSpace) -> tuple[int, ...]:
    return tuple(
        m
        for m in range(space.full + 1)
        if saturation(space, m) == m and subset_is_compact(space, m)
    )


def patch_topology(space: FiniteSpace) -> FiniteSpace:
    """Join of the topology with the complements of compact saturated sets."""
    gens = list(space.opens)
    gens.extend(space.full ^ k for k in compact_saturated_sets(space))
    return build_space(space.n, gens)


def is_proper(f: ContinuousMap) -> bool:
    """Preimages of compact saturated sets are compact."""
    return all(
        subset_is_compact(f.dom, f.preimage(k)) for k in compact_saturated_sets(f.cod)
    )


@dataclass(frozen=True)
class SpaceProfile:
    """The classification record for one space."""

    is_T0: bool
    is_weakly_sober: bool
    is_sober: bool
    is_stable: bool
    is_locally_compact: bool
    is_salbany: bool
    is_stably_compact: bool
    is_hausdorff: bool
    irreducible_closed_sets: tuple[int, ...]


def irreducible_closed_sets(space: FiniteSpace) -> tuple[int, ...]:
    """Nonempty closed G such that G inside a union of two closeds is inside one."""
    closeds = space.closeds
    out = []
    for g in closeds:
        if g == 0:
            continue
        irreducible = True
        for f1 in closeds:
            for f2 in closeds:
                if g & ~(f1 | f2) == 0 and g & ~f1 != 0 and g & ~f2 != 0:
                    irreducible = False
                    break
            if not irreducible:
                break
        if irreducible:
            out.append(g)
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def classify(space: FiniteSpace) -> SpaceProfile:
    """Evaluate every point-set predicate by its definition."""
    order = specialization(space)
    t0 = order.is_antisymmetric

    irr = irreducible_closed_sets(space)
    point_closures = {closure(space, 1 << x) for x in range(space.n)}
    weakly_sober = all(g in point_closures for g in irr)
    sober = weakly_sober and all(
        sum(1 for x in range(space.n) if closure(space, 1 << x) == g) == 1 for g in irr
    )

    wb = _way_below_matrix(space)
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
            and subset_is_compact(space, k)
            for k in range(space.full + 1)
            if (k >> x & 1)
        )
        for x in range(space.n)
        for o in space.opens
        if o >> x & 1
    )

    hausdorff = all(
        any(
            (o1 >> x & 1) and (o2 >> y & 1) and o1 & o2 == 0
            for o1 in space.opens
            for o2 in space.opens
        )
        for x in range(space.n)
        for y in range(space.n)
        if x != y
    )

    salbany = locally_compact and stable and weakly_sober
    return SpaceProfile(
        is_T0=t0,
        is_weakly_sober=weakly_sober,
        is_sober=sober,
        is_stable=stable,
        is_locally_compact=locally_compact,
        is_salbany=salbany,
        is_stably_compact=t0 and salbany,
        is_hausdorff=hausdorff,
        irreducible_closed_sets=irr,
    )


def _interior_of(space: FiniteSpace, mask: int) -> int:
    m = 0
    for o in space.opens:
        if o & ~mask == 0:
            m |= o
    return m


@lru_cache(maxsize=None)
def enumerate_continuous_maps(dom: FiniteSpace, cod: FiniteSpace) -> tuple[ContinuousMap, ...]:
    """All continuous maps dom -> cod, in lexicographic order of the map array."""
    out = []
    for arr in itertools.product(range(cod.n), repeat=dom.n):
        if _is_continuous(dom, cod, arr):
            out.append(ContinuousMap(dom, cod, arr))
    return tuple(out)


def restriction_counts(
    pre: ContinuousMap,
    cod: FiniteSpace,
    keep: Callable[[ContinuousMap], bool] | None = None,
) -> dict[tuple[int, ...], int]:
    """How many continuous phi: pre.cod -> cod restrict along ``pre`` to each map.

    Every phi is enumerated once and tallied under the map array of
    ``phi . pre``; ``keep``, when given, admits only the phi it accepts.  A
    map f: pre.dom -> cod has ``counts.get(f.map, 0)`` mediators.
    """
    counts: dict[tuple[int, ...], int] = {}
    for phi in enumerate_continuous_maps(pre.cod, cod):
        if keep is None or keep(phi):
            key = tuple(phi.map[v] for v in pre.map)
            counts[key] = counts.get(key, 0) + 1
    return counts


def _is_continuous(dom: FiniteSpace, cod: FiniteSpace, arr: Sequence[int]) -> bool:
    opens = dom._open_set
    for o in cod.opens:
        pre = 0
        for x, fx in enumerate(arr):
            if o >> fx & 1:
                pre |= 1 << x
        if pre not in opens:
            return False
    return True


def is_homeomorphism(f: ContinuousMap) -> bool:
    if f.dom.n != f.cod.n or not f.is_injective:
        return False
    return {f.image(o) for o in f.dom.opens} == set(f.cod.opens)


def find_homeomorphism(a: FiniteSpace, b: FiniteSpace) -> ContinuousMap | None:
    """First (lexicographic) homeomorphism a -> b, or None."""
    if a.n != b.n or len(a.opens) != len(b.opens):
        return None
    if sorted(o.bit_count() for o in a.opens) != sorted(o.bit_count() for o in b.opens):
        return None
    opens_b = set(b.opens)
    for perm in itertools.permutations(range(b.n)):
        if {image_under(perm, o) for o in a.opens} == opens_b:
            return ContinuousMap(a, b, perm)
    return None


def inverse_map(f: ContinuousMap) -> ContinuousMap:
    """Inverse of a homeomorphism; rejects anything weaker."""
    if not is_homeomorphism(f):
        raise InvalidInput("only homeomorphisms can be inverted")
    arr = [0] * f.cod.n
    for x, v in enumerate(f.map):
        arr[v] = x
    return ContinuousMap(f.cod, f.dom, tuple(arr))
