"""Finite topological spaces, continuous maps, and the point-set predicates.

Points of an ``n``-point space are the indices ``0 .. n-1``; subsets are
machine-word bitmasks, so set algebra is ``&``, ``|`` and ``^`` on ints.
A topology is stored as the strictly ascending tuple of its open masks,
which makes equality of spaces structural.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import groupby, product
from operator import and_, attrgetter, itemgetter
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import BoundExceeded, InvalidInput, NotOpen

M = TypeVar("M")  # a map kind with ``dom``, ``cod`` and ``map``

# A map between spaces of at most this many points has a one-byte code: n^n <= 256.
BYTE_POINTS = 4

# One shared tuple per distinct map array (hash-consing): every map that
# passes validation keeps the copy stored here, so the arrays of a corpus and
# of its lifts cost one tuple per distinct value.  Holds arrays only.
_ARRAYS: dict[tuple[int, ...], tuple[int, ...]] = {}


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
    while mask:  # one step per member, lowest first
        low = mask & -mask
        m |= 1 << arr[low.bit_length() - 1]
        mask ^= low
    return m


@dataclass(frozen=True, slots=True)
class FiniteSpace:
    """A topology on the points ``0 .. n-1``, opens as ascending bitmasks.

    The open-set membership set, the minimal neighbourhoods, the hash and
    two getters over the order pairs are computed once at construction; none
    of them takes part in equality.  The order pairs are the (x, y) with
    y in U_x, the diagonal (x, x) included; ``_order_lo`` gathers their x
    and ``_order_hi`` their y from any array indexed by the points.
    """

    n: int
    opens: tuple[int, ...]
    _open_set: frozenset[int] = field(init=False, repr=False, compare=False)
    hoods: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)
    _order_lo: itemgetter = field(init=False, repr=False, compare=False)
    _order_hi: itemgetter = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidInput("spaces must have at least one point")
        full = (1 << self.n) - 1
        if list(self.opens) != sorted(set(self.opens)):
            raise InvalidInput("opens must be strictly ascending and duplicate-free")
        if 0 not in self.opens or full not in self.opens:
            raise InvalidInput("opens must contain the empty and the full set")
        for a in self.opens:
            if a & ~full:
                raise InvalidInput(f"open {a:#x} mentions points outside the space")
        # U_x, the intersection of the opens containing x; a family with the
        # empty and the full set is closed under union and intersection
        # exactly when it is the unions of these (Stong 1966).  Each open is
        # the union of the U_x of its points, so that equality holds exactly
        # when o | U_x is open for every open o and every x: n * |opens|
        # lookups, never an enumeration of the unions of U_x.
        hoods = tuple(
            reduce(and_, (o for o in self.opens if o >> x & 1)) for x in range(self.n)
        )
        family = frozenset(self.opens)
        if any(o | h not in family for h in set(hoods) for o in self.opens):
            raise InvalidInput("opens are not closed under union/intersection")
        object.__setattr__(self, "_open_set", family)
        object.__setattr__(self, "hoods", hoods)
        object.__setattr__(self, "_hash", hash((self.n, self.opens)))
        pairs = [(x, y) for x in range(self.n) for y in range(self.n) if hoods[x] >> y & 1]
        # itemgetter returns a bare item for one index, so the one pair of a
        # 1-point space, (0, 0), is padded to two; a larger space has n >= 2
        if len(pairs) == 1:
            pairs *= 2
        lo, hi = zip(*pairs)
        object.__setattr__(self, "_order_lo", itemgetter(*lo))
        object.__setattr__(self, "_order_hi", itemgetter(*hi))

    def __eq__(self, other: object) -> bool:
        # corpus spaces are cached objects, so identity settles most calls
        if self is other:
            return True
        if not isinstance(other, FiniteSpace):
            return NotImplemented
        return self.n == other.n and self.opens == other.opens

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


@lru_cache(maxsize=None)
def _order_relation(hoods: tuple[int, ...]) -> frozenset[tuple[int, int]]:
    """The specialization order read from the minimal neighbourhoods: the
    pairs (x, y) with y in U_x, the diagonal included.  One entry per
    distinct ``hoods`` tuple, shared by every space that has it."""
    return frozenset((x, y) for x, h in enumerate(hoods) for y in range(len(hoods)) if h >> y & 1)


@dataclass(frozen=True, slots=True)
class ContinuousMap:
    """A function between finite spaces with the open-preimage property.

    On finite spaces continuous is the same as monotone for the
    specialization preorder (Stong 1966): y in U_x forces f(y) in U_f(x).
    The constructor tests that on every order pair of the domain with one
    subset test of the image pairs against the order of the codomain, so no
    interpreter loop runs per pair.  The order pairs hold the diagonal, and
    the order of the codomain holds only pairs of its points, so the same
    test rejects a value out of range; the failure branch tells the two
    apart.  Once the array passes, ``map`` holds the shared tuple of its
    value.
    """

    dom: FiniteSpace
    cod: FiniteSpace
    map: tuple[int, ...]

    def __post_init__(self) -> None:
        arr = self.map
        dom = self.dom
        if len(arr) != dom.n:
            raise InvalidInput("map length must equal the number of domain points")
        # (f(x), f(y)) in the order of the codomain, for every order pair
        # (x, y) of the domain; on the diagonal, f(x) is a point of the codomain
        if not _order_relation(self.cod.hoods).issuperset(
            zip(dom._order_lo(arr), dom._order_hi(arr))
        ):
            if min(arr) < 0 or max(arr) >= self.cod.n:
                raise InvalidInput("map value out of codomain range")
            # a broken pair (x, y) puts x but not y in the preimage of
            # U_f(x), which is then not open: some hood is always found
            bad = next(h for h in self.cod.hoods if not dom.is_open(self.preimage(h)))
            raise InvalidInput(f"not continuous: preimage of {mask_to_points(bad)} is not open")
        object.__setattr__(self, "map", _ARRAYS.setdefault(arr, arr))

    def __hash__(self) -> int:
        # equal spaces have equal _hash, so this agrees with __eq__
        return hash((self.dom._hash, self.cod._hash, self.map))

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


def identity_map(space: FiniteSpace) -> ContinuousMap:
    return ContinuousMap(space, space, tuple(range(space.n)))


def compose(g: ContinuousMap, f: ContinuousMap) -> ContinuousMap:
    """g after f."""
    if f.cod != g.dom:
        raise InvalidInput("composition mismatch: cod of f differs from dom of g")
    return ContinuousMap(f.dom, g.cod, tuple(g.map[v] for v in f.map))


def composes_to(g: M, f: M, h: M) -> bool:
    """Is ``h`` the map ``g`` after ``f``?  Builds nothing.

    For any map kind with ``dom``, ``cod`` and ``map``: ``h`` must have the
    domain of ``f``, the codomain of ``g`` and the array of the composite.
    Raises, as :func:`compose` does, when ``f.cod`` differs from ``g.dom``.
    """
    if f.cod != g.dom:
        raise InvalidInput("composition mismatch: cod of f differs from dom of g")
    return h.dom == f.dom and h.cod == g.cod and h.map == tuple(g.map[v] for v in f.map)


def commutes(g: M, f: M, k: M, h: M) -> bool:
    """Is ``g`` after ``f`` the map ``k`` after ``h``?  Builds nothing.

    Both composites must have the same domain, codomain and array.  Raises,
    as :func:`compose` does, when either pair is not composable.
    """
    # ends compared as tuples: an identical pair of spaces settles in C
    if (f.cod, h.cod) != (g.dom, k.dom):
        raise InvalidInput("composition mismatch: cod of f differs from dom of g")
    return (f.dom, g.cod) == (h.dom, k.cod) and _gather(f.map)(g.map) == _gather(h.map)(k.map)


def _gather(arr: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """The function ``s -> tuple(s[v] for v in arr)``, as one C-level call."""
    if len(arr) == 1:
        # itemgetter of a single index returns the item, not a 1-tuple
        (v,) = arr
        return lambda s: (s[v],)
    return itemgetter(*arr)


def _code(arr: Sequence[int], base: int) -> int:
    """The code of a map array into a ``base``-point space: sum of arr[x]·base^x."""
    c = 0
    for v in reversed(arr):
        c = c * base + v
    return c


@lru_cache(maxsize=None)
def _precomposers(arr: tuple[int, ...], ny: int) -> tuple[bytes | None, ...]:
    """Translate tables for composing after the array ``arr`` of f: X -> Y.

    Entry ``nz`` (1..BYTE_POINTS) maps the code of each g: Y -> Z, |Y| = ny,
    |Z| = nz, to the code of g after f.
    """
    tables: list[bytes | None] = [None]
    for nz in range(1, BYTE_POINTS + 1):
        weights = [nz**x for x in range(len(arr))]
        tables.append(
            bytes(
                sum(g[v] * w for v, w in zip(arr, weights))
                for g in (t[::-1] for t in product(range(nz), repeat=ny))
            ).ljust(256, b"\0")
        )
    return tuple(tables)


def composition_breaks(
    spaces: tuple[FiniteSpace, ...],
    lifted: Sequence[M],
    contravariant: bool = False,
) -> Iterator[tuple[int, int]]:
    """Positions ``(i, j)`` of the pairs ``f = maps[i]``, ``g = maps[j]`` with
    ``f.cod == g.dom`` at which a lift breaks composition, f-major, where
    ``maps`` is :func:`maps_between` of ``spaces``: the full subcategory on
    these distinct spaces, so every composite is listed exactly once.

    ``lifted[k]`` is the lift of ``maps[k]``.  A covariant lift must send g
    after f to ``lifted[j]`` after ``lifted[i]``, a contravariant one to
    ``lifted[i]`` after ``lifted[j]``.  The caller has checked once per map
    that every lifted map has the lifted domain and codomain.

    Decided a hom block at a time.  A map between spaces of at most
    ``BYTE_POINTS`` points is the byte ``code(f) = sum f(x)·|Y|^x``.  Each
    lifted map is a row of bytes: its code when covariant, its array when
    contravariant.  For a fixed f: X -> Y and the block of every g: Y -> Z:
    - one ``bytes.translate`` of the block's codes gives the code of every
      g after f;
    - per-(X, Z) column tables give, column by column, the lifted row of
      the map with each code;
    - one translate of the block's lifted rows, stored column by column, by
      the table of ``lifted[i]`` gives every composite of the lifts.
    A block whose two sides agree holds; in any other, each g whose rows
    differ breaks.  The blocks of g arrive in corpus order.
    """
    maps = maps_between(spaces)
    if len(lifted) != len(maps):
        raise InvalidInput(f"{len(lifted)} lifts for the {len(maps)} maps between the spaces")
    ids = {s: k for k, s in enumerate(spaces)}
    ends = [(ids[m.dom], ids[m.cod]) for m in maps]
    size = [s.n for s in spaces]
    lsize = size[:]  # the sizes of the lifted spaces, read when covariant
    if not contravariant:
        for (d, c), h in zip(ends, lifted):
            lsize[d], lsize[c] = h.dom.n, h.cod.n
    if max(size + lsize, default=0) > BYTE_POINTS:
        raise BoundExceeded(f"map pair scans run on spaces of at most {BYTE_POINTS} points")
    if contravariant:
        rows = [bytes(h.map) for h in lifted]
    else:
        rows = [bytes((_code(h.map, lsize[c]),)) for h, (_, c) in zip(lifted, ends)]
    codes = [_code(m.map, size[c]) for m, (_, c) in zip(maps, ends)]
    # per hom block (D, C), whose maps are listed together: one table per
    # column of the lifted rows, indexed by code, then the sizes of C and of
    # its lift, the block's positions, its codes and its lifted rows, column
    # by column
    homs: dict[int, dict[int, tuple]] = {}
    for (d, c), block in groupby(range(len(maps)), ends.__getitem__):
        ks = list(block)
        columns = [bytearray(256) for _ in rows[ks[0]]]
        for k in ks:
            for column, v in zip(columns, rows[k]):
                column[codes[k]] = v
        # a covariant row is one code, so its one column is translated directly
        homs.setdefault(d, {})[c] = (
            tuple(map(bytes, columns)) if contravariant else bytes(columns[0]),
            size[c], lsize[c], ks, bytes(map(codes.__getitem__, ks)),
            b"".join(map(bytes, zip(*map(rows.__getitem__, ks)))),
        )
    for i, (x, y) in enumerate(ends):
        pre = _precomposers(maps[i].map, size[y])
        if contravariant:  # the array of lifted[i] as a table, whatever Z is
            after: Sequence[bytes | None] = (rows[i].ljust(256, b"\0"),) * (BYTE_POINTS + 1)
        else:
            after = _precomposers(lifted[i].map, lsize[y])
        to_x = homs[x]
        for z, (_, nz, lz, ks, gcodes, operand) in homs[y].items():
            composite = gcodes.translate(pre[nz])
            tables = to_x[z][0]
            if contravariant:
                left = b"".join(map(composite.translate, tables))
            else:
                left = composite.translate(tables)
            right = operand.translate(after[lz])
            if left != right:
                step = len(ks)
                for p, j in enumerate(ks):
                    if left[p::step] != right[p::step]:
                        yield i, j


def _unions(masks: Iterable[int]) -> frozenset[int]:
    """Every union of some of the ``masks``, the empty union 0 included."""
    out = {0}
    for m in masks:
        out |= {u | m for u in out}
    return frozenset(out)


def build_space(n: int, generators: Sequence[Iterable[int]] = ()) -> FiniteSpace:
    """Smallest topology on ``n`` points containing every generator set: the
    unions of the U_x, each the intersection of the generators containing x."""
    if n < 1:
        raise InvalidInput("spaces must have at least one point")
    full = (1 << n) - 1
    masks = [g if isinstance(g, int) else mask_of(g, n) for g in generators]
    for g in masks:
        if g & ~full:
            raise InvalidInput(f"generator {g:#x} mentions points outside the space")
    hoods = [reduce(and_, (g for g in masks if g >> x & 1), full) for x in range(n)]
    return FiniteSpace(n, tuple(sorted(_unions(hoods))))


def closure(space: FiniteSpace, mask: int) -> int:
    """Smallest closed set containing ``mask``: the points whose U_x meets it."""
    return sum(1 << x for x, h in enumerate(space.hoods) if h & mask)


def saturation(space: FiniteSpace, mask: int) -> int:
    """Intersection of all opens containing ``mask``: the union of its U_x."""
    s = 0
    for x in mask_to_points(mask):
        s |= space.hoods[x]
    return s


def way_below_open(space: FiniteSpace, smaller: int, larger: int) -> bool:
    """Every open cover of ``larger`` has a finite subfamily covering ``smaller``.

    A cover of a finite space is finite, so it is its own finite subfamily,
    and it covers ``smaller`` exactly when its union does.  The union of a
    family of opens is open, and every open is the union of the cover made
    of itself, so the cover unions are ``space.opens`` and the quantifier
    scans them.  The subset shortcut lives in :func:`way_below_via_subset`
    and the equivalence of the two is itself a corpus check.
    """
    _require_open(space, smaller)
    _require_open(space, larger)
    for union in space.opens:
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
    return {(o, u): way_below_open(space, o, u) for o in space.opens for u in space.opens}


def subset_is_compact(space: FiniteSpace, mask: int) -> bool:
    """Every open cover of ``mask`` admits a finite subcover.

    A cover of ``mask`` is read through its union ``u``, an open containing
    ``mask``.  Each point x of ``mask`` lies in a member of the cover, and
    that member, being open, contains U_x; one such member per point is a
    finite subcover.  The scan checks the premise this rests on: the union
    of the U_x of ``mask``, its saturation, lies inside ``u``.  On a
    validated space U_x is the intersection of the opens containing x, so
    the check always holds and every subset is compact; it fails only where
    ``hoods`` and ``opens`` disagree.  O(|opens|) per mask.
    """
    covered = saturation(space, mask)
    return all(covered & ~u == 0 for u in space.opens if mask & ~u == 0)


@lru_cache(maxsize=None)
def compact_saturated_sets(space: FiniteSpace) -> tuple[int, ...]:
    """The compact saturated sets, ascending; decided once per space.

    Saturated means an intersection of opens; the opens of a finite space
    are closed under all intersections, so the saturated sets are the opens.
    """
    return tuple(o for o in space.opens if subset_is_compact(space, o))


@lru_cache(maxsize=None)
def _compact_masks(space: FiniteSpace) -> frozenset[int]:
    """Every subset of ``space`` that :func:`subset_is_compact` accepts,
    each decided once per space."""
    return frozenset(m for m in range(space.full + 1) if subset_is_compact(space, m))


def patch_topology(space: FiniteSpace) -> FiniteSpace:
    """Join of the topology with the complements of compact saturated sets."""
    gens = list(space.opens)
    gens.extend(space.full ^ k for k in compact_saturated_sets(space))
    return build_space(space.n, gens)


def is_proper(f: ContinuousMap) -> bool:
    """Preimages of compact saturated sets are compact, read from the
    per-space memos of both quantifiers."""
    compact = _compact_masks(f.dom)
    return all(f.preimage(k) in compact for k in compact_saturated_sets(f.cod))


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
    t0 = all(
        any((o >> x & 1) != (o >> y & 1) for o in space.opens)
        for x in range(space.n)
        for y in range(x + 1, space.n)
    )

    irr = irreducible_closed_sets(space)
    point_closures = {closure(space, 1 << x) for x in range(space.n)}
    weakly_sober = all(g in point_closures for g in irr)
    sober = weakly_sober and all(
        sum(1 for x in range(space.n) if closure(space, 1 << x) == g) == 1 for g in irr
    )

    wb = _way_below_matrix(space)
    below = [(o, u) for o in space.opens for u in space.opens if wb[(o, u)]]
    stable = wb[(space.full, space.full)] and all(
        wb[(o & w, u & v)] for o, u in below for w, v in below
    )

    locally_compact = all(
        any(
            saturation(space, 1 << x) & ~_interior_of(space, k) == 0
            and k & ~o == 0
            and subset_is_compact(space, k)
            # a witness holds U_x and lies inside o, so U_x <= k <= o as numbers
            for k in range(space.hoods[x], o + 1)
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
    """Largest open inside ``mask``: the union of the U_x inside it."""
    m = 0
    for h in space.hoods:
        if h & ~mask == 0:
            m |= h
    return m


@lru_cache(maxsize=None)
def enumerate_continuous_maps(dom: FiniteSpace, cod: FiniteSpace) -> tuple[ContinuousMap, ...]:
    """All continuous maps dom -> cod, in lexicographic order of the map array.

    Continuous means monotone for the specialization preorder (Stong 1966):
    x <= y, that is y in U_x, forces f(y) in U_f(x).  Points are assigned in
    order, a level at a time: each partial array, in lexicographic order, is
    extended by the values compatible with the points already assigned, in
    ascending order, so no array is built only to be rejected and no call
    is made per partial array.
    """
    hoods, full = cod.hoods, cod.full
    below = [closure(cod, 1 << w) for w in range(cod.n)]  # the v with w in U_v
    arrays: list[tuple[int, ...]] = [()]
    for i in range(dom.n):
        # the earlier points j < i with j <= i, and those with i <= j
        under = [j for j in range(i) if dom.hoods[j] >> i & 1]
        over = [j for j in range(i) if dom.hoods[i] >> j & 1]
        grown = []
        for head in arrays:
            allowed = full
            for j in under:
                allowed &= hoods[head[j]]
            for j in over:
                allowed &= below[head[j]]
            while allowed:
                low = allowed & -allowed
                grown.append(head + (low.bit_length() - 1,))
                allowed ^= low
        arrays = grown
    return tuple(ContinuousMap(dom, cod, arr) for arr in arrays)


@lru_cache(maxsize=None)
def maps_between(spaces: tuple[FiniteSpace, ...]) -> tuple[ContinuousMap, ...]:
    """Every continuous map between the ``spaces``, hom block by hom block:
    domain-major, then codomain, each block in enumeration order."""
    out: list[ContinuousMap] = []
    for a in spaces:
        for b in spaces:
            out.extend(enumerate_continuous_maps(a, b))
    return tuple(out)


def restriction_counts(
    pre: ContinuousMap,
    cod: FiniteSpace,
    keep: Callable[[ContinuousMap], bool] | None = None,
) -> dict[tuple[int, ...], int]:
    """How many continuous phi: pre.cod -> cod restrict along ``pre`` to each map.

    Every phi is enumerated once and tallied under the map array of
    ``phi . pre``; ``keep``, when given, admits only the phi it accepts.  A
    map f: pre.dom -> cod has ``counts.get(f.map, 0)`` mediators.  The
    restriction and the tally run at C level: one gather per array.
    """
    phis: Iterable[ContinuousMap] = enumerate_continuous_maps(pre.cod, cod)
    if keep is not None:
        phis = filter(keep, phis)
    return Counter(map(_gather(pre.map), map(attrgetter("map"), phis)))


def mediator_breaks(
    pre: ContinuousMap,
    cod: FiniteSpace,
    keep: Callable[[ContinuousMap], bool] | None = None,
) -> Iterator[tuple[ContinuousMap, int]]:
    """``(f, n)`` for each continuous f: pre.dom -> cod with n != 1 mediators
    (the phi of :func:`restriction_counts`), in enumeration order."""
    counts = restriction_counts(pre, cod, keep)
    for f in enumerate_continuous_maps(pre.dom, cod):
        n = counts.get(f.map, 0)
        if n != 1:
            yield f, n


def is_homeomorphism(f: ContinuousMap) -> bool:
    if f.dom.n != f.cod.n or not f.is_injective:
        return False
    return {f.image(o) for o in f.dom.opens} == set(f.cod.opens)


def find_homeomorphism(a: FiniteSpace, b: FiniteSpace) -> ContinuousMap | None:
    """First (lexicographic) homeomorphism a -> b, or None.

    Opens are the up-sets of the specialization preorder, so a bijection p
    is a homeomorphism exactly when y in U_x iff p(y) in U_p(x).  Points are
    matched in order, each to the least unused point with a neighbourhood
    of the same size that keeps this with the points matched before it:
    permutations are visited in lexicographic order, and a branch that
    breaks the preorder is cut at once.
    """
    if a.n != b.n or len(a.opens) != len(b.opens):
        return None
    if sorted(o.bit_count() for o in a.opens) != sorted(o.bit_count() for o in b.opens):
        return None
    n = a.n
    perm = [0] * n

    def place(i: int, used: int) -> bool:
        if i == n:
            return True
        for v in range(n):
            if used >> v & 1 or a.hoods[i].bit_count() != b.hoods[v].bit_count():
                continue
            if all(
                (a.hoods[i] >> j & 1) == (b.hoods[v] >> perm[j] & 1)
                and (a.hoods[j] >> i & 1) == (b.hoods[perm[j]] >> v & 1)
                for j in range(i)
            ):
                perm[i] = v
                if place(i + 1, used | 1 << v):
                    return True
        return False

    return ContinuousMap(a, b, tuple(perm)) if place(0, 0) else None


def inverse_map(f: ContinuousMap) -> ContinuousMap:
    """Inverse of a homeomorphism; rejects anything weaker."""
    if not is_homeomorphism(f):
        raise InvalidInput("only homeomorphisms can be inverted")
    arr = [0] * f.cod.n
    for x, v in enumerate(f.map):
        arr[v] = x
    return ContinuousMap(f.cod, f.dom, tuple(arr))
