"""Finite frames (bounded distributive lattices), the ideal comonad, the
regular coreflection, and the way-below machinery.

Frames are explicit operation tables validated at construction; element
count stays small enough that the O(k^3) distributivity scan is cheap.

Frame homomorphisms are read off points: the join-irreducible elements of a
frame form a finite space whose opens are their down-sets (Birkhoff), and
the homomorphisms L -> M are the preimage maps of the continuous maps from
the points of M to those of L.  Each one is still validated by ``FrameMap``.
The regular coreflection, way-below and stable continuity stay definitional.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter
from typing import Callable, Iterable

from .errors import BoundExceeded, CoreflectionMismatch, InvalidInput
from .reports import CheckReport, failed, passed
from .spaces import (
    ContinuousMap,
    FiniteSpace,
    _gather,
    commutes,
    composes_to,
    enumerate_continuous_maps,
)

LATTICE_ENUM_CAP = 10


@dataclass(frozen=True, slots=True)
class FiniteFrame:
    """A bounded distributive lattice with order, join and meet tables."""

    k: int
    leq: tuple[tuple[bool, ...], ...]
    join: tuple[tuple[int, ...], ...]
    meet: tuple[tuple[int, ...], ...]
    bottom: int
    top: int

    def join_of(self, items) -> int:
        out = self.bottom
        for a in items:
            out = self.join[out][a]
        return out

    def __repr__(self) -> str:
        bits = "".join(
            "1" if self.leq[i][j] else "0" for i in range(self.k) for j in range(self.k)
        )
        return f"Frame({self.k}; {bits})"


def frame_from_leq(k: int, leq_rows) -> FiniteFrame:
    """Derive the tables from an order matrix and validate all frame laws.

    The order is read as bitmasks: ``up[a]`` holds the c with a <= c and
    ``down[a]`` the c with c <= a.  Transitivity at (a, b) is ``up[b]``
    inside ``up[a]``; the least upper bound of a and b is the element whose
    up-set is ``up[a] & up[b]`` (and dually), which an order has at most once.
    """
    if k < 1:
        raise InvalidInput("frames need at least one element")
    leq = tuple(tuple(bool(v) for v in row) for row in leq_rows)
    if len(leq) != k or any(len(r) != k for r in leq):
        raise InvalidInput("order matrix has the wrong shape")
    up = [sum(1 << c for c in range(k) if row[c]) for row in leq]
    down = [sum(1 << c for c in range(k) if leq[c][a]) for a in range(k)]
    for a in range(k):
        if not up[a] >> a & 1:
            raise InvalidInput("order not reflexive")
        for b in range(k):
            if not leq[a][b]:
                continue
            if a != b and leq[b][a]:
                raise InvalidInput("order not antisymmetric")
            if up[b] & ~up[a]:
                raise InvalidInput("order not transitive")

    def table(masks: list[int], bound: str) -> tuple[tuple[int, ...], ...]:
        element = {m: c for c, m in enumerate(masks)}
        rows = []
        for a, ma in enumerate(masks):
            row = tuple(element.get(ma & mb) for mb in masks)
            if None in row:
                raise InvalidInput(f"no {bound} for ({a},{row.index(None)})")
            rows.append(row)
        return tuple(rows)

    join = table(up, "least upper bound")
    meet = table(down, "greatest lower bound")
    full = (1 << k) - 1
    bottoms = [a for a in range(k) if up[a] == full]
    tops = [a for a in range(k) if down[a] == full]
    if len(bottoms) != 1 or len(tops) != 1:
        raise InvalidInput("lattice is not bounded")
    # a ∧ (b ∨ c) = (a ∧ b) ∨ (a ∧ c), one row of c per (a, b) by two gathers
    after_join = [_gather(row) for row in join]
    after_meet = [_gather(row) for row in meet]
    for a in range(k):
        meet_a, gather_a = meet[a], after_meet[a]
        for b in range(k):
            if after_join[b](meet_a) != gather_a(join[meet_a[b]]):
                raise InvalidInput("lattice is not distributive")
    return FiniteFrame(k, leq, join, meet, bottoms[0], tops[0])


@dataclass(frozen=True, slots=True)
class FrameMap:
    """A map preserving finite meets, all joins, bottom and top."""

    dom: FiniteFrame
    cod: FiniteFrame
    map: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.map) != self.dom.k:
            raise InvalidInput("frame map has the wrong length")
        f = self.map
        if min(f) < 0 or max(f) >= self.cod.k:
            raise InvalidInput("frame map value out of codomain range")
        if f[self.dom.bottom] != self.cod.bottom or f[self.dom.top] != self.cod.top:
            raise InvalidInput("frame map does not preserve the bounds")
        for a in range(self.dom.k):
            for b in range(self.dom.k):
                if f[self.dom.join[a][b]] != self.cod.join[f[a]][f[b]]:
                    raise InvalidInput("frame map does not preserve joins")
                if f[self.dom.meet[a][b]] != self.cod.meet[f[a]][f[b]]:
                    raise InvalidInput("frame map does not preserve meets")

    def __call__(self, a: int) -> int:
        return self.map[a]

    @property
    def is_injective(self) -> bool:
        return len(set(self.map)) == self.dom.k


def compose_frame_maps(g: FrameMap, f: FrameMap) -> FrameMap:
    if f.cod != g.dom:
        raise InvalidInput("frame map composition mismatch")
    return FrameMap(f.dom, g.cod, tuple(g.map[v] for v in f.map))


def chain_frame(k: int) -> FiniteFrame:
    return frame_from_leq(k, [[a <= b for b in range(k)] for a in range(k)])


@lru_cache(maxsize=None)
def opens_frame(space: FiniteSpace) -> FiniteFrame:
    """The lattice of opens ordered by inclusion."""
    opens = space.opens
    return frame_from_leq(
        len(opens), [[a & ~b == 0 for b in opens] for a in opens]
    )


def opens_frame_map(f: ContinuousMap) -> FrameMap:
    """Contravariant action on opens: an open of the codomain pulls back."""
    dom_frame = opens_frame(f.cod)
    cod_frame = opens_frame(f.dom)
    index = {o: i for i, o in enumerate(f.dom.opens)}
    return FrameMap(
        dom_frame, cod_frame, tuple(index[f.preimage(o)] for o in f.cod.opens)
    )


def _sub_pseudocomplement(frame: FiniteFrame, members: int, a: int) -> int:
    """Join of the ``members`` meeting ``a`` in bottom, by a full scan."""
    return frame.join_of(
        x
        for x in range(frame.k)
        if members >> x & 1 and frame.meet[x][a] == frame.bottom
    )


def _sub_rather_below(frame: FiniteFrame, members: int, a: int, b: int) -> bool:
    return frame.join[b][_sub_pseudocomplement(frame, members, a)] == frame.top


def _approximated_members(frame: FiniteFrame, members: int) -> int:
    """The members that are the join of the members rather below them,
    relative to ``members``: c is rather below a when a joins the
    pseudocomplement of c to top.  Each pseudocomplement is computed once."""
    elems = [a for a in range(frame.k) if members >> a & 1]
    complements = [(c, _sub_pseudocomplement(frame, members, c)) for c in elems]
    join, top = frame.join, frame.top
    out = 0
    for a in elems:
        row = join[a]
        if a == frame.join_of(c for c, p in complements if row[p] == top):
            out |= 1 << a
    return out


def _subset_regular(frame: FiniteFrame, members: int) -> bool:
    # regularity of a candidate, with pseudocomplements relativised to it
    return _approximated_members(frame, members) == members


def is_regular(frame: FiniteFrame) -> bool:
    return _subset_regular(frame, (1 << frame.k) - 1)


# ---------------------------------------------------------------------------
# regular coreflection


def subframes(frame: FiniteFrame) -> tuple[int, ...]:
    """All subsets containing the bounds and closed under join and meet."""
    if frame.k > LATTICE_ENUM_CAP:
        raise BoundExceeded(f"subframe enumeration refused for k={frame.k}")
    base = 1 << frame.bottom | 1 << frame.top
    join, meet = frame.join, frame.meet
    out = []
    for members in range(1 << frame.k):
        if members & base != base:
            continue
        elems = [a for a in range(frame.k) if members >> a & 1]
        if all(
            members >> join[a][b] & 1 and members >> meet[a][b] & 1
            for a in elems
            for b in elems
        ):
            out.append(members)
    return tuple(out)


def _largest_regular_by_enumeration(frame: FiniteFrame) -> int:
    regular = [s for s in subframes(frame) if _subset_regular(frame, s)]
    best = max(regular, key=lambda s: s.bit_count())
    for s in regular:
        if s & ~best:
            raise CoreflectionMismatch(
                "two inclusion-incomparable maximal regular subframes"
            )
    return best


def _largest_regular_by_fixpoint(frame: FiniteFrame) -> int:
    members = (1 << frame.k) - 1
    base = 1 << frame.bottom | 1 << frame.top
    while True:
        kept = base | _approximated_members(frame, members)
        if kept == members:
            return members
        members = kept


def reg_coreflect(frame: FiniteFrame) -> tuple[FiniteFrame, FrameMap]:
    """Largest regular subframe with its inclusion.

    The subframe-enumeration oracle is authoritative; the iterated-fixpoint
    variant is recomputed alongside and any disagreement is an error rather
    than a silent choice.
    """
    winner = _largest_regular_by_enumeration(frame)
    other = _largest_regular_by_fixpoint(frame)
    if winner != other:
        raise CoreflectionMismatch(
            f"enumeration found {winner:#x} but the fixpoint found {other:#x}"
        )
    elems = [a for a in range(frame.k) if winner >> a & 1]
    sub = frame_from_leq(
        len(elems), [[frame.leq[a][b] for b in elems] for a in elems]
    )
    inclusion = FrameMap(sub, frame, tuple(elems))
    return sub, inclusion


# ---------------------------------------------------------------------------
# ideals


@dataclass(frozen=True)
class IdealFrame:
    """The frame of ideals of a base frame, with the ideal masks retained."""

    ideals: tuple[int, ...]
    frame: FiniteFrame
    _index: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_index", {m: i for i, m in enumerate(self.ideals)})

    def index_of(self, members: int) -> int:
        try:
            return self._index[members]
        except KeyError:
            raise InvalidInput(f"{members:#x} is not an ideal of the base frame") from None


def _is_ideal(frame: FiniteFrame, down: list[int], members: int) -> bool:
    """Is ``members`` nonempty, down-closed and closed under binary joins?
    ``down[a]`` is the mask of the elements below a."""
    if members == 0:
        return False
    elems = [a for a in range(frame.k) if members >> a & 1]
    join = frame.join
    return all(down[a] & ~members == 0 for a in elems) and all(
        members >> join[a][b] & 1 for a in elems for b in elems
    )


@lru_cache(maxsize=None)
def ideal_frame(frame: FiniteFrame) -> IdealFrame:
    """All ideals, enumerated definitionally from the subset lattice."""
    if frame.k > LATTICE_ENUM_CAP:
        raise BoundExceeded(f"ideal enumeration refused for k={frame.k}")
    down = [sum(1 << b for b in range(frame.k) if frame.leq[b][a]) for a in range(frame.k)]
    ideals = tuple(m for m in range(1 << frame.k) if _is_ideal(frame, down, m))
    leq = [[a & ~b == 0 for b in ideals] for a in ideals]
    return IdealFrame(ideals, frame_from_leq(len(ideals), leq))


def ideal_supremum(frame: FiniteFrame) -> FrameMap:
    """The counit: an ideal collapses to its join."""
    lifted = ideal_frame(frame)
    arr = tuple(
        frame.join_of(a for a in range(frame.k) if members >> a & 1)
        for members in lifted.ideals
    )
    return FrameMap(lifted.frame, frame, arr)


def ideal_comultiplication(frame: FiniteFrame) -> FrameMap:
    """An ideal J widens to the ideal of ideals whose join lies in J."""
    lifted = ideal_frame(frame)
    twice = ideal_frame(lifted.frame)
    sup = ideal_supremum(frame)
    arr = []
    for members in lifted.ideals:
        chosen = 0
        for i in range(len(lifted.ideals)):
            if members >> sup.map[i] & 1:
                chosen |= 1 << i
        arr.append(twice.index_of(chosen))
    return FrameMap(lifted.frame, twice.frame, tuple(arr))


def ideal_map(f: FrameMap) -> FrameMap:
    """Functor action: the down-set generated by the image of an ideal."""
    dom_l = ideal_frame(f.dom)
    cod_l = ideal_frame(f.cod)
    arr = []
    for members in dom_l.ideals:
        down = 0
        for a in range(f.dom.k):
            if members >> a & 1:
                fa = f.map[a]
                for b in range(f.cod.k):
                    if f.cod.leq[b][fa]:
                        down |= 1 << b
        arr.append(cod_l.index_of(down))
    return FrameMap(dom_l.frame, cod_l.frame, tuple(arr))


def check_ideal_comonad_laws(
    corpus: tuple[FiniteFrame, ...], check_id: str = "ideal-comonad", corpus_desc: str = ""
) -> CheckReport:
    desc = corpus_desc or f"{len(corpus)} frames"
    for frame in corpus:
        lifted = ideal_frame(frame)
        sup = ideal_supremum(frame)
        comult = ideal_comultiplication(frame)
        ident = FrameMap(lifted.frame, lifted.frame, tuple(range(lifted.frame.k)))
        if not composes_to(ideal_supremum(lifted.frame), comult, ident):
            return failed(check_id, desc, f"counit law (outer) fails on {frame!r}")
        if not composes_to(ideal_map(sup), comult, ident):
            return failed(check_id, desc, f"counit law (inner) fails on {frame!r}")
        if not commutes(ideal_map(comult), comult, ideal_comultiplication(lifted.frame), comult):
            return failed(check_id, desc, f"coassociativity fails on {frame!r}")
    return passed(check_id, desc)


# ---------------------------------------------------------------------------
# way below


def way_below_lattice(frame: FiniteFrame, a: int, b: int) -> bool:
    """Any subset whose join dominates ``b`` has a finite subset dominating ``a``.

    Subsets of a finite frame are their own finite subsets, so the check
    reads each subset through its join.  Every subset's join is an element
    and every element is the join of its singleton, so the joins are
    ``range(frame.k)`` and the check scans them.  ``a <= b`` is the cheap
    equivalent; the tests compare the two on the lattice corpus.
    """
    for j in range(frame.k):
        if frame.leq[b][j] and not frame.leq[a][j]:
            return False
    return True


def is_stably_continuous(frame: FiniteFrame) -> bool:
    """The way-below relation approximates and is finitely multiplicative."""
    wb = {
        (a, b): way_below_lattice(frame, a, b)
        for a in range(frame.k)
        for b in range(frame.k)
    }
    approximating = all(
        frame.join_of(b for b in range(frame.k) if wb[(b, a)]) == a
        for a in range(frame.k)
    )
    multiplicative = wb[(frame.top, frame.top)] and all(
        not (wb[(a, b)] and wb[(c, d)]) or wb[(frame.meet[a][c], frame.meet[b][d])]
        for a in range(frame.k)
        for b in range(frame.k)
        for c in range(frame.k)
        for d in range(frame.k)
    )
    return approximating and multiplicative


def frame_is_compact(frame: FiniteFrame) -> bool:
    return way_below_lattice(frame, frame.top, frame.top)


# ---------------------------------------------------------------------------
# frame map enumeration


@lru_cache(maxsize=None)
def _points(frame: FiniteFrame) -> tuple[FiniteSpace, tuple[int, ...]]:
    """The join-irreducibles of a frame with more than one element as a space
    whose opens are their down-sets (Birkhoff), and the mask of the
    join-irreducibles below each element.  An element is join-irreducible
    when it is not the join of the elements strictly below it."""
    irreducibles = [
        j for j in range(frame.k)
        if frame.join_of(a for a in range(frame.k) if a != j and frame.leq[a][j]) != j
    ]
    masks = tuple(
        sum(1 << i for i, j in enumerate(irreducibles) if frame.leq[j][a])
        for a in range(frame.k)
    )
    return FiniteSpace(len(irreducibles), tuple(sorted(masks))), masks


def _preimage_maps(
    dom: FiniteFrame, cod: FiniteFrame, keep: Callable[[ContinuousMap], bool] | None = None
) -> tuple[FrameMap, ...]:
    """The frame maps dom -> cod of the phi that ``keep`` admits (every phi
    when it is None), in the lexicographic order of phi.

    They are the preimage maps of the continuous phi from the points of cod
    to those of dom (Birkhoff 1937; Johnstone, Stone Spaces, I.4): a goes to
    the element of cod whose mask is the preimage of the mask of a.  The
    one-element frame has no points: every frame maps onto it by one
    constant map, and it maps into no other frame.
    """
    if cod.k == 1:
        return (FrameMap(dom, cod, (cod.bottom,) * dom.k),)
    if dom.k == 1:
        return ()
    dom_points, dom_masks = _points(dom)
    cod_points, cod_masks = _points(cod)
    element = {m: a for a, m in enumerate(cod_masks)}
    phis: Iterable[ContinuousMap] = enumerate_continuous_maps(cod_points, dom_points)
    if keep is not None:
        phis = filter(keep, phis)
    return tuple(
        FrameMap(dom, cod, tuple(element[phi.preimage(m)] for m in dom_masks))
        for phi in phis
    )


def enumerate_frame_maps(dom: FiniteFrame, cod: FiniteFrame) -> tuple[FrameMap, ...]:
    """All frame homomorphisms dom -> cod, in the lexicographic order of phi."""
    return _preimage_maps(dom, cod)


# ---------------------------------------------------------------------------
# named checks


def check_compact_regular_coreflection(
    corpus: tuple[FiniteFrame, ...],
    check_id: str = "compact-regular-coreflection",
    corpus_desc: str = "",
) -> CheckReport:
    """The regular part of the ideal frame is compact, regular and stably
    continuous, and the restricted counit is dense (reflects bottom)."""
    desc = corpus_desc or f"{len(corpus)} frames"
    for frame in corpus:
        lifted = ideal_frame(frame)
        sup = ideal_supremum(frame)
        if any(sup.map[i] == frame.bottom and lifted.ideals[i] != 1 << frame.bottom
               for i in range(lifted.frame.k)):
            return failed(check_id, desc, f"counit does not reflect bottom on {frame!r}")
        reg_il, incl_il = reg_coreflect(lifted.frame)
        if not frame_is_compact(reg_il):
            return failed(check_id, desc, f"regular part not compact for {frame!r}")
        if not is_regular(reg_il):
            return failed(check_id, desc, f"regular part not regular for {frame!r}")
        if not is_stably_continuous(reg_il):
            return failed(check_id, desc, f"regular part not stably continuous for {frame!r}")
        reg_l, incl_l = reg_coreflect(frame)
        restricted = _restrict_into(sup, incl_il, reg_l, incl_l)
        if restricted is None:
            return failed(
                check_id, desc, f"counit does not restrict to the regular parts of {frame!r}"
            )
        for i in range(reg_il.k):
            if restricted.map[i] == reg_l.bottom and i != reg_il.bottom:
                return failed(
                    check_id, desc, f"restricted counit not dense on {frame!r}"
                )
    return passed(check_id, desc)


def _restrict_into(
    f: FrameMap, incl_dom: FrameMap, sub_cod: FiniteFrame, incl_cod: FrameMap
) -> FrameMap | None:
    """Corestrict f . incl_dom through the inclusion of a subframe, if possible."""
    arr = []
    positions = {incl_cod.map[i]: i for i in range(sub_cod.k)}
    for i in range(incl_dom.dom.k):
        value = f.map[incl_dom.map[i]]
        if value not in positions:
            return None
        arr.append(positions[value])
    return FrameMap(incl_dom.dom, sub_cod, tuple(arr))


def check_ideal_preserves_monos(
    corpus: tuple[FiniteFrame, ...],
    check_id: str = "ideal-preserves-monos",
    corpus_desc: str = "",
) -> CheckReport:
    """The ideal functor keeps injective frame maps injective.

    A frame map is injective exactly when its phi between the points is
    surjective, so only the maps of surjective phi are built; the constant
    map onto the one-element frame is built and tested as it comes.
    """
    desc = corpus_desc or f"{len(corpus)} frames"
    onto = attrgetter("is_surjective")
    for dom in corpus:
        for cod in corpus:
            for f in _preimage_maps(dom, cod, onto):
                if not f.is_injective:
                    continue
                if not ideal_map(f).is_injective:
                    return failed(
                        check_id, desc, f"ideal image of {f.map} is not injective"
                    )
    return passed(check_id, desc)
