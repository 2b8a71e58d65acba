"""Finite frames (bounded distributive lattices), the ideal comonad, the
regular coreflection, and the way-below machinery.

Frames are explicit operation tables validated at construction; element
count stays small enough that the O(k^3) distributivity scan is cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import BoundExceeded, CoreflectionMismatch, InvalidInput
from .reports import CheckReport, failed, passed
from .spaces import ContinuousMap, FiniteSpace

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
    """Derive the tables from an order matrix and validate all frame laws."""
    if k < 1:
        raise InvalidInput("frames need at least one element")
    leq = tuple(tuple(bool(v) for v in row) for row in leq_rows)
    if len(leq) != k or any(len(r) != k for r in leq):
        raise InvalidInput("order matrix has the wrong shape")
    for a in range(k):
        if not leq[a][a]:
            raise InvalidInput("order not reflexive")
        for b in range(k):
            if a != b and leq[a][b] and leq[b][a]:
                raise InvalidInput("order not antisymmetric")
            for c in range(k):
                if leq[a][b] and leq[b][c] and not leq[a][c]:
                    raise InvalidInput("order not transitive")

    def lub(a: int, b: int) -> int:
        uppers = [c for c in range(k) if leq[a][c] and leq[b][c]]
        least = [c for c in uppers if all(leq[c][d] for d in uppers)]
        if len(least) != 1:
            raise InvalidInput(f"no least upper bound for ({a},{b})")
        return least[0]

    def glb(a: int, b: int) -> int:
        lowers = [c for c in range(k) if leq[c][a] and leq[c][b]]
        greatest = [c for c in lowers if all(leq[d][c] for d in lowers)]
        if len(greatest) != 1:
            raise InvalidInput(f"no greatest lower bound for ({a},{b})")
        return greatest[0]

    join = tuple(tuple(lub(a, b) for b in range(k)) for a in range(k))
    meet = tuple(tuple(glb(a, b) for b in range(k)) for a in range(k))
    bottoms = [a for a in range(k) if all(leq[a][b] for b in range(k))]
    tops = [a for a in range(k) if all(leq[b][a] for b in range(k))]
    if len(bottoms) != 1 or len(tops) != 1:
        raise InvalidInput("lattice is not bounded")
    for a in range(k):
        for b in range(k):
            for c in range(k):
                if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
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


def boolean_frame(atoms: int) -> FiniteFrame:
    k = 1 << atoms
    return frame_from_leq(k, [[a & ~b == 0 for b in range(k)] for a in range(k)])


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


def pseudocomplement(frame: FiniteFrame, a: int) -> int:
    """Largest element meeting ``a`` in bottom, computed by a full scan."""
    return frame.join_of(x for x in range(frame.k) if frame.meet[x][a] == frame.bottom)


def rather_below(frame: FiniteFrame, a: int, b: int) -> bool:
    return frame.join[b][pseudocomplement(frame, a)] == frame.top


def is_regular(frame: FiniteFrame) -> bool:
    return all(
        frame.join_of(c for c in range(frame.k) if rather_below(frame, c, a)) == a
        for a in range(frame.k)
    )


# ---------------------------------------------------------------------------
# regular coreflection


def _sub_pseudocomplement(frame: FiniteFrame, members: int, a: int) -> int:
    return frame.join_of(
        x
        for x in range(frame.k)
        if members >> x & 1 and frame.meet[x][a] == frame.bottom
    )


def _sub_rather_below(frame: FiniteFrame, members: int, a: int, b: int) -> bool:
    return frame.join[b][_sub_pseudocomplement(frame, members, a)] == frame.top


def _subset_regular(frame: FiniteFrame, members: int) -> bool:
    # regularity of a candidate, with pseudocomplements relativised to it
    for a in range(frame.k):
        if not members >> a & 1:
            continue
        approx = frame.join_of(
            c
            for c in range(frame.k)
            if members >> c & 1 and _sub_rather_below(frame, members, c, a)
        )
        if approx != a:
            return False
    return True


def subframes(frame: FiniteFrame) -> tuple[int, ...]:
    """All subsets containing the bounds and closed under join and meet."""
    if frame.k > LATTICE_ENUM_CAP:
        raise BoundExceeded(f"subframe enumeration refused for k={frame.k}")
    base = 1 << frame.bottom | 1 << frame.top
    out = []
    for members in range(1 << frame.k):
        if members & base != base:
            continue
        closed = True
        for a in range(frame.k):
            if not members >> a & 1:
                continue
            for b in range(frame.k):
                if not members >> b & 1:
                    continue
                if not members >> frame.join[a][b] & 1 or not members >> frame.meet[a][b] & 1:
                    closed = False
                    break
            if not closed:
                break
        if closed:
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
        kept = base
        for a in range(frame.k):
            if not members >> a & 1:
                continue
            approx = frame.join_of(
                c
                for c in range(frame.k)
                if members >> c & 1 and _sub_rather_below(frame, members, c, a)
            )
            if approx == a:
                kept |= 1 << a
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

    base: FiniteFrame
    ideals: tuple[int, ...]
    frame: FiniteFrame

    def index_of(self, members: int) -> int:
        return self.ideals.index(members)


def _is_ideal(frame: FiniteFrame, members: int) -> bool:
    if members == 0:
        return False
    for a in range(frame.k):
        if not members >> a & 1:
            continue
        for b in range(frame.k):
            if frame.leq[b][a] and not members >> b & 1:
                return False
            if members >> b & 1 and not members >> frame.join[a][b] & 1:
                return False
    return True


@lru_cache(maxsize=None)
def ideal_frame(frame: FiniteFrame) -> IdealFrame:
    """All ideals, enumerated definitionally from the subset lattice."""
    if frame.k > LATTICE_ENUM_CAP:
        raise BoundExceeded(f"ideal enumeration refused for k={frame.k}")
    ideals = tuple(
        m for m in range(1 << frame.k) if _is_ideal(frame, m)
    )
    leq = [[a & ~b == 0 for b in ideals] for a in ideals]
    return IdealFrame(frame, ideals, frame_from_leq(len(ideals), leq))


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


def ideal_comonad(frame: FiniteFrame) -> tuple[FiniteFrame, FrameMap, FrameMap]:
    """The ideal frame with its counit and comultiplication."""
    lifted = ideal_frame(frame)
    return lifted.frame, ideal_supremum(frame), ideal_comultiplication(frame)


def check_ideal_comonad_laws(
    corpus: tuple[FiniteFrame, ...], check_id: str = "ideal-comonad", corpus_desc: str = ""
) -> CheckReport:
    desc = corpus_desc or f"{len(corpus)} frames"
    for frame in corpus:
        lifted = ideal_frame(frame)
        sup = ideal_supremum(frame)
        comult = ideal_comultiplication(frame)
        ident = tuple(range(lifted.frame.k))
        if compose_frame_maps(ideal_supremum(lifted.frame), comult).map != ident:
            return failed(check_id, desc, f"counit law (outer) fails on {frame!r}")
        if compose_frame_maps(ideal_map(sup), comult).map != ident:
            return failed(check_id, desc, f"counit law (inner) fails on {frame!r}")
        lhs = compose_frame_maps(ideal_comultiplication(lifted.frame), comult)
        rhs = compose_frame_maps(ideal_map(comult), comult)
        if lhs.map != rhs.map:
            return failed(check_id, desc, f"coassociativity fails on {frame!r}")
    return passed(check_id, desc)


# ---------------------------------------------------------------------------
# way below


@lru_cache(maxsize=None)
def _subset_joins(frame: FiniteFrame) -> tuple[int, ...]:
    if frame.k > LATTICE_ENUM_CAP:
        raise BoundExceeded(f"subset join table refused for k={frame.k}")
    joins = [frame.bottom] * (1 << frame.k)
    for bits in range(1, 1 << frame.k):
        low = (bits & -bits).bit_length() - 1
        joins[bits] = frame.join[joins[bits & (bits - 1)]][low]
    return tuple(joins)


def way_below_lattice(frame: FiniteFrame, a: int, b: int) -> bool:
    """Any subset whose join dominates ``b`` has a finite subset dominating ``a``.

    Subsets of a finite frame are their own finite subsets, so the check
    scans every subset join; ``a <= b`` is the cheap equivalent and their
    agreement is a corpus check.
    """
    for j in _subset_joins(frame):
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


def frame_map_is_proper(f: FrameMap) -> bool:
    """Properness: the way-below relation is preserved."""
    return all(
        way_below_lattice(f.cod, f.map[a], f.map[b])
        for a in range(f.dom.k)
        for b in range(f.dom.k)
        if way_below_lattice(f.dom, a, b)
    )


def frame_is_compact(frame: FiniteFrame) -> bool:
    return way_below_lattice(frame, frame.top, frame.top)


# ---------------------------------------------------------------------------
# frame map enumeration


def enumerate_frame_maps(dom: FiniteFrame, cod: FiniteFrame) -> tuple[FrameMap, ...]:
    """All frame homomorphisms, by search over join-irreducible generators."""
    order = sorted(range(dom.k), key=lambda a: (sum(dom.leq[b][a] for b in range(dom.k)), a))
    decomp: dict[int, tuple[int, int]] = {}
    for e in order:
        for a in range(dom.k):
            for b in range(a + 1, dom.k):
                if a != e and b != e and dom.join[a][b] == e:
                    decomp[e] = (a, b)
                    break
            if e in decomp:
                break
    out = []
    assign = [-1] * dom.k

    def extend(pos: int) -> None:
        if pos == len(order):
            # the partial checks are necessary conditions only; the
            # constructor is the arbiter of homomorphism-hood
            try:
                out.append(FrameMap(dom, cod, tuple(assign)))
            except InvalidInput:
                pass
            return
        e = order[pos]
        if e == dom.bottom:
            candidates = [cod.bottom]
        elif e in decomp:
            a, b = decomp[e]
            candidates = [cod.join[assign[a]][assign[b]]]
        elif e == dom.top:
            candidates = [cod.top]
        else:
            candidates = range(cod.k)
        for m in candidates:
            ok = True
            for prev in order[:pos]:
                p = assign[prev]
                if dom.leq[prev][e] and not cod.leq[p][m]:
                    ok = False
                    break
                if assign[dom.meet[prev][e]] != cod.meet[p][m]:
                    ok = False
                    break
                je = dom.join[prev][e]
                if assign[je] != -1 and assign[je] != cod.join[p][m]:
                    ok = False
                    break
            if ok:
                assign[e] = m
                extend(pos + 1)
                assign[e] = -1

    extend(0)
    return tuple(out)


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
    """The ideal functor keeps injective frame maps injective."""
    desc = corpus_desc or f"{len(corpus)} frames"
    for dom in corpus:
        for cod in corpus:
            for f in enumerate_frame_maps(dom, cod):
                if not f.is_injective:
                    continue
                if not ideal_map(f).is_injective:
                    return failed(
                        check_id, desc, f"ideal image of {f.map} is not injective"
                    )
    return passed(check_id, desc)
