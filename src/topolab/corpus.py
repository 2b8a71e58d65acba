"""Exhaustive corpora of small spaces, maps, and lattices.

Spaces are enumerated through minimal-neighborhood assignments (finite
topologies are exactly the Alexandrov topologies of preorders); an
independent recount filters raw set families directly so the two totals can
be compared.  Lattices come from the poset-of-join-irreducibles construction
with its own brute-force recount.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import BoundExceeded, InvalidInput
from .frames import FiniteFrame, frame_from_leq
from .spaces import (
    ContinuousMap,
    FiniteSpace,
    build_space,
    enumerate_continuous_maps,
    find_homeomorphism,
)

MAX_POINTS = 5


@lru_cache(maxsize=None)
def enumerate_spaces(n: int, up_to_homeo: bool = False) -> tuple[FiniteSpace, ...]:
    """All topologies on n labeled points, optionally one per homeomorphism class."""
    if n < 1:
        raise InvalidInput("spaces must have at least one point")
    if n > MAX_POINTS:
        raise BoundExceeded(f"space enumeration capped at {MAX_POINTS} points")
    spaces = sorted(_assignments_to_spaces(n), key=lambda s: s.opens)
    if not up_to_homeo:
        return tuple(spaces)
    classes: list[FiniteSpace] = []
    for s in spaces:
        if not any(find_homeomorphism(s, rep) for rep in classes):
            classes.append(s)
    return tuple(classes)


def _assignments_to_spaces(n: int) -> list[FiniteSpace]:
    # assign each point its minimal open neighborhood; consistency means
    # membership forces inclusion of the member's own neighborhood
    full = (1 << n) - 1
    out: list[FiniteSpace] = []
    hoods = [0] * n

    def place(i: int) -> None:
        if i == n:
            out.append(build_space(n, list(hoods)))
            return
        for m in range(full + 1):
            if not m >> i & 1:
                continue
            ok = True
            for j in range(i):
                if m >> j & 1 and hoods[j] & ~m:
                    ok = False
                    break
                if hoods[j] >> i & 1 and m & ~hoods[j]:
                    ok = False
                    break
            if ok:
                hoods[i] = m
                place(i + 1)
        hoods[i] = 0

    place(0)
    return out


def recount_topologies(n: int) -> int:
    """Independent recount: filter every family of subsets directly."""
    if n > 4:
        raise BoundExceeded("the brute-force recount is affordable up to 4 points")
    full = (1 << n) - 1
    middles = [m for m in range(1, full)]
    count = 0
    for picks in range(1 << len(middles)):
        family = {0, full}
        for i, m in enumerate(middles):
            if picks >> i & 1:
                family.add(m)
        if all(a | b in family and a & b in family for a in family for b in family):
            count += 1
    return count


@lru_cache(maxsize=None)
def spaces_up_to(max_points: int, up_to_homeo: bool = True) -> tuple[FiniteSpace, ...]:
    out: list[FiniteSpace] = []
    for n in range(1, max_points + 1):
        out.extend(enumerate_spaces(n, up_to_homeo))
    return tuple(out)


@lru_cache(maxsize=None)
def maps_between(spaces: tuple[FiniteSpace, ...]) -> tuple[ContinuousMap, ...]:
    out: list[ContinuousMap] = []
    for a in spaces:
        for b in spaces:
            out.extend(enumerate_continuous_maps(a, b))
    return tuple(out)


# ---------------------------------------------------------------------------
# lattice corpus


def _poset_canonical(m: int, leq: tuple[tuple[bool, ...], ...]) -> tuple[bool, ...]:
    best = None
    for perm in itertools.permutations(range(m)):
        flat = tuple(leq[perm[a]][perm[b]] for a in range(m) for b in range(m))
        if best is None or flat < best:
            best = flat
    return best


def _downsets(m: int, leq) -> list[int]:
    """The down-closed subsets of an m-element poset, as ascending masks."""
    return [
        mask
        for mask in range(1 << m)
        if all(
            not (mask >> a & 1) or not leq[b][a] or (mask >> b & 1)
            for a in range(m)
            for b in range(m)
        )
    ]


def _grow_posets(max_downsets: int, max_elements: int):
    """All posets, up to iso, whose down-set lattice stays within the cap.

    Every poset arises by attaching a maximal element above a down-set of a
    smaller poset, so growth plus canonical deduplication is exhaustive.
    """
    seen: dict[tuple, tuple] = {(): ()}
    for m in range(1, max_elements + 1):
        grown: dict[tuple, tuple] = {}
        for leq in seen.values():
            prev = len(leq)
            for below in _downsets(prev, leq):
                rows = [
                    tuple(list(leq[a]) + [bool(below >> a & 1)]) for a in range(prev)
                ]
                rows.append(tuple([False] * prev + [True]))
                cand = tuple(rows)
                if len(_downsets(m, cand)) > max_downsets:
                    continue
                canon = _poset_canonical(m, cand)
                grown.setdefault(canon, cand)
        seen = grown
        yield from seen.values()


@lru_cache(maxsize=None)
def enumerate_lattices(max_size: int = 8) -> tuple[FiniteFrame, ...]:
    """All bounded distributive lattices with at most ``max_size`` elements,
    one per isomorphism class, as down-set lattices of small posets."""
    if max_size < 1:
        raise InvalidInput("the lattice cap must be positive")
    if max_size > 12:
        raise BoundExceeded("lattice corpus capped at 12 elements")
    frames = [frame_from_leq(1, [[True]])]  # downsets of the empty poset
    for leq in _grow_posets(max_size, max_size - 1):
        downsets = _downsets(len(leq), leq)
        rows = [[a & ~b == 0 for b in downsets] for a in downsets]
        frames.append(frame_from_leq(len(downsets), rows))
    frames.sort(key=lambda f: (f.k, f.leq))
    return tuple(frames)


def recount_lattices(max_size: int = 6) -> dict[int, int]:
    """Independent recount of distributive-lattice classes by direct search.

    Order matrices are enumerated in linear-extension form and deduplicated
    by permutation canonicalization.
    """
    if max_size > 7:
        raise BoundExceeded("the brute-force lattice recount is affordable up to 7")
    counts: dict[int, int] = {}
    for k in range(1, max_size + 1):
        pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
        found = set()
        for picks in range(1 << len(pairs)):
            leq = [[a == b for b in range(k)] for a in range(k)]
            for i, (a, b) in enumerate(pairs):
                if picks >> i & 1:
                    leq[a][b] = True
            rows = tuple(tuple(r) for r in leq)
            try:
                frame_from_leq(k, rows)
            except InvalidInput:
                continue
            found.add(_poset_canonical(k, rows))
        counts[k] = len(found)
    return counts


def lattice_class_counts(max_size: int = 8) -> dict[int, int]:
    counts: dict[int, int] = {}
    for f in enumerate_lattices(max_size):
        counts[f.k] = counts.get(f.k, 0) + 1
    return counts
