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
from .spaces import FiniteSpace, build_space, find_homeomorphism
from .spaces import maps_between  # noqa: F401  (re-exported: the map corpus is read from here too)

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
    buckets: dict[tuple, list[FiniteSpace]] = {}
    for s in spaces:
        bucket = buckets.setdefault(_homeo_invariants(s), [])
        if not any(find_homeomorphism(s, rep) for rep in bucket):
            bucket.append(s)
            classes.append(s)
    return tuple(classes)


def _homeo_invariants(space: FiniteSpace) -> tuple:
    """Invariants that homeomorphic spaces share.

    The number of opens, their sorted sizes, and the sorted pairs of
    minimal-neighbourhood size and in-degree (the number of minimal
    neighbourhoods containing the point) per point.
    """
    points = sorted(
        (space.hoods[x].bit_count(), sum(h >> x & 1 for h in space.hoods))
        for x in range(space.n)
    )
    sizes = sorted(o.bit_count() for o in space.opens)
    return len(space.opens), tuple(sizes), tuple(points)


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


# ---------------------------------------------------------------------------
# lattice corpus


def _poset_canonical(m: int, leq: tuple[tuple[bool, ...], ...]) -> tuple[bool, ...]:
    """The least flattened matrix over the relabellings of a preorder that
    list its elements by ascending (number below, number above).

    An isomorphism maps those relabellings of one matrix onto those of the
    other, so the minimum is a complete invariant, as it is over all m!
    relabellings; only the elements that tie on the counts are permuted.
    """
    key = [(sum(leq[b][a] for b in range(m)), sum(leq[a])) for a in range(m)]
    ties = [[a for a in range(m) if key[a] == k] for k in sorted(set(key))]
    best = None
    for parts in itertools.product(*map(itertools.permutations, ties)):
        perm = [a for part in parts for a in part]
        flat = tuple(leq[perm[a]][perm[b]] for a in range(m) for b in range(m))
        if best is None or flat < best:
            best = flat
    return best


def _grow_posets(max_downsets: int, max_elements: int):
    """All posets, up to iso, whose down-set lattice stays within the cap,
    each as the pair (order matrix, down-sets as ascending masks).

    Every poset arises by attaching a maximal element above a down-set of a
    smaller poset, so growth plus canonical deduplication is exhaustive.
    The down-sets of the grown poset are the old ones followed by d plus
    the new element for each old d that contains ``below``; the new bit is
    the highest, so that list is ascending too.
    """
    seen: dict[tuple, tuple] = {(): ((), [0])}
    for m in range(1, max_elements + 1):
        grown: dict[tuple, tuple] = {}
        top = 1 << (m - 1)  # the bit of the new maximal element
        for leq, downsets in seen.values():
            prev = len(leq)
            for below in downsets:
                extended = downsets + [d | top for d in downsets if d & below == below]
                if len(extended) > max_downsets:
                    continue
                rows = [
                    tuple(list(leq[a]) + [bool(below >> a & 1)]) for a in range(prev)
                ]
                rows.append(tuple([False] * prev + [True]))
                cand = tuple(rows)
                canon = _poset_canonical(m, cand)
                grown.setdefault(canon, (cand, extended))
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
    for _, downsets in _grow_posets(max_size, max_size - 1):
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
        # a lattice is bounded, and in linear-extension form its bottom is 0
        # and its top k-1: only the pairs among 1..k-2 are left to choose
        pairs = [(a, b) for a in range(1, k - 1) for b in range(a + 1, k - 1)]
        found = set()
        for picks in range(1 << len(pairs)):
            leq = [[a == b or a == 0 or b == k - 1 for b in range(k)] for a in range(k)]
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
