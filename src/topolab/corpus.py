"""Exhaustive corpora of small spaces, maps, and lattices.

Spaces and lattices grow from the same posets.  A finite topology is a
poset whose elements carry blocks of equivalent points, and its class is the
orbit of its relabellings; an independent recount filters raw set families
directly so the labeled totals can be compared.  Lattices are the down-set
lattices of the posets (the poset-of-join-irreducibles construction), with
their own brute-force recount.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import BoundExceeded, InvalidInput
from .frames import FiniteFrame, _frame_of_sets, frame_from_leq
from .spaces import FiniteSpace, image_under
from .spaces import maps_between  # noqa: F401  (re-exported: the map corpus is read from here too)

MAX_POINTS = 5


@lru_cache(maxsize=None)
def enumerate_spaces(n: int, up_to_homeo: bool = False) -> tuple[FiniteSpace, ...]:
    """All topologies on n labeled points, optionally one per homeomorphism
    class, each list in ascending ``opens`` order.

    A finite topology is a preorder, that is a poset whose elements carry
    blocks of equivalent points (Stong 1966).  Each poset with at most n
    elements, with the points 0..n-1 split into consecutive blocks of
    positive size, one per element, gives the topology of the unions of the
    blocks over its down-sets.  Down-sets are the up-sets of the dual poset,
    which is grown too, so every topology on n points is a relabelling of
    one of these, and the orbits under the n! relabellings, merged where
    equal, are the homeomorphism classes: the labeled list is their union,
    and each class is represented by the least ``opens`` tuple of its orbit,
    the only tuple of the orbit that a call for the classes keeps.
    """
    if n < 1:
        raise InvalidInput("spaces must have at least one point")
    if n > MAX_POINTS:
        raise BoundExceeded(f"space enumeration capped at {MAX_POINTS} points")
    # the image of every subset under each relabelling, one table per relabelling
    images = [
        [image_under(p, m) for m in range(1 << n)] for p in itertools.permutations(range(n))
    ]
    found: set[tuple[int, ...]] = set()
    for leq, downsets in _grow_posets(1 << n, n):
        for cuts in itertools.combinations(range(1, n), len(leq) - 1):
            bounds = (0, *cuts, n)
            blocks = [(1 << b) - (1 << a) for a, b in zip(bounds, bounds[1:])]
            opens = [sum(b for i, b in enumerate(blocks) if d >> i & 1) for d in downsets]
            orbit = (tuple(sorted(map(image.__getitem__, opens))) for image in images)
            if up_to_homeo:
                found.add(min(orbit))
            else:
                found.update(orbit)
    return tuple(FiniteSpace(n, opens) for opens in sorted(found))


def recount_topologies(n: int) -> int:
    """Independent recount: filter every family of subsets directly.

    Each family is the empty and the full set plus a choice of the subsets
    between them, and it counts when it is closed under union and
    intersection.  A pair with the empty or the full set, or of a set with
    itself, is always closed, so only pairs of distinct chosen sets are
    tested.
    """
    if n > 4:
        raise BoundExceeded("the brute-force recount is affordable up to 4 points")
    full = (1 << n) - 1
    middles = range(1, full)
    count = 0
    for r in range(len(middles) + 1):
        for chosen in itertools.combinations(middles, r):
            family = {0, full, *chosen}
            if all(
                a | b in family and a & b in family
                for a, b in itertools.combinations(chosen, 2)
            ):
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
    frames.extend(_frame_of_sets(downsets) for _, downsets in _grow_posets(max_size, max_size - 1))
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
