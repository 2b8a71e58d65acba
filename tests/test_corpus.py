"""Corpus integrity: counts, determinism, bounds."""

import itertools
from functools import lru_cache

import pytest

from topolab import (
    BoundExceeded,
    InvalidInput,
    build_space,
    enumerate_lattices,
    enumerate_spaces,
    find_homeomorphism,
    recount_topologies,
)
from topolab import corpus, suites
from topolab.corpus import lattice_class_counts, recount_lattices
from topolab.suites import RunBounds, suite_corpus_counts


LABELED = {1: 1, 2: 4, 3: 29, 4: 355}
CLASSES = {1: 1, 2: 3, 3: 9, 4: 33, 5: 139}  # OEIS A001930


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_labeled_counts(n):
    assert len(enumerate_spaces(n)) == LABELED[n]
    assert recount_topologies(n) == LABELED[n]


def _recount_by_bits(n):
    """One family per bit pattern over the subsets strictly between the empty
    and the full set, closure tested on every pair of members."""
    full = (1 << n) - 1
    middles = list(range(1, full))
    count = 0
    for picks in range(1 << len(middles)):
        family = {0, full}
        for i, m in enumerate(middles):
            if picks >> i & 1:
                family.add(m)
        if all(a | b in family and a & b in family for a in family for b in family):
            count += 1
    return count


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_recount_matches_a_family_per_bit_pattern(n):
    assert recount_topologies(n) == _recount_by_bits(n) == LABELED[n]  # A000798


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_class_counts(n):
    assert len(enumerate_spaces(n, up_to_homeo=True)) == CLASSES[n]


def _assignments_to_spaces(n):
    """Every labeled topology on n points, by assigning each point its minimal
    open neighbourhood; consistency means membership forces inclusion of the
    member's own neighbourhood."""
    full = (1 << n) - 1
    out = []
    hoods = [0] * n

    def place(i):
        if i == n:
            out.append(build_space(n, list(hoods)))
            return
        for m in range(full + 1):
            if not m >> i & 1:
                continue
            if all(
                not (m >> j & 1 and hoods[j] & ~m) and not (hoods[j] >> i & 1 and m & ~hoods[j])
                for j in range(i)
            ):
                hoods[i] = m
                place(i + 1)
        hoods[i] = 0

    place(0)
    return out


def _homeo_invariants(space):
    """The number of opens, their sorted sizes, and the sorted pairs of
    minimal-neighbourhood size and in-degree per point."""
    points = sorted(
        (space.hoods[x].bit_count(), sum(h >> x & 1 for h in space.hoods))
        for x in range(space.n)
    )
    return len(space.opens), tuple(sorted(o.bit_count() for o in space.opens)), tuple(points)


@lru_cache(maxsize=None)
def _reference_route(n):
    """The labeled spaces by neighbourhood assignment, in ascending opens
    order, and the first of each homeomorphism class among them, found by
    the homeomorphism search within buckets of shared invariants."""
    labeled = sorted(_assignments_to_spaces(n), key=lambda s: s.opens)
    classes = []
    buckets = {}
    for s in labeled:
        bucket = buckets.setdefault(_homeo_invariants(s), [])
        if not any(find_homeomorphism(s, rep) for rep in bucket):
            bucket.append(s)
            classes.append(s)
    return tuple(labeled), tuple(classes)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_orbits_of_posets_with_blocks_match_the_homeomorphism_route(n):
    labeled, classes = _reference_route(n)
    assert enumerate_spaces(n) == labeled
    assert enumerate_spaces(n, True) == classes


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_class_reduction_matches_a_scan_over_every_representative(n):
    classes = []
    for s in enumerate_spaces(n):
        if not any(find_homeomorphism(s, rep) for rep in classes):
            classes.append(s)
    assert enumerate_spaces(n, up_to_homeo=True) == tuple(classes)


def test_five_point_count_is_consistent():
    # the five-point corpus is allowed for targeted checks only
    assert len(enumerate_spaces(5)) == 6942


def test_corpus_counts_reuse_the_classes_of_the_corpus(monkeypatch):
    # lru_cache keys enumerate_spaces(n, up_to_homeo=True) apart from
    # enumerate_spaces(n, True): a keyword call would reduce the classes again
    fresh = lru_cache(maxsize=None)(corpus.enumerate_spaces.__wrapped__)
    monkeypatch.setattr(corpus, "enumerate_spaces", fresh)
    monkeypatch.setattr(suites, "enumerate_spaces", fresh)
    corpus.spaces_up_to.__wrapped__(4)
    assert all(r.ok for r in suite_corpus_counts(RunBounds()))
    # the labeled spaces and the classes for n = 1..4
    assert fresh.cache_info().currsize == 8


def test_enumeration_bounds():
    with pytest.raises(InvalidInput):
        enumerate_spaces(0)
    with pytest.raises(BoundExceeded):
        enumerate_spaces(6)


def test_enumeration_is_deterministic():
    first = enumerate_spaces(3)
    second = tuple(sorted(set(first), key=lambda s: s.opens))
    assert first == second
    assert enumerate_spaces(3) == first


def test_classes_embed_in_labeled():
    labeled = set(enumerate_spaces(3))
    for rep in enumerate_spaces(3, up_to_homeo=True):
        assert rep in labeled


def test_lattice_counts_match_recount():
    assert lattice_class_counts(6) == recount_lattices(6)


def test_lattice_recount_reaches_seven_elements():
    # A006982: 8 distributive lattices with 7 elements
    recount = recount_lattices(7)
    assert recount == lattice_class_counts(7)
    assert recount[7] == 8


def test_lattice_counts_up_to_eight():
    assert lattice_class_counts(8) == {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 5, 7: 8, 8: 15}


def test_lattices_are_canonically_ordered():
    lattices = enumerate_lattices(8)
    assert list(lattices) == sorted(lattices, key=lambda f: (f.k, f.leq))


def _downsets_by_scan(m, leq):
    """The down-closed subsets of an m-element poset, as ascending masks,
    by testing every one of the 2^m subsets."""
    return [
        mask
        for mask in range(1 << m)
        if all(
            not (mask >> a & 1) or not leq[b][a] or (mask >> b & 1)
            for a in range(m)
            for b in range(m)
        )
    ]


def test_grown_down_sets_are_the_down_sets_of_the_grown_posets():
    # every poset whose down-set lattice has at most 10 elements
    grown = list(corpus._grow_posets(10, 9))
    assert len(grown) == 108
    for leq, downsets in grown:
        assert downsets == _downsets_by_scan(len(leq), leq), leq


def _full_canonical(m, leq):
    """The least flattened matrix over all m! relabellings."""
    return min(
        tuple(leq[p[a]][p[b]] for a in range(m) for b in range(m))
        for p in itertools.permutations(range(m))
    )


def test_refined_canonical_form_separates_what_the_full_form_separates(monkeypatch):
    # _grow_posets keeps one poset per canonical form, and both the space and
    # the lattice corpus grow from it: a form that merged two posets would
    # lose a class of each
    grown = []

    def record(m, leq):
        grown.append((m, leq))
        return canonical(m, leq)

    canonical = corpus._poset_canonical
    monkeypatch.setattr(corpus, "_poset_canonical", record)
    # 64 down-sets is no cap at 6 elements: every candidate up to 6 is grown
    list(corpus._grow_posets(1 << 6, 6))
    # the specialization preorders, which are not antisymmetric in general
    grown += [
        (s.n, tuple(tuple(bool(h >> y & 1) for y in range(s.n)) for h in s.hoods))
        for s in enumerate_spaces(4)
    ]
    assert {m for m, _ in grown} == {1, 2, 3, 4, 5, 6}
    refined_to_full: dict = {}
    full_to_refined: dict = {}
    for m, leq in grown:
        refined, full = canonical(m, leq), _full_canonical(m, leq)
        assert refined_to_full.setdefault(refined, full) == full
        assert full_to_refined.setdefault(full, refined) == refined


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: recount_topologies(5), BoundExceeded, "affordable up to 4 points"),
        (lambda: enumerate_lattices(0), InvalidInput, "must be positive"),
        (lambda: enumerate_lattices(13), BoundExceeded, "capped at 12 elements"),
        (lambda: recount_lattices(8), BoundExceeded, "affordable up to 7"),
    ],
    ids=["recount-topologies-5", "lattices-0", "lattices-13", "recount-lattices-8"],
)
def test_the_corpus_enumerators_refuse_their_caps(call, error, message):
    with pytest.raises(error, match=message):
        call()
