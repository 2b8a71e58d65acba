"""Corpus integrity: counts, determinism, bounds."""

import pytest

from topolab import (
    BoundExceeded,
    InvalidInput,
    enumerate_lattices,
    enumerate_spaces,
    recount_topologies,
)
from topolab.corpus import lattice_class_counts, recount_lattices


LABELED = {1: 1, 2: 4, 3: 29, 4: 355}
CLASSES = {1: 1, 2: 3, 3: 9, 4: 33}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_labeled_counts(n):
    assert len(enumerate_spaces(n)) == LABELED[n]
    assert recount_topologies(n) == LABELED[n]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_class_counts(n):
    assert len(enumerate_spaces(n, up_to_homeo=True)) == CLASSES[n]


def test_five_point_count_is_consistent():
    # the five-point corpus is allowed for targeted checks only
    assert len(enumerate_spaces(5)) == 6942


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


def test_lattice_counts_up_to_eight():
    assert lattice_class_counts(8) == {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 5, 7: 8, 8: 15}


def test_lattices_are_canonically_ordered():
    lattices = enumerate_lattices(8)
    assert list(lattices) == sorted(lattices, key=lambda f: (f.k, f.leq))
