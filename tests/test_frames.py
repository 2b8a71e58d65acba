"""Frame tests: lattice validation, the regular coreflection by two routes,
ideals, way-below."""

import itertools
from operator import attrgetter
from types import SimpleNamespace

import pytest

from topolab import (
    BoundExceeded,
    CoreflectionMismatch,
    FrameMap,
    InvalidInput,
    chain_frame,
    check_compact_regular_coreflection,
    check_ideal_comonad_laws,
    check_ideal_preserves_monos,
    enumerate_frame_maps,
    enumerate_lattices,
    frame_from_leq,
    is_regular,
    is_stably_continuous,
    opens_frame,
    opens_frame_map,
    reg_coreflect,
    way_below_lattice,
)
from topolab.frames import (
    FiniteFrame,
    _complemented,
    _largest_regular_by_fixpoint,
    _sub_pseudocomplement,
    _subset_regular,
    compose_frame_maps,
    frame_is_compact,
    ideal_comultiplication,
    ideal_frame,
    ideal_map,
    ideal_supremum,
)
from topolab import frames, suites
from topolab.corpus import maps_between, spaces_up_to
from topolab.spaces import (
    ContinuousMap,
    classify,
    compose,
    composes_to,
    enumerate_continuous_maps,
)


def oracle_way_below(frame, a, b):
    """Directly quantify over every subset and every one of its subsets."""
    import itertools

    elements = list(range(frame.k))
    for r in range(len(elements) + 1):
        for subset in itertools.combinations(elements, r):
            if not frame.leq[b][frame.join_of(subset)]:
                continue
            if not any(
                frame.leq[a][frame.join_of(sub)]
                for n in range(len(subset) + 1)
                for sub in itertools.combinations(subset, n)
            ):
                return False
    return True


def subframes(frame):
    """All subsets containing the bounds and closed under join and meet, by a
    scan of all 2^k subsets: the reference for the regular coreflection."""
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


def _largest_regular_by_enumeration(frame):
    """The largest regular subframe among all subframes;
    ``test_reg_coreflect_unique_maximum`` checks that it holds every other."""
    return max((s for s in subframes(frame) if _subset_regular(frame, s)), key=int.bit_count)


def _sub_rather_below(frame, members, a, b):
    """Is a rather below b relative to ``members``: does b join the relative
    pseudocomplement of a to top?"""
    return frame.join[b][_sub_pseudocomplement(frame, members, a)] == frame.top


def _ideals_by_subsets(frame):
    """The nonempty down-closed subsets closed under binary joins, by a scan
    of all 2^k subsets: the reference for ``ideal_frame``."""
    down = [sum(1 << b for b in range(frame.k) if frame.leq[b][a]) for a in range(frame.k)]
    out = []
    for members in range(1, 1 << frame.k):
        elems = [a for a in range(frame.k) if members >> a & 1]
        if all(down[a] & ~members == 0 for a in elems) and all(
            members >> frame.join[a][b] & 1 for a in elems for b in elems
        ):
            out.append(members)
    return tuple(out)


def _ideal_map_by_loops(f):
    """The ideal image array of ``f`` by one bit per (member, element) pair:
    the reference for ``ideal_map``."""
    dom_l, cod_l = ideal_frame(f.dom), ideal_frame(f.cod)
    arr = []
    for members in dom_l.ideals:
        down = 0
        for a in range(f.dom.k):
            if members >> a & 1:
                for b in range(f.cod.k):
                    if f.cod.leq[b][f.map[a]]:
                        down |= 1 << b
        arr.append(cod_l.index_of(down))
    return tuple(arr)


def test_frame_from_leq_rejects_non_lattice():
    # two incomparable tops: no join
    with pytest.raises(InvalidInput):
        frame_from_leq(
            3,
            [
                [True, True, True],
                [False, True, False],
                [False, False, True],
            ],
        )


def test_frame_from_leq_rejects_non_distributive():
    # the diamond M3 is a lattice but not distributive
    k = 5
    leq = [[a == b for b in range(k)] for a in range(k)]
    for mid in (1, 2, 3):
        leq[0][mid] = True
        leq[mid][4] = True
    leq[0][4] = True
    with pytest.raises(InvalidInput):
        frame_from_leq(k, leq)


def test_opens_frame_of_e1_is_chain(e1):
    frame = opens_frame(e1)
    assert frame.k == 3
    assert frame.leq == chain_frame(3).leq


def test_opens_frame_of_discrete_is_boolean(discrete2):
    # the opens 0, {0}, {1}, {0,1} of the discrete 2-point space, by inclusion
    assert discrete2.opens == (0, 1, 2, 3)
    assert opens_frame(discrete2).leq == (
        (True, True, True, True),
        (False, True, False, True),
        (False, False, True, True),
        (False, False, False, True),
    )


def test_opens_frame_contravariant(e1, sierpinski):
    f = ContinuousMap(e1, sierpinski, (1, 0, 0))
    lifted = opens_frame_map(f)
    assert lifted.dom == opens_frame(sierpinski)
    assert lifted.cod == opens_frame(e1)
    for g in enumerate_continuous_maps(sierpinski, e1):
        once = opens_frame_map(ContinuousMap(e1, e1, tuple(g.map[v] for v in f.map)))
        twice = compose_frame_maps(opens_frame_map(f), opens_frame_map(g))
        assert once.map == twice.map


def test_pseudocomplement_chain():
    c3 = chain_frame(3)
    assert _sub_pseudocomplement(c3, 0b111, 1) == 0
    assert _sub_pseudocomplement(c3, 0b111, 0) == 2
    assert _sub_pseudocomplement(c3, 0b111, 2) == 0


def test_pseudocomplement_boolean_is_complement(discrete2):
    b = opens_frame(discrete2)
    for a in range(4):
        assert _sub_pseudocomplement(b, 0b1111, a) == 3 ^ a


def test_rather_below_bottom():
    c3 = chain_frame(3)
    assert all(_sub_rather_below(c3, 0b111, 0, b) for b in range(3))
    assert not _sub_rather_below(c3, 0b111, 1, 1)


def test_regularity(discrete2):
    assert not is_regular(chain_frame(3))
    assert is_regular(opens_frame(discrete2))
    assert is_regular(chain_frame(2))


def test_subframes_of_chain3():
    c3 = chain_frame(3)
    assert set(subframes(c3)) == {0b101, 0b111}


def test_reg_coreflect_chain3():
    sub, incl = reg_coreflect(chain_frame(3))
    assert sub.k == 2
    assert incl.map == (0, 2)


def test_reg_coreflect_boolean_identity(discrete2):
    b = opens_frame(discrete2)
    sub, incl = reg_coreflect(b)
    assert sub.k == 4 and incl.map == (0, 1, 2, 3)


def test_reg_coreflect_routes_agree():
    # the fixpoint, the complemented elements and the subframe enumeration on
    # every lattice with at most 10 elements and on its ideal frame
    lattices = enumerate_lattices(10)
    corpus = (*lattices, *(ideal_frame(frame).frame for frame in lattices))
    boolean = 0
    for frame in corpus:
        centre = _complemented(frame)
        assert _largest_regular_by_fixpoint(frame) == centre
        assert _largest_regular_by_enumeration(frame) == centre
        boolean += centre == (1 << frame.k) - 1
    assert (len(corpus), boolean) == (218, 8)  # 1, 2, 4 and 8 elements, twice


def test_reg_coreflect_fixpoint_is_the_boolean_centre_up_to_12_elements():
    lattices = enumerate_lattices(12)
    boolean = 0
    for frame in lattices:
        centre = _complemented(frame)
        assert _largest_regular_by_fixpoint(frame) == centre
        boolean += centre == (1 << frame.k) - 1
    assert (len(lattices), boolean) == (342, 4)


def test_reg_coreflect_unique_maximum():
    for frame in enumerate_lattices(8):
        best = _largest_regular_by_enumeration(frame)
        for s in subframes(frame):
            if _subset_regular(frame, s):
                assert s & ~best == 0  # every regular subframe sits inside the best


def test_reg_coreflect_raises_when_the_fixpoint_disagrees(monkeypatch):
    c3 = chain_frame(3)
    assert _complemented(c3) == 0b101
    monkeypatch.setattr(frames, "_largest_regular_by_fixpoint", lambda frame: 0b111)
    with pytest.raises(
        CoreflectionMismatch,
        match="^the fixpoint found 0x7 but the complemented elements are 0x5$",
    ):
        reg_coreflect(c3)


def test_reg_coreflect_raises_when_the_complemented_elements_disagree(monkeypatch):
    c3 = chain_frame(3)
    assert _largest_regular_by_fixpoint(c3) == 0b101
    monkeypatch.setattr(frames, "_complemented", lambda frame: 0b111)
    with pytest.raises(
        CoreflectionMismatch,
        match="^the fixpoint found 0x5 but the complemented elements are 0x7$",
    ):
        reg_coreflect(c3)


def test_ideal_frame_chain3_matches_base():
    c3 = chain_frame(3)
    il, sup = ideal_frame(c3).frame, ideal_supremum(c3)
    assert il.k == 3
    assert sup.map == (0, 1, 2)


def test_ideal_frame_singleton():
    one = chain_frame(1)
    il, sup, comult = ideal_frame(one).frame, ideal_supremum(one), ideal_comultiplication(one)
    assert il.k == 1 and sup.map == (0,) and comult.map == (0,)


def test_ideals_all_principal():
    lattices = enumerate_lattices(12)
    for frame in lattices:
        lifted = ideal_frame(frame)
        assert len(lifted.ideals) == frame.k
        sup = ideal_supremum(frame)
        assert sorted(sup.map) == list(range(frame.k))
    assert len(lattices) == 342


def test_ideal_frame_matches_the_subset_scan():
    # the unions of principal down-sets against all 2^k subsets, on every
    # lattice with at most 10 elements and on its ideal frame
    lattices = enumerate_lattices(10)
    corpus = (*lattices, *(ideal_frame(frame).frame for frame in lattices))
    for frame in corpus:
        assert ideal_frame(frame).ideals == _ideals_by_subsets(frame)
    assert len(corpus) == 218


def test_ideal_frame_refuses_above_16_elements():
    with pytest.raises(
        BoundExceeded, match="^the ideal frame is refused above 16 elements, got 17$"
    ):
        ideal_frame(chain_frame(17))


def test_ideal_frame_of_the_16_element_chain_has_16_ideals():
    assert len(ideal_frame(chain_frame(16)).ideals) == 16


def test_ideal_map_matches_the_loops_it_replaced():
    # every frame map between the lattices with at most 6 elements, and the
    # counit and comultiplication of the lattices with at most 8 elements
    small = enumerate_lattices(6)
    maps = [f for dom in small for cod in small for f in enumerate_frame_maps(dom, cod)]
    for frame in enumerate_lattices(8):
        maps += [ideal_supremum(frame), ideal_comultiplication(frame)]
    for f in maps:
        assert ideal_map(f).map == _ideal_map_by_loops(f)
    assert len(maps) == 2727


def test_ideal_frame_index_of_finds_every_ideal_and_raises_on_a_miss():
    for frame in enumerate_lattices(6):
        lifted = ideal_frame(frame)
        for i, members in enumerate(lifted.ideals):
            assert lifted.index_of(members) == i
        with pytest.raises(InvalidInput, match="is not an ideal of the base frame"):
            lifted.index_of(0)  # an ideal is never empty


def test_ideal_comonad_laws():
    assert check_ideal_comonad_laws(enumerate_lattices(8)).ok


def test_ideal_comonad_laws_build_each_structure_map_once(monkeypatch):
    # per lattice: the counit and comultiplication at the frame and at its
    # ideal frame, the identity, and the two lifts of ideal_map
    built = []
    init = FrameMap.__post_init__

    def count(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(FrameMap, "__post_init__", count)
    lattices = enumerate_lattices(8)
    assert check_ideal_comonad_laws(lattices).ok
    assert len(built) == 7 * len(lattices) == 252


def test_ideal_comonad_laws_catch_a_broken_coassociativity(monkeypatch):
    # swapping the two atoms of the square 2 x 2 is a frame automorphism, so
    # the comultiplication of its ideal frame after that swap is a frame map
    # with the right ends; only the coassociativity square uses it
    square = frame_from_leq(4, [[a & b == a for b in range(4)] for a in range(4)])
    lifted = ideal_frame(square).frame  # the object the law check reads
    real = ideal_comultiplication(lifted)
    atoms = [x for x in range(4) if x not in (lifted.bottom, lifted.top)]
    swap = list(range(4))
    swap[atoms[0]], swap[atoms[1]] = atoms[1], atoms[0]
    bent = FrameMap(lifted, real.cod, tuple(real.map[v] for v in swap))
    monkeypatch.setattr(
        frames,
        "ideal_comultiplication",
        lambda frame: bent if frame is lifted else ideal_comultiplication(frame),
    )
    report = check_ideal_comonad_laws((square,))
    assert report.witness == f"coassociativity fails on {square!r}"


@pytest.mark.parametrize("call,law", [(1, "outer"), (2, "inner")])
def test_ideal_comonad_laws_name_the_counit_law_that_fails(monkeypatch, call, law):
    # composes_to is read twice per frame, for the outer law first
    calls = []

    def bent(*maps):
        calls.append(maps)
        return len(calls) != call and composes_to(*maps)

    monkeypatch.setattr(frames, "composes_to", bent)
    lattices = enumerate_lattices(suites.LATTICE_CAP)
    [laws, *_] = suites.run_suite("ideal-comonad")
    assert (laws.check_id, laws.witness) == (
        "ideal-comonad[laws]", f"counit law ({law}) fails on {lattices[0]!r}"
    )


@pytest.mark.parametrize(
    "name,bent,first,witness",
    [
        (
            "ideal_supremum",
            lambda frame: SimpleNamespace(map=(frame.bottom,) * ideal_frame(frame).frame.k),
            1,
            "counit does not reflect bottom on {!r}",
        ),
        (
            "_restrict_into",
            lambda f, incl_dom, sub_cod, incl_cod: None,
            0,
            "counit does not restrict to the regular parts of {!r}",
        ),
        (
            "_restrict_into",
            lambda f, incl_dom, sub_cod, incl_cod: SimpleNamespace(
                map=(sub_cod.bottom,) * incl_dom.dom.k
            ),
            1,
            "restricted counit not dense on {!r}",
        ),
    ],
    ids=["reflects-bottom", "restricts", "dense"],
)
def test_lemma_5_8_names_the_counit_property_that_fails(monkeypatch, name, bent, first, witness):
    # a counit onto bottom, or a restriction onto bottom, first shows on the
    # two-element chain; a missing restriction shows on the one-element frame
    monkeypatch.setattr(frames, name, bent)
    lattices = enumerate_lattices(suites.LATTICE_CAP)
    [report] = suites.run_suite("lemma5.8")
    assert (report.check_id, report.witness) == ("lemma5.8", witness.format(lattices[first]))


def test_ideal_map_example():
    incl = FrameMap(chain_frame(2), chain_frame(3), (0, 2))
    lifted = ideal_map(incl)
    assert lifted.is_injective


def test_way_below_is_order():
    for frame in enumerate_lattices(6):
        for a in range(frame.k):
            for b in range(frame.k):
                assert way_below_lattice(frame, a, b) == frame.leq[a][b]


def test_way_below_matches_literal_oracle(discrete2):
    # every lattice the frame suites quantify over (at most 8 elements)
    for frame in (chain_frame(3), opens_frame(discrete2), *enumerate_lattices(8)):
        for a in range(frame.k):
            for b in range(frame.k):
                assert way_below_lattice(frame, a, b) == oracle_way_below(frame, a, b)


def test_bottom_way_below_everything(discrete2):
    b = opens_frame(discrete2)
    assert all(way_below_lattice(b, b.bottom, a) for a in range(b.k))


def test_every_finite_frame_stably_continuous():
    for frame in enumerate_lattices(6):
        assert is_stably_continuous(frame)
        assert frame_is_compact(frame)


def _stably_continuous_by_quadruples(frame):
    """Stable continuity with multiplicativity over all k^4 quadruples; it
    reads way-below through the module, so a patched relation reaches it."""
    wb = {
        (a, b): frames.way_below_lattice(frame, a, b)
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


def test_stable_continuity_over_way_below_pairs_matches_the_quadruple_scan(monkeypatch):
    for frame in enumerate_lattices(10):
        assert is_stably_continuous(frame) == _stably_continuous_by_quadruples(frame)
    # the order with one pair taken out, so that some verdicts are False
    real = frames.way_below_lattice
    verdicts = []
    for frame in enumerate_lattices(5):
        for x, y in itertools.product(range(frame.k), repeat=2):
            if not frame.leq[x][y]:
                continue
            monkeypatch.setattr(
                frames,
                "way_below_lattice",
                lambda frame, a, b: (a, b) != (x, y) and real(frame, a, b),
            )
            verdict = is_stably_continuous(frame)
            assert verdict == _stably_continuous_by_quadruples(frame)
            verdicts.append(verdict)
    assert (len(verdicts), sum(verdicts)) == (72, 24)


def test_frame_maps_are_proper():
    # at finite scale way-below is the order, so monotone homs preserve it
    for dom in enumerate_lattices(4):
        for cod in enumerate_lattices(4):
            for f in enumerate_frame_maps(dom, cod):
                assert all(
                    way_below_lattice(cod, f.map[a], f.map[b])
                    for a in range(dom.k)
                    for b in range(dom.k)
                    if way_below_lattice(dom, a, b)
                )


def test_compact_regular_coreflection_suite():
    assert check_compact_regular_coreflection(enumerate_lattices(8)).ok


@pytest.mark.parametrize(
    "predicate,witness",
    [
        ("frame_is_compact", "regular part not compact"),
        ("is_regular", "regular part not regular"),
        ("is_stably_continuous", "regular part not stably continuous"),
    ],
)
def test_compact_regular_coreflection_names_the_property_its_regular_part_lacks(
    monkeypatch, predicate, witness
):
    lattices = enumerate_lattices(4)
    monkeypatch.setattr(frames, predicate, lambda frame: False)
    assert check_compact_regular_coreflection(lattices).line() == (
        f"[FAIL] compact-regular-coreflection [{len(lattices)} frames] "
        f"witness: {witness} for {lattices[0]!r}"
    )


def test_ideal_preserves_monos():
    assert check_ideal_preserves_monos(enumerate_lattices(6)).ok


def test_enumerate_frame_maps_matches_bruteforce():
    import itertools

    for dom in enumerate_lattices(4):
        for cod in enumerate_lattices(4):
            brute = []
            for arr in itertools.product(range(cod.k), repeat=dom.k):
                try:
                    brute.append(FrameMap(dom, cod, arr).map)
                except InvalidInput:
                    continue
            assert sorted(f.map for f in enumerate_frame_maps(dom, cod)) == sorted(brute)


def test_frame_maps_between_opens_frames_are_the_opens_maps_of_continuous_maps():
    # spatial duality: finite T0 spaces are sober, so the frame maps
    # O(Y) -> O(X) are exactly the preimage maps of the continuous X -> Y
    t0 = [s for s in spaces_up_to(3) if classify(s).is_T0]
    assert len(t0) == 8
    total = 0
    for x in t0:
        for y in t0:
            pulled = sorted(opens_frame_map(f).map for f in enumerate_continuous_maps(x, y))
            read = sorted(f.map for f in enumerate_frame_maps(opens_frame(y), opens_frame(x)))
            assert read == pulled
            total += len(read)
    assert total == 476


def test_ideal_preserves_monos_decides_every_frame_map_of_its_corpus():
    lattices = enumerate_lattices(6)
    maps = [f for dom in lattices for cod in lattices for f in enumerate_frame_maps(dom, cod)]
    assert (len(lattices), len(maps), sum(f.is_injective for f in maps)) == (13, 2655, 114)


def test_ideal_preserves_monos_fails_when_the_ideal_image_of_a_mono_is_bent(monkeypatch):
    # the bent image is the ideal image of a non-injective frame map between
    # the same lattices: a valid frame map between the same ends
    real = frames.ideal_map

    def bent(f):
        if f.is_injective:
            for g in enumerate_frame_maps(f.dom, f.cod):
                if not g.is_injective:
                    image, honest = real(g), real(f)
                    assert (image.dom, image.cod) == (honest.dom, honest.cod)
                    return image
        return real(f)

    monkeypatch.setattr(frames, "ideal_map", bent)
    report = check_ideal_preserves_monos(enumerate_lattices(6))
    assert not report.ok
    assert report.witness == "ideal image of (0, 1, 2) is not injective"


# --- composing g onto a known frame map ----------------------------------------

# the three-element chain ordered 0 < 2 < 1: equal in size to chain_frame(3),
# but another frame
RELABELED_CHAIN = frame_from_leq(3, [[1, 1, 1], [0, 1, 0], [0, 1, 1]])


def test_compose_onto_frames_returns_the_known_map_when_it_is_the_composite():
    c3 = chain_frame(3)
    f = FrameMap(c3, c3, (0, 1, 2))
    g = FrameMap(c3, c3, (0, 0, 2))
    known = FrameMap(c3, c3, (0, 0, 2))
    assert composes_to(g, f, known)
    assert compose_frame_maps(g, f) == known


@pytest.mark.parametrize("end", ["dom", "cod"])
def test_compose_onto_frames_builds_when_only_the_array_matches(end):
    c2 = chain_frame(2)
    if end == "dom":
        f = FrameMap(chain_frame(3), c2, (0, 1, 1))
        g = FrameMap(c2, c2, (0, 1))
        known = FrameMap(RELABELED_CHAIN, c2, (0, 1, 1))
    else:
        f = g = FrameMap(c2, c2, (0, 1))
        known = FrameMap(c2, RELABELED_CHAIN, (0, 1))
    built = compose_frame_maps(g, f)
    assert built.map == known.map and built != known
    assert (built.dom, built.cod) == (f.dom, g.cod)
    assert not composes_to(g, f, known)


def test_compose_onto_frames_builds_when_the_arrays_differ():
    c3 = chain_frame(3)
    f = FrameMap(c3, c3, (0, 1, 2))
    g = FrameMap(c3, c3, (0, 0, 2))
    assert compose_frame_maps(g, f).map == (0, 0, 2)
    assert not composes_to(g, f, FrameMap(c3, c3, (0, 2, 2)))


def test_compose_onto_frames_rejects_a_mismatch():
    # the arrays would compose to ``known``, but f does not land in dom g
    c2, c3 = chain_frame(2), chain_frame(3)
    f = FrameMap(c3, c2, (0, 1, 1))
    g = FrameMap(RELABELED_CHAIN, c2, (0, 1, 1))
    known = FrameMap(c3, c2, (0, 1, 1))
    with pytest.raises(InvalidInput, match="frame map composition mismatch"):
        compose_frame_maps(g, f)
    with pytest.raises(InvalidInput, match="composition mismatch"):
        composes_to(g, f, known)


# --- frame-bridge witness order -------------------------------------------------


def test_frame_bridge_functorial_witness_matches_an_all_pairs_scan(monkeypatch):
    bounds = suites.RunBounds()
    maps = maps_between(spaces_up_to(bounds.map_points))
    # a point of a three-point space whose frame image is swapped for that of
    # another point: the first failing f then fails with several g
    target = next(m for m in maps if m.dom.n == 1 and m.cod.n == 3)
    other = next(
        m
        for m in maps
        if (m.dom, m.cod) == (target.dom, target.cod)
        and opens_frame_map(m) != opens_frame_map(target)
    )

    def corrupted(f):
        return opens_frame_map(other if f == target else f)

    def breaks(f, g):
        return corrupted(compose(g, f)).map != compose_frame_maps(corrupted(f), corrupted(g)).map

    f, bad = next(
        (f, bad)
        for f in maps
        for bad in [[g for g in maps if f.cod == g.dom and breaks(f, g)]]
        if bad
    )
    assert len(bad) > 1
    monkeypatch.setattr(suites, "opens_frame_map", corrupted)
    report = next(
        r for r in suites.suite_frame_bridge(bounds) if r.check_id == "frame-bridge[functorial]"
    )
    assert report.witness == f"{f.map};{bad[0].map}"


def test_frame_bridge_fails_both_laws_on_a_frame_map_with_the_wrong_ends(monkeypatch):
    bounds = suites.RunBounds()
    maps = maps_between(spaces_up_to(bounds.map_points))
    target = next(m for m in maps if m.dom.n == 2 and m.cod.n == 2)
    # a frame map into the opens of a domain with another number of opens
    other = next(
        m for m in maps if m.cod == target.cod and len(m.dom.opens) != len(target.dom.opens)
    )

    def misplaced(f):
        return opens_frame_map(other if f == target else f)

    monkeypatch.setattr(suites, "opens_frame_map", misplaced)
    reports = {r.check_id: r for r in suites.suite_frame_bridge(bounds)}
    for check_id in ("frame-bridge[contravariant]", "frame-bridge[functorial]"):
        assert reports[check_id].witness == f"{target.map}"


def test_frame_map_rejects_a_value_out_of_the_codomain():
    # 4 is the first value past the four-element chain
    for arr in ((0, 7, 3), (0, 4, 3), (0, -1, 3)):
        with pytest.raises(InvalidInput, match="^frame map value out of codomain range$"):
            FrameMap(chain_frame(3), chain_frame(4), arr)


# --- twins: the order tables, the regularity oracle, the injective route -------


def _frame_from_leq_by_loops(k, leq_rows):
    """The order tables by per-element scans, the reference for the bitmask
    tables message for message; returns the fields of the frame."""
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

    def lub(a, b):
        uppers = [c for c in range(k) if leq[a][c] and leq[b][c]]
        least = [c for c in uppers if all(leq[c][d] for d in uppers)]
        if len(least) != 1:
            raise InvalidInput(f"no least upper bound for ({a},{b})")
        return least[0]

    def glb(a, b):
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
    return k, leq, join, meet, bottoms[0], tops[0]


def _outcome(build, k, rows):
    try:
        return build(k, rows)
    except InvalidInput as exc:
        return str(exc)


def _m3_and_n5():
    # the diamond M3 and the pentagon N5: lattices, not distributive
    m3 = [[a == b or a == 0 or b == 4 for b in range(5)] for a in range(5)]
    n5 = [list(row) for row in m3]
    n5[1][2] = True
    return [m3, n5]


def test_frame_tables_match_the_loops_they_replaced():
    lattices = enumerate_lattices(8)
    ideals = [ideal_frame(frame).frame for frame in lattices]
    assert (len(lattices), len(ideals)) == (36, 36)
    valid = [[list(row) for row in frame.leq] for frame in (*lattices, *ideals)]
    matrices = valid + _m3_and_n5()
    # every matrix one entry away from a lattice or M3 or N5, and every 3x3
    for rows in valid[:36] + _m3_and_n5():
        for a, b in itertools.product(range(len(rows)), repeat=2):
            flipped = [list(row) for row in rows]
            flipped[a][b] = not flipped[a][b]
            matrices.append(flipped)
    for bits in range(1 << 9):
        matrices.append([[bits >> (3 * a + b) & 1 for b in range(3)] for a in range(3)])
    messages = set()
    for rows in matrices:
        new = _outcome(frame_from_leq, len(rows), rows)
        old = _outcome(_frame_from_leq_by_loops, len(rows), rows)
        if isinstance(old, str):
            assert new == old
            messages.add(old.split(" for ")[0])
        else:
            assert new == FiniteFrame(*old)
    assert messages == {
        "order not reflexive",
        "order not antisymmetric",
        "order not transitive",
        "no least upper bound",
        "no greatest lower bound",
        "lattice is not distributive",
    }
    for k, rows in ((0, []), (2, [[1, 1]]), (2, [[1, 1], [0]])):
        assert _outcome(frame_from_leq, k, rows) == _outcome(_frame_from_leq_by_loops, k, rows)


def test_no_reflexive_relation_with_all_joins_and_meets_is_unbounded():
    # frame_from_leq has no bounded check: once every two elements have a
    # join and a meet, so do all of them. Over every reflexive relation on
    # at most 4 elements the loop reference, which keeps the check, never
    # fires it, and the two agree message for message
    seen = 0
    for k in range(1, 5):
        off = [(a, b) for a in range(k) for b in range(k) if a != b]
        for bits in range(1 << len(off)):
            rows = [[a == b for b in range(k)] for a in range(k)]
            for i, (a, b) in enumerate(off):
                rows[a][b] = bool(bits >> i & 1)
            old = _outcome(_frame_from_leq_by_loops, k, rows)
            assert old != "lattice is not bounded"
            assert _outcome(frame_from_leq, k, rows) == (
                old if isinstance(old, str) else FiniteFrame(*old)
            )
            seen += 1
    assert seen == 4165


def _regular_by_approximated(frame, members):
    """Regularity with a pseudocomplement per (element, member) pair."""

    def approximated(a):
        return a == frame.join_of(
            c
            for c in range(frame.k)
            if members >> c & 1 and _sub_rather_below(frame, members, c, a)
        )

    return all(approximated(a) for a in range(frame.k) if members >> a & 1)


def test_regularity_matches_a_pseudocomplement_per_pair():
    lattices = enumerate_lattices(8)
    corpus = (*lattices, *(ideal_frame(frame).frame for frame in lattices))
    total = regular = 0
    for frame in corpus:
        for s in subframes(frame):
            verdict = _regular_by_approximated(frame, s)
            assert _subset_regular(frame, s) == verdict
            total += 1
            regular += verdict
        # the fixpoint route, each round kept by the per-pair test
        members, base = (1 << frame.k) - 1, 1 << frame.bottom | 1 << frame.top
        while True:
            kept = base | sum(
                1 << a
                for a in range(frame.k)
                if members >> a & 1
                and a == frame.join_of(
                    c
                    for c in range(frame.k)
                    if members >> c & 1 and _sub_rather_below(frame, members, c, a)
                )
            )
            if kept == members:
                break
            members = kept
        assert _largest_regular_by_fixpoint(frame) == members
    assert (len(corpus), total, regular) == (72, 2004, 86)


def test_injective_frame_maps_are_those_of_surjective_points():
    lattices = enumerate_lattices(8)
    onto = attrgetter("is_surjective")
    built = injective = 0
    for dom in lattices:
        for cod in lattices:
            maps = frames._preimage_maps(dom, cod, onto)
            kept = [f.map for f in maps if f.is_injective]
            assert kept == [f.map for f in enumerate_frame_maps(dom, cod) if f.is_injective]
            # what else is built is the constant map onto the one-element frame
            assert all(cod.k == 1 for f in maps if not f.is_injective)
            built += len(maps)
            injective += len(kept)
    assert (built, injective) == (1199, 1164)


def test_ideal_preserves_monos_builds_only_the_maps_of_surjective_points(monkeypatch):
    # 114 injective maps and the 12 constant maps onto the one-element frame
    # from the larger lattices, then the 114 ideal images; building every
    # frame map would make 2,655 + 114
    built = []
    real = FrameMap.__post_init__

    def counted(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(FrameMap, "__post_init__", counted)
    reports = suites.run_suite("prop5.9")
    assert [(r.check_id, r.ok) for r in reports] == [("prop5.9", True)]
    assert len(built) == 240


@pytest.mark.parametrize(
    "arr,message",
    [
        ((0,), "wrong length"),
        ((0, 1, 1), "wrong length"),
        ((0, 1.0), "must be ints"),
        ([0, 1], "must be ints"),
        ((False, True), "must be ints"),
    ],
)
def test_a_frame_map_refuses_an_array_of_the_wrong_length_or_type(arr, message):
    two = chain_frame(2)
    with pytest.raises(InvalidInput, match=message):
        FrameMap(two, two, arr)
