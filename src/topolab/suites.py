"""Named check suites over the exhaustive corpora, plus fault injection.

Every suite is a pure function of its bounds; runs are sequential and the
emitted report list is deterministically ordered, so output bytes are
reproducible run to run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .corpus import (
    MAX_POINTS,
    _poset_canonical,
    enumerate_lattices,
    enumerate_spaces,
    lattice_class_counts,
    maps_between,
    recount_lattices,
    recount_topologies,
    spaces_up_to,
)
from .divergences import DIVERGENCES
from .errors import (
    HypothesisViolated,
    InvalidInput,
    NoSplitting,
    NotWellDefined,
    UnknownFault,
    UnknownSuite,
)
from .filters import CLOSED_PRIME, LABELS, OPEN_PRIME, ULTRA, lift_space, member_set, unit
from .frames import (
    chain_frame,
    check_compact_regular_coreflection,
    check_ideal_comonad_laws,
    check_ideal_preserves_monos,
    ideal_supremum,
    opens_frame,
    opens_frame_map,
    reg_coreflect,
)
from .monadlab import (
    EndofunctorSpec,
    MonadSpec,
    NatTransSpec,
    ReflectorSpec,
    _cached,
    algebra_structure,
    alpha_transformation,
    check_functor_laws,
    check_idempotent,
    check_monad_laws,
    check_monad_morphism,
    check_naturality,
    check_unit_transition_epi,
    compose_reflector_monad,
    composed_functor,
    count_descents,
    fakir_test,
    filter_monad,
    find_splitting,
    identity_monad,
    reflection_onto_composite,
    reflector_spec,
    universal_separation,
)
from .reflectors import (
    REFLECT_OPS,
    check_patch_couniversal,
    check_reflector_universal,
    hausdorff_reflect,
    in_t0,
    sobrify,
)
from .reports import CheckReport, verdict
from .spaces import (
    ContinuousMap,
    FiniteSpace,
    build_space,
    classify,
    commutes,
    compose,
    composition_breaks,
    composes_to,
    enumerate_continuous_maps,
    find_homeomorphism,
    identity_map,
    inverse_map,
    is_homeomorphism,
    is_proper,
    mediator_breaks,
    patch_topology,
    require_byte_points,
    way_below_open,
    way_below_via_subset,
)


@dataclass(frozen=True)
class RunBounds:
    """Corpus bounds for one suite invocation; spaces are homeomorphism classes."""

    max_points: int = 4  # law-style checks run on classes up to this size
    map_points: int = 3  # map-quantified checks use this smaller corpus
    epi_cap: int = 4  # codomain size bound for epimorphism quantification
    fault: str | None = None


# the frame suites quantify over the lattices with at most this many elements
LATTICE_CAP = 8
MONO_LATTICE_CAP = 6


# a suite that cannot build the objects its claim is about fails with this
# exception as its witness instead of ending the run
_CONSTRUCTION_FAILURES = (NotWellDefined, HypothesisViolated, NoSplitting)


def _swap_first_two(space: FiniteSpace) -> ContinuousMap:
    if space.n >= 2:
        arr = list(range(space.n))
        arr[0], arr[1] = arr[1], arr[0]
        try:
            return ContinuousMap(space, space, tuple(arr))
        except InvalidInput:
            pass
    return identity_map(space)


def _mult_mutated(monad: MonadSpec, post) -> MonadSpec:
    mult = NatTransSpec(
        monad.mult.name + "!",
        monad.mult.source,
        monad.mult.target,
        lambda s: compose(post(monad.obj(s)), monad.mult.at(s)),
    )
    return MonadSpec(monad.name + "!", monad.functor, monad.unit, mult)


def _lift_unswapped(monad: MonadSpec) -> MonadSpec:
    """The monad whose functor lifts the swap of the discrete two-point
    space to the identity, a valid map between the right ends; its unit
    and multiplication run between the bent functors."""
    discrete = build_space(2, [{0}, {1}])
    swap = ContinuousMap(discrete, discrete, (1, 0))

    def mor(f: ContinuousMap) -> ContinuousMap:
        lifted = monad.mor(f)
        return identity_map(lifted.cod) if f == swap else lifted

    functor = EndofunctorSpec(monad.functor.name, monad.functor.obj, mor)
    unit = NatTransSpec(monad.unit.name, monad.unit.source, functor, monad.unit.at)
    mult = NatTransSpec(
        monad.mult.name, composed_functor(functor, functor), functor, monad.mult.at
    )
    return MonadSpec(monad.name + "!", functor, unit, mult)


def _constant_at_closed_point(space: FiniteSpace) -> ContinuousMap:
    # constants are always continuous; any point does
    return ContinuousMap(space, space, tuple(0 for _ in range(space.n)))


# The faults ``--inject-fault`` can inject: id -> (site, bend). A site is a
# filter kind, a reflector name or a (reflector, kind) composite; the bend
# maps the spec built at that site to its faulted copy. A bend registered
# here reaches every suite through ``_bent``, with no edit to the suites.
FAULTS = {
    "sigma-mult-swap": (OPEN_PRIME, lambda m: _mult_mutated(m, _swap_first_two)),
    "ultra-mult-swap": (ULTRA, lambda m: _mult_mutated(m, _swap_first_two)),
    "pcf-mult-swap": (CLOSED_PRIME, lambda m: _mult_mutated(m, _swap_first_two)),
    # the T0 quotient replaced by the coarser component quotient
    "t0-coarsen": ("t0", lambda _: ReflectorSpec("t0!", hausdorff_reflect, in_t0)),
    "composite-mult-collapse": (
        ("t0", ULTRA), lambda m: _mult_mutated(m, _constant_at_closed_point)
    ),
    "ultra-lift-unswap": (ULTRA, _lift_unswapped),
}


def _bent(site, spec, bounds: RunBounds):
    """``spec``, built at ``site``, or its bent copy when the run's fault sits there."""
    fault = FAULTS.get(bounds.fault)
    return fault[1](spec) if fault is not None and fault[0] == site else spec


def _monad(kind: str, bounds: RunBounds) -> MonadSpec:
    return _bent(kind, filter_monad(kind), bounds)


def _reflector(name: str, bounds: RunBounds) -> ReflectorSpec:
    return _bent(name, reflector_spec(name), bounds)


def _composite(reflector: str, kind: str, bounds: RunBounds) -> MonadSpec:
    made = compose_reflector_monad(_reflector(reflector, bounds), _monad(kind, bounds))
    return _bent((reflector, kind), made, bounds)


def _class_spaces(bounds: RunBounds, predicate) -> tuple[FiniteSpace, ...]:
    return tuple(s for s in spaces_up_to(bounds.epi_cap) if predicate(s))


def _desc(points: int) -> str:
    return f"classes<={points} ({len(spaces_up_to(points))})"


def _map_corpus(bounds: RunBounds):
    """The classes the map-quantified checks run on, every map between them, and a description."""
    spaces = spaces_up_to(bounds.map_points)
    maps = maps_between(spaces)
    return spaces, maps, f"{_desc(bounds.map_points)}, maps={len(maps)}"


def _noted(report: CheckReport, note: str) -> CheckReport:
    """A passing report with the note on the finite-scale divergence it rests on."""
    return verdict(report.check_id, report.corpus, [report.witness], note)


# ---------------------------------------------------------------------------
# suites


def suite_monad_laws(bounds: RunBounds) -> list[CheckReport]:
    spaces = spaces_up_to(bounds.max_points)
    desc = _desc(bounds.max_points)
    return [
        check_monad_laws(_monad(kind, bounds), spaces, f"monad-laws[{label}]", desc)
        for kind, label in LABELS.items()
    ]


def suite_prop_3_4(bounds: RunBounds) -> list[CheckReport]:
    spaces, maps, desc = _map_corpus(bounds)
    u = _monad(ULTRA, bounds)
    out = [
        check_monad_morphism(
            alpha_transformation(kind), u, _monad(kind, bounds), spaces, maps,
            f"prop3.4[alpha->{LABELS[kind]}]", desc,
        )
        for kind in (OPEN_PRIME, CLOSED_PRIME)
    ]
    onto = alpha_transformation(CLOSED_PRIME)
    out.append(
        verdict(
            "prop3.4[alpha-onto-P]", desc,
            ("comparison not surjective" for s in spaces if not onto.at(s).is_surjective),
        )
    )
    return out


def _descent(
    gamma: NatTransSpec, reflector: str, target: MonadSpec, bounds: RunBounds
) -> NatTransSpec:
    """The descent of gamma: U -> target through the reflector, by universal separation."""
    spaces, maps, _ = _map_corpus(bounds)
    return universal_separation(
        gamma, _reflector(reflector, bounds), _monad(ULTRA, bounds), target, spaces, maps
    )


def _natural_homeo_reports(
    gamma: NatTransSpec,
    reflector: str,
    target: MonadSpec,
    bounds: RunBounds,
    prefix: str,
) -> list[CheckReport]:
    """The descent of gamma is a monad morphism out of the composite and a
    natural homeomorphism, and it is the only map through which gamma descends."""
    spaces, maps, desc = _map_corpus(bounds)
    lam = _descent(gamma, reflector, target, bounds)
    runit = reflection_onto_composite(_reflector(reflector, bounds), _monad(ULTRA, bounds))
    source = _composite(reflector, ULTRA, bounds)

    def breaks():
        for s in spaces:
            if not is_homeomorphism(lam.at(s)):
                yield f"{prefix}[homeomorphism]", f"component at {s!r}"
            elif not composes_to(lam.at(s), runit.at(s), gamma.at(s)):
                yield f"{prefix}[descends-gamma]", f"at {s!r}"
            elif count_descents(gamma.at(s), runit.at(s)) != 1:
                yield f"{prefix}[unique]", f"at {s!r}"

    return [
        check_monad_morphism(lam, source, target, spaces, maps, f"{prefix}[monad-morphism]", desc),
        verdict(f"{prefix}[homeo-descends-uniquely]", desc, breaks()),
    ]


def suite_prop_3_6(bounds: RunBounds) -> list[CheckReport]:
    composite = _composite("t0", ULTRA, bounds)
    spaces, _, desc = _map_corpus(bounds)
    return [
        check_monad_laws(composite, spaces, "prop3.6[composite-laws]", desc),
        *_natural_homeo_reports(
            alpha_transformation(OPEN_PRIME), "t0", _monad(OPEN_PRIME, bounds), bounds, "prop3.6"
        ),
    ]


def suite_prop_3_7(bounds: RunBounds) -> list[CheckReport]:
    spaces = spaces_up_to(bounds.max_points)
    desc = _desc(bounds.max_points)
    reflect = _reflector("t0", bounds).reflect

    def breaks():
        for space in spaces:
            rx, r = reflect(space)
            for o in space.opens:
                if r.preimage(r.image(o)) != o:
                    yield "prop3.7[lattice-iso]", f"open {o} of {space!r}"
            for upstairs in rx.opens:
                if r.image(r.preimage(upstairs)) != upstairs:
                    yield "prop3.7[lattice-iso]", f"open {upstairs} of {rx!r}"
            if not is_proper(r):
                yield "prop3.7[proper]", f"quotient of {space!r}"

    return [verdict("prop3.7[lattice-iso+proper]", desc, breaks())]


def suite_thm_4_1(bounds: RunBounds) -> list[CheckReport]:
    """The componentwise reflection is a morphism of monads onto the composite."""
    spaces, maps, desc = _map_corpus(bounds)
    t0 = _reflector("t0", bounds)
    out = []
    for kind, label in LABELS.items():
        monad = _monad(kind, bounds)
        out.append(
            check_monad_morphism(
                reflection_onto_composite(t0, monad),
                monad, _composite("t0", kind, bounds), spaces, maps,
                f"thm4.1[r{label}]", desc,
            )
        )
    return out


def suite_thm_4_6(bounds: RunBounds) -> list[CheckReport]:
    spaces = spaces_up_to(bounds.map_points)
    t0 = _reflector("t0", bounds)

    def witnesses(monad: MonadSpec):
        for space in spaces:
            rtx = t0.obj(monad.obj(space))
            eta = monad.unit.at(rtx)
            if find_splitting(eta) is None:
                yield f"unit at {rtx!r} does not split"
            b = algebra_structure(t0, monad, space)
            if not composes_to(b, eta, identity_map(rtx)):
                yield f"b.unit != id at {space!r}"
            if not commutes(b, monad.mor(b), b, monad.mult.at(rtx)):
                yield f"b not a structure at {space!r}"

    return [
        verdict(f"thm4.6[{label}]", _desc(bounds.map_points), witnesses(_monad(kind, bounds)))
        for kind, label in LABELS.items()
    ]


def suite_lemma_4_5(bounds: RunBounds) -> list[CheckReport]:
    spaces = spaces_up_to(bounds.map_points)
    out = []
    for rname, kind, label in (
        ("t0", ULTRA, "t0,U"),
        ("t0", OPEN_PRIME, "t0,S"),
        ("hausdorff", ULTRA, "H,U"),
    ):
        reflector = _reflector(rname, bounds)
        codomains = _class_spaces(bounds, reflector.in_class)
        out.append(
            check_unit_transition_epi(
                reflector, _monad(kind, bounds), spaces, codomains,
                f"lemma4.5[{label}]",
                f"{_desc(bounds.map_points)}, codomains<={bounds.epi_cap}",
            )
        )
    return out


def suite_lemma_4_8(bounds: RunBounds) -> list[CheckReport]:
    spaces = spaces_up_to(bounds.map_points)
    desc = _desc(bounds.map_points)
    composite = _composite("t0", ULTRA, bounds)
    t0 = _reflector("t0", bounds)
    out = [
        check_idempotent(composite, spaces, "lemma4.8[t0.U-idempotent]", desc),
        _noted(
            check_idempotent(_monad(ULTRA, bounds), spaces, "lemma4.8[U-idempotent]", desc),
            DIVERGENCES["ultra-idempotent"][:64] + "...",
        ),
    ]

    def moved(monad: MonadSpec):
        for space in spaces:
            value = monad.obj(space)
            if t0.reflect(value) != (value, identity_map(value)):
                yield f"at {space!r}"

    out += [
        verdict(f"lemma4.8[{LABELS[kind]}-fixed-point]", desc, moved(_monad(kind, bounds)))
        for kind in (OPEN_PRIME, CLOSED_PRIME)
    ]
    return out


def suite_prop_4_9(bounds: RunBounds) -> list[CheckReport]:
    spaces = spaces_up_to(bounds.map_points)
    composite = _composite("t0", ULTRA, bounds)
    t0 = _reflector("t0", bounds)

    def witnesses():
        for x_space in spaces:
            rx = t0.obj(x_space)
            unit_rx = composite.unit.at(rx)
            struct_rx = composite.mult.at(rx)
            for z_space in spaces:
                algebra = composite.obj(z_space)
                struct_z = composite.mult.at(z_space)
                for f, n in mediator_breaks(
                    unit_rx, algebra,
                    keep=lambda phi: commutes(struct_z, composite.mor(phi), phi, struct_rx),
                ):
                    yield f"{n} mediators for f={f.map} on {x_space!r}->{z_space!r}"

    return [verdict("prop4.9", _desc(bounds.map_points), witnesses())]


def suite_prop_4_10(bounds: RunBounds) -> list[CheckReport]:
    spaces = spaces_up_to(bounds.map_points)
    codomains = spaces_up_to(bounds.epi_cap)
    desc = f"{_desc(bounds.map_points)}, codomains<={bounds.epi_cap}"
    return [
        fakir_test(_composite("t0", ULTRA, bounds), spaces, codomains, "prop4.10[t0.U]", desc),
        fakir_test(identity_monad(), spaces, codomains, "prop4.10[Id]", desc),
        fakir_test(_monad(CLOSED_PRIME, bounds), spaces, codomains, "prop4.10[P]", desc),
    ]


def suite_thm_4_11(bounds: RunBounds) -> list[CheckReport]:
    return _natural_homeo_reports(
        alpha_transformation(CLOSED_PRIME), "t0", _monad(CLOSED_PRIME, bounds), bounds, "thm4.11"
    )


def suite_prop_5_1(bounds: RunBounds) -> list[CheckReport]:
    spaces = spaces_up_to(bounds.map_points)
    u = _monad(ULTRA, bounds)
    structure = _cached(lambda y: inverse_map(u.unit.at(y)))  # the unique algebra structure

    def witnesses():
        for x_space in spaces:
            eta_x = u.unit.at(x_space)
            mu_x = u.mult.at(x_space)
            for y_space in spaces:
                struct = structure(y_space)
                for f, n in mediator_breaks(
                    eta_x, y_space, keep=lambda phi: commutes(struct, u.mor(phi), phi, mu_x)
                ):
                    yield f"{n} algebra maps for f={f.map}"

    return [verdict("prop5.1", _desc(bounds.map_points), witnesses())]


def suite_prop_5_2(bounds: RunBounds) -> list[CheckReport]:
    spaces = spaces_up_to(bounds.map_points)
    targets = _class_spaces(bounds, lambda s: classify(s).is_stably_compact)
    desc = f"{_desc(bounds.map_points)}, stably compact targets<={bounds.epi_cap}"
    # spaces with the same S(x) share the hom S(x) -> y: each is decided once
    all_proper = _cached(lambda ends: all(map(is_proper, enumerate_continuous_maps(*ends))))

    def universal():
        for x_space in spaces:
            e = unit(OPEN_PRIME, x_space)
            for y_space in targets:
                if not all_proper((e.cod, y_space)):
                    yield f"mediator not proper at {x_space!r}"
                for f, n in mediator_breaks(e, y_space):
                    yield f"{n} mediators for f={f.map} on {x_space!r} -> {y_space!r}"

    def embedding_iff_t0():
        for x_space in spaces:
            e = unit(OPEN_PRIME, x_space)
            initial = {e.preimage(o) for o in e.cod.opens} == set(x_space.opens)
            if (e.is_injective and initial) != classify(x_space).is_T0:
                yield f"at {x_space!r}"

    return [
        verdict("prop5.2[universal]", desc, universal()),
        verdict("prop5.2[embedding-iff-T0]", desc, embedding_iff_t0()),
    ]


def suite_prop_5_4(bounds: RunBounds) -> list[CheckReport]:
    spaces, maps, desc = _map_corpus(bounds)
    s_monad = _monad(OPEN_PRIME, bounds)
    p_monad = _monad(CLOSED_PRIME, bounds)
    phi = _descent(alpha_transformation(OPEN_PRIME), "t0", s_monad, bounds)
    lam = _descent(alpha_transformation(CLOSED_PRIME), "t0", p_monad, bounds)
    psi = NatTransSpec(
        "open-to-closed", s_monad.functor, p_monad.functor,
        _cached(lambda s: compose(lam.at(s), inverse_map(phi.at(s)))),
    )
    return [
        check_monad_morphism(psi, s_monad, p_monad, spaces, maps, "prop5.4[morphism]", desc),
        verdict(
            "prop5.4[iso]", desc,
            (f"component at {s!r}" for s in spaces if not is_homeomorphism(psi.at(s))),
        ),
    ]


def suite_prop_5_7(bounds: RunBounds) -> list[CheckReport]:
    spaces, _, desc = _map_corpus(bounds)
    hu = _composite("hausdorff", ULTRA, bounds)
    hs = _composite("hausdorff", OPEN_PRIME, bounds)
    hausdorff = _reflector("hausdorff", bounds)
    h_sigma = reflection_onto_composite(hausdorff, _monad(OPEN_PRIME, bounds))
    gamma = NatTransSpec(
        "h-alpha", _monad(ULTRA, bounds).functor, hs.functor,
        lambda s: compose(h_sigma.at(s), alpha_transformation(OPEN_PRIME).at(s)),
    )
    out = _natural_homeo_reports(gamma, "hausdorff", hs, bounds, "prop5.7")

    def components():
        for space in spaces:
            parts, quotient = hausdorff_reflect(space)
            for monad in (hu, hs):
                if find_homeomorphism(monad.obj(space), parts) is None:
                    yield f"{monad.name} at {space!r}"
            unit_map = hu.unit.at(space)
            fibers = {}
            for x in range(space.n):
                fibers.setdefault(unit_map(x), set()).add(quotient(x))
            if any(len(v) != 1 for v in fibers.values()):
                yield f"unit fibers at {space!r}"

    def not_compact_hausdorff(space: FiniteSpace) -> bool:
        value = classify(hu.obj(space))
        return not (value.is_hausdorff and value.is_stably_compact)

    out.append(verdict("prop5.7[components]", desc, components()))
    out.append(
        verdict(
            "prop5.7[compact-hausdorff]", desc,
            (f"at {s!r}" for s in spaces if not_compact_hausdorff(s)),
        )
    )
    return out


def suite_lemma_2_6(bounds: RunBounds) -> list[CheckReport]:
    small = spaces_up_to(bounds.map_points)
    spaces = tuple(s for s in small if classify(s).is_stably_compact)
    sources = tuple(s for s in small if classify(s).is_hausdorff)
    desc = f"{len(spaces)} stably compact spaces, {len(sources)} compact Hausdorff sources"
    return [check_patch_couniversal(spaces, sources, "lemma2.6", desc)]


def suite_lemma_5_3(bounds: RunBounds) -> list[CheckReport]:
    spaces = spaces_up_to(bounds.map_points)
    t0 = _reflector("t0", bounds)

    def witnesses():
        for space in spaces:
            lifted = lift_space(ULTRA, space)
            _, r = t0.reflect(lifted.space)
            # the closed part of a filter: the closeds that contain its generator
            closed_parts = [
                tuple(h for h in space.closeds if h & g == g) for g in lifted.generators
            ]
            for i, a in enumerate(closed_parts):
                for j, b in enumerate(closed_parts):
                    if (r(i) == r(j)) != (a == b):
                        yield f"filters {i},{j} on {space!r}"

    return [verdict("lemma5.3", _desc(bounds.map_points), witnesses())]


def suite_lemma_5_8(bounds: RunBounds) -> list[CheckReport]:
    lattices = enumerate_lattices(LATTICE_CAP)
    return [
        check_compact_regular_coreflection(
            lattices, "lemma5.8", f"{len(lattices)} frames<= {LATTICE_CAP}"
        )
    ]


def suite_prop_5_9(bounds: RunBounds) -> list[CheckReport]:
    lattices = enumerate_lattices(MONO_LATTICE_CAP)
    return [
        check_ideal_preserves_monos(
            lattices, "prop5.9", f"{len(lattices)} frames<= {MONO_LATTICE_CAP}"
        )
    ]


def suite_ideal_comonad(bounds: RunBounds) -> list[CheckReport]:
    lattices = enumerate_lattices(LATTICE_CAP)
    desc = f"{len(lattices)} frames<= {LATTICE_CAP}"
    reg, incl = reg_coreflect(chain_frame(3))
    return [
        check_ideal_comonad_laws(lattices, "ideal-comonad[laws]", desc),
        verdict(
            "ideal-comonad[principal]", desc,
            (
                f"counit not iso on {frame!r}"
                for frame in lattices
                for sup in [ideal_supremum(frame)]
                if not len(set(sup.map)) == frame.k == sup.dom.k
            ),
        ),
        verdict(
            "ideal-comonad[reg-3chain]", "three-element chain",
            ["" if reg.k == 2 and incl.map == (0, 2) else f"got {incl.map}"],
        ),
    ]


def suite_example_2_2(bounds: RunBounds) -> list[CheckReport]:
    spaces = spaces_up_to(bounds.max_points)
    desc = _desc(bounds.max_points)
    profile = classify(build_space(3, [{0}]))
    good = (
        profile.is_stable
        and profile.is_locally_compact
        and profile.is_weakly_sober
        and not profile.is_T0
        and profile.irreducible_closed_sets == (0b110, 0b111)
    )
    sierpinski = classify(build_space(2, [{1}]))
    profiles = [(space, classify(space)) for space in spaces]
    return [
        verdict(
            "example2.2[classification]", "the three-point witness",
            ["" if good else f"{profile}"],
        ),
        verdict(
            "example2.2[sierpinski]", "two-point chain",
            ["" if sierpinski.is_stably_compact else "not stably compact"],
        ),
        verdict(
            "example2.2[all-weakly-sober]", desc,
            (f"{s!r}" for s, p in profiles if not (p.is_weakly_sober and p.is_salbany)),
        ),
        verdict(
            "example2.2[stably-compact-iff-T0]", desc,
            (f"{s!r}" for s, p in profiles if p.is_stably_compact != p.is_T0),
        ),
    ]


def suite_topo_invariants(bounds: RunBounds) -> list[CheckReport]:
    spaces = spaces_up_to(bounds.max_points)
    desc = _desc(bounds.max_points)
    way_below = (
        f"({o},{under}) on {space!r}"
        for space in spaces
        for o in space.opens
        for under in space.opens
        if way_below_open(space, o, under) != way_below_via_subset(space, o, under)
    )
    patch = (
        f"{space!r}"
        for space in spaces
        if classify(space).is_stably_compact
        for patched in [patch_topology(space)]
        if not classify(patched).is_hausdorff or patch_topology(patched) != patched
    )
    # antisymmetry read from hoods, apart from classify's open-set T0 test:
    # no x != y with y in U_x and x in U_y
    order_t0 = (
        f"{space!r}"
        for space in spaces
        if classify(space).is_T0 != all(
            not (hood >> y & 1 and space.hoods[y] >> x & 1)
            for x, hood in enumerate(space.hoods)
            for y in range(x + 1, space.n)
        )
    )
    out = [
        verdict(
            "invariants[way-below]", desc, way_below,
            note=DIVERGENCES["way-below-is-inclusion"][:60],
        ),
        verdict("invariants[patch]", desc, patch),
        verdict("invariants[specialization-T0]", desc, order_t0),
    ]
    small = spaces_up_to(bounds.map_points)

    def monotone_vs_continuous():
        # the definitional filter: every open has an open preimage
        for a in small:
            for b in small:
                continuous = [
                    arr
                    for arr in itertools.product(range(b.n), repeat=a.n)
                    if all(
                        a.is_open(sum(1 << x for x in range(a.n) if o >> arr[x] & 1))
                        for o in b.opens
                    )
                ]
                if continuous != [f.map for f in enumerate_continuous_maps(a, b)]:
                    yield f"{a!r}->{b!r}"

    out.append(
        verdict(
            "invariants[continuous=monotone]", _desc(bounds.map_points), monotone_vs_continuous()
        )
    )
    return out


def suite_reflector_universal(bounds: RunBounds) -> list[CheckReport]:
    spaces = spaces_up_to(bounds.map_points)
    desc = _desc(bounds.map_points)
    out = []
    for name in REFLECT_OPS:
        R = _reflector(name, bounds)
        out.append(
            check_reflector_universal(
                R.reflect, spaces, R.in_class, f"reflector-universal[{name}]", desc
            )
        )
    return out


def suite_filter_naturality(bounds: RunBounds) -> list[CheckReport]:
    spaces, maps, desc = _map_corpus(bounds)
    out = []
    for kind, label in LABELS.items():
        monad = _monad(kind, bounds)
        out.append(
            check_functor_laws(
                monad.functor, spaces, check_id=f"filters[functor-{label}]", corpus_desc=desc
            )
        )
        out.append(
            check_naturality(monad.unit, maps, f"filters[unit-natural-{label}]", desc)
        )
        out.append(
            check_naturality(monad.mult, maps, f"filters[mult-natural-{label}]", desc)
        )
    for kind in (OPEN_PRIME, CLOSED_PRIME):
        out.append(
            check_naturality(
                alpha_transformation(kind), maps, f"filters[alpha-natural-{LABELS[kind]}]", desc
            )
        )
    unit_preimage = (
        f"at {space!r}"
        for space in spaces
        for eta in [unit(ULTRA, space)]
        if any(eta.preimage(member_set(ULTRA, space, o)) != o for o in space.opens)
    )
    stably_compact = (
        f"{kind} at {space!r}"
        for space in spaces
        for kind in (OPEN_PRIME, CLOSED_PRIME)
        if not classify(lift_space(kind, space).space).is_stably_compact
    )
    hoods = (
        f"at {space!r}"
        for space in spaces
        if set(lift_space(OPEN_PRIME, space).generators) != set(space.hoods)
    )
    out.append(verdict("filters[unit-preimage]", desc, unit_preimage))
    out.append(verdict("filters[lift-stably-compact]", desc, stably_compact))
    out.append(verdict("filters[minimal-neighborhoods]", desc, hoods))
    return out


def suite_prop_3_1(bounds: RunBounds) -> list[CheckReport]:
    spaces = spaces_up_to(bounds.map_points)
    desc = _desc(bounds.map_points)
    return [
        verdict(
            "prop3.1[salbany]", desc,
            (f"at {s!r}" for s in spaces if not classify(lift_space(ULTRA, s).space).is_salbany),
        ),
        verdict(
            "prop3.1[retraction]", desc,
            (f"at {s!r}" for s in spaces if find_splitting(unit(ULTRA, s)) is None),
        ),
        verdict(
            "prop3.1[patch-dense]", desc,
            (f"at {s!r}" for s in spaces if not unit(ULTRA, s).is_surjective),
            note=DIVERGENCES["patch-density-vacuous"][:60],
        ),
    ]


def _sober_differs(space: FiniteSpace, t0: ReflectorSpec) -> bool:
    """The sobrification of ``space`` and its T0 quotient are not homeomorphic."""
    return find_homeomorphism(sobrify(space)[0], t0.obj(space)) is None


def suite_sobriety(bounds: RunBounds) -> list[CheckReport]:
    spaces = spaces_up_to(bounds.max_points)
    desc = _desc(bounds.max_points)
    small = spaces_up_to(bounds.map_points)
    t0 = _reflector("t0", bounds)
    return [
        verdict(
            "sobriety[result-sober]", desc,
            (f"at {s!r}" for s in spaces if not classify(sobrify(s)[0]).is_sober),
        ),
        verdict(
            "sobriety[matches-t0]", desc,
            (f"at {s!r}" for s in spaces if _sober_differs(s, t0)),
            note=DIVERGENCES["sobrification-is-t0"][:60],
        ),
        verdict(
            "sobriety[unit-epi]", desc,
            (f"at {s!r}" for s in spaces if not sobrify(s)[1].is_surjective),
        ),
        verdict(
            "sobriety[filter-space]", _desc(bounds.map_points),
            (f"at {s!r}" for s in small if _sober_differs(lift_space(ULTRA, s).space, t0)),
        ),
    ]


def suite_divergences(bounds: RunBounds) -> list[CheckReport]:
    spaces, maps, desc = _map_corpus(bounds)
    big = spaces_up_to(bounds.max_points)
    reflector = _reflector("t0", bounds)
    report = check_unit_transition_epi(
        reflector, _monad(ULTRA, bounds), spaces,
        _class_spaces(bounds, reflector.in_class),
        "divergence[reflected-unit-epi]",
        f"{desc}, codomains<={bounds.epi_cap}",
    )
    return [
        verdict(
            "divergence[proper]", desc,
            (f"{f.map}" for f in maps if not is_proper(f)),
            note=DIVERGENCES["proper-constant-true"][:60],
        ),
        verdict(
            "divergence[ultra-identity]", _desc(bounds.max_points),
            ("unit not a homeomorphism" for s in big if not is_homeomorphism(unit(ULTRA, s))),
            note=DIVERGENCES["ultra-space-identity"][:60],
        ),
        verdict(
            "divergence[sobrify-t0]", _desc(bounds.max_points),
            ("sobrification differs" for s in big if _sober_differs(s, reflector)),
            note=DIVERGENCES["sobrification-is-t0"][:60],
        ),
        _noted(report, DIVERGENCES["reflected-unit-epi"][:60]),
    ]


def suite_corpus_counts(bounds: RunBounds) -> list[CheckReport]:
    def mismatches(count, recount, expected):
        for n in range(1, 5):
            got, again = count(n), recount(n)
            if not got == again == expected[n]:
                yield f"n={n}: {got} vs recount {again}"

    labeled = mismatches(
        lambda n: len(enumerate_spaces(n)), recount_topologies, {1: 1, 2: 4, 3: 29, 4: 355}
    )
    classes = mismatches(
        # positional, as spaces_up_to calls it: lru_cache keys a keyword call apart
        lambda n: len(enumerate_spaces(n, True)), _recount_classes,
        {1: 1, 2: 3, 3: 9, 4: 33},
    )
    birkhoff = lattice_class_counts(6)
    direct = recount_lattices(6)
    return [
        verdict("corpus[labeled]", "n=1..4 vs subset-family recount", labeled),
        verdict("corpus[classes]", "n=1..4 vs canonical-form recount", classes),
        verdict(
            "corpus[lattices]", "k<=6 vs order-matrix recount",
            ["" if birkhoff == direct else f"{birkhoff} vs {direct}"],
        ),
    ]


def _recount_classes(n: int) -> int:
    """Class count by permutation canonicalization of the specialization
    preorders of the labeled spaces (Stong 1966)."""
    return len({
        _poset_canonical(n, tuple(tuple(bool(h >> y & 1) for y in range(n)) for h in s.hoods))
        for s in enumerate_spaces(n)
    })


def suite_frame_bridge(bounds: RunBounds) -> list[CheckReport]:
    spaces, maps, desc = _map_corpus(bounds)
    frame_maps = [opens_frame_map(f) for f in maps]
    misplaced = [
        f"{f.map}"
        for f, lifted in zip(maps, frame_maps)
        if lifted.dom != opens_frame(f.cod) or lifted.cod != opens_frame(f.dom)
    ]
    # the pair scan compares arrays, which decides O(g.f) = O(f).O(g) only
    # when every frame map runs between the frames of its ends
    functorial = misplaced or (
        f"{maps[i].map};{maps[j].map}"
        for i, j in composition_breaks(spaces, frame_maps, contravariant=True)
    )
    chain = opens_frame(build_space(3, [{0}])).k
    return [
        verdict("frame-bridge[contravariant]", desc, misplaced),
        verdict("frame-bridge[functorial]", desc, functorial),
        verdict(
            "frame-bridge[chain]", "three-point example",
            ["" if chain == 3 else f"opens frame has {chain} elements"],
        ),
    ]


SUITES = {
    "monad-laws": suite_monad_laws,
    "prop3.1": suite_prop_3_1,
    "prop3.4": suite_prop_3_4,
    "prop3.6": suite_prop_3_6,
    "prop3.7": suite_prop_3_7,
    "thm4.1": suite_thm_4_1,
    "thm4.6": suite_thm_4_6,
    "lemma4.5": suite_lemma_4_5,
    "lemma4.8": suite_lemma_4_8,
    "prop4.9": suite_prop_4_9,
    "prop4.10": suite_prop_4_10,
    "thm4.11": suite_thm_4_11,
    "prop5.1": suite_prop_5_1,
    "prop5.2": suite_prop_5_2,
    "prop5.4": suite_prop_5_4,
    "prop5.7": suite_prop_5_7,
    "lemma2.6": suite_lemma_2_6,
    "lemma5.3": suite_lemma_5_3,
    "lemma5.8": suite_lemma_5_8,
    "prop5.9": suite_prop_5_9,
    "ideal-comonad": suite_ideal_comonad,
    "example2.2": suite_example_2_2,
    "topo-invariants": suite_topo_invariants,
    "reflector-universal": suite_reflector_universal,
    "filter-naturality": suite_filter_naturality,
    "sobriety": suite_sobriety,
    "frame-bridge": suite_frame_bridge,
    "divergences": suite_divergences,
    "corpus-counts": suite_corpus_counts,
}


# the suites that scan the pairs of their maps through ``composition_breaks``
PAIR_SCAN_SUITES = frozenset({"filter-naturality", "frame-bridge"})


def _validate_bounds(bounds: RunBounds) -> None:
    """Reject bounds that would quantify over nothing or past a corpus cap,
    and a map corpus larger than the law corpus or the epimorphism codomains."""
    for name in ("max_points", "epi_cap"):
        value = getattr(bounds, name)
        if not 1 <= value <= MAX_POINTS:
            raise InvalidInput(f"{name} must lie in 1..{MAX_POINTS}, got {value}")
    if not 1 <= bounds.map_points <= min(bounds.max_points, bounds.epi_cap):
        raise InvalidInput(
            f"map_points must lie in 1..{MAX_POINTS} and not exceed max_points "
            f"({bounds.max_points}) or epi_cap ({bounds.epi_cap}), got {bounds.map_points}"
        )


def run_suite(suite_id: str, bounds: RunBounds | None = None) -> list[CheckReport]:
    """Execute one registered suite (or ``all``) and return ordered reports.

    A run with a fault injected that fails no check raises InvalidInput: the
    fault never reached a check at these bounds, and the run shows nothing.
    """
    bounds = bounds or RunBounds()
    _validate_bounds(bounds)
    if bounds.fault is not None and bounds.fault not in FAULTS:
        raise UnknownFault(f"unknown fault {bounds.fault!r}; known: {sorted(FAULTS)}")
    if suite_id != "all" and suite_id not in SUITES:
        raise UnknownSuite(f"unknown suite {suite_id!r}; known: {sorted(SUITES)} or 'all'")
    names = list(SUITES) if suite_id == "all" else [suite_id]
    # refused before any corpus is built: the map corpus of 5 points alone
    # takes hundreds of megabytes before the scan would refuse it
    if not PAIR_SCAN_SUITES.isdisjoint(names):
        require_byte_points(bounds.map_points)
    reports: list[CheckReport] = []
    for name in names:
        try:
            reports.extend(SUITES[name](bounds))
        except _CONSTRUCTION_FAILURES as exc:
            reports.append(verdict(name, "construction", [f"{type(exc).__name__}: {exc}"]))
    if bounds.fault is not None and all(r.ok for r in reports):
        raise InvalidInput(f"fault {bounds.fault!r} failed no check of suite {suite_id!r}")
    return reports
