"""Named check suites over the exhaustive corpora, plus fault injection.

Every suite is a pure function of its bounds; runs are sequential and the
emitted report list is deterministically ordered, so output bytes are
reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import (
    MAX_POINTS,
    enumerate_lattices,
    enumerate_spaces,
    lattice_class_counts,
    maps_between,
    recount_lattices,
    recount_topologies,
    spaces_up_to,
)
from .divergences import DIVERGENCES
from .errors import InvalidInput, UnknownFault, UnknownSuite
from .filters import CLOSED_PRIME, OPEN_PRIME, ULTRA, lift_space, member_set, unit
from .frames import (
    LATTICE_ENUM_CAP,
    chain_frame,
    check_compact_regular_coreflection,
    check_ideal_comonad_laws,
    check_ideal_preserves_monos,
    ideal_supremum,
    opens_frame,
    opens_frame_map,
    compose_frame_maps,
    reg_coreflect,
)
from .monadlab import (
    MonadSpec,
    NatTransSpec,
    ReflectorSpec,
    alpha_transformation,
    check_functor_laws,
    check_idempotent,
    check_monad_laws,
    check_monad_morphism,
    check_naturality,
    check_unit_transition_epi,
    compose_reflector_monad,
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
    check_patch_couniversal,
    check_reflector_universal,
    hausdorff_reflect,
    in_hausdorff,
    in_sober,
    in_t0,
    sobrify,
    t0_reflect,
)
from .reports import CheckReport, failed, passed
from .spaces import (
    SUBFAMILY_ENUM_LIMIT,
    ContinuousMap,
    FiniteSpace,
    build_space,
    classify,
    compose,
    composable_pairs,
    enumerate_continuous_maps,
    find_homeomorphism,
    identity_map,
    inverse_map,
    is_homeomorphism,
    is_proper,
    minimal_neighborhood,
    patch_topology,
    specialization,
    way_below_open,
    way_below_via_subset,
)


@dataclass(frozen=True)
class RunBounds:
    """Corpus bounds for one suite invocation."""

    max_points: int = 4  # law-style checks run on classes up to this size
    map_points: int = 3  # map-quantified checks use this smaller corpus
    epi_cap: int = 4  # codomain size bound for epimorphism quantification
    up_to_homeo: bool = True
    lattice_cap: int = 8
    mono_lattice_cap: int = 6
    fault: str | None = None


FAULTS = {
    "sigma-mult-swap": "swap two points in the prime-open-filter multiplication",
    "ultra-mult-swap": "swap two points in the ultrafilter multiplication",
    "pcf-mult-swap": "swap two points in the prime-closed-filter multiplication",
    "t0-coarsen": "replace the T0 quotient by the coarser component quotient",
    "composite-mult-collapse": "collapse the composite multiplication to a constant",
}

# which suite is expected to catch each fault
FAULT_TARGETS = {
    "sigma-mult-swap": "monad-laws",
    "ultra-mult-swap": "monad-laws",
    "pcf-mult-swap": "monad-laws",
    "t0-coarsen": "reflector-universal",
    "composite-mult-collapse": "lemma4.8",
}

_FAULT_KIND = {
    "sigma-mult-swap": OPEN_PRIME,
    "ultra-mult-swap": ULTRA,
    "pcf-mult-swap": CLOSED_PRIME,
}


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


def _monad(kind: str, bounds: RunBounds) -> MonadSpec:
    base = filter_monad(kind)
    if bounds.fault in _FAULT_KIND and _FAULT_KIND[bounds.fault] == kind:
        return _mult_mutated(base, _swap_first_two)
    return base


def _coarsened_t0(space: FiniteSpace):
    return hausdorff_reflect(space)


def _reflector(name: str, bounds: RunBounds) -> ReflectorSpec:
    base = reflector_spec(name)
    if bounds.fault == "t0-coarsen" and name == "t0":
        return ReflectorSpec("t0!", _coarsened_t0, in_t0)
    return base


def _composite(reflector: str, kind: str, bounds: RunBounds) -> MonadSpec:
    made = compose_reflector_monad(_reflector(reflector, bounds), _monad(kind, bounds))
    if bounds.fault == "composite-mult-collapse" and reflector == "t0" and kind == ULTRA:
        return _mult_mutated(made, _constant_at_closed_point)
    return made


def _constant_at_closed_point(space: FiniteSpace) -> ContinuousMap:
    # constants are always continuous; any point does
    return ContinuousMap(space, space, tuple(0 for _ in range(space.n)))


def _spaces(bounds: RunBounds, points: int) -> tuple[FiniteSpace, ...]:
    return spaces_up_to(points, bounds.up_to_homeo)


def _maps(bounds: RunBounds) -> tuple[ContinuousMap, ...]:
    return maps_between(_spaces(bounds, bounds.map_points))


def _class_spaces(bounds: RunBounds, predicate) -> tuple[FiniteSpace, ...]:
    return tuple(s for s in spaces_up_to(bounds.epi_cap, True) if predicate(s))


def _desc(bounds: RunBounds, points: int) -> str:
    return f"classes<={points} ({len(_spaces(bounds, points))})"


def _map_desc(bounds: RunBounds) -> str:
    return f"{_desc(bounds, bounds.map_points)}, maps={len(_maps(bounds))}"


# ---------------------------------------------------------------------------
# suites


def suite_monad_laws(bounds: RunBounds) -> list[CheckReport]:
    spaces = _spaces(bounds, bounds.max_points)
    desc = _desc(bounds, bounds.max_points)
    return [
        check_monad_laws(_monad(kind, bounds), spaces, f"monad-laws[{label}]", desc)
        for kind, label in ((ULTRA, "U"), (OPEN_PRIME, "S"), (CLOSED_PRIME, "P"))
    ]


def suite_prop_3_4(bounds: RunBounds) -> list[CheckReport]:
    spaces = _spaces(bounds, bounds.map_points)
    maps = _maps(bounds)
    desc = _map_desc(bounds)
    u = _monad(ULTRA, bounds)
    out = []
    for kind, label in ((OPEN_PRIME, "S"), (CLOSED_PRIME, "P")):
        out.append(
            check_monad_morphism(
                alpha_transformation(kind), u, _monad(kind, bounds), spaces, maps,
                f"prop3.4[alpha->{label}]", desc,
            )
        )
    surj = all(
        alpha_transformation(CLOSED_PRIME).at(s).is_surjective for s in spaces
    )
    out.append(
        passed("prop3.4[alpha-onto-P]", desc)
        if surj
        else failed("prop3.4[alpha-onto-P]", desc, "comparison not surjective")
    )
    return out


def _natural_homeo_reports(
    lam: NatTransSpec,
    source: MonadSpec,
    target: MonadSpec,
    gamma: NatTransSpec,
    runit: NatTransSpec,
    bounds: RunBounds,
    prefix: str,
) -> list[CheckReport]:
    spaces = _spaces(bounds, bounds.map_points)
    maps = _maps(bounds)
    desc = _map_desc(bounds)
    out = [
        check_monad_morphism(lam, source, target, spaces, maps, f"{prefix}[monad-morphism]", desc)
    ]
    for s in spaces:
        if not is_homeomorphism(lam.at(s)):
            out.append(failed(f"{prefix}[homeomorphism]", desc, f"component at {s!r}"))
            break
        if compose(lam.at(s), runit.at(s)).map != gamma.at(s).map:
            out.append(failed(f"{prefix}[descends-gamma]", desc, f"at {s!r}"))
            break
        if count_descents(gamma.at(s), runit.at(s)) != 1:
            out.append(failed(f"{prefix}[unique]", desc, f"at {s!r}"))
            break
    else:
        out.append(passed(f"{prefix}[homeo-descends-uniquely]", desc))
    return out


def suite_prop_3_6(bounds: RunBounds) -> list[CheckReport]:
    spaces = _spaces(bounds, bounds.map_points)
    maps = _maps(bounds)
    desc = _map_desc(bounds)
    u = _monad(ULTRA, bounds)
    s_monad = _monad(OPEN_PRIME, bounds)
    composite = _composite("t0", ULTRA, bounds)
    out = [check_monad_laws(composite, spaces, "prop3.6[composite-laws]", desc)]
    lam = universal_separation(
        alpha_transformation(OPEN_PRIME), "t0", u, s_monad, spaces, maps
    )
    out.extend(
        _natural_homeo_reports(
            lam, composite, s_monad,
            alpha_transformation(OPEN_PRIME),
            reflection_onto_composite("t0", u),
            bounds, "prop3.6",
        )
    )
    return out


def suite_prop_3_7(bounds: RunBounds) -> list[CheckReport]:
    spaces = _spaces(bounds, bounds.max_points)
    desc = _desc(bounds, bounds.max_points)
    reflect = _reflector("t0", bounds).reflect
    for space in spaces:
        rx, r = reflect(space)
        for o in space.opens:
            if r.preimage(r.image(o)) != o:
                return [failed("prop3.7[lattice-iso]", desc, f"open {o} of {space!r}")]
        for upstairs in rx.opens:
            if r.image(r.preimage(upstairs)) != upstairs:
                return [failed("prop3.7[lattice-iso]", desc, f"open {upstairs} of {rx!r}")]
        if not is_proper(r):
            return [failed("prop3.7[proper]", desc, f"quotient of {space!r}")]
    return [passed("prop3.7[lattice-iso+proper]", desc)]


def suite_thm_4_1(bounds: RunBounds) -> list[CheckReport]:
    """The componentwise reflection is a morphism of monads onto the composite."""
    spaces = _spaces(bounds, bounds.map_points)
    maps = _maps(bounds)
    desc = _map_desc(bounds)
    out = []
    for kind, label in ((ULTRA, "U"), (OPEN_PRIME, "S"), (CLOSED_PRIME, "P")):
        monad = _monad(kind, bounds)
        composite = compose_reflector_monad(_reflector("t0", bounds), monad)
        out.append(
            check_monad_morphism(
                reflection_onto_composite(_reflector("t0", bounds), monad),
                monad, composite, spaces, maps, f"thm4.1[r{label}]", desc,
            )
        )
    return out


def suite_thm_4_6(bounds: RunBounds) -> list[CheckReport]:
    spaces = _spaces(bounds, bounds.map_points)
    desc = _desc(bounds, bounds.map_points)
    out = []
    t0 = _reflector("t0", bounds)
    for kind, label in ((ULTRA, "U"), (OPEN_PRIME, "S"), (CLOSED_PRIME, "P")):
        monad = _monad(kind, bounds)
        for space in spaces:
            rtx = t0.obj(monad.obj(space))
            eta = monad.unit.at(rtx)
            beta = find_splitting(eta)
            if beta is None:
                out.append(
                    failed(f"thm4.6[{label}]", desc, f"unit at {rtx!r} does not split")
                )
                break
            b = _algebra_structure(t0, monad, space)
            if compose(b, eta).map != identity_map(rtx).map:
                out.append(failed(f"thm4.6[{label}]", desc, f"b.unit != id at {space!r}"))
                break
            lhs = compose(b, monad.mor(b))
            rhs = compose(b, monad.mult.at(rtx))
            if lhs.map != rhs.map:
                out.append(failed(f"thm4.6[{label}]", desc, f"b not a structure at {space!r}"))
                break
        else:
            out.append(passed(f"thm4.6[{label}]", desc))
    return out


def _algebra_structure(R: ReflectorSpec, T: MonadSpec, space: FiniteSpace) -> ContinuousMap:
    """Structure morphism on the reflected free object, per the splitting recipe."""
    tx = T.obj(space)
    eta_tx = T.unit.at(tx)
    r_eta = R.mor(eta_tx)
    t_r_eta = T.mor(r_eta)
    rttx = R.obj(T.obj(tx))
    beta = find_splitting(T.unit.at(rttx))
    r_mu = R.mor(T.mult.at(space))
    return compose(r_mu, compose(beta, t_r_eta))


def suite_lemma_4_5(bounds: RunBounds) -> list[CheckReport]:
    spaces = _spaces(bounds, bounds.map_points)
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
                f"{_desc(bounds, bounds.map_points)}, codomains<={bounds.epi_cap}",
            )
        )
    return out


def suite_lemma_4_8(bounds: RunBounds) -> list[CheckReport]:
    spaces = _spaces(bounds, bounds.map_points)
    desc = _desc(bounds, bounds.map_points)
    composite = _composite("t0", ULTRA, bounds)
    out = [
        check_idempotent(composite, spaces, "lemma4.8[t0.U-idempotent]", desc),
        check_idempotent(
            _monad(ULTRA, bounds), spaces, "lemma4.8[U-idempotent]", desc,
        ),
    ]
    if out[-1].ok:
        out[-1] = passed(
            "lemma4.8[U-idempotent]", desc, note=DIVERGENCES["ultra-idempotent"][:64] + "..."
        )
    for kind, label in ((OPEN_PRIME, "S"), (CLOSED_PRIME, "P")):
        monad = _monad(kind, bounds)
        for space in spaces:
            value = monad.obj(space)
            rx, r = t0_reflect(value)
            if rx != value or r.map != identity_map(value).map:
                out.append(
                    failed(f"lemma4.8[{label}-fixed-point]", desc, f"at {space!r}")
                )
                break
        else:
            out.append(passed(f"lemma4.8[{label}-fixed-point]", desc))
    return out


def suite_prop_4_9(bounds: RunBounds) -> list[CheckReport]:
    spaces = _spaces(bounds, bounds.map_points)
    desc = _desc(bounds, bounds.map_points)
    composite = _composite("t0", ULTRA, bounds)
    t0 = _reflector("t0", bounds)
    for x_space in spaces:
        rx = t0.obj(x_space)
        unit_rx = composite.unit.at(rx)
        free_rx = composite.obj(rx)
        struct_rx = composite.mult.at(rx)
        for z_space in spaces:
            algebra = composite.obj(z_space)
            struct_z = composite.mult.at(z_space)
            for f in enumerate_continuous_maps(rx, algebra):
                mediators = [
                    phi
                    for phi in enumerate_continuous_maps(free_rx, algebra)
                    if compose(phi, unit_rx).map == f.map
                    and compose(phi, struct_rx).map
                    == compose(struct_z, composite.mor(phi)).map
                ]
                if len(mediators) != 1:
                    return [
                        failed(
                            "prop4.9", desc,
                            f"{len(mediators)} mediators for f={f.map} on {x_space!r}->{z_space!r}",
                        )
                    ]
    return [passed("prop4.9", desc)]


def suite_prop_4_10(bounds: RunBounds) -> list[CheckReport]:
    spaces = _spaces(bounds, bounds.map_points)
    codomains = spaces_up_to(bounds.epi_cap, True)
    desc = f"{_desc(bounds, bounds.map_points)}, codomains<={bounds.epi_cap}"
    return [
        fakir_test(_composite("t0", ULTRA, bounds), spaces, codomains, "prop4.10[t0.U]", desc),
        fakir_test(identity_monad(), spaces, codomains, "prop4.10[Id]", desc),
        fakir_test(_monad(CLOSED_PRIME, bounds), spaces, codomains, "prop4.10[P]", desc),
    ]


def suite_thm_4_11(bounds: RunBounds) -> list[CheckReport]:
    spaces = _spaces(bounds, bounds.map_points)
    maps = _maps(bounds)
    u = _monad(ULTRA, bounds)
    p = _monad(CLOSED_PRIME, bounds)
    lam = universal_separation(
        alpha_transformation(CLOSED_PRIME), "t0", u, p, spaces, maps
    )
    return _natural_homeo_reports(
        lam, _composite("t0", ULTRA, bounds), p,
        alpha_transformation(CLOSED_PRIME),
        reflection_onto_composite("t0", u),
        bounds, "thm4.11",
    )


def suite_prop_5_1(bounds: RunBounds) -> list[CheckReport]:
    spaces = _spaces(bounds, bounds.map_points)
    desc = _desc(bounds, bounds.map_points)
    u = _monad(ULTRA, bounds)
    for x_space in spaces:
        eta_x = u.unit.at(x_space)
        for y_space in spaces:
            struct = inverse_map(u.unit.at(y_space))  # the unique algebra structure
            for f in enumerate_continuous_maps(x_space, y_space):
                homs = [
                    phi
                    for phi in enumerate_continuous_maps(u.obj(x_space), y_space)
                    if compose(phi, eta_x).map == f.map
                    and compose(phi, u.mult.at(x_space)).map
                    == compose(struct, u.mor(phi)).map
                ]
                if len(homs) != 1:
                    return [
                        failed("prop5.1", desc, f"{len(homs)} algebra maps for f={f.map}")
                    ]
    return [passed("prop5.1", desc)]


def suite_prop_5_2(bounds: RunBounds) -> list[CheckReport]:
    spaces = _spaces(bounds, bounds.map_points)
    targets = _class_spaces(bounds, lambda s: classify(s).is_stably_compact)
    desc = f"{_desc(bounds, bounds.map_points)}, stably compact targets<={bounds.epi_cap}"
    out = []
    for x_space in spaces:
        e = unit(OPEN_PRIME, x_space)
        for y_space in targets:
            by_restriction: dict[tuple[int, ...], int] = {}
            for phi in enumerate_continuous_maps(e.cod, y_space):
                key = compose(phi, e).map
                by_restriction[key] = by_restriction.get(key, 0) + 1
                if not is_proper(phi):
                    out.append(
                        failed("prop5.2[universal]", desc, f"mediator not proper at {x_space!r}")
                    )
                    return out
            for f in enumerate_continuous_maps(x_space, y_space):
                if by_restriction.get(f.map, 0) != 1:
                    out.append(
                        failed(
                            "prop5.2[universal]", desc,
                            f"{by_restriction.get(f.map, 0)} mediators for f={f.map} "
                            f"on {x_space!r} -> {y_space!r}",
                        )
                    )
                    return out
    out.append(passed("prop5.2[universal]", desc))
    for x_space in spaces:
        e = unit(OPEN_PRIME, x_space)
        initial = {e.preimage(o) for o in e.cod.opens} == set(x_space.opens)
        embedding = e.is_injective and initial
        if embedding != classify(x_space).is_T0:
            out.append(
                failed("prop5.2[embedding-iff-T0]", desc, f"at {x_space!r}")
            )
            return out
    out.append(passed("prop5.2[embedding-iff-T0]", desc))
    return out


def suite_prop_5_4(bounds: RunBounds) -> list[CheckReport]:
    spaces = _spaces(bounds, bounds.map_points)
    maps = _maps(bounds)
    desc = _map_desc(bounds)
    u = _monad(ULTRA, bounds)
    s_monad = _monad(OPEN_PRIME, bounds)
    p_monad = _monad(CLOSED_PRIME, bounds)
    phi = universal_separation(
        alpha_transformation(OPEN_PRIME), "t0", u, s_monad, spaces, maps
    )
    lam = universal_separation(
        alpha_transformation(CLOSED_PRIME), "t0", u, p_monad, spaces, maps
    )
    psi = NatTransSpec(
        "open-to-closed", s_monad.functor, p_monad.functor,
        lambda s: compose(lam.at(s), inverse_map(phi.at(s))),
    )
    out = [
        check_monad_morphism(psi, s_monad, p_monad, spaces, maps, "prop5.4[morphism]", desc)
    ]
    if all(is_homeomorphism(psi.at(s)) for s in spaces):
        out.append(passed("prop5.4[iso]", desc))
    else:
        bad = next(s for s in spaces if not is_homeomorphism(psi.at(s)))
        out.append(failed("prop5.4[iso]", desc, f"component at {bad!r}"))
    return out


def suite_prop_5_7(bounds: RunBounds) -> list[CheckReport]:
    spaces = _spaces(bounds, bounds.map_points)
    maps = _maps(bounds)
    desc = _map_desc(bounds)
    u = _monad(ULTRA, bounds)
    s_monad = _monad(OPEN_PRIME, bounds)
    hu = _composite("hausdorff", ULTRA, bounds)
    hs = _composite("hausdorff", OPEN_PRIME, bounds)
    h_sigma = reflection_onto_composite("hausdorff", s_monad)
    gamma = NatTransSpec(
        "h-alpha", u.functor, hs.functor,
        lambda s: compose(h_sigma.at(s), alpha_transformation(OPEN_PRIME).at(s)),
    )
    lam = universal_separation(gamma, "hausdorff", u, hs, spaces, maps)
    out = _natural_homeo_reports(
        lam, hu, hs, gamma, reflection_onto_composite("hausdorff", u), bounds, "prop5.7"
    )
    for space in spaces:
        components, quotient = hausdorff_reflect(space)
        for monad in (hu, hs):
            obj = monad.obj(space)
            if find_homeomorphism(obj, components) is None:
                out.append(
                    failed("prop5.7[components]", desc, f"{monad.name} at {space!r}")
                )
                return out
        value = hu.obj(space)
        if not (classify(value).is_hausdorff and classify(value).is_stably_compact):
            out.append(failed("prop5.7[compact-hausdorff]", desc, f"at {space!r}"))
            return out
        unit_map = hu.unit.at(space)
        fibers = {}
        for x in range(space.n):
            fibers.setdefault(unit_map(x), set()).add(quotient(x))
        if any(len(v) != 1 for v in fibers.values()):
            out.append(failed("prop5.7[components]", desc, f"unit fibers at {space!r}"))
            return out
    out.append(passed("prop5.7[components]", desc))
    out.append(passed("prop5.7[compact-hausdorff]", desc))
    return out


def suite_lemma_2_6(bounds: RunBounds) -> list[CheckReport]:
    spaces = tuple(
        s for s in _spaces(bounds, bounds.map_points) if classify(s).is_stably_compact
    )
    sources = tuple(
        s for s in _spaces(bounds, bounds.map_points) if classify(s).is_hausdorff
    )
    desc = f"{len(spaces)} stably compact spaces, {len(sources)} compact Hausdorff sources"
    for space in spaces:
        report = check_patch_couniversal(space, sources)
        if not report.ok:
            return [failed("lemma2.6", desc, report.witness)]
    return [passed("lemma2.6", desc)]


def suite_lemma_5_3(bounds: RunBounds) -> list[CheckReport]:
    spaces = _spaces(bounds, bounds.map_points)
    desc = _desc(bounds, bounds.map_points)
    for space in spaces:
        lifted = lift_space(ULTRA, space)
        _, r = t0_reflect(lifted.space)
        closeds = set(space.closeds)
        for i, p in enumerate(lifted.points):
            for j, q in enumerate(lifted.points):
                same_class = r(i) == r(j)
                closed_parts_equal = (
                    tuple(m for m in p.elements if m in closeds)
                    == tuple(m for m in q.elements if m in closeds)
                )
                if same_class != closed_parts_equal:
                    return [
                        failed("lemma5.3", desc, f"filters {i},{j} on {space!r}")
                    ]
    return [passed("lemma5.3", desc)]


def suite_lemma_5_8(bounds: RunBounds) -> list[CheckReport]:
    lattices = enumerate_lattices(bounds.lattice_cap)
    return [
        check_compact_regular_coreflection(
            lattices, "lemma5.8", f"{len(lattices)} frames<= {bounds.lattice_cap}"
        )
    ]


def suite_prop_5_9(bounds: RunBounds) -> list[CheckReport]:
    lattices = enumerate_lattices(bounds.mono_lattice_cap)
    return [
        check_ideal_preserves_monos(
            lattices, "prop5.9", f"{len(lattices)} frames<= {bounds.mono_lattice_cap}"
        )
    ]


def suite_ideal_comonad(bounds: RunBounds) -> list[CheckReport]:
    lattices = enumerate_lattices(bounds.lattice_cap)
    desc = f"{len(lattices)} frames<= {bounds.lattice_cap}"
    out = [check_ideal_comonad_laws(lattices, "ideal-comonad[laws]", desc)]
    for frame in lattices:
        sup = ideal_supremum(frame)
        if not (len(set(sup.map)) == frame.k == sup.dom.k):
            out.append(
                failed("ideal-comonad[principal]", desc, f"counit not iso on {frame!r}")
            )
            break
    else:
        out.append(passed("ideal-comonad[principal]", desc))
    reg, incl = reg_coreflect(chain_frame(3))
    if reg.k == 2 and incl.map == (0, 2):
        out.append(passed("ideal-comonad[reg-3chain]", "three-element chain"))
    else:
        out.append(
            failed("ideal-comonad[reg-3chain]", "three-element chain", f"got {incl.map}")
        )
    return out


def suite_example_2_2(bounds: RunBounds) -> list[CheckReport]:
    spaces = _spaces(bounds, bounds.max_points)
    desc = _desc(bounds, bounds.max_points)
    example = build_space(3, [{0}])
    profile = classify(example)
    good = (
        profile.is_stable
        and profile.is_locally_compact
        and profile.is_weakly_sober
        and not profile.is_T0
        and profile.irreducible_closed_sets == (0b110, 0b111)
    )
    out = [
        passed("example2.2[classification]", "the three-point witness")
        if good
        else failed("example2.2[classification]", "the three-point witness", f"{profile}")
    ]
    sierpinski = build_space(2, [{1}])
    out.append(
        passed("example2.2[sierpinski]", "two-point chain")
        if classify(sierpinski).is_stably_compact
        else failed("example2.2[sierpinski]", "two-point chain", "not stably compact")
    )
    for space in spaces:
        p = classify(space)
        if not (p.is_weakly_sober and p.is_salbany):
            out.append(failed("example2.2[all-weakly-sober]", desc, f"{space!r}"))
            return out
        if p.is_stably_compact != p.is_T0:
            out.append(failed("example2.2[stably-compact-iff-T0]", desc, f"{space!r}"))
            return out
    out.append(passed("example2.2[all-weakly-sober]", desc))
    out.append(passed("example2.2[stably-compact-iff-T0]", desc))
    return out


def suite_topo_invariants(bounds: RunBounds) -> list[CheckReport]:
    spaces = _spaces(bounds, bounds.max_points)
    desc = _desc(bounds, bounds.max_points)
    out = []
    for space in spaces:
        if len(space.opens) > SUBFAMILY_ENUM_LIMIT:
            continue  # the definitional route refuses; shortcut-only beyond
        for o in space.opens:
            for under in space.opens:
                if way_below_open(space, o, under) != way_below_via_subset(space, o, under):
                    out.append(
                        failed("invariants[way-below]", desc, f"({o},{under}) on {space!r}")
                    )
                    return out
    out.append(passed("invariants[way-below]", desc, note=DIVERGENCES["way-below-is-inclusion"][:60]))
    for space in spaces:
        if classify(space).is_stably_compact:
            patched = patch_topology(space)
            if not classify(patched).is_hausdorff or patch_topology(patched) != patched:
                out.append(failed("invariants[patch]", desc, f"{space!r}"))
                return out
        if specialization(space).is_antisymmetric != classify(space).is_T0:
            out.append(failed("invariants[specialization-T0]", desc, f"{space!r}"))
            return out
    out.append(passed("invariants[patch]", desc))
    out.append(passed("invariants[specialization-T0]", desc))
    small = _spaces(bounds, bounds.map_points)
    for a in small:
        order_a = specialization(a).leq
        for b in small:
            order_b = specialization(b).leq
            monotone = [
                arr
                for arr in _all_functions(a.n, b.n)
                if all(
                    not order_a[x][y] or order_b[arr[x]][arr[y]]
                    for x in range(a.n)
                    for y in range(a.n)
                )
            ]
            continuous = [f.map for f in enumerate_continuous_maps(a, b)]
            if monotone != continuous:
                out.append(failed("invariants[continuous=monotone]", desc, f"{a!r}->{b!r}"))
                return out
    out.append(passed("invariants[continuous=monotone]", _desc(bounds, bounds.map_points)))
    return out


def _all_functions(n: int, m: int) -> list[tuple[int, ...]]:
    import itertools

    return [arr for arr in itertools.product(range(m), repeat=n)]


def suite_reflector_universal(bounds: RunBounds) -> list[CheckReport]:
    spaces = _spaces(bounds, bounds.map_points)
    desc = _desc(bounds, bounds.map_points)
    t0 = _reflector("t0", bounds)
    return [
        check_reflector_universal(
            t0.reflect, spaces, in_t0, "reflector-universal[t0]", desc
        ),
        check_reflector_universal(
            sobrify, spaces, in_sober, "reflector-universal[sober]", desc
        ),
        check_reflector_universal(
            hausdorff_reflect, spaces, in_hausdorff, "reflector-universal[hausdorff]", desc
        ),
    ]


def suite_filter_naturality(bounds: RunBounds) -> list[CheckReport]:
    spaces = _spaces(bounds, bounds.map_points)
    maps = _maps(bounds)
    desc = _map_desc(bounds)
    out = []
    for kind, label in ((ULTRA, "U"), (OPEN_PRIME, "S"), (CLOSED_PRIME, "P")):
        monad = _monad(kind, bounds)
        out.append(
            check_functor_laws(monad.functor, spaces, maps, f"filters[functor-{label}]", desc)
        )
        out.append(
            check_naturality(monad.unit, maps, f"filters[unit-natural-{label}]", desc)
        )
        out.append(
            check_naturality(monad.mult, maps, f"filters[mult-natural-{label}]", desc)
        )
    for kind, label in ((OPEN_PRIME, "S"), (CLOSED_PRIME, "P")):
        out.append(
            check_naturality(
                alpha_transformation(kind), maps, f"filters[alpha-natural-{label}]", desc
            )
        )
    for space in spaces:
        eta = unit(ULTRA, space)
        if any(eta.preimage(member_set(ULTRA, space, o)) != o for o in space.opens):
            out.append(failed("filters[unit-preimage]", desc, f"at {space!r}"))
            return out
        for kind in (OPEN_PRIME, CLOSED_PRIME):
            if not classify(lift_space(kind, space).space).is_stably_compact:
                out.append(failed("filters[lift-stably-compact]", desc, f"{kind} at {space!r}"))
                return out
        gens = {p.generator for p in lift_space(OPEN_PRIME, space).points}
        hoods = {minimal_neighborhood(space, x) for x in range(space.n)}
        if gens != hoods:
            out.append(failed("filters[minimal-neighborhoods]", desc, f"at {space!r}"))
            return out
    out.append(passed("filters[unit-preimage]", desc))
    out.append(passed("filters[lift-stably-compact]", desc))
    out.append(passed("filters[minimal-neighborhoods]", desc))
    return out


def suite_prop_3_1(bounds: RunBounds) -> list[CheckReport]:
    spaces = _spaces(bounds, bounds.map_points)
    desc = _desc(bounds, bounds.map_points)
    for space in spaces:
        lifted = lift_space(ULTRA, space)
        if not classify(lifted.space).is_salbany:
            return [failed("prop3.1[salbany]", desc, f"at {space!r}")]
        eta = unit(ULTRA, space)
        if find_splitting(eta) is None:
            return [failed("prop3.1[retraction]", desc, f"at {space!r}")]
        if not eta.is_surjective:
            return [failed("prop3.1[patch-dense]", desc, f"at {space!r}")]
    return [
        passed("prop3.1[salbany]", desc),
        passed("prop3.1[retraction]", desc),
        passed(
            "prop3.1[patch-dense]", desc,
            note=DIVERGENCES["patch-density-vacuous"][:60],
        ),
    ]


def suite_sobriety(bounds: RunBounds) -> list[CheckReport]:
    spaces = _spaces(bounds, bounds.max_points)
    desc = _desc(bounds, bounds.max_points)
    for space in spaces:
        sx, smap = sobrify(space)
        rx, _ = t0_reflect(space)
        if not classify(sx).is_sober:
            return [failed("sobriety[result-sober]", desc, f"at {space!r}")]
        if find_homeomorphism(sx, rx) is None:
            return [failed("sobriety[matches-t0]", desc, f"at {space!r}")]
        if not smap.is_surjective:
            return [failed("sobriety[unit-epi]", desc, f"at {space!r}")]
    small = _spaces(bounds, bounds.map_points)
    for space in small:
        ux = lift_space(ULTRA, space).space
        if find_homeomorphism(sobrify(ux)[0], t0_reflect(ux)[0]) is None:
            return [failed("sobriety[filter-space]", desc, f"at {space!r}")]
    return [
        passed("sobriety[result-sober]", desc),
        passed("sobriety[matches-t0]", desc, note=DIVERGENCES["sobrification-is-t0"][:60]),
        passed("sobriety[unit-epi]", desc),
        passed("sobriety[filter-space]", _desc(bounds, bounds.map_points)),
    ]


def suite_divergences(bounds: RunBounds) -> list[CheckReport]:
    spaces = _spaces(bounds, bounds.map_points)
    maps = _maps(bounds)
    desc = _map_desc(bounds)
    out = []
    if all(is_proper(f) for f in maps):
        out.append(passed("divergence[proper]", desc, note=DIVERGENCES["proper-constant-true"][:60]))
    else:
        bad = next(f for f in maps if not is_proper(f))
        out.append(failed("divergence[proper]", desc, f"{bad.map}"))
    big = _spaces(bounds, bounds.max_points)
    if all(is_homeomorphism(unit(ULTRA, s)) for s in big):
        out.append(
            passed(
                "divergence[ultra-identity]", _desc(bounds, bounds.max_points),
                note=DIVERGENCES["ultra-space-identity"][:60],
            )
        )
    else:
        out.append(failed("divergence[ultra-identity]", desc, "unit not a homeomorphism"))
    if all(
        find_homeomorphism(sobrify(s)[0], t0_reflect(s)[0]) is not None for s in big
    ):
        out.append(
            passed(
                "divergence[sobrify-t0]", _desc(bounds, bounds.max_points),
                note=DIVERGENCES["sobrification-is-t0"][:60],
            )
        )
    else:
        out.append(failed("divergence[sobrify-t0]", desc, "sobrification differs"))
    reflector = _reflector("t0", bounds)
    report = check_unit_transition_epi(
        reflector, _monad(ULTRA, bounds), spaces,
        _class_spaces(bounds, reflector.in_class),
        "divergence[reflected-unit-epi]",
        f"{desc}, codomains<={bounds.epi_cap}",
    )
    if report.ok:
        report = passed(
            report.check_id, report.corpus, note=DIVERGENCES["reflected-unit-epi"][:60]
        )
    out.append(report)
    return out


def suite_corpus_counts(bounds: RunBounds) -> list[CheckReport]:
    expected_labeled = {1: 1, 2: 4, 3: 29, 4: 355}
    expected_classes = {1: 1, 2: 3, 3: 9, 4: 33}
    out = []
    for n in range(1, 5):
        labeled = len(enumerate_spaces(n))
        recount = recount_topologies(n)
        classes = len(enumerate_spaces(n, up_to_homeo=True))
        canonical = _recount_classes(n)
        if labeled != recount or labeled != expected_labeled[n]:
            out.append(
                failed("corpus[labeled]", f"n={n}", f"{labeled} vs recount {recount}")
            )
            return out
        if classes != canonical or classes != expected_classes[n]:
            out.append(
                failed("corpus[classes]", f"n={n}", f"{classes} vs recount {canonical}")
            )
            return out
    out.append(passed("corpus[labeled]", "n=1..4 vs subset-family recount"))
    out.append(passed("corpus[classes]", "n=1..4 vs canonical-form recount"))
    birkhoff = lattice_class_counts(6)
    direct = recount_lattices(6)
    if birkhoff == direct:
        out.append(passed("corpus[lattices]", "k<=6 vs order-matrix recount"))
    else:
        out.append(failed("corpus[lattices]", "k<=6", f"{birkhoff} vs {direct}"))
    return out


def _recount_classes(n: int) -> int:
    """Class count by permutation canonicalization, independent of the
    homeomorphism search."""
    import itertools as it

    forms = set()
    for space in enumerate_spaces(n):
        best = None
        for perm in it.permutations(range(n)):
            relabeled = tuple(
                sorted(
                    sum(1 << perm[x] for x in range(n) if o >> x & 1)
                    for o in space.opens
                )
            )
            if best is None or relabeled < best:
                best = relabeled
        forms.add(best)
    return len(forms)


def suite_frame_bridge(bounds: RunBounds) -> list[CheckReport]:
    maps = _maps(bounds)
    desc = _map_desc(bounds)
    frame_maps = {}
    for f in maps:
        lifted = opens_frame_map(f)
        if lifted.dom != opens_frame(f.cod) or lifted.cod != opens_frame(f.dom):
            return [failed("frame-bridge[contravariant]", desc, f"{f.map}")]
        frame_maps[f] = lifted
    for f, g, gf in composable_pairs(maps):
        once = frame_maps.get(gf) or opens_frame_map(gf)
        twice = compose_frame_maps(frame_maps[f], frame_maps[g])
        if once.map != twice.map:
            return [failed("frame-bridge[functorial]", desc, f"{f.map};{g.map}")]
    e1 = build_space(3, [{0}])
    if opens_frame(e1).k != 3:
        return [failed("frame-bridge[chain]", desc, "three-point example")]
    return [
        passed("frame-bridge[contravariant]", desc),
        passed("frame-bridge[functorial]", desc),
        passed("frame-bridge[chain]", "three-point example"),
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


def _validate_bounds(bounds: RunBounds) -> None:
    """Reject bounds that would quantify over nothing or past a corpus cap."""
    caps = {
        "max_points": MAX_POINTS,
        "map_points": MAX_POINTS,
        "epi_cap": MAX_POINTS,
        "lattice_cap": LATTICE_ENUM_CAP,
        "mono_lattice_cap": LATTICE_ENUM_CAP,
    }
    for name, cap in caps.items():
        value = getattr(bounds, name)
        if not 1 <= value <= cap:
            raise InvalidInput(f"{name} must lie in 1..{cap}, got {value}")
    if bounds.epi_cap < bounds.map_points:
        raise InvalidInput("the epimorphism cap must cover the map corpus size")


def run_suite(suite_id: str, bounds: RunBounds | None = None) -> list[CheckReport]:
    """Execute one registered suite (or ``all``) and return ordered reports."""
    bounds = bounds or RunBounds()
    _validate_bounds(bounds)
    if bounds.fault is not None and bounds.fault not in FAULTS:
        raise UnknownFault(f"unknown fault {bounds.fault!r}; known: {sorted(FAULTS)}")
    if suite_id == "all":
        reports: list[CheckReport] = []
        for name in SUITES:
            reports.extend(SUITES[name](bounds))
        return reports
    if suite_id not in SUITES:
        raise UnknownSuite(f"unknown suite {suite_id!r}; known: {sorted(SUITES)} or 'all'")
    return SUITES[suite_id](bounds)
