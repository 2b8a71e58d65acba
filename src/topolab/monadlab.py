"""Executable functors, natural transformations, monads and reflectors over
finite spaces, with the law checkers and the reflector-composition engine.

Functors and transformations are extensional: evaluated per object and per
morphism, memoized on the canonical space encoding.  Every categorical claim
is decided by finite evaluation over an explicit corpus.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from . import filters
from .errors import HypothesisViolated, InvalidInput, NoSplitting
from .reports import CheckReport, failed, not_applicable, passed
from .reflectors import (
    CLASS_PREDICATES,
    REFLECT_OPS,
    factor_through_reflection,
)
from .spaces import (
    ContinuousMap,
    FiniteSpace,
    compose,
    composable_pairs,
    enumerate_continuous_maps,
    identity_map,
    is_homeomorphism,
    restriction_counts,
)


def _cached(fn):
    return lru_cache(maxsize=None)(fn)


@dataclass(frozen=True)
class EndofunctorSpec:
    """A functor given by its actions: ``F.obj(space)`` and ``F.mor(f)``."""

    name: str
    obj: Callable[[FiniteSpace], FiniteSpace]
    mor: Callable[[ContinuousMap], ContinuousMap]


@dataclass(frozen=True)
class NatTransSpec:
    """A transformation given by its components: ``nt.at(space)``."""

    name: str
    source: EndofunctorSpec
    target: EndofunctorSpec
    at: Callable[[FiniteSpace], ContinuousMap]


@dataclass(frozen=True)
class MonadSpec:
    name: str
    functor: EndofunctorSpec
    unit: NatTransSpec
    mult: NatTransSpec

    def obj(self, space: FiniteSpace) -> FiniteSpace:
        return self.functor.obj(space)

    def mor(self, f: ContinuousMap) -> ContinuousMap:
        return self.functor.mor(f)


@dataclass(frozen=True)
class ReflectorSpec:
    name: str
    reflect: Callable[[FiniteSpace], tuple[FiniteSpace, ContinuousMap]]
    in_class: Callable[[FiniteSpace], bool]

    def obj(self, space: FiniteSpace) -> FiniteSpace:
        return self.reflect(space)[0]

    def unit_at(self, space: FiniteSpace) -> ContinuousMap:
        return self.reflect(space)[1]

    def mor(self, f: ContinuousMap) -> ContinuousMap:
        _, r_dom = self.reflect(f.dom)
        _, r_cod = self.reflect(f.cod)
        return factor_through_reflection(compose(r_cod, f), r_dom, self.in_class)


IDENTITY_FUNCTOR = EndofunctorSpec("Id", lambda s: s, lambda f: f)


def composed_functor(outer: EndofunctorSpec, inner: EndofunctorSpec) -> EndofunctorSpec:
    return EndofunctorSpec(
        f"{outer.name}{inner.name}",
        _cached(lambda s: outer.obj(inner.obj(s))),
        _cached(lambda f: outer.mor(inner.mor(f))),
    )


@lru_cache(maxsize=None)
def filter_monad(kind: str) -> MonadSpec:
    """The ultrafilter / prime-open-filter / prime-closed-filter space monad."""
    if kind not in filters.KINDS:
        raise InvalidInput(f"unknown filter kind {kind!r}")
    functor = EndofunctorSpec(
        {"ultra": "U", "open-prime": "S", "closed-prime": "P"}[kind],
        _cached(lambda s: filters.lift_space(kind, s).space),
        _cached(lambda f: filters.lift_map(kind, f)),
    )
    unit = NatTransSpec(
        f"unit[{kind}]", IDENTITY_FUNCTOR, functor, _cached(lambda s: filters.unit(kind, s))
    )
    mult = NatTransSpec(
        f"mult[{kind}]",
        composed_functor(functor, functor),
        functor,
        _cached(lambda s: filters.mult(kind, s)),
    )
    return MonadSpec(functor.name, functor, unit, mult)


@lru_cache(maxsize=None)
def identity_monad() -> MonadSpec:
    unit = NatTransSpec("unit[Id]", IDENTITY_FUNCTOR, IDENTITY_FUNCTOR, identity_map)
    mult = NatTransSpec("mult[Id]", IDENTITY_FUNCTOR, IDENTITY_FUNCTOR, identity_map)
    return MonadSpec("Id", IDENTITY_FUNCTOR, unit, mult)


@lru_cache(maxsize=None)
def reflector_spec(name: str) -> ReflectorSpec:
    if name not in REFLECT_OPS:
        raise InvalidInput(f"unknown reflector {name!r}")
    return ReflectorSpec(name, REFLECT_OPS[name], CLASS_PREDICATES[name])


def alpha_transformation(target_kind: str) -> NatTransSpec:
    """The comparison from the ultrafilter space onto a prime filter space."""
    src = filter_monad(filters.ULTRA).functor
    dst = filter_monad(target_kind).functor
    return NatTransSpec(
        f"alpha[{target_kind}]", src, dst, _cached(lambda s: filters.alpha(target_kind, s))
    )


def horizontal(beta: NatTransSpec, alpha: NatTransSpec, space: FiniteSpace) -> ContinuousMap:
    """(beta . alpha)_X, evaluated by both middle-interchange decompositions.

    The two readings must agree; their agreement is asserted on every call.
    """
    left = compose(
        beta.at(alpha.target.obj(space)), beta.source.mor(alpha.at(space))
    )
    right = compose(
        beta.target.mor(alpha.at(space)), beta.at(alpha.source.obj(space))
    )
    if left.map != right.map:
        raise HypothesisViolated(
            f"middle-interchange decompositions of {beta.name}.{alpha.name} differ at {space!r}"
        )
    return left


def find_splitting(m: ContinuousMap) -> ContinuousMap | None:
    """First (lexicographic) continuous left inverse of an injective map."""
    if not m.is_injective:
        raise HypothesisViolated("splittings are searched for injective maps only")
    for g in enumerate_continuous_maps(m.cod, m.dom):
        if compose(g, m).map == identity_map(m.dom).map:
            return g
    return None


def algebra_structure(R: ReflectorSpec, T: MonadSpec, space: FiniteSpace) -> ContinuousMap:
    """The algebra structure b: T.RTX -> RTX on the reflected free object.

    A splitting of the unit at the reflected double-free object RTTX is
    massaged into b; raises NoSplitting when that unit has no retraction.
    """
    tx = T.obj(space)
    eta_tx = T.unit.at(tx)  # TX -> TTX
    r_eta = R.mor(eta_tx)  # RTX -> RTTX
    t_r_eta = T.mor(r_eta)  # T.RTX -> T.RTTX
    rttx = R.obj(T.obj(tx))
    beta = find_splitting(T.unit.at(rttx))  # T.RTTX -> RTTX
    if beta is None:
        raise NoSplitting(f"unit of {T.name} at {rttx!r} admits no continuous retraction")
    r_mu = R.mor(T.mult.at(space))  # RTTX -> RTX
    return compose(r_mu, compose(beta, t_r_eta))


@lru_cache(maxsize=None)
def compose_reflector_monad(R: ReflectorSpec, monad: MonadSpec) -> MonadSpec:
    """Build the composite monad of a reflector after a monad.

    The unit is the horizontal composite of the two units.  The
    multiplication at X is the algebra structure b on the reflected free
    object (:func:`algebra_structure`), descended along the reflection of
    the free step.
    """
    T = monad
    functor = EndofunctorSpec(
        f"{R.name}.{T.name}",
        _cached(lambda s: R.obj(T.obj(s))),
        _cached(lambda f: R.mor(T.mor(f))),
    )

    def unit_component(space: FiniteSpace) -> ContinuousMap:
        eta = T.unit.at(space)
        first = compose(R.unit_at(T.obj(space)), eta)  # r_TX . eta_X
        second = compose(R.mor(eta), R.unit_at(space))  # R(eta_X) . r_X
        if first.map != second.map:
            raise HypothesisViolated(
                f"unit decompositions of {functor.name} differ at {space!r}"
            )
        return first

    def mult_component(space: FiniteSpace) -> ContinuousMap:
        _, r_free = R.reflect(T.obj(R.obj(T.obj(space))))  # T.RTX -> RT.RTX
        return factor_through_reflection(algebra_structure(R, T, space), r_free, R.in_class)

    unit = NatTransSpec(
        f"unit[{functor.name}]", IDENTITY_FUNCTOR, functor, _cached(unit_component)
    )
    mult = NatTransSpec(
        f"mult[{functor.name}]",
        composed_functor(functor, functor),
        functor,
        _cached(mult_component),
    )
    return MonadSpec(functor.name, functor, unit, mult)


def reflection_onto_composite(R: ReflectorSpec, monad: MonadSpec) -> NatTransSpec:
    """The componentwise reflection unit r_TX, as a transformation T -> RT."""
    composite = compose_reflector_monad(R, monad)
    return NatTransSpec(
        f"r{monad.name}",
        monad.functor,
        composite.functor,
        _cached(lambda s: R.unit_at(monad.obj(s))),
    )


# ---------------------------------------------------------------------------
# law checkers


def check_functor_laws(
    functor: EndofunctorSpec,
    spaces: tuple[FiniteSpace, ...],
    maps: tuple[ContinuousMap, ...],
    check_id: str = "functor-laws",
    corpus_desc: str = "",
) -> CheckReport:
    """Identities on every corpus space, composition on every composable pair.

    Composition is quantified over the pairs ``(f, g)`` of ``maps`` with
    ``f.cod == g.dom`` only, f-major in corpus order, so the witness is the
    first failing pair of the all-pairs scan.
    """
    desc = corpus_desc or f"{len(spaces)} spaces, {len(maps)} maps"
    for space in spaces:
        if functor.mor(identity_map(space)).map != identity_map(functor.obj(space)).map:
            return failed(check_id, desc, f"{functor.name} breaks identities at {space!r}")
    for f, g, gf in composable_pairs(maps):
        if functor.mor(gf).map != compose(functor.mor(g), functor.mor(f)).map:
            return failed(
                check_id, desc, f"{functor.name} breaks composition at {f.map};{g.map}"
            )
    return passed(check_id, desc)


def check_naturality(
    nt: NatTransSpec,
    maps: tuple[ContinuousMap, ...],
    check_id: str = "naturality",
    corpus_desc: str = "",
) -> CheckReport:
    desc = corpus_desc or f"{len(maps)} maps"
    for f in maps:
        lhs = compose(nt.at(f.cod), nt.source.mor(f))
        rhs = compose(nt.target.mor(f), nt.at(f.dom))
        if lhs.map != rhs.map:
            return failed(
                check_id, desc, f"{nt.name} square fails at {f.dom!r} -> {f.cod!r}, f={f.map}"
            )
    return passed(check_id, desc)


def check_monad_laws(
    monad: MonadSpec,
    spaces: tuple[FiniteSpace, ...],
    check_id: str = "monad-laws",
    corpus_desc: str = "",
) -> CheckReport:
    """Both unit laws and associativity, pointwise on every corpus space."""
    desc = corpus_desc or f"{len(spaces)} spaces"
    for space in spaces:
        tx = monad.obj(space)
        eta = monad.unit.at(space)
        mu = monad.mult.at(space)
        ident = identity_map(tx).map
        if compose(mu, monad.unit.at(tx)).map != ident:
            return failed(check_id, desc, f"{monad.name}: mu.(unit at T) fails at {space!r}")
        if compose(mu, monad.mor(eta)).map != ident:
            return failed(check_id, desc, f"{monad.name}: mu.T(unit) fails at {space!r}")
        lhs = compose(mu, monad.mult.at(tx))
        rhs = compose(mu, monad.mor(mu))
        if lhs.map != rhs.map:
            return failed(check_id, desc, f"{monad.name}: associativity fails at {space!r}")
    return passed(check_id, desc)


def check_monad_morphism(
    nt: NatTransSpec,
    source: MonadSpec,
    target: MonadSpec,
    spaces: tuple[FiniteSpace, ...],
    maps: tuple[ContinuousMap, ...] = (),
    check_id: str = "monad-morphism",
    corpus_desc: str = "",
) -> CheckReport:
    """Compatibility with both units and both multiplications, plus naturality."""
    desc = corpus_desc or f"{len(spaces)} spaces, {len(maps)} maps"
    nat = check_naturality(nt, maps, check_id, desc)
    if not nat.ok:
        return nat
    for space in spaces:
        if compose(nt.at(space), source.unit.at(space)).map != target.unit.at(space).map:
            return failed(check_id, desc, f"{nt.name} misses the unit at {space!r}")
        squared = horizontal(nt, nt, space)
        lhs = compose(nt.at(space), source.mult.at(space))
        rhs = compose(target.mult.at(space), squared)
        if lhs.map != rhs.map:
            return failed(check_id, desc, f"{nt.name} misses the multiplication at {space!r}")
    return passed(check_id, desc)


def _restriction_injective(pre: ContinuousMap, codomain: FiniteSpace) -> bool:
    """Is g -> g . pre injective over all continuous g: pre.cod -> codomain?"""
    return all(n == 1 for n in restriction_counts(pre, codomain).values())


def check_unit_transition_epi(
    R: ReflectorSpec,
    monad: MonadSpec,
    spaces: tuple[FiniteSpace, ...],
    codomains: tuple[FiniteSpace, ...],
    check_id: str = "unit-transition-epi",
    corpus_desc: str = "",
) -> CheckReport:
    """Two equivalent readings of the reflected-unit epimorphism condition.

    Reading one: composing with the monad unit is injective on maps from the
    free object into class members.  Reading two: the reflected unit is an
    epimorphism inside the reflective class, decided by bounded
    quantification over the supplied codomains.  Both are evaluated and must
    agree instance by instance.
    """
    desc = corpus_desc or f"{len(spaces)} spaces, {len(codomains)} codomains"
    targets = tuple(z for z in codomains if R.in_class(z))
    for space in spaces:
        eta = monad.unit.at(space)
        r_eta = R.mor(eta)  # RX -> RTX
        parallel = all(_restriction_injective(eta, z) for z in targets)
        epi = all(_restriction_injective(r_eta, z) for z in targets)
        if parallel != epi:
            return failed(
                check_id, desc, f"formulations disagree at {space!r}: {parallel} vs {epi}"
            )
        if not epi:
            return failed(check_id, desc, f"reflected unit not epi at {space!r}")
    return passed(check_id, desc)


def check_idempotent(
    monad: MonadSpec,
    spaces: tuple[FiniteSpace, ...],
    check_id: str = "idempotent",
    corpus_desc: str = "",
) -> CheckReport:
    """A monad is idempotent when every multiplication component is invertible."""
    desc = corpus_desc or f"{len(spaces)} spaces"
    for space in spaces:
        if not is_homeomorphism(monad.mult.at(space)):
            return failed(
                check_id, desc, f"{monad.name}: mult not a homeomorphism at {space!r}"
            )
    return passed(check_id, desc)


def fakir_test(
    monad: MonadSpec,
    spaces: tuple[FiniteSpace, ...],
    codomains: tuple[FiniteSpace, ...],
    check_id: str = "fakir",
    corpus_desc: str = "",
) -> CheckReport:
    """For an idempotent monad: wherever the unit is monic it must be epic.

    Epimorphy is decided both as surjectivity and by bounded parallel-pair
    quantification over the supplied codomains; the two must agree.
    """
    desc = corpus_desc or f"{len(spaces)} spaces"
    idem = check_idempotent(monad, spaces)
    if not idem.ok:
        return not_applicable(check_id, desc, note=f"{monad.name} is not idempotent")
    for space in spaces:
        e = monad.unit.at(space)
        if not e.is_injective:
            continue  # hypothesis empty at this instance
        bounded_epi = all(_restriction_injective(e, z) for z in codomains)
        if bounded_epi != e.is_surjective:
            return failed(
                check_id, desc, f"epi readings disagree at {space!r}"
            )
        if not bounded_epi:
            return failed(check_id, desc, f"monic unit fails to be epic at {space!r}")
    return passed(check_id, desc)


def monad_preserves_epis(
    monad: MonadSpec, maps: tuple[ContinuousMap, ...]
) -> ContinuousMap | None:
    """Return a surjection whose image under the monad is not surjective, if any."""
    for f in maps:
        if f.is_surjective and not monad.mor(f).is_surjective:
            return f
    return None


def universal_separation(
    gamma: NatTransSpec,
    R: ReflectorSpec,
    source: MonadSpec,
    target: MonadSpec,
    spaces: tuple[FiniteSpace, ...],
    maps: tuple[ContinuousMap, ...],
) -> NatTransSpec:
    """Descend a monad morphism out of T to one out of the composite R.T.

    Hypotheses are tested, not assumed: the target monad must take values in
    the reflective class, and T must preserve epimorphisms on the corpus.
    """
    for space in spaces:
        if not R.in_class(target.obj(space)):
            raise HypothesisViolated(
                f"{target.name}{space!r} is outside the {R.name} class"
            )
    bad = monad_preserves_epis(source, maps)
    if bad is not None:
        raise HypothesisViolated(
            f"{source.name} does not preserve the epimorphism {bad.map}"
        )
    composite = compose_reflector_monad(R, source)

    def component(space: FiniteSpace) -> ContinuousMap:
        _, r = R.reflect(source.obj(space))
        return factor_through_reflection(gamma.at(space), r, R.in_class)

    return NatTransSpec(
        f"lambda[{gamma.name}]", composite.functor, target.functor, _cached(component)
    )


def count_descents(
    gamma_component: ContinuousMap, r: ContinuousMap
) -> int:
    """How many continuous maps out of the reflection restrict to the given one."""
    return restriction_counts(r, gamma_component.cod).get(gamma_component.map, 0)
