"""Executable functors, natural transformations, monads and reflectors over
finite spaces, with the law checkers and the reflector-composition engine.

Functors and transformations are extensional: evaluated per object and per
morphism, and memoized in one dict per action, keyed by the space or map
itself.  Every categorical claim is decided by finite evaluation over an
explicit corpus.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import Callable, NamedTuple

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
    _gather,
    commutes,
    compose,
    composes_to,
    composition_breaks,
    enumerate_continuous_maps,
    identity_map,
    is_homeomorphism,
    maps_between,
    restriction_counts,
)


class _CacheInfo(NamedTuple):
    """The counts of one memo, named as those of ``lru_cache``."""

    hits: int
    misses: int
    currsize: int


_MISSING = object()


def _cached(fn):
    """Memoize a one-argument action in one dict keyed by the argument itself.

    An entry is one dict slot, argument to result; ``lru_cache`` would add a
    key tuple per entry, and these memos hold one entry per space or map
    decided.  A call that raises stores nothing, and a hit returns the stored
    object.  The wrapper is a plain function, hashable by identity, so the
    frozen specs that hold it can themselves be memo keys.
    """
    memo: dict = {}
    hits = misses = 0

    def wrapper(arg):
        nonlocal hits, misses
        result = memo.get(arg, _MISSING)
        if result is _MISSING:
            misses += 1
            result = memo[arg] = fn(arg)
        else:
            hits += 1
        return result

    wrapper.cache_info = lambda: _CacheInfo(hits, misses, len(memo))
    return wrapper


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
        return factor_through_reflection(f, r_dom, self.in_class, then=r_cod)


IDENTITY_FUNCTOR = EndofunctorSpec("Id", lambda s: s, lambda f: f)


def composed_functor(outer: EndofunctorSpec, inner: EndofunctorSpec) -> EndofunctorSpec:
    return EndofunctorSpec(
        f"{outer.name}{inner.name}",
        lambda s: outer.obj(inner.obj(s)),
        lambda f: outer.mor(inner.mor(f)),
    )


@lru_cache(maxsize=None)
def filter_monad(kind: str) -> MonadSpec:
    """The ultrafilter / prime-open-filter / prime-closed-filter space monad."""
    if kind not in filters.KINDS:
        raise InvalidInput(f"unknown filter kind {kind!r}")
    functor = EndofunctorSpec(
        filters.LABELS[kind],
        lambda s: filters.lift_space(kind, s).space,
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


@lru_cache(maxsize=None)
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
    if not composes_to(beta.target.mor(alpha.at(space)), beta.at(alpha.source.obj(space)), left):
        raise HypothesisViolated(
            f"middle-interchange decompositions of {beta.name}.{alpha.name} differ at {space!r}"
        )
    return left


def find_splitting(m: ContinuousMap) -> ContinuousMap | None:
    """First (lexicographic) continuous left inverse of an injective map."""
    if not m.is_injective:
        raise HypothesisViolated("splittings are searched for injective maps only")
    ident = identity_map(m.dom)
    for g in enumerate_continuous_maps(m.cod, m.dom):
        if composes_to(g, m, ident):
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
        lambda s: R.obj(T.obj(s)),
        _cached(lambda f: R.mor(T.mor(f))),
    )

    def unit_component(space: FiniteSpace) -> ContinuousMap:
        eta = T.unit.at(space)
        first = compose(R.unit_at(T.obj(space)), eta)  # r_TX . eta_X
        if not composes_to(R.mor(eta), R.unit_at(space), first):  # R(eta_X) . r_X
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
        lambda s: R.unit_at(monad.obj(s)),
    )


# ---------------------------------------------------------------------------
# law checkers


def check_functor_laws(
    functor: EndofunctorSpec,
    spaces: tuple[FiniteSpace, ...],
    *,
    check_id: str = "functor-laws",
    corpus_desc: str = "",
) -> CheckReport:
    """The functor laws on the full subcategory on ``spaces``: identities on
    every space, composition on every composable pair of its maps.

    The maps are :func:`maps_between` of ``spaces``, every map between
    them, so every composite is one of them.  Each map is lifted once, and
    its lift must run between the lifted ends.  Composition is then
    decided by :func:`composition_breaks` over the pairs ``(f, g)`` with
    ``f.cod == g.dom``, f-major in corpus order, so the witness is the
    first failing pair of the all-pairs scan.
    """
    maps = maps_between(spaces)
    desc = corpus_desc or f"{len(spaces)} spaces, {len(maps)} maps"
    name = functor.name
    for space in spaces:
        if functor.mor(identity_map(space)).map != identity_map(functor.obj(space)).map:
            return failed(check_id, desc, f"{name} breaks identities at {space!r}")
    lifted = [functor.mor(m) for m in maps]
    for m, h in zip(maps, lifted):
        if h.dom != functor.obj(m.dom) or h.cod != functor.obj(m.cod):
            return failed(
                check_id, desc,
                f"{name} sends {m.map} off {name}({m.dom!r}) -> {name}({m.cod!r})",
            )
    for i, j in composition_breaks(spaces, lifted):
        return failed(
            check_id, desc, f"{name} breaks composition at {maps[i].map};{maps[j].map}"
        )
    return passed(check_id, desc)


def check_naturality(
    nt: NatTransSpec,
    maps: tuple[ContinuousMap, ...],
    check_id: str = "naturality",
    corpus_desc: str = "",
) -> CheckReport:
    desc = corpus_desc or f"{len(maps)} maps"
    at, source_mor, target_mor = nt.at, nt.source.mor, nt.target.mor
    for f in maps:
        if not commutes(at(f.cod), source_mor(f), target_mor(f), at(f.dom)):
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
        ident = identity_map(tx)
        if not composes_to(mu, monad.unit.at(tx), ident):
            return failed(check_id, desc, f"{monad.name}: mu.(unit at T) fails at {space!r}")
        if not composes_to(mu, monad.mor(eta), ident):
            return failed(check_id, desc, f"{monad.name}: mu.T(unit) fails at {space!r}")
        if not commutes(mu, monad.mult.at(tx), mu, monad.mor(mu)):
            return failed(check_id, desc, f"{monad.name}: associativity fails at {space!r}")
    return passed(check_id, desc)


def check_monad_morphism(
    nt: NatTransSpec,
    source: MonadSpec,
    target: MonadSpec,
    spaces: tuple[FiniteSpace, ...],
    maps: tuple[ContinuousMap, ...],
    check_id: str = "monad-morphism",
    corpus_desc: str = "",
) -> CheckReport:
    """Compatibility with both units and both multiplications, plus naturality."""
    desc = corpus_desc or f"{len(spaces)} spaces, {len(maps)} maps"
    nat = check_naturality(nt, maps, check_id, desc)
    if not nat.ok:
        return nat
    for space in spaces:
        if not composes_to(nt.at(space), source.unit.at(space), target.unit.at(space)):
            return failed(check_id, desc, f"{nt.name} misses the unit at {space!r}")
        squared = horizontal(nt, nt, space)
        if not commutes(nt.at(space), source.mult.at(space), target.mult.at(space), squared):
            return failed(check_id, desc, f"{nt.name} misses the multiplication at {space!r}")
    return passed(check_id, desc)


def _restriction_injective(pre: ContinuousMap, codomain: FiniteSpace) -> bool:
    """Is g -> g . pre injective over all continuous g: pre.cod -> codomain?

    It is when the restrictions of the g are as many as the g.
    """
    phis = enumerate_continuous_maps(pre.cod, codomain)
    return len(set(map(_gather(pre.map), map(attrgetter("map"), phis)))) == len(phis)


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
