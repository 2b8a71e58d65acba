"""Finite-scale workbench for filter-space monads, separation reflectors,
and frame coreflections, verified by exhaustive checking over enumerated
small spaces and lattices."""

import types

from .errors import (
    BoundExceeded,
    CoreflectionMismatch,
    FilterNotWellFormed,
    HypothesisViolated,
    InvalidInput,
    NoSplitting,
    NotOpen,
    NotStablyCompact,
    NotWellDefined,
    TopolabError,
    UnknownFault,
    UnknownSuite,
)
from .spaces import (
    ContinuousMap,
    FiniteSpace,
    SpaceProfile,
    build_space,
    classify,
    closure,
    compose,
    enumerate_continuous_maps,
    find_homeomorphism,
    identity_map,
    inverse_map,
    is_homeomorphism,
    is_proper,
    patch_topology,
    saturation,
    subset_is_compact,
    way_below_open,
    way_below_via_subset,
)
from .filters import (
    CLOSED_PRIME,
    KINDS,
    LiftedSpace,
    OPEN_PRIME,
    ULTRA,
    alpha,
    lift_map,
    lift_space,
    mult,
    unit,
)
from .reflectors import (
    check_patch_couniversal,
    check_reflector_universal,
    factor_through_reflection,
    hausdorff_reflect,
    patch_coreflect,
    sobrify,
    t0_reflect,
)
from .monadlab import (
    EndofunctorSpec,
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
    fakir_test,
    filter_monad,
    find_splitting,
    identity_monad,
    reflection_onto_composite,
    reflector_spec,
    universal_separation,
)
from .frames import (
    FiniteFrame,
    FrameMap,
    chain_frame,
    check_compact_regular_coreflection,
    check_ideal_comonad_laws,
    check_ideal_preserves_monos,
    enumerate_frame_maps,
    frame_from_leq,
    is_regular,
    is_stably_continuous,
    opens_frame,
    opens_frame_map,
    reg_coreflect,
    way_below_lattice,
)
from .corpus import enumerate_lattices, enumerate_spaces, recount_topologies
from .reports import CheckReport
from .suites import FAULTS, RunBounds, SUITES, run_suite

__all__ = [
    n for n in dir() if not n.startswith("_") and not isinstance(globals()[n], types.ModuleType)
]
__version__ = "0.1.0"
