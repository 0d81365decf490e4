"""Exact base-change fibers for Dirichlet/Hecke characters over abelian
fields, twisted-pair counting for the resulting convolutions, and sieve-backed
prime number theorem experiments."""

__version__ = "0.4.0"

from .characters import (
    DirichletChar,
    SubgroupChar,
    UnitGroup,
    extensions,
    restrict_char,
    trivial_char,
    unit_group,
)
from .fields import (
    AbelianField,
    SplittingData,
    compositum,
    make_field,
)
from .automorphic import (
    GalHeckeChar,
    IsobaricSum,
    automorphic_induction,
    base_change,
    bc_fiber,
    local_coeffs_over_e,
    local_coeffs_over_q,
    trivial_over,
)
from .rankin_selberg import (
    RsCoeffSource,
    TwistedPairSet,
    thm1_1_applies,
    thm1_2_applies,
    twist_absorption_check,
    twisted_pairs,
)
from .twist_counts import (
    FiberGroup,
    PairSubgroup,
    TwistPairingError,
    coprime_count,
    cross_check_pair_count,
    fiber_group,
    noncuspidal_orbit,
    pair_subgroup,
)
from .pnt import (
    PntReport,
    decay_check,
    predicted_main_term,
    psi_sum,
)
