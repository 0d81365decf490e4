"""Exact base-change fibers for Dirichlet/Hecke characters over abelian
fields, twisted-pair counting for the resulting convolutions, and sieve-backed
prime number theorem experiments."""

__version__ = "0.1.0"

from .characters import (
    DirichletChar,
    SubgroupChar,
    UnitGroup,
    dual_group,
    extensions,
    restrict_char,
    trivial_char,
    unit_group,
)
from .fields import (
    AbelianField,
    SplittingData,
    compositum,
    galois_product_check,
    make_field,
    rationals,
    splitting_data,
    tower,
)
from .automorphic import (
    GalHeckeChar,
    IsobaricSum,
    automorphic_induction,
    base_change,
    bc_fiber,
    cuspidal_over,
    is_self_contragredient,
    local_coeffs_over_e,
    local_coeffs_over_q,
    trivial_over,
)
from .rankin_selberg import (
    RsCoeffSource,
    TwistedPairSet,
    pole_multiplicity,
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
    DirichletSource,
    PntReport,
    decay_check,
    predicted_main_term,
    psi_sum,
)
