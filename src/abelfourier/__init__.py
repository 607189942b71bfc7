"""Fourier analysis on finite abelian groups: exact transforms under matched
Haar measures, L^p quasi-norms and the (p, q) operator-norm region geometry,
extremal witness families, the exact norm on every finite group, and entropic
uncertainty principles.
"""

from .groups import (
    COMPACT,
    DISCRETE,
    EXHAUSTIVE_CAP,
    CapacityError,
    GroupSpec,
    Subgroup,
    all_subgroups,
)
from .transform import (
    FREQUENCY,
    TIME,
    MeasuredFunction,
    SideError,
    character_function,
    delta,
    forward,
    inverse,
    read_csv,
    write_csv,
)
from .norms import (
    INF,
    RegionVerdict,
    classify,
    closed_form_cpq,
    family_exponents,
    family_ratio,
    finite_cpq,
    finite_cpq_at,
    finite_exponent,
    log_lp_norm,
    lp_norm,
    parseval_defect,
    ratio,
    recip,
)
from .witnesses import (
    CltWitness,
    LacunaryDiscreteWitness,
    WitnessPoint,
    arc_indicator_witness,
    bi_unimodular_values,
    chirp_witness,
    clt_delta_witness,
    full_orbit_witness,
    lacunary_coefficients,
    lacunary_compact_witness,
    lacunary_discrete_witness,
    subgroup_indicator_witness,
)
from .uncertainty import (
    UPReport,
    ViolatorResult,
    donoho_stark_check,
    renyi_entropy,
    support_product,
    unweighted_up_margin,
    weighted_entropy_sum,
    weighted_up_margin,
    weighted_up_violator,
)

__version__ = "0.1.0"
