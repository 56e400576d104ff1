"""Local oscillatory integrals, boundary combinatorics, p-adic densities
and integral-point censuses on additive-group compactifications over Q."""

from .boundary import (
    CharacterStratum,
    ClemensComplex,
    DivisorScheme,
    character_strata,
    clemens_complex,
    divisor_coefficients,
    ep_rank,
    exponent_b,
    pole_orders,
)
from .catalog import MODELS, CompactificationModel, get_model, places_from_spec
from .census import (
    AsymptoticFit,
    CountTable,
    count_table,
    enumerate_points,
    equidistribution_test,
    fit_asymptotic,
    poisson_crosscheck,
    volume_V,
)
from .density import (
    EulerProductValue,
    ThetaResult,
    arch_density,
    brute_density_oracle,
    denef_density,
    euler_product,
    fourier_finite,
    tau_max_boundary,
    theta_constant,
    theta_factored,
    s_vector,
)
from .localfield import (
    BumpFunction,
    PadicContext,
    PhaseSum,
    Place,
    RadialBump,
    StepFunction,
    abs_value,
    fourier_test_fn,
    padic,
    psi,
    residue_c,
    tate_integral,
    zeta_local,
)
from .oscillatory import (
    DecayReport,
    OscillatoryResult,
    coset_phase_integral,
    decay_report,
    inverse_phase_integral,
    osc_integral_1d,
    osc_integral_nd,
    schwartz_level,
)

__version__ = "0.1.0"
