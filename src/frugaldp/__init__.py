"""Randomness-metered differentially private release of counting queries.

Two release mechanisms over d binary predicates, both exact (no floating
point in any sampling path) and both metered down to the individual random
bit: an approximate-DP release built on truncated integer Gaussian noise
with a shared random shift and coarse rounding, and a pure-DP release built
on integer Laplace noise with an explicit tail/body decomposition. A shared
random shift lets most coordinates be released with zero noise bits, which
is where the randomness savings come from.

The audit harness provides brute-force oracle distributions, goodness-of-fit
statistics, and certified privacy-ratio checks for everything above. It is
loaded on first use, so releasing needs nothing beyond the standard library.
"""

from .approx_mech import (
    ApproxParams,
    CountVector,
    MechanismResult,
    RandomnessReport,
    approx_params_from_sigma,
    derive_approx_params,
    floor_multiple,
    is_silent,
    mech_approx_efficient,
    mech_approx_reference,
)
from .bit_tape import BitTape
from .core_samplers import (
    GaussParam,
    LaplaceScale,
    RefinableProb,
    bernoulli_exp,
    bernoulli_from_prob,
    constant_prob,
    discrete_gaussian,
    discrete_laplace,
    geometric,
    geometric_fast,
    laplace_tail_sample,
    truncated_sample,
)
from .cli import RunConfig, load_dataset, run
from .entropy_sampler import (
    PointMassSpec,
    PointMassState,
    binomial_draw,
    binomial_spec,
    sample_point_mass,
    spec_from_fractions,
)
from .errors import (
    DatasetFormatError,
    EnclosureContractError,
    EntropySourceError,
    FrugalDPError,
    InternalError,
    MathDomainError,
    ParameterDomainError,
    SampleBudgetError,
)
from .precise_math import (
    Dyadic,
    IntervalValue,
    binom_prob_enclose,
    exp_neg,
    exp_pos,
    floor_sqrt,
    interval_div,
    ln_enclose,
    sqrt_enclose,
)
from .pure_mech import (
    PureParams,
    PureTrace,
    derive_pure_params,
    mech_pure_efficient,
    mech_pure_reference,
    pure_params_explicit,
    sample_tail_set,
)

__version__ = "0.1.0"

# The audit harness needs numpy and scipy; a release does not, so its names
# are resolved on first access instead of at import.
_AUDIT_NAMES = frozenset(
    {
        "DiscreteDist",
        "PrivacyAuditResult",
        "accuracy_audit",
        "chi_square",
        "crossing_shifts",
        "oracle_coord_dist_approx",
        "oracle_coord_dist_pure",
        "oracle_joint_dist_approx",
        "oracle_joint_dist_pure",
        "privacy_audit",
        "randomness_audit",
        "tv_distance",
        "two_sample_chi_square",
    }
)


def __getattr__(name: str):
    if name in _AUDIT_NAMES:
        from . import audit_harness

        return getattr(audit_harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ApproxParams",
    "BitTape",
    "CountVector",
    "DatasetFormatError",
    "DiscreteDist",
    "Dyadic",
    "EnclosureContractError",
    "EntropySourceError",
    "FrugalDPError",
    "GaussParam",
    "IntervalValue",
    "InternalError",
    "LaplaceScale",
    "MathDomainError",
    "MechanismResult",
    "ParameterDomainError",
    "PointMassSpec",
    "PointMassState",
    "PrivacyAuditResult",
    "PureParams",
    "PureTrace",
    "RandomnessReport",
    "RefinableProb",
    "RunConfig",
    "SampleBudgetError",
    "accuracy_audit",
    "approx_params_from_sigma",
    "bernoulli_exp",
    "bernoulli_from_prob",
    "binom_prob_enclose",
    "binomial_draw",
    "binomial_spec",
    "chi_square",
    "constant_prob",
    "crossing_shifts",
    "derive_approx_params",
    "derive_pure_params",
    "discrete_gaussian",
    "discrete_laplace",
    "exp_neg",
    "exp_pos",
    "floor_multiple",
    "floor_sqrt",
    "geometric",
    "geometric_fast",
    "interval_div",
    "is_silent",
    "laplace_tail_sample",
    "ln_enclose",
    "load_dataset",
    "mech_approx_efficient",
    "mech_approx_reference",
    "mech_pure_efficient",
    "mech_pure_reference",
    "oracle_coord_dist_approx",
    "oracle_coord_dist_pure",
    "oracle_joint_dist_approx",
    "oracle_joint_dist_pure",
    "privacy_audit",
    "pure_params_explicit",
    "randomness_audit",
    "run",
    "sample_point_mass",
    "sample_tail_set",
    "spec_from_fractions",
    "sqrt_enclose",
    "truncated_sample",
    "tv_distance",
    "two_sample_chi_square",
]
