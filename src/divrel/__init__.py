"""Numerical toolkit for relations between relative entropy and chi-squared
divergence: f-divergence families, integral identities, moment-based lower
bounds, inequality checks, contraction coefficients and their applications
to code redundancy and sample sizing."""

from .applications import (
    PoissonFamily,
    TypeClassProblem,
    d_star,
    lambert_w_minus1,
    n_star,
    poisson_entropy,
    poisson_kl,
    poisson_pmf,
    redundancy_report,
    sanov_bound,
)
from .contraction import (
    ContractionEstimate,
    SourceChannelPair,
    brute_force_mu_f,
    chi2_contraction,
    markov_mixing_report,
    max_correlation_path_bound,
    maximal_correlation,
    mu_chi2_channel,
    skew_contraction_sandwich,
)
from .distributions import (
    Channel,
    DiscreteDistribution,
    align,
    make_channel,
    make_distribution,
    mixture,
    moments,
    push_forward,
)
from .divergences import (
    DivergenceSpec,
    binary_kl,
    chi_squared,
    entropy,
    f_divergence,
    f_divergence_rows,
    f_k_divergence,
    gyorfi_vajda,
    jensen_shannon,
    kl,
    polylog_f,
    renyi,
    skew_k,
    skew_s,
    total_variation,
)
from .errors import DivrelError
from .identities import (
    IdentityReport,
    check_chi2_half_identity,
    check_gv_identity,
    check_kl_chi2_identity,
    check_recursive_identity,
)
from .inequalities import (
    InequalityReport,
    concavity_deficit_bounds,
    conditioned_measure_divergence,
    derivative_checks,
    gv_lower_bound,
    half_chi2_plus_quarter_tv,
    mixture_kl_upper,
    mixture_of,
    pinsker,
    skew_kl_upper,
    symmetrized_chi2_bound,
    thirds_bound,
)
from .moment_bounds import (
    BoundCertificate,
    MomentTuple,
    attaining_pair,
    equal_means_quaternary,
    equal_means_sequence,
    exponential_kl,
    gaussian_kl,
    hcr_lower_bound,
    kl_moment_lower_bound,
    mixture_variance,
    moment_bound_arrays,
)

__version__ = "0.1.0"
