"""Numerical toolkit for relations between relative entropy and chi-squared
divergence: f-divergence families, integral identities, moment-based lower
bounds, inequality checks, contraction coefficients and their applications
to code redundancy and sample sizing.

The namespace is lazy (PEP 562), so that a caller pays import cost only for
the modules it uses: ``import divrel`` loads no submodule. The first access
to any public name binds the whole public API of ``_API`` at once, so the
namespace then holds what an eager import block would have bound. A
submodule name (``divrel.contraction``) imports that module alone.
"""

import importlib

# the public API, by the submodule that defines it
_API = {
    "applications": (
        "PoissonFamily", "TypeClassProblem", "d_star", "lambert_w_minus1", "n_star",
        "poisson_entropy", "poisson_kl", "poisson_pmf", "redundancy_report",
        "sanov_bound",
    ),
    "contraction": (
        "ContractionEstimate", "SourceChannelPair", "brute_force_mu_f",
        "chi2_contraction", "markov_mixing_report", "max_correlation_path_bound",
        "maximal_correlation", "mu_chi2_channel", "skew_contraction_sandwich",
    ),
    "distributions": (
        "Channel", "DiscreteDistribution", "align", "make_channel",
        "make_distribution", "mixture", "moments", "push_forward",
    ),
    "divergences": (
        "DivergenceSpec", "binary_kl", "chi_squared", "entropy", "f_divergence",
        "f_divergence_rows", "f_k_divergence", "gyorfi_vajda", "jensen_shannon", "kl",
        "polylog_f", "renyi", "skew_k", "skew_s", "total_variation",
    ),
    "errors": ("DivrelError",),
    "identities": (
        "IdentityReport", "check_chi2_half_identity", "check_gv_identity",
        "check_kl_chi2_identity", "check_recursive_identity", "check_skew_s_integral",
        "g_alpha",
    ),
    "inequalities": (
        "InequalityReport", "concavity_deficit_bounds", "conditioned_measure_divergence",
        "derivative_checks", "gv_lower_bound", "half_chi2_plus_quarter_tv",
        "mixture_kl_upper", "mixture_of", "pinsker", "skew_kl_upper",
        "symmetrized_chi2_bound", "thirds_bound",
    ),
    "moment_bounds": (
        "BoundCertificate", "MomentTuple", "attaining_pair", "equal_means_quaternary",
        "equal_means_sequence", "exponential_kl", "gaussian_kl", "hcr_lower_bound",
        "kl_moment_lower_bound", "mixture_variance", "moment_bound_arrays",
    ),
}

__all__ = [name for names in _API.values() for name in names]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _API:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # all names at once, not one by one: a wrapper that a tracer sets on the
    # namespace must replace every name, and its uninstall restore them all
    namespace = globals()
    for module, names in _API.items():
        mod = importlib.import_module(f"{__name__}.{module}")
        namespace.update((n, getattr(mod, n)) for n in names)
    return namespace[name]


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_API))
