"""Standalone divergence inequalities and the conditioned-measure identity.

Every check returns an InequalityReport with the orientation normalized so
that slack = rhs - lhs >= 0 means the inequality holds; a -1e-10 numerical
grace is applied uniformly. Limit statements are exercised elsewhere as
finite-parameter trend tests, never asserted as true limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import DiscreteDistribution, _on_union_support, align
from .divergences import DivergenceSpec, _divergence, chi_squared, entropy
from .divergences import f_divergence_rows, kl, skew_k, total_variation
from .errors import DomainError, EmptySet, PreconditionViolated, ZeroProbabilitySet

GRACE = 1e-10


@dataclass(frozen=True)
class InequalityReport:
    name: str
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        if math.isinf(self.rhs) and math.isinf(self.lhs):
            return 0.0
        return self.rhs - self.lhs

    @property
    def holds(self) -> bool:
        return self.slack >= -GRACE


def pinsker(p: DiscreteDistribution, q: DiscreteDistribution) -> InequalityReport:
    """D(P||Q) >= |P-Q|^2 / 2 (nats)."""
    tv = total_variation(p, q)
    return InequalityReport("pinsker", 0.5 * tv * tv, kl(p, q))


def thirds_bound(p: DiscreteDistribution, q: DiscreteDistribution) -> InequalityReport:
    """D(P||Q) <= chi^2(P||Q)/3 + chi^2(Q||P)/6 (nats)."""
    rhs = chi_squared(p, q) / 3.0 + chi_squared(q, p) / 6.0
    return InequalityReport("thirds", kl(p, q), rhs)


def symmetrized_chi2_bound(
    p: DiscreteDistribution, q: DiscreteDistribution
) -> InequalityReport:
    """D(P||Q) + D(Q||P) <= (chi^2(P||Q) + chi^2(Q||P)) / 2 (nats)."""
    lhs = kl(p, q) + kl(q, p)
    rhs = 0.5 * (chi_squared(p, q) + chi_squared(q, p))
    return InequalityReport("symmetrized_chi2", lhs, rhs)


def gv_lower_bound(
    theta: float, p: DiscreteDistribution, q: DiscreteDistribution
) -> InequalityReport:
    """D(P||Q) >= (1-theta) ln(1/(1-theta)) * D_{phi_theta}(P||Q)."""
    if not 0.0 < theta < 1.0:
        raise DomainError(f"theta must lie in (0,1), got {theta}")
    from .divergences import gyorfi_vajda

    lhs = (1.0 - theta) * math.log(1.0 / (1.0 - theta)) * gyorfi_vajda(theta, p, q)
    return InequalityReport("gv_lower", lhs, kl(p, q))


def half_chi2_plus_quarter_tv(
    p: DiscreteDistribution, q: DiscreteDistribution
) -> InequalityReport:
    """D(P||Q) <= chi^2(P||Q)/2 + |P-Q|/4 (nats)."""
    rhs = 0.5 * chi_squared(p, q) + 0.25 * total_variation(p, q)
    return InequalityReport("half_chi2_quarter_tv", kl(p, q), rhs)


def skew_kl_upper(
    p: DiscreteDistribution, q: DiscreteDistribution, lam: float
) -> InequalityReport:
    """K_lam(P||Q) <= -ln(1 - lam + lam exp(-D(P||Q))); equality at lam in {0,1}."""
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"lambda must lie in [0,1], got {lam}")
    d = kl(p, q)
    inner = (1.0 - lam) + lam * (0.0 if math.isinf(d) else math.exp(-d))
    rhs = math.inf if inner == 0.0 else -math.log(inner)
    return InequalityReport("skew_kl_upper", skew_k(lam, p, q), rhs)


def skew_kl_convexity_comparison(
    p: DiscreteDistribution, q: DiscreteDistribution, lam: float
) -> InequalityReport:
    """The mixture-based bound dominates the convexity bound lam * D(P||Q)."""
    d = kl(p, q)
    inner = (1.0 - lam) + lam * (0.0 if math.isinf(d) else math.exp(-d))
    tighter = math.inf if inner == 0.0 else -math.log(inner)
    return InequalityReport("skew_kl_vs_convexity", tighter, lam * d)


def derivative_checks(
    p: DiscreteDistribution,
    q: DiscreteDistribution,
    lam_grid: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    h: float = 1e-5,
    tol: float = 1e-6,
) -> dict:
    """Finite-difference checks on the skew curve F(lam) = K_lam(P||Q).

    Verifies F'(lam) >= (exp(F(lam)) - 1)/lam pointwise on the grid, and
    compares F'(lam)/lam at lam = 1e-3 with its small-lam value
    chi^2(Q||P).
    """
    pa, qa = align(p, q)
    if pa == qa:
        raise PreconditionViolated("derivative checks need P != Q")
    chi2_qp = chi_squared(qa, pa)
    if math.isinf(chi2_qp):
        raise PreconditionViolated("needs finite chi^2(Q||P)")

    def fprime(lam: float) -> float:
        return (skew_k(lam + h, p, q) - skew_k(lam - h, p, q)) / (2 * h)

    grid = []
    for lam in lam_grid:
        lhs = (math.exp(skew_k(lam, p, q)) - 1.0) / lam
        slope = fprime(lam)
        grid.append({"lam": lam, "fprime": slope, "lower": lhs, "holds": slope >= lhs - tol})
    lam0 = 1e-3
    ratio = fprime(lam0) / lam0
    return {
        "grid": grid,
        "small_lam_ratio": ratio,
        "chi2_qp": chi2_qp,
        "limit_rel_err": abs(ratio - chi2_qp) / chi2_qp,
    }


def _validated_weights(dists, weights):
    w = np.asarray(weights, dtype=float)
    if len(dists) != len(w) or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
        raise DomainError("weights must be a probability vector over the components")
    return w


_KL = DivergenceSpec("KL")


def mixture_of(dists, weights) -> DiscreteDistribution:
    w = _validated_weights(dists, weights)
    support, stack = _on_union_support(dists)
    return DiscreteDistribution(support, w @ stack)


def _mixture_kl_rhs(i: int, w: np.ndarray, stack: np.ndarray) -> float:
    """-ln(a_i + (1-a_i) exp(-avg pairwise KL from P_i)) for the laws of
    the (k, n) stack."""
    ai = w[i]
    if ai == 1.0:
        return 0.0
    cross = sum(w[j] * _divergence(_KL, stack[i], stack[j]) for j in range(len(w)) if j != i)
    if math.isinf(cross):
        return -math.log(ai)
    return -math.log(ai + (1.0 - ai) * math.exp(-cross / (1.0 - ai)))


def mixture_kl_upper(
    i: int, dists: Sequence[DiscreteDistribution], weights
) -> InequalityReport:
    """D(P_i || mixture) <= -ln(a_i + (1-a_i) exp(-avg pairwise KL from P_i))."""
    w = _validated_weights(dists, weights)
    _, stack = _on_union_support(dists)
    lhs = _divergence(_KL, stack[i], w @ stack)
    return InequalityReport("mixture_kl_upper", lhs, _mixture_kl_rhs(i, w, stack))


def concavity_deficit_bounds(dists, weights) -> dict:
    """Entropy concavity deficit, computed two ways, with both upper bounds.

    deficit = H(mixture) - sum_j a_j H(P_j), identically equal to
    sum_i a_i D(P_i || mixture). Sharp upper: weighted sum of the
    per-source mixture-KL bounds; classic upper: the weight entropy H(a).
    """
    w = _validated_weights(dists, weights)
    support, stack = _on_union_support(dists)
    mix = DiscreteDistribution(support, w @ stack)
    deficit_entropy = entropy(mix) - float(
        sum(wi * entropy(d) for wi, d in zip(w, dists))
    )
    deficit_kl = float(w @ f_divergence_rows(_KL, stack, mix.p))
    upper = float(sum(_mixture_kl_rhs(i, w, stack) * w[i] for i in range(len(w))))
    classic = float(-sum(wi * math.log(wi) for wi in w if wi > 0))
    return {
        "deficit_entropy_form": deficit_entropy,
        "deficit_kl_form": deficit_kl,
        "deficit": deficit_kl,
        "pairwise_upper": upper,
        "classic_upper": classic,
    }


_KERNELS = {
    # f, f(0), dual kernel t*f(1/t) evaluated at t
    "KL": (lambda t: t * math.log(t), 0.0, lambda t: -math.log(t)),
    "CHI2": (lambda t: (t - 1.0) ** 2, 1.0, lambda t: (1.0 - t) ** 2 / t),
    "TV": (lambda t: abs(t - 1.0), 1.0, lambda t: abs(1.0 - t)),
}


def conditioned_measure_divergence(
    spec: DivergenceSpec, mu: DiscreteDistribution, c_indices: Sequence[int]
) -> tuple[float, float]:
    """Divergence from the conditioned measure mu_C to mu, two ways.

    Returns (direct, closed_form): the direct f-divergence evaluation and
    the closed form t*f(1/t) at t = mu(C) plus (1 - mu(C)) f(0). For the
    Renyi family the value is ln(1/mu(C)) for every order.
    """
    idx = np.unique(np.asarray(c_indices, dtype=int))
    if idx.size == 0:
        raise EmptySet("conditioning set is empty")
    if idx[0] < 0 or idx[-1] >= len(mu):
        raise DomainError("conditioning index out of range")
    mass_c = float(mu.mass[idx].sum())
    if mass_c <= 0.0:
        raise ZeroProbabilitySet("conditioning set has zero probability")
    cond_mass = np.zeros(len(mu))
    cond_mass[idx] = mu.mass[idx] / mass_c
    direct = _divergence(spec, cond_mass, mu.mass)
    if spec.tag == "RENYI":
        return direct, math.log(1.0 / mass_c)
    if spec.tag not in _KERNELS:
        raise DomainError(f"no finite-f(0) kernel registered for tag {spec.tag}")
    _, f0, dual = _KERNELS[spec.tag]
    closed = dual(mass_c) + (1.0 - mass_c) * f0
    return direct, closed
