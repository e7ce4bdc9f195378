"""Moment-constrained lower bounds on the relative entropy.

Given only the means and variances of two laws, the relative entropy is
bounded below by a binary relative entropy d(r||s) whose parameters have
closed forms; the bound is attained by an explicit two-point pair. With
equal means the infimum is zero, witnessed by explicit three-point and
four-point sequences with exact moments and vanishing KL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteDistribution, make_distribution, mixture, moments
from .errors import (
    DegenerateVariance,
    DomainError,
    EpsilonTooLarge,
    PreconditionViolated,
)


@dataclass(frozen=True)
class MomentTuple:
    m_p: float
    var_p: float
    m_q: float
    var_q: float

    def __post_init__(self):
        if self.var_p < 0 or self.var_q < 0:
            raise DomainError("variances must be non-negative")


@dataclass(frozen=True)
class BoundCertificate:
    """Closed-form parameters behind the binary-KL lower bound."""

    r: float
    s: float
    a: float
    b: float
    v: float
    bound_nats: float


def hcr_lower_bound(
    p: DiscreteDistribution, q: DiscreteDistribution, lam: float
) -> float:
    """Mean-shift-over-variance lower bound on chi^2(P || (1-lam)P + lam*Q)."""
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"lambda must lie in [0,1], got {lam}")
    m_p, _ = moments(p)
    mix = mixture(p, q, lam)
    m_z, var_z = moments(mix)
    if var_z == 0.0:
        raise DegenerateVariance("mixture has zero variance")
    return (m_p - m_z) ** 2 / var_z


def mixture_variance(mt: MomentTuple, lam: float) -> float:
    """Variance of the lam-mixture from the component moments alone."""
    return (
        (1.0 - lam) * mt.var_p
        + lam * mt.var_q
        + lam * (1.0 - lam) * (mt.m_p - mt.m_q) ** 2
    )


def moment_bound_arrays(m_p, var_p, m_q, var_q) -> tuple[np.ndarray, ...]:
    """(r, s, a, b, v, bound_nats) of the binary-KL lower bound on D(P||Q),
    elementwise over the broadcast moment arrays (variances non-negative).

    a = m_p - m_q and b = a^2 + var_q - var_p. With a^2 = 0 (equal means,
    or a gap so small that a^2 underflows) the infimum over compatible
    pairs is zero and every field is 0. With var_p = 0, v = b/(2|a|) and r
    is 0 or 1.
    """
    var_p, var_q = np.asarray(var_p, dtype=float), np.asarray(var_q, dtype=float)
    a = np.asarray(m_p, dtype=float) - m_q
    a2 = a * a
    b = a2 + var_q - var_p
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v = np.where(var_p == 0.0, b / (2.0 * np.abs(a)), np.sqrt(var_p + b * b / (4.0 * a2)))
        r, r_comp, s, s_comp = _masses(a, b, v, var_p)
        # d(r||s) with r/s = 1 + (r - s)/s and r - s = a/(2v), which keeps
        # its digits when r and s are within rounding of each other
        step = a / (2.0 * v)
        bound = np.where(r > 0, r * np.log1p(step / s), 0.0)
        bound += np.where(r_comp > 0, r_comp * np.log1p(-step / s_comp), 0.0)
    zero = a2 == 0.0
    return tuple(np.broadcast_arrays(*(np.where(zero, 0.0, x) for x in (r, s, a, b, v, bound))))


def _masses(a, b, v, var_p):
    """(r, 1 - r, s, 1 - s), each computed directly. With c = b/(2a),
    r = (v + c)/(2v) and s = r - a/(2v). Near-equal means put r and s
    within rounding of 0 or 1, where 1 - r would lose every digit, so the
    smaller of v + c and v - c is taken as var_p over the larger. At
    var_p = 0, v = |c| and r is 0 or 1."""
    c = b / (2.0 * a)
    big = v + np.abs(c)
    small = var_p / big
    v_plus_c, v_minus_c = np.where(c > 0, big, small), np.where(c > 0, small, big)
    return tuple(np.minimum(np.maximum(x / (2.0 * v), 0.0), 1.0)
                 for x in (v_plus_c, v_minus_c, v_plus_c - a, v_minus_c + a))


def kl_moment_lower_bound(mt: MomentTuple) -> BoundCertificate:
    """Best binary-KL lower bound on D(P||Q) from the four moments."""
    fields = moment_bound_arrays(mt.m_p, mt.var_p, mt.m_q, mt.var_q)
    return BoundCertificate(*(float(x) for x in fields))


def attaining_pair(mt: MomentTuple) -> tuple[DiscreteDistribution, DiscreteDistribution]:
    """Two-point pair with the prescribed moments whose KL equals the bound."""
    if mt.m_p == mt.m_q:
        raise PreconditionViolated("attaining pair requires distinct means")
    if mt.var_p <= 0.0:
        raise PreconditionViolated("attaining pair requires var_p > 0")
    cert = kl_moment_lower_bound(mt)
    r, r_comp, s, s_comp = (float(x) for x in _masses(cert.a, cert.b, cert.v, mt.var_p))
    u1 = mt.m_p + math.sqrt(r_comp * mt.var_p / r)
    u2 = mt.m_p - math.sqrt(r * mt.var_p / r_comp)
    p = make_distribution([u2, u1], [r_comp, r])
    q = make_distribution([u2, u1], [s_comp, s])
    return p, q


def equal_means_sequence(
    m: float, var_p: float, var_q: float, eps: float
) -> tuple[DiscreteDistribution, DiscreteDistribution]:
    """Three-point equal-means pair (P, Q_eps) with KL -> 0 as eps -> 0.

    P is the fixed equiprobable two-point law on {m - sd_p, m + sd_p},
    embedded on the three-point support shared with Q_eps. Requires
    var_q >= var_p; the opposite ordering is served by the quaternary
    construction.
    """
    if var_q < var_p or var_p <= 0:
        raise PreconditionViolated("needs 0 < var_p <= var_q")
    if eps <= 0:
        raise DomainError("eps must be positive")
    sd_p = math.sqrt(var_p)
    s = 0.5 * (1.0 - eps + math.sqrt((var_q / var_p - 1.0 + eps) * eps))
    if not 0.0 < s < 1.0 - eps:
        raise EpsilonTooLarge(f"eps={eps} leaves no room for the third atom mass")
    u1 = m + sd_p
    u2 = m - sd_p
    u3 = m - (1.0 + (2.0 * s - 1.0) / eps) * sd_p
    if u3 >= u2:
        raise EpsilonTooLarge(f"eps={eps} collapses the third atom into the support")
    support = [u3, u2, u1]
    p = make_distribution(support, [0.0, 0.5, 0.5])
    q = make_distribution(support, [eps, 1.0 - s - eps, s])
    return p, q


def equal_means_quaternary(
    var_p: float, var_q: float, n: int
) -> tuple[DiscreteDistribution, DiscreteDistribution]:
    """Four-point zero-mean pair (P_n, Q_n) with KL = d(xi/n || 1/n) -> 0.

    Works for any positive variances: when min(var) <= 1 both laws are
    built at doubled rescaled variances and then shrunk by sigma/sqrt(2),
    which leaves the KL unchanged.
    """
    if var_p <= 0 or var_q <= 0:
        raise PreconditionViolated("variances must be positive")
    scale = 1.0
    if min(var_p, var_q) <= 1.0:
        sigma2 = min(var_p, var_q)
        scale = math.sqrt(sigma2 / 2.0)
        var_p, var_q = 2.0 * var_p / sigma2, 2.0 * var_q / sigma2
    if var_q == 1.0:
        raise PreconditionViolated("var_q must differ from 1 after rescaling")
    xi = (var_p - 1.0) / (var_q - 1.0)
    if n <= xi or n < 1:
        raise PreconditionViolated(f"need n > xi = {xi}")
    mu_n = math.sqrt(1.0 + n * (var_q - 1.0))
    support = [-mu_n * scale, -scale, scale, mu_n * scale]
    q = make_distribution(
        support, [0.5 / n, 0.5 - 0.5 / n, 0.5 - 0.5 / n, 0.5 / n]
    )
    p = make_distribution(
        support,
        [0.5 * xi / n, 0.5 - 0.5 * xi / n, 0.5 - 0.5 * xi / n, 0.5 * xi / n],
    )
    return p, q


def gaussian_kl(mt: MomentTuple) -> float:
    """KL between Gaussians with the given means and variances, in nats."""
    if mt.var_p <= 0 or mt.var_q <= 0:
        raise DomainError("Gaussian KL needs positive variances")
    return (
        0.5 * math.log(mt.var_q / mt.var_p)
        + 0.5 * (((mt.m_p - mt.m_q) ** 2 + mt.var_p) / mt.var_q - 1.0)
    )


def exponential_kl(mt: MomentTuple) -> float:
    """KL between shifted exponentials matched to the given moments, in nats.

    Scale a_i = sd_i and shift d_i = m_i - sd_i reproduce mean m_i and
    variance var_i; the divergence is +inf when the first law's shift is
    below the second's.
    """
    if mt.var_p <= 0 or mt.var_q <= 0:
        raise DomainError("exponential KL needs positive variances")
    a1, a2 = math.sqrt(mt.var_p), math.sqrt(mt.var_q)
    d1, d2 = mt.m_p - a1, mt.m_q - a2
    if d1 < d2:
        return math.inf
    return math.log(a2 / a1) + (d1 + a1 - d2 - a2) / a2


__all__ = [
    "MomentTuple",
    "BoundCertificate",
    "hcr_lower_bound",
    "mixture_variance",
    "kl_moment_lower_bound",
    "moment_bound_arrays",
    "attaining_pair",
    "equal_means_sequence",
    "equal_means_quaternary",
    "gaussian_kl",
    "exponential_kl",
]
