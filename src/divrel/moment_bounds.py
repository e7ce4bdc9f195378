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

from .distributions import DiscreteDistribution, make_distribution, moments
from .divergences import _G_CUT, _binary_term, _g_series
from .errors import (
    DegenerateVariance,
    DomainError,
    EpsilonTooLarge,
    NonFinite,
    PreconditionViolated,
)


@dataclass(frozen=True)
class MomentTuple:
    m_p: float
    var_p: float
    m_q: float
    var_q: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.m_p, self.var_p, self.m_q, self.var_q))):
            raise NonFinite(f"means and variances must be finite, got {self}")
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
    """Mean-shift-over-variance lower bound on chi^2(P || (1-lam)P + lam*Q):
    lam^2 (m_p - m_q)^2 / ``mixture_variance``, from the moments of P and Q."""
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"lambda must lie in [0,1], got {lam}")
    mt = MomentTuple(*moments(p), *moments(q))
    var_z = mixture_variance(mt, lam)
    if var_z == 0.0:
        raise DegenerateVariance("mixture has zero variance")
    return (lam * (mt.m_p - mt.m_q)) ** 2 / var_z


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
    pairs is zero and every field is 0. With var_p = 0, v = |b/(2a)| and r
    is 0 or 1; with var_q = 0, Q is a point mass, s is 0 or 1 and the bound
    is +inf.
    """
    var_p, var_q = np.asarray(var_p, dtype=float), np.asarray(var_q, dtype=float)
    a = np.asarray(m_p, dtype=float) - m_q
    a2 = a * a
    b = a2 + var_q - var_p
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # |b/(2a)| at var_p = 0; hypot, as b^2/(4a^2) overflows for a gap far
        # below the standard deviations
        v = np.hypot(np.sqrt(var_p), b / (2.0 * a))
        # 2v times (r, 1 - r, s, 1 - s), which do not underflow where such a
        # gap puts a mass below 1e-308
        masses = _scaled_masses(a, b, v, var_p, var_q)
        r, s = masses[0] / (2.0 * v), masses[2] / (2.0 * v)
        # d(r||s) as two non-negative terms, with 2v (r - s) = a
        diff = np.broadcast_to(a, v.shape)
        terms = _binary_term(masses[:2], masses[2:], np.stack([diff, -diff]))
        bound = terms.sum(axis=0) / (2.0 * v)
    zero = a2 == 0.0
    return tuple(np.broadcast_arrays(*(np.where(zero, 0.0, x) for x in (r, s, a, b, v, bound))))


def _scaled_masses(a, b, v, var_p, var_q):
    """2v (r, 1 - r, s, 1 - s) = (v + c, v - c, v + c - a, v - c + a) with
    c = b/(2a), each computed directly. Near-equal means put r and s within
    rounding of 0 or 1, where 1 - r would lose every digit, so the smaller
    of v + c and v - c is taken as var_p over the larger, their product.
    Likewise (v + c - a)(v - c + a) = var_q: a factor below a quarter of the
    other, where the difference may have lost digits, is taken as var_q
    over the other. At var_p = 0, v = |c| and r is 0 or 1; at var_q = 0, s
    is 0 or 1."""
    c = b / (2.0 * a)
    big = v + np.abs(c)
    small = var_p / big
    v_plus_c, v_minus_c = np.where(c > 0, big, small), np.where(c > 0, small, big)
    s_up, s_down = v_plus_c - a, v_minus_c + a
    larger = np.maximum(s_up, s_down)
    s_up, s_down = (np.where(x < 0.25 * larger, var_q / larger, x) for x in (s_up, s_down))
    return np.minimum(np.maximum(np.stack([v_plus_c, v_minus_c, s_up, s_down]), 0.0), 2.0 * v)


def _certificate(mt: MomentTuple) -> tuple[BoundCertificate, list[float] | None]:
    """The certificate of ``moment_bound_arrays`` on one moment tuple, and
    the scaled masses 2v (r, 1 - r, s, 1 - s) behind it (None where every
    field is 0). The same operations in the same order, on floats: a numpy
    call costs far more than the arithmetic of four moments. v is np.hypot,
    as math.hypot may differ in the last bit."""
    var_p, var_q = mt.var_p, mt.var_q
    a = mt.m_p - mt.m_q
    a2 = a * a
    if a2 == 0.0:
        return BoundCertificate(0.0, 0.0, 0.0, 0.0, 0.0, 0.0), None
    b = a2 + var_q - var_p
    c = b / (2.0 * a)
    v = float(np.hypot(math.sqrt(var_p), c))
    # _scaled_masses
    big = v + abs(c)
    small = var_p / big
    v_plus_c, v_minus_c = (big, small) if c > 0 else (small, big)
    s_up, s_down = v_plus_c - a, v_minus_c + a
    larger = max(s_up, s_down)
    s_up, s_down = (var_q / larger if x < 0.25 * larger else x for x in (s_up, s_down))
    two_v = 2.0 * v
    masses = [min(max(x, 0.0), two_v) for x in (v_plus_c, v_minus_c, s_up, s_down)]
    # _binary_term(masses[:2], masses[2:], (a, -a)), term by term: the logs
    # from numpy's ufuncs, as math.log and math.log1p may differ from them in
    # the last bit, and the series of the near terms in one matmul
    terms, near = [], []
    for x, y, diff in ((masses[0], masses[2], a), (masses[1], masses[3], -a)):
        t = diff / y if y else math.copysign(math.inf, diff)
        if abs(t) < _G_CUT:
            near.append((len(terms), y, t))
            terms.append(None)
        elif not x > 0:
            terms.append(0.0 - diff)
        elif t < -0.5:
            # x / y may overflow or underflow, where np.log gives inf or -inf
            ratio = x / y if y else math.inf
            terms.append(x * float(np.log(ratio)) - diff if ratio else -math.inf)
        else:
            terms.append(x * float(np.log1p(t)) - diff)
    if near:
        series = _g_series(np.array([t for _, _, t in near])).tolist()
        for (i, y, t), g in zip(near, series):
            terms[i] = y * t * t * g
    bound = (terms[0] + terms[1]) / two_v
    return BoundCertificate(masses[0] / two_v, masses[2] / two_v, a, b, v, bound), masses


def kl_moment_lower_bound(mt: MomentTuple) -> BoundCertificate:
    """Best binary-KL lower bound on D(P||Q) from the four moments: the
    closed form of ``moment_bound_arrays``, bit for bit."""
    return _certificate(mt)[0]


def attaining_pair(mt: MomentTuple) -> tuple[DiscreteDistribution, DiscreteDistribution]:
    """Two-point pair with the prescribed moments whose KL equals the bound."""
    cert, masses = _certificate(mt)
    # equal means, or a gap whose square underflows: the infimum 0 is not attained
    if masses is None:
        raise PreconditionViolated("attaining pair requires distinct means")
    if mt.var_p <= 0.0:
        raise PreconditionViolated("attaining pair requires var_p > 0")
    r, r_comp, s, s_comp = (x / (2.0 * cert.v) for x in masses)
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
    # written so that NaN fails each test
    if not 0 < var_p <= var_q:
        raise PreconditionViolated("needs 0 < var_p <= var_q")
    if not eps > 0:
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
    # NaN fails the test. After it var_q - 1 > 0: var_q > 1 where the
    # rescaling below does not apply, and var_q >= 2 where it does
    if not (var_p > 0 and var_q > 0):
        raise PreconditionViolated("variances must be positive")
    scale = 1.0
    if min(var_p, var_q) <= 1.0:
        sigma2 = min(var_p, var_q)
        scale = math.sqrt(sigma2 / 2.0)
        var_p, var_q = 2.0 * var_p / sigma2, 2.0 * var_q / sigma2
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
