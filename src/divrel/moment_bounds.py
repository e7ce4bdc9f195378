"""Moment-constrained lower bounds on the relative entropy.

Given only the means and variances of two laws, the relative entropy is
bounded below by a binary relative entropy d(r||s) whose parameters have
closed forms; the bound is attained by an explicit two-point pair. With
equal means the infimum is zero, witnessed by explicit three-point and
four-point sequences with exact moments and vanishing KL.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .distributions import (DiscreteDistribution, _centered, _check_real, _check_reals, _reals,
                            align, make_distribution)
from .divergences import _G_CUT, _binary_term, _g_series
from .errors import (
    DegenerateVariance,
    DimensionMismatch,
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
        _check_reals("means and variances", (self.m_p, self.var_p, self.m_q, self.var_q))
        _check_real("variances", min(self.var_p, self.var_q), 0.0)


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
    """Hammersley-Chapman-Robbins bound (E_P X - E_R X)^2 / Var_R X <= chi^2(P||R),
    R = (1-lam)P + lam*Q, from one centered pass over R (``_centered``), gap
    lam (sum p d - sum q d): a unit-free ratio, finite where Var_R X overflows."""
    _check_real("lambda", lam, 0.0, 1.0)
    p, q = align(p, q)
    _, (first_p, first_q), _, s = _centered(p.support, (p.mass, q.mass), (1.0 - lam, lam))
    if s == 0.0:
        raise DegenerateVariance("mixture has zero variance")
    gap = lam * (first_p - first_q)
    return gap * (gap / s)


def mixture_variance(mt: MomentTuple, lam: float) -> float:
    """Variance of the lam-mixture, lam in [0, 1], from the component moments
    alone; +inf where it overflows floats."""
    _check_real("lambda", lam, 0.0, 1.0)
    gap, spread = mt.m_p - mt.m_q, lam * (1.0 - lam)
    try:
        # not gap * gap, which rounds differently from libm's pow in the last bit
        shift = spread * gap ** 2
    except OverflowError:
        # the square overflows; its product with spread does only where it is inf
        shift = spread * gap * gap
    return (1.0 - lam) * mt.var_p + lam * mt.var_q + shift


def moment_bound_arrays(m_p, var_p, m_q, var_q) -> tuple[np.ndarray, ...]:
    """(r, s, a, b, v, bound_nats) of the binary-KL lower bound on D(P||Q),
    elementwise over the broadcast moment arrays, checked as ``MomentTuple``.

    a = m_p - m_q and b = a^2 + var_q - var_p. With a^2 = 0 (equal means,
    or a gap so small that a^2 underflows) the infimum over compatible
    pairs is zero and every field is 0. With var_p = 0, v = |b/(2a)| and r
    is 0 or 1; with var_q = 0, Q is a point mass, s is 0 or 1 and the bound
    is +inf. DomainError where 2v overflows: at a gap above 1.34e154, or
    where b/(2a) is above half the largest float.
    """
    m_p, var_p, m_q, var_q = given = [_reals(x) for x in (m_p, var_p, m_q, var_q)]
    try:
        np.broadcast_shapes(*(x.shape for x in given))
    except ValueError:
        raise DimensionMismatch(f"shapes {[x.shape for x in given]} do not broadcast") from None
    if not all(np.isfinite(x).all() for x in given):
        raise NonFinite("means and variances must be finite")
    if (var_p < 0).any() or (var_q < 0).any():
        raise DomainError("variances must be non-negative")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = m_p - m_q
        a2 = a * a
        b = a2 + var_q - var_p
        # |b/(2a)| at var_p = 0; hypot, as b^2/(4a^2) overflows for a gap far
        # below the standard deviations
        v = np.hypot(np.sqrt(var_p), b / (2.0 * a))
        if not (np.isfinite(2.0 * v) | (a2 == 0.0)).all():  # fields at a^2 = 0 are 0
            raise DomainError(_OVERFLOW)
        # every value at the scale f = 2^k of _masses_and_bound
        k = np.clip(499 - np.frexp(v)[1], 0, 511)
        fractions, bound = _masses_and_bound(
            np.ldexp(a, k), np.ldexp(b, 2 * k), np.ldexp(v, k), np.ldexp(var_p, 2 * k),
            np.ldexp(var_q, 2 * k))
        r, s = fractions[0], fractions[2]
    zero = a2 == 0.0
    return tuple(np.broadcast_arrays(*(np.where(zero, 0.0, x) for x in (r, s, a, b, v, bound))))


# 2v overflows: at a gap above 1.34e154, or a tiny one against a variance gap
_OVERFLOW = "mean gap too large for the bound in floats, or too small against the variances"
# the least normal float: a smaller mass keeps only some of its bits, or none
_NORMAL = sys.float_info.min


def _masses_and_bound(a, b, v, var_p, var_q):
    """(r, 1 - r, s, 1 - s) from the scaled masses (``_scaled_masses``), and
    d(r||s) as two non-negative terms over 2v, with 2v (r - s) = a.

    Both are the same at (a, b, v, var_p, var_q) scaled by (f, f^2, f, f^2,
    f^2), f > 0. The callers take f = 2^k, k in [0, 511], putting 2v near
    2^500 where that is up: a power of two scales exactly where no
    intermediate is subnormal, and there a mass is subnormal only where its
    fraction is below 2^-1521. As the masses of Q multiply to var_q, such a
    mass of a positive var_q takes ln var_q - ln(the other) for its log, and
    not the log of its rounded value, +inf at 0."""
    masses = _scaled_masses(a, b, v, var_p, var_q)
    x, y = masses[:2], masses[2:]
    diff = np.broadcast_to(a, v.shape)
    diff = np.stack([diff, -diff])
    terms = _binary_term(x, y, diff)
    under = (y < _NORMAL) & (x > 0.0) & (var_q > 0.0)
    if under.any():
        log_y = np.log(np.broadcast_to(var_q, y.shape)[under]) - np.log(y[::-1][under])
        terms[under] = x[under] * (np.log(x[under]) - log_y) - diff[under]
    two_v = 2.0 * v
    return masses / two_v, terms.sum(axis=0) / two_v


def _scaled_masses(a, b, v, var_p, var_q):
    """2v (r, 1 - r, s, 1 - s) = (v + c, v - c, v + c - a, v - c + a) with
    c = b/(2a), each computed directly. Near-equal means put r and s within
    rounding of 0 or 1, where 1 - r would lose every digit, so the smaller
    of v + c and v - c is taken as var_p over the larger, their product.
    Likewise (v + c - a)(v - c + a) = var_q: a factor below a quarter of the
    other, where the difference may have shed digits, is taken as var_q
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
    the fractions (r, 1 - r, s, 1 - s) behind it (None where every field is
    0). The same operations in the same order, on floats: a numpy call costs
    far more than the arithmetic of four moments. v is np.hypot, as
    math.hypot may differ in the last bit."""
    var_p, var_q = mt.var_p, mt.var_q
    a = mt.m_p - mt.m_q
    a2 = a * a
    if a2 == 0.0:
        return BoundCertificate(0.0, 0.0, 0.0, 0.0, 0.0, 0.0), None
    b = a2 + var_q - var_p
    c = b / (2.0 * a)
    v = float(np.hypot(math.sqrt(var_p), c))
    if not math.isfinite(2.0 * v):
        raise DomainError(_OVERFLOW)
    f = math.ldexp(1.0, min(max(499 - math.frexp(v)[1], 0), 511))
    f2 = f * f
    fractions, bound = _float_masses_and_bound(a * f, b * f2, v * f, var_p * f2, var_q * f2)
    return BoundCertificate(fractions[0], fractions[2], a, b, v, bound), fractions


def _float_masses_and_bound(a, b, v, var_p, var_q) -> tuple[list[float], float]:
    """``_masses_and_bound`` of one row, on floats."""
    # _scaled_masses
    c = b / (2.0 * a)
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
    # the last bit, and the series of a near term from _g_series
    terms = []
    for x, y, y_other, diff in ((masses[0], masses[2], masses[3], a),
                                (masses[1], masses[3], masses[2], -a)):
        t = diff / y if y else math.copysign(math.inf, diff)
        if abs(t) < _G_CUT:
            terms.append(y * t * t * float(_g_series(np.array([t]))[0]))
        elif not x > 0:
            terms.append(0.0 - diff)
        else:
            ratio = x / y if y else math.inf
            if y < _NORMAL and var_q > 0.0:
                # y y_other = var_q, and y is below the normal floats
                log_ratio = float(np.log(x)) - (float(np.log(var_q)) - float(np.log(y_other)))
            elif y and (ratio in (0.0, math.inf) if t < -0.5 else math.isinf(t)):
                # the log of the ratio would be infinite at y > 0: ln x - ln y
                log_ratio = float(np.log(x)) - float(np.log(y))
            else:
                log_ratio = float(np.log(ratio) if t < -0.5 else np.log1p(t))
            terms.append(x * log_ratio - diff)
    return [x / two_v for x in masses], (terms[0] + terms[1]) / two_v


def kl_moment_lower_bound(mt: MomentTuple) -> BoundCertificate:
    """Best binary-KL lower bound on D(P||Q) from the four moments: the
    closed form of ``moment_bound_arrays``, bit for bit."""
    return _certificate(mt)[0]


def attaining_pair(mt: MomentTuple) -> tuple[DiscreteDistribution, DiscreteDistribution]:
    """Two-point pair with the prescribed moments whose KL equals the bound.
    DomainError where the pair leaves the float range: a fraction of a
    positive variance rounds to 0, or the atoms overflow or meet."""
    _, fractions = _certificate(mt)
    # equal means, or a gap whose square underflows: the infimum 0 is not attained
    if fractions is None:
        raise PreconditionViolated("attaining pair requires distinct means")
    if mt.var_p <= 0.0:
        raise PreconditionViolated("attaining pair requires var_p > 0")
    r, r_comp, s, s_comp = fractions
    # no fraction of a positive variance rounded to 0
    if r and r_comp and (s and s_comp or mt.var_q == 0.0):
        u1 = mt.m_p + math.sqrt(r_comp * mt.var_p / r)
        u2 = mt.m_p - math.sqrt(r * mt.var_p / r_comp)
        if -math.inf < u2 < u1 < math.inf:
            return (make_distribution([u2, u1], [r_comp, r]),
                    make_distribution([u2, u1], [s_comp, s]))
    raise DomainError("the attaining pair of these moments leaves the float range")


def equal_means_sequence(
    m: float, var_p: float, var_q: float, eps: float
) -> tuple[DiscreteDistribution, DiscreteDistribution]:
    """Three-point equal-means pair (P, Q_eps) with KL -> 0 as eps -> 0.

    P is the fixed equiprobable two-point law on {m - sd_p, m + sd_p},
    embedded on the three-point support shared with Q_eps. Requires
    var_q >= var_p; the opposite ordering is served by the quaternary
    construction.
    """
    # real numbers; NaN is left to the checks below, which raise as before
    for name, x in (("m", m), ("var_p", var_p), ("var_q", var_q)):
        _check_real(name, 0.0 if isinstance(x, float) and math.isnan(x) else x)
    if not 0 < var_p <= var_q:
        raise PreconditionViolated("needs 0 < var_p <= var_q")
    _check_real("eps", eps, 0.0, lo_open=True)
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
    # real numbers; NaN is left to the checks below, which raise as before
    for name, x in (("var_p", var_p), ("var_q", var_q), ("n", n)):
        _check_real(name, 0.0 if isinstance(x, float) and math.isnan(x) else x)
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
    try:
        # not gap * gap, which rounds differently from libm's pow in the last bit
        shift = (mt.m_p - mt.m_q) ** 2
    except OverflowError:
        shift = math.inf
    ratio = mt.var_q / mt.var_p
    # ln var_q - ln var_p where the ratio overflows or underflows
    log_ratio = (math.log(ratio) if 0.0 < ratio < math.inf
                 else math.log(mt.var_q) - math.log(mt.var_p))
    return 0.5 * log_ratio + 0.5 * ((shift + mt.var_p) / mt.var_q - 1.0)


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
