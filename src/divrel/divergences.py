"""f-divergences on aligned discrete distributions.

All values are in nats. Divergences may be +inf (IEEE infinity is used as
the explicit extended-real marker, never an exception), so inequalities
with infinite sides remain checkable. Boundary conventions follow the
standard f-divergence definition: f(0) is the right limit at zero,
0*f(0/0) = 0, and 0*f(a/0) = a * lim_{u->inf} f(u)/u.

Each kernel is written once, over an (m, n) stack of rows against one law
on the same support (``f_divergence_rows``), with masks for the boundary
conventions; the functions on two distributions are its one-row case.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import DiscreteDistribution
from .errors import DimensionMismatch, DomainError, NonFinite, UnalignedSupports

INF = math.inf


@dataclass(frozen=True)
class DivergenceSpec:
    """Selects one member of the f-divergence families used here.

    tag: KL | CHI2 | TV | RENYI | GV | SKEW_K | SKEW_S | JS | POLYLOG_F
    param: order alpha for RENYI, skew s/alpha for GV/SKEW_*, integer k
    for POLYLOG_F; ignored otherwise.
    """

    tag: str
    param: float | None = None

    def __post_init__(self):
        if self.tag not in _KERNELS:
            raise DomainError(f"unknown divergence tag {self.tag!r}")
        p = self.param
        if self.tag == "RENYI" and not (p is not None and p >= 0):
            raise DomainError("RENYI requires alpha in [0, inf]")
        if self.tag == "GV" and not (p is not None and 0 <= p <= 1):
            raise DomainError("GV requires s in [0, 1]")
        if self.tag == "SKEW_K" and not (p is not None and 0 < p <= 1):
            raise DomainError("SKEW_K requires alpha in (0, 1]")
        if self.tag == "SKEW_S" and not (p is not None and 0 <= p <= 1):
            raise DomainError("SKEW_S requires alpha in [0, 1]")
        if self.tag == "POLYLOG_F" and not (
            p is not None and p >= 0 and float(p).is_integer()
        ):
            raise DomainError("POLYLOG_F requires integer k >= 0")

    @classmethod
    def parse(cls, text: str) -> "DivergenceSpec":
        """Parse CLI-style specs like 'kl', 'renyi:2', 'gv:0.5', 'polylog:2'."""
        name, _, arg = text.partition(":")
        name = name.strip().lower()
        table = {
            "kl": "KL", "chi2": "CHI2", "tv": "TV", "renyi": "RENYI",
            "gv": "GV", "skew_k": "SKEW_K", "skew_s": "SKEW_S", "js": "JS",
            "polylog": "POLYLOG_F", "polylog_f": "POLYLOG_F",
        }
        if name not in table:
            raise DomainError(f"unknown divergence name {name!r}")
        tag = table[name]
        param = float(arg) if arg else None
        return cls(tag, param)


def _aligned(p: DiscreteDistribution, q: DiscreteDistribution):
    if not np.array_equal(p.support, q.support):
        raise UnalignedSupports(
            "distributions must share a support; call align() first"
        )
    return p.p, q.p


# -- kernels: a and b broadcast to (m, n), one value per row ----------------

def _kl(a, b, _=None):
    """Sum a ln(a/b) - a + b, whose terms are individually non-negative:
    identical to sum a ln(a/b) for probability vectors but stable when the
    rows are extremely close (the linear parts cancel per term instead of
    across the whole sum). A term with a > 0 = b is +inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(a > 0, a * np.log(a / b) - a + b, b)
    return np.maximum(terms.sum(axis=-1), 0.0)


def _chi2(a, b, _=None):
    d = a - b
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(b > 0, d * d / b, np.where(a > 0, INF, 0.0))
    return terms.sum(axis=-1)


def _tv(a, b, _=None):
    return np.abs(a - b).sum(axis=-1)


def _renyi(a, b, alpha):
    """Renyi divergence. Away from the orders 0, 1 and inf it is taken as
    log1p(sum p expm1((alpha-1) ln(p/q)) - P(q = 0)) / (alpha - 1), which
    keeps full relative precision near alpha = 1, where
    log(sum p^alpha q^(1-alpha)) / (alpha - 1) cancels."""
    if alpha == 1.0:
        return _kl(a, b)
    pos = a > 0
    off = pos & (b == 0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if alpha == 0.0:
            return -np.log(np.where(pos, b, 0.0).sum(axis=-1))
        ratio = a / b
        if math.isinf(alpha):
            return np.log(np.where(pos, ratio, 0.0).max(axis=-1))
        z_minus_1 = (
            np.where(pos & ~off, a * np.expm1((alpha - 1.0) * np.log(ratio)), 0.0)
            .sum(axis=-1)
            - np.where(off, a, 0.0).sum(axis=-1)
        )
        out = np.log1p(z_minus_1) / (alpha - 1.0)
    # rows with no atom in common have sum p^alpha q^(1-alpha) = 0 exactly,
    # however the rounded P(q = 0) falls short of 1
    out[(z_minus_1 <= -1.0) | ~(pos & ~off).any(axis=-1)] = INF
    if alpha > 1.0:
        out[off.any(axis=-1)] = INF
    return out


def _gv(a, b, s):
    """s is one skew, or an (m, 1) column of skews, one for each row."""
    s = np.asarray(s, dtype=float)
    if not s.any():
        return _chi2(b, a)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _chi2(a, (1.0 - s) * a + s * b) / (s * s).ravel()
    if s.all():
        return out
    return np.where(s.ravel() == 0.0, _chi2(b, a), out)


def _skew_k(a, b, alpha):
    # at alpha = 0 the mixture is a itself, so K_0 = 0 exactly
    return _kl(a, (1.0 - alpha) * a + alpha * b)


def _skew_s(a, b, alpha):
    # a side whose weight is zero is skipped: its divergence may be +inf
    total = 0.0
    if alpha > 0.0:
        total = total + alpha * _skew_k(a, b, alpha)
    if alpha < 1.0:
        total = total + (1.0 - alpha) * _skew_k(b, a, 1.0 - alpha)
    return total


def _js(a, b, _=None):
    return _skew_s(a, b, 0.5)


def _polylog(a, b, k):
    k = int(k)
    # Li_0(1 - t) = 1/t - 1 and Li_1(1 - t) = -ln t: chi^2(b||a) and D(b||a)
    if k == 0:
        return _chi2(b, a)
    if k == 1:
        return _kl(b, a)
    # f(0) = Li_k(1) = zeta(k), the constant term of the ln-expansion
    zeta_k = _polylog_coefficients(k)[1][0]
    return _generic(a, b, lambda t: _polylog_li(k, t), zeta_k, 0.0)


@functools.cache
def _polylog_coefficients(k: int):
    """Coefficients of Li_k for integer k >= 2 (``_polylog_li``): the power
    series 1/n^k; the expansion in mu = ln z, zeta(k - m)/m! with
    H_(k-1)/(k-1)! at m = k - 1, and 1/(k-1)! of its log term; and the
    orders k, k - 2, ... and weights 1, 2 eta(2), 2 eta(4), ... of the
    inversion formula, eta(2j) = (1 - 2^(1-2j)) zeta(2j)."""
    import scipy.special

    series = np.arange(1.0, _SERIES_TERMS + 1.0) ** -float(k)
    m = np.arange(max(_LOG_TERMS, k), dtype=float)
    log_exp = scipy.special.zeta(k - m)
    log_exp[k - 1] = math.fsum(1.0 / j for j in range(1, k))
    log_exp /= scipy.special.factorial(m)
    two_j = np.arange(0.0, k + 1.0, 2.0)
    weights = 2.0 * (1.0 - 2.0 ** (1.0 - two_j)) * scipy.special.zeta(two_j)
    weights[0] = 1.0
    return series, log_exp, 1.0 / scipy.special.factorial(k - 1.0), k - two_j, weights


# 40 terms of the series reach a relative 1e-16 for |z| <= 1/2, and 28 of
# the ln-expansion for |mu| <= ln 2 (its terms fall like (mu / 2 pi)^m)
_SERIES_TERMS = 40
_LOG_TERMS = 28


def _powers(z: np.ndarray, count: int) -> np.ndarray:
    """The (len(z), count) array z, z^2, ..., z^count."""
    return np.cumprod(np.repeat(z[:, None], count, axis=1), axis=1)


def _polylog_li(k: int, x: np.ndarray) -> np.ndarray:
    """Li_k(1 - x) for integer k >= 2 and an array x > 0, in closed form
    (D. C. Wood, The Computation of Polylogarithms, 1992).

    With y = 1 - x, the inversion
    Li_k(y) = -(-1)^k Li_k(1/y) - L^k/k! - 2 sum_j eta(2j) L^(k-2j)/(k-2j)!,
    L = ln(-y), maps y < -1 to t = 1/y in (-1, 0), and the duplication
    Li_k(t) = 2^(1-k) Li_k(t^2) - Li_k(-t) maps t < -1/2 into (1/4, 1].
    That leaves two expansions, each evaluated once on all its points: the
    power series sum z^n/n^k for |z| <= 1/2, and for z in (1/2, 1]
    Li_k(z) = sum_m zeta(k - m) mu^m/m! + mu^(k-1) (H_(k-1) - ln(-mu))/(k-1)!
    in mu = ln z, taken as ln(1 - x) where z = y.
    """
    import scipy.special

    series, log_exp, log_term, orders, weights = _polylog_coefficients(k)
    x = np.asarray(x, dtype=float)
    y = 1.0 - x
    low = y < -1.0
    t = y.copy()
    t[low] = 1.0 / y[low]
    near = t > 0.5
    dup = t < -0.5
    plain = ~(near | dup)
    square_near = t * t > 0.5
    square_plain = dup & ~square_near
    square_near &= dup

    z = np.concatenate([t[plain], t[square_plain] ** 2])
    mu = np.concatenate([np.log1p(-x[near]), np.log(-t[dup]), 2.0 * np.log(-t[square_near])])
    by_series = _powers(z, _SERIES_TERMS) @ series
    mu_powers = _powers(mu, len(log_exp) - 1)
    log_mu = np.zeros_like(mu)
    np.log(-mu, out=log_mu, where=mu < 0.0)
    by_log = log_exp[0] + mu_powers @ log_exp[1:] - mu_powers[:, k - 2] * log_mu * log_term

    out = np.empty_like(x)
    n_plain, n_near, n_dup = int(plain.sum()), int(near.sum()), int(dup.sum())
    out[plain] = by_series[:n_plain]
    out[near] = by_log[:n_near]
    square = np.empty(n_dup)
    square[~square_near[dup]] = by_series[n_plain:]
    square[square_near[dup]] = by_log[n_near + n_dup:]
    out[dup] = 2.0 ** (1 - k) * square - by_log[n_near:n_near + n_dup]

    # L^m/m! as exp(m ln L - ln m!), which neither overflows nor divides inf by inf
    log_l = np.log(np.log(-y[low]))[:, None]
    inverted = np.exp(log_l * orders - scipy.special.gammaln(orders + 1.0)) @ weights
    out[low] = -inverted - (-1) ** k * out[low]
    return out


def polylog_f(k: int, x):
    """Convex kernel Li_k(1-x) of integer order k >= 0 at finite x > 0;
    vanishes at x = 1 for every k.

    Elementwise over an array x (a float for a scalar x). Orders 0 and 1
    are closed forms, higher orders the array Li_k of ``_polylog_li``.
    """
    if isinstance(k, bool) or not float(k).is_integer() or k < 0:
        raise DomainError(f"polylog order must be an integer >= 0, got {k!r}")
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise NonFinite(f"polylog kernel needs finite x, got {x}")
    if not (x > 0).all():
        raise DomainError(f"polylog kernel needs x > 0, got {x}")
    if k == 0:
        out = (1.0 - x) / x
    elif k == 1:
        out = -np.log(x)
    else:
        out = _polylog_li(int(k), np.atleast_1d(x)).reshape(x.shape)
    return out if out.ndim else float(out)


def _generic(a, b, f, f_at_zero, slope_at_inf):
    """Sum b f(a/b) per row. f is called once, on the array of likelihood
    ratios, with 1 standing in at atoms where a mass vanishes; those
    atoms take the boundary limits instead."""
    inner = (a > 0) & (b > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(
            inner, b * f(np.where(inner, a / b, 1.0)),
            np.where(b > 0, b * f_at_zero, np.where(a > 0, a * slope_at_inf, 0.0)),
        )
    return terms.sum(axis=-1)


_KERNELS = {
    "KL": _kl, "CHI2": _chi2, "TV": _tv, "RENYI": _renyi, "GV": _gv,
    "SKEW_K": _skew_k, "SKEW_S": _skew_s, "JS": _js, "POLYLOG_F": _polylog,
}


def f_divergence_rows(spec: DivergenceSpec, P, q) -> np.ndarray:
    """The divergence selected by spec of every row of the (m, n) stack P
    against the n-atom law q, or against the matching row of an (m, n)
    stack q, in nats (+inf where a row's value is infinite).

    The rows and q share one support and are taken to be probability
    vectors already checked (see ``distributions.validate_mass``).
    """
    P = np.asarray(P, dtype=float)
    q = np.asarray(q, dtype=float)
    if P.ndim != 2 or q.shape not in ((P.shape[1],), P.shape):
        raise DimensionMismatch(
            f"need an (m, n) stack and an n-atom law or (m, n) stack, "
            f"got {P.shape} and {q.shape}"
        )
    return _KERNELS[spec.tag](P, q, spec.param)


def _divergence(spec: DivergenceSpec, a: np.ndarray, b: np.ndarray) -> float:
    """The divergence selected by spec of the mass vector a from b."""
    return float(f_divergence_rows(spec, a[None, :], b)[0])


def _one_row(kernel, p: DiscreteDistribution, q: DiscreteDistribution, *args) -> float:
    pv, qv = _aligned(p, q)
    return float(kernel(pv[None, :], qv, *args)[0])


def f_divergence(
    spec: DivergenceSpec, p: DiscreteDistribution, q: DiscreteDistribution
) -> float:
    """Evaluate the divergence selected by spec; result in nats (or +inf)."""
    return _one_row(_KERNELS[spec.tag], p, q, spec.param)


def generic_f_divergence(
    f: Callable[[np.ndarray], np.ndarray],
    p: DiscreteDistribution,
    q: DiscreteDistribution,
    f_at_zero: float,
    slope_at_inf: float,
) -> float:
    """Sum q_i f(p_i/q_i) with the boundary conventions made explicit.

    f maps an array of likelihood ratios to an array of values (it is
    also evaluated at 1 on atoms where a mass vanishes). f_at_zero is
    lim_{t->0+} f(t); slope_at_inf is lim_{u->inf} f(u)/u. Either may be
    +inf.
    """
    return _one_row(_generic, p, q, f, f_at_zero, slope_at_inf)


def kl(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Relative entropy D(P||Q) in nats."""
    return _one_row(_kl, p, q)


def chi_squared(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Pearson chi-squared divergence chi^2(P||Q)."""
    return _one_row(_chi2, p, q)


def total_variation(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Total variation |P-Q| = sum |p_i - q_i|, always in [0, 2]."""
    return _one_row(_tv, p, q)


def renyi(alpha: float, p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Renyi divergence of order alpha in [0, inf], with continuous extensions."""
    if not alpha >= 0:
        raise DomainError(f"Renyi order must be >= 0, got {alpha}")
    return _one_row(_renyi, p, q, alpha)


def _check_skew(s: float) -> None:
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"skew parameter must lie in [0,1], got {s}")


def gyorfi_vajda(s: float, p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Divergence with kernel (t-1)^2 / (s + (1-s)t); scaled chi^2 vs the s-mixture."""
    _check_skew(s)
    return _one_row(_gv, p, q, s)


def skew_k(alpha: float, p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """K_alpha(P||Q) = D(P || (1-alpha)P + alpha*Q); K_0 = 0 by continuity."""
    _check_skew(alpha)
    return _one_row(_skew_k, p, q, alpha)


def skew_s(alpha: float, p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """S_alpha(P||Q) = alpha*K_alpha(P||Q) + (1-alpha)*K_{1-alpha}(Q||P)."""
    _check_skew(alpha)
    return _one_row(_skew_s, p, q, alpha)


def jensen_shannon(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    return _one_row(_js, p, q)


def binary_kl(r, s):
    """d(r||s) = r log(r/s) + (1-r) log((1-r)/(1-s)) in nats, 0 log(0/0) = 0.

    Elementwise over broadcast arrays; a float for scalar arguments.
    """
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    if not ((r >= 0) & (r <= 1) & (s >= 0) & (s <= 1)).all():
        raise DomainError(f"binary_kl arguments must lie in [0,1], got ({r}, {s})")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (np.where(r > 0, r * np.log(r / s), 0.0)
               + np.where(r < 1, (1.0 - r) * np.log((1.0 - r) / (1.0 - s)), 0.0))
    return out if out.ndim else float(out)


def entropy(p: DiscreteDistribution) -> float:
    """Shannon entropy in nats, 0 log 0 = 0."""
    m = p.p
    pos = m > 0
    return float(-np.sum(m[pos] * np.log(m[pos])))
