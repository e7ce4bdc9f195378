"""f-divergences of discrete distributions.

All values are in nats. Divergences may be +inf (IEEE infinity is used as
the explicit extended-real marker, never an exception), so inequalities
with infinite sides remain checkable. Boundary conventions follow the
standard f-divergence definition: f(0) is the right limit at zero,
0*f(0/0) = 0, and 0*f(a/0) = a * lim_{u->inf} f(u)/u.

Each kernel is written once, over an (m, n) stack of rows against one law
on the same support (``f_divergence_rows``), with masks for the boundary
conventions; the functions on two distributions are its one-row case, on
the union of the two supports (``align``).

Every mixture that a divergence divides by is formed in one place,
``_mixture``, scaled per atom where one of its entries is small: an atom's
masses are divided by c, a power of two, and each term, 1-homogeneous in
them, is multiplied by c. That rounds nothing, so a term is bit-identical
to the unscaled one wherever that one has no subnormal value, and a
mixture under a positive mass cannot round to 0 (as 0.5 * 5e-324 does).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import DiscreteDistribution, align
from .errors import DimensionMismatch, DomainError, NonFinite, QuadratureFailure

INF = math.inf


@dataclass(frozen=True)
class DivergenceSpec:
    """Selects one member of the f-divergence families used here.

    tag: KL | CHI2 | TV | RENYI | GV | SKEW_K | SKEW_S | JS | POLYLOG_F
    param: order alpha for RENYI, skew s/alpha for GV/SKEW_*, integer k
    for POLYLOG_F; None for the others (domains in ``_REGISTRY``).
    """

    tag: str
    param: float | None = None

    def __post_init__(self):
        _check_param(self.tag, self.param)

    @classmethod
    def parse(cls, text: str) -> "DivergenceSpec":
        """Parse CLI-style specs like 'kl', 'renyi:2', 'gv:0.5', 'polylog:2'."""
        name, _, arg = text.partition(":")
        name = name.strip().lower()
        tag = _NAMES.get(name)
        if tag is None:
            raise DomainError(f"unknown divergence name {name!r}")
        try:
            param = float(arg) if arg else None
        except ValueError:
            raise DomainError(f"{name!r} needs a numeric parameter, got {arg!r}") from None
        return cls(tag, param)


# -- kernels: a and b broadcast to (m, n), one value per row ----------------

def _mixture(weights, laws):
    """(c, laws / c, mixture / c). laws is a pair (a, b) that broadcasts,
    mixed as weights[0] a + weights[1] b (a weight may be a column, one per
    row), or a (k, n) stack, mixed by a matmul with the k weights.

    Where an entry of the unscaled mixture is below 2^-448, or it has none,
    c is the power of two at or below the largest mass of each atom, at
    least 2^-1022, so that the largest scaled mass of an atom lies in
    [2^-52, 2) or is 0. Elsewhere scaling would change no bit, so c is 1 and
    the laws are returned as they are: each atom holds a mass of at least
    2^-448, a nonzero difference of two masses there is at least 2^-501 (an
    ulp of the smaller, or half the larger), and its square and every
    product and quotient that a kernel term forms from such masses are
    normal numbers; a mass too small for that adds less than half an ulp of
    the mixture entry, scaled or not."""
    pair = isinstance(laws, tuple)

    def mix(x):
        return weights[0] * x[0] + weights[1] * x[1] if pair else weights @ x

    m = mix(laws)
    if m.size and m.min() >= 2.0 ** -448:
        return 1.0, laws, m
    # the largest mass with its mantissa bits cleared
    c = np.maximum(*laws) if pair else laws.max(axis=0)
    np.bitwise_and(c.view(np.int64), 0x7FF0000000000000, out=c.view(np.int64))
    np.maximum(c, 2.0 ** -1022, out=c)
    laws = (laws[0] / c, laws[1] / c) if pair else laws / c
    return c, laws, mix(laws)


def _rows(picked, *arrays):
    """The rows that the mask picked selects from the arrays, broadcast
    together first."""
    return [x[picked] for x in np.broadcast_arrays(*arrays)]


def _kl(a, b, _=None, c=1.0):
    """Sum a ln(a/b) - a + b, whose terms are individually non-negative:
    identical to sum a ln(a/b) for probability vectors but stable when the
    rows are extremely close (the linear parts cancel per term instead of
    across the whole sum). A term with a > 0 = b is +inf. An array c scales
    each term back where a and b are scaled per atom (``_mixture``).

    a / b overflows where b is subnormal (0.1 / 5e-324): on a row that came
    out +inf, such a term takes ln a - ln b instead, so that only a > 0 = b
    leaves it infinite."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = np.where(a > 0, a * np.log(a / b) - a + b, b)
    if isinstance(c, np.ndarray):
        terms *= c
    out = np.maximum(terms.sum(axis=-1), 0.0)
    # probability rows give no NaN row, so the largest row is +inf where any is
    if out.size and out.max() == INF:
        over = out == INF
        a, b, c = _rows(over, a, b, c)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratio = a / b
            log_ratio = np.where(np.isinf(ratio) & (b > 0), np.log(a) - np.log(b), np.log(ratio))
            terms = np.where(a > 0, a * log_ratio - a + b, b) * c
        out[over] = np.maximum(terms.sum(axis=-1), 0.0)
    return out


def _chi2(a, b, _=None, c=1.0):
    d = a - b
    # d * d / b overflows to +inf where b is subnormal
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = np.where(b > 0, d * d / b, np.where(a > 0, INF, 0.0))
    if isinstance(c, np.ndarray):
        terms *= c
    return terms.sum(axis=-1)


def _tv(a, b, _=None):
    return np.abs(a - b).sum(axis=-1)


def _renyi(a, b, alpha):
    """Renyi divergence. Away from the orders 0, 1 and inf it is taken as
    log1p(sum p expm1((alpha-1) ln(p/q)) - P(q = 0)) / (alpha - 1), which
    keeps full relative precision near alpha = 1, where
    log(sum p^alpha q^(1-alpha)) / (alpha - 1) cancels.

    Above order 1 the sum, or p/q itself at a subnormal q, may overflow: a
    row that came out +inf with q > 0 wherever p > 0 is taken in logs, as
    logsumexp(alpha ln p + (1-alpha) ln q) / (alpha - 1), and at order inf
    as the largest ln p - ln q."""
    if alpha == 1.0:
        return _kl(a, b)
    pos = a > 0
    off = pos & (b == 0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if alpha == 0.0:
            return -np.log(np.where(pos, b, 0.0).sum(axis=-1))
        ratio = a / b
        if math.isinf(alpha):
            out = np.log(np.where(pos, ratio, 0.0).max(axis=-1))
        else:
            z_minus_1 = (
                np.where(pos & ~off, a * np.expm1((alpha - 1.0) * np.log(ratio)), 0.0)
                .sum(axis=-1)
                - np.where(off, a, 0.0).sum(axis=-1)
            )
            out = np.log1p(z_minus_1) / (alpha - 1.0)
            # rows with no atom in common have sum p^alpha q^(1-alpha) = 0
            # exactly, however the rounded P(q = 0) falls short of 1
            out[(z_minus_1 <= -1.0) | ~(pos & ~off).any(axis=-1)] = INF
    if alpha > 1.0:
        off = off.any(axis=-1)
        over = (out == INF) & ~off
        if over.any():
            a, b = _rows(over, a, b)
            with np.errstate(divide="ignore", invalid="ignore"):
                log_a, log_b = np.log(a), np.log(b)
                if math.isinf(alpha):
                    out[over] = np.where(a > 0, log_a - log_b, -INF).max(axis=-1)
                else:
                    x = np.where(a > 0, alpha * log_a + (1.0 - alpha) * log_b, -INF)
                    top = x.max(axis=-1)
                    total = top + np.log(np.exp(x - top[:, None]).sum(axis=-1))
                    out[over] = total / (alpha - 1.0)
        out[off] = INF
    return out


def _gv(a, b, s):
    """Sum (a - b)^2 / ((1 - s) a + s b), +inf where only the denominator
    vanishes. s is one skew, or an (m, 1) column of skews, one for each row;
    s = 0 gives chi^2(b||a) and s = 1 gives chi^2(a||b)."""
    c, (a, b), m = _mixture((1.0 - s, s), (a, b))
    d = a - b
    # d * d / m overflows to +inf where m is subnormal, as in _chi2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = np.where(m > 0, d * d / m, np.where(d != 0, INF, 0.0))
    if isinstance(c, np.ndarray):
        terms *= c
    return terms.sum(axis=-1)


def _skew_k(a, b, alpha):
    # at alpha = 0 the mixture is a itself, so K_0 = 0 exactly
    c, (a, _), m = _mixture((1.0 - alpha, alpha), (a, b))
    return _kl(a, m, c=c)


def _skew_s(a, b, alpha):
    # alpha D(a||M) + (1 - alpha) D(b||M): a side of weight 0 is D(M||M) = 0
    c, (a, b), m = _mixture((1.0 - alpha, alpha), (a, b))
    return alpha * _kl(a, m, c=c) + (1.0 - alpha) * _kl(b, m, c=c)


def _mixture_kl(w, stack):
    """D(P_i || M) for each row P_i of the (k, n) stack, and M = w @ stack."""
    c, stack, m = _mixture(w, stack)
    return _kl(stack, m, c=c), c * m


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


# terms of Borwein's eta series: for s >= 2 the error of zeta is below
# 3 (3 + sqrt 8)^-30 / (1 - 2^(1-s)) < 1e-22, and its weights sum Li_k on
# [-1, 0) to the same bound
_ETA_TERMS = 30


@functools.cache
def _tangent_numbers() -> list[int]:
    """T_0 = 0, T_1, ..., T_13: tan x = sum T_n x^(2n-1)/(2n-1)!, by the
    integer recurrence of R. P. Brent and D. Harvey (Fast computation of
    Bernoulli, tangent and secant numbers, 2011). They give zeta(1 - 2n)
    for the ln-expansion of Li_k, which reaches zeta(2 - (_LOG_TERMS - 1))."""
    count = _LOG_TERMS // 2 - 1
    t = [0, 1] + [0] * (count - 1)
    for k in range(2, count + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


@functools.cache
def _eta_weights() -> list[float]:
    """(-1)^j (d_n - d_j)/d_n of P. Borwein's alternating series
    eta(s) = sum_j (-1)^j (d_n - d_j)/d_n (j+1)^-s (An efficient algorithm
    for the Riemann zeta function, 2000), with n = _ETA_TERMS and the
    integers d_j = n sum_(i<=j) (n+i-1)! 4^i / ((n-i)! (2i)!). They sum any
    alternating series whose terms a_j are moments int_0^1 u^j dmu, mu >= 0,
    to within 2 a_0 (3 + sqrt 8)^-n (H. Cohen, F. Rodriguez Villegas and
    D. Zagier, Convergence acceleration of alternating series, 2000), as
    are those of Li_k on [-1, 0) (``_polylog_li``)."""
    n = _ETA_TERMS
    d = list(itertools.accumulate(
        n * math.factorial(n + i - 1) * 4 ** i // (math.factorial(n - i) * math.factorial(2 * i))
        for i in range(n + 1)))
    return [(-1) ** j * (d[n] - d[j]) / d[n] for j in range(n)]


@functools.cache
def _zeta(s: int) -> float:
    """Riemann zeta at an integer s != 1, to within 2e-16 relative.

    For s >= 2 it is eta(s)/(1 - 2^(1-s)) by Borwein's series, its rounded
    terms summed exactly (``math.fsum``). Below, with the Bernoulli numbers
    B_2n = (-1)^(n-1) 2n T_n / (4^n (4^n - 1)): zeta(1-2n) = -B_2n/2n,
    zeta(0) = -1/2 and the trivial zeros zeta(-2n) = 0, each a ratio of
    Python ints, whose true division rounds once.
    """
    if s <= 0:
        if s % 2 == 0:
            return 0.0 if s else -0.5
        n = (1 - s) // 2
        return (-1) ** n * _tangent_numbers()[n] / (4 ** n * (4 ** n - 1))
    eta = math.fsum(w * (j + 1.0) ** -s for j, w in enumerate(_eta_weights()))
    return eta / (1.0 - 2.0 ** (1 - s))


@functools.cache
def _polylog_coefficients(k: int):
    """Coefficients of Li_k for integer k >= 2 (``_polylog_li``): the power
    series 1/n^k; the expansion in mu = ln z, zeta(k - m)/m! with
    H_(k-1)/(k-1)! at m = k - 1, and 1/(k-1)! of its log term; and the
    orders k, k - 2, ... of the inversion formula, their ln m!, and its
    weights 1, 2 eta(2), 2 eta(4), ..., eta(2j) = (1 - 2^(1-2j)) zeta(2j);
    last, the first _ETA_TERMS terms of the series times ``_eta_weights``."""
    series = np.arange(1.0, _SERIES_TERMS + 1.0) ** -float(k)
    log_exp = np.array([
        (math.fsum(1.0 / j for j in range(1, k)) if m == k - 1 else _zeta(k - m))
        / math.factorial(m) for m in range(_LOG_TERMS)])
    orders = np.arange(k, -1, -2, dtype=float)
    log_fact = np.array([math.lgamma(m + 1.0) for m in orders])
    weights = np.array([1.0] + [2.0 * (1.0 - 2.0 ** (1 - j)) * _zeta(j)
                                for j in range(2, k + 1, 2)])
    # an int ratio, rounded once: 0 where (k-1)! passes the float range
    return (series, log_exp, 1 / math.factorial(k - 1), orders, log_fact, weights,
            series[:_ETA_TERMS] * _eta_weights())


# 40 terms of the series reach a relative 1e-16 for |z| <= 1/2, and 28 of
# the ln-expansion for |mu| <= ln 2 at every order k: its terms fall like
# (mu / 2 pi)^m, and for k > 28 they are zeta(k - m) mu^m/m! with zeta near
# 1, below 1e-30 past the 28th, as is the log term mu^(k-1)/(k-1)!. The
# alternating sum takes its terms 1/n^k from the series table, so
# _SERIES_TERMS stays >= _ETA_TERMS
_SERIES_TERMS = 40
_LOG_TERMS = 28


def _powers(z: np.ndarray, count: int) -> np.ndarray:
    """The (len(z), count) array z, z^2, ..., z^count: np.cumprod's
    products, without its Python wrappers."""
    return np.multiply.accumulate(z[:, None].repeat(count, axis=1), axis=1)


def _polylog_li(k: int, x: np.ndarray) -> np.ndarray:
    """Li_k(1 - x) for integer k >= 2 and an array x > 0, in closed form
    (D. C. Wood, The Computation of Polylogarithms, 1992).

    With y = 1 - x, the inversion
    Li_k(y) = -(-1)^k Li_k(1/y) - L^k/k! - 2 sum_j eta(2j) L^(k-2j)/(k-2j)!,
    L = ln(-y), maps y < -1 to t = 1/y in (-1, 0). That leaves three sums,
    each evaluated once on all its points: for t in [-1, 0) the alternating
    series Li_k(t) = -sum_j (-1)^j u^(j+1)/(j+1)^k, u = -t, by Borwein's
    weights (``_eta_weights``); for t in [0, 1/2] the power series
    sum t^n/n^k; and for t in (1/2, 1)
    Li_k(t) = sum_m zeta(k - m) mu^m/m! + mu^(k-1) (H_(k-1) - ln(-mu))/(k-1)!
    in mu = ln t, taken as ln(1 - x).
    """
    series, log_exp, log_term, _, _, _, eta_series = _polylog_coefficients(k)
    x = np.asarray(x, dtype=float)
    y = 1.0 - x
    low = y < -1.0
    # a region that holds no point costs no power table and no matmul
    # (np.count_nonzero is the cheapest test of a mask)
    any_low = np.count_nonzero(low)
    t = y.copy()
    if any_low:
        t[low] = 1.0 / y[low]
    alternating = t < 0.0
    near = t > 0.5
    plain = ~(alternating | near)

    out = np.empty_like(x)
    if np.count_nonzero(alternating):
        u = -t[alternating]
        out[alternating] = -(_powers(u, _ETA_TERMS) @ eta_series)
    if np.count_nonzero(plain):
        out[plain] = _powers(t[plain], _SERIES_TERMS) @ series
    if np.count_nonzero(near):
        # mu < 0 for every x > 0
        mu = np.log1p(-x[near])
        out[near] = (log_exp[0] + _powers(mu, len(log_exp) - 1) @ log_exp[1:]
                     - mu ** (k - 1) * np.log(-mu) * log_term)
    if any_low:
        out[low] = _inverted(k, y[low], out[low])
    return out


def _inverted(k: int, y: np.ndarray, li_inverse: np.ndarray) -> np.ndarray:
    """Li_k(y) at an array y < -1 from li_inverse = Li_k(1/y), by the
    inversion formula of ``_polylog_li``."""
    orders, log_fact, weights = _polylog_coefficients(k)[3:6]
    # L^m/m! as exp(m ln L - ln m!), which neither overflows nor divides inf by
    # inf. |Li_k(y)| >= eta(k) >= 1/2 for y <= -1, so the orders m >= 2 max L
    # with (max L)^m/m! < 1e-32 are left out (max L taken as at least 1):
    # together they add below 1e-31
    log_l = np.log(np.log(-y))[:, None]
    top = log_l.max(initial=0.0)
    keep = (orders < 2.0 * np.exp(top)) | (orders * top - log_fact > math.log(1e-32))
    inverted = np.exp(log_l * orders[keep] - log_fact[keep]) @ weights[keep]
    return -inverted - (-1) ** k * li_inverse


def polylog_f(k: int, x):
    """Convex kernel Li_k(1-x) of integer order k in [0, 1000] at finite x > 0;
    vanishes at x = 1 for every k.

    Elementwise over an array x (a float for a scalar x). Orders 0 and 1
    are closed forms, higher orders the array Li_k of ``_polylog_li``.
    """
    _check_param("POLYLOG_F", k)
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
    atoms take the boundary limits instead.

    a / b overflows where b is subnormal (0.1 / 5e-324), and b f(inf) is
    then no limit of the term: a row that came out NaN or infinite with such
    an atom raises QuadratureFailure, which names the atom."""
    inner = (a > 0) & (b > 0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.where(inner, a / b, 1.0)
        terms = np.where(
            inner, b * f(ratio),
            np.where(b > 0, b * f_at_zero, np.where(a > 0, a * slope_at_inf, 0.0)),
        )
    out = terms.sum(axis=-1)
    if not math.isfinite(out.sum()):
        over = np.isinf(ratio) & ~np.isfinite(out)[..., None]
        if over.any():
            row, atom = np.argwhere(over)[0]
            a, b = np.broadcast_arrays(a, b)
            raise QuadratureFailure(
                f"likelihood ratio {float(a[row, atom])!r} / {float(b[row, atom])!r} "
                f"overflows at atom {atom}, and the divergence came out {float(out[row])!r}")
    return out


def _unit(x) -> bool:
    return 0.0 <= x <= 1.0


# One entry per tag: its row kernel, and the domain of its parameter as a
# predicate (None: the tag takes no parameter) and as text for the error.
_REGISTRY = {
    "KL": (_kl, None, ""),
    "CHI2": (_chi2, None, ""),
    "TV": (_tv, None, ""),
    "RENYI": (_renyi, lambda alpha: alpha >= 0, "an order alpha in [0, inf]"),
    "GV": (_gv, _unit, "a skew s in [0, 1]"),
    "SKEW_K": (_skew_k, _unit, "a skew alpha in [0, 1]"),
    "SKEW_S": (_skew_s, _unit, "a skew alpha in [0, 1]"),
    "JS": (_js, None, ""),
    # the coefficient tables of Li_k grow linearly in k
    "POLYLOG_F": (_polylog, lambda k: not isinstance(k, bool) and float(k).is_integer()
                  and 0 <= k <= 1000, "an integer order k in [0, 1000]"),
}
# CLI names: the lower-case tag, and 'polylog' for POLYLOG_F
_NAMES = {tag.lower(): tag for tag in _REGISTRY} | {"polylog": "POLYLOG_F"}


def _check_param(tag: str, param) -> Callable:
    """The row kernel of tag; raises DomainError unless param lies in the
    domain of its parameter."""
    if tag not in _REGISTRY:
        raise DomainError(f"unknown divergence tag {tag!r}")
    rows, domain, needs = _REGISTRY[tag]
    if domain is None:
        if param is not None:
            raise DomainError(f"{tag} takes no parameter, got {param!r}")
    elif param is None or not domain(param):
        raise DomainError(f"{tag} requires {needs}, got {param!r}")
    return rows


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
    return _REGISTRY[spec.tag][0](P, q, spec.param)


def _one_row(kernel, p: DiscreteDistribution, q: DiscreteDistribution, *args) -> float:
    pa, qa = align(p, q)
    return float(kernel(pa.mass[None, :], qa.mass, *args)[0])


def f_divergence(
    spec: DivergenceSpec, p: DiscreteDistribution, q: DiscreteDistribution
) -> float:
    """Evaluate the divergence selected by spec; result in nats (or +inf)."""
    return _one_row(_REGISTRY[spec.tag][0], p, q, spec.param)


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


def _parametric(tag: str, param, p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    return _one_row(_check_param(tag, param), p, q, param)


def renyi(alpha: float, p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Renyi divergence of order alpha in [0, inf], with continuous extensions."""
    return _parametric("RENYI", alpha, p, q)


def gyorfi_vajda(s: float, p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Divergence with kernel (t-1)^2 / (s + (1-s)t); scaled chi^2 vs the s-mixture."""
    return _parametric("GV", s, p, q)


def skew_k(alpha: float, p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """K_alpha(P||Q) = D(P || (1-alpha)P + alpha*Q); K_0 = 0 by continuity."""
    return _parametric("SKEW_K", alpha, p, q)


def skew_s(alpha: float, p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """S_alpha(P||Q) = alpha*K_alpha(P||Q) + (1-alpha)*K_{1-alpha}(Q||P)."""
    return _parametric("SKEW_S", alpha, p, q)


def jensen_shannon(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    return _one_row(_js, p, q)


def f_k_divergence(k: int, p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Divergence with the Li_k(1-x) kernel; k=0 gives chi^2(Q||P), k=1 gives D(Q||P)."""
    return f_divergence(DivergenceSpec("POLYLOG_F", k), p, q)


# g(t)/t^2 = sum_j (-t)^j / ((j + 1)(j + 2)), to 1e-17 relative for |t| < 1/8
_G_SERIES = 1.0 / ((np.arange(18.0) + 1.0) * np.arange(2.0, 20.0))
_G_CUT = 0.125


def _binary_term(x, y, diff):
    """x ln(x/y) - diff where x - y = diff, that is y g(diff/y) with
    g(t) = (1 + t) ln(1 + t) - t >= 0; 0 at x = 0 and +inf at y = 0 < x.

    The terms of d(r||s) for r and 1 - r sum to d because their diffs
    cancel. Written as x ln(x/y) each term is about +-diff and the sum loses
    every digit as r -> s; g keeps them: by its series where |t| < 1/8, and
    elsewhere directly, where the subtraction loses at most four bits, with
    ln(x/y) = log1p(t) except where t < -1/2 and x/y is the accurate one."""
    x, y, diff = np.broadcast_arrays(x, y, diff)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = np.asarray(diff / y)
        log_ratio = np.where(t < -0.5, np.log(x / y), np.log1p(t))
        out = np.asarray(np.where(x > 0, x * log_ratio, 0.0) - diff)
    near = np.abs(t) < _G_CUT
    u = t[near]
    # the series on the near entries only
    out[near] = y[near] * u * u * _g_series(u)
    return out


def _g_series(u: np.ndarray) -> np.ndarray:
    """g(t)/t^2 by its series, at an array u of t with |t| < 1/8."""
    return _powers(-u, len(_G_SERIES) - 1) @ _G_SERIES[1:] + _G_SERIES[0]


def binary_kl(r, s):
    """d(r||s) = r log(r/s) + (1-r) log((1-r)/(1-s)) in nats, 0 log(0/0) = 0.

    Elementwise over broadcast arrays; a float for scalar arguments. The sum
    of two non-negative terms (``_binary_term``), accurate as r -> s.
    """
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    if not ((r >= 0) & (r <= 1) & (s >= 0) & (s <= 1)).all():
        raise DomainError(f"binary_kl arguments must lie in [0,1], got ({r}, {s})")
    out = _binary_term(r, s, r - s) + _binary_term(1.0 - r, 1.0 - s, s - r)
    return out if out.ndim else float(out)


def _entropy(m: np.ndarray) -> float:
    """-sum m ln m over the positive entries of the 1-d array m."""
    m = m[m > 0]
    return float(-np.sum(m * np.log(m)))


def entropy(p: DiscreteDistribution) -> float:
    """Shannon entropy in nats, 0 log 0 = 0."""
    return _entropy(p.mass)
