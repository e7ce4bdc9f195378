"""Code-redundancy bounds for Poisson mixtures and sample-size planning.

Two pipelines. The first bounds the fractional penalty of a mismatched
Shannon code over a mixture of Poisson sources, one family array with a
pmf per row, comparing a mixture-KL upper bound against the plain
convexity bound; it presents bits. The second inverts the method-of-types
tail bound (n+1)^{k-1} exp(-n d) via the secondary Lambert W branch to get
the minimal sample size; it works in nats throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteDistribution, _check_count, _in_blocks
from .divergences import _binary_term, _mixture_kl
from .errors import DomainError, NonFinite, PreconditionViolated, QuadratureFailure
from .inequalities import _mixture_kl_bound, _validated_weights
from .moment_bounds import MomentTuple, kl_moment_lower_bound

LN2 = math.log(2.0)


# the largest rate of the Poisson pmf and entropy: its window holds
# lam + 10 sqrt(lam) + 16 atoms, 8 MB at this rate
_MAX_PMF_RATE = 1e6


def _rates(lam, cap: float = math.inf) -> np.ndarray:
    """lam as an array of Poisson rates; DomainError unless it holds one and
    each is positive, finite and at most cap, checked before any allocation."""
    lam = np.asarray(lam, dtype=float)
    if not (lam.size and ((lam > 0.0) & (lam < math.inf)).all()):
        raise DomainError(f"Poisson rates must be positive and finite, got {lam}")
    if lam.max() > cap:
        raise DomainError(f"the Poisson pmf takes rates up to {cap:g}, got {lam.max()}")
    return lam


@dataclass(frozen=True)
class PoissonFamily:
    lambdas: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        _rates(self.lambdas)
        _validated_weights(self.lambdas, self.weights)


@dataclass(frozen=True)
class TypeClassProblem:
    m_q: float
    var_q: float
    mean_box: tuple[float, float]
    var_box: tuple[float, float]
    alphabet_size: int
    epsilon: float

    def __post_init__(self):
        values = (self.m_q, self.var_q, *self.mean_box, *self.var_box)
        if not all(math.isfinite(x) for x in values):
            raise NonFinite(f"m_q, var_q and the box edges must be finite, got {values}")
        if self.var_q < 0:
            raise DomainError("var_q must be non-negative")
        if self.mean_box[0] > self.mean_box[1] or self.var_box[0] > self.var_box[1]:
            raise DomainError("boxes must be non-empty intervals")
        if self.var_box[0] < 0:
            raise DomainError("variance box must be non-negative")
        _check_count("alphabet size", self.alphabet_size, 2)
        if not 0.0 < self.epsilon < 1.0:
            raise DomainError("epsilon must lie in (0, 1)")
        # the target mean box must exclude the reference mean, otherwise
        # the infimum of the moment bound is zero and no finite n works
        if self.mean_box[0] <= self.m_q <= self.mean_box[1]:
            raise PreconditionViolated("reference mean lies inside the mean box")


def _window(lam: np.ndarray) -> np.ndarray:
    """The first window size of each rate; it doubles until it holds N."""
    return (lam + 10.0 * np.sqrt(lam)).astype(int) + 16


def _poisson_family(lam: np.ndarray, tail_tol: float):
    """The Poisson pmfs of the 1-d array of rates lam, as one array.

    Each row is built outward from an atom a. From rate 16 on, a is the mode
    floor(lam), and p_a is C. Loader's saddle-point form (Fast and accurate
    computation of binomial probabilities, 2000), exp(-stirlerr(a) - bd0) /
    sqrt(2 pi a): the Stirling series of stirlerr(a) = ln a! - (a + 1/2) ln a
    + a - ln(2 pi)/2 to a^-9, and bd0 = a ln(a/lam) + lam - a by
    ``_binary_term``'s series, where a - lam is exact; both reach 1e-16 for
    a >= 16. Below rate 16, a is 0 with p_a = e^-lam, no atom outweighs it by
    more than e^16, and ln p_a is -lam exactly, as e^-lam may round to 1.

    Row i of rel holds p_j/p_a on its own window {0..size_i - 1}, 0 past it:
    products of the ratios lam/j up from a and (j + 1)/lam down from it. The
    tail beyond j (over p_a) is summed backward from the end of the window,
    so tails down to 1e-300 stay normal; past the window the ratios stay
    below rho = lam/size, so the atoms there add at most
    rel[size - 1] rho/(1 - rho). N_i is the least j whose tail is below
    tail_tol; a window without one doubles. Returns p_a, rel, N, the tail
    beyond N and the entropy -p_a sum rel (ln p_a + ln rel) over the window,
    each row as if built alone.
    """
    a = np.floor(lam)
    big = a >= 16
    m = a[big]
    inv2 = 1.0 / (m * m)
    stirlerr = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - inv2 / 1188) * inv2) * inv2)
                * inv2) / m
    p_a = np.exp(-lam)
    p_a[big] = (np.exp(-stirlerr - _binary_term(m, lam[big], m - lam[big]))
                / np.sqrt(2.0 * np.pi * m))
    a, ln_p_a = np.where(big, a, 0.0), np.where(big, np.log(p_a), -lam)
    size, rows = _window(lam), np.arange(len(lam))
    while True:
        j = np.arange(size.max(), dtype=float)
        rel = (j < size[:, None]).astype(float)
        np.divide(lam[:, None], j, out=rel, where=(j > a[:, None]) & (rel > 0.0))
        np.cumprod(rel, axis=1, out=rel)
        # the downward ratios, then the tails, in one buffer
        buf = np.ones_like(rel)
        np.divide(j + 1.0, lam[:, None], out=buf, where=j < a[:, None])
        rel *= np.cumprod(buf[:, ::-1], axis=1, out=buf[:, ::-1])[:, ::-1]
        tail = np.cumsum(rel[:, :0:-1], axis=1, out=buf[:, :0:-1])[:, ::-1]
        tail += (rel[rows, size - 1] * lam / (size - lam))[:, None]
        below = (tail < (tail_tol / p_a)[:, None]) & (j[1:] < size[:, None])
        if below.any(axis=1).all():
            n = below.argmax(axis=1)
            terms = np.log(rel, out=np.zeros_like(rel), where=rel > 0.0)
            terms += ln_p_a[:, None]
            terms *= rel
            return p_a, rel, n, p_a * tail[rows, n], -p_a * terms.sum(axis=1)
        size = np.where(below.any(axis=1), size, 2 * size)


def _pmf_rows(p_a, rel, n) -> np.ndarray:
    """The renormalized pmfs of a family on {0..max N}, 0 past each row's N."""
    mass = p_a[:, None] * rel[:, :n.max() + 1]
    mass[np.arange(mass.shape[1]) > n[:, None]] = 0.0
    mass /= mass.sum(axis=1, keepdims=True)
    return mass


def poisson_pmf(
    lam: float, tail_tol: float = 1e-15
) -> tuple[DiscreteDistribution, float]:
    """Truncated, renormalized Poisson law and the discarded tail mass.

    The support is {0..N} with N minimal such that the tail beyond N has
    mass below tail_tol: the family of the one rate (``_poisson_family``).
    The pmf is within 4e-15 relative of mpmath up to rate 1e4 (the direct
    exp(k ln lam - ln k! - lam) cancels its large terms: 4e-11 at rate 1e4).
    The discarded tail is never negative. Rates above _MAX_PMF_RATE raise
    DomainError, as their window would not fit in memory.
    """
    lam = _rates(lam, _MAX_PMF_RATE).reshape(1)
    if not 0.0 < tail_tol < 1.0:
        raise DomainError(f"tail_tol must lie in (0, 1), got {tail_tol}")
    p_a, rel, n, tail, _ = _poisson_family(lam, tail_tol)
    return DiscreteDistribution(np.arange(n[0] + 1.0), _pmf_rows(p_a, rel, n)[0]), float(tail[0])


def poisson_kl(lam_i: float, lam_j: float) -> float:
    """Relative entropy between Poisson laws in nats, lam_j g((lam_i - lam_j)/lam_j)
    by ``_binary_term``, which does not cancel as the rates meet."""
    lam_i, lam_j = _rates((lam_i, lam_j))
    return float(_binary_term(lam_i, lam_j, lam_i - lam_j))


def poisson_entropy(lam):
    """Poisson entropy in nats, -sum p_k ln p_k over the pmf window.

    With p_k = p_a rel_k (``_poisson_family`` at tail_tol 1e-15), it is
    -p_a sum rel_k (ln p_a + ln rel_k), a sum of terms -p_k ln p_k >= 0, so
    nothing cancels: within 2e-15 relative of 40-digit mpmath on rates from
    1e-12 to 1e6. The window ends past the 1e-15 tail, and the mass beyond it
    is about 1e-22. Elementwise over an array of rates (a float for a scalar
    rate), built in blocks (``_in_blocks``); rates above _MAX_PMF_RATE raise
    DomainError, like the pmf.
    """
    lam = _rates(lam, _MAX_PMF_RATE)
    # the distinct rates, ascending, so that a block holds windows of like size
    rates, inverse = np.unique(lam, return_inverse=True)
    h = _in_blocks(lambda r: _poisson_family(r, 1e-15)[4], rates, _window(rates))
    return h[inverse].reshape(lam.shape) if lam.ndim else float(h[0])


def redundancy_report(pf: PoissonFamily) -> dict:
    """Redundancy bounds for a Shannon code built on the Poisson mixture.

    All headline numbers are in bits. The direct column evaluates
    sum_i a_i D(P_i || mixture) on the rows of the family's pmf array and
    must sit below the mixture-KL bound, which in turn must sit below the
    convexity bound. The fractional-penalty bounds divide through the
    average source entropy per the mismatched-code sandwich.
    """
    lam = _rates(pf.lambdas, _MAX_PMF_RATE)
    w = np.asarray(pf.weights, dtype=float)
    # the bounds from the family's KL matrix, poisson_kl of each pair
    d = _binary_term(lam[:, None], lam, lam[:, None] - lam)
    tight, convex = _mixture_kl_bound(w, d, w)
    # one family array, at the tail_tol of both poisson_pmf and poisson_entropy;
    # a source of weight 0 is left out: its law may escape the mixture's support
    p_a, rel, n, _, h = _poisson_family(lam, 1e-15)
    direct = w[w > 0] @ _mixture_kl(w, _pmf_rows(p_a, rel, n))[0][w > 0]
    sums = np.array([w @ tight, w @ convex, direct, w @ h])
    tight_bits, convex_bits, direct_bits, h_bits = (sums / LN2).tolist()
    return {
        "per_source": [{"lam": x, "weight": a, "kl_upper_bits": t, "convexity_bits": c}
                       for x, a, t, c in zip(pf.lambdas, pf.weights, (tight / LN2).tolist(),
                                             (convex / LN2).tolist())],
        "sum_kl_upper_bits": tight_bits,
        "convexity_upper_bits": convex_bits,
        "direct_sum_bits": direct_bits,
        "avg_entropy_bits": h_bits,
        "nu_upper_improved": (1.0 + tight_bits) / h_bits,
        "nu_upper_loose": (1.0 + convex_bits) / h_bits,
        "nu_lower_direct": direct_bits / (1.0 + h_bits),
    }


def d_star(tcp: TypeClassProblem) -> float:
    """Worst-case moment lower bound over the mean-by-variance box, nats.

    The bound of ``moment_bound_arrays`` is the HCR bound on
    chi^2(P||R_s), R_s = (1-s)P + sQ, integrated through
    D(P||Q) = int_0^1 chi^2(P||R_s)/s ds:
    int_0^1 s a^2 / ((1-s) var_p + s var_q + s(1-s) a^2) ds, a = m_p - m_q.
    The integrand is non-decreasing in a^2 (its a^2-derivative has the sign
    of (1-s) var_p + s var_q) and non-increasing in var_p, so the minimum
    over the box is at one corner: the mean edge nearest m_q, at the
    largest variance.
    """
    m_lo, m_hi = tcp.mean_box
    m_near = m_lo if m_lo > tcp.m_q else m_hi
    mt = MomentTuple(m_p=m_near, var_p=tcp.var_box[1], m_q=tcp.m_q, var_q=tcp.var_q)
    return kl_moment_lower_bound(mt).bound_nats


# Halley steps that lambert_w_minus1 may take before it gives up
_HALLEY_STEPS = 200


def lambert_w_minus1(y: float) -> float:
    """Secondary real branch of the inverse of x e^x, on [-1/e, 0).

    Halley iteration from the asymptotic start ln(-y) - ln(-ln(-y));
    the converged point satisfies |x e^x - y| < 1e-13 * |y|. A point that
    does not within _HALLEY_STEPS steps raises QuadratureFailure, naming
    the residual it reached.
    """
    branch_point = -1.0 / math.e
    if not branch_point - 1e-15 <= y < 0.0:
        raise DomainError(f"argument must lie in [-1/e, 0), got {y}")
    if y <= branch_point:
        return -1.0
    x = math.log(-y) - math.log(-math.log(-y))
    x = min(x, -1.0)
    target = 1e-13 * abs(y)
    for _ in range(_HALLEY_STEPS):
        ex = math.exp(x)
        f = x * ex - y
        if abs(f) < target:
            return x
        fp = ex * (x + 1.0)
        denom = fp - (x + 2.0) * f / (2.0 * (x + 1.0))
        step = f / denom
        x -= step
        if abs(step) < 1e-17 * abs(x):
            # fixed point at roundoff level; re-check the contract below
            break
    residual = abs(x * math.exp(x) - y)
    if residual < target:
        return x
    raise QuadratureFailure(
        f"Lambert W iteration did not converge (budget {_HALLEY_STEPS} Halley steps): "
        f"|x e^x - y| = {residual:.3g} at x = {x!r}, target {target:.3g} (y = {y!r})")


def _log_tail_bound(n: int, k: int, d: float) -> float:
    return (k - 1) * math.log(n + 1.0) - n * d


def n_star(tcp: TypeClassProblem, d: float) -> int:
    """Minimal n with (n+1)^(k-1) exp(-n d) <= epsilon, via Lambert W.

    The closed form is checked a posteriori: the bound must not exceed
    epsilon at the returned n and must exceed it one step earlier
    (unless the returned n is 1).
    """
    if not d > 0:
        raise DomainError(f"the divergence floor d must be positive, got {d}")
    if math.isinf(d):
        # exp(-n d) = 0 at every n >= 1
        return 1
    k = tcp.alphabet_size
    eps = tcp.epsilon
    # with x = d/(k-1), eta = -x e^(-x) eps^(1/(k-1)) > -1/e for eps in (0, 1)
    eta = -d * (eps * math.exp(-d)) ** (1.0 / (k - 1)) / (k - 1)
    n = max(math.ceil(-(k - 1) * lambert_w_minus1(eta) / d) - 1, 1)
    log_eps = math.log(eps)
    while _log_tail_bound(n, k, d) > log_eps:
        n += 1
    while n > 1 and _log_tail_bound(n - 1, k, d) <= log_eps:
        n -= 1
    return n


def sanov_bound(tcp: TypeClassProblem, n: int, d: float | None = None) -> float:
    """Method-of-types tail bound (n+1)^(k-1) exp(-n d*), clipped at 1."""
    _check_count("sample size n", n, 1)
    if d is None:
        d = d_star(tcp)
    elif not d > 0:
        raise DomainError(f"the divergence floor d must be positive, got {d}")
    return min(math.exp(_log_tail_bound(n, tcp.alphabet_size, d)), 1.0)
