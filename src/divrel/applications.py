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

from .distributions import (DiscreteDistribution, _check_count, _check_real, _check_reals,
                            _in_blocks, _reals)
from .divergences import _binary_term, _mixture_kl
from .errors import DomainError, PreconditionViolated, QuadratureFailure
from .inequalities import _mixture_kl_bound, _validated_weights
from .moment_bounds import MomentTuple, kl_moment_lower_bound

LN2 = math.log(2.0)


# the largest rate of the Poisson pmf and entropy: its window holds
# lam + 10 sqrt(lam) + 16 atoms, 8 MB at this rate
_MAX_PMF_RATE = 1e6


def _rates(lam, cap: float = math.inf) -> np.ndarray:
    """lam as an array of Poisson rates; DomainError unless it holds one and
    each is positive, finite and at most cap, checked before any allocation."""
    lam = _reals(lam)
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
        for name, box in (("mean box", self.mean_box), ("variance box", self.var_box)):
            try:
                _, _ = box
            except (TypeError, ValueError):
                raise DomainError(f"the {name} must be two edges (lo, hi), got {box!r}") from None
        _check_reals("m_q, var_q and the box edges",
                     (self.m_q, self.var_q, *self.mean_box, *self.var_box))
        _check_real("var_q", self.var_q, 0.0)
        _check_real("upper mean edge", self.mean_box[1], self.mean_box[0])
        _check_real("upper variance edge", self.var_box[1], self.var_box[0])
        _check_real("variance box", self.var_box[0], 0.0)
        _check_count("alphabet size", self.alphabet_size, 2)
        _check_real("epsilon", self.epsilon, 0.0, 1.0, lo_open=True, hi_open=True)
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
    _check_real("tail_tol", tail_tol, 0.0, 1.0, lo_open=True, hi_open=True)
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
    w = _reals(pf.weights)
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


# Halley steps that the Lambert W iteration may take before it gives up
_HALLEY_STEPS = 200
# ln 2 as a head with 21 trailing zero bits, so that e * head is exact for
# every binary exponent e of a float, and the rest (fdlibm's ln2_hi, ln2_lo)
_LN2_HEAD, _LN2_TAIL = 6.93147180369123816490e-01, 1.90821492927058770002e-10


def lambert_w_minus1(y: float) -> float:
    """Secondary real branch of the inverse of x e^x, on [-1/e, 0).

    The root of x + ln(-x) = ln(-y) (``_w_minus1_of_log``), whose residual
    has no floor at a subnormal y, with ln(-y) = e ln 2 + ln m from
    -y = m 2^e carried in two parts: the converged point satisfies
    |x e^x - y| < 1e-13 |y| at every y down to -5e-324.
    """
    branch_point = -1.0 / math.e
    _check_real("y", y, branch_point - 1e-15, 0.0, hi_open=True)
    if y <= branch_point:
        return -1.0
    m, e = math.frexp(-y)
    return _w_minus1_of_log(e * _LN2_HEAD, e * _LN2_TAIL + math.log(m))


def _w_minus1_of_log(head: float, tail: float = 0.0) -> float:
    """The x <= -1 with x + ln(-x) = head + tail = ln(-y) < -1: W_-1(y) in
    the logarithmic form of Corless et al. (On the Lambert W function, 1996,
    sec. 4). Halley steps on F(x) = ((x - head) + ln(-x)) - tail, from the
    asymptotic start ln(-y) - ln(-ln(-y)); x - head is exact where the two
    lie within a factor 2. As x e^x = y e^F, |x e^x - y| = |y expm1(F)|, and
    x is returned one step after that is below 1e-13 |y|, or once a step no
    longer moves x (as at ln(-y) = -1e300, where no float lies nearer the
    root); QuadratureFailure, naming that residual, where neither comes
    within _HALLEY_STEPS steps."""
    log_y = head + tail
    if log_y >= -1.0:
        return -1.0
    x = log_y - math.log(-log_y)
    for _ in range(_HALLEY_STEPS):
        f = ((x - head) + math.log(-x)) - tail
        # F/F' = f x/(x + 1), and F F''/(2 F'^2) = -f/(2 (x + 1)^2)
        u = f / (x + 1.0)
        step = u * x / (1.0 + 0.5 * u / (x + 1.0))
        if abs(math.expm1(f)) < 1e-13 or x - step == x:
            return x - step
        x -= step
    y, f = -math.exp(log_y), ((x - head) + math.log(-x)) - tail
    raise QuadratureFailure(
        f"Lambert W iteration did not converge (budget {_HALLEY_STEPS} Halley steps): "
        f"|x e^x - y| = {abs(y * math.expm1(f)):.3g} at x = {x!r}, "
        f"target {1e-13 * abs(y):.3g} (ln(-y) = {log_y!r})")


def _log_tail_bound(n: int, k: int, d: float) -> float:
    return (k - 1) * math.log(n + 1.0) - n * d


def n_star(tcp: TypeClassProblem, d: float) -> int:
    """Minimal n with (n+1)^(k-1) exp(-n d) <= epsilon, via Lambert W.

    The closed form n = -(k-1) W_-1(eta)/d, eta = -x e^-x eps^(1/(k-1)) with
    x = d/(k-1), is taken from ln(-eta), which does not underflow; then a
    bracket around it, by doubling steps, and a bisection find the least n
    whose bound is at most epsilon in floats, in O(log n) evaluations of the
    bound. Above 2^53, where n d is not exact, n* is known only to about
    1e-16 relative. DomainError where n* would lie past 2^1023, near the end
    of the float range (d = 1e-310 at k = 2).
    """
    _check_real("the divergence floor d", d, 0.0, lo_open=True)
    if math.isinf(d):
        # exp(-n d) = 0 at every n >= 1
        return 1
    k = tcp.alphabet_size
    log_eps = math.log(tcp.epsilon)
    # eta = -x e^(-x) eps^(1/(k-1)) > -1/e for eps in (0, 1)
    log_eta = math.log(d) - math.log(k - 1) - d / (k - 1) + log_eps / (k - 1)
    start = -(k - 1) * _w_minus1_of_log(log_eta) / d
    if not start < 2.0 ** 1023:
        raise DomainError(f"the divergence floor d = {d!r} puts n* past 2^1023, "
                          "near the end of the float range")

    def over(n: int) -> bool:
        return _log_tail_bound(n, k, d) > log_eps

    # a bracket with over(lo), or lo = 0 (whose bound is 1), and not over(hi)
    hi = max(math.ceil(start) - 1, 1)
    lo, step = hi - 1, 1
    while over(hi):
        lo, hi, step = hi, hi + step, 2 * step
    step = 1
    while lo > 0 and not over(lo):
        lo, hi, step = max(lo - step, 0), lo, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if over(mid) else (lo, mid)
    return hi


def sanov_bound(tcp: TypeClassProblem, n: int, d: float | None = None) -> float:
    """Method-of-types tail bound (n+1)^(k-1) exp(-n d*), clipped at 1."""
    _check_count("sample size n", n, 1)
    if d is None:
        d = d_star(tcp)
    else:
        _check_real("the divergence floor d", d, 0.0, lo_open=True)
    return min(math.exp(_log_tail_bound(n, tcp.alphabet_size, d)), 1.0)
