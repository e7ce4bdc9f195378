"""Code-redundancy bounds for Poisson mixtures and sample-size planning.

Two pipelines. The first bounds the fractional penalty of a mismatched
Shannon code over a mixture of Poisson sources, comparing a mixture-KL
upper bound against the plain convexity bound; it presents bits. The
second inverts the method-of-types tail bound (n+1)^{k-1} exp(-n d) via
the secondary Lambert W branch to get the minimal sample size; it works
in nats throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (DiscreteDistribution, _check_count, _on_union_support,
                            make_distribution)
from .divergences import DivergenceSpec, _binary_term, f_divergence_rows
from .errors import DomainError, NonFinite, PreconditionViolated, QuadratureFailure
from .inequalities import _mixture_kl_bound, _validated_weights
from .moment_bounds import MomentTuple, kl_moment_lower_bound

LN2 = math.log(2.0)


def _check_rate(lam: float) -> None:
    if not 0.0 < lam < math.inf:
        raise DomainError(f"Poisson rate must be positive and finite, got {lam}")


@dataclass(frozen=True)
class PoissonFamily:
    lambdas: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.lambdas) != len(self.weights) or not self.lambdas:
            raise DomainError("lambdas and weights must be equal-length, non-empty")
        for lam in self.lambdas:
            _check_rate(lam)
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


def _poisson_anchor(lam: float) -> tuple[int, float]:
    """The atom a that the Poisson pmf is built outward from, and its pmf.

    From rate 16 on, a is the mode floor(lam), so that no atom outweighs it,
    and its pmf is C. Loader's saddle-point form (Fast and accurate
    computation of binomial probabilities, 2000),
    exp(-stirlerr(a) - bd0) / sqrt(2 pi a): the Stirling series of
    stirlerr(a) = ln a! - (a + 1/2) ln a + a - ln(2 pi)/2 to a^-9, and
    bd0 = a ln(a/lam) + lam - a by ``_binary_term``'s series, where a - lam
    is exact; both reach 1e-16 for a >= 16. Below rate 16, a is 0 with pmf
    e^-lam, and no atom outweighs it by more than e^16.
    """
    a = math.floor(lam)
    if a < 16:
        return 0, math.exp(-lam)
    inv2 = 1.0 / (a * a)
    stirlerr = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - inv2 / 1188) * inv2) * inv2)
                * inv2) / a
    bd0 = float(_binary_term(a, lam, np.float64(a - lam)))
    return a, math.exp(-stirlerr - bd0) / math.sqrt(2.0 * math.pi * a)


# the largest rate of the Poisson pmf and entropy: the window holds
# lam + 10 sqrt(lam) + 16 atoms, 8 MB at this rate
_MAX_PMF_RATE = 1e6


def _poisson_window(lam: float, tail_tol: float):
    """The Poisson pmf on a window {0..size-1} that holds its truncation point.

    Returns p_a and ln p_a at the atom a of ``_poisson_anchor``, the ratios
    rel = p_k/p_a over the window (products of p_(k+1)/p_k = lam/(k+1)
    outward from a), the tails (tail[k] is the mass beyond k over p_a, summed
    backward from the far end, so no atom overflows and tails down to 1e-300
    stay normal numbers) and N, the least k whose tail is below tail_tol; the
    window doubles until it holds one. Below rate 16, ln p_a is -lam exactly,
    as e^-lam may round to 1. Rates above _MAX_PMF_RATE raise DomainError, as
    their window would not fit in memory.
    """
    _check_rate(lam)
    if lam > _MAX_PMF_RATE:
        raise DomainError(f"the Poisson pmf takes rates up to {_MAX_PMF_RATE:g}, got {lam}")
    if not 0.0 < tail_tol < 1.0:
        raise DomainError(f"tail_tol must lie in (0, 1), got {tail_tol}")
    a, p_a = _poisson_anchor(lam)
    size = int(lam + 10.0 * math.sqrt(lam)) + 16
    while True:
        ks = np.arange(size, dtype=float)
        rel = np.ones(size)
        rel[a + 1:] = np.cumprod(lam / ks[a + 1:])
        rel[:a] = np.cumprod(ks[a:0:-1] / lam)[::-1]
        # past the window the ratios stay below rho = lam/size, so the atoms
        # there add at most rel[-1] rho/(1 - rho)
        tail = np.cumsum(rel[:0:-1])[::-1] + rel[-1] * lam / (size - lam)
        below = tail < tail_tol / p_a
        if below.any():
            break
        size *= 2
    ln_p_a = -lam if a == 0 else math.log(p_a)
    return p_a, ln_p_a, rel, tail, int(np.argmax(below))


def _window_pmf(window) -> tuple[DiscreteDistribution, float]:
    """``poisson_pmf`` of a ``_poisson_window``."""
    p_a, _, rel, tail, n = window
    mass = p_a * rel[:n + 1]
    return (make_distribution(np.arange(n + 1, dtype=float), mass / mass.sum()),
            float(p_a * tail[n]))


def _window_entropy(window) -> float:
    """``poisson_entropy`` of a ``_poisson_window`` at tail_tol 1e-15."""
    p_a, ln_p_a, rel, _, _ = window
    rel = rel[rel > 0]
    return -p_a * float(rel @ (ln_p_a + np.log(rel)))


def poisson_pmf(
    lam: float, tail_tol: float = 1e-15
) -> tuple[DiscreteDistribution, float]:
    """Truncated, renormalized Poisson law and the discarded tail mass.

    The support is {0..N} with N minimal such that the tail beyond N has
    mass below tail_tol (``_poisson_window``). The pmf is within 4e-15
    relative of mpmath up to rate 1e4 (the direct exp(k ln lam - ln k! - lam)
    cancels its large terms: 4e-11 at rate 1e4). The discarded tail is the
    one beyond N, so it is never negative. Rates above _MAX_PMF_RATE raise
    DomainError.
    """
    return _window_pmf(_poisson_window(lam, tail_tol))


def poisson_kl(lam_i: float, lam_j: float) -> float:
    """Relative entropy between Poisson laws, in nats."""
    _check_rate(lam_i)
    _check_rate(lam_j)
    return lam_i * math.log(lam_i / lam_j) + (lam_j - lam_i)


def poisson_entropy(lam):
    """Poisson entropy in nats, -sum p_k ln p_k over the pmf window.

    With p_k = p_a rel_k (``_poisson_window`` at tail_tol 1e-15), it is
    -p_a sum rel_k (ln p_a + ln rel_k), a sum of terms -p_k ln p_k >= 0, so
    nothing cancels: within 2e-15 relative of 40-digit mpmath on rates from
    1e-12 to 1e6. The window ends past the 1e-15 tail, and the mass beyond it
    is about 1e-22. Elementwise over an array of rates (a float for a scalar
    rate); rates above _MAX_PMF_RATE raise DomainError, like the pmf.
    """
    lam = np.asarray(lam, dtype=float)
    if not lam.size:
        raise DomainError("need at least one Poisson rate")
    out = np.empty(lam.shape)
    for i, rate in enumerate(lam.flat):
        out.flat[i] = _window_entropy(_poisson_window(float(rate), 1e-15))
    return out if out.ndim else float(out)


def redundancy_report(pf: PoissonFamily) -> dict:
    """Redundancy bounds for a Shannon code built on the Poisson mixture.

    All headline numbers are in bits. The direct column evaluates
    sum_i a_i D(P_i || mixture) on truncated pmfs and must sit below the
    mixture-KL bound, which in turn must sit below the convexity bound.
    The fractional-penalty bounds divide through the average source
    entropy per the mismatched-code sandwich.
    """
    # the bounds from the closed-form KL matrix of the family
    bounds = [_mixture_kl_bound(i, pf.weights, [poisson_kl(lam, other) for other in pf.lambdas])
              for i, lam in enumerate(pf.lambdas)]
    per_source = [
        {"lam": lam, "weight": w, "kl_upper_bits": tight / LN2, "convexity_bits": convex / LN2}
        for lam, w, (tight, convex) in zip(pf.lambdas, pf.weights, bounds)
    ]
    sum_tight = sum(w * tight for w, (tight, _) in zip(pf.weights, bounds))
    sum_convex = sum(w * convex for w, (_, convex) in zip(pf.weights, bounds))

    # one window per rate, at the tail_tol of both poisson_pmf and poisson_entropy
    windows = [_poisson_window(lam, 1e-15) for lam in pf.lambdas]
    _, stack = _on_union_support([_window_pmf(w)[0] for w in windows])
    weights = np.asarray(pf.weights, dtype=float)
    direct = float(weights @ f_divergence_rows(DivergenceSpec("KL"), stack, weights @ stack))

    avg_entropy = float(weights @ np.array([_window_entropy(w) for w in windows]))
    h_bits = avg_entropy / LN2
    sum_tight_bits = sum_tight / LN2
    sum_convex_bits = sum_convex / LN2
    direct_bits = direct / LN2
    return {
        "per_source": per_source,
        "sum_kl_upper_bits": sum_tight_bits,
        "convexity_upper_bits": sum_convex_bits,
        "direct_sum_bits": direct_bits,
        "avg_entropy_bits": h_bits,
        "nu_upper_improved": (1.0 + sum_tight_bits) / h_bits,
        "nu_upper_loose": (1.0 + sum_convex_bits) / h_bits,
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


def lambert_w_minus1(y: float) -> float:
    """Secondary real branch of the inverse of x e^x, on [-1/e, 0).

    Halley iteration from the asymptotic start ln(-y) - ln(-ln(-y));
    the converged point satisfies |x e^x - y| < 1e-13 * |y|.
    """
    branch_point = -1.0 / math.e
    if not branch_point - 1e-15 <= y < 0.0:
        raise DomainError(f"argument must lie in [-1/e, 0), got {y}")
    if y <= branch_point:
        return -1.0
    x = math.log(-y) - math.log(-math.log(-y))
    x = min(x, -1.0)
    target = 1e-13 * abs(y)
    for _ in range(200):
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
    if abs(x * math.exp(x) - y) < target:
        return x
    raise QuadratureFailure("Lambert W iteration did not converge")


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
