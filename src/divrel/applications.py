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

from .distributions import DiscreteDistribution, _on_union_support, make_distribution
from .divergences import DivergenceSpec, entropy, f_divergence_rows
from .errors import DomainError, MaxDepthExceeded, PreconditionViolated, QuadratureFailure
from .identities import QuadratureConfig, integrate
from .moment_bounds import MomentTuple, kl_moment_lower_bound, moment_bound_arrays

LN2 = math.log(2.0)

_ENTROPY_CFG = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-14, max_depth=200)


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
        w = np.asarray(self.weights, dtype=float)
        if not np.all(np.isfinite(w)) or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
            raise DomainError("weights must form a probability vector")


@dataclass(frozen=True)
class TypeClassProblem:
    m_q: float
    var_q: float
    mean_box: tuple[float, float]
    var_box: tuple[float, float]
    alphabet_size: int
    epsilon: float

    def __post_init__(self):
        if self.var_q < 0:
            raise DomainError("var_q must be non-negative")
        if self.mean_box[0] > self.mean_box[1] or self.var_box[0] > self.var_box[1]:
            raise DomainError("boxes must be non-empty intervals")
        if self.var_box[0] < 0:
            raise DomainError("variance box must be non-negative")
        if self.alphabet_size < 2:
            raise DomainError("alphabet size must be at least 2")
        if not 0.0 < self.epsilon < 1.0:
            raise DomainError("epsilon must lie in (0, 1)")
        # the target mean box must exclude the reference mean, otherwise
        # the infimum of the moment bound is zero and no finite n works
        if self.mean_box[0] <= self.m_q <= self.mean_box[1]:
            raise PreconditionViolated("reference mean lies inside the mean box")


def poisson_pmf(
    lam: float, tail_tol: float = 1e-15
) -> tuple[DiscreteDistribution, float]:
    """Truncated, renormalized Poisson law and the discarded tail mass.

    The support is {0..N} with N minimal such that the tail beyond N has
    mass below tail_tol, found in a window of candidates that doubles
    until it holds one.
    """
    _check_rate(lam)
    if not 0.0 < tail_tol < 1.0:
        raise DomainError(f"tail_tol must lie in (0, 1), got {tail_tol}")
    import scipy.special

    size = int(lam + 10.0 * math.sqrt(lam)) + 16
    while True:
        below = scipy.special.pdtrc(np.arange(size, dtype=float), lam) < tail_tol
        if below.any():
            break
        size *= 2
    ks = np.arange(int(np.argmax(below)) + 1, dtype=float)
    mass = np.exp(scipy.special.xlogy(ks, lam) - scipy.special.gammaln(ks + 1) - lam)
    delta = float(1.0 - mass.sum())
    mass = mass / mass.sum()
    return make_distribution(ks, mass), delta


def poisson_kl(lam_i: float, lam_j: float) -> float:
    """Relative entropy between Poisson laws, in nats."""
    _check_rate(lam_i)
    _check_rate(lam_j)
    return lam_i * math.log(lam_i / lam_j) + (lam_j - lam_i)


def poisson_entropy(lam):
    """Poisson entropy in nats via its integral representation.

    H = lam (1 - ln lam) + int_0^inf (lam - (1 - e^{-lam t(u)}) / t(u))
    e^{-u}/u du with t(u) = 1 - e^{-u}. The integrand tends to lam^2/2 at
    u -> 0 and varies there on the scale 1/lam, against the scale 1 of its
    tail, so it is integrated in v = u^(1/3), where both scales are close.
    The upper cutoff is where the envelope lam e^{-u}/u drops below 1e-16
    for the largest rate. Elementwise over an array of rates, integrated as
    one quadrature with a column per rate (a float for a scalar rate).
    """
    lam = np.asarray(lam, dtype=float)
    rates = lam.ravel()
    if not rates.size:
        raise DomainError("need at least one Poisson rate")
    for rate in rates:
        _check_rate(rate)

    def integrand(v):
        u = (v * v * v)[:, None]
        t = -np.expm1(-u)
        # e^{-u}/u du = 3 e^{-u}/v dv
        return (rates + np.expm1(-rates * t) / t) * (3.0 * np.exp(-u) / v[:, None])

    top = float(rates.max())
    cutoff = 10.0
    while top * math.exp(-cutoff) / cutoff > 1e-16:
        cutoff += 10.0
    try:
        tail = integrate(integrand, 0.0, cutoff ** (1.0 / 3.0), _ENTROPY_CFG)
    except MaxDepthExceeded as exc:
        raise QuadratureFailure(str(exc)) from exc
    out = (rates * (1.0 - np.log(rates)) + tail).reshape(lam.shape)
    return out if out.ndim else float(out)


def poisson_entropy_direct(lam: float, tail_tol: float = 1e-15) -> float:
    """Entropy of the truncated pmf, in nats; oracle for poisson_entropy."""
    dist, _ = poisson_pmf(lam, tail_tol)
    return entropy(dist)


def _pairwise_kl_to_mixture_bound(i: int, pf: PoissonFamily) -> tuple[float, float]:
    """(mixture-KL upper bound, convexity bound) in nats for source i."""
    ai = pf.weights[i]
    cross = sum(
        pf.weights[j] * poisson_kl(pf.lambdas[i], pf.lambdas[j])
        for j in range(len(pf.lambdas))
        if j != i
    )
    if ai >= 1.0:
        return 0.0, 0.0
    tight = -math.log(ai + (1.0 - ai) * math.exp(-cross / (1.0 - ai)))
    return tight, cross


def redundancy_report(pf: PoissonFamily, tail_tol: float = 1e-15) -> dict:
    """Redundancy bounds for a Shannon code built on the Poisson mixture.

    All headline numbers are in bits. The direct column evaluates
    sum_i a_i D(P_i || mixture) on truncated pmfs and must sit below the
    mixture-KL bound, which in turn must sit below the convexity bound.
    The fractional-penalty bounds divide through the average source
    entropy per the mismatched-code sandwich.
    """
    m = len(pf.lambdas)
    per_source = []
    sum_tight = 0.0
    sum_convex = 0.0
    for i in range(m):
        tight, convex = _pairwise_kl_to_mixture_bound(i, pf)
        per_source.append(
            {
                "lam": pf.lambdas[i],
                "weight": pf.weights[i],
                "kl_upper_bits": tight / LN2,
                "convexity_bits": convex / LN2,
            }
        )
        sum_tight += pf.weights[i] * tight
        sum_convex += pf.weights[i] * convex

    _, stack = _on_union_support([poisson_pmf(lam, tail_tol)[0] for lam in pf.lambdas])
    weights = np.asarray(pf.weights, dtype=float)
    direct = float(weights @ f_divergence_rows(DivergenceSpec("KL"), stack, weights @ stack))

    avg_entropy = float(weights @ poisson_entropy(np.asarray(pf.lambdas)))
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


def d_star(tcp: TypeClassProblem, grid: int = 201) -> float:
    """Worst-case moment lower bound over the mean-by-variance box, nats.

    The closed form is evaluated on the whole grid in one array pass, then
    the best vertex is refined by a local simplex search; candidates are
    clipped into the closed box, so the reported value is always feasible.
    """
    m_lo, m_hi = tcp.mean_box
    v_lo, v_hi = tcp.var_box

    def value(m_p: float, var_p: float) -> float:
        mt = MomentTuple(m_p=m_p, var_p=var_p, m_q=tcp.m_q, var_q=tcp.var_q)
        return kl_moment_lower_bound(mt).bound_nats

    means = np.linspace(m_lo, m_hi, grid)
    variances = np.linspace(v_lo, v_hi, grid)
    bounds = moment_bound_arrays(
        means[:, None], variances[None, :], tcp.m_q, tcp.var_q
    )[-1]
    # ties go to the first minimum in row-major order
    i, j = np.unravel_index(np.argmin(bounds), bounds.shape)
    best, best_xy = float(bounds[i, j]), (float(means[i]), float(variances[j]))

    def clipped(z):
        m_p = min(max(z[0], m_lo), m_hi)
        var_p = min(max(z[1], v_lo), v_hi)
        return value(m_p, var_p)

    import scipy.optimize

    res = scipy.optimize.minimize(
        clipped, np.array(best_xy), method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 2000},
    )
    return float(min(best, res.fun))


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
    if d <= 0:
        raise DomainError("the divergence floor d must be positive")
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
    if n < 1:
        raise DomainError("n must be at least 1")
    if d is None:
        d = d_star(tcp)
    return min(math.exp(_log_tail_bound(n, tcp.alphabet_size, d)), 1.0)
