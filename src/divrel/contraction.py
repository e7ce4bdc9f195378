"""Contraction coefficients, maximal correlation and Markov mixing envelopes.

The chi-squared contraction coefficient of a (source, channel) pair is the
squared second-largest singular value of the normalized joint matrix
B[x, y] = sqrt(Qx(x)) W(y|x) / sqrt(Qy(y)); its square root is the maximal
correlation. Contraction coefficients of the skew divergence families are
sandwiched between this spectral value and explicit multiples of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Channel, DiscreteDistribution, push_forward, validate_mass
from .divergences import (
    DivergenceSpec,
    _gv,
    f_divergence_rows,
    kl,
    skew_k,
    skew_s,
)
from .errors import (
    DimensionMismatch,
    DomainError,
    NotIrreducible,
    NotReversible,
    PreconditionViolated,
)
from .identities import DEFAULT_CFG, IdentityReport, QuadratureConfig, integrate
from .inequalities import InequalityReport


@dataclass(frozen=True)
class SourceChannelPair:
    qx: DiscreteDistribution
    w: Channel

    def __post_init__(self):
        if len(self.qx) != self.w.n_inputs:
            raise DimensionMismatch("input law size must match channel rows")
        if np.any(self.qx.p <= 0):
            raise PreconditionViolated("input law must be strictly positive")
        qy = self.qx.p @ self.w.matrix
        if np.any(qy <= 0):
            raise PreconditionViolated("output law must be strictly positive")

    @property
    def qy(self) -> DiscreteDistribution:
        return push_forward(self.qx, self.w)


@dataclass(frozen=True)
class ContractionEstimate:
    lower: float
    upper: float
    point_estimate: float


def _normalized_joint(qx: np.ndarray, w: np.ndarray) -> np.ndarray:
    """B[k, x, y] = sqrt(qx[k, x]) W(y|x) / sqrt(Qy[k, y]) for each input law
    qx[k] of the (m, n) stack; the top singular value of each B[k] is 1."""
    qy = qx @ w
    return np.sqrt(qx)[:, :, None] * w[None] / np.sqrt(qy)[:, None, :]


# entries per stacked array: a long stack of large channels is scored in
# blocks, so the (m, n, k) joint matrices stay near 8 MB
_STACK_ENTRIES = 1 << 20


def _chi2_contraction_rows(qx: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Chi-squared contraction of W at each positive input law of the stack
    qx: the second-largest eigenvalue of the smaller Gram matrix of each
    B[k], 0 for a 1x1 Gram, clamped to [0, 1]."""
    block = max(1, _STACK_ENTRIES // w.size)
    if len(qx) > block:
        return np.concatenate([_chi2_contraction_rows(qx[i:i + block], w)
                               for i in range(0, len(qx), block)])
    b = _normalized_joint(qx, w)
    bt = b.transpose(0, 2, 1)
    gram = b @ bt if b.shape[1] <= b.shape[2] else bt @ b
    if gram.shape[1] < 2:
        return np.zeros(len(qx))
    return np.clip(np.linalg.eigvalsh(gram)[:, -2], 0.0, 1.0)


def chi2_contraction(sc: SourceChannelPair) -> float:
    """Chi-squared contraction coefficient of the pair, in [0, 1]."""
    return float(_chi2_contraction_rows(sc.qx.p[None, :], sc.w.matrix)[0])


def maximal_correlation(sc: SourceChannelPair) -> float:
    """Maximal correlation of (X, Y); square root of the chi^2 contraction."""
    return math.sqrt(chi2_contraction(sc))


def maximal_correlation_ace(
    sc: SourceChannelPair, iters: int = 10_000, tol: float = 1e-14, seed: int = 0
) -> float:
    """Maximal correlation by alternating conditional expectations.

    Direct optimization over centered unit-variance score functions;
    independent of the spectral path, used to cross-validate it.
    """
    qx = sc.qx.p
    joint = qx[:, None] * sc.w.matrix
    qy = joint.sum(axis=0)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(len(qx))
    prev = 0.0
    for _ in range(iters):
        f = f - np.dot(qx, f)
        # g(y) proportional to E[f(X) | Y=y]
        g = (joint * f[:, None]).sum(axis=0) / qy
        g = g - np.dot(qy, g)
        var_g = np.dot(qy, g * g)
        if var_g <= 0:
            return 0.0
        g /= math.sqrt(var_g)
        f = (joint * g[None, :]).sum(axis=1) / qx
        var_f = np.dot(qx, f * f)
        if var_f <= 0:
            return 0.0
        f /= math.sqrt(var_f)
        corr = float(np.einsum("x,xy,y->", f, joint, g))
        if abs(corr - prev) < tol:
            break
        prev = corr
    return abs(corr)


# below this input divergence the ratio loses enough float precision to
# overshoot the true supremum, so such candidates are rejected
_RATIO_FLOOR = 1e-6


def _spectral_direction(sc: SourceChannelPair) -> np.ndarray:
    """Input perturbation direction attaining the chi^2 contraction."""
    u, _, _ = np.linalg.svd(_normalized_joint(sc.qx.p[None, :], sc.w.matrix)[0])
    # u2 is orthogonal to sqrt(qx), so this perturbation sums to zero
    return np.sqrt(sc.qx.p) * u[:, 1]


def _sampled_sup(score_rows, n: int, n_samples: int, seed: int, nm_options: dict):
    """Best score over n_samples Dirichlet(1, ..., 1) draws of n-atom laws,
    scored as one (n_samples, n) stack, and its softmax Nelder-Mead
    refinement (-inf if the best draw scores -inf or has a zero atom).

    score_rows maps an (m, n) stack of laws to m scores. Ties go to the
    first draw.
    """
    if n_samples < 1:
        raise DomainError(f"the search needs n_samples >= 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    draws = rng.dirichlet(np.ones(n), size=n_samples)
    validate_mass(draws)
    scores = score_rows(draws)
    i = int(np.argmax(scores))
    best, best_px = float(scores[i]), draws[i]
    if best == -math.inf or not np.all(best_px > 0):
        return best, -math.inf
    import scipy.optimize

    def neg(z):
        e = np.exp(z - z.max())
        return -float(score_rows((e / e.sum())[None, :])[0])

    res = scipy.optimize.minimize(
        neg, np.log(best_px), method="Nelder-Mead", options=nm_options
    )
    return best, -res.fun


def brute_force_mu_f(
    spec: DivergenceSpec,
    sc: SourceChannelPair,
    n_samples: int = 10_000,
    seed: int = 0,
) -> ContractionEstimate:
    """Sampled lower estimate of the contraction coefficient sup-ratio.

    Dirichlet(1, ..., 1) sampling over input laws, Nelder-Mead refinement
    through a softmax reparameterization, plus a line of candidates along
    the spectral direction toward Qx (where every smooth f-divergence
    ratio localizes to the chi^2 value). The result is a valid lower
    estimate only; the upper field is +inf.
    """
    n = len(sc.qx)
    if n > 6:
        raise PreconditionViolated("brute-force search is limited to <= 6 atoms")
    if n < 2:
        raise PreconditionViolated("brute-force search needs >= 2 input atoms")
    qx, w = sc.qx.p, sc.w.matrix
    qy = qx @ w

    def ratios(px: np.ndarray) -> np.ndarray:
        """Output/input divergence ratio of each candidate input law."""
        d_in = f_divergence_rows(spec, px, qx)
        d_out = f_divergence_rows(spec, px @ w, qy)
        usable = (_RATIO_FLOOR < d_in) & (d_in < math.inf) & (d_out < math.inf)
        with np.errstate(invalid="ignore"):
            return np.where(usable, d_out / d_in, -math.inf)

    lower, refined = _sampled_sup(
        ratios, n, n_samples, seed,
        {"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000},
    )
    # local candidates along the spectral direction
    h = _spectral_direction(sc)
    scale = np.max(np.abs(h) / qx)
    line = qx + (np.array([1e-1, 3e-2, 1e-2]) / scale)[:, None] * h
    line = line[np.all(line > 0, axis=1)]
    line /= line.sum(axis=1, keepdims=True)
    validate_mass(line)
    candidates = np.append(ratios(line), [lower, refined])
    point = float(np.max(candidates, where=np.isfinite(candidates), initial=-math.inf))
    return ContractionEstimate(lower=lower, upper=math.inf, point_estimate=point)


def mu_chi2_channel(
    w: Channel, n_samples: int = 2000, seed: int = 0
) -> float:
    """Source-independent chi^2 contraction: sup over input laws."""
    m = w.matrix
    empty = np.flatnonzero(~m.any(axis=0))
    if empty.size:
        raise PreconditionViolated(f"output column {empty[0]} is zero in every row")

    def values(px: np.ndarray) -> np.ndarray:
        # laws with a zero input or output mass fall outside the sup
        ok = np.all(px > 0, axis=1) & np.all(px @ m > 0, axis=1)
        out = np.full(len(px), -math.inf)
        out[ok] = _chi2_contraction_rows(px[ok], m)
        return out

    return max(_sampled_sup(
        values, w.n_inputs, n_samples, seed,
        {"xatol": 1e-12, "fatol": 1e-14, "maxiter": 5000},
    ))


def skew_k_factor(alpha: float, q_min: float) -> float:
    """Upper-bound multiplier for the K-family contraction coefficient."""
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0,1], got {alpha}")
    return 1.0 / (alpha * q_min)


def skew_s_factor(alpha: float, q_min: float) -> float:
    """Upper-bound multiplier for the S-family contraction coefficient."""
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0,1], got {alpha}")
    num = (1.0 - alpha) * math.log(1.0 / alpha) + 2.0 * alpha - 1.0
    den = (1.0 - 3.0 * alpha + 3.0 * alpha * alpha) * q_min
    return num / den


def skew_contraction_sandwich(
    alpha: float, which: str, sc: SourceChannelPair,
    n_samples: int = 2000, seed: int = 0,
) -> tuple[float, float, float]:
    """(spectral lower, channel-sup upper, scaled-spectral upper) for mu_{k/s_alpha}."""
    if which not in ("K", "S"):
        raise DomainError("which must be 'K' or 'S'")
    lower = chi2_contraction(sc)
    upper_channel = mu_chi2_channel(sc.w, n_samples=n_samples, seed=seed)
    q_min = float(np.min(sc.qx.p))
    factor = skew_k_factor(alpha, q_min) if which == "K" else skew_s_factor(alpha, q_min)
    return lower, upper_channel, factor * lower


def g_alpha(alpha: float, s: float) -> float:
    """Weight kernel for the S-family integral representation."""
    out = 0.0
    if 0.0 < s <= alpha:
        out += alpha * s
    if alpha <= s < 1.0:
        out += (1.0 - alpha) * (1.0 - s)
    return out


def check_skew_s_integral(
    alpha: float, p: DiscreteDistribution, q: DiscreteDistribution,
    cfg: QuadratureConfig = DEFAULT_CFG,
) -> IdentityReport:
    """S_alpha(P||Q) vs its weighted integral over the skew-chi^2 curve."""
    lhs = skew_s(alpha, p, q)
    a, b = p.p[None, :], q.p

    # g_alpha, alpha s then (1 - alpha)(1 - s), has a kink at s = alpha, so
    # each side is integrated on its own
    def left(s):
        return alpha * s * _gv(a, b, s[:, None])

    def right(s):
        return (1.0 - alpha) * (1.0 - s) * _gv(a, b, s[:, None])

    rhs = integrate(left, 0.0, alpha, cfg) + integrate(right, alpha, 1.0, cfg)
    return IdentityReport.compare(f"skew_s_integral_a{alpha}", lhs, rhs)


def stationary_distribution(w: Channel) -> DiscreteDistribution:
    """Stationary law of a square kernel via the leading left eigenvector."""
    m = w.matrix
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch("stationary law needs a square kernel")
    vals, vecs = np.linalg.eig(m.T)
    i = int(np.argmax(vals.real))
    v = np.abs(vecs[:, i].real)
    return DiscreteDistribution(np.arange(len(v), dtype=float), v / v.sum())


def _check_irreducible(w: Channel) -> None:
    """Strong connectivity of the support graph: breadth-first search from
    state 0 along the edges and along the reversed edges reaches every state."""
    adj = w.matrix > 0
    for graph in (adj, adj.T):
        seen = np.zeros(len(graph), dtype=bool)
        seen[0] = True
        frontier = seen
        while frontier.any():
            frontier = graph[frontier].any(axis=0) & ~seen
            seen = seen | frontier
        if not seen.all():
            raise NotIrreducible("kernel support graph is not strongly connected")


def _check_reversible(w: Channel, q: DiscreteDistribution, tol: float = 1e-10) -> None:
    m = w.matrix
    flow = q.p[:, None] * m
    if not np.allclose(flow, flow.T, atol=tol, rtol=0.0):
        raise NotReversible("detailed balance fails for the stationary law")


def markov_mixing_report(
    w: Channel, p0: DiscreteDistribution, alpha: float, n_max: int
) -> dict:
    """Divergence-to-stationarity trajectories with their decay envelopes.

    For each step n: the skew divergences K_alpha and S_alpha from the
    n-step law to the stationary law, together with the envelope
    factor * mu^n * (initial divergence), where mu is the chi^2
    contraction of the stationary pair and the factors are the skew
    family multipliers at Q_min.
    """
    if w.matrix.shape[0] != w.matrix.shape[1]:
        raise DimensionMismatch("mixing analysis needs a square kernel")
    _check_irreducible(w)
    q = stationary_distribution(w)
    _check_reversible(w, q)
    sc = SourceChannelPair(q, w)
    mu = chi2_contraction(sc)
    q_min = float(np.min(q.p))
    fk = skew_k_factor(alpha, q_min)
    fs = skew_s_factor(alpha, q_min)
    p0a = DiscreteDistribution(q.support, p0.p)
    k0 = skew_k(alpha, p0a, q)
    s0 = skew_s(alpha, p0a, q)
    steps = np.empty((max(n_max, 0), len(q)))
    pn = p0a.p
    for step in steps:
        pn = pn @ w.matrix
        step[:] = pn / pn.sum()
    k = f_divergence_rows(DivergenceSpec("SKEW_K", alpha), steps, q.p)
    s = f_divergence_rows(DivergenceSpec("SKEW_S", alpha), steps, q.p)
    rows = [
        {"n": n, "k_alpha": float(kn), "s_alpha": float(sn),
         "k_envelope": fk * mu**n * k0, "s_envelope": fs * mu**n * s0}
        for n, kn, sn in zip(range(1, n_max + 1), k, s)
    ]
    return {
        "mu_chi2": mu,
        "q_min": q_min,
        "stationary": q,
        "k_alpha_initial": k0,
        "s_alpha_initial": s0,
        "rows": rows,
    }


def chi2_contraction_power(w: Channel, q: DiscreteDistribution, n: int) -> float:
    """Chi^2 contraction of the n-step kernel at input law q."""
    m = np.linalg.matrix_power(w.matrix, n)
    return chi2_contraction(SourceChannelPair(q, Channel(m)))


def max_correlation_path_bound(
    p_x: DiscreteDistribution,
    q_x: DiscreteDistribution,
    w: Channel,
    n_grid: int = 101,
) -> InequalityReport:
    """Sup of the mixed-input maximal correlation dominates both KL-ratio roots."""
    if not np.array_equal(p_x.support, q_x.support) or p_x == q_x:
        raise PreconditionViolated("needs P != Q on a shared support")
    if np.any(p_x.p <= 0) or np.any(q_x.p <= 0):
        raise PreconditionViolated("both input laws must be strictly positive")
    p_y, q_y = push_forward(p_x, w), push_forward(q_x, w)
    ratios = []
    for a, b, ay, by in ((p_x, q_x, p_y, q_y), (q_x, p_x, q_y, p_y)):
        din = kl(a, b)
        dout = kl(ay, by)
        # output divergences below 1e-13 are rounding noise (e.g. a
        # channel with identical rows maps everything to the same law)
        ratios.append(math.sqrt(dout / din) if din > 0 and dout > 1e-13 else 0.0)
    rhs_bound = max(ratios)
    s = np.linspace(0.0, 1.0, n_grid)[:, None]
    mixes = (1.0 - s) * p_x.p + s * q_x.p
    if np.any(mixes @ w.matrix <= 0):
        raise PreconditionViolated("output law must be strictly positive")
    sup_rho = float(np.sqrt(_chi2_contraction_rows(mixes, w.matrix)).max(initial=0.0))
    return InequalityReport("max_correlation_path", rhs_bound, sup_rho)
