"""Contraction coefficients, maximal correlation and Markov mixing envelopes.

The chi-squared contraction coefficient of a (source, channel) pair is the
squared second-largest singular value of the normalized joint matrix
B[x, y] = sqrt(Qx(x)) W(y|x) / sqrt(Qy(y)); its square root is the maximal
correlation. Contraction coefficients of the skew divergence families are
sandwiched between this spectral value and explicit multiples of it.

That squared singular value is lambda_2, the second eigenvalue of the
smaller Gram matrix of B, B B^T or B^T B, whose top eigenpair is known:
eigenvalue 1, eigenvector sqrt(Qx) or sqrt(Qy). Below _LANCZOS_SIZE (400)
rows, one batched eigvalsh of the Gram stack gives lambda_2. From there on,
each Gram matrix goes alone to Lanczos with full reorthogonalization on
the complement of that eigenvector, which stops once the residual bound of
its top Ritz value, tested every 16 steps, is at most 1e-14, at a
breakdown, or after n - 1 steps, where the Krylov space is exhausted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (Channel, DiscreteDistribution, _check_count, _check_real, _in_blocks,
                            push_forward)
from .divergences import _REGISTRY, DivergenceSpec, _gv, _kl, _mixture
from .errors import (
    DimensionMismatch,
    DomainError,
    NotIrreducible,
    NotReversible,
    PreconditionViolated,
)
from .inequalities import InequalityReport

# the S_alpha integral identity lives in identities; callers also reach it
# here, and only they import identities for it (PEP 562)
_FROM_IDENTITIES = ("check_skew_s_integral", "g_alpha")


def __getattr__(name):
    if name in _FROM_IDENTITIES:
        from . import identities

        return getattr(identities, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class SourceChannelPair:
    qx: DiscreteDistribution
    w: Channel

    def __post_init__(self):
        if len(self.qx) != self.w.n_inputs:
            raise DimensionMismatch("input law size must match channel rows")
        if np.any(self.qx.mass <= 0):
            raise PreconditionViolated("input law must be strictly positive")
        qy = self.qx.mass @ self.w.matrix
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
    qx[k] of the (m, n) stack; the top singular value of each B[k] is 1.
    PreconditionViolated where an output mass is 0: also where it rounds to
    0, as a mixture of two laws with positive outputs can (0.5 * 5e-324)."""
    qy = qx @ w
    if not np.all(qy > 0):
        raise PreconditionViolated("output law must be strictly positive")
    return np.sqrt(qx)[:, :, None] * w[None] / np.sqrt(qy)[:, None, :]


# Gram matrices of at least this many rows take their second eigenvalue from
# _deflated_lanczos, smaller ones from one batched eigvalsh: the smallest
# size at which no class below is slower by more than the run-to-run noise.
# Dense / Lanczos ms, median of 3 draws, 1 BLAS thread, 2-core Xeon; tall
# and wide channels are 2n x n and n x 2n, chains reversible at laziness
# 0, 0.5, 0.9 (Lanczos takes 32-64 steps on channels, 48-144 on chains):
#   n     square     tall       wide       chain 0    chain .5   chain .9
#   200   1.8/1.0    2.6/1.8    2.3/1.3    1.9/1.6    2.1/3.3    2.0/3.1
#   300   4.6/3.0    7.2/3.7    6.9/3.6    5.0/3.4    5.1/4.7    5.0/5.7
#   400   10.6/5.4   15.0/9.1   12.6/6.6   10.7/6.1   11.2/10.3  10.7/9.9
#   600   28.0/14.6  40.3/24.0  38.4/20.9  28.6/20.4  31.3/30.6  30.2/31.6
#   1000  114/41     155/74     148/69     127/60     131/93     128/86
_LANCZOS_SIZE = 400
# the Lanczos run tests its residual bound every _LANCZOS_CHECK steps (every
# 8 left the lazy chains up to 50% slower than eigvalsh at 400-600 rows, by
# the eigh of the growing tridiagonal) and stops once the bound is at most
# _LANCZOS_TOL; the spectrum lies in [0, 1]
_LANCZOS_CHECK = 16
_LANCZOS_TOL = 1e-14


def _debug(message: str, *args) -> None:
    """message % args at DEBUG on this module's logger. ``logging`` is
    imported on the first call, so that only the routines that report
    (the Lanczos route, the searches and the channel sup) pay for it."""
    import logging

    logging.getLogger(__name__).debug(message, *args)


def _deflated_lanczos(gram: np.ndarray, top: np.ndarray) -> float:
    """Second-largest eigenvalue of the Gram matrix gram, whose top
    eigenpair is (1, top), clipped to [0, 1].

    Lanczos with full reorthogonalization on the complement of top, from a
    seeded Gaussian start: a fixed vector such as all ones can be collinear
    with top. Row 0 of the basis is top, and each of the two Gram-Schmidt
    passes of a step projects it out: gram amplifies any component along
    top that rounding leaves, as its eigenvalue 1 tops the spectrum. Every
    _LANCZOS_CHECK steps,
    and at a breakdown (beta at most _LANCZOS_TOL), the top Ritz value of
    the tridiagonal T is tested: beta |s|, s the last entry of its unit
    eigenvector of T, bounds its distance to an eigenvalue of gram, and the
    run stops once that is at most _LANCZOS_TOL. After n - 1 steps the
    Krylov space is the whole complement, and the Ritz value exact.
    """
    n = len(gram)
    basis = np.empty((n, n))
    basis[0] = top / math.sqrt(top @ top)
    v = np.random.default_rng(0).standard_normal(n)
    v -= (basis[0] @ v) * basis[0]
    basis[1] = v / math.sqrt(v @ v)
    alpha, beta = [], []
    k = 0
    while True:
        k += 1
        head = basis[:k + 1]
        u = gram @ basis[k]
        h = head @ u
        u -= h @ head
        h2 = head @ u
        u -= h2 @ head
        alpha.append(h[k] + h2[k])
        b = math.sqrt(u @ u)
        if k % _LANCZOS_CHECK == 0 or b <= _LANCZOS_TOL or k == n - 1:
            # eigh reads the lower triangle
            ritz, vectors = np.linalg.eigh(np.diag(alpha) + np.diag(beta, -1))
            bound = b * abs(vectors[-1, -1])
            if bound <= _LANCZOS_TOL or k == n - 1:
                break
        beta.append(b)
        basis[k + 1] = u / b
    _debug(
        "chi2 contraction of a %d-row Gram matrix by Lanczos: %d steps, "
        "residual bound %.3g, %s",
        n, k, bound, "Krylov space exhausted" if k == n - 1 else "converged",
    )
    return min(max(float(ritz[-1]), 0.0), 1.0)


def _chi2_contraction_rows(qx: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Chi-squared contraction of W at each positive input law of the stack
    qx: the second-largest eigenvalue of the smaller Gram matrix of each
    B[k], 0 for a 1x1 Gram, clamped to [0, 1]. A Gram matrix of at least
    _LANCZOS_SIZE rows goes to _deflated_lanczos, one at a time, with its
    top eigenvector sqrt(Qx[k]) for B B^T or sqrt(Qy[k]) for B^T B."""

    def second_eigenvalues(block: np.ndarray) -> np.ndarray:
        b = _normalized_joint(block, w)
        bt = b.transpose(0, 2, 1)
        wide = b.shape[1] <= b.shape[2]
        gram = b @ bt if wide else bt @ b
        if gram.shape[1] < 2:
            return np.zeros(len(block))
        if gram.shape[1] >= _LANCZOS_SIZE:
            tops = np.sqrt(block if wide else block @ w)
            return np.array([_deflated_lanczos(g, top) for g, top in zip(gram, tops)])
        return np.clip(np.linalg.eigvalsh(gram)[:, -2], 0.0, 1.0)

    return _in_blocks(second_eigenvalues, qx, w.size)


def chi2_contraction(sc: SourceChannelPair) -> float:
    """Chi-squared contraction coefficient of the pair, in [0, 1]."""
    return float(_chi2_contraction_rows(sc.qx.mass[None, :], sc.w.matrix)[0])


def maximal_correlation(sc: SourceChannelPair) -> float:
    """Maximal correlation of (X, Y); square root of the chi^2 contraction."""
    return math.sqrt(chi2_contraction(sc))


# below this input divergence the ratio loses enough float precision to
# overshoot the true supremum, so such candidates are rejected
_RATIO_FLOOR = 1e-6


# the batched refinement: each round scores steps h * 2**-j, j < _SCALES, from
# each of the _STARTS best draws and the anchor in one call; a loss divides h
# by 2**_SCALES, so that start's next round goes on with the next smaller
# scales. Two draw starts, since the output/input divergence ratio can have
# several local maxima over input laws: one start ends 5.2e-3 lower on the
# SKEW_K 1/2 case k = 42 of test_refinement_matches_nelder_mead_on_random_channels
# (5 inputs), and one draw start beside the anchor lower on 12 of 1,000 random
# channels with 2-6 inputs at 300 draws, by up to 0.0139.
_STARTS = 2
_SCALES = 8
_MOMENTUM = 0.9
_MIN_STEP = 1e-11
_MAX_ROUNDS = 1000


def _refine(score_rows, z: np.ndarray, value: np.ndarray):
    """Batched pattern search in softmax logits from each row of z, whose law
    scores value; returns (best score, rounds, rows scored, largest final h).

    Each round scores one stack for all starts: start k moved by each step
    h[k] * 2**-j along +-e_i and +- its momentum, a decaying sum of its past
    moves that lines up with a narrow valley. The best candidate of a start
    replaces it if it scores higher, and its h becomes 4 times the winning
    step; otherwise its h shrinks. The search stops once every h is below
    _MIN_STEP. It draws nothing at random: the same starts always refine to
    the same point.
    """
    k, n = z.shape
    fractions = 2.0 ** -np.arange(_SCALES)
    dirs = np.zeros((k, 2 * n + 2, n))
    dirs[:, :n] = np.eye(n)
    dirs[:, n:2 * n] = -np.eye(n)
    h, v, starts = np.ones(k), np.zeros_like(z), np.arange(k)
    rounds = 0
    while rounds < _MAX_ROUNDS and h.max() >= _MIN_STEP:
        norm = np.sqrt((v * v).sum(axis=1, keepdims=True))
        dirs[:, -2] = v / np.maximum(norm, np.finfo(float).tiny)
        dirs[:, -1] = -dirs[:, -2]
        steps = h[:, None] * fractions
        cand = (z[:, None, None] + steps[:, :, None, None] * dirs[:, None]).reshape(k, -1, n)
        e = np.exp(cand - cand.max(axis=2, keepdims=True))
        scores = score_rows((e / e.sum(axis=2, keepdims=True)).reshape(-1, n)).reshape(k, -1)
        rounds += 1
        j = scores.argmax(axis=1)
        top, moved = scores[starts, j], cand[starts, j]
        won = top > value
        v = np.where(won[:, None], _MOMENTUM * v + (moved - z), v)
        z = np.where(won[:, None], moved, z)
        value = np.where(won, top, value)
        h = np.where(won, 4.0 * steps[starts, j // dirs.shape[1]], h / 2.0 ** _SCALES)
    return float(value.max()), rounds, rounds * k * _SCALES * dirs.shape[1], float(h.max())


def _sampled_sup(score_rows, n: int, n_samples: int, seed: int, anchor: np.ndarray):
    """Best score over n_samples Dirichlet(1, ..., 1) draws of n-atom laws,
    scored as one (n_samples, n) stack, and its refinement by _refine from
    the logits of the _STARTS best draws that score above -inf with no zero
    atom, and from those of anchor, a positive law started at -inf; nothing
    is refined (-inf) where every draw scores -inf.

    score_rows maps an (m, n) stack of laws to m scores. The generator of
    seed makes the draws and nothing else, so a seed always gives the same
    pair.
    """
    draws = np.random.default_rng(seed).dirichlet(np.ones(n), size=n_samples)
    scores = score_rows(draws)
    best = float(scores.max())
    if best == -math.inf:
        refined, rounds, rows, h = -math.inf, 0, 0, math.nan
    else:
        order = np.argpartition(-scores, min(_STARTS, n_samples) - 1)[:_STARTS]
        starts = order[(scores[order] > -math.inf) & np.all(draws[order] > 0, axis=1)]
        refined, rounds, rows, h = _refine(
            score_rows, np.log(np.vstack((draws[starts], anchor))),
            np.append(scores[starts], -math.inf),
        )
    _debug(
        "sampled sup over %d-atom laws: %d draws scored, %d refinement rounds, "
        "%d rows scored, final step %.3g, round cap %s",
        n, n_samples, rounds, rows, h,
        "reached" if rounds == _MAX_ROUNDS else "not reached",
    )
    return best, refined


def brute_force_mu_f(
    spec: DivergenceSpec,
    sc: SourceChannelPair,
    n_samples: int = 10_000,
    seed: int = 0,
) -> ContractionEstimate:
    """Sampled lower estimate of the contraction coefficient sup-ratio.

    Dirichlet(1, ..., 1) sampling over input laws, then a batched local
    refinement in softmax logits from the best draws and from Qx itself,
    near which the ratio of every f-divergence with f''(1) > 0 tends to the
    chi^2 contraction (Raginsky, arXiv 1411.3575). lower is the best draw,
    the point estimate the best of it and the refinement. The result is a
    valid lower estimate only; the upper field is +inf. n_samples is an
    integer >= 1, and seed an integer >= 0 that seeds the draws alone.
    """
    _check_count("n_samples", n_samples, 1)
    _check_count("seed", seed, 0)
    n = len(sc.qx)
    if n > 6:
        raise PreconditionViolated("brute-force search is limited to <= 6 atoms")
    if n < 2:
        raise PreconditionViolated("brute-force search needs >= 2 input atoms")
    qx, w = sc.qx.mass, sc.w.matrix
    qy = qx @ w
    # the kernel, not its door f_divergence_rows: every candidate is a law
    kernel = _REGISTRY[spec.tag][0]

    def ratios(px: np.ndarray) -> np.ndarray:
        """Output/input divergence ratio of each candidate input law."""
        d_in = kernel(px, qx, spec.param)
        d_out = kernel(px @ w, qy, spec.param)
        usable = (_RATIO_FLOOR < d_in) & (d_in < math.inf) & (d_out < math.inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(usable, d_out / d_in, -math.inf)

    lower, refined = _sampled_sup(ratios, n, n_samples, seed, qx)
    point = max(lower, refined)
    if point == -math.inf:  # e.g. SKEW_K at alpha = 0, which vanishes identically
        raise PreconditionViolated(
            f"no candidate has a finite ratio and an input divergence above {_RATIO_FLOOR}"
        )
    return ContractionEstimate(lower=lower, upper=math.inf, point_estimate=point)


# bisections of the half (0, 1/2] that holds the maximum: the bracket ends
# 2**-55 wide, below the float spacing of t near 1/2
_BISECTIONS = 54


def _pair_sups(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row pair (a, b), the sup over t in (0, 1) of the concave curve
    t (1 - t) sum_y (a - b)^2 / m, m = t a + (1 - t) b, and the final width
    of its bisection bracket, as an (m, 2) array.

    The sign of the slope at 1/2 tells the half that holds the maximum;
    swapping a and b maps t to 1 - t and brings it into (0, 1/2], where
    the slope sum_y (d / m)^2 (b (1 - t)^2 - a t^2), d = a - b, is
    bisected. d / m is 0-homogeneous per atom, so it is taken from the laws
    scaled per atom (``_mixture``), once for all steps, where m > 0 wherever
    a or b is. There m >= t |d|, and past the maximum the slope is at least
    -sum_y a = -1, so the curve at the bracket's upper end, never below
    2**-55, falls short of the sup by at most the bracket width, also when
    the sup is the curve's limit at an end of (0, 1).
    """
    def slope(a, b, scaled, t):
        u = d / (t * scaled[0] + (1.0 - t) * scaled[1])
        return np.einsum("ij,ij,ij->i", u, u, b * (1.0 - t) ** 2 - a * (t * t))

    # an output that neither row reaches adds nothing to the curve or its
    # slope; a 1 in both rows there keeps that and keeps m > 0
    both = (a == 0.0) & (b == 0.0)
    a, b = np.where(both, 1.0, a), np.where(both, 1.0, b)
    _, scaled, _ = _mixture((0.5, 0.5), (a, b))
    # scaled a - b, whose sign the swap below leaves out of the square
    d = scaled[0] - scaled[1]
    flip = (slope(a, b, scaled, 0.5) > 0.0)[:, None]
    a, b = np.where(flip, b, a), np.where(flip, a, b)
    scaled = np.where(flip, scaled[1], scaled[0]), np.where(flip, scaled[0], scaled[1])
    lo, hi = np.zeros(len(a)), np.full(len(a), 0.5)
    for _ in range(_BISECTIONS):
        t = 0.5 * (lo + hi)
        rising = slope(a, b, scaled, t[:, None]) > 0.0
        lo, hi = np.where(rising, t, lo), np.where(rising, hi, t)
    return np.column_stack((hi * (1.0 - hi) * _gv(b, a, hi[:, None]), hi - lo))


def mu_chi2_channel(w: Channel) -> float:
    """Source-independent chi^2 contraction eta_chi2(W): the sup of
    ``chi2_contraction`` over input laws, exact to rounding; 0 for one input.

    The sup is taken over input laws (t, 1 - t) on two letters x < x'.
    There the contraction is the Vincze-Le Cam curve t (1 - t) sum_y
    (a_y - b_y)^2 / (t a_y + (1 - t) b_y), a = W(.|x), b = W(.|x'), which
    is t (1 - t) times the Gyorfi-Vajda divergence D_{phi_{1-t}}(a||b) and
    concave in t. That two-point laws attain the sup over the whole simplex
    is measured, not proved here: on random channels with 2-8 inputs and
    outputs, some with zero entries, the pair maximum matched a Nelder-Mead
    search over all input laws to 2e-15.

    The sup is also the channel's KL contraction coefficient:
    eta_KL(W) = eta_chi2(W) (R. Ahlswede and P. Gacs, Spreading of sets in
    product spaces and hypercontraction of the Markov operator, Ann. Probab.
    4, 1976; V. Anantharam et al., arXiv 1304.6133).
    """
    m = w.matrix
    empty = np.flatnonzero(~m.any(axis=0))
    if empty.size:
        raise PreconditionViolated(f"output column {empty[0]} is zero in every row")
    pairs = np.column_stack(np.triu_indices(w.n_inputs, 1))
    sups = _in_blocks(lambda p: _pair_sups(m[p[:, 0]], m[p[:, 1]]), pairs, 2 * m.shape[1])
    _debug(
        "chi2 channel sup over %d input pairs: %d bisection steps, final bracket width %.3g",
        len(pairs), _BISECTIONS, sups[:, 1].max(initial=0.0),
    )
    return float(sups[:, 0].max(initial=0.0))


def _skew_factor(which: str, alpha: float, q_min: float) -> tuple[float, float, float]:
    """(num, c, q_min) of the multiplier num / (c q_min) of the skew family
    which ('K' or 'S'), with num >= 1/4 and c in (0, 1]."""
    _check_real("alpha", alpha, 0.0, 1.0, lo_open=True)
    _check_real("q_min", q_min, 0.0, 1.0, lo_open=True)
    if which == "K":
        return 1.0, alpha, q_min
    return ((1.0 - alpha) * math.log(1.0 / alpha) + 2.0 * alpha - 1.0,
            1.0 - 3.0 * alpha + 3.0 * alpha * alpha, q_min)


def _times_factor(factor: tuple[float, float, float], *xs: float) -> float:
    """The multiplier num / (c q_min) of factor (``_skew_factor``) times the
    floats xs >= 0, in that order, where the multiplier is finite. Where it
    overflows, or c q_min underflows to 0, it is the exact num prod(xs) /
    (c q_min) rounded once: 0 where an x is 0, +inf only where that
    overflows."""
    num, c, q_min = factor
    scale = c * q_min
    out = num / scale if scale else math.inf
    if out < math.inf:
        for x in xs:
            out *= x
        return out
    from fractions import Fraction  # here, so that only this rare path loads it

    exact = Fraction(num) * math.prod(map(Fraction, xs)) / (Fraction(c) * Fraction(q_min))
    try:
        return float(exact)
    except OverflowError:
        return math.inf


def skew_k_factor(alpha: float, q_min: float) -> float:
    """Upper-bound multiplier 1 / (alpha q_min) for the K-family contraction
    coefficient; +inf where it overflows."""
    return _times_factor(_skew_factor("K", alpha, q_min))


def skew_s_factor(alpha: float, q_min: float) -> float:
    """Upper-bound multiplier for the S-family contraction coefficient;
    +inf where it overflows."""
    return _times_factor(_skew_factor("S", alpha, q_min))


def skew_contraction_sandwich(
    alpha: float, which: str, sc: SourceChannelPair, seed: int = 0,
) -> tuple[float, float, float]:
    """(spectral lower, channel-sup upper, scaled-spectral upper) for mu_{k/s_alpha}.

    The channel-sup end is ``mu_chi2_channel(sc.w)``, eta_chi2(W), exact to
    rounding. seed is unused: it is accepted so that callers written for the
    sampled channel sup keep working.
    """
    if which not in ("K", "S"):
        raise DomainError("which must be 'K' or 'S'")
    q_min = float(np.min(sc.qx.mass))
    factor = _skew_factor(which, alpha, q_min)
    lower = chi2_contraction(sc)
    return lower, mu_chi2_channel(sc.w), _times_factor(factor, lower)


def stationary_distribution(w: Channel) -> DiscreteDistribution:
    """Stationary law of an irreducible square kernel: the solution of
    pi (I - W) = 0 with its last balance equation replaced by sum(pi) = 1,
    one linear solve. A reducible kernel raises NotIrreducible."""
    m = w.matrix
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch("stationary law needs a square kernel")
    _check_irreducible(w)
    n = len(m)
    a = np.eye(n) - m.T
    a[-1] = 1.0
    # abs: rounding may leave a tiny pi_i below zero
    v = np.abs(np.linalg.solve(a, np.eye(n)[-1]))
    return DiscreteDistribution(np.arange(n, dtype=float), v / v.sum())


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


def _check_reversible(w: Channel, q: DiscreteDistribution) -> None:
    m = w.matrix
    flow = q.mass[:, None] * m
    if not np.allclose(flow, flow.T, atol=1e-10, rtol=0.0):
        raise NotReversible("detailed balance fails for the stationary law")


def markov_mixing_report(
    w: Channel, p0: DiscreteDistribution, alpha: float, n_max: int
) -> dict:
    """Divergence-to-stationarity trajectories with their decay envelopes.

    For each step n: the skew divergences K_alpha and S_alpha from the
    n-step law to the stationary law, together with the envelope
    factor * mu^n * (initial divergence), where mu is the chi^2
    contraction of the stationary pair and the factors are the skew
    family multipliers at Q_min (``_times_factor``: 0 where mu^n or the
    initial divergence is, also where a factor overflows). n_max must be
    an integer >= 0. p0 is step 0, one mass per state, scored with the
    other steps.
    """
    _check_count("n_max", n_max, 0)
    q = stationary_distribution(w)
    _check_reversible(w, q)
    mu = chi2_contraction(SourceChannelPair(q, w))
    q_min = float(np.min(q.mass))
    fk, fs = _skew_factor("K", alpha, q_min), _skew_factor("S", alpha, q_min)
    if len(p0) != len(q):
        raise DimensionMismatch(f"initial law has {len(p0)} atoms, the kernel {len(q)} states")
    steps = np.empty((n_max + 1, len(q)))
    steps[0] = pn = p0.mass
    for step in steps[1:]:
        pn = pn @ w.matrix
        step[:] = pn / pn.sum()
    k0, *k = _REGISTRY["SKEW_K"][0](steps, q.mass, alpha).tolist()
    s0, *s = _REGISTRY["SKEW_S"][0](steps, q.mass, alpha).tolist()
    rows = [
        {"n": n, "k_alpha": kn, "s_alpha": sn,
         "k_envelope": _times_factor(fk, mu**n, k0),
         "s_envelope": _times_factor(fs, mu**n, s0)}
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
    """Chi^2 contraction of the n-step kernel at input law q, for an
    integer n >= 0 (a negative power would invert the kernel)."""
    _check_count("step count n", n, 0)
    m = np.linalg.matrix_power(w.matrix, n)
    return chi2_contraction(SourceChannelPair(q, Channel(m)))


def max_correlation_path_bound(
    p_x: DiscreteDistribution,
    q_x: DiscreteDistribution,
    w: Channel,
    n_grid: int = 101,
) -> InequalityReport:
    """Sup of the maximal correlation over n_grid >= 2 evenly spaced mixed
    inputs from P to Q dominates both KL-ratio roots."""
    _check_count("n_grid", n_grid, 2)
    if not np.array_equal(p_x.support, q_x.support) or p_x == q_x:
        raise PreconditionViolated("needs P != Q on a shared support")
    # each end a positive law of the channel's input size with a positive
    # output law; so has every mixture, up to rounding (``_normalized_joint``)
    SourceChannelPair(p_x, w)
    SourceChannelPair(q_x, w)
    # D(P||Q) and D(Q||P) as rows (P, Q) against (Q, P), at the input and output
    x = np.stack((p_x.mass, q_x.mass))
    y = np.stack((p_x.mass @ w.matrix, q_x.mass @ w.matrix))
    din, dout = _kl(x, x[::-1]), _kl(y, y[::-1])
    # output divergences below 1e-13 are rounding noise (e.g. a
    # channel with identical rows maps everything to the same law)
    with np.errstate(divide="ignore", invalid="ignore"):
        rhs_bound = float(np.where((din > 0) & (dout > 1e-13), np.sqrt(dout / din), 0.0).max())
    s = np.linspace(0.0, 1.0, n_grid)[:, None]
    mixes = (1.0 - s) * x[0] + s * x[1]
    sup_rho = float(np.sqrt(_chi2_contraction_rows(mixes, w.matrix)).max(initial=0.0))
    return InequalityReport("max_correlation_path", rhs_bound, sup_rho)
