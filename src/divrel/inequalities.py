"""Standalone divergence inequalities and the conditioned-measure identity.

Every check returns an InequalityReport with the orientation normalized so
that slack = rhs - lhs >= 0 means the inequality holds; a -1e-10 numerical
grace is applied uniformly. Limit statements are exercised elsewhere as
finite-parameter trend tests, never asserted as true limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import DiscreteDistribution, _on_union_support, align
from .divergences import (DivergenceSpec, _chi2, _entropy, _gv, _kl, _mixture, _mixture_kl,
                          _skew_k, _tv, f_divergence_rows, kl)
from .errors import DomainError, EmptySet, PreconditionViolated, ZeroProbabilitySet

GRACE = 1e-10


def _slack(lhs, rhs):
    """rhs - lhs over arrays; 0 where both sides are infinite (equal infinities)."""
    lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    with np.errstate(invalid="ignore"):
        return np.where(np.isinf(lhs) & np.isinf(rhs), 0.0, rhs - lhs)


@dataclass(frozen=True)
class InequalityReport:
    name: str
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return float(_slack(self.lhs, self.rhs))

    @property
    def holds(self) -> bool:
        return self.slack >= -GRACE


def _neg_log_mixture(a, x):
    """-ln(a + (1-a) exp(-x)) elementwise, for a in [0, 1] and x in [0, inf]:
    0 where a >= 1. It is -log1p(-drop), drop = (1-a)(1 - e^-x), up to
    drop = 1/2, so a small x loses no digits, and -logaddexp(ln a,
    ln(1-a) - x) past it, where e^-x may underflow."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        drop = -(1.0 - a) * np.expm1(-x)
        tight = np.where(drop <= 0.5, -np.log1p(-drop),
                         -np.logaddexp(np.log(a), np.log1p(-a) - x))
    return np.where(a >= 1.0, 0.0, tight)


def _skew_kl_bound(lam: float, d):
    """-ln(1 - lam + lam exp(-d)), the bound on K_lam(P||Q) from d = D(P||Q),
    elementwise over an array d."""
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"lambda must lie in [0,1], got {lam}")
    return _neg_log_mixture(1.0 - lam, np.asarray(d, dtype=float))


# Each pair inequality once, over (m, n) stacks: name -> (P, Q, t) -> (lhs, rhs), t
# being theta for gv_lower and lambda for skew_kl_upper (statements below).
_PAIRS = {
    "pinsker": lambda P, Q, _: (0.5 * _tv(P, Q) ** 2, _kl(P, Q)),
    "thirds": lambda P, Q, _: (_kl(P, Q), _chi2(P, Q) / 3.0 + _chi2(Q, P) / 6.0),
    "symmetrized_chi2": lambda P, Q, _: (
        _kl(P, Q) + _kl(Q, P), 0.5 * (_chi2(P, Q) + _chi2(Q, P))),
    "gv_lower": lambda P, Q, theta: (
        (1.0 - theta) * math.log(1.0 / (1.0 - theta)) * _gv(P, Q, theta), _kl(P, Q)),
    "half_chi2_quarter_tv": lambda P, Q, _: (_kl(P, Q), 0.5 * _chi2(P, Q) + 0.25 * _tv(P, Q)),
    "skew_kl_upper": lambda P, Q, lam: (_skew_k(P, Q, lam), _skew_kl_bound(lam, _kl(P, Q))),
}


def _pair_report(name: str, p: DiscreteDistribution, q: DiscreteDistribution,
                 t: float | None = None) -> InequalityReport:
    """The one-row case of _PAIRS[name], on the union support."""
    pa, qa = align(p, q)
    lhs, rhs = _PAIRS[name](pa.mass[None, :], qa.mass[None, :], t)
    return InequalityReport(name, float(lhs[0]), float(rhs[0]))


def pair_slacks(P, Q, t: float) -> dict[str, np.ndarray]:
    """Slack of each pair inequality on every row pair of the (m, n) stacks
    P and Q (probability rows on one support), at theta = lambda = t."""
    if not 0.0 < t < 1.0:
        raise DomainError(f"theta and lambda must lie in (0,1), got {t}")
    P, Q = np.asarray(P, dtype=float), np.asarray(Q, dtype=float)
    return {name: _slack(*check(P, Q, t)) for name, check in _PAIRS.items()}


def pinsker(p: DiscreteDistribution, q: DiscreteDistribution) -> InequalityReport:
    """D(P||Q) >= |P-Q|^2 / 2 (nats)."""
    return _pair_report("pinsker", p, q)


def thirds_bound(p: DiscreteDistribution, q: DiscreteDistribution) -> InequalityReport:
    """D(P||Q) <= chi^2(P||Q)/3 + chi^2(Q||P)/6 (nats)."""
    return _pair_report("thirds", p, q)


def symmetrized_chi2_bound(
    p: DiscreteDistribution, q: DiscreteDistribution
) -> InequalityReport:
    """D(P||Q) + D(Q||P) <= (chi^2(P||Q) + chi^2(Q||P)) / 2 (nats)."""
    return _pair_report("symmetrized_chi2", p, q)


def gv_lower_bound(
    theta: float, p: DiscreteDistribution, q: DiscreteDistribution
) -> InequalityReport:
    """D(P||Q) >= (1-theta) ln(1/(1-theta)) * D_{phi_theta}(P||Q)."""
    if not 0.0 < theta < 1.0:
        raise DomainError(f"theta must lie in (0,1), got {theta}")
    return _pair_report("gv_lower", p, q, theta)


def half_chi2_plus_quarter_tv(
    p: DiscreteDistribution, q: DiscreteDistribution
) -> InequalityReport:
    """D(P||Q) <= chi^2(P||Q)/2 + |P-Q|/4 (nats)."""
    return _pair_report("half_chi2_quarter_tv", p, q)


def skew_kl_upper(
    p: DiscreteDistribution, q: DiscreteDistribution, lam: float
) -> InequalityReport:
    """K_lam(P||Q) <= -ln(1 - lam + lam exp(-D(P||Q))); equality at lam in {0,1}."""
    return _pair_report("skew_kl_upper", p, q, lam)


def skew_kl_convexity_comparison(
    p: DiscreteDistribution, q: DiscreteDistribution, lam: float
) -> InequalityReport:
    """The mixture-based bound dominates the convexity bound lam * D(P||Q)."""
    d = kl(p, q)
    return InequalityReport("skew_kl_vs_convexity", float(_skew_kl_bound(lam, d)), lam * d)


# central-difference step of derivative_checks, slack of its inequality and
# the skews it is checked at
_FD_STEP = 1e-5
_FD_TOL = 1e-6
_LAM_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)


def derivative_checks(p: DiscreteDistribution, q: DiscreteDistribution) -> dict:
    """Finite-difference checks on the skew curve F(lam) = K_lam(P||Q).

    Verifies F'(lam) >= (exp(F(lam)) - 1)/lam - _FD_TOL pointwise on
    _LAM_GRID, and compares F'(lam)/lam at lam = 1e-3 with its small-lam value
    chi^2(Q||P).
    """
    a, b = (d.mass for d in align(p, q))
    # 0 where P = Q, or where they differ by subnormal masses alone
    chi2_qp = float(_chi2(b[None, :], a)[0])
    if not 0.0 < chi2_qp < math.inf:
        raise PreconditionViolated(f"derivative checks need 0 < chi^2(Q||P) < inf, got {chi2_qp}")

    # F at lam + h and at lam - h for each lam, then at each grid point: one
    # column of skews, scored in one call
    lams = np.array([*_LAM_GRID, 1e-3])
    skews = np.concatenate([lams + _FD_STEP, lams - _FD_STEP, lams[:-1]])
    curve = _skew_k(a[None, :], b, skews[:, None]).tolist()
    n = len(lams)
    slopes = [(up - down) / (2 * _FD_STEP) for up, down in zip(curve[:n], curve[n:2 * n])]

    grid = []
    for lam, value, slope in zip(_LAM_GRID, curve[2 * n:], slopes):
        lhs = math.expm1(value) / lam
        grid.append({"lam": lam, "fprime": slope, "lower": lhs, "holds": slope >= lhs - _FD_TOL})
    ratio = slopes[-1] / 1e-3
    return {
        "grid": grid,
        "small_lam_ratio": ratio,
        "chi2_qp": chi2_qp,
        "limit_rel_err": abs(ratio - chi2_qp) / chi2_qp,
    }


def _validated_weights(dists, weights):
    """weights as an array: finite, non-negative, one per component, summing to 1."""
    w = np.asarray(weights, dtype=float)
    if (len(dists) != len(w) or not np.isfinite(w).all() or np.any(w < 0)
            or abs(w.sum() - 1.0) > 1e-9):
        raise DomainError("weights must be a probability vector over the components")
    return w


def mixture_of(dists, weights) -> DiscreteDistribution:
    w = _validated_weights(dists, weights)
    support, stack = _on_union_support(dists)
    c, _, mix = _mixture(w, stack)
    return DiscreteDistribution(support, c * mix)


def _mixture_kl_bound(w, d, a) -> tuple[np.ndarray, np.ndarray]:
    """(-ln(a + (1-a) exp(-c/(1-a))), c) for sources of a mixture with
    weights w: row r of d holds D(P_i||P_j) over j for a source i of weight
    a[r], 0 at j = i, and c = sum_j w[j] d[r, j] is the convexity bound; both
    bound D(P_i || mixture) above. A component of weight 0 adds nothing to c,
    not even an infinite d. The bound is ``_neg_log_mixture`` at x = c/(1-a)."""
    c = (np.where(w > 0, d, 0.0) * w).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = c / (1.0 - a)
    return _neg_log_mixture(a, x), c


def mixture_kl_upper(
    i: int, dists: Sequence[DiscreteDistribution], weights
) -> InequalityReport:
    """D(P_i || mixture) <= -ln(a_i + (1-a_i) exp(-avg pairwise KL from P_i))."""
    w = _validated_weights(dists, weights)
    _, stack = _on_union_support(dists)
    bound = _mixture_kl_bound(w, _kl(stack[i:i + 1, None], stack), w[i])[0][0]
    return InequalityReport("mixture_kl_upper", float(_mixture_kl(w, stack)[0][i]), float(bound))


def concavity_deficit_bounds(dists, weights) -> dict:
    """Entropy concavity deficit, computed two ways, with both upper bounds.

    deficit = H(mixture) - sum_j a_j H(P_j), identically equal to
    sum_i a_i D(P_i || mixture). Sharp upper: weighted sum of the
    per-source mixture-KL bounds; classic upper: the weight entropy H(a).
    Components of weight 0 are left out of every sum.
    """
    w = _validated_weights(dists, weights)
    _, stack = _on_union_support(dists)
    to_mix, mix = _mixture_kl(w, stack)
    # the zero padding of the union support drops out of each entropy
    deficit_entropy = _entropy(mix) - float(w @ [_entropy(row) for row in stack])
    used = np.flatnonzero(w > 0)
    deficit_kl = float(w[used] @ to_mix[used])
    table = _kl(stack[used, None], stack)
    upper = float((w[used] * _mixture_kl_bound(w, table, w[used])[0]).sum())
    classic = float(-sum(wi * math.log(wi) for wi in w if wi > 0))
    return {
        "deficit_entropy_form": deficit_entropy,
        "deficit_kl_form": deficit_kl,
        "deficit": deficit_kl,
        "pairwise_upper": upper,
        "classic_upper": classic,
    }


def conditioned_measure_divergence(
    spec: DivergenceSpec, mu: DiscreteDistribution, c_indices: Sequence[int]
) -> tuple[float, float]:
    """Divergence from the conditioned measure mu_C to mu, two ways.

    Returns (direct, closed_form): the direct f-divergence evaluation and
    the closed form t*f(1/t) + (1 - t) f(0) at t = mu(C). Under mu_C the
    likelihood ratio is 1/t on C and 0 off it, so the closed form is the
    divergence of the two-atom law (1, 0) from (t, 1 - t), for every tag;
    for the Renyi family it is ln(1/t) at every order. Both rows are scored
    in one kernel call, on n + 1 atoms with zero columns as padding.
    """
    idx = np.asarray(c_indices, dtype=int)
    if idx.size == 0:
        raise EmptySet("conditioning set is empty")
    if idx.min() < 0 or idx.max() >= len(mu):
        raise DomainError("conditioning index out of range")
    # a mask, not np.unique: its masked-array check imports numpy.ma
    in_c = np.zeros(len(mu), dtype=bool)
    in_c[idx] = True
    mass_c = float(mu.mass[in_c].sum())
    if mass_c <= 0.0:
        raise ZeroProbabilitySet("conditioning set has zero probability")
    # rows mu_C and (1, 0), scored against mu and (mass_c, 1 - mass_c)
    stack = np.zeros((4, len(mu) + 1))
    stack[0, :-1][in_c] = mu.mass[in_c] / mass_c
    stack[1, 0] = 1.0
    stack[2, :-1] = mu.mass
    stack[3, :2] = mass_c, 1.0 - mass_c
    return tuple(f_divergence_rows(spec, stack[:2], stack[2:]).tolist())
