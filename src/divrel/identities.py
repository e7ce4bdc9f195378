"""Integral identities between divergences, and the quadrature behind them.

Each check evaluates the same quantity along two independent numerical
paths (a closed-form divergence vs an adaptive quadrature of a divergence
curve, ``_path_check``) and reports the discrepancy. Every integrand here
has a finite limit at s -> 0 (chi^2(P||R_s) ~ s^2 chi^2(Q||P)), so the
open interval (0, lambda] needs no singularity handling. An integrand takes
the array of quadrature nodes and scores the stack of laws they select in
one row kernel call. Every check puts P and Q on their union support
(``align``), so either law may lack atoms of the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteDistribution, align
from .divergences import (DivergenceSpec, _chi2, _gv, _mixture, chi_squared, f_divergence_rows,
                          skew_k, skew_s)
from .errors import DomainError, MaxDepthExceeded, QuadratureFailure


# Budget of ``integrate``: the error estimate must reach
# max(_ABS_TOL, _REL_TOL |value|) within _MAX_PANELS panels.
_REL_TOL = 1e-10
_ABS_TOL = 1e-12
_MAX_PANELS = 60

# Pass criterion for identity reports; looser than the integrator's own
# tolerances because the closed-form side carries its own rounding.
CHECK_REL_TOL = 1e-8
CHECK_ABS_TOL = 1e-10


@dataclass(frozen=True)
class IdentityReport:
    name: str
    lhs: float
    rhs: float
    abs_err: float
    rel_err: float
    passed: bool

    @classmethod
    def compare(cls, name: str, lhs: float, rhs: float) -> "IdentityReport":
        if lhs == rhs:  # equal infinities included
            abs_err = rel_err = 0.0
        else:
            abs_err = abs(lhs - rhs)
            scale = max(abs(lhs), abs(rhs))
            # a finite side against an infinite one: the limit of the ratio is 1
            rel_err = 1.0 if math.isinf(scale) else abs_err / scale
        return cls(name, lhs, rhs, abs_err, rel_err,
                   abs_err <= CHECK_ABS_TOL or rel_err <= CHECK_REL_TOL)


# The 15-point Gauss-Kronrod rule on [-1, 1] and the 7-point Gauss rule on
# its odd nodes (QUADPACK qk15; Piessens et al., 1983): node x >= 0, Kronrod
# weight, Gauss weight; the rule is symmetric about 0.
_QK15 = np.array([
    (0.991455371120812639, 0.022935322010529225, 0.0),
    (0.949107912342758525, 0.063092092629978553, 0.129484966168869693),
    (0.864864423359769073, 0.104790010322250184, 0.0),
    (0.741531185599394440, 0.140653259715525919, 0.279705391489276668),
    (0.586087235467691130, 0.169004726639267903, 0.0),
    (0.405845151377397167, 0.190350578064785410, 0.381830050505118945),
    (0.207784955007898468, 0.204432940075298892, 0.0),
    (0.0, 0.209482141084727828, 0.417959183673469388),
])
_XK, _WK, _WG = (np.concatenate([sign * column[:-1], column[::-1]])
                 for column, sign in zip(_QK15.T, (-1.0, 1.0, 1.0)))
_RULES = np.stack([_WK, _WG])
_EPS50 = 50.0 * np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _gauss_kronrod(f, lo, hi):
    """Kronrod values and QUADPACK error estimates of f on the panels
    [lo_i, hi_i], one of each per panel, all scored in one call of f."""
    half = 0.5 * (hi - lo)
    # node-major order: row j of fx holds node j of every panel
    fx = np.asarray(f((_XK[:, None] * half + (lo + half)).ravel()), dtype=float)
    fx = fx.reshape(len(_XK), -1)
    # an infinite value of f leaves the error estimate NaN (integrate then
    # stops on the value)
    with np.errstate(invalid="ignore", over="ignore"):
        kronrod, gauss = _RULES @ fx
        diff = 200.0 * np.abs(kronrod - gauss)
        # the mean absolute deviation from the panel mean, scaled as in QUADPACK
        spread = _WK @ np.abs(fx - 0.5 * kronrod)
        err = spread * (np.minimum(spread, diff) / np.maximum(spread, _TINY)) ** 1.5
        # at least 50 eps times spread + |kronrod|, a bound on the integral of |f|
        err = np.maximum(err, _EPS50 * (spread + np.abs(kronrod)))
    return kronrod * half, err * np.abs(half)


def integrate(f, *edges: float) -> float:
    """Adaptive G7/K15 quadrature of f over (edges[0], edges[-1]]; f must
    have a limit at edges[0]. An inner edge is a kink of f: no panel
    straddles it.

    f maps an array of nodes to the array of its values there. The first
    round scores four equal panels between each two edges; each later
    round bisects every panel whose error estimate is above its share of
    the tolerance. A round scores the 15 nodes of all its panels in one call
    of f. It stops once the summed estimate is within max(1e-12,
    1e-10 |value|). An infinite value at a node is taken as an infinite
    integral (divergences are +inf where a law has mass the other lacks).
    Raises MaxDepthExceeded when convergence needs more than 60 panels, and
    QuadratureFailure when f is NaN at a node.
    """
    a, b = edges[0], edges[-1]
    # a repeated edge bounds no panel
    edges = [float(e) for e in edges]
    edges = [e for e, before in zip(edges, [None] + edges) if e != before]
    if len(edges) < 2:
        return 0.0
    # a round costs far more than its nodes, so the first one scores four
    # panels an interval, at the points of np.linspace(e0, e1, 5): in floats,
    # as a numpy call costs far more than the arithmetic of three edges
    lo = [e0 + q * ((e1 - e0) / 4.0) for e0, e1 in zip(edges, edges[1:]) for q in range(4)]
    lo, hi = np.array(lo), np.array(lo[1:] + [float(b)])
    value, err = _gauss_kronrod(f, lo, hi)
    while True:
        total = float(value.sum())
        if math.isnan(total):
            raise QuadratureFailure(f"integrand is NaN at a node in [{a}, {b}]")
        if math.isinf(total):
            return total
        tol = max(_ABS_TOL, _REL_TOL * abs(total))
        ratio = err / tol
        if ratio.sum() <= 1.0:
            return total
        # a panel's share of the tolerance is its share of the interval
        share = ratio * ((b - a) / (hi - lo))
        over = share > 1.0
        split = np.flatnonzero(over)
        room = _MAX_PANELS - len(lo)
        if room <= 0:
            raise MaxDepthExceeded(
                f"quadrature did not converge on [{a}, {b}]: error estimate "
                f"{err.sum():.3g} against tolerance {tol:.3g} "
                f"after {len(lo)} of {_MAX_PANELS} panels"
            )
        if not 0 < len(split) <= room:
            # rounding: no share is above 1, yet their sum is; or more
            # panels to split than the budget has room for
            split = (split[np.argsort(share[split])[-room:]] if len(split)
                     else np.array([np.argmax(share)]))
            over = np.zeros(len(lo), dtype=bool)
            over[split] = True
        # the kept panels first, in order, then the halves of the split ones:
        # value.sum() adds them in that order
        keep = ~over
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_value, new_err = _gauss_kronrod(f, new_lo, new_hi)
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        value = np.concatenate([value[keep], new_value])
        err = np.concatenate([err[keep], new_err])


def _escapes(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether a has mass where b has none, so D(a||b) = +inf. The curve
    chi^2(a||R_s)/s, R_s = (1 - s) a + s b, is then at least
    s a(b = 0)/(1 - s): its integral up to s = 1 is +inf too."""
    return bool(((a > 0) & (b == 0)).any())


def _mixtures(s: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (m, n) stack of laws (1 - s) a + s b, one row per node s."""
    s = s[:, None]
    return (1.0 - s) * a + s * b


def _path_check(name: str, lhs: float, curve, edges, infinite: bool) -> IdentityReport:
    """lhs against the integral of curve between the first and last of edges
    (an inner edge is a kink of the curve); +inf, with no quadrature, where
    infinite says that the curve is not integrable."""
    rhs = math.inf if infinite else integrate(curve, *edges)
    return IdentityReport.compare(name, lhs, rhs)


def check_kl_chi2_identity(p: DiscreteDistribution, q: DiscreteDistribution,
                           lam: float) -> IdentityReport:
    """D(P||R_lam) vs the integral of chi^2(P||R_s)/s over (0, lam]."""
    a, b = (d.mass for d in align(p, q))

    def curve(s):
        c, (a_c, _), r = _mixture((1.0 - s[:, None], s[:, None]), (a, b))
        return _chi2(a_c, r, c=c) / s

    return _path_check("kl_chi2", skew_k(lam, p, q), curve, (0.0, lam),
                       lam == 1.0 and _escapes(a, b))


def check_chi2_half_identity(p: DiscreteDistribution, q: DiscreteDistribution) -> IdentityReport:
    """chi^2(P||Q)/2 vs the integral of chi^2(sP+(1-s)Q||Q)/s."""
    a, b = (d.mass for d in align(p, q))
    return _path_check("chi2_half", 0.5 * chi_squared(p, q),
                       lambda s: _chi2(_mixtures(s, b, a), b) / s, (0.0, 1.0), False)


def check_gv_identity(p: DiscreteDistribution, q: DiscreteDistribution,
                      lam: float) -> IdentityReport:
    """D(P||R_lam) vs the integral of s * D_{phi_s}(P||Q) over (0, lam]."""
    a, b = (d.mass for d in align(p, q))
    # s D_{phi_s}(P||Q) = chi^2(P||R_s)/s
    return _path_check("gv", skew_k(lam, p, q),
                       lambda s: s * _gv(a[None, :], b, s[:, None]),
                       (0.0, lam), lam == 1.0 and _escapes(a, b))


def check_recursive_identity(k: int, p: DiscreteDistribution, q: DiscreteDistribution,
                             lam: float) -> IdentityReport:
    """D_{f_{k+1}}(R_lam||P) vs the integral of D_{f_k}(R_s||P)/s over (0, lam]."""
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"mixture weight must lie in [0,1], got {lam}")
    a, b = (d.mass for d in align(p, q))
    f_k = DivergenceSpec("POLYLOG_F", k)
    lhs = float(f_divergence_rows(DivergenceSpec("POLYLOG_F", k + 1),
                                  _mixtures(np.array([lam]), a, b), a)[0])
    # at k = 0 the curve is chi^2(P||R_s)/s
    return _path_check(f"recursive_k{k}", lhs,
                       lambda s: f_divergence_rows(f_k, _mixtures(s, a, b), a) / s,
                       (0.0, lam), k == 0 and lam == 1.0 and _escapes(a, b))


def g_alpha(alpha: float, s):
    """Weight of the skew-chi^2 curve in the S_alpha integral: alpha s on
    (0, alpha] plus (1 - alpha)(1 - s) on [alpha, 1); both at s = alpha.
    Elementwise over an array s (a float for a scalar s)."""
    s = np.asarray(s, dtype=float)
    if math.isnan(alpha) or np.isnan(s).any():
        raise DomainError(f"g_alpha needs alpha and s that are not NaN, got {alpha}, {s}")
    out = (np.where((0.0 < s) & (s <= alpha), alpha * s, 0.0)
           + np.where((alpha <= s) & (s < 1.0), (1.0 - alpha) * (1.0 - s), 0.0))
    return out if out.ndim else float(out)


def check_skew_s_integral(alpha: float, p: DiscreteDistribution,
                          q: DiscreteDistribution) -> IdentityReport:
    """S_alpha(P||Q) vs the integral of g_alpha(s) D_{phi_s}(P||Q) over (0, 1),
    split at the kink of g_alpha at s = alpha."""
    lhs = skew_s(alpha, p, q)
    a, b = (d.mass for d in align(p, q))
    # not integrable, like the lhs is +inf: at alpha = 1 the curve is chi^2(P||R_s)/s
    # and P has mass where Q has none; at alpha = 0 it is >= (1 - s) Q(P = 0)/s
    return _path_check(f"skew_s_integral_a{alpha}", lhs,
                       lambda s: g_alpha(alpha, s) * _gv(a[None, :], b, s[:, None]),
                       (0.0, alpha, 1.0),
                       (alpha == 1.0 and _escapes(a, b)) or (alpha == 0.0 and _escapes(b, a)))
