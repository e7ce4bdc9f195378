"""Integral identities between divergences, and the quadrature behind them.

Each check evaluates the same quantity along two independent numerical
paths (a closed-form divergence vs an adaptive quadrature of a divergence
curve, ``integrate``) and reports the discrepancy. Every integrand here
has a finite limit at s -> 0 (chi^2(P||R_s) ~ s^2 chi^2(Q||P)). An
integrand takes the array of quadrature nodes and scores the stack of laws
they select in one row kernel call. Every check puts P and Q on their union
support (``align``), so either law may lack atoms of the other.

The paper's D(P||R_lam) = int_0^lam chi^2(P||R_s)/s ds is the recursive
identity at k = 0: Li_1(1 - t) = -ln t and Li_0(1 - t) = 1/t - 1 make
D_{f_1}(R||P) = D(P||R) and D_{f_0}(R||P) = chi^2(P||R). Its Gyorfi-Vajda
form, the gv check, integrates the same curve: s D_{phi_s}(P||Q) = chi^2(P||R_s)/s.

Singular points. Along R_s = (1-s)P + sQ (``_MixturePath``), r_j/p_j =
1 - s/s_j with s_j = p_j/(p_j - q_j), so D_{f_k}(R_s||P) = sum_j p_j
Li_k(s/s_j): at s = s_j a pole for k = 0 (as in the skew-s curve
g_alpha(s) chi^2(P||R_s)/s^2), a logarithmic singularity for k = 1, and for
k >= 2 a finite value with a singular derivative. A small mass puts an s_j
next to the interval: a peak at its end or a knee at 0 that 60 panels may
not resolve. A check along R_s that runs out of panels names the nearest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteDistribution, _check_real, _reals, align
from .divergences import _REGISTRY, _chi2, _gv, _mixture, _polylog, chi_squared, skew_s
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


def _rules(fx):
    """Kronrod sums and QUADPACK error estimates of the node-major values fx
    on [-1, 1], one of each per column; both are 1-homogeneous in fx."""
    kronrod, gauss = _RULES @ fx
    diff = 200.0 * np.abs(kronrod - gauss)
    # the mean absolute deviation from the panel mean, scaled as in QUADPACK
    spread = _WK @ np.abs(fx - 0.5 * kronrod)
    err = spread * (np.minimum(spread, diff) / np.maximum(spread, _TINY)) ** 1.5
    # at least 50 eps times spread + |kronrod|, a bound on the integral of |f|
    return kronrod, np.maximum(err, _EPS50 * (spread + np.abs(kronrod)))


def _gauss_kronrod(f, lo, hi, a, inside):
    """Kronrod values and QUADPACK error estimates of f on the panels
    [lo_i, hi_i], one of each per panel, all scored in one call of f. A node
    that rounds onto a, the end where f need only have a limit (on a panel a
    few ulps wide), is taken at inside, one ulp into the interval."""
    half = 0.5 * (hi - lo)
    # node-major order: row j of x and fx holds node j of every panel
    x = _XK[:, None] * half + (lo + half)
    x[x == a] = inside
    fx = np.asarray(f(x.ravel()), dtype=float).reshape(len(_XK), -1)
    # an infinite value of f leaves the error estimate NaN (integrate then
    # stops on the value)
    with np.errstate(invalid="ignore", over="ignore"):
        kronrod, err = _rules(fx)
        if not np.isfinite(err).all() and np.isfinite(fx).all():
            # finite values above max/2 overflow the weights, which sum to 2:
            # the round takes them scaled by each half-width instead
            return _rules(fx * half)
    return kronrod * half, err * np.abs(half)


def integrate(f, *edges: float) -> float:
    """Adaptive G7/K15 quadrature of f over (edges[0], edges[-1]]; f must
    have a limit at edges[0], where it is not evaluated. An inner edge is a
    kink of f: no panel straddles it.

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
    inside = math.nextafter(a, b)
    value, err = _gauss_kronrod(f, lo, hi, a, inside)
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
        new_value, new_err = _gauss_kronrod(f, new_lo, new_hi, a, inside)
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        value = np.concatenate([value[keep], new_value])
        err = np.concatenate([err[keep], new_err])


class _MixturePath:
    """R_s = (1 - s)P + sQ, on the masses a of P and b of Q on their union support."""

    def __init__(self, p: DiscreteDistribution, q: DiscreteDistribution):
        self.a, self.b = (d.mass for d in align(p, q))

    def escapes(self, end: float) -> bool:
        """Whether a curve along R_s is not integrable up to s = end, 1 or 0: P
        has mass where Q has none (s_j = 1), so chi^2(P||R_s)/s >= s P(Q = 0)/(1 - s),
        or Q where P has none (s_j = 0), so g_0(s) D_{phi_s}(P||Q) >= (1 - s) Q(P = 0)/s."""
        a, b = (self.a, self.b) if end == 1.0 else (self.b, self.a)
        return bool(((a > 0) & (b == 0)).any())

    def polylog(self, k: int, s: np.ndarray) -> np.ndarray:
        """D_{f_k}(R_s||P) at each node s; at k = 0 it is chi^2(P||R_s)."""
        c, (a_c, _), r = _mixture((1.0 - s[:, None], s[:, None]), (self.a, self.b))
        return _polylog(r, a_c, k, c)

    def gv(self, s: np.ndarray) -> np.ndarray:
        """D_{phi_s}(P||Q) = chi^2(P||R_s)/s^2 at each node s."""
        return _gv(self.a[None, :], self.b, s[:, None])

    def check(self, name: str, lhs: float, curve, edges, infinite: bool, k: int,
              end: str) -> IdentityReport:
        """lhs against the integral of curve between the first and last of edges
        (an inner edge is a kink of the curve); +inf, with no quadrature, where
        infinite says that it is not integrable. Out of panels, it names the
        nearest s_j of an atom with p_j > 0, a pole of a k = 0 curve: past the
        last edge u (named end) by (p_j(1 - u) + u q_j)/(p_j - q_j), or below 0
        by p_j/(q_j - p_j)."""
        try:
            rhs = math.inf if infinite else integrate(curve, *edges)
        except MaxDepthExceeded as exc:
            a, b, u = self.a, self.b, edges[-1]
            # the distance from u, not s_j - u: p/(p - q) rounds to 1 at q < 1e-16 p
            past = ((a * (1.0 - u) + u * b)[a > b] / (a - b)[a > b]).min(initial=math.inf)
            below = (a[(0 < a) & (a < b)] / (b - a)[(0 < a) & (a < b)]).min(initial=math.inf)
            side = f"{past:.3g} past {end}" if past <= below else f"{below:.3g} below s = 0"
            what = "singular point" if k else "pole"
            raise MaxDepthExceeded(f"{exc}; the nearest {what} of the curve lies {side}") from None
        return IdentityReport.compare(name, lhs, rhs)


def check_kl_chi2_identity(p: DiscreteDistribution, q: DiscreteDistribution,
                           lam: float) -> IdentityReport:
    """D(P||R_lam) vs the integral of chi^2(P||R_s)/s over (0, lam]: recursive at k = 0."""
    return _recursive_check("kl_chi2", 0, p, q, lam)


def check_chi2_half_identity(p: DiscreteDistribution, q: DiscreteDistribution) -> IdentityReport:
    """chi^2(P||Q)/2 vs the integral of chi^2(sP+(1-s)Q||Q)/s.

    The curve is the line s chi^2(P||Q), which the first round of G7/K15
    integrates exactly: one integrand call of 60 nodes, whatever the pair,
    so this check tests the kernel and the rule, not the adaptivity."""
    a, b = (d.mass for d in align(p, q))

    def curve(s):
        # the mixture is the numerator only; /s overflows only where chi^2(P||Q) does
        with np.errstate(over="ignore"):
            return _chi2((1.0 - s[:, None]) * b + s[:, None] * a, b) / s

    return IdentityReport.compare("chi2_half", 0.5 * chi_squared(p, q), integrate(curve, 0.0, 1.0))


def check_gv_identity(p: DiscreteDistribution, q: DiscreteDistribution,
                      lam: float) -> IdentityReport:
    """D(P||R_lam) vs the integral of s * D_{phi_s}(P||Q) over (0, lam]: recursive at k = 0."""
    return _recursive_check("gv", 0, p, q, lam)


def check_recursive_identity(k: int, p: DiscreteDistribution, q: DiscreteDistribution,
                             lam: float) -> IdentityReport:
    """D_{f_{k+1}}(R_lam||P) vs the integral of D_{f_k}(R_s||P)/s over (0, lam],
    for k a POLYLOG_F order whose k + 1 is one too."""
    _, lo, hi, whole = _REGISTRY["POLYLOG_F"][1]
    _check_real("order k", k, lo, hi - 1, whole=whole)
    return _recursive_check(f"recursive_k{k}", k, p, q, lam)


def _recursive_check(name: str, k: int, p: DiscreteDistribution, q: DiscreteDistribution,
                     lam: float) -> IdentityReport:
    """The recursive identity at k, reported under name."""
    _check_real("mixture weight", lam, 0.0, 1.0)
    path = _MixturePath(p, q)
    lhs = float(path.polylog(k + 1, np.array([lam]))[0])
    return path.check(name, lhs, lambda s: path.polylog(k, s) / s, (0.0, lam),
                      k == 0 and lam == 1.0 and path.escapes(1.0), k, f"lambda = {lam:g}")


def g_alpha(alpha: float, s):
    """Weight of the skew-chi^2 curve in the S_alpha integral: alpha s on
    (0, alpha] plus (1 - alpha)(1 - s) on [alpha, 1); both at s = alpha.
    alpha in [0, 1]; elementwise over an array s, not NaN (a float for a scalar s)."""
    _check_real("skew alpha", alpha, 0.0, 1.0)
    s = _reals(s)
    if np.isnan(s).any():
        raise DomainError(f"g_alpha needs s that is not NaN, got {s}")
    out = _g_alpha(alpha, s)
    return out if out.ndim else float(out)


def _g_alpha(alpha: float, s: np.ndarray) -> np.ndarray:
    """``g_alpha`` at an array s of nodes, unchecked: the quadrature's own."""
    return (np.where((0.0 < s) & (s <= alpha), alpha * s, 0.0)
            + np.where((alpha <= s) & (s < 1.0), (1.0 - alpha) * (1.0 - s), 0.0))


def check_skew_s_integral(alpha: float, p: DiscreteDistribution,
                          q: DiscreteDistribution) -> IdentityReport:
    """S_alpha(P||Q) vs the integral of g_alpha(s) D_{phi_s}(P||Q) over (0, 1),
    split at the kink of g_alpha at s = alpha."""
    lhs = skew_s(alpha, p, q)
    path = _MixturePath(p, q)
    # not integrable, like the lhs is +inf, where an end of (0, 1) with weight 1 escapes
    return path.check(f"skew_s_integral_a{alpha}", lhs,
                      lambda s: _g_alpha(alpha, s) * path.gv(s), (0.0, alpha, 1.0),
                      alpha in (0.0, 1.0) and path.escapes(alpha), 0, "s = 1")
