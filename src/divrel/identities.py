"""Integral identities between divergences, and the quadrature behind them.

Each check evaluates the same quantity along two independent numerical
paths (a closed-form divergence vs an adaptive quadrature of a divergence
curve) and reports the discrepancy. Every integrand here has a finite
limit at s -> 0 (chi^2(P||R_s) ~ s^2 chi^2(Q||P)), so the open interval
(0, lambda] needs no singularity handling. An integrand takes the array
of quadrature nodes and scores the stack of laws they select in one row
kernel call.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteDistribution, align, mixture
from .divergences import (
    DivergenceSpec,
    _aligned,
    _gv,
    chi_squared,
    f_divergence,
    f_divergence_rows,
    kl,
    polylog_f,  # noqa: F401  the polylog kernel is part of this module's interface
)
from .errors import DomainError, MaxDepthExceeded, QuadratureFailure


@dataclass(frozen=True)
class QuadratureConfig:
    """Budget of ``integrate``: the error estimate must reach
    max(abs_tol, rel_tol |value|) within max_depth panels."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_depth: int = 60

    def __post_init__(self):
        if not (0.0 < self.rel_tol < np.inf and 0.0 < self.abs_tol < np.inf):
            raise DomainError(
                f"tolerances must be positive and finite, got rel_tol={self.rel_tol!r}, "
                f"abs_tol={self.abs_tol!r}"
            )
        if (isinstance(self.max_depth, bool)
                or not isinstance(self.max_depth, numbers.Integral) or self.max_depth < 1):
            raise DomainError(f"max_depth must be an integer >= 1, got {self.max_depth!r}")


DEFAULT_CFG = QuadratureConfig()

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
    def compare(cls, name: str, lhs: float, rhs: float,
                abs_tol: float = CHECK_ABS_TOL,
                rel_tol: float = CHECK_REL_TOL) -> "IdentityReport":
        abs_err = abs(lhs - rhs)
        scale = max(abs(lhs), abs(rhs))
        rel_err = abs_err / scale if scale > 0 else 0.0
        return cls(name, lhs, rhs, abs_err, rel_err,
                   abs_err <= abs_tol or rel_err <= rel_tol)


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
    """Kronrod values and QUADPACK error estimates, (panels, components),
    of f on the panels [lo_i, hi_i], all scored in one call of f; and
    whether f returned one value per node rather than columns."""
    half = 0.5 * (hi - lo)
    # node-major order: row j of fx holds node j of every panel and component
    fx = np.asarray(f((_XK[:, None] * half + (lo + half)).ravel()), dtype=float)
    scalar = fx.ndim == 1
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
    half = half[:, None]
    return kronrod.reshape(len(lo), -1) * half, err.reshape(len(lo), -1) * np.abs(half), scalar


def integrate(f, a: float, b: float, cfg: QuadratureConfig = DEFAULT_CFG):
    """Adaptive G7/K15 quadrature of f over (a, b]; f must have a limit at a.

    f maps an array of nodes to the array of its values there, or to an
    array with one column per component. The first round scores four equal
    panels (fewer if max_depth is smaller); each later round bisects every
    panel whose error estimate is above its share of the tolerance (the
    worst over components). A round scores the 15 nodes of all its panels
    in one call of f. It stops once the summed estimate is within
    max(abs_tol, rel_tol |value|) for every component. Returns a float, or
    an array of component values. An infinite value at a node is taken as
    an infinite integral (divergences are +inf where a law has mass the
    other lacks). Raises MaxDepthExceeded when convergence needs more than
    max_depth panels, and QuadratureFailure when f is NaN at a node.
    """
    if a == b:
        return 0.0
    # a round costs far more than its nodes, so the first one scores four panels
    edges = np.linspace(a, b, min(4, cfg.max_depth) + 1)
    lo, hi = edges[:-1], edges[1:]
    value, err, scalar = _gauss_kronrod(f, lo, hi)
    while True:
        total = value.sum(axis=0)
        if np.isnan(total).any():
            raise QuadratureFailure(f"integrand is NaN at a node in [{a}, {b}]")
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total))
        # a component that is infinite at a node has an infinite integral
        ratio = np.where(np.isinf(total), 0.0, err / tol)
        spent = ratio.sum(axis=0)
        if spent.max() <= 1.0:
            return float(total[0]) if scalar else total
        # a panel's share of the tolerance is its share of the interval
        share = ratio.max(axis=1) * ((b - a) / (hi - lo))
        split = np.flatnonzero(share > 1.0)
        room = cfg.max_depth - len(lo)
        if room <= 0:
            worst = int(np.argmax(spent))
            raise MaxDepthExceeded(
                f"quadrature did not converge on [{a}, {b}]: error estimate "
                f"{err.sum(axis=0)[worst]:.3g} against tolerance {tol[worst]:.3g} "
                f"after {len(lo)} of max_depth={cfg.max_depth} panels"
            )
        if not len(split):  # rounding: no share is above 1, yet their sum is
            split = np.array([np.argmax(share)])
        if len(split) > room:
            split = split[np.argsort(share[split])[-room:]]
        mid = 0.5 * (lo[split] + hi[split])
        keep = np.ones(len(lo), dtype=bool)
        keep[split] = False
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_value, new_err, _ = _gauss_kronrod(f, new_lo, new_hi)
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        value = np.concatenate([value[keep], new_value])
        err = np.concatenate([err[keep], new_err])


_CHI2 = DivergenceSpec("CHI2")


def _mixtures(s: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (m, n) stack of laws (1 - s) a + s b, one row per node s."""
    s = s[:, None]
    return (1.0 - s) * a + s * b


def check_kl_chi2_identity(
    p: DiscreteDistribution, q: DiscreteDistribution,
    lam: float, cfg: QuadratureConfig = DEFAULT_CFG,
) -> IdentityReport:
    """D(P||R_lam) vs the integral of chi^2(P||R_s)/s over (0, lam]."""
    lhs = kl(p, mixture(p, q, lam))
    a, b = (d.p for d in align(p, q))

    def integrand(s):
        rows = _mixtures(s, a, b)
        return f_divergence_rows(_CHI2, np.repeat(a[None, :], len(s), axis=0), rows) / s

    return IdentityReport.compare("kl_chi2", lhs, integrate(integrand, 0.0, lam, cfg))


def check_chi2_half_identity(
    p: DiscreteDistribution, q: DiscreteDistribution,
    cfg: QuadratureConfig = DEFAULT_CFG,
) -> IdentityReport:
    """chi^2(P||Q)/2 vs the integral of chi^2(sP+(1-s)Q||Q)/s."""
    lhs = 0.5 * chi_squared(p, q)
    a, b = p.p, q.p
    rhs = integrate(lambda s: f_divergence_rows(_CHI2, _mixtures(s, b, a), b) / s,
                    0.0, 1.0, cfg)
    return IdentityReport.compare("chi2_half", lhs, rhs)


def check_gv_identity(
    p: DiscreteDistribution, q: DiscreteDistribution,
    lam: float, cfg: QuadratureConfig = DEFAULT_CFG,
) -> IdentityReport:
    """D(P||R_lam) vs the integral of s * D_{phi_s}(P||Q) over (0, lam]."""
    lhs = kl(p, mixture(p, q, lam))
    a, b = _aligned(p, q)
    rhs = integrate(lambda s: s * _gv(a[None, :], b, s[:, None]), 0.0, lam, cfg)
    return IdentityReport.compare("gv", lhs, rhs)


def f_k_divergence(k: int, p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Divergence with the Li_k(1-x) kernel; k=0 gives chi^2(Q||P), k=1 gives D(Q||P)."""
    return f_divergence(DivergenceSpec("POLYLOG_F", k), p, q)


def check_recursive_identity(
    k: int, p: DiscreteDistribution, q: DiscreteDistribution,
    lam: float, cfg: QuadratureConfig = DEFAULT_CFG,
) -> IdentityReport:
    """D_{f_{k+1}}(R_lam||P) vs the integral of D_{f_k}(R_s||P)/s over (0, lam]."""
    lhs = f_k_divergence(k + 1, mixture(p, q, lam), p)
    a, b = (d.p for d in align(p, q))
    f_k = DivergenceSpec("POLYLOG_F", k)
    rhs = integrate(lambda s: f_divergence_rows(f_k, _mixtures(s, a, b), a) / s, 0.0, lam, cfg)
    return IdentityReport.compare(f"recursive_k{k}", lhs, rhs)
