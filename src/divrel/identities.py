"""Integral identities between divergences, plus the polylogarithm kernels.

Each check evaluates the same quantity along two independent numerical
paths (a closed-form divergence vs an adaptive quadrature of a divergence
curve) and reports the discrepancy. Every integrand here has a finite
limit at s -> 0 (chi^2(P||R_s) ~ s^2 chi^2(Q||P)), so the open interval
(0, lambda] needs no singularity handling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteDistribution, align, mixture
from .divergences import (
    DivergenceSpec,
    _divergence,
    chi_squared,
    f_divergence,
    gyorfi_vajda,
    kl,
)
from .errors import DomainError, MaxDepthExceeded


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_depth: int = 60

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0 or self.max_depth < 1:
            raise DomainError("tolerances must be positive and max_depth >= 1")


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


def integrate(f, a: float, b: float, cfg: QuadratureConfig = DEFAULT_CFG) -> float:
    """Adaptive quadrature on (a, b]; the integrand must have a limit at a."""
    if a == b:
        return 0.0
    import scipy.integrate

    result = scipy.integrate.quad(
        f, a, b,
        epsabs=cfg.abs_tol, epsrel=cfg.rel_tol,
        limit=max(cfg.max_depth, 1), full_output=1,
    )
    if len(result) > 3:
        raise MaxDepthExceeded(f"quadrature did not converge: {result[3]}")
    return float(result[0])


_CHI2 = DivergenceSpec("CHI2")


def check_kl_chi2_identity(
    p: DiscreteDistribution, q: DiscreteDistribution,
    lam: float, cfg: QuadratureConfig = DEFAULT_CFG,
) -> IdentityReport:
    """D(P||R_lam) vs the integral of chi^2(P||R_s)/s over (0, lam]."""
    lhs = kl(p, mixture(p, q, lam))
    a, b = (d.p for d in align(p, q))
    rhs = integrate(lambda s: _divergence(_CHI2, a, (1.0 - s) * a + s * b) / s, 0.0, lam, cfg)
    return IdentityReport.compare("kl_chi2", lhs, rhs)


def check_chi2_half_identity(
    p: DiscreteDistribution, q: DiscreteDistribution,
    cfg: QuadratureConfig = DEFAULT_CFG,
) -> IdentityReport:
    """chi^2(P||Q)/2 vs the integral of chi^2(sP+(1-s)Q||Q)/s."""
    lhs = 0.5 * chi_squared(p, q)
    a, b = p.p, q.p
    rhs = integrate(lambda s: _divergence(_CHI2, (1.0 - s) * b + s * a, b) / s, 0.0, 1.0, cfg)
    return IdentityReport.compare("chi2_half", lhs, rhs)


def check_gv_identity(
    p: DiscreteDistribution, q: DiscreteDistribution,
    lam: float, cfg: QuadratureConfig = DEFAULT_CFG,
) -> IdentityReport:
    """D(P||R_lam) vs the integral of s * D_{phi_s}(P||Q) over (0, lam]."""
    lhs = kl(p, mixture(p, q, lam))
    rhs = integrate(lambda s: s * gyorfi_vajda(s, p, q), 0.0, lam, cfg)
    return IdentityReport.compare("gv", lhs, rhs)


_SERIES_TAIL = 1e-14


def _li(k: int, y: float, cfg: QuadratureConfig = DEFAULT_CFG) -> float:
    """Polylogarithm Li_k(y) for y < 1 (real branch)."""
    if k == 0:
        return y / (1.0 - y)
    if k == 1:
        return -math.log1p(-y)
    if -1.0 < y < 1.0:
        # truncated series sum y^n / n^k with tail bound |y|^(n+1)/(n+1)^k
        total = 0.0
        term = y
        n = 1
        while True:
            total += term / n**k
            n += 1
            term *= y
            if abs(term) / n**k < _SERIES_TAIL:
                return total
    # y <= -1: one level of quadrature on the defining recursion
    return integrate(lambda s: _li(k - 1, s, cfg) / s, 0.0, y, cfg)


def polylog_f(k: int, x):
    """Convex kernel Li_k(1-x); vanishes at x = 1 for every k >= 0.

    Elementwise over an array x (a float for a scalar x). Orders 0 and 1
    are closed forms; higher orders run the scalar series or quadrature
    of ``_li`` atom by atom through np.vectorize.
    """
    x = np.asarray(x, dtype=float)
    if not (x > 0).all():
        raise DomainError(f"polylog kernel needs x > 0, got {x}")
    if k < 0:
        raise DomainError(f"polylog order must be >= 0, got {k}")
    if k == 0:
        out = (1.0 - x) / x
    elif k == 1:
        out = -np.log(x)
    else:
        out = np.vectorize(lambda t: _li(k, 1.0 - t), otypes=[float])(x)
    return out if out.ndim else float(out)


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
    rhs = integrate(lambda s: _divergence(f_k, (1.0 - s) * a + s * b, a) / s, 0.0, lam, cfg)
    return IdentityReport.compare(f"recursive_k{k}", lhs, rhs)
