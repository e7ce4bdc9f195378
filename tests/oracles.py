"""Independent oracles that the tests check divrel against; divrel itself
never calls them."""

import math

import numpy as np

from divrel.applications import poisson_pmf
from divrel.contraction import SourceChannelPair
from divrel.divergences import entropy


def poisson_entropy_direct(lam: float, tail_tol: float = 1e-15) -> float:
    """Entropy of the truncated pmf, in nats; oracle for poisson_entropy."""
    dist, _ = poisson_pmf(lam, tail_tol)
    return entropy(dist)


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
