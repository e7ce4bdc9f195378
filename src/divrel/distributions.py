"""Finite discrete distributions, channels and mixtures.

Every distribution lives on an ordered support of real atoms so that means
and variances are well defined; purely categorical uses simply ignore the
atom values. Validation rejects bad input (tolerance 1e-9) instead of
renormalizing; internally sums are maintained to 1e-12.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateAtom,
    NegativeMass,
    NonFinite,
    NonStochastic,
)

INPUT_TOL = 1e-9
INTERNAL_TOL = 1e-12


def validate_mass(m: np.ndarray) -> None:
    """The one probability check, for a law, the rows of a channel or a
    stack of candidate laws: every vector along the last axis of m has
    finite, non-negative entries summing to 1 within INPUT_TOL."""
    if not np.all(np.isfinite(m)):
        raise NonFinite("mass entries must be finite")
    if np.any(m < 0):
        raise NegativeMass(f"negative mass entry: {m.min()}")
    sums = m.sum(axis=-1)
    bad = np.abs(sums - 1.0) > INPUT_TOL
    if np.any(bad):
        raise NonStochastic(f"mass sums to {float(sums[bad][0])!r}, not 1")


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability mass function on a strictly increasing real support.

    Zero-mass atoms are allowed; they are needed to place two distributions
    on a common support.
    """

    support: tuple[float, ...]
    mass: tuple[float, ...]

    def __post_init__(self):
        if len(self.support) != len(self.mass) or len(self.support) == 0:
            raise DimensionMismatch("support and mass must have equal positive length")
        validate_mass(np.asarray(self.mass, dtype=float))
        u = np.asarray(self.support, dtype=float)
        if not np.all(np.isfinite(u)):
            raise NonFinite("support atoms must be finite")
        if np.any(np.diff(u) <= 0):
            raise DuplicateAtom("support atoms must be strictly increasing and distinct")

    @property
    def p(self) -> np.ndarray:
        return np.asarray(self.mass, dtype=float)

    @property
    def atoms(self) -> np.ndarray:
        return np.asarray(self.support, dtype=float)

    def __len__(self) -> int:
        return len(self.support)

    def to_json(self) -> str:
        return json.dumps({"support": list(self.support), "mass": list(self.mass)})

    @classmethod
    def from_json(cls, text: str) -> "DiscreteDistribution":
        obj = json.loads(text)
        return make_distribution(obj["support"], obj["mass"])


@dataclass(frozen=True)
class Channel:
    """Row-stochastic conditional probability matrix W(y|x)."""

    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        w = np.asarray(self.rows, dtype=float)
        if w.ndim != 2 or w.size == 0:
            raise DimensionMismatch("channel must be a non-empty 2-d matrix")
        validate_mass(w)

    @property
    def matrix(self) -> np.ndarray:
        return np.asarray(self.rows, dtype=float)

    @property
    def n_inputs(self) -> int:
        return len(self.rows)

    @property
    def n_outputs(self) -> int:
        return len(self.rows[0])

    def to_json(self) -> str:
        return json.dumps({"rows": [list(r) for r in self.rows]})

    @classmethod
    def from_json(cls, text: str) -> "Channel":
        obj = json.loads(text)
        return make_channel(obj["rows"])


def make_distribution(support, mass) -> DiscreteDistribution:
    """Validate and build a distribution; no silent renormalization."""
    if len(support) != len(mass):
        raise DimensionMismatch("support and mass must have equal length")
    order = np.argsort(np.asarray(support, dtype=float), kind="stable")
    u = tuple(float(support[i]) for i in order)
    m = tuple(float(mass[i]) for i in order)
    if len(set(u)) != len(u):
        raise DuplicateAtom("repeated atom in support")
    return DiscreteDistribution(u, m)


def make_channel(rows) -> Channel:
    return Channel(tuple(tuple(float(v) for v in row) for row in rows))


def align(p: DiscreteDistribution, q: DiscreteDistribution):
    """Put both distributions on the union support, padding with zero mass."""
    if p.support == q.support:
        return p, q
    union = sorted(set(p.support) | set(q.support))
    pm = dict(zip(p.support, p.mass))
    qm = dict(zip(q.support, q.mass))
    pa = DiscreteDistribution(tuple(union), tuple(pm.get(u, 0.0) for u in union))
    qa = DiscreteDistribution(tuple(union), tuple(qm.get(u, 0.0) for u in union))
    return pa, qa


def mixture(p: DiscreteDistribution, q: DiscreteDistribution, lam: float) -> DiscreteDistribution:
    """Convex combination (1-lam)*P + lam*Q on the common support."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixture weight must lie in [0,1], got {lam}")
    pa, qa = align(p, q)
    m = (1.0 - lam) * pa.p + lam * qa.p
    return DiscreteDistribution(pa.support, tuple(m))


def push_forward(p: DiscreteDistribution, w: Channel) -> DiscreteDistribution:
    """Output law of the channel fed with input law p; atoms 0..|Y|-1."""
    if len(p) != w.n_inputs:
        raise DimensionMismatch(
            f"input support size {len(p)} != channel rows {w.n_inputs}"
        )
    out = p.p @ w.matrix
    return DiscreteDistribution(tuple(float(i) for i in range(w.n_outputs)), tuple(out))


def moments(p: DiscreteDistribution) -> tuple[float, float]:
    """(mean, variance) of the atom values under the mass vector."""
    u = p.atoms
    mean = float(np.dot(p.p, u))
    var = float(np.dot(p.p, u * u) - mean * mean)
    return mean, max(var, 0.0)
