"""Finite discrete distributions, channels and mixtures.

Every distribution lives on an ordered support of real atoms so that means
and variances are well defined; purely categorical uses simply ignore the
atom values. Validation rejects bad input (tolerance 1e-9) instead of
renormalizing.

Laws and channels hold read-only, C-ordered float64 arrays, copied from the
input and validated once, at construction; they compare by value and are
unhashable. Their JSON codec is orjson, which writes the arrays straight
from their buffers; it is imported by the four codec methods alone.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    DuplicateAtom,
    MalformedJSON,
    NegativeMass,
    NonFinite,
    NonStochastic,
)

INPUT_TOL = 1e-9


def validate_mass(m: np.ndarray) -> None:
    """The one probability check, for a law, the rows of a channel or a
    stack of candidate laws: every vector along the last axis of m has
    finite, non-negative entries summing to 1 within INPUT_TOL.

    Entries in [0, 1 + INPUT_TOL], as those of a law are, pass the first two
    tests at the cost of a minimum and a maximum; the sums of such entries
    cannot overflow. The one sum of a law is tested as a float."""
    if not (m.size and 0.0 <= m.min() and m.max() <= 1.0 + INPUT_TOL):
        if not np.all(np.isfinite(m)):
            raise NonFinite("mass entries must be finite")
        if np.any(m < 0):
            raise NegativeMass(f"negative mass entry: {m.min()}")
    # a matrix-vector product: on short rows several times faster than
    # m.sum(axis=-1) (0.27 against 1.9 ms on a 1e5 x 4 channel), within an ulp
    sums = m @ np.ones(m.shape[-1])
    if m.ndim == 1:
        bad = [float(sums)] if abs(float(sums) - 1.0) > INPUT_TOL else []
    else:
        bad = sums[np.abs(sums - 1.0) > INPUT_TOL]
    if len(bad):
        raise NonStochastic(f"mass sums to {float(bad[0])!r}, not 1")


def _check_count(name: str, n, least: int) -> None:
    """Raise DomainError unless n is an integer >= least (a bool is not)."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {n!r}")


# entries per stacked array: a long stack of wide rows is built or scored in
# blocks, so that each array of a block stays near 8 MB
_STACK_ENTRIES = 1 << 20


def _in_blocks(score, rows: np.ndarray, entries) -> np.ndarray:
    """score(rows), over consecutive blocks of one row or of at most
    _STACK_ENTRIES entries, each row as wide as the widest of its block: a
    row spans entries entries, one count for all or non-decreasing per row."""
    entries = np.full(len(rows), entries)
    parts, start = [], 0
    while start < len(rows) or not parts:
        fits = np.arange(1, len(rows) - start + 1) * entries[start:] <= _STACK_ENTRIES
        stop = start + max(1, int(np.count_nonzero(fits)))
        parts.append(score(rows[start:stop]))
        start = stop
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _read_only(x) -> np.ndarray:
    """A read-only, C-ordered float64 copy of x."""
    a = np.array(x, dtype=float, order="C")
    a.setflags(write=False)
    return a


def _equal_fields(self, other) -> bool:
    """Value equality of two records of one class of arrays."""
    if type(other) is not type(self):
        return NotImplemented
    return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
               for f in fields(self))


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Probability mass function on a strictly increasing real support.

    Zero-mass atoms are allowed; they are needed to place two distributions
    on a common support.
    """

    support: np.ndarray
    mass: np.ndarray

    def __post_init__(self):
        u, m = _read_only(self.support), _read_only(self.mass)
        if u.ndim != 1 or u.shape != m.shape or len(u) == 0:
            raise DimensionMismatch("support and mass must have equal positive length")
        validate_mass(m)
        # strictly increasing between finite ends: every atom is finite
        if not ((u[1:] > u[:-1]).all() and math.isfinite(u[0]) and math.isfinite(u[-1])):
            if not np.isfinite(u).all():
                raise NonFinite("support atoms must be finite")
            raise DuplicateAtom("support atoms must be strictly increasing and distinct")
        object.__setattr__(self, "support", u)
        object.__setattr__(self, "mass", m)

    __eq__ = _equal_fields

    def __len__(self) -> int:
        return len(self.support)

    def to_json(self) -> str:
        """{"support": [...], "mass": [...]} with shortest round-trip digits,
        so that ``from_json`` gives back every float bit for bit."""
        import orjson

        return orjson.dumps({"support": self.support, "mass": self.mass},
                            option=orjson.OPT_SERIALIZE_NUMPY).decode()

    @classmethod
    def from_json(cls, text: str) -> "DiscreteDistribution":
        return make_distribution(*_json_arrays(text, "support", "mass"))


@dataclass(frozen=True, eq=False)
class Channel:
    """Row-stochastic conditional probability matrix W(y|x)."""

    matrix: np.ndarray

    def __post_init__(self):
        w = _read_only(self.matrix)
        if w.ndim != 2 or w.size == 0:
            raise DimensionMismatch("channel must be a non-empty 2-d matrix")
        validate_mass(w)
        object.__setattr__(self, "matrix", w)

    __eq__ = _equal_fields

    @property
    def n_inputs(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.matrix.shape[1]

    def to_json(self) -> str:
        """{"rows": [[...], ...]}, written like ``DiscreteDistribution.to_json``."""
        import orjson

        return orjson.dumps({"rows": self.matrix}, option=orjson.OPT_SERIALIZE_NUMPY).decode()

    @classmethod
    def from_json(cls, text: str) -> "Channel":
        return make_channel(*_json_arrays(text, "rows"))


def _json_arrays(text: str, *keys: str) -> list[np.ndarray]:
    """The numeric arrays under keys of the JSON object in text; MalformedJSON
    for text that is not JSON, not an object, or lacks a numeric array at a key."""
    import orjson

    try:
        obj = orjson.loads(text)
        arrays = [np.asarray(obj[k]) for k in keys]
        if any(a.dtype.kind not in "iuf" for a in arrays):
            raise TypeError("a value is not an array of numbers")
    except (ValueError, TypeError, KeyError) as exc:
        raise MalformedJSON(f"expected a JSON object with numeric {', '.join(keys)}: "
                            f"{type(exc).__name__}: {exc}") from None
    return arrays


def make_distribution(support, mass) -> DiscreteDistribution:
    """Validate and build a distribution; no silent renormalization."""
    u, m = np.asarray(support, dtype=float), np.asarray(mass, dtype=float)
    if u.ndim != 1 or u.shape != m.shape:
        raise DimensionMismatch("support and mass must have equal length")
    # duplicate and NaN atoms take the sorting path too, and raise there. The
    # class tests the order again; sorting every support instead would cost a
    # 1e5-atom law about 1 ms against 26 us for this test
    if not (u[1:] > u[:-1]).all():
        order = np.argsort(u, kind="stable")
        u, m = u[order], m[order]
    return DiscreteDistribution(u, m)


def make_channel(rows) -> Channel:
    return Channel(rows)


def _on_union_support(dists) -> tuple[np.ndarray, np.ndarray]:
    """The union of the laws' supports and the (k, n) stack of their masses
    on it, zero where a law has no atom."""
    first = dists[0].support
    if all(np.array_equal(d.support, first) for d in dists):
        return first, np.stack([d.mass for d in dists])
    support = functools.reduce(np.union1d, [d.support for d in dists])
    stack = np.zeros((len(dists), len(support)))
    for row, d in zip(stack, dists):
        row[np.searchsorted(support, d.support)] = d.mass
    return support, stack


def align(p: DiscreteDistribution, q: DiscreteDistribution):
    """Put both distributions on the union support, padding with zero mass;
    the pair itself where the supports agree. Every function of two laws
    calls it: this is the one place where two supports meet."""
    if np.array_equal(p.support, q.support):
        return p, q
    support, (pm, qm) = _on_union_support((p, q))
    return DiscreteDistribution(support, pm), DiscreteDistribution(support, qm)


def mixture(p: DiscreteDistribution, q: DiscreteDistribution, lam: float) -> DiscreteDistribution:
    """Convex combination (1-lam)*P + lam*Q on the common support."""
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"mixture weight must lie in [0,1], got {lam}")
    support, (pm, qm) = _on_union_support((p, q))
    return DiscreteDistribution(support, (1.0 - lam) * pm + lam * qm)


def push_forward(p: DiscreteDistribution, w: Channel) -> DiscreteDistribution:
    """Output law of the channel fed with input law p; atoms 0..|Y|-1."""
    if len(p) != w.n_inputs:
        raise DimensionMismatch(
            f"input support size {len(p)} != channel rows {w.n_inputs}"
        )
    return DiscreteDistribution(np.arange(w.n_outputs, dtype=float), p.mass @ w.matrix)


def moments(p: DiscreteDistribution) -> tuple[float, float]:
    """(mean, variance) of the atom values under the mass vector."""
    u = p.support
    mean = float(np.dot(p.mass, u))
    var = float(np.dot(p.mass, u * u) - mean * mean)
    return mean, max(var, 0.0)
