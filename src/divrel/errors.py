"""Exception hierarchy shared by all divrel modules."""


class DivrelError(Exception):
    """Base class for all divrel errors."""


class NonStochastic(DivrelError):
    """Mass vector does not sum to 1 within tolerance."""


class NegativeMass(DivrelError):
    """Mass vector contains a negative entry."""


class NonFinite(DivrelError):
    """Mass, support or channel entry is NaN or infinite."""


class DuplicateAtom(DivrelError):
    """Support contains a repeated atom."""


class DimensionMismatch(DivrelError):
    """Distribution / channel dimensions are inconsistent."""


class MalformedJSON(DivrelError):
    """Input text is not a JSON object of numeric arrays under the expected keys."""


class DomainError(DivrelError):
    """Argument outside the mathematical domain of the function."""


class QuadratureFailure(DivrelError):
    """Numerical integration produced an unreliable result."""


class MaxDepthExceeded(QuadratureFailure):
    """Adaptive quadrature failed to converge within its budget."""


class DegenerateVariance(DivrelError):
    """Variance is zero where a positive variance is required."""


class PreconditionViolated(DivrelError):
    """Operation called outside its stated preconditions."""


class EpsilonTooLarge(DivrelError):
    """Perturbation parameter too large for the construction to be valid."""


class NotReversible(DivrelError):
    """Markov kernel violates detailed balance w.r.t. its stationary law."""


class NotIrreducible(DivrelError):
    """Markov kernel is not irreducible."""


class EmptySet(DivrelError):
    """Conditioning set is empty."""


class ZeroProbabilitySet(DivrelError):
    """Conditioning set has zero probability."""
