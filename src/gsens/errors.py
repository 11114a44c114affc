"""Exception types shared across the package."""


class GsensError(ValueError):
    """Base class for all gsens-specific errors."""


class SingularMatrixError(GsensError):
    """Matrix is numerically singular (reciprocal condition estimate below threshold)."""


class FactorError(GsensError):
    """Variation factor is zero or not finite, or a plan product of factors
    has a zero entry."""


class SchemeError(GsensError):
    """Covariation scheme is invalid for the requested variation/statement."""


class ModelPreconditionError(GsensError):
    """Input covariance does not satisfy the model it is being checked against."""


class InadmissibleError(GsensError):
    """Perturbed covariance is outside the domain of the requested divergence."""


class ModelFormatError(GsensError):
    """Model or config file violates the expected schema."""
