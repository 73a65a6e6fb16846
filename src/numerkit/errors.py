"""Exception types shared across the toolkit."""


class PricingError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(PricingError):
    """Ragged or mismatched array dimensions."""


class ValidationFailure(PricingError):
    """A product spec failed validation.

    Carries the individual violation messages so callers (and the CLI)
    can report them one per line.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))

    def __reduce__(self):  # rebuilt from the list, not the joined message
        return type(self), (self.violations,)


class ReductionError(PricingError):
    """Payoff is not homogeneous of degree one; reduction is invalid."""


class DegenerateCovarianceError(PricingError):
    """Reduced covariance matrix is singular (or numerically so)."""


class TimeDomainError(PricingError):
    """Valuation time outside the contract's validity window."""


class PayoffEvaluationError(PricingError):
    """Payoff returned a non-finite value."""


class GridExtrapolationError(PricingError):
    """Requested a PDE solution value outside the truncated grid."""
