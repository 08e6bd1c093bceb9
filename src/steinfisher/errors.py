"""Exception hierarchy used across the package."""


class SteinFisherError(Exception):
    """Base class for all package-specific errors."""


class NotInCatalog(SteinFisherError):
    """Requested distribution name is not in the catalog."""


class MomentConditionViolated(SteinFisherError):
    """A catalog entry would violate its finite-moment requirements."""


class QuadratureFailure(SteinFisherError):
    """Adaptive quadrature did not reach the requested tolerance."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class DensityUnderflow(SteinFisherError):
    """Density value too small to divide by."""


class NotIntegrable(SteinFisherError):
    """An improper integral diverges under the numeric decay probe."""


class GuardDominated(SteinFisherError):
    """Too many guarded draws; the estimate is unreliable."""


class InsufficientData(SteinFisherError):
    """Not enough unguarded draws for the requested estimator."""


class InvalidInput(SteinFisherError):
    """Caller-supplied value violates a documented precondition."""


class ContractViolation(SteinFisherError):
    """An internal contract between operations was broken."""


class DegenerateVariance(SteinFisherError):
    """Estimated scale is statistically indistinguishable from zero."""


class DegenerateModel(SteinFisherError):
    """Model has zero variance and cannot be standardized."""


class ParseError(SteinFisherError):
    """A structured input file failed validation."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class ConfigError(SteinFisherError):
    """Experiment configuration failed validation.

    ``fields`` maps field names to human-readable messages.
    """

    def __init__(self, fields):
        super().__init__("; ".join(f"{k}: {v}" for k, v in sorted(fields.items())))
        self.fields = dict(fields)
