"""Exception types shared across the package. A model that cannot be
fitted is not an error: fit_candidates marks it None."""


class SurveyImputeError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SurveyImputeError):
    """Malformed or inconsistent configuration input.

    Carries the offending field path so the CLI can print a usable
    diagnostic and exit with the dedicated status code.
    """

    def __init__(self, field, message):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")


class InvalidDesignError(SurveyImputeError):
    """Sampling design that violates its own invariants."""


class DegenerateFitError(SurveyImputeError):
    """Fit exists but leaves no residual degrees of freedom."""


class SelectionFailureError(SurveyImputeError):
    """No candidate model could be scored."""


class EstimationFailureError(SurveyImputeError):
    """Point or variance estimation produced an unusable result."""


class MetricError(SurveyImputeError):
    """Monte Carlo metric undefined for the collected replications."""
