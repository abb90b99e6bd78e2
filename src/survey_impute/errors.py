"""Exception types shared across the package. A public function refuses
a bad argument with ValueError; a config or CLI value at fault is a
ConfigError, raised by config and cli and by a replication that finds its
config unusable; data that admit no selection or estimate raise the two
failure classes, which a study counts per replication. A model that
cannot be fitted is not an error: fit_candidates marks it None. Nor is a
Monte Carlo metric that the replications leave undefined: the metric
returns None, an empty cell of summary.csv."""


class SurveyImputeError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SurveyImputeError):
    """Malformed or inconsistent configuration input.

    Carries the offending field path so the CLI can print a usable
    diagnostic and exit with the dedicated status code.
    """

    def __init__(self, field, message):
        # both arguments go to args, so that unpickling (a pool worker's
        # error in the parent) calls __init__ with both again
        super().__init__(field, message)
        self.field = field
        self.message = message

    def __str__(self):
        return f"{self.field}: {self.message}"


class SelectionFailureError(SurveyImputeError):
    """No candidate model could be scored."""


class EstimationFailureError(SurveyImputeError):
    """Point or variance estimation produced an unusable result."""
