"""Exception hierarchy shared across the package."""


class TapgenError(Exception):
    """Base class for all package errors."""


class InvalidInputError(TapgenError, ValueError):
    """An argument violates an operation's precondition."""


class ConfigError(TapgenError, ValueError):
    """Incompatible dimensions or inconsistent configuration."""


class TensorFormatError(TapgenError, ValueError):
    """Malformed binary tensor file (bad magic, truncation, bad payload)."""


class ManifestValidationError(TapgenError, ValueError):
    """Manifest JSON violates the schema; message names the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")

    def __reduce__(self):  # picklable, so pool workers can report it
        return type(self), (self.path, self.message)


class DataError(TapgenError, RuntimeError):
    """A referenced input artifact is missing or unreadable."""


class DegenerateLabelsError(TapgenError, ValueError):
    """Weighted binary loss requested with no positives or no negatives."""


class UndefinedMetricError(TapgenError, ValueError):
    """Metric requested over an empty ground-truth set."""
