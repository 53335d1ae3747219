"""Exception types shared across the package."""


class LingameError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(LingameError, ValueError):
    """An object (game, strategy, behavior, file) failed validation."""


class GameFormatError(ValidationError):
    """A game, strategy, or function file violated its schema.

    The message carries the offending field path, e.g.
    ``distribution.table[3].p``.
    """


class ShapeError(LingameError, ValueError):
    """Matrix or tensor dimensions do not line up."""


class ResourceLimitError(LingameError):
    """An enumeration would exceed the configured cap.

    Attributes:
        required: the number of cases the full enumeration needs.
        cap: the configured limit it would exceed.
    """

    def __init__(self, message, required=None, cap=None):
        super().__init__(message)
        self.required = required
        self.cap = cap


class NoThresholdError(LingameError):
    """A visibility threshold does not exist (strategy beats nothing)."""
