"""Exception types, and the count check, shared across the package."""

import numpy as np


class SingularChannelError(ValueError):
    """Channel Gram matrix is singular or too ill-conditioned to invert.

    `singular` is a boolean array over the leading (stack) axes of the
    channel that marks the offending entries; 0-d for a single matrix.
    """

    def __init__(self, message: str, singular=None):
        super().__init__(message)
        self.singular = singular


class ResourceLimitError(RuntimeError):
    """A configured size cap (token count, BFS node count) was exceeded."""


def _check_count(name: str, value, low: int) -> None:
    """Raise `ValueError` naming `name` unless `value` is a non-bool
    integer (Python or numpy) >= `low`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _check_real(name: str, value) -> None:
    """Raise `ValueError` naming `name` unless `value` is a non-bool
    real number (Python or numpy): a numeric string is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
