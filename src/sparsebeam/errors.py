"""Exception types shared across the package."""


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
