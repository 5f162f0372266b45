"""Exception types shared across the library."""


class IntflowError(Exception):
    """Base class for all library errors."""


class ShapeError(IntflowError, ValueError):
    """Incompatible tensor shapes or axes."""


class LaneOverflowError(IntflowError, ArithmeticError):
    """An integer payload would exceed the wide accumulator lane."""


class ScaleRangeError(IntflowError, ValueError):
    """A scale is not a finite positive float, e.g. a product of scales
    overflowed to inf or underflowed to 0."""


class PrecisionError(IntflowError, ValueError):
    """A payload violates the logical bit-precision contract."""


class ValidationError(IntflowError, ValueError):
    """Invalid user-facing configuration or file contents."""


class WorkspaceError(IntflowError, RuntimeError):
    """An array handed back to a workspace that cannot reuse it (read-only)."""
