"""Shared exception types."""


class ShapeError(ValueError):
    """Operand shapes or modes are inconsistent with the operation."""


class BoundaryCollapseError(ValueError):
    """A ball point landed on or beyond the unit boundary, so the origin
    logarithm (and anything downstream) is undefined."""


class PrecisionOverflowError(BoundaryCollapseError):
    """A finite quantity saturated to infinity under the active rounding mode."""


class NonFiniteError(ValueError):
    """Training produced a non-finite loss or parameter."""
