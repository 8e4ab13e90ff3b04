"""Floating-point precision emulation.

Every computation in this package runs in native float64; a Precision mode
says how results get rounded afterwards.  Rounding one operation at a time
(compute in double, round the result) emulates an arithmetic system of the
target format without needing native half-precision hardware.
"""

from __future__ import annotations

import enum

import numpy as np


class Precision(enum.Enum):
    """IEEE-754 binary16 / binary32 / binary64 rounding semantics."""

    HALF = "half"
    SINGLE = "single"
    DOUBLE = "double"

    @property
    def dtype(self):
        return _DTYPES[self]

    @property
    def epsilon(self) -> float:
        """Machine epsilon: 2**-10, 2**-23, 2**-52."""
        return float(np.finfo(self.dtype).eps)


_DTYPES = {
    Precision.HALF: np.float16,
    Precision.SINGLE: np.float32,
    Precision.DOUBLE: np.float64,
}


def round_array(x: np.ndarray, mode: Precision) -> np.ndarray:
    """Round every entry of x to the nearest representable value of mode.

    Uses round-to-nearest-even via a dtype round trip.  Overflow saturates to
    the format's infinity; NaN passes through.  Output is always float64.
    """
    x = np.asarray(x, dtype=np.float64)
    if mode is Precision.DOUBLE:
        return x
    with np.errstate(over="ignore"):
        return x.astype(mode.dtype).astype(np.float64)


def round_to_precision(x: float, mode: Precision) -> float:
    """Scalar version of round_array."""
    return float(round_array(np.asarray(x), mode))
