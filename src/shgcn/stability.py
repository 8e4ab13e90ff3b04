"""Round-off probes for the origin exp/log maps on the Poincaré ball.

Measures, per precision mode: machine epsilon, the decimal-nines budget k
(how many digits of 1 - 10^-k survive before rounding collapses the value
to 1), the hyperbolic radius that budget buys, and the empirical tangent
norm at which the log0(exp0(v)) round trip falls apart.  Curvature is fixed
at c = 1 for all probes.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .geometry import exp0_array, log0_array, row_norms
from .precision import Precision, round_array, round_to_precision

PROBE_CURVATURE = 1.0
COLLAPSE_RELATIVE_ERROR = 0.5
SEARCH_LO = 0.1
SEARCH_HI = 64.0
SEARCH_RESOLUTION = 1e-3


@dataclasses.dataclass(frozen=True)
class ThresholdReport:
    mode: Precision
    epsilon: float
    max_k: int
    representable_radius: float
    collapse_threshold: float


def measure_epsilon(mode: Precision) -> float:
    """Smallest power of two p with round(1 + p) > 1 in the mode."""
    p = 1.0
    while round_to_precision(1.0 + p / 2.0, mode) > 1.0:
        p /= 2.0
    return p


def max_boundary_k(mode: Precision) -> int:
    """Decimal-nines budget: the k at which 10^-k drops below machine
    epsilon, so 1 - 10^-k is rounded onto 1 and the point onto the
    boundary.  (4 for half: 1e-4 < 2^-10 <= 1e-3.)"""
    eps = measure_epsilon(mode)
    k = 1
    while 10.0**-k >= eps:
        k += 1
    return k


def representable_radius(mode: Precision) -> float:
    """Distance-from-origin of the last faithfully representable shell,
    ln(10) * k + ln(2)."""
    return math.log(10.0) * max_boundary_k(mode) + math.log(2.0)


def roundtrip_residual(v, mode: Precision) -> float:
    """||log0(exp0(v)) - v|| / max(1, ||v||), forward ops rounded to mode.

    Returns inf when the round trip is undefined (the exponential landed on
    the boundary, or is NaN because the norm overflowed the mode), which
    counts as maximal collapse.  Raises ValueError for
    a non-finite v, whose residual would be NaN and read as no collapse.
    """
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"round trip of a non-finite vector: {v.tolist()}")
    return float(_residuals(v[None, :], mode)[0])


def _residuals(V: np.ndarray, mode: Precision) -> np.ndarray:
    """roundtrip_residual of each row of the finite 2-D array V."""
    Y = exp0_array(V, PROBE_CURVATURE, mode)
    # on or past the boundary once log0 rounds its argument (rounding is
    # monotone, so this catches every unrounded norm >= 1), or NaN
    ok = round_array(row_norms(Y), mode) < 1.0
    out = np.full(len(V), math.inf)
    W = log0_array(Y[ok], PROBE_CURVATURE, mode)
    out[ok] = row_norms(W - V[ok]) / np.maximum(1.0, row_norms(V[ok]))
    return out


COARSE_STEP = 0.05
BLOCK = 256  # coarse grid points scored per batched residual call


def _first_collapse(grid: np.ndarray, mode: Precision, d: np.ndarray) -> float | None:
    """The first grid norm whose round trip along d fails, or None."""
    for i in range(0, len(grid), BLOCK):
        block = grid[i:i + BLOCK]
        failed = np.flatnonzero(_residuals(block[:, None] * d, mode) >= COLLAPSE_RELATIVE_ERROR)
        if failed.size:
            return float(block[failed[0]])
    return None


def collapse_threshold(mode: Precision, direction=None) -> float:
    """Empirical search for the smallest ||v|| whose round trip fails:
    exp0(v) rounds onto/over the boundary, or the relative error reaches
    0.5.  Control flow runs in double; only forward geometry is rounded to
    the mode.  direction (default: the first axis of R^2) must be a
    non-empty, finite, nonzero vector, else ValueError.

    Along the canonical axis the failure set is a clean half-line; for
    rotated directions the component rounding makes failures flicker near
    the onset, so the search walks a coarse grid to bracket the first
    failure and then refines at the stated resolution, which keeps the
    reported value the smallest failing norm either way.  The coarse grid
    starts at SEARCH_LO, so a failure there refines back to it.  It is
    scored BLOCK points per batched call of exp0_array and log0_array, up
    to the first block with a failure; the fine grid (at most 51 points)
    is one call.  Every row gets a one-vector
    call's arithmetic bit for bit -- libm's tanh and atanh per row (numpy's
    differ in the last ulp on about one argument in six) and norms as
    stacked dot products (geometry.row_norms) -- so the result equals a
    point-by-point scan exactly.
    """
    if direction is None:
        d = np.zeros(2)
        d[0] = 1.0
    else:
        d = np.asarray(direction, dtype=np.float64).reshape(-1)
        norm = np.linalg.norm(d)
        if not 0.0 < norm < math.inf:
            raise ValueError(
                f"direction must be a non-empty, finite, nonzero vector, got {d.tolist()}"
            )
        d = d / norm
    coarse = np.arange(SEARCH_LO, SEARCH_HI + COARSE_STEP, COARSE_STEP)
    hit = _first_collapse(coarse, mode, d)
    if hit is None:
        return math.inf
    fine = np.arange(max(SEARCH_LO, hit - COARSE_STEP), hit + SEARCH_RESOLUTION,
                     SEARCH_RESOLUTION)
    x = _first_collapse(fine, mode, d)
    return hit if x is None else x


def threshold_report(mode: Precision) -> ThresholdReport:
    return ThresholdReport(
        mode=mode,
        epsilon=measure_epsilon(mode),
        max_k=max_boundary_k(mode),
        representable_radius=representable_radius(mode),
        collapse_threshold=collapse_threshold(mode),
    )


def all_threshold_reports() -> list[ThresholdReport]:
    return [threshold_report(mode) for mode in Precision]


def reports_to_csv(reports) -> str:
    lines = ["mode,epsilon,max_k,radius,threshold"]
    for r in reports:
        lines.append(
            f"{r.mode.value},{r.epsilon!r},{r.max_k},"
            f"{r.representable_radius:.6f},{r.collapse_threshold:.4f}"
        )
    return "\n".join(lines) + "\n"


def reports_to_text(reports) -> str:
    header = f"{'precision':<10} {'epsilon':>12} {'max k':>6} {'radius':>8} {'threshold':>10}"
    lines = [header, "-" * len(header)]
    for r in reports:
        lines.append(
            f"{r.mode.value:<10} {r.epsilon:>12.4e} {r.max_k:>6d} "
            f"{r.representable_radius:>8.2f} {r.collapse_threshold:>10.3f}"
        )
    return "\n".join(lines) + "\n"
