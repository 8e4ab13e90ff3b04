"""Closed-form Poincaré-ball and Lorentz-model operations.

The ball of curvature -c is {x : c * ||x||^2 < 1}.  All operations exist in
two flavors: array-level functions that take raw vectors plus a curvature
and a rounding mode (used by the stability prober, which needs to watch the
arithmetic degrade), and thin typed wrappers over PoincarePoint /
TangentVector / LorentzPoint for interactive use.  exp0_array and log0_array
are row-wise over the last axis: a single vector is their one-row case, and
each row of a block gets that case's arithmetic bit for bit.

Each array-level step -- norm, tanh, scalar product, vector scaling --
is computed in double and rounded to the active mode before the next step,
so a half-precision run behaves like a genuine float16 arithmetic system.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import BoundaryCollapseError, PrecisionOverflowError, ShapeError
from .precision import Precision, round_array

_DEFAULT_EPS = {
    Precision.HALF: 1e-3,
    Precision.SINGLE: 1e-5,
    Precision.DOUBLE: 1e-5,
}


def default_projection_eps(mode: Precision) -> float:
    """Boundary margin for projection; must exceed the mode's rounding gap
    just below 1 (2**-11 for half), else projected points re-collapse."""
    return _DEFAULT_EPS[mode]


# ---------------------------------------------------------------------------
# typed containers
# ---------------------------------------------------------------------------


def _as_vector(coords) -> np.ndarray:
    v = np.asarray(coords, dtype=np.float64).reshape(-1)
    if v.size == 0:
        raise ShapeError("empty coordinate vector")
    return v


@dataclasses.dataclass(frozen=True)
class PoincarePoint:
    """A point of the ball of curvature -c.  Collapsed (boundary) points are
    representable so the stability prober can observe them; every operation
    that needs the open ball raises BoundaryCollapseError on them."""

    coords: np.ndarray
    c: float

    def __post_init__(self):
        v = _as_vector(self.coords)
        object.__setattr__(self, "coords", v)
        if self.c < 0:
            raise ValueError(f"ball curvature parameter must be >= 0, got {self.c}")
        sq = self.c * float(v @ v)
        if sq > 1.0 + 1e-12:
            raise ValueError(f"point outside the ball: c*||x||^2 = {sq}")

    @property
    def dim(self) -> int:
        return self.coords.size


@dataclasses.dataclass(frozen=True)
class TangentVector:
    """A vector of the tangent space at the origin (plain R^n)."""

    coords: np.ndarray
    c: float

    def __post_init__(self):
        v = _as_vector(self.coords)
        object.__setattr__(self, "coords", v)
        if not np.all(np.isfinite(v)):
            raise ValueError("tangent vector must be finite")
        if self.c < 0:
            raise ValueError(f"ball curvature parameter must be >= 0, got {self.c}")

    @property
    def dim(self) -> int:
        return self.coords.size


@dataclasses.dataclass(frozen=True)
class LorentzPoint:
    """A point of the hyperboloid {<x,x>_L = -K, x0 > 0} in R^(d+1)."""

    coords: np.ndarray
    K: float

    def __post_init__(self):
        v = _as_vector(self.coords)
        object.__setattr__(self, "coords", v)
        if v.size < 2:
            raise ShapeError("Lorentz coordinates need at least 2 components")
        if self.K <= 0:
            raise ValueError(f"Lorentz curvature parameter must be > 0, got {self.K}")

    def validate(self) -> None:
        _check_membership(self, Precision.DOUBLE)
        if self.coords[0] <= 0:
            raise ValueError("first Lorentz coordinate must be positive")


def _check_pair(x, y):
    if x.dim != y.dim:
        raise ShapeError(f"dimension mismatch: {x.dim} vs {y.dim}")
    if x.c != y.c:
        raise ShapeError(f"curvature mismatch: {x.c} vs {y.c}")


# ---------------------------------------------------------------------------
# array-level core (mode-aware)
# ---------------------------------------------------------------------------


def _norm(v: np.ndarray, mode: Precision) -> float:
    return float(round_array(np.linalg.norm(v), mode))


def mobius_add_array(x, y, c: float, mode: Precision = Precision.DOUBLE) -> np.ndarray:
    """Gyrovector addition on the ball, evaluated exactly as written:

        ((1 + 2c<x,y> + c||y||^2) x + (1 - c||x||^2) y)
        / (1 + 2c<x,y> + c^2 ||x||^2 ||y||^2)

    c = 0 reduces to Euclidean addition.  The result is re-projected just
    inside the ball if rounding pushed it onto or past the boundary.
    """
    r = lambda a: round_array(a, mode)
    x = r(np.asarray(x, dtype=np.float64))
    y = r(np.asarray(y, dtype=np.float64))
    xy = float(r(x @ y))
    x2 = float(r(x @ x))
    y2 = float(r(y @ y))
    ax = float(r(1.0 + r(2.0 * c * xy) + r(c * y2)))
    ay = float(r(1.0 - r(c * x2)))
    num = r(r(ax * x) + r(ay * y))
    den = float(r(1.0 + r(2.0 * c * xy) + r(c * c * x2 * y2)))
    out = r(num / den)
    if c > 0.0:
        s = math.sqrt(c)
        if s * _norm(out, mode) >= 1.0:
            out = project_array(out, c, default_projection_eps(mode), mode)
    return out


def row_norms(V: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D array, bit for bit np.linalg.norm
    of the row: a stacked dot product over contiguous rows (a row sum of
    squares, einsum or a strided row each round differently)."""
    V = np.ascontiguousarray(V)
    return np.sqrt((V[:, None, :] @ V[:, :, None])[:, 0, 0])


def _rows(v, c: float, mode: Precision):
    """The rounded input, its rows, and each row's rounded n = ||row|| and sqrt(c) * n."""
    v = round_array(np.atleast_1d(np.asarray(v, dtype=np.float64)), mode)
    V = v.reshape(math.prod(v.shape[:-1]), v.shape[-1])
    n = round_array(row_norms(V), mode)
    return v, V, n, round_array(math.sqrt(c) * n, mode)


def _by_continuity(out, V, n, arg) -> np.ndarray:
    """out, but a zero row at the origin and a row with arg == 0 (c == 0) unchanged."""
    return np.where((n == 0.0)[:, None], 0.0, np.where((arg == 0.0)[:, None], V, out))


def exp0_array(v, c: float, mode: Precision = Precision.DOUBLE) -> np.ndarray:
    """Exponential map at the origin, row-wise over the last axis:
    tanh(sqrt(c)||v||) v / (sqrt(c)||v||), a single vector being one row.

    v = 0 maps to the origin by continuity; c = 0 degenerates to the
    identity.  No projection is applied here -- in low precision the output
    can land exactly on the boundary, which is the collapse the stability
    module measures.
    """
    r = lambda a: round_array(a, mode)
    v, V, n, arg = _rows(v, c, mode)
    t = r(np.array([math.tanh(a) for a in arg]))
    # group as t * (v / arg): the direction factor divides exactly for
    # axis-aligned v, so the boundary is hit exactly when tanh rounds to 1
    with np.errstate(divide="ignore", invalid="ignore"):
        out = r(t[:, None] * r(V / arg[:, None]))
    return _by_continuity(out, V, n, arg).reshape(v.shape)


def log0_array(y, c: float, mode: Precision = Precision.DOUBLE) -> np.ndarray:
    """Logarithmic map at the origin, row-wise over the last axis:
    arctanh(sqrt(c)||y||) y / (sqrt(c)||y||), a single vector being one row.

    Raises BoundaryCollapseError when sqrt(c)||y|| >= 1 in any row: the
    point has been rounded onto (or past) the boundary and the map is
    undefined there.
    """
    r = lambda a: round_array(a, mode)
    y, Y, n, arg = _rows(y, c, mode)
    collapsed = arg[(n != 0.0) & (arg >= 1.0)]
    if collapsed.size:
        raise BoundaryCollapseError(
            f"log0 undefined: sqrt(c)*||y|| = {collapsed[0]} >= 1 (boundary collapse)"
        )
    a = r(np.array([math.atanh(x) for x in arg]))
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = r(a / arg)
    return _by_continuity(r(Y * coef[:, None]), Y, n, arg).reshape(y.shape)


def project_array(x, c: float, eps: float, mode: Precision = Precision.DOUBLE) -> np.ndarray:
    """Conditionally clip x into the ball: points with sqrt(c)||x|| >= 1-eps
    are rescaled to norm (1-eps)/sqrt(c); interior points pass unchanged."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    r = lambda a: round_array(a, mode)
    x = r(np.asarray(x, dtype=np.float64))
    if c <= 0.0:
        return x
    n = _norm(x, mode)
    s = math.sqrt(c)
    if s * n < 1.0 - eps:
        return x
    delta = (1.0 - eps) / s
    return r(x * float(r(delta / n)))


def poincare_dist_array(x, y, c: float, mode: Precision = Precision.DOUBLE) -> float:
    """Geodesic distance (2/sqrt(c)) arctanh(sqrt(c) ||(-x) + y||_mobius)."""
    if c <= 0.0:
        raise ValueError("distance needs strictly positive curvature parameter")
    r = lambda a: round_array(a, mode)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m = mobius_add_array(-x, y, c, mode)
    s = math.sqrt(c)
    arg = float(r(s * _norm(m, mode)))
    if arg >= 1.0:
        raise BoundaryCollapseError(
            f"distance undefined: sqrt(c)*||(-x) (+) y|| = {arg} >= 1"
        )
    return float(r(2.0 / s * float(r(math.atanh(arg)))))


# ---------------------------------------------------------------------------
# typed wrappers
# ---------------------------------------------------------------------------


def mobius_add(x: PoincarePoint, y: PoincarePoint, mode: Precision = Precision.DOUBLE) -> PoincarePoint:
    _check_pair(x, y)
    return PoincarePoint(mobius_add_array(x.coords, y.coords, x.c, mode), x.c)


def exp0(v: TangentVector, mode: Precision = Precision.DOUBLE) -> PoincarePoint:
    return PoincarePoint(exp0_array(v.coords, v.c, mode), v.c)


def log0(y: PoincarePoint, mode: Precision = Precision.DOUBLE) -> TangentVector:
    return TangentVector(log0_array(y.coords, y.c, mode), y.c)


def poincare_dist(x: PoincarePoint, y: PoincarePoint, mode: Precision = Precision.DOUBLE) -> float:
    _check_pair(x, y)
    return poincare_dist_array(x.coords, y.coords, x.c, mode)


def mobius_matvec(M, x: PoincarePoint, mode: Precision = Precision.DOUBLE) -> PoincarePoint:
    """exp0(M log0(x)); M log0(x) = 0 returns the origin, matching the
    scalar-multiplication convention r (x) 0 = 0."""
    M = np.atleast_2d(np.asarray(M, dtype=np.float64))
    if M.shape[1] != x.dim:
        raise ShapeError(f"matrix columns {M.shape[1]} != point dimension {x.dim}")
    u = round_array(M @ log0_array(x.coords, x.c, mode), mode)
    return PoincarePoint(exp0_array(u, x.c, mode), x.c)


def mobius_scalar_mul(rfac: float, x: PoincarePoint, mode: Precision = Precision.DOUBLE) -> PoincarePoint:
    """r (x) x as the special case M = r*I of mobius_matvec."""
    return mobius_matvec(rfac * np.eye(x.dim), x, mode)


def project(x, c: float, eps: float | None = None, mode: Precision = Precision.DOUBLE) -> PoincarePoint:
    if eps is None:
        eps = default_projection_eps(mode)
    return PoincarePoint(project_array(x, c, eps, mode), c)


# ---------------------------------------------------------------------------
# Lorentz model
# ---------------------------------------------------------------------------


def minkowski_inner(x, y, mode: Precision = Precision.DOUBLE) -> float:
    """-x0*y0 + x1*y1 + ... + xn*yn, with products rounded to the mode."""
    r = lambda a: round_array(a, mode)
    x = r(np.asarray(x, dtype=np.float64))
    y = r(np.asarray(y, dtype=np.float64))
    if x.shape != y.shape:
        raise ShapeError(f"shape mismatch: {x.shape} vs {y.shape}")
    with np.errstate(invalid="ignore", over="ignore"):
        prods = r(x * y)
        # sum() counts prods[0] once with a plus sign; subtracting it twice
        # flips exactly that term, giving -x0*y0 + x1*y1 + ...
        return float(r(-2.0 * prods[0] + prods.sum()))


def _check_membership(x: LorentzPoint, mode: Precision) -> None:
    """Raise unless |<x,x>_L + K| <= K max(1e-9, 64 eps max(1, x0^2/K)), eps
    the mode's rounding unit: the self-product cancels terms of size x0^2.  A
    saturated product (in half the squares overflow long before x0) is a collapse."""
    inner = minkowski_inner(x.coords, x.coords, mode)
    if not math.isfinite(inner):
        raise PrecisionOverflowError(
            "Minkowski self-product saturated under the active rounding mode"
        )
    tol = max(1e-9, 64.0 * mode.epsilon * max(1.0, float(x.coords[0]) ** 2 / x.K))
    if abs(inner + x.K) > tol * x.K:
        raise ValueError(f"not a hyperboloid point: <x,x>_L = {inner}")


def lorentz_exp0_array(v, K: float, mode: Precision = Precision.DOUBLE) -> np.ndarray:
    """Exponential map at the north pole (sqrt(K), 0, ..., 0):

        ( sqrt(K) cosh(||v||/sqrt(K)),
          sqrt(K) sinh(||v||/sqrt(K)) v/||v|| )

    for v interpreted as (0, v) in the tangent space at the pole.
    """
    if K <= 0:
        raise ValueError("K must be positive")
    r = lambda a: round_array(a, mode)
    v = r(np.asarray(v, dtype=np.float64).reshape(-1))
    sK = math.sqrt(K)
    out = np.zeros(v.size + 1)
    n = _norm(v, mode)
    if n == 0.0:
        out[0] = float(r(sK))
        return out
    arg = float(r(n / sK))
    out[0] = float(r(sK * math.cosh(arg)))
    coef = float(r(float(r(sK * math.sinh(arg))) / n))
    out[1:] = r(v * coef)
    return out


def lorentz_exp0(v, K: float = 1.0, mode: Precision = Precision.DOUBLE) -> LorentzPoint:
    return LorentzPoint(lorentz_exp0_array(v, K, mode), K)


def lorentz_dist0(x: LorentzPoint, mode: Precision = Precision.DOUBLE) -> float:
    """arccosh(-<o, x>_L) = arccosh(x0), the distance from the north pole o
    in the K = 1 convention.  Checks hyperboloid membership in the active
    mode first."""
    if x.K != 1.0:
        raise ValueError("distance-from-origin probe uses the K = 1 convention")
    _check_membership(x, mode)
    arg = float(round_array(x.coords[0], mode))
    if arg < 1.0 - 1e-9:
        raise ValueError(f"arccosh argument {arg} < 1")
    return float(round_array(math.acosh(max(arg, 1.0)), mode))
