import math

import numpy as np
import pytest

from shgcn.errors import BoundaryCollapseError
from shgcn.geometry import exp0_array, log0_array
from shgcn.precision import Precision, round_array
from shgcn.stability import (
    COARSE_STEP,
    COLLAPSE_RELATIVE_ERROR,
    PROBE_CURVATURE,
    SEARCH_HI,
    SEARCH_LO,
    SEARCH_RESOLUTION,
    all_threshold_reports,
    collapse_threshold,
    max_boundary_k,
    measure_epsilon,
    representable_radius,
    reports_to_csv,
    reports_to_text,
    roundtrip_residual,
    threshold_report,
)

HALF, SINGLE, DOUBLE = Precision.HALF, Precision.SINGLE, Precision.DOUBLE


def test_epsilon_half():
    assert measure_epsilon(HALF) == 2.0**-10
    assert measure_epsilon(HALF) == 9.765625e-4


def test_epsilon_single_double():
    assert measure_epsilon(SINGLE) == 2.0**-23
    assert measure_epsilon(DOUBLE) == 2.0**-52


def test_max_k_half_is_four():
    assert max_boundary_k(HALF) == 4


def test_max_k_single():
    assert max_boundary_k(SINGLE) == 7


def test_max_k_double():
    # 1e-16 < 2^-52 <= 1e-15, so the crossover sits at k = 16
    assert max_boundary_k(DOUBLE) == 16


def test_radius_half_near_ten():
    assert abs(representable_radius(HALF) - 9.903) < 0.01


def test_radius_single():
    assert abs(representable_radius(SINGLE) - 16.81) < 0.01


@pytest.mark.parametrize(
    "mode,expected",
    [(HALF, 5.0), (SINGLE, 9.0), (DOUBLE, 19.0)],
)
def test_collapse_thresholds_match_published_table(mode, expected):
    assert abs(collapse_threshold(mode) - expected) <= 0.5


def test_residual_deep_interior_double():
    assert roundtrip_residual(np.array([1.0, 0.0]), DOUBLE) < 1e-12


def test_residual_half_at_unit_norm():
    assert roundtrip_residual(np.array([1.0, 0.0]), HALF) < 1e-2


def test_residual_half_collapses_at_six():
    assert roundtrip_residual(np.array([6.0, 0.0]), HALF) >= 0.5


@pytest.mark.parametrize("norm", [65504.0, 65520.0, 1e5, 1e9])
def test_residual_half_past_the_format_range_is_a_collapse(norm):
    # a norm that rounds to inf in half makes exp0 NaN; that must read as
    # collapse (inf), never as a NaN that compares below the threshold
    assert roundtrip_residual(np.array([norm, 0.0]), HALF) == math.inf


@pytest.mark.parametrize("mode", list(Precision))
def test_residual_monotone_past_threshold(mode):
    t = collapse_threshold(mode)
    grid = np.linspace(t + 0.05, min(t * 2, 60.0), 25)
    prev = -1.0
    for norm in grid:
        res = roundtrip_residual(np.array([norm, 0.0]), mode)
        assert res >= prev or math.isinf(res)
        prev = min(res, 1e300)


@pytest.mark.parametrize("mode", list(Precision))
def test_threshold_below_half_radius_plus_one(mode):
    assert collapse_threshold(mode) <= representable_radius(mode) / 2.0 + 1.0


def test_analytic_threshold_formula_is_half_radius():
    # artanh(sqrt((cosh r0 - 1)/(cosh r0 + 1))) = r0/2 (identity); evaluate
    # where cosh does not overflow the fraction to 1
    for r0 in (2.0, 9.9, 16.8):
        analytic = math.atanh(math.sqrt((math.cosh(r0) - 1.0) / (math.cosh(r0) + 1.0)))
        assert abs(analytic - r0 / 2.0) < 1e-9


@pytest.mark.parametrize("mode", list(Precision))
def test_threshold_tracks_half_radius(mode):
    # the empirical threshold lands within ten percent of r0/2 (see the
    # ledger: five percent is not achievable for binary16 with these
    # definitions; the measured gap there is nine percent)
    r0 = representable_radius(mode)
    assert abs(collapse_threshold(mode) - r0 / 2.0) <= 0.10 * (r0 / 2.0)


def test_threshold_rotation_invariance():
    rng = np.random.default_rng(17)
    base = collapse_threshold(HALF)
    for _ in range(10):
        d = rng.standard_normal(3)
        t = collapse_threshold(HALF, direction=d)
        assert abs(t - base) <= 0.5


def test_report_and_tables():
    reports = all_threshold_reports()
    csv = reports_to_csv(reports)
    assert csv.splitlines()[0] == "mode,epsilon,max_k,radius,threshold"
    assert len(csv.splitlines()) == 4
    text = reports_to_text(reports)
    for mode in Precision:
        assert mode.value in text
    rep = threshold_report(HALF)
    assert rep.max_k == 4
    assert abs(rep.collapse_threshold - 5.0) <= 0.5


# ---------------------------------------------------------------------------
# exact-equality oracle: the per-vector kernels and the point-by-point scan
# that the row-wise kernels and the block scan replaced, kept verbatim
# ---------------------------------------------------------------------------

def _norm(v: np.ndarray, mode: Precision) -> float:
    return float(round_array(np.linalg.norm(v), mode))


def ref_exp0_array(v, c: float, mode: Precision = Precision.DOUBLE) -> np.ndarray:
    r = lambda a: round_array(a, mode)
    v = r(np.asarray(v, dtype=np.float64))
    n = _norm(v, mode)
    if n == 0.0:
        return np.zeros_like(v)
    arg = float(r(math.sqrt(c) * n))
    if arg == 0.0:  # c == 0
        return v
    t = float(r(math.tanh(arg)))
    return r(t * r(v / arg))


def ref_log0_array(y, c: float, mode: Precision = Precision.DOUBLE) -> np.ndarray:
    r = lambda a: round_array(a, mode)
    y = r(np.asarray(y, dtype=np.float64))
    n = _norm(y, mode)
    if n == 0.0:
        return np.zeros_like(y)
    arg = float(r(math.sqrt(c) * n))
    if arg == 0.0:
        return y
    if arg >= 1.0:
        raise BoundaryCollapseError(
            f"log0 undefined: sqrt(c)*||y|| = {arg} >= 1 (boundary collapse)"
        )
    a = float(r(math.atanh(arg)))
    coef = float(r(a / arg))
    return r(y * coef)


def ref_roundtrip_residual(v, mode: Precision, c: float = PROBE_CURVATURE) -> float:
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    y = ref_exp0_array(v, c, mode)
    if math.sqrt(c) * float(np.linalg.norm(y)) >= 1.0:
        return math.inf
    try:
        w = ref_log0_array(y, c, mode)
    except BoundaryCollapseError:
        return math.inf
    return float(np.linalg.norm(w - v) / max(1.0, np.linalg.norm(v)))


def _ref_collapses(norm: float, mode: Precision, direction: np.ndarray) -> bool:
    return ref_roundtrip_residual(norm * direction, mode) >= COLLAPSE_RELATIVE_ERROR


def ref_collapse_threshold(mode: Precision, direction=None) -> float:
    if direction is None:
        d = np.zeros(2)
        d[0] = 1.0
    else:
        d = np.asarray(direction, dtype=np.float64).reshape(-1)
        d = d / np.linalg.norm(d)
    if _ref_collapses(SEARCH_LO, mode, d):
        return SEARCH_LO
    coarse = np.arange(SEARCH_LO, SEARCH_HI + COARSE_STEP, COARSE_STEP)
    hit = None
    for x in coarse:
        if _ref_collapses(float(x), mode, d):
            hit = float(x)
            break
    if hit is None:
        return math.inf
    fine = np.arange(max(SEARCH_LO, hit - COARSE_STEP), hit + SEARCH_RESOLUTION,
                     SEARCH_RESOLUTION)
    for x in fine:
        if _ref_collapses(float(x), mode, d):
            return float(x)
    return hit


def _oracle_directions(dim: int) -> list:
    rng = np.random.default_rng(1000 + dim)
    axis = np.zeros(dim)
    axis[0] = 1.0
    return [axis] + [rng.standard_normal(dim) for _ in range(20)]


@pytest.mark.parametrize("dim", [2, 3, 16])
@pytest.mark.parametrize("mode", list(Precision))
def test_thresholds_equal_the_point_by_point_scan(mode, dim):
    for d in _oracle_directions(dim):
        assert collapse_threshold(mode, d) == ref_collapse_threshold(mode, d)
    assert collapse_threshold(mode) == ref_collapse_threshold(mode)


@pytest.mark.parametrize("mode", list(Precision))
def test_failure_at_search_lo_refines_back_to_search_lo(mode, monkeypatch):
    # every residual is >= 0, so every norm fails and the first, SEARCH_LO, wins
    monkeypatch.setattr("shgcn.stability.COLLAPSE_RELATIVE_ERROR", 0.0)
    assert collapse_threshold(mode) == SEARCH_LO
    assert collapse_threshold(mode, [1.0, -2.0, 3.0]) == SEARCH_LO


@pytest.mark.parametrize("mode", list(Precision))
def test_residuals_equal_the_per_vector_round_trip(mode):
    # every 7th coarse norm up to 40, past each mode's threshold, so the
    # collapsed (inf) rows are compared too
    norms = np.arange(SEARCH_LO, 40.0, COARSE_STEP)[::7]
    seen_inf = False
    for dim in (2, 3, 16):
        for d in _oracle_directions(dim)[:4]:
            d = d / np.linalg.norm(d)
            for x in norms:
                got = roundtrip_residual(float(x) * d, mode)
                assert got == ref_roundtrip_residual(float(x) * d, mode)
                seen_inf |= math.isinf(got)
    assert seen_inf


@pytest.mark.parametrize("c", [0.0, 0.7, 1.0])
@pytest.mark.parametrize("mode", list(Precision))
def test_row_wise_maps_equal_one_row_calls(mode, c):
    rng = np.random.default_rng(5)
    V = rng.standard_normal((12, 5))
    # norms up to 2.5, which no mode rounds onto the boundary
    V *= np.linspace(0.01, 2.5, 12)[:, None] / np.linalg.norm(V, axis=1)[:, None]
    V[3] = 0.0
    Y = exp0_array(V, c, mode)
    assert Y.shape == V.shape
    for v, y in zip(V, Y):
        assert np.array_equal(y, ref_exp0_array(v, c, mode))
        assert np.array_equal(exp0_array(v, c, mode), ref_exp0_array(v, c, mode))
    W = log0_array(Y, c, mode)
    for y, w in zip(Y, W):
        assert np.array_equal(w, ref_log0_array(y, c, mode))
        assert np.array_equal(log0_array(y, c, mode), ref_log0_array(y, c, mode))
    # a scalar is a one-component vector
    assert exp0_array(-0.8, c, mode)[0] == ref_exp0_array(-0.8, c, mode)
    assert log0_array(0.6, c, mode)[0] == ref_log0_array(0.6, c, mode)


@pytest.mark.parametrize("mode", list(Precision))
def test_log0_raises_when_one_row_has_collapsed(mode):
    Y = np.array([[0.1, 0.2], [0.0, 0.0], [1.0, 0.0], [0.3, -0.4]])
    with pytest.raises(BoundaryCollapseError):
        log0_array(Y, 1.0, mode)
    assert np.array_equal(log0_array(Y[[0, 1, 3]], 1.0, mode),
                          np.array([ref_log0_array(y, 1.0, mode) for y in Y[[0, 1, 3]]]))


@pytest.mark.parametrize("direction", [[0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0], []],
                         ids=["zero", "nan", "inf", "empty"])
@pytest.mark.filterwarnings("error")
def test_bad_direction_raises(direction):
    with pytest.raises(ValueError, match="direction"):
        collapse_threshold(HALF, direction)


@pytest.mark.parametrize("v", [[np.nan, 1.0], [np.inf, 0.0], [-np.inf, 2.0]],
                         ids=["nan", "inf", "-inf"])
def test_residual_of_non_finite_vector_raises(v):
    with pytest.raises(ValueError, match="non-finite"):
        roundtrip_residual(v, HALF)
