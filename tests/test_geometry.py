import math

import numpy as np
import pytest

from shgcn.errors import BoundaryCollapseError, PrecisionOverflowError, ShapeError
from shgcn.geometry import (
    LorentzPoint,
    PoincarePoint,
    TangentVector,
    exp0,
    exp0_array,
    log0,
    log0_array,
    lorentz_dist0,
    lorentz_exp0,
    lorentz_exp0_array,
    minkowski_inner,
    mobius_add,
    mobius_add_array,
    mobius_matvec,
    mobius_scalar_mul,
    poincare_dist,
    project,
    project_array,
    row_norms,
)
from shgcn.precision import Precision, round_array

HALF = Precision.HALF


def random_interior(rng, dim, c):
    """Uniform-direction point with norm safely inside the ball."""
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    radius = rng.uniform(0.0, 0.95) / math.sqrt(c)
    return v * radius


# ---------------------------------------------------------------------------
# Möbius addition
# ---------------------------------------------------------------------------


def test_mobius_identity_element():
    x = PoincarePoint([0.3, -0.2], 1.0)
    zero = PoincarePoint([0.0, 0.0], 1.0)
    assert np.allclose(mobius_add(x, zero).coords, x.coords, atol=1e-15)


def test_mobius_euclidean_reduction_at_zero_curvature():
    out = mobius_add_array([0.3, 0.4], [0.1, -0.2], c=0.0)
    assert np.allclose(out, [0.4, 0.2], atol=1e-15)


def test_mobius_exact_rational_case():
    x = PoincarePoint([0.5, 0.0], 1.0)
    out = mobius_add(x, x)
    assert np.allclose(out.coords, [0.8, 0.0], atol=1e-15)


def test_mobius_mismatch_errors():
    x = PoincarePoint([0.1, 0.1], 1.0)
    with pytest.raises(ShapeError):
        mobius_add(x, PoincarePoint([0.1, 0.1, 0.1], 1.0))
    with pytest.raises(ShapeError):
        mobius_add(x, PoincarePoint([0.1, 0.1], 2.0))


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_mobius_left_identity_left_inverse_closure(c):
    rng = np.random.default_rng(11)
    for _ in range(1000):
        x = random_interior(rng, 3, c)
        zero = np.zeros(3)
        assert np.allclose(mobius_add_array(zero, x, c), x, atol=1e-9)
        assert np.allclose(mobius_add_array(-x, x, c), zero, atol=1e-9)
        y = random_interior(rng, 3, c)
        out = mobius_add_array(x, y, c)
        assert c * float(out @ out) < 1.0


# ---------------------------------------------------------------------------
# exp0 / log0
# ---------------------------------------------------------------------------


def test_exp0_zero_maps_to_origin():
    assert np.array_equal(exp0(TangentVector([0.0, 0.0], 1.0)).coords, [0.0, 0.0])


def test_exp0_unit_vector():
    out = exp0(TangentVector([1.0, 0.0], 1.0))
    assert np.allclose(out.coords, [math.tanh(1.0), 0.0], atol=1e-15)


def test_exp0_collapses_past_threshold_in_half():
    out = exp0_array([5.5, 0.0], 1.0, HALF)
    assert np.linalg.norm(out) >= 1.0
    with pytest.raises(BoundaryCollapseError):
        log0_array(out, 1.0, HALF)


def test_log0_origin_maps_to_zero():
    assert np.array_equal(log0(PoincarePoint([0.0, 0.0], 1.0)).coords, [0.0, 0.0])


def test_log0_inverts_exp0():
    v = TangentVector([0.5, -0.25], 1.0)
    back = log0(exp0(v))
    assert np.allclose(back.coords, v.coords, rtol=1e-12, atol=1e-15)


def test_log0_direct_value():
    out = log0(PoincarePoint([0.8, 0.0], 1.0))
    assert np.allclose(out.coords, [np.arctanh(0.8), 0.0], atol=1e-15)
    assert abs(out.coords[0] - 1.0986122886681098) < 1e-12


def test_log0_boundary_domain_error():
    with pytest.raises(BoundaryCollapseError):
        log0_array([1.0, 0.0], 1.0)


def test_roundtrip_envelope_double():
    # quantizing the ball coordinate near the boundary limits how well the
    # round trip can recover v: rel 1e-9 holds to norm ~9.5, rel 1e-4 to 15
    rng = np.random.default_rng(7)
    for _ in range(300):
        d = rng.integers(2, 8)
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        lo = u * rng.uniform(1e-3, 9.5)
        back = log0_array(exp0_array(lo, 1.0), 1.0)
        assert np.linalg.norm(back - lo) / np.linalg.norm(lo) < 1e-9
        hi = u * rng.uniform(9.5, 15.0)
        back = log0_array(exp0_array(hi, 1.0), 1.0)
        assert np.linalg.norm(back - hi) / np.linalg.norm(hi) < 1e-4


def test_roundtrip_violated_in_half_past_threshold():
    rng = np.random.default_rng(8)
    for _ in range(50):
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        v = u * rng.uniform(5.01, 15.0)
        y = exp0_array(v, 1.0, HALF)
        try:
            back = log0_array(y, 1.0, HALF)
        except BoundaryCollapseError:
            continue  # strongest violation: the round trip does not exist
        assert np.linalg.norm(back - v) / np.linalg.norm(v) > 1e-2


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------


def test_distance_to_self_is_zero():
    x = PoincarePoint([0.3, 0.1], 1.0)
    assert poincare_dist(x, x) == 0.0


def test_distance_origin_to_099():
    d = poincare_dist(PoincarePoint([0.0, 0.0], 1.0), PoincarePoint([0.99, 0.0], 1.0))
    assert abs(d - math.log(199.0)) < 1e-12


def test_distance_matches_boundary_expansion():
    # ||x|| = 1 - 1e-4 sits at distance 4 ln 10 + ln 2 + O(1e-4)
    x = PoincarePoint([1.0 - 1e-4, 0.0], 1.0)
    origin = PoincarePoint([0.0, 0.0], 1.0)
    assert abs(poincare_dist(origin, x) - (4 * math.log(10) + math.log(2))) < 1e-3


def test_distance_symmetry_and_identity():
    rng = np.random.default_rng(5)
    origin = np.zeros(3)
    for _ in range(200):
        a = random_interior(rng, 3, 1.0)
        b = random_interior(rng, 3, 1.0)
        pa, pb = PoincarePoint(a, 1.0), PoincarePoint(b, 1.0)
        assert abs(poincare_dist(pa, pb) - poincare_dist(pb, pa)) < 1e-9
        if not np.allclose(a, b):
            assert poincare_dist(pa, pb) > 0.0


# ---------------------------------------------------------------------------
# Möbius matrix-vector action
# ---------------------------------------------------------------------------


def test_matvec_identity():
    x = PoincarePoint([0.3, -0.4], 1.0)
    assert np.allclose(mobius_matvec(np.eye(2), x).coords, x.coords, rtol=1e-12)


def test_scalar_one_is_identity():
    x = PoincarePoint([0.2, 0.5], 1.0)
    assert np.allclose(mobius_scalar_mul(1.0, x).coords, x.coords, rtol=1e-12)


def test_matvec_doubling():
    x = PoincarePoint([math.tanh(0.5), 0.0], 1.0)
    out = mobius_matvec(2.0 * np.eye(2), x)
    assert np.allclose(out.coords, [math.tanh(1.0), 0.0], rtol=1e-12)


def test_matvec_zero_returns_origin():
    x = PoincarePoint([0.3, 0.0], 1.0)
    out = mobius_matvec(np.zeros((2, 2)), x)
    assert np.array_equal(out.coords, [0.0, 0.0])


def test_matvec_dimension_error():
    with pytest.raises(ShapeError):
        mobius_matvec(np.eye(3), PoincarePoint([0.1, 0.1], 1.0))


def test_matvec_composition_compatibility():
    rng = np.random.default_rng(21)
    for _ in range(100):
        m1 = rng.uniform(-0.8, 0.8, (3, 3))
        m2 = rng.uniform(-0.8, 0.8, (3, 3))
        x = PoincarePoint(random_interior(rng, 3, 1.0) * 0.5, 1.0)
        via_two = mobius_matvec(m2, mobius_matvec(m1, x))
        direct = mobius_matvec(m2 @ m1, x)
        assert np.allclose(via_two.coords, direct.coords, atol=1e-7)


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def test_project_interior_unchanged():
    out = project([0.5, 0.0], 1.0, eps=1e-5)
    assert np.array_equal(out.coords, [0.5, 0.0])


def test_project_rescales_outside():
    out = project([2.0, 0.0], 1.0, eps=1e-5)
    assert np.allclose(out.coords, [0.99999, 0.0], atol=1e-12)


def test_project_boundary_of_clip_region_unchanged():
    delta = 1.0 - 1e-5
    out = project_array([delta, 0.0], 1.0, 1e-5)
    assert np.allclose(out, [delta, 0.0], rtol=1e-15)


def test_project_bad_eps():
    with pytest.raises(ValueError):
        project_array([0.1], 1.0, 0.0)


# ---------------------------------------------------------------------------
# Lorentz model
# ---------------------------------------------------------------------------


def test_lorentz_exp0_north_pole():
    out = lorentz_exp0([0.0, 0.0], K=1.0)
    assert np.array_equal(out.coords, [1.0, 0.0, 0.0])


def test_lorentz_exp0_unit():
    out = lorentz_exp0([1.0, 0.0], K=1.0)
    assert np.allclose(out.coords, [math.cosh(1.0), math.sinh(1.0), 0.0], atol=1e-15)


@pytest.mark.parametrize("K", [0.5, 1.0, 2.0])
def test_lorentz_membership(K):
    rng = np.random.default_rng(3)
    for _ in range(300):
        v = rng.standard_normal(4)
        v *= rng.uniform(0.0, 5.0) / max(np.linalg.norm(v), 1e-12)
        p = lorentz_exp0(v, K=K)
        inner = minkowski_inner(p.coords, p.coords)
        assert abs(inner + K) <= 1e-9 * K
        p.validate()


@pytest.mark.parametrize("K", [0.5, 1.0, 2.0])
def test_validate_accepts_every_exp0_point_to_norm_30(K):
    # the self-product cancels terms of size x0^2, so a fixed bound on
    # |<x,x>_L + K| refuses exp0's own points once x0^2 is large
    rng = np.random.default_rng(5)
    for _ in range(300):
        v = rng.standard_normal(4)
        v *= rng.uniform(0.0, 30.0) / np.linalg.norm(v)
        lorentz_exp0(v, K=K).validate()


@pytest.mark.parametrize("coords", [[2.0, 0.0], [1.0, 0.5], [3.0, 1.0, 1.0]])
def test_validate_refuses_points_off_the_hyperboloid(coords):
    with pytest.raises(ValueError, match="not a hyperboloid point"):
        LorentzPoint(coords, 1.0).validate()


def test_lorentz_dist0_recovers_tangent_norm():
    rng = np.random.default_rng(9)
    for _ in range(100):
        v = rng.standard_normal(3)
        v *= rng.uniform(0.1, 8.0) / np.linalg.norm(v)
        d = lorentz_dist0(lorentz_exp0(v, K=1.0))
        assert abs(d - np.linalg.norm(v)) < 1e-9 * max(1.0, np.linalg.norm(v))


def test_lorentz_dist0_zero_at_origin():
    assert lorentz_dist0(LorentzPoint([1.0, 0.0], 1.0)) == 0.0


def reference_lorentz_dist0(x: LorentzPoint, mode: Precision) -> float:
    """lorentz_dist0 as arccosh(-<o, x>_L) through the Minkowski product
    with the pole o = (1, 0, ..., 0), after the same membership checks."""
    inner = minkowski_inner(x.coords, x.coords, mode)
    if not math.isfinite(inner):
        raise PrecisionOverflowError(
            "Minkowski self-product saturated under the active rounding mode"
        )
    tol = max(1e-9, 64.0 * mode.epsilon * max(1.0, float(x.coords[0]) ** 2))
    if abs(inner + x.K) > tol * x.K:
        raise ValueError(f"not a hyperboloid point: <x,x>_L = {inner}")
    pole = np.zeros(x.coords.size)
    pole[0] = 1.0
    arg = float(round_array(-minkowski_inner(pole, x.coords, mode), mode))
    if arg < 1.0 - 1e-9:
        raise ValueError(f"arccosh argument {arg} < 1")
    return float(round_array(math.acosh(max(arg, 1.0)), mode))


def _outcome(fn, *args):
    """The result's bits, or the exception's type and message."""
    try:
        return np.float64(fn(*args)).tobytes()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("mode", list(Precision))
def test_lorentz_dist0_equals_the_minkowski_product_form(mode):
    rng = np.random.default_rng(21)
    kinds = set()
    for d in range(1, 6):
        for _ in range(200):
            v = rng.standard_normal(d)
            v *= rng.uniform(0.0, 12.0) / np.linalg.norm(v)
            on = lorentz_exp0_array(v, 1.0, mode)
            scale = 1.0 + rng.uniform(-1.0, 1.0, on.size) * rng.choice([1e-6, 1e-3, 0.3])
            flipped = on * np.r_[-1.0, np.ones(d)]
            huge = on * 10.0 ** rng.integers(0, 300)
            for coords in (on, on * scale, flipped, huge, rng.standard_normal(d + 1) * 3.0):
                x = LorentzPoint(coords, 1.0)
                want = _outcome(reference_lorentz_dist0, x, mode)
                assert _outcome(lorentz_dist0, x, mode) == want, (mode, coords)
                kinds.add(want[0] if isinstance(want, tuple) else float)
    # every branch is reached: a distance, an off-hyperboloid or negative-sheet
    # point, and a saturated self-product
    assert kinds == {float, ValueError, PrecisionOverflowError}


def test_lorentz_half_saturates_at_norm_seven():
    # the squared first coordinate cosh(7)^2 ~ 3e5 overflows binary16
    p = LorentzPoint(lorentz_exp0([7.0, 0.0], 1.0, HALF).coords, 1.0)
    with pytest.raises(PrecisionOverflowError):
        lorentz_dist0(p, HALF)


def test_minkowski_inner_formula():
    assert minkowski_inner([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]) == -4.0 + 10.0 + 18.0


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------


def test_point_outside_ball_rejected():
    with pytest.raises(ValueError):
        PoincarePoint([1.5, 0.0], 1.0)


def test_lorentz_needs_positive_first_coordinate():
    with pytest.raises(ValueError):
        LorentzPoint([-1.0, 0.0], 1.0).validate()


def test_row_norms_equal_np_linalg_norm_bit_for_bit():
    rng = np.random.default_rng(3)
    for dim in (1, 2, 3, 7, 16, 33, 69):
        X = rng.standard_normal((50, 2 * dim)) * rng.uniform(1e-3, 1e3, (50, 1))
        for V in (X[:, :dim].copy(), X[:, ::2], np.asfortranarray(X[:, :dim])):
            assert np.array_equal(row_norms(V), [np.linalg.norm(v) for v in V])
