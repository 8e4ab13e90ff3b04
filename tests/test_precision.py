import numpy as np
import pytest

from shgcn.precision import Precision, round_array, round_to_precision

HALF = Precision.HALF
SINGLE = Precision.SINGLE
DOUBLE = Precision.DOUBLE


def test_representable_value_is_fixed_point():
    assert round_to_precision(1.0, HALF) == 1.0


def test_below_half_ulp_rounds_down():
    # 4.0e-4 is below half of the binary16 epsilon, so 1 + it rounds to 1
    assert round_to_precision(1.0 + 4.0e-4, HALF) == 1.0


def test_half_epsilon_survives():
    assert round_to_precision(1.0 + 9.765625e-4, HALF) == 1.0009765625


@pytest.mark.parametrize("mode", list(Precision))
def test_rounding_idempotent(mode):
    rng = np.random.default_rng(3)
    x = rng.uniform(-1e4, 1e4, size=500)
    once = round_array(x, mode)
    assert np.array_equal(round_array(once, mode), once)


@pytest.mark.parametrize("mode", list(Precision))
def test_epsilon_definition(mode):
    eps = mode.epsilon
    assert round_to_precision(1.0 + eps, mode) > 1.0
    assert round_to_precision(1.0 + eps / 2.0 * (1.0 - 2.0**-20), mode) == 1.0


def test_epsilon_is_the_table_as_python_floats():
    # a numpy float16 epsilon would pull the arithmetic it enters into half
    got = [mode.epsilon for mode in (HALF, SINGLE, Precision.DOUBLE)]
    assert got == [2.0**-10, 2.0**-23, 2.0**-52]
    assert all(type(eps) is float for eps in got)


def test_overflow_saturates_to_infinity():
    assert round_to_precision(1e6, HALF) == np.inf
    assert round_to_precision(-1e6, HALF) == -np.inf
    assert np.array_equal(round_array(np.array([1e6, 1.0]), HALF), [np.inf, 1.0])
    assert np.array_equal(round_array(np.array([1e6, 1.0]), SINGLE), [1e6, 1.0])


def test_nan_passes_through():
    assert np.isnan(round_to_precision(float("nan"), HALF))


def test_double_mode_is_identity():
    x = np.array([1.2345678901234567e-100, 3.14])
    assert np.array_equal(round_array(x, DOUBLE), x)
