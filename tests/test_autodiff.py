import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from shgcn import autodiff as ad
from shgcn.autodiff import Matrix, Tape, finite_diff_grad
from shgcn.errors import BoundaryCollapseError, ShapeError
from shgcn.precision import Precision


def rel_err(a, b):
    return np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b)))


# ---------------------------------------------------------------------------
# Matrix
# ---------------------------------------------------------------------------


def test_matrix_rounds_on_construction():
    m = Matrix([[1.0 + 4e-4]], Precision.HALF)
    assert m.data[0, 0] == 1.0
    assert not m.overflow


def test_matrix_overflow_flag():
    m = Matrix([[1e6]], Precision.HALF)
    assert np.isinf(m.data[0, 0])
    assert m.overflow


def test_matrix_immutable():
    m = Matrix([[1.0, 2.0]])
    with pytest.raises((ValueError, AttributeError)):
        m.data[0, 0] = 5.0


@pytest.mark.parametrize("mode", [Precision.DOUBLE, Precision.SINGLE])
def test_outside_input_is_copied(mode):
    source = np.array([[1.0, 2.0]])
    m = Matrix(source, mode)
    v = Tape().variable(source, mode)
    source[0, 0] = 9.0
    assert m.data[0, 0] == 1.0
    assert v.data[0, 0] == 1.0


# ---------------------------------------------------------------------------
# forward examples
# ---------------------------------------------------------------------------


def test_matmul_identity():
    tape = Tape()
    m = tape.variable([[1.0, 2.0], [3.0, 4.0]])
    eye = tape.variable(np.eye(2))
    assert np.array_equal(ad.matmul(eye, m).data, m.data)


def test_matmul_hand_arithmetic():
    tape = Tape()
    a = tape.variable([[1.0, 2.0], [3.0, 4.0]])
    b = tape.variable([[1.0], [1.0]])
    assert np.array_equal((a @ b).data, [[3.0], [7.0]])


def test_matmul_accumulates_in_double_then_rounds():
    # 1x2048 times 2048x1 of ones in half: the sum accumulates exactly in
    # double and 2048 is representable in binary16
    tape = Tape()
    k = 2048
    a = tape.variable(Matrix(np.ones((1, k)), Precision.HALF))
    b = tape.variable(Matrix(np.ones((k, 1)), Precision.HALF))
    out = a @ b
    assert np.isfinite(out.data[0, 0])
    assert out.data[0, 0] == 2048.0


def test_matmul_shape_error():
    tape = Tape()
    a = tape.variable(np.ones((2, 3)))
    b = tape.variable(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        a @ b


def test_matmul_associative_on_integers():
    rng = np.random.default_rng(0)
    a, b, c = (rng.integers(-5, 6, size=(4, 4)).astype(float) for _ in range(3))
    tape = Tape()
    na, nb, nc = tape.variable(a), tape.variable(b), tape.variable(c)
    left = (na @ nb) @ nc
    right = na @ (nb @ nc)
    assert np.array_equal(left.data, right.data)


def test_half_mode_forward_rounds_each_op():
    tape = Tape()
    a = tape.variable(Matrix([[1.0]], Precision.HALF))
    b = tape.variable(Matrix([[4e-4]], Precision.HALF))
    out = a + b
    assert out.data[0, 0] == 1.0  # sum rounded back to 1 in binary16


def test_mixed_modes_rejected():
    tape = Tape()
    a = tape.variable(Matrix([[1.0]], Precision.HALF))
    b = tape.variable(Matrix([[1.0]], Precision.DOUBLE))
    with pytest.raises(ShapeError):
        a + b


# ---------------------------------------------------------------------------
# backward examples
# ---------------------------------------------------------------------------


def test_backward_sum_gives_ones():
    tape = Tape()
    x = tape.variable(np.arange(6.0).reshape(2, 3))
    tape.backward(ad.sum_all(x))
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_bilinear_form():
    tape = Tape()
    w = tape.variable([[1.0, -2.0, 0.5]])
    x = tape.variable([[3.0, 1.0, 4.0]])
    tape.backward(ad.sum_all(w * x))
    assert np.allclose(w.grad, x.data)
    assert np.allclose(x.grad, w.data)


def test_backward_tanh_at_half():
    tape = Tape()
    u = tape.variable([[0.5]])
    tape.backward(ad.tanh(u))
    expected = 1.0 - np.tanh(0.5) ** 2
    assert abs(u.grad[0, 0] - expected) < 1e-12
    assert abs(expected - 0.78644773) < 1e-6


def test_backward_requires_scalar_root():
    tape = Tape()
    x = tape.variable(np.ones((2, 2)))
    with pytest.raises(ShapeError):
        tape.backward(x)


def test_unreachable_nodes_get_zero_gradient():
    tape = Tape()
    x = tape.variable(np.ones((2, 2)))
    y = tape.variable(np.ones((1, 1)))  # never used
    tape.backward(ad.sum_all(x))
    assert np.array_equal(y.grad, np.zeros((1, 1)))


@pytest.mark.parametrize("run_backward", [True, False])
def test_dropped_tape_is_freed_without_the_cyclic_collector(run_backward):
    gc.disable()
    try:
        tape = Tape()
        x = tape.variable(np.arange(6.0).reshape(3, 2))
        w = tape.variable(np.ones((2, 2)))
        h = x @ w
        loss = ad.sum_all(ad.tanh(h))
        if run_backward:
            tape.backward(loss)
        tape_ref, array_ref = weakref.ref(tape), weakref.ref(h.data)
        del tape, x, w, h, loss
        assert tape_ref() is None
        assert array_ref() is None
    finally:
        gc.enable()


def test_nodes_keep_their_tape_alive():
    def forward():
        tape = Tape()
        return tape.variable([[0.5]])

    x = forward()
    loss = ad.sum_all(ad.tanh(x))
    loss.tape.backward(loss)
    assert abs(x.grad[0, 0] - (1.0 - np.tanh(0.5) ** 2)) < 1e-12


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------


def test_finite_diff_on_sum():
    g = finite_diff_grad(lambda x: float(x.sum()), np.ones((2, 3)))
    assert np.allclose(g, 1.0, atol=1e-9)


def test_finite_diff_on_square_norm():
    g = finite_diff_grad(lambda x: float((x**2).sum()), np.array([[1.0, 2.0]]))
    assert np.allclose(g, [[2.0, 4.0]], atol=1e-6)


# every differentiable primitive against the oracle (random inputs in (-2, 2))


def _check(build, x0, tol=1e-5, seed=0):
    """build(tape, node) -> scalar node; compares tape grad to central
    differences."""
    x0 = np.asarray(x0, dtype=np.float64)

    def f(arr):
        tape = Tape()
        node = tape.variable(arr.copy())
        return build(tape, node).item()

    tape = Tape()
    node = tape.variable(x0)
    tape.backward(build(tape, node))
    numeric = finite_diff_grad(f, x0)
    assert rel_err(node.grad, numeric) < tol


RNG = np.random.default_rng(42)
X_SMALL = RNG.uniform(-2, 2, size=(3, 4))
X_POS = RNG.uniform(0.1, 2, size=(3, 4))
X_BALL = RNG.uniform(-0.6, 0.6, size=(3, 4))
W_42 = RNG.uniform(-1, 1, size=(4, 2))


PRIMITIVE_CASES = [
    ("add", lambda t, x: ad.sum_all((x + x) * x), X_SMALL),
    ("sub", lambda t, x: ad.sum_all(x - 2.0 * x * x), X_SMALL),
    ("mul_broadcast", lambda t, x: ad.sum_all(x * t.variable([[1.0, -1.0, 2.0, 0.5]])), X_SMALL),
    ("div", lambda t, x: ad.sum_all(x / t.variable(X_POS + 3.0)), X_SMALL),
    ("matmul", lambda t, x: ad.sum_all(x @ t.variable(W_42)), X_SMALL),
    ("transpose", lambda t, x: ad.sum_all(x.T @ x), X_SMALL),
    ("tanh", lambda t, x: ad.sum_all(ad.tanh(x)), X_SMALL),
    ("arctanh", lambda t, x: ad.sum_all(ad.arctanh(x)), X_BALL),
    ("relu", lambda t, x: ad.sum_all(ad.relu(x)), X_SMALL),
    ("softplus", lambda t, x: ad.sum_all(ad.softplus(x)), X_SMALL),
    ("sigmoid", lambda t, x: ad.sum_all(ad.sigmoid(x)), X_SMALL),
    ("exp", lambda t, x: ad.sum_all(ad.exp(x)), X_SMALL),
    ("log", lambda t, x: ad.sum_all(ad.log(x)), X_POS),
    ("sqrt", lambda t, x: ad.sum_all(ad.sqrt(x)), X_POS),
    ("tanhc", lambda t, x: ad.sum_all(ad.tanhc(x)), X_SMALL),
    ("artanhc", lambda t, x: ad.sum_all(ad.artanhc(x)), X_BALL),
    ("row_norm", lambda t, x: ad.sum_all(ad.row_norm(x)), X_POS),
    ("row_sum", lambda t, x: ad.sum_all(ad.row_sum(x * x)), X_SMALL),
    ("mean_all", lambda t, x: ad.mean_all(x * x), X_SMALL),
    ("minimum", lambda t, x: ad.sum_all(ad.minimum(x, t.variable(np.zeros((3, 4)) + 0.3))), X_SMALL),
    ("clamp", lambda t, x: ad.sum_all(ad.clamp(x, -1.0, 1.0)), X_SMALL),
    ("gather", lambda t, x: ad.sum_all(ad.tanh(ad.gather_rows(x, [0, 2, 2]))), X_SMALL),
    ("median_pool", lambda t, x: ad.sum_all(ad.median_pool(x, [0, 0, 1])), X_SMALL),
]


@pytest.mark.parametrize("name,build,x0", PRIMITIVE_CASES)
def test_primitive_gradients(name, build, x0):
    _check(build, x0)


@pytest.mark.parametrize("name,build,x0", PRIMITIVE_CASES + [
    ("sparse_matmul", lambda t, x: ad.sum_all(ad.sparse_matmul(sp.eye(3, format="csr"), x)), X_SMALL),
    ("cross_entropy", lambda t, x: ad.cross_entropy(x, [0, 3, 1]), X_SMALL),
    ("dropout", lambda t, x: ad.sum_all(ad.dropout(x, 0.5, np.random.default_rng(0))), X_SMALL),
])
def test_primitive_results_are_read_only_and_c_contiguous(name, build, x0):
    tape = Tape()
    stack, seen = [build(tape, tape.variable(x0))], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
        assert node.data.flags.c_contiguous, name
        with pytest.raises(ValueError):
            node.data[0, 0] = 1.0


def test_sparse_matmul_gradient():
    adj = sp.csr_matrix(np.array([[0.5, 0.5, 0], [0, 1.0, 0], [0.2, 0.3, 0.5]]))

    def build(tape, x):
        return ad.sum_all(ad.sparse_matmul(adj, x) * x)

    _check(build, RNG.uniform(-2, 2, (3, 2)))


def test_cross_entropy_gradient():
    labels = np.array([0, 2, 1])

    def build(tape, x):
        return ad.cross_entropy(x, labels)

    _check(build, RNG.uniform(-2, 2, (3, 3)))


def test_cross_entropy_uniform_logits_value():
    tape = Tape()
    logits = tape.variable(np.zeros((5, 7)))
    assert abs(ad.cross_entropy(logits, np.zeros(5, dtype=int)).item() - np.log(7)) < 1e-12


def test_arctanh_domain_error():
    tape = Tape()
    x = tape.variable([[1.0]])
    with pytest.raises(BoundaryCollapseError):
        ad.arctanh(x)


def test_median_pool_even_count_averages():
    tape = Tape()
    x = tape.variable([[1.0], [3.0]])
    out = ad.median_pool(x, [0, 0])
    assert out.data[0, 0] == 2.0


def test_median_pool_robust_to_outlier():
    tape = Tape()
    x = tape.variable([[1.0], [2.0], [100.0]])
    assert ad.median_pool(x, [0, 0, 0]).data[0, 0] == 2.0


def test_gradients_stay_double_in_single_mode():
    # forward rounds to binary32; gradient buffers remain float64
    tape = Tape()
    x = tape.variable(Matrix(np.array([[0.1, 0.2]]), Precision.SINGLE))
    tape.backward(ad.sum_all(ad.tanh(x)))
    assert x.grad.dtype == np.float64
