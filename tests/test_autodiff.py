import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

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
    k = tape.constant(Matrix([[1.0]], Precision.SINGLE))  # no gradient needed
    for op in (ad.add, ad.sub, ad.mul, ad.div, ad.matmul, ad.minimum):
        for x, y in ((a, b), (b, a), (a, k), (k, b)):
            with pytest.raises(ShapeError, match="mixed precision modes"):
                op(x, y)


def test_operands_from_two_tapes_rejected():
    # a node from another tape would collect gradients that no backward resets
    t1, t2 = Tape(), Tape()
    a, b = t1.variable([[2.0]]), t2.variable([[3.0]])
    k = t2.constant([[1.0]])  # no gradient needed
    for op in (ad.add, ad.sub, ad.mul, ad.div, ad.matmul, ad.minimum):
        for x, y in ((a, b), (b, a), (a, k), (k, a)):
            with pytest.raises(ShapeError, match="different tapes"):
                op(x, y)


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


def reference_median_pool(x: np.ndarray, groups, g: np.ndarray):
    """The median pool as a loop over groups: np.median per group, and the
    gradient `g` routed through a stable argsort of each group's rows.
    Returns the pooled values and the gradient with respect to `x`."""
    groups = np.asarray(groups, dtype=np.intp)
    ids = np.unique(groups)
    out = np.empty((len(ids), x.shape[1]))
    grad = np.zeros_like(x)
    cols = np.arange(x.shape[1])
    for gi, gid in enumerate(ids):
        rows = np.flatnonzero(groups == gid)
        block = x[rows]
        with np.errstate(invalid="ignore"):
            out[gi] = np.median(block, axis=0)
        order = np.argsort(block, axis=0, kind="stable")
        m = rows.size
        if m % 2 == 1:
            grad[rows[order[m // 2]], cols] += 1.0 * g[gi]
        else:
            grad[rows[order[m // 2 - 1]], cols] += 0.5 * g[gi]
            grad[rows[order[m // 2]], cols] += 0.5 * g[gi]
    return out, grad


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _check_median_pool(x, groups, seed=0):
    n_groups = len(np.unique(groups))
    g = np.random.default_rng(seed).normal(size=(n_groups, x.shape[1]))
    tape = Tape()
    xv = tape.variable(x)
    out = ad.median_pool(xv, groups)
    with np.errstate(invalid="ignore"):  # the loss may add +inf to -inf
        loss = ad.sum_all(out * tape.constant(g))
    tape.backward(loss)
    want_out, want_grad = reference_median_pool(x, groups, g)
    assert _same_bits(out.data, want_out)
    assert _same_bits(xv.grad, want_grad)


def _median_pool_data(kind, rng, n, d):
    if kind == "normal":
        return rng.normal(size=(n, d))
    if kind == "rounded":  # heavy ties, including -0.0 from rounding
        return np.round(rng.normal(size=(n, d)))
    if kind == "signed-zeros":
        return rng.choice([0.0, -0.0, 1.0], size=(n, d))
    if kind == "nan-inf":
        return rng.choice([np.nan, np.inf, -np.inf, 1.0, -0.0], size=(n, d))
    if kind == "sparse-nan":
        x = np.round(rng.normal(size=(n, d)) * 2) / 2
        x[rng.random((n, d)) < 0.05] = np.nan
        return x
    return rng.choice([np.inf, -np.inf, 2.0], size=(n, d))


MEDIAN_KINDS = ["normal", "rounded", "signed-zeros", "nan-inf", "sparse-nan", "infinities"]


@pytest.mark.parametrize("kind", MEDIAN_KINDS)
def test_median_pool_matches_reference_on_random_groups(kind):
    rng = np.random.default_rng(MEDIAN_KINDS.index(kind))
    for trial in range(40):
        n, d = int(rng.integers(1, 40)), int(rng.integers(1, 5))
        groups = rng.integers(-3, 3 * int(rng.integers(1, 8)), size=n)  # unsorted, gaps
        _check_median_pool(_median_pool_data(kind, rng, n, d), groups, seed=trial)


@pytest.mark.parametrize("kind", MEDIAN_KINDS)
def test_median_pool_matches_reference_on_fixed_sizes(kind):
    # one-row, odd and even groups side by side, ids given out of order
    rng = np.random.default_rng(10 + MEDIAN_KINDS.index(kind))
    sizes = {7: 1, 2: 2, 9: 3, 0: 4, 5: 5, 4: 8, 1: 9}
    groups = rng.permutation(np.repeat(list(sizes), list(sizes.values())))
    for trial in range(10):
        _check_median_pool(_median_pool_data(kind, rng, len(groups), 3), groups, seed=trial)


def test_median_pool_matches_reference_on_equal_groups_in_single():
    # the shape graph regression pools: equal-size groups of binary32 values
    rng = np.random.default_rng(7)
    x = rng.normal(size=(600, 16)).astype(np.float32).astype(np.float64)
    _check_median_pool(x, np.repeat(np.arange(10), 60))


def test_median_pool_ties_route_in_row_order():
    tape = Tape()
    x = tape.variable([[5.0], [1.0], [1.0], [1.0], [0.0]])
    out = ad.median_pool(x, [0, 0, 0, 0, 0])
    tape.backward(ad.sum_all(out))
    assert out.data[0, 0] == 1.0
    # sorted: 0.0 (row 4), then the 1.0s in row order 1, 2, 3; rank 2 is row 2
    assert np.array_equal(x.grad[:, 0], [0.0, 0.0, 1.0, 0.0, 0.0])


def test_median_pool_nan_column_gives_nan_and_routes_nan_last():
    tape = Tape()
    x = tape.variable([[np.nan, 1.0], [3.0, 2.0], [1.0, 3.0]])
    out = ad.median_pool(x, [0, 0, 0])
    tape.backward(ad.sum_all(out))
    assert np.isnan(out.data[0, 0]) and out.data[0, 1] == 2.0
    assert np.array_equal(x.grad, [[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])


def test_median_pool_pads_never_win():
    # the uneven group of one is padded to three slots; its median is itself
    tape = Tape()
    x = tape.variable([[np.inf], [-1.0], [-2.0], [-3.0]])
    out = ad.median_pool(x, [1, 0, 0, 0])
    tape.backward(ad.sum_all(out))
    assert np.array_equal(out.data[:, 0], [-2.0, np.inf])
    assert np.array_equal(x.grad[:, 0], [1.0, 0.0, 1.0, 0.0])


def test_median_pool_empty_input_gives_empty_result():
    tape = Tape()
    x = tape.variable(np.zeros((0, 3)))
    out = ad.median_pool(x, np.zeros(0, dtype=int))
    tape.backward(ad.sum_all(out))
    assert out.shape == (0, 3) and x.grad.shape == (0, 3)


def test_gradients_stay_double_in_single_mode():
    # forward rounds to binary32; gradient buffers remain float64
    tape = Tape()
    x = tape.variable(Matrix(np.array([[0.1, 0.2]]), Precision.SINGLE))
    tape.backward(ad.sum_all(ad.tanh(x)))
    assert x.grad.dtype == np.float64


# ---------------------------------------------------------------------------
# backward engine contract: constants, lazy buffers, fast paths
# ---------------------------------------------------------------------------


def _live_nodes(root):
    stack, seen = [root], {}
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def test_constants_get_no_gradient_and_no_work(monkeypatch):
    sent_to, accumulate = [], ad._accumulate

    def recording(node, g, fresh):
        sent_to.append(node)
        accumulate(node, g, fresh)

    monkeypatch.setattr(ad, "_accumulate", recording)
    tape = Tape()
    x = tape.variable(X_SMALL)
    k = tape.constant(W_42)
    kk = k * 2.0  # computed from constants alone
    assert not k.requires_grad and not kk.requires_grad
    assert kk._parents == () and kk._backward is None
    loss = ad.sum_all(ad.tanh(x @ kk)) - ad.sum_all(k.T @ k)
    tape.backward(loss)
    assert k.grad is None and kk.grad is None
    assert not any(node is k or node is kk for node in sent_to)
    assert np.array_equal(x.grad, (1.0 - np.tanh(X_SMALL @ (W_42 * 2.0)) ** 2) @ (W_42 * 2.0).T)


@pytest.mark.parametrize("op,expected", [
    (ad.add, lambda x: np.full_like(x, 2.0)),
    (ad.sub, lambda x: np.zeros_like(x)),
    (ad.mul, lambda x: 2.0 * x),
])
@pytest.mark.parametrize("shape", [(1, 1), (2, 3)])
def test_same_operand_twice_gets_its_own_buffer(op, expected, shape):
    value = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape) / 7.0
    tape = Tape()
    x = tape.variable(value)
    out = op(x, x)
    root = out if shape == (1, 1) else ad.sum_all(out)
    tape.backward(root)
    assert np.array_equal(x.grad, expected(value))
    assert np.array_equal(root.grad, [[1.0]])  # the incoming gradient is left alone
    nodes = _live_nodes(root)
    for i, a in enumerate(nodes):
        assert a.grad.flags.c_contiguous and a.grad.flags.writeable
        for b in nodes[i + 1:]:
            assert not np.shares_memory(a.grad, b.grad)


@pytest.mark.parametrize("build,x_grad,r_grad", [
    (lambda x, r: ad.sum_all(ad.transpose(x)), 1.0, 0.0),
    (lambda x, r: ad.sum_all(ad.transpose(r)), 0.0, 1.0),  # a C-contiguous view
    (lambda x, r: ad.sum_all(x), 1.0, 0.0),
    (lambda x, r: ad.sum_all(ad.row_sum(x)), 1.0, 0.0),
    (lambda x, r: ad.mean_all(x), 1.0 / 6.0, 0.0),
    (lambda x, r: ad.sum_all(ad.add(x, r)), 1.0, 2.0),
    (lambda x, r: ad.sum_all(ad.add(r, x)), 1.0, 2.0),
    (lambda x, r: ad.sum_all(ad.sub(x, r)), 1.0, -2.0),
    (lambda x, r: ad.sum_all(ad.sub(r, x)), -1.0, 2.0),
], ids=["transpose", "transpose-row", "sum_all", "row_sum", "mean_all", "add-row", "row-add", "sub-row", "row-sub"])
def test_pass_through_rules_give_each_node_its_own_buffer(build, x_grad, r_grad):
    # these rules send the incoming gradient itself, a view of it or a
    # broadcast sum of it; x is (2, 3) and the row r is (1, 3)
    tape = Tape()
    x = tape.variable(np.arange(6.0).reshape(2, 3) / 7.0)
    r = tape.variable([[0.5, -1.0, 2.0]])
    root = build(x, r)
    tape.backward(root)
    assert np.array_equal(x.grad, np.full((2, 3), x_grad))
    assert np.array_equal(r.grad, np.full((1, 3), r_grad))
    assert np.array_equal(root.grad, [[1.0]])  # the incoming gradient is left alone
    nodes = _live_nodes(root) + [r]
    for i, a in enumerate(nodes):
        assert a.grad.flags.c_contiguous and a.grad.flags.writeable
        for b in nodes[i + 1:]:
            assert a is b or not np.shares_memory(a.grad, b.grad)


def test_flat_gather_scatter_matches_row_scatter_bit_for_bit():
    rng = np.random.default_rng(3)
    x0 = rng.normal(size=(5, 4))
    index = np.array([4, 0, 4, 4, 2, 0, 1, 4])
    w = rng.normal(size=(len(index), 4))
    v = rng.normal(size=(5, 4))
    tape = Tape()
    x = tape.variable(x0)
    # recorded after the gather, so its contribution makes x's buffer
    # nonzero before the scatter runs
    loss = ad.sum_all(ad.gather_rows(x, index) * tape.constant(w)) + ad.sum_all(x * tape.constant(v))
    tape.backward(loss)
    expected = v.copy()
    np.add.at(expected, index, w)
    assert np.array_equal(x.grad, expected)


def _parent_div_grads(a0, b0):
    """The gradients of sum(a / b) as the term-by-term rules give them: each
    term zeroed where it is not finite, then summed to the operand's shape."""
    g = np.ones(np.broadcast_shapes(a0.shape, b0.shape))
    with np.errstate(divide="ignore", invalid="ignore"):
        ga, gb = ad._finite(g / b0), ad._finite(-g * a0 / (b0 * b0))
    return tuple(c if c.shape == shape else ad._summed(shape, c)
                 for c, shape in [(ga, a0.shape), (gb, b0.shape)])


@pytest.mark.parametrize("b0", [X_POS + 3.0, np.where(X_POS > 1.0, 0.0, X_POS)],
                         ids=["finite", "zero-divisor"])
def test_div_gradients_on_fast_path_and_fallback(b0):
    tape = Tape()
    a, b = tape.variable(X_SMALL), tape.variable(b0)
    with np.errstate(invalid="ignore"):  # inf - inf in the forward sum
        tape.backward(ad.sum_all(a / b))
    ga, gb = _parent_div_grads(X_SMALL, b0)
    assert np.array_equal(a.grad, ga) and np.array_equal(b.grad, gb)


@pytest.mark.parametrize("x0", [X_SMALL, np.vstack([X_SMALL[:1], np.zeros((1, 4)), X_SMALL[2:]])],
                         ids=["positive-norms", "zero-row"])
def test_row_norm_on_fast_path_and_fallback(x0):
    tape = Tape()
    x = tape.variable(x0)
    norms = ad.row_norm(x)
    g = W_42[:3, :1]
    if (x0 != 0).any(axis=1).all():
        # one einsum pass over the squares; the rule scales each row by g / norm
        raw = np.sqrt(np.einsum("ij,ij->i", x0, x0))[:, None]
        assert np.array_equal(norms.data, raw)
        # np.linalg.norm adds the same squares in another order: the sums lie
        # within (d - 1)·eps·Σx² of each other, and each sqrt rounds once
        eps, ref = np.finfo(np.float64).eps, np.linalg.norm(x0, axis=1, keepdims=True)
        sum_gap = (x0.shape[1] - 1) * eps * (x0 * x0).sum(axis=1, keepdims=True)
        assert np.all(np.abs(raw - ref) <= sum_gap / (raw + ref) + eps * ref)
        tape.backward(ad.sum_all(norms * tape.constant(g)))
        assert np.array_equal(x.grad, x0 * (g / raw))
    else:
        raw = np.linalg.norm(x0, axis=1, keepdims=True)
        assert np.array_equal(norms.data, raw)
        tape.backward(ad.sum_all(norms * tape.constant(W_42[:3, :1])))
        with np.errstate(divide="ignore", invalid="ignore"):
            direction = np.where(raw > 0, x0 / np.where(raw > 0, raw, 1.0), 0.0)
        assert np.array_equal(x.grad, W_42[:3, :1] * direction)
    assert np.all(np.isfinite(x.grad))


@pytest.mark.parametrize("low_side", ["first", "second"])
def test_minimum_sends_nothing_to_an_operand_it_never_routes_to(low_side):
    tape = Tape()
    x, y = tape.variable(X_BALL), tape.variable(X_BALL + 5.0)
    low, high = ad.tanh(x), ad.exp(y)  # tanh < 1 < exp(4.4) everywhere
    out = ad.minimum(low, high) if low_side == "first" else ad.minimum(high, low)
    tape.backward(ad.sum_all(out))
    assert high.grad is None  # its backward rule never ran
    assert np.array_equal(y.grad, np.zeros_like(X_BALL))  # unreached variable
    assert np.array_equal(x.grad, 1.0 - np.tanh(X_BALL) ** 2)


@pytest.mark.parametrize("mode,big", [(Precision.HALF, 1e6), (Precision.SINGLE, 1e39)])
@pytest.mark.parametrize("case", ["finite", "saturating", "nan", "inf", "nan-and-saturating"])
def test_matrix_saturates_to_infinity(mode, big, case):
    raw, stored = {
        "finite": ([[1.0, -2.5]], [[1.0, -2.5]]),
        "saturating": ([[big, -big]], [[np.inf, -np.inf]]),
        "nan": ([[np.nan, 1.0]], [[np.nan, 1.0]]),
        "inf": ([[np.inf, 1.0]], [[np.inf, 1.0]]),
        "nan-and-saturating": ([[np.nan, big]], [[np.nan, np.inf]]),
    }[case]
    assert np.array_equal(Matrix(raw, mode).data, stored, equal_nan=True)


# ---------------------------------------------------------------------------
# released sweeps
# ---------------------------------------------------------------------------


def _model_losses():
    """Training losses of every layer kind and head, each built by
    `build(tape)` -> (loss, {name: parameter node}) on a small tree."""
    from shgcn.graphs import normalized_adjacency, tree_graph
    from shgcn.layers import (ClassificationHead, GraphModel, ModelConfig, RegressionHead,
                              fermi_dirac_edge_scores)
    from shgcn.training import gr_loss, lp_loss, nc_loss

    graph = tree_graph(2, 3)
    adj = normalized_adjacency(graph)
    neg = np.array([[0, 5], [1, 9], [3, 12], [7, 14]])
    groups = np.arange(graph.n) % 3

    def lp(kind, dropout=0.0):
        model = GraphModel(ModelConfig(layer_kind=kind, hidden_dim=4, dropout=dropout),
                           graph.features.shape[1], seed=0)

        def build(tape):
            rng = np.random.default_rng(5)  # the same mask on every build
            z, nodes = model.forward(tape, adj, graph.features, Precision.DOUBLE, rng)
            pos_s = fermi_dirac_edge_scores(z, graph.edges)
            return lp_loss(pos_s, fermi_dirac_edge_scores(z, neg)), nodes
        return build

    def with_head(head, loss_of):
        model = GraphModel(ModelConfig(hidden_dim=4), graph.features.shape[1], seed=0)

        def build(tape):
            z, nodes = model.forward(tape, adj, graph.features)
            out, head_nodes = head(tape, z)
            return loss_of(out), {**nodes, **head_nodes}
        return build

    nc = ClassificationHead(4, int(graph.labels.max()) + 1, seed=1)
    gr = RegressionHead(4, 4, seed=1)
    return {
        "lp-shgcn": lp("shgcn"),
        "lp-shgcn-dropout": lp("shgcn", dropout=0.3),
        "lp-hgcn-agg0": lp("hgcn-agg0"),
        "lp-gcn": lp("gcn"),
        "nc": with_head(lambda t, z: nc.forward(t, z),
                        lambda out: nc_loss(ad.gather_rows(out, [0, 2, 4, 6]),
                                            graph.labels[[0, 2, 4, 6]])),
        "gr": with_head(lambda t, z: gr.forward(t, z, groups),
                        lambda out: gr_loss(out, [0.5, -1.0, 2.0])),
    }


MODEL_LOSSES = _model_losses()


def _tape_nodes(tape):
    return [node for node in (ref() for ref in tape._nodes) if node is not None]


@pytest.mark.parametrize("case", list(MODEL_LOSSES))
def test_released_sweep_gives_every_variable_the_same_gradient(case):
    build = MODEL_LOSSES[case]
    kept_tape, released_tape = Tape(), Tape()
    kept_loss, kept = build(kept_tape)
    released_loss, released = build(released_tape)
    kept_tape.backward(kept_loss)
    released_tape.backward(released_loss, release=True)
    assert list(released) == list(kept)
    for name in kept:
        assert np.array_equal(released[name].grad, kept[name].grad), name
    nodes = _tape_nodes(released_tape)
    inner = [node for node in nodes if node._backward is not None]
    assert released_loss in inner and len(inner) > len(released)
    assert all(node.grad is None for node in inner)
    leaves = [node for node in nodes if node._backward is None]
    assert {id(node) for node in leaves} == {id(node) for node in released.values()}
    assert all(node.grad is not None for node in leaves)
    # the kept sweep still shows every buffer it made
    assert kept_loss.grad is not None
    assert sum(node.grad is not None for node in _tape_nodes(kept_tape)) > len(kept)


def test_released_sweep_zeroes_unreached_variables_and_leaves_constants_alone():
    tape = Tape()
    x = tape.variable(X_SMALL)
    unused = tape.variable(np.ones((2, 2)))
    k = tape.constant(W_42)
    h = ad.tanh(x @ k)
    loss = ad.sum_all(h)
    tape.backward(loss, release=True)
    assert np.array_equal(x.grad, (1.0 - np.tanh(X_SMALL @ W_42) ** 2) @ W_42.T)
    assert np.array_equal(unused.grad, np.zeros((2, 2)))
    assert k.grad is None
    assert h.grad is None and loss.grad is None


def test_released_sweep_keeps_a_variable_root():
    tape = Tape()
    x = tape.variable([[2.0]])
    tape.backward(x, release=True)
    assert np.array_equal(x.grad, [[1.0]])


# ---------------------------------------------------------------------------
# reductions to a broadcast operand's shape
# ---------------------------------------------------------------------------


def _reduction_inputs():
    """Arrays of many shapes and layouts, some holding -0.0, infinities or
    NaN; d = 1 and F-ordered views included."""
    rng = np.random.default_rng(21)
    arrays = []
    for n, d in [(1, 1), (1, 5), (2, 1), (7, 1), (300, 1), (2, 2), (3, 16), (15, 16),
                 (64, 3), (1093, 16), (3280, 16), (257, 33)]:
        x = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, d))
        arrays += [x, np.asfortranarray(x), x[::2], x.T.copy()]
        zeros = np.where(rng.random((n, d)) < 0.5, -0.0, x)
        zeros[:, 0] = -0.0  # a column of -0.0 alone
        arrays.append(zeros)
        special = x.copy()
        special[rng.random((n, d)) < 0.05] = np.inf
        special[rng.random((n, d)) < 0.05] = -np.inf
        special[rng.random((n, d)) < 0.05] = np.nan
        arrays += [special, np.asfortranarray(special)]
    return arrays


REDUCTION_INPUTS = _reduction_inputs()


def _same_bits_or_both_nan(a, b):
    """Equal bits everywhere, except that a NaN need only meet a NaN: two
    NaNs of opposite sign meeting in a sum may leave either one."""
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


def test_column_sums_keep_the_bits_of_sum_over_rows():
    with np.errstate(invalid="ignore"):  # inf - inf in the special arrays
        for x in REDUCTION_INPUTS:
            got, want = ad._summed((1, x.shape[1]), x), x.sum(axis=0, keepdims=True)
            assert _same_bits_or_both_nan(got, want), (x.shape, x.flags.f_contiguous)
            if not np.isnan(want).any():
                assert got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous and got.flags.writeable


def test_column_sums_of_a_negative_zero_column_stay_bit_identical():
    x = np.full((6, 3), -0.0)
    assert ad._summed((1, 3), x).tobytes() == x.sum(axis=0, keepdims=True).tobytes()
    assert ad._summed((1, 1), x[:, :1]).tobytes() == x[:, :1].sum(axis=0, keepdims=True).tobytes()


def test_row_sums_agree_with_sum_over_columns_within_the_summation_bound():
    # each order of adding d terms errs by at most (d - 1)·u·Σ|x| (u = eps/2),
    # so the two sums lie within (d - 1)·eps·Σ|x| of each other
    for x in REDUCTION_INPUTS:
        x = x[np.isfinite(x).all(axis=1)]
        got, want = ad._summed((x.shape[0], 1), x), x.sum(axis=1, keepdims=True)
        d = x.shape[1]
        bound = (d - 1) * np.finfo(np.float64).eps * np.abs(x).sum(axis=1, keepdims=True)
        assert got.shape == want.shape and np.all(np.abs(got - want) <= bound)
        if d <= 2:
            assert got.tobytes() == (want + 0.0).tobytes()  # a single add
        assert got.flags.c_contiguous and got.flags.writeable


@pytest.mark.parametrize("n", [1, 5])
def test_row_sum_of_a_column_shares_no_memory_with_its_input(n):
    tape = Tape()
    x = tape.variable(np.arange(n, dtype=np.float64)[:, None] - 2.0)
    out = ad.row_sum(x)
    assert np.array_equal(out.data, x.data) and out.data.base is None
    assert not np.shares_memory(out.data, x.data)


@pytest.mark.parametrize("shape", [(1, 16), (3280, 1), (1, 1)],
                         ids=["row", "column", "scalar"])
def test_broadcast_operand_gradient_is_its_reduced_incoming_gradient(shape):
    rng = np.random.default_rng(4)
    x0, w0 = rng.normal(size=(3280, 16)), rng.normal(size=(3280, 16))
    tape = Tape()
    x, b = tape.variable(x0), tape.variable(rng.normal(size=shape))
    tape.backward(ad.sum_all((x + b) * tape.constant(w0)))
    if shape == (1, 16):
        assert b.grad.tobytes() == w0.sum(axis=0, keepdims=True).tobytes()
    elif shape == (3280, 1):
        assert np.allclose(b.grad, w0.sum(axis=1, keepdims=True), rtol=0, atol=1e-13)
    else:
        assert np.allclose(b.grad, w0.sum(), rtol=1e-13)
    assert b.grad.shape == shape and b.grad.flags.c_contiguous


# ---------------------------------------------------------------------------
# broadcast products and contractions by einsum
# ---------------------------------------------------------------------------


def _special(x, rng):
    """x with some entries set to -0.0, +inf, -inf and NaN."""
    x = x.copy()
    for value in (-0.0, np.inf, -np.inf, np.nan):
        x[rng.random(x.shape) < 0.05] = value
    return x


def _layouts(x):
    """x as C-ordered, F-ordered and strided arrays of one shape."""
    wide = np.zeros((2 * x.shape[0], 3 * x.shape[1]))
    wide[::2, ::3] = x
    return [x, np.asfortranarray(x), wide[::2, ::3]]


def _factor_pairs(n, d, seed):
    """(y, x) pairs whose product is (n, d): two (n, d) operands, (n, 1),
    (1, d) and (1, 1) factors on either side, and both outer products, in
    every layout, plain and with special entries."""
    rng = np.random.default_rng(seed)
    full = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, d))
    pairs = [(full, rng.normal(size=(n, d)))]
    for shape in [(n, 1), (1, d), (1, 1)]:
        factor = rng.normal(size=shape)
        pairs += [(full, factor), (factor, full)]
    col, row = rng.normal(size=(n, 1)), rng.normal(size=(1, d))
    pairs += [(col, row), (row, col)]
    out = []
    for y, x in pairs:
        for y2, x2 in [(y, x), (_special(y, rng), _special(x, rng))]:
            out += [(ya, xa) for ya in _layouts(y2) for xa in _layouts(x2)]
    return out


@pytest.mark.parametrize("n,d", [(2, 2), (7, 3), (1093, 16), (257, 33)])
def test_scaled_keeps_the_bits_of_broadcast_multiply(n, d):
    with np.errstate(invalid="ignore"):  # inf * 0
        for y, x in _factor_pairs(n, d, seed=n):
            got, want = ad._summed(np.broadcast_shapes(y.shape, x.shape), y, x), y * x
            if y.shape != x.shape and y.size > 1 and x.size > 1:
                # einsum adds each product to a zeroed output: -0.0 reads +0.0;
                # same-shape operands and (1, 1) factors keep `*`'s -0.0
                want = want + 0.0
                assert not np.signbit(got[got == 0]).any()
            assert _same_bits_or_both_nan(got, want), (y.shape, x.shape)
            both_nan = np.isnan(np.broadcast_to(y, want.shape)) & np.isnan(
                np.broadcast_to(x, want.shape))
            assert got[~both_nan].tobytes() == want[~both_nan].tobytes()
            assert got.dtype == np.float64 and got.base is None
            assert got.flags.c_contiguous and got.flags.writeable


def _gradients(n, d, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, d))
    return [g, _special(g, rng)]


@pytest.mark.parametrize("n,d", [(2, 2), (7, 3), (1093, 16), (257, 33)])
def test_contracted_to_a_row_keeps_the_bits_of_column_sums(n, d):
    rng = np.random.default_rng(d)
    with np.errstate(invalid="ignore"):  # inf - inf in the special sums
        for g in _gradients(n, d, seed=n):
            for x in [rng.normal(size=(n, 1)), rng.normal(size=(n, d)), np.array([[0.7]])]:
                for xa in _layouts(_special(x, rng)) + _layouts(x):
                    got, want = ad._summed((1, d), g, xa), ad._summed((1, d), g * xa)
                    assert _same_bits_or_both_nan(got, want), (xa.shape, xa.flags.f_contiguous)
                    if not np.isnan(want).any():
                        assert got.tobytes() == want.tobytes()
                    assert got.shape == (1, d) and got.base is None
                    assert got.flags.c_contiguous and got.flags.writeable


@pytest.mark.parametrize("n,d", [(1, 5), (2, 2), (7, 3), (1093, 16), (257, 33)])
def test_contracted_to_a_column_or_scalar_stays_within_the_summation_bound(n, d):
    # each order of adding N products errs by at most (N - 1)·u·Σ|g·x| (u =
    # eps/2), so two orders lie within (N - 1)·eps·Σ|g·x| of each other
    rng = np.random.default_rng(n + d)
    eps = np.finfo(np.float64).eps
    g = _gradients(n, d, seed=d)[0]
    for x in [rng.normal(size=(n, d)), rng.normal(size=(1, d)), np.array([[-1.3]]),
              rng.normal(size=(n, 1))]:
        for xa in _layouts(x):
            prod = g * xa
            for shape, terms, axis in [((n, 1), d, 1), ((1, 1), n * d, None)]:
                got = ad._summed(shape, g, xa)
                want = prod.sum(axis=axis, keepdims=True)
                bound = (terms - 1) * eps * np.abs(prod).sum(axis=axis, keepdims=True)
                assert got.shape == shape and np.all(np.abs(got - want) <= bound)
                assert got.base is None and got.flags.c_contiguous and got.flags.writeable


SHAPES = {"full": (3, 4), "column": (3, 1), "row": (1, 4), "scalar": (1, 1)}


def _check_pair(op, a0, b0):
    """Tape gradients of sum(op(a, b) * w) against central differences, for
    both operands."""
    w = np.random.default_rng(8).normal(size=np.broadcast_shapes(a0.shape, b0.shape))

    def loss(tape, a, b):
        return ad.sum_all(op(a, b) * tape.constant(w))

    tape = Tape()
    a, b = tape.variable(a0), tape.variable(b0)
    tape.backward(loss(tape, a, b))
    for node, value, other, first in [(a, a0, b0, True), (b, b0, a0, False)]:
        def f(arr, other=other, first=first):
            t = Tape()
            args = (t.variable(arr), t.variable(other))
            return loss(t, *(args if first else args[::-1])).item()

        assert node.grad.shape == value.shape
        assert rel_err(node.grad, finite_diff_grad(f, value)) < 1e-5


@pytest.mark.parametrize("b_shape", list(SHAPES))
@pytest.mark.parametrize("a_shape", list(SHAPES))
@pytest.mark.parametrize("op", ["mul", "div"])
def test_mul_and_div_gradients_for_every_broadcast_pair(op, a_shape, b_shape):
    rng = np.random.default_rng(3)
    a0 = rng.uniform(-2, 2, size=SHAPES[a_shape])
    b0 = rng.uniform(-2, 2, size=SHAPES[b_shape])
    if op == "div":
        b0 = np.sign(b0) * (np.abs(b0) + 0.5)  # away from zero
    _check_pair(ad.mul if op == "mul" else ad.div, a0, b0)


def _div_grads(a0, b0):
    tape = Tape()
    a, b = tape.variable(a0), tape.variable(b0)
    with np.errstate(invalid="ignore", divide="ignore"):  # inf - inf in the forward sum
        tape.backward(ad.sum_all(a / b))
    return a.grad, b.grad


@pytest.mark.parametrize("b_shape", ["column", "row", "scalar"])
def test_div_by_a_broadcast_zero_divisor_zeroes_its_contribution(b_shape):
    b0 = np.random.default_rng(5).uniform(0.5, 2.0, size=SHAPES[b_shape])
    b0.flat[0] = 0.0
    ga, gb = _div_grads(X_SMALL, b0)
    old_a, old_b = _parent_div_grads(X_SMALL, b0)
    assert np.array_equal(ga, old_a)
    assert gb[0, 0] == 0.0 and old_b[0, 0] == 0.0
    # elsewhere the terms are summed before the division, not after
    assert np.allclose(gb, old_b, rtol=1e-14, atol=0)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("b_shape", ["column", "row", "scalar"])
def test_div_with_a_non_finite_numerator_keeps_the_term_by_term_zeroing(b_shape, value):
    a0 = X_SMALL.copy()
    a0[1, 2] = value
    b0 = np.random.default_rng(6).uniform(0.5, 2.0, size=SHAPES[b_shape])
    if b0.size > 1:
        b0.flat[-1] = 0.0  # and a zero divisor elsewhere
    ga, gb = _div_grads(a0, b0)
    old_a, old_b = _parent_div_grads(a0, b0)
    assert np.array_equal(ga, old_a)
    assert gb.tobytes() == old_b.tobytes()
    assert np.isfinite(gb).all() and (gb != 0).any()


# OpenBLAS splits a long product between its threads, so a sum that goes
# through BLAS can add in another order under another thread count: a gemv
# row sum of a (88573, 8) array and `ones @ column` on 30000 rows both do
GRADIENT_BYTES = """
import hashlib
import numpy as np
from shgcn import autodiff as ad
from shgcn.autodiff import Tape

rng = np.random.default_rng(0)
digest = hashlib.sha256()
for n, d in [(30000, 16), (88573, 8)]:
    tape = Tape()
    x = tape.variable(rng.normal(size=(n, d)))
    w = tape.variable(rng.normal(size=(d, d)) / 4.0)
    b = tape.variable(rng.normal(size=(1, d)))
    s = tape.variable(rng.normal(size=(n, 1)))
    c = tape.variable([[0.7]])
    h = ad.tanh(x @ w + b) * s
    loss = ad.mean_all(ad.row_sum(h * h) * c) + ad.sum_all(h.T @ h)
    tape.backward(loss, release=True)
    for node in (x, w, b, s, c):
        digest.update(node.grad.tobytes())
    del tape, x, w, b, s, c, h, loss
print(digest.hexdigest())
"""


# every broadcast pair of mul and div: a contraction by einsum with
# optimize=True would go through BLAS dot and gemv
BROADCAST_BYTES = """
import hashlib
import numpy as np
from shgcn import autodiff as ad
from shgcn.autodiff import Tape

rng = np.random.default_rng(1)
digest = hashlib.sha256()
for n, d in [(30000, 16), (88573, 8)]:
    tape = Tape()
    x = tape.variable(rng.normal(size=(n, d)))
    col = tape.variable(rng.normal(size=(n, 1)))
    row = tape.variable(rng.normal(size=(1, d)))
    c = tape.variable([[0.7]])
    h = (x * col + col * row + row * x + c * x + x / (col * col + 1.0)
         + x / (row * row + 1.0) + x / (c * c + 1.0))
    k = col * c + col / (c * c + 1.0) + ad.row_norm(x)
    loss = ad.mean_all(ad.tanh(h)) + ad.mean_all(ad.tanh(k))
    tape.backward(loss, release=True)
    for node in (x, col, row, c):
        digest.update(node.grad.tobytes())
    del tape, x, col, row, c, h, k, loss
print(digest.hexdigest())
"""


def _digests_under_one_and_two_threads(script):
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    return digests


def test_tape_gradient_bytes_do_not_depend_on_the_blas_thread_count():
    digests = _digests_under_one_and_two_threads(GRADIENT_BYTES)
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def test_broadcast_gradient_bytes_do_not_depend_on_the_blas_thread_count():
    digests = _digests_under_one_and_two_threads(BROADCAST_BYTES)
    assert len(digests[0]) == 64 and digests[0] == digests[1]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("op", [ad.sigmoid, ad.softplus])
def test_logistic_saturates_without_an_overflow_warning(op):
    x0 = np.array([[-800.0, -40.0, 0.0, 40.0, 800.0]])
    tape = Tape()
    x = tape.variable(x0)
    out = op(x)
    tape.backward(ad.sum_all(out))
    logistic = np.array([[0.0, 1.0 / (1.0 + np.exp(40.0)), 0.5, 1.0 / (1.0 + np.exp(-40.0)), 1.0]])
    if op is ad.sigmoid:
        assert np.array_equal(out.data, logistic)
        assert np.array_equal(x.grad, logistic * (1.0 - logistic))
    else:
        assert np.array_equal(x.grad, logistic)
