"""Dense matrices with reverse-mode automatic differentiation.

A Matrix is an immutable 2-D float64 array tagged with a Precision mode;
every operation computes in full double precision and rounds its result to
the mode.  A Tape records operations on Node wrappers in execution order
(which is a valid topological order) and replays them backwards to fill
gradient buffers.  Gradients are always accumulated in double regardless of
the forward mode; low-precision runs are forward-only probes.

Array ownership:

- ``Matrix(data)`` and ``Tape.variable(data)`` copy outside input, so the
  caller may keep writing to its array without reaching the stored value.
- A primitive's result is a fresh C-contiguous array that no caller holds;
  the Matrix adopts it without a copy.  Backward closures may keep a
  reference to it for reading.
- Every stored array is read-only.  Gradient buffers (``Node.grad``) are
  plain writable arrays that ``Tape.backward`` allocates.

Lifetime: a Node holds its Tape, its parents and its backward closure; the
Tape holds its Nodes only through weak references.  There is no reference
cycle, so a tape and its arrays are freed by reference counting as soon as
the caller drops the tape and every node of it, without waiting for the
cyclic garbage collector.  Nodes that no live node depends on are freed
while the forward pass is still running.
"""

from __future__ import annotations

import weakref
from typing import Callable

import numpy as np

from .errors import BoundaryCollapseError, ShapeError
from .precision import Precision, round_array


class Matrix:
    """Immutable 2-D value.  Stored entries are already rounded to `mode`,
    so re-rounding is a no-op.  `overflow` records whether rounding
    saturated a finite input entry to infinity."""

    __slots__ = ("data", "mode", "overflow")

    def __init__(self, data, mode: Precision = Precision.DOUBLE):
        raw = np.atleast_2d(np.asarray(data, dtype=np.float64))
        if raw.ndim != 2:
            raise ShapeError(f"Matrix must be 2-D, got shape {raw.shape}")
        # copy: the caller keeps its array and may write to it
        self._freeze(np.array(raw, order="C"), mode)

    @classmethod
    def _adopt(cls, raw: np.ndarray, mode: Precision) -> "Matrix":
        """Wrap a primitive's fresh C-contiguous float64 result without
        copying it; nothing else may write to `raw` afterwards."""
        m = object.__new__(cls)
        m._freeze(raw, mode)
        return m

    def _freeze(self, raw: np.ndarray, mode: Precision) -> None:
        if mode is Precision.DOUBLE:
            # rounding to double is the identity and cannot saturate
            rounded, overflow = raw, False
        else:
            rounded = round_array(raw, mode)
            overflow = bool(np.any(np.isinf(rounded) & np.isfinite(raw)))
        rounded.setflags(write=False)
        object.__setattr__(self, "data", rounded)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "overflow", overflow)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Matrix({self.data!r}, mode={self.mode.value})"


class Node:
    """A tape entry: a Matrix value plus links to its parents and the local
    backward rule that scatters an incoming gradient to them."""

    __slots__ = ("value", "grad", "tape", "_parents", "_backward", "__weakref__")

    def __init__(self, value: Matrix, tape: "Tape", parents=(), backward=None):
        self.value = value
        self.grad = None
        self.tape = tape
        self._parents = tuple(parents)
        self._backward = backward
        tape._nodes.append(weakref.ref(self))

    @property
    def data(self) -> np.ndarray:
        return self.value.data

    @property
    def mode(self) -> Precision:
        return self.value.mode

    @property
    def shape(self):
        return self.value.shape

    # -- operator sugar -------------------------------------------------
    def _wrap(self, other) -> "Node":
        if isinstance(other, Node):
            return other
        return self.tape.constant(other, mode=self.mode)

    def __add__(self, other):
        return add(self, self._wrap(other))

    def __radd__(self, other):
        return add(self._wrap(other), self)

    def __sub__(self, other):
        return sub(self, self._wrap(other))

    def __rsub__(self, other):
        return sub(self._wrap(other), self)

    def __mul__(self, other):
        return mul(self, self._wrap(other))

    def __rmul__(self, other):
        return mul(self._wrap(other), self)

    def __truediv__(self, other):
        return div(self, self._wrap(other))

    def __rtruediv__(self, other):
        return div(self._wrap(other), self)

    def __neg__(self):
        return mul(self, self.tape.constant(-1.0, mode=self.mode))

    def __matmul__(self, other):
        return matmul(self, other)

    @property
    def T(self):
        return transpose(self)

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])


class Tape:
    """Single-writer record of one forward computation.  It refers to its
    nodes weakly: a node that no live node or caller holds cannot receive a
    gradient, so dropping it loses nothing."""

    def __init__(self):
        self._nodes: list[weakref.ref] = []

    def variable(self, data, mode: Precision = Precision.DOUBLE) -> Node:
        value = data if isinstance(data, Matrix) else Matrix(data, mode)
        return Node(value, self)

    def constant(self, data, mode: Precision = Precision.DOUBLE) -> Node:
        return self.variable(data, mode)

    def backward(self, root: Node) -> None:
        """Reverse accumulation from a scalar root.  Every node reachable
        from the root receives its gradient; unreachable nodes keep zeros."""
        if root.tape is not self:
            raise ShapeError("root node belongs to a different tape")
        if root.value.shape != (1, 1):
            raise ShapeError(
                f"backward root must be scalar (1x1), got shape {root.value.shape}"
            )
        nodes = [node for node in (ref() for ref in self._nodes) if node is not None]
        for node in nodes:
            node.grad = np.zeros(node.value.shape, dtype=np.float64)
        root.grad = np.ones((1, 1), dtype=np.float64)
        for node in reversed(nodes):
            if node._backward is not None and node.grad.any():
                node._backward(node.grad)


def _same_mode(*nodes: Node) -> Precision:
    mode = nodes[0].mode
    for n in nodes[1:]:
        if n.mode is not mode:
            raise ShapeError(
                f"mixed precision modes: {mode.value} vs {n.mode.value}"
            )
    return mode


def _make(raw: np.ndarray, mode: Precision, tape: Tape, parents, backward) -> Node:
    """Record a primitive's result; `raw` must be a fresh C-contiguous
    float64 array that the caller hands over."""
    return Node(Matrix._adopt(raw, mode), tape, parents, backward)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient down to the shape of a broadcast operand."""
    if g.shape == tuple(shape):
        return g
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic (numpy broadcasting applies)
# ---------------------------------------------------------------------------


def add(a: Node, b: Node) -> Node:
    mode = _same_mode(a, b)

    def backward(g):
        a.grad += _unbroadcast(g, a.shape)
        b.grad += _unbroadcast(g, b.shape)

    return _make(a.data + b.data, mode, a.tape, (a, b), backward)


def sub(a: Node, b: Node) -> Node:
    mode = _same_mode(a, b)

    def backward(g):
        a.grad += _unbroadcast(g, a.shape)
        b.grad -= _unbroadcast(g, b.shape)

    return _make(a.data - b.data, mode, a.tape, (a, b), backward)


def mul(a: Node, b: Node) -> Node:
    mode = _same_mode(a, b)

    def backward(g):
        a.grad += _unbroadcast(g * b.data, a.shape)
        b.grad += _unbroadcast(g * a.data, b.shape)

    return _make(a.data * b.data, mode, a.tape, (a, b), backward)


def div(a: Node, b: Node) -> Node:
    mode = _same_mode(a, b)

    def backward(g):
        with np.errstate(divide="ignore", invalid="ignore"):
            ga = g / b.data
            gb = -g * a.data / (b.data * b.data)
        a.grad += _unbroadcast(np.nan_to_num(ga, nan=0.0, posinf=0.0, neginf=0.0), a.shape)
        b.grad += _unbroadcast(np.nan_to_num(gb, nan=0.0, posinf=0.0, neginf=0.0), b.shape)

    with np.errstate(divide="ignore", invalid="ignore"):
        raw = a.data / b.data
    return _make(raw, mode, a.tape, (a, b), backward)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def matmul(a: Node, b: Node) -> Node:
    mode = _same_mode(a, b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")

    def backward(g):
        a.grad += g @ b.data.T
        b.grad += a.data.T @ g

    return _make(a.data @ b.data, mode, a.tape, (a, b), backward)


def sparse_matmul(sparse, x: Node) -> Node:
    """Multiply a constant scipy CSR operator against a dense node."""
    if sparse.shape[1] != x.shape[0]:
        raise ShapeError(f"sparse matmul shape mismatch: {sparse.shape} @ {x.shape}")

    def backward(g):
        # the transpose of a CSR operator is a CSC view of the same arrays,
        # and its product adds terms in the same order as a rebuilt CSR
        x.grad += sparse.T @ g

    return _make(sparse @ x.data, x.mode, x.tape, (x,), backward)


def transpose(a: Node) -> Node:
    def backward(g):
        a.grad += g.T

    return _make(a.data.T.copy(), a.mode, a.tape, (a,), backward)


def gather_rows(a: Node, index) -> Node:
    index = np.asarray(index, dtype=np.intp)

    def backward(g):
        np.add.at(a.grad, index, g)

    return _make(a.data[index], a.mode, a.tape, (a,), backward)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def sum_all(a: Node) -> Node:
    def backward(g):
        a.grad += g[0, 0]

    return _make(np.array([[a.data.sum()]]), a.mode, a.tape, (a,), backward)


def mean_all(a: Node) -> Node:
    size = a.data.size

    def backward(g):
        a.grad += g[0, 0] / size

    return _make(np.array([[a.data.mean()]]), a.mode, a.tape, (a,), backward)


def row_sum(a: Node) -> Node:
    """Sum along each row -> (n, 1)."""

    def backward(g):
        a.grad += g  # broadcasts (n,1) over (n,d)

    return _make(a.data.sum(axis=1, keepdims=True), a.mode, a.tape, (a,), backward)


def row_norm(a: Node) -> Node:
    """Euclidean norm of each row -> (n, 1), accumulated in double."""
    raw = np.linalg.norm(a.data, axis=1, keepdims=True)

    def backward(g):
        with np.errstate(divide="ignore", invalid="ignore"):
            direction = np.where(raw > 0, a.data / np.where(raw > 0, raw, 1.0), 0.0)
        a.grad += g * direction

    return _make(raw, a.mode, a.tape, (a,), backward)


# ---------------------------------------------------------------------------
# elementwise nonlinearities
# ---------------------------------------------------------------------------


def _elementwise(a: Node, fn, dfn) -> Node:
    raw = fn(a.data)

    def backward(g):
        a.grad += g * dfn(a.data, raw)

    return _make(raw, a.mode, a.tape, (a,), backward)


def tanh(a: Node) -> Node:
    return _elementwise(a, np.tanh, lambda x, y: 1.0 - np.tanh(x) ** 2)


def arctanh(a: Node) -> Node:
    if np.any(np.abs(a.data) >= 1.0):
        raise BoundaryCollapseError(
            f"arctanh domain violated: max |x| = {np.max(np.abs(a.data))}"
        )
    return _elementwise(a, np.arctanh, lambda x, y: 1.0 / (1.0 - x * x))


def relu(a: Node) -> Node:
    return _elementwise(a, lambda x: np.maximum(x, 0.0), lambda x, y: (x > 0).astype(np.float64))


def softplus(a: Node) -> Node:
    return _elementwise(
        a,
        lambda x: np.logaddexp(0.0, x),
        lambda x, y: 1.0 / (1.0 + np.exp(-x)),
    )


def sigmoid(a: Node) -> Node:
    raw = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        a.grad += g * raw * (1.0 - raw)

    return _make(raw, a.mode, a.tape, (a,), backward)


def exp(a: Node) -> Node:
    raw = np.exp(a.data)

    def backward(g):
        a.grad += g * raw

    return _make(raw, a.mode, a.tape, (a,), backward)


def log(a: Node) -> Node:
    return _elementwise(a, np.log, lambda x, y: 1.0 / x)


def sqrt(a: Node) -> Node:
    raw = np.sqrt(a.data)

    def backward(g):
        a.grad += g * 0.5 / raw

    return _make(raw, a.mode, a.tape, (a,), backward)


def _tanhc_raw(x):
    small = np.abs(x) < 1e-8
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0, np.tanh(safe) / safe)


def tanhc(a: Node) -> Node:
    """tanh(x)/x extended by continuity to 1 at x = 0."""

    def dfn(x, y):
        small = np.abs(x) < 1e-6
        safe = np.where(small, 1.0, x)
        t = np.tanh(safe)
        main = ((1.0 - t * t) * safe - t) / (safe * safe)
        return np.where(small, -2.0 * x / 3.0, main)

    return _elementwise(a, _tanhc_raw, dfn)


def _artanhc_raw(x):
    small = np.abs(x) < 1e-8
    safe = np.where(small, 0.5, x)
    return np.where(small, 1.0, np.arctanh(safe) / safe)


def artanhc(a: Node) -> Node:
    """arctanh(x)/x extended by continuity to 1 at x = 0; domain |x| < 1."""
    if np.any(np.abs(a.data) >= 1.0):
        raise BoundaryCollapseError(
            f"arctanh domain violated: max |x| = {np.max(np.abs(a.data))}"
        )

    def dfn(x, y):
        small = np.abs(x) < 1e-6
        safe = np.where(small, 0.5, x)
        main = (safe / (1.0 - safe * safe) - np.arctanh(safe)) / (safe * safe)
        return np.where(small, 2.0 * x / 3.0, main)

    return _elementwise(a, _artanhc_raw, dfn)


def clamp(a: Node, lo: float, hi: float) -> Node:
    raw = np.clip(a.data, lo, hi)

    def backward(g):
        a.grad += g * ((a.data > lo) & (a.data < hi))

    return _make(raw, a.mode, a.tape, (a,), backward)


def minimum(a: Node, b: Node) -> Node:
    """Elementwise minimum; ties route the gradient to the first operand."""
    mode = _same_mode(a, b)
    take_a = a.data <= b.data

    def backward(g):
        a.grad += _unbroadcast(np.where(take_a, g, 0.0), a.shape)
        b.grad += _unbroadcast(np.where(take_a, 0.0, g), b.shape)

    return _make(np.minimum(a.data, b.data), mode, a.tape, (a, b), backward)


# ---------------------------------------------------------------------------
# structured ops
# ---------------------------------------------------------------------------


def cross_entropy(logits: Node, labels) -> Node:
    """Mean softmax cross-entropy against integer class labels."""
    labels = np.asarray(labels, dtype=np.intp)
    n, k = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match {n} rows")
    if np.any(labels < 0) or np.any(labels >= k):
        raise ValueError("label out of range")
    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    logsum = zmax + np.log(np.exp(z - zmax).sum(axis=1, keepdims=True))
    ce = float(np.mean(logsum[:, 0] - z[np.arange(n), labels]))
    softmax = np.exp(z - logsum)

    def backward(g):
        local = softmax.copy()
        local[np.arange(n), labels] -= 1.0
        logits.grad += g[0, 0] * local / n

    return _make(np.array([[ce]]), logits.mode, logits.tape, (logits,), backward)


def median_pool(a: Node, groups) -> Node:
    """Per-group, per-column median; even-sized groups average the two
    central values.  Gradient routes to the selected element(s)."""
    groups = np.asarray(groups, dtype=np.intp)
    n, d = a.shape
    if groups.shape != (n,):
        raise ShapeError("group assignment must give one id per row")
    ids = np.unique(groups)
    out = np.empty((len(ids), d))
    routes = []  # (out_row, source_rows, weight)
    for gi, gid in enumerate(ids):
        rows = np.flatnonzero(groups == gid)
        if rows.size == 0:
            raise ValueError(f"empty group {gid}")
        block = a.data[rows]
        out[gi] = np.median(block, axis=0)
        order = np.argsort(block, axis=0, kind="stable")
        m = rows.size
        if m % 2 == 1:
            routes.append((gi, rows[order[m // 2]], 1.0))
        else:
            routes.append((gi, rows[order[m // 2 - 1]], 0.5))
            routes.append((gi, rows[order[m // 2]], 0.5))
    cols = np.arange(d)

    def backward(g):
        for gi, src, w in routes:
            a.grad[src, cols] += w * g[gi]

    return _make(out, a.mode, a.tape, (a,), backward)


def dropout(a: Node, p: float, rng: np.random.Generator) -> Node:
    """Inverted dropout; identity when p == 0."""
    if p <= 0.0:
        return a
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability {p} outside [0, 1)")
    mask = (rng.random(a.shape) >= p) / (1.0 - p)

    def backward(g):
        a.grad += g * mask

    return _make(a.data * mask, a.mode, a.tape, (a,), backward)


# ---------------------------------------------------------------------------
# numerical gradient oracle
# ---------------------------------------------------------------------------


def finite_diff_grad(f: Callable[[np.ndarray], float], x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, entry by entry,
    computed in double precision.  The oracle against which the tape is
    checked; it never touches the tape."""
    x = np.array(x.data if isinstance(x, Matrix) else x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = f(x)
        x[idx] = orig - h
        fm = f(x)
        x[idx] = orig
        grad[idx] = (fp - fm) / (2.0 * h)
        it.iternext()
    return grad
