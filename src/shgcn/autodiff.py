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
  the Matrix adopts it without a copy.  Gradient rules may keep a
  reference to it for reading.
- Every stored array is read-only.  Gradient buffers (``Node.grad``) are
  plain writable C-contiguous float64 arrays.

Gradients: ``Tape.variable`` makes a leaf that wants a gradient and
``Tape.constant`` one that never gets one.  A primitive is its forward
expression plus one rule per operand, recorded by ``_record``.  A rule maps
the incoming gradient ``g`` to that operand's contribution and returns a
new array, ``g`` itself, a view of ``g``, or None when it sends nothing
(scatters write into the operand's buffer and return None).  The engine,
not the rule, decides the rest: it checks that the operands share one
mode and one tape, keeps no parents and no rules for a node computed from
constants alone, runs a rule only for an operand that needs a gradient,
and sums a contribution longer than its operand down to the operand's
shape with `_summed`.  A rule whose contribution is a product, `mul`'s
and `div`'s for a broadcast divisor, hands both factors to `_summed`
itself, so the product is summed as it is formed.  During
``Tape.backward`` a node's buffer is created by its first contribution:
adopted when it is a new array, copied when it is ``g`` or a view of it, so
no two nodes share a buffer.  A node that no contribution reaches keeps
``grad is None`` and its rules never run; variables among them get zeros
once the sweep is done.

Broadcasts and reductions: most of a Poincaré map's work is scaling an
(n, d) block by (n, 1) row factors and summing gradients back down to
them.  numpy's broadcasting ``*`` runs short inner loops of d entries,
and summing a product means a second pass over an (n, d) temporary;
`_summed` does either in one ``np.einsum`` pass (µs on a (3280, 16)
block, 2-vCPU Xeon, the call into `_summed` included):

    ===================================  =====  =======================
    numpy                                numpy  einsum
    ===================================  =====  =======================
    ``(a*a).sum(axis=1)`` (`row_norm`)      73  19 (``ij,ij->i``)
    ``(g*r).sum(axis=1)``, r (1, d)         90  18 (``ij,ij->i``)
    ``(g*b).sum(axis=0)``, b (n, 1)         90  19 (``ij,ij->j``)
    ``g.sum(axis=0)``                       58  14 (``ij->j``)
    ``g.sum(axis=1)``                       54  14 (``ij->i``)
    ``b*r``, b (n, 1), r (1, d)             50  28 (``ij,ij->ij``)
    ``a*b``, b (n, 1)                       36  30 (``ij,ij->ij``)
    ===================================  =====  =======================

Never BLAS and never ``optimize=True``: a BLAS product may add in another
order under another thread count.  `_summed` says where its bits differ
from numpy's.

Fused structured ops: `fermi_dirac_edge_scores` and `lp_loss` each record
one node where the composed tape recorded 8 per decoder call and 9 for
the loss, and keep only the arrays their rules read (the decoder: the
(m, d) pair differences and the (m, 1) logistic; the loss: the clipped
scores), not every intermediate.  They give the composed tape's bits
because they repeat its arithmetic:

- forward, each intermediate is rounded to the mode in the composed
  order, constants (r, 1/t) included;
- a rule reads what the composed rule read: the decoder's the unrounded
  logistic, as `sigmoid`'s did, and the rounded differences;
- a rule multiplies its factors in the composed chain's order, and a sum
  of two contributions to one buffer (the square's two operands) is c + c;
- the decoder scatters the second endpoints' rows before the first
  endpoints', the order in which the two gathers' rules ran.  One epoch
  scores the negatives after the positives, so the negatives' rule
  scatters first, as before.

`tests/test_lp_primitives.py` keeps the composed versions as the oracle.

Lifetime: a Node holds its Tape, its parents and its backward rules; the
Tape holds its Nodes only through weak references.  There is no reference
cycle, so a tape and its arrays are freed by reference counting as soon as
the caller drops the tape and every node of it, without waiting for the
cyclic garbage collector.  Nodes that no live node depends on are freed
while the forward pass is still running.  ``Tape.backward(root,
release=True)`` also drops each non-leaf node's gradient buffer as soon as
its rule has run, since nothing reads it after that: only the variables
keep gradients, and the allocator can hand the freed memory to the rest of
the sweep.  The default keeps every buffer, for inspection and tests.
Training (`training._fit`) drops each epoch's tape once its step is taken,
so one tape is alive at a time, and sets glibc's malloc to keep the freed
pages for the next tape instead of handing them back to the kernel.
"""

from __future__ import annotations

import math
import weakref
from typing import Callable

import numpy as np

from .errors import BoundaryCollapseError, ShapeError
from .precision import Precision, round_array


class Matrix:
    """Immutable 2-D value.  Stored entries are already rounded to `mode`,
    so re-rounding is a no-op; a finite entry beyond the mode's range is
    stored as an infinity."""

    __slots__ = ("data", "mode")

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
        # rounding to double is the identity
        rounded = raw if mode is Precision.DOUBLE else round_array(raw, mode)
        rounded.setflags(write=False)
        object.__setattr__(self, "data", rounded)
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Matrix({self.data!r}, mode={self.mode.value})"


class Node:
    """A tape entry: a Matrix value plus links to its parents and the local
    backward rule that scatters an incoming gradient to them.

    `requires_grad` is False for constants and for nodes computed from
    constants alone; those are left off the tape's sweep and their `grad`
    stays None.  Otherwise `grad` is None until backward sends the node its
    first contribution."""

    __slots__ = ("value", "grad", "tape", "requires_grad", "_parents", "_backward",
                 "__weakref__")

    def __init__(self, value: Matrix, tape: "Tape", parents=(), backward=None,
                 requires_grad: bool = True):
        self.value = value
        self.grad = None
        self.tape = tape
        self.requires_grad = requires_grad
        self._parents = tuple(parents)
        self._backward = backward
        if requires_grad:
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
        """A leaf that gets no gradient: its `grad` stays None and backward
        rules compute nothing for it."""
        value = data if isinstance(data, Matrix) else Matrix(data, mode)
        return Node(value, self, requires_grad=False)

    def backward(self, root: Node, release: bool = False) -> None:
        """Reverse accumulation from a scalar root.  Each node that the
        root's gradient reaches gets a buffer of its own, created by its
        first contribution; a node it does not reach keeps None, except
        that variables get zeros.  Constants keep None.  With `release`, a
        non-leaf node's buffer is dropped once its rule has run, so only
        the variables hold gradients afterwards; training sweeps this way.
        `release=False` keeps every buffer and exists for inspection and
        for tests that use it as the reference sweep."""
        if root.tape is not self:
            raise ShapeError("root node belongs to a different tape")
        if root.value.shape != (1, 1):
            raise ShapeError(
                f"backward root must be scalar (1x1), got shape {root.value.shape}"
            )
        nodes = [node for node in (ref() for ref in self._nodes) if node is not None]
        for node in nodes:
            node.grad = None
        if root.requires_grad:
            root.grad = np.ones((1, 1), dtype=np.float64)
        for node in reversed(nodes):
            if node.grad is not None and node._backward is not None:
                node._backward(node.grad)
                if release:
                    node.grad = None
        for node in nodes:
            if node.grad is None and node._backward is None:  # an unreached variable
                node.grad = np.zeros(node.value.shape, dtype=np.float64)


def _record(raw: np.ndarray, operands: tuple, *rules) -> Node:
    """Record a primitive's result, with one gradient rule per operand.

    `raw` must be a fresh C-contiguous float64 array that the caller hands
    over, and the operands must share one mode and one tape.  A rule maps
    the incoming gradient `g` to its operand's contribution: a new array,
    `g` itself, a view of `g`, or None when it sends nothing (a scatter
    writes into `_buffer(operand)` and returns None).  The engine runs a
    rule only for an operand that needs a gradient, sums a contribution
    longer than its operand down to the operand's shape, and adopts it as
    the operand's buffer only when it is neither `g` nor a view.  A result
    of constants alone drops its operands and rules."""
    first = operands[0]
    mode, tape = first.value.mode, first.tape
    for p in operands[1:]:
        if p.value.mode is not mode:
            raise ShapeError(f"mixed precision modes: {mode.value} vs {p.value.mode.value}")
        if p.tape is not tape:
            raise ShapeError("operands belong to different tapes")
    value = Matrix._adopt(raw, mode)
    sends = [(p, rule) for p, rule in zip(operands, rules) if p.requires_grad]
    if not sends:
        return Node(value, tape, requires_grad=False)

    def backward(g):
        for p, rule in sends:
            c = rule(g)
            if c is not None:
                shape = p.value.data.shape
                if c.shape[0] > shape[0] or c.shape[1] > shape[1]:
                    c = _summed(shape, c)
                _accumulate(p, c, fresh=c is not g and c.base is None)

    return Node(value, tape, operands, backward)


def _accumulate(node: Node, g: np.ndarray, fresh: bool) -> None:
    """Add contribution `g` to node's gradient.  The first contribution
    becomes the buffer: adopted when `fresh` (a new array that nothing else
    holds), otherwise copied and broadcast to the node's shape."""
    if node.grad is not None:
        node.grad += g
    elif fresh and g.shape == node.value.shape and g.flags.c_contiguous:
        node.grad = g
    else:
        node.grad = np.broadcast_to(g, node.value.shape).copy()


def _buffer(node: Node) -> np.ndarray:
    """Node's gradient buffer for a scatter, created as zeros if absent."""
    if node.grad is None:
        node.grad = np.zeros(node.value.shape, dtype=np.float64)
    return node.grad


def _finite(x: np.ndarray) -> np.ndarray:
    """x with NaN and infinities set to zero; x itself when all finite."""
    if np.isfinite(x).all():
        return x
    return np.nan_to_num(x, nan=0.0, posinf=0.0, neginf=0.0)


# einsum subscripts of x and of x·y summed down to a shape, keyed by which
# of its axes have length 1, and the view of the result that they write
_SUMS = {
    (False, False): ("ij->ij", "ij,ij->ij", ...),
    (False, True): ("ij->i", "ij,ij->i", (slice(None), 0)),
    (True, False): ("ij->j", "ij,ij->j", 0),
    (True, True): ("ij->", "ij,ij->", (0, 0, ...)),
}


def _summed(shape, x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """x·y broadcast (x alone when y is None), summed down to `shape` ->
    fresh C-ordered float64 array, in one einsum pass: both inputs are
    labelled "ij", and einsum broadcasts a length-1 axis against its label.
    einsum adds each product to a zeroed output, so a lone product of -0.0
    reads +0.0 (and where two NaNs meet, either may be kept).  Two cases
    keep numpy's bits instead: a product with nothing to sum whose operands
    have one shape, or one of which is (1, 1), is ``np.multiply``; x alone
    summed over its rows is ``x.sum(axis=0)`` when x has one column or is
    not C-ordered, since numpy adds a contiguous column pairwise.  Any other
    sum down to a (1, d) row keeps the bits of ``sum(axis=0)``; one down to
    an (n, 1) column or a (1, 1) scalar adds in another order than ``sum``,
    within (N - 1)·eps·sum|x·y| of it for N terms per sum."""
    if y is None:
        if shape[0] == 1 and (x.shape[1] == 1 or not x.flags.c_contiguous):
            x = x.sum(axis=0, keepdims=True)
            if x.shape == shape:
                return x
    elif x.shape == shape and (y.shape == shape or y.size == 1) or y.shape == shape and x.size == 1:
        return np.multiply(x, y, order="C")
    alone, product, view = _SUMS[shape[0] == 1, shape[1] == 1]
    out = np.empty(shape)
    if y is None:
        np.einsum(alone, x, out=out[view])
    else:
        np.einsum(product, x, y, out=out[view])
    return out


# ---------------------------------------------------------------------------
# elementwise arithmetic (numpy broadcasting applies)
# ---------------------------------------------------------------------------


def add(a: Node, b: Node) -> Node:
    return _record(a.data + b.data, (a, b), lambda g: g, lambda g: g)


def sub(a: Node, b: Node) -> Node:
    # x + (-y) is x - y exactly
    return _record(a.data - b.data, (a, b), lambda g: g, lambda g: -g)


def mul(a: Node, b: Node) -> Node:
    x, y = a.data, b.data
    shape = (max(x.shape[0], y.shape[0]), max(x.shape[1], y.shape[1]))
    # a broadcast operand's contribution comes already summed to its shape
    return _record(_summed(shape, x, y), (a, b),
                   lambda g: _summed(x.shape, g, y), lambda g: _summed(y.shape, g, x))


def div(a: Node, b: Node) -> Node:
    def rule_a(g):
        with np.errstate(divide="ignore", invalid="ignore"):
            return _finite(g / b.data)

    def rule_b(g):
        with np.errstate(divide="ignore", invalid="ignore"):
            if b.shape != g.shape:
                # sum first: a finite sum means every g·a term was finite,
                # and then a zero divisor's row or column comes out zeroed
                # as it does term by term; otherwise zero term by term
                s = _summed(b.shape, g, a.data)
                if np.isfinite(s).all():
                    return _finite(-s / (b.data * b.data))
            return _finite(-g * a.data / (b.data * b.data))

    with np.errstate(divide="ignore", invalid="ignore"):
        raw = a.data / b.data
    return _record(raw, (a, b), rule_a, rule_b)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def matmul(a: Node, b: Node) -> Node:
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    return _record(a.data @ b.data, (a, b), lambda g: g @ b.data.T, lambda g: a.data.T @ g)


def sparse_matmul(sparse, x: Node) -> Node:
    """Multiply a constant scipy CSR operator against a dense node."""
    if sparse.shape[1] != x.shape[0]:
        raise ShapeError(f"sparse matmul shape mismatch: {sparse.shape} @ {x.shape}")
    # the transpose of a CSR operator is a CSC view of the same arrays, and
    # its product adds terms in the same order as a rebuilt CSR
    return _record(sparse @ x.data, (x,), lambda g: sparse.T @ g)


def transpose(a: Node) -> Node:
    return _record(a.data.T.copy(), (a,), lambda g: g.T)


def _scatter_rows(a: Node, index: np.ndarray, rows: np.ndarray, at=np.add.at) -> None:
    """Add (or with `at=np.subtract.at`, subtract) rows[k] into row
    index[k] of a's gradient buffer, repeated indices included."""
    # one scalar scatter on the flat buffer adds to each entry in the same
    # order as a row scatter, and runs several times faster
    d = rows.shape[1]
    flat = (index[:, None] * d + np.arange(d)).reshape(-1)
    at(_buffer(a).reshape(-1), flat, rows.reshape(-1))


def gather_rows(a: Node, index) -> Node:
    index = np.asarray(index, dtype=np.intp)
    return _record(a.data[index], (a,), lambda g: _scatter_rows(a, index, g))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def sum_all(a: Node) -> Node:
    return _record(np.array([[a.data.sum()]]), (a,), lambda g: g)


def mean_all(a: Node) -> Node:
    size = a.data.size
    return _record(np.array([[a.data.mean()]]), (a,), lambda g: g / size)


def row_sum(a: Node) -> Node:
    """Sum along each row -> (n, 1)."""
    # the (n, 1) gradient broadcasts over (n, d)
    return _record(_summed((a.shape[0], 1), a.data), (a,), lambda g: g)


def row_norm(a: Node) -> Node:
    """Euclidean norm of each row -> (n, 1), accumulated in double.  Zero
    rows send no gradient."""
    # one einsum pass over the squares.  np.linalg.norm, which
    # geometry.row_norms matches bit for bit, adds them in another order;
    # the two differ in the last ulps, within (d - 1)·eps·sum(x²) before the
    # sqrt, so fused kernels built on row_norms will move trajectory bits
    raw = _summed((a.shape[0], 1), a.data, a.data)
    np.sqrt(raw, out=raw)

    def rule(g):
        if (raw > 0).all():
            return _summed(a.shape, a.data, g / raw)
        with np.errstate(divide="ignore", invalid="ignore"):
            direction = np.where(raw > 0, a.data / np.where(raw > 0, raw, 1.0), 0.0)
        return g * direction

    return _record(raw, (a,), rule)


# ---------------------------------------------------------------------------
# elementwise nonlinearities
# ---------------------------------------------------------------------------


def _elementwise(a: Node, fn, dfn) -> Node:
    return _record(fn(a.data), (a,), lambda g: g * dfn(a.data))


def tanh(a: Node) -> Node:
    return _elementwise(a, np.tanh, lambda x: 1.0 - np.tanh(x) ** 2)


def arctanh(a: Node) -> Node:
    if np.any(np.abs(a.data) >= 1.0):
        raise BoundaryCollapseError(
            f"arctanh domain violated: max |x| = {np.max(np.abs(a.data))}"
        )
    return _elementwise(a, np.arctanh, lambda x: 1.0 / (1.0 - x * x))


def relu(a: Node) -> Node:
    return _elementwise(a, lambda x: np.maximum(x, 0.0), lambda x: (x > 0).astype(np.float64))


def _logistic(x):
    with np.errstate(over="ignore"):  # exp(-x) = inf gives 1/(1 + inf) = 0, as it should
        return 1.0 / (1.0 + np.exp(-x))


def softplus(a: Node) -> Node:
    return _elementwise(a, lambda x: np.logaddexp(0.0, x), _logistic)


def sigmoid(a: Node) -> Node:
    raw = _logistic(a.data)
    return _record(raw, (a,), lambda g: g * raw * (1.0 - raw))


def exp(a: Node) -> Node:
    raw = np.exp(a.data)
    return _record(raw, (a,), lambda g: g * raw)


def log(a: Node) -> Node:
    return _elementwise(a, np.log, lambda x: 1.0 / x)


def sqrt(a: Node) -> Node:
    raw = np.sqrt(a.data)
    return _record(raw, (a,), lambda g: g * 0.5 / raw)


def _tanhc_raw(x):
    small = np.abs(x) < 1e-8
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0, np.tanh(safe) / safe)


def tanhc(a: Node) -> Node:
    """tanh(x)/x extended by continuity to 1 at x = 0."""

    def dfn(x):
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

    def dfn(x):
        small = np.abs(x) < 1e-6
        safe = np.where(small, 0.5, x)
        main = (safe / (1.0 - safe * safe) - np.arctanh(safe)) / (safe * safe)
        return np.where(small, 2.0 * x / 3.0, main)

    return _elementwise(a, _artanhc_raw, dfn)


def clamp(a: Node, lo: float, hi: float) -> Node:
    return _record(np.clip(a.data, lo, hi), (a,), lambda g: g * ((a.data > lo) & (a.data < hi)))


def minimum(a: Node, b: Node) -> Node:
    """Elementwise minimum; ties route the gradient to the first operand.
    An operand that no entry routes to gets no contribution."""
    take_a = a.data <= b.data
    return _record(
        np.minimum(a.data, b.data), (a, b),
        lambda g: np.where(take_a, g, 0.0) if take_a.any() else None,
        lambda g: None if take_a.all() else np.where(take_a, 0.0, g),
    )


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

    def rule(g):
        local = softmax.copy()
        local[np.arange(n), labels] -= 1.0
        return g[0, 0] * local / n

    return _record(np.array([[ce]]), (logits,), rule)


def check_fermi_dirac(r: float, t: float) -> None:
    """Refuse a Fermi-Dirac temperature outside (0, inf) or a non-finite
    radius: either would give plausible-looking scores (t < 0 flips them)
    or NaN ones."""
    if not 0.0 < t < math.inf:
        raise ValueError("Fermi-Dirac temperature t must be positive and finite")
    if not math.isfinite(r):
        raise ValueError("Fermi-Dirac radius r must be finite")


def _rounder(mode: Precision):
    """x -> x rounded to mode, as `Matrix` rounds a result (the identity in
    double): a fused primitive rounds each intermediate with it."""
    return (lambda x: x) if mode is Precision.DOUBLE else (lambda x: round_array(x, mode))


def fermi_dirac_edge_scores(z: Node, pairs, r: float = 2.0, t: float = 1.0) -> Node:
    """Edge probabilities 1 / (1 + exp((||z_i - z_j||² - r)/t)) for a (m, 2)
    array of node-index pairs -> (m, 1).  The distance is the plain squared
    Euclidean one: embeddings live in Euclidean space by the time they
    reach the decoder."""
    check_fermi_dirac(r, t)
    pairs = np.asarray(pairs, dtype=np.intp)
    first, second = pairs[:, 0], pairs[:, 1]
    rnd = _rounder(z.mode)
    scale = rnd(np.array([[1.0 / t]]))
    diff = rnd(z.data[first] - z.data[second])
    d2 = rnd(_summed((len(pairs), 1), rnd(diff * diff)))
    s = _logistic(rnd(rnd(rnd(np.array([[r]])) - d2) * scale))

    def rule(g):
        # the composed rules' products: sigmoid's, the 1/t factor's, r - d²'s
        # and the square's, whose two operands each send c
        c = -(g * s * (1.0 - s) * scale) * diff
        c += c
        _scatter_rows(z, second, c, np.subtract.at)  # x + (-y) is x - y exactly
        _scatter_rows(z, first, c)

    return _record(s, (z,), rule)


LP_CLAMP = 1e-12  # lp_loss clips scores to [LP_CLAMP, 1 - LP_CLAMP]


def lp_loss(pos_scores: Node, neg_scores: Node) -> Node:
    """Binary cross-entropy over edge probabilities:
    -mean(log pos) - mean(log(1 - neg)), each score first clipped to
    [LP_CLAMP, 1 - LP_CLAMP]."""
    for s in (pos_scores, neg_scores):
        if np.any(s.data < 0.0) or np.any(s.data > 1.0):
            raise ValueError("scores must lie in [0, 1]")
    lo, hi = LP_CLAMP, 1.0 - LP_CLAMP
    rnd = _rounder(pos_scores.mode)
    p, n = pos_scores.data, neg_scores.data
    pos = rnd(np.clip(p, lo, hi))
    neg = rnd(np.clip(n, lo, hi))
    pos_term = rnd(np.array([[rnd(np.log(pos)).mean()]]) * -1.0)
    neg_one = rnd(1.0 - neg)
    neg_term = rnd(np.array([[rnd(np.log(neg_one)).mean()]]))
    return _record(
        rnd(pos_term - neg_term), (pos_scores, neg_scores),
        lambda g: (g * -1.0) / p.size * (1.0 / pos) * ((p > lo) & (p < hi)),
        lambda g: -((-g) / n.size * (1.0 / neg_one)) * ((n > lo) & (n < hi)),
    )


def median_pool(a: Node, groups) -> Node:
    """Per-group, per-column median, one result row per group id in
    ascending order; an even-sized group averages its two central values,
    as np.median does.  The gradient goes to the row(s) holding the
    central value(s), with weight 1 or 1/2.

    - Ties: the central slots are those of a stable sort of the group's
      rows, so among equal values (+0.0 and -0.0 included) the row that
      comes first in `a` is ranked first.
    - NaN: a group column holding a NaN gives NaN, as np.median does; its
      gradient still follows the stable sort, which ranks NaN last.
    - Memory: the groups are laid out as one NaN-padded (d, G, max_count)
      block, G·max_count·d floats, which is n·d when every group has the
      same size.

    The block is sorted once, and each central value's source row is the
    slot that holds it.  Only lanes where that slot is not unique (ties,
    NaN) are sorted again, stably."""
    groups = np.asarray(groups, dtype=np.intp)
    n, d = a.shape
    if groups.shape != (n,):
        raise ShapeError("group assignment must give one id per row")
    _, counts = np.unique(groups, return_counts=True)
    # at least one slot, so that no rows give an empty result
    real = np.arange(max(counts.max(initial=0), 1)) < counts[:, None]
    table = np.full(real.shape, n)  # (G, max_count) source rows; n is the pad row
    table[real] = np.argsort(groups, kind="stable")
    padded = np.empty((d, n + 1))
    padded[:, :n] = a.data.T
    padded[:, n] = np.nan
    block = padded[:, table]  # (d, G, max_count): one lane per column and group
    ranked = np.sort(block, axis=-1)  # NaN last, pads included
    lane = np.arange(len(counts))
    has_nan = np.isnan(ranked[:, lane, counts - 1])
    central = ((counts - 1) // 2, counts // 2)
    values, slots, unsure = [], [], has_nan
    for rank in central:
        value = ranked[:, lane, rank]
        hits = block == value[..., None]
        values.append(value)
        slots.append(hits.argmax(axis=-1))
        unsure = unsure | (np.count_nonzero(hits, axis=-1) != 1)
    col, grp = np.nonzero(unsure)
    if col.size:
        stable = np.argsort(block[col, grp], axis=-1, kind="stable")
        for rank, slot in zip(central, slots):
            slot[col, grp] = stable[np.arange(col.size), rank[grp]]
    even = np.broadcast_to(counts % 2 == 0, unsure.shape)
    with np.errstate(invalid="ignore", over="ignore"):
        # + 0.0 makes a -0.0 median +0.0, as np.median's sum does
        out = np.where(even, (values[0] + values[1]) / 2, values[0]) + 0.0
    out = np.ascontiguousarray(np.where(has_nan, np.nan, out).T)
    # routes: the lower central row of every lane, the upper of even ones;
    # their (row, column) targets are distinct
    lo, hi = (table[lane, slot] for slot in slots)
    cols, grps = np.indices(unsure.shape)
    src = np.concatenate([lo.ravel(), hi[even]])
    cols = np.concatenate([cols.ravel(), cols[even]])
    grps = np.concatenate([grps.ravel(), grps[even]])
    weight = np.where(np.concatenate([even.ravel(), even[even]]), 0.5, 1.0)

    def rule(g):
        _buffer(a)[src, cols] += weight * g[grps, cols]

    return _record(out, (a,), rule)


def dropout(a: Node, p: float, rng: np.random.Generator) -> Node:
    """Inverted dropout; identity when p == 0."""
    if p <= 0.0:
        return a
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability {p} outside [0, 1)")
    mask = (rng.random(a.shape) >= p) / (1.0 - p)
    return _record(a.data * mask, (a,), lambda g: g * mask)


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
