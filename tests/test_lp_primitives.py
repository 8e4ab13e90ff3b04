"""Oracle tests of the link-prediction decoder and loss as fused tape
primitives: forward and gradient bits against the composed tape they
replace, gradients against finite differences, refusals, and the tape's
size and memory in a training epoch."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shgcn import autodiff as ad
from shgcn.autodiff import LP_CLAMP, Tape, finite_diff_grad
from shgcn.graphs import parse_synthetic, sample_negative_edges, split_edges, tree_graph
from shgcn.layers import (
    LAYER_KINDS,
    DecoderConfig,
    GraphModel,
    ModelConfig,
    fermi_dirac_edge_scores,
    fermi_dirac_score,
)
from shgcn.precision import Precision
from shgcn.training import lp_loss, train_link_prediction

# ---------------------------------------------------------------------------
# the composed reference: one tape node per operation
# ---------------------------------------------------------------------------


def composed_scores(z, pairs, r=2.0, t=1.0):
    pairs = np.asarray(pairs, dtype=np.intp)
    zi = ad.gather_rows(z, pairs[:, 0])
    zj = ad.gather_rows(z, pairs[:, 1])
    diff = zi - zj
    d2 = ad.row_sum(diff * diff)
    return ad.sigmoid((r - d2) * (1.0 / t))


def composed_loss(pos_scores, neg_scores):
    for s in (pos_scores, neg_scores):
        if np.any(s.data < 0.0) or np.any(s.data > 1.0):
            raise ValueError("scores must lie in [0, 1]")
    pos = ad.clamp(pos_scores, LP_CLAMP, 1.0 - LP_CLAMP)
    neg = ad.clamp(neg_scores, LP_CLAMP, 1.0 - LP_CLAMP)
    one = neg.tape.constant(1.0, mode=neg.mode)
    return -(ad.mean_all(ad.log(pos))) - ad.mean_all(ad.log(one - neg))


def same_bits(a, b) -> bool:
    """Equal shapes and equal bits, except that any two NaNs match (a NaN's
    sign may differ between x + (-y) and x - y)."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


# ---------------------------------------------------------------------------
# generated cases
# ---------------------------------------------------------------------------

EDGE_SCORES = (0.0, 1.0, LP_CLAMP, 1.0 - LP_CLAMP)


@st.composite
def decoder_cases(draw):
    """z of n <= 8 rows and d <= 6 columns, two pair lists whose first pair
    is also repeated reversed and followed by a self-pair, a finite r and
    t in (0, 10]."""
    n = draw(st.integers(1, 8))
    d = draw(st.integers(1, 6))
    z = np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=n * d, max_size=n * d)))
    node = st.integers(0, n - 1)

    def pair_list():
        pairs = draw(st.lists(st.tuples(node, node), min_size=1, max_size=10))
        (i, j) = pairs[0]
        return np.array(pairs + [(j, i), (i, i)], dtype=np.intp)

    r = draw(st.floats(-20.0, 20.0))
    t = draw(st.floats(0.0, 10.0, exclude_min=True))
    return z.reshape(n, d), pair_list(), pair_list(), r, t


def score_lists(values=st.floats(0.0, 1.0)):
    return st.lists(st.one_of(st.sampled_from(EDGE_SCORES), values), min_size=1, max_size=12)


def run_chain(decoder, loss, z0, pos_pairs, neg_pairs, r, t, mode):
    """Decoder on both pair lists, the loss, and a keeping backward ->
    (pos scores, neg scores, loss, z grad, pos grad, neg grad)."""
    tape = Tape()
    z = tape.variable(z0, mode)
    with np.errstate(all="ignore"):  # half rounds the clamp to 0: log(0), 0·inf
        pos = decoder(z, pos_pairs, r, t)
        neg = decoder(z, neg_pairs, r, t)
        root = loss(pos, neg)
        tape.backward(root)
    return pos.data, neg.data, root.data, z.grad, pos.grad, neg.grad


@settings(max_examples=150, derandomize=True, deadline=None)
@given(decoder_cases())
@example((np.array([[0.5, -1.0], [2.0, 0.25], [-1.5, 3.0]]),
          np.array([[0, 1], [1, 2], [2, 0], [1, 0], [0, 0]]),
          np.array([[2, 1], [0, 2], [1, 1], [1, 2], [2, 2]]), 1.3, 0.7))
def test_decoder_and_loss_repeat_the_composed_tape_bit_for_bit(case):
    z0, pos_pairs, neg_pairs, r, t = case
    for mode in Precision:
        fused = run_chain(fermi_dirac_edge_scores, lp_loss, z0, pos_pairs, neg_pairs, r, t, mode)
        composed = run_chain(composed_scores, composed_loss, z0, pos_pairs, neg_pairs, r, t,
                             mode)
        names = ("pos scores", "neg scores", "loss", "z grad", "pos grad", "neg grad")
        for name, a, b in zip(names, fused, composed):
            assert same_bits(a, b), (mode, name, a, b)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(score_lists(), score_lists())
def test_loss_repeats_the_composed_tape_bit_for_bit(pos0, neg0):
    for mode in Precision:
        out = []
        for loss in (lp_loss, composed_loss):
            tape = Tape()
            pos = tape.variable(np.array(pos0)[:, None], mode)
            neg = tape.variable(np.array(neg0)[:, None], mode)
            with np.errstate(all="ignore"):
                root = loss(pos, neg)
                tape.backward(root * 3.0)  # an incoming gradient other than 1
            out.append((root.data, pos.grad, neg.grad))
        for a, b in zip(*out):
            assert same_bits(a, b), (mode, a, b)


# A central difference with step h·t is within h²·max|s'''|·t² / 6 of the
# derivative; on these draws 1e-4 relative to the largest entry holds.
@settings(max_examples=60, derandomize=True, deadline=None)
@given(decoder_cases(), st.data())
def test_decoder_gradient_agrees_with_finite_differences(case, data):
    z0, pairs, _, r, t = case
    t = max(t, 0.05)
    w = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=len(pairs),
                                    max_size=len(pairs))))[:, None]

    def f(z):
        return float(np.mean(w * fermi_dirac_edge_scores(Tape().constant(z), pairs, r, t).data))

    tape = Tape()
    z = tape.variable(z0)
    tape.backward(ad.mean_all(fermi_dirac_edge_scores(z, pairs, r, t) * tape.constant(w)))
    numeric = finite_diff_grad(f, z0, h=1e-5 * min(t, 1.0))
    scale = max(np.abs(numeric).max(), 1e-3)
    assert np.abs(z.grad - numeric).max() <= 1e-4 * scale


# -log p has third derivative 2/p³, so a step of 1e-6 on scores in
# [0.01, 0.99] errs by under 1e-6 relative to the gradient 1/(m·p).
@settings(max_examples=60, derandomize=True, deadline=None)
@given(*[st.lists(st.floats(0.01, 0.99), min_size=1, max_size=12)] * 2)
def test_loss_gradient_agrees_with_finite_differences(pos0, neg0):
    pos0, neg0 = np.array(pos0)[:, None], np.array(neg0)[:, None]
    tape = Tape()
    pos, neg = tape.variable(pos0), tape.variable(neg0)
    tape.backward(lp_loss(pos, neg))

    def loss_at(p, q):
        t = Tape()
        return lp_loss(t.constant(p), t.constant(q)).item()

    for grad, numeric in ((pos.grad, finite_diff_grad(lambda p: loss_at(p, neg0), pos0, h=1e-6)),
                          (neg.grad, finite_diff_grad(lambda q: loss_at(pos0, q), neg0, h=1e-6))):
        np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("clipped", EDGE_SCORES)
def test_loss_sends_nothing_to_a_clipped_score(clipped):
    tape = Tape()
    pos = tape.variable([[clipped], [0.5]])
    neg = tape.variable([[clipped], [0.5]])
    tape.backward(lp_loss(pos, neg))
    assert pos.grad[0, 0] == 0.0 and neg.grad[0, 0] == 0.0
    assert pos.grad[1, 0] == -1.0 and neg.grad[1, 0] == 1.0


def test_constant_inputs_record_no_rule():
    tape = Tape()
    z = tape.constant(np.arange(6.0).reshape(3, 2))
    scores = fermi_dirac_edge_scores(z, [[0, 1], [2, 2]])
    loss = lp_loss(scores, fermi_dirac_edge_scores(z, [[1, 2]]))
    for node in (scores, loss):
        assert not node.requires_grad and node._backward is None and node._parents == ()
    assert tape._nodes == []


# ---------------------------------------------------------------------------
# refusals: before this check, t = -1 gave 0.269 for the pair below instead
# of 0.731, t = 0 raised ZeroDivisionError and a NaN gave NaN scores
# ---------------------------------------------------------------------------

BAD_DECODER = [
    (2.0, -1.0, "temperature t must be positive and finite"),
    (2.0, 0.0, "temperature t must be positive and finite"),
    (2.0, math.nan, "temperature t must be positive and finite"),
    (2.0, math.inf, "temperature t must be positive and finite"),
    (math.nan, 1.0, "radius r must be finite"),
    (math.inf, 1.0, "radius r must be finite"),
    (-math.inf, 1.0, "radius r must be finite"),
]


@pytest.mark.parametrize("r, t, message", BAD_DECODER)
def test_decoder_refuses_a_bad_temperature_or_radius(r, t, message):
    tape = Tape()
    z = tape.variable([[0.0], [1.0]])
    with pytest.raises(ValueError, match=message):
        fermi_dirac_edge_scores(z, [[0, 1]], r, t)
    with pytest.raises(ValueError, match=message):
        DecoderConfig(r=r, t=t)
    with pytest.raises(ValueError, match=message):
        fermi_dirac_score([0.0], [1.0], r, t)
    assert len(tape._nodes) == 1  # the variable alone


# ---------------------------------------------------------------------------
# the tape in training
# ---------------------------------------------------------------------------


def test_an_lp_epoch_records_three_nodes_after_the_forward(monkeypatch):
    """The composed decoder and loss recorded 25 nodes per epoch: 8 per
    decoder call and 9 for the loss."""
    after_forward = weakref.WeakKeyDictionary()
    gained = []
    forward, backward = GraphModel.forward, Tape.backward

    def counted_forward(self, tape, *args, **kwargs):
        out = forward(self, tape, *args, **kwargs)
        after_forward[tape] = len(tape._nodes)
        return out

    def counted_backward(self, root, *args, **kwargs):
        gained.append(len(self._nodes) - after_forward[self])
        return backward(self, root, *args, **kwargs)

    monkeypatch.setattr(GraphModel, "forward", counted_forward)
    monkeypatch.setattr(Tape, "backward", counted_backward)
    graph = tree_graph(3, 4)
    split = split_edges(graph, (0.85, 0.05, 0.10), 0)
    for kind in LAYER_KINDS:
        gained.clear()
        train_link_prediction(ModelConfig(layer_kind=kind), graph, split, epochs=3, patience=10)
        assert gained == [3, 3, 3], kind


def test_decoder_and_loss_peak_memory_on_tree_3_7():
    """Forward and releasing backward over tree:3,7's 2,787 training pairs
    and as many negatives, z (3280, 16).  Traced peak: 4.59 MiB for the
    composed tape (25 nodes, 3.02 MiB held after the forward), 2.04 MiB
    fused (0.77 MiB held)."""
    graph = parse_synthetic("tree:3,7")
    split = split_edges(graph, (0.85, 0.05, 0.10), 0)
    neg = sample_negative_edges(graph, len(split.train_pos), np.random.default_rng(101))
    tape = Tape()
    z = tape.variable(np.random.default_rng(0).normal(size=(graph.n, 16)))
    tracemalloc.start()
    try:
        loss = lp_loss(fermi_dirac_edge_scores(z, split.train_pos),
                       fermi_dirac_edge_scores(z, neg))
        tape.backward(loss, release=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(split.train_pos) == 2787
    assert peak < 3 * 2**20
