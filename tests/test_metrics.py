import numpy as np
import pytest

from shgcn.metrics import _rank_with_ties, classification_metrics, mean_absolute_error, roc_auc


def test_auc_perfect_ranking():
    assert roc_auc([0.9, 0.1], [1, 0]) == 1.0


def test_auc_all_ties():
    assert roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5


def test_auc_worked_three_case():
    # two pos-neg pairs, one ranked correctly and one not
    assert roc_auc([0.9, 0.8, 0.1], [1, 0, 1]) == 0.5


def test_auc_single_class_error():
    with pytest.raises(ValueError):
        roc_auc([0.5, 0.6], [1, 1])


def test_auc_monotone_transform_invariant():
    rng = np.random.default_rng(0)
    scores = rng.uniform(0, 1, 50)
    labels = rng.integers(0, 2, 50)
    if labels.sum() in (0, 50):
        labels[0] = 1 - labels[0]
    base = roc_auc(scores, labels)
    for transform in (lambda s: 3 * s + 1, np.exp, lambda s: s**3, np.tanh):
        assert abs(roc_auc(transform(scores), labels) - base) < 1e-12


def test_auc_agrees_with_pair_counting():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=30)
    labels = rng.integers(0, 2, 30)
    labels[0], labels[1] = 0, 1
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
    assert abs(roc_auc(scores, labels) - wins / (len(pos) * len(neg))) < 1e-12


def test_classification_perfect():
    out = classification_metrics([1, 0, 1], [1, 0, 1])
    assert out == {"accuracy": 1.0, "f1": 1.0}


def test_classification_all_negative_predictions():
    out = classification_metrics([0, 0, 0], [1, 0, 1])
    assert out["f1"] == 0.0


def test_classification_worked_four_case():
    out = classification_metrics([1, 1, 0, 0], [1, 0, 1, 0])
    assert out["accuracy"] == 0.5
    assert out["f1"] == 0.5


def test_classification_macro_average():
    out = classification_metrics([0, 1, 2], [0, 1, 1], average="macro")
    assert 0.0 < out["f1"] < 1.0


def test_classification_empty_error():
    with pytest.raises(ValueError):
        classification_metrics([], [])


def test_mae():
    assert mean_absolute_error([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mean_absolute_error([1.0, 3.0], [2.0, 1.0]) == 1.5


def reference_rank_with_ties(values: np.ndarray) -> np.ndarray:
    """The Python tie loop that the vectorised ranking replaced."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.arange(1, len(values) + 1)
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        if j > i:
            ranks[order[i : j + 1]] = 0.5 * (i + 1 + j + 1)
        i = j + 1
    return ranks


@pytest.mark.parametrize("values", [
    [3.0, 1.0, 2.0, 5.0, 4.0],
    [0.7] * 6,
    [0.2, 0.5, 0.2, 0.9, 0.5, 0.5, 0.1, 0.9],
    [np.inf, -np.inf, 1.0, np.inf, -np.inf, 0.0, np.inf],
    [np.nan, 0.3, np.nan, 0.3, -np.inf, np.nan, 1.0],
    [np.nan, np.nan],
    [4.0],
    [],
], ids=["no-ties", "all-ties", "mixed-ties", "inf", "nan", "all-nan", "single", "empty"])
def test_rank_with_ties_matches_reference_loop(values):
    values = np.asarray(values, dtype=np.float64)
    assert np.array_equal(_rank_with_ties(values), reference_rank_with_ties(values))


def test_rank_with_ties_matches_reference_loop_on_random_ties():
    rng = np.random.default_rng(3)
    for size in (2, 17, 300):
        values = rng.integers(0, 6, size=size).astype(np.float64)
        values[rng.random(size) < 0.1] = np.nan
        assert np.array_equal(_rank_with_ties(values), reference_rank_with_ties(values))
