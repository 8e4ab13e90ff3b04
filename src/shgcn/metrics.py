"""Evaluation metrics: ROC AUC (rank statistic), accuracy/F1, MAE."""

from __future__ import annotations

import numpy as np


def _rank_with_ties(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties averaged.  NaNs sort last and, never comparing
    equal, each get a rank of their own."""
    order = np.argsort(values, kind="mergesort")
    sorted_vals = values[order]
    # a tie group starts wherever a value differs from its predecessor
    starts = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    return ranks


def roc_auc(scores, labels) -> float:
    """Mann-Whitney statistic: P(score_pos > score_neg) with ties counted
    as one half."""
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels).reshape(-1).astype(bool)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have equal length")
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC AUC needs at least one positive and one negative")
    ranks = _rank_with_ties(scores)
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def classification_metrics(pred_labels, true_labels, average: str = "binary") -> dict:
    """Accuracy plus F1: positive-class F1 for binary tasks, macro-averaged
    when requested."""
    pred = np.asarray(pred_labels).reshape(-1)
    true = np.asarray(true_labels).reshape(-1)
    if pred.shape != true.shape or len(pred) == 0:
        raise ValueError("need equal-length, non-empty label arrays")
    accuracy = float(np.mean(pred == true))
    if average == "binary":
        f1 = _binary_f1(pred == 1, true == 1)
    elif average == "macro":
        classes = np.unique(np.concatenate([true, pred]))
        f1 = float(np.mean([_binary_f1(pred == c, true == c) for c in classes]))
    else:
        raise ValueError(f"unknown average {average!r}")
    return {"accuracy": accuracy, "f1": f1}


def _binary_f1(pred_pos: np.ndarray, true_pos: np.ndarray) -> float:
    tp = int(np.sum(pred_pos & true_pos))
    fp = int(np.sum(pred_pos & ~true_pos))
    fn = int(np.sum(~pred_pos & true_pos))
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return float(2.0 * precision * recall / (precision + recall))


def mean_absolute_error(pred, target) -> float:
    pred = np.asarray(pred, dtype=np.float64).reshape(-1)
    target = np.asarray(target, dtype=np.float64).reshape(-1)
    if pred.shape != target.shape:
        raise ValueError("prediction and target lengths differ")
    return float(np.mean(np.abs(pred - target)))
