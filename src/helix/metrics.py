"""Segmentation metrics: per-class IoU and its unweighted mean.

Class ids are 1..C; label 0 is the ignore sentinel and contributes nothing.
The mean runs over classes present in the ground truth; a class that was only
predicted (or absent everywhere) is excluded.
"""

from __future__ import annotations

import numpy as np


class ConfusionMatrix:
    """C x C counts, rows = true class, cols = predicted class (ids 1..C)."""

    def __init__(self, n_classes, counts=None):
        self.n_classes = int(n_classes)
        self.counts = (np.zeros((n_classes, n_classes), dtype=np.int64)
                       if counts is None else np.asarray(counts, dtype=np.int64))
        if self.counts.shape != (n_classes, n_classes):
            raise ValueError("counts must be C x C")

    def update(self, true_labels, pred_labels):
        t = np.asarray(true_labels)
        p = np.asarray(pred_labels)
        keep = (t != 0) & (p >= 1) & (p <= self.n_classes) & (t <= self.n_classes)
        np.add.at(self.counts, (t[keep] - 1, p[keep] - 1), 1)
        return self

    def iou(self):
        """Per-class IoU (nan where the class is absent from gt and pred)."""
        tp = np.diag(self.counts).astype(np.float64)
        fp = self.counts.sum(axis=0) - tp
        fn = self.counts.sum(axis=1) - tp
        denom = tp + fp + fn
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(denom > 0, tp / denom, np.nan)

    def present_classes(self):
        """Class ids (1-based) that appear in the ground truth."""
        return np.nonzero(self.counts.sum(axis=1) > 0)[0] + 1

    def miou(self):
        """Unweighted mean IoU over classes present in the ground truth."""
        present = self.present_classes() - 1
        if present.size == 0:
            return float("nan")
        return float(self.iou()[present].mean())

    def per_class(self):
        iou = self.iou()
        return {c + 1: float(iou[c]) for c in range(self.n_classes)}


def predict_labels(scores):
    """Argmax over the real classes; the ignore column never wins."""
    scores = np.asarray(scores)
    return 1 + np.argmax(scores[:, 1:], axis=1)

