"""Test-only references and doubles, kept out of the package's hot modules.

* :func:`brute_force_iou` / :func:`brute_force_miou`: set-based IoU, the
  independent oracle for :class:`helix.metrics.ConfusionMatrix`.
* :func:`empty_grid`: a sparse grid with no cells, for encoder edge cases.
* :class:`FakeClock`: a counter only explicit advances move; pass ``now`` as
  ``eval_online``'s timer and let a model double ``advance`` it to inject
  exact per-slice durations.
"""

import numpy as np

from helix.autodiff import Tensor
from helix.geometry import GridSpec, SparseCylGrid


def brute_force_iou(true_labels, pred_labels, n_classes):
    """Set-based IoU oracle: |pred AND gt| / |pred OR gt| per class."""
    t = np.asarray(true_labels)
    p = np.asarray(pred_labels)
    keep = t != 0
    t, p = t[keep], p[keep]
    out = {}
    for c in range(1, n_classes + 1):
        gt = set(np.nonzero(t == c)[0].tolist())
        pr = set(np.nonzero(p == c)[0].tolist())
        if not gt and not pr:
            continue
        out[c] = len(gt & pr) / len(gt | pr)
    return out


def brute_force_miou(true_labels, pred_labels, n_classes):
    t = np.asarray(true_labels)
    per = brute_force_iou(true_labels, pred_labels, n_classes)
    vals = [v for c, v in per.items() if np.any(t[t != 0] == c)]
    return float(np.mean(vals)) if vals else float("nan")


def empty_grid(spec: GridSpec, channels, dtype=np.float64, slice_seq=0) -> SparseCylGrid:
    return SparseCylGrid(spec, np.zeros((0, 3), dtype=np.int64),
                         np.zeros(0, dtype=np.int64),
                         Tensor(np.zeros((0, channels), dtype=dtype)),
                         np.zeros((0, 3)), np.zeros(0, dtype=np.int64),
                         slice_seq, np.zeros(3))


class FakeClock:
    """Deterministic counter; only explicit advances move it."""

    def __init__(self, start=0.0):
        self.t = float(start)

    def now(self):
        return self.t

    def advance(self, dt):
        self.t += float(dt)
