"""Point-level supervision: cross-entropy plus the convex Jaccard relaxation.

Scores carry one column per label id including the ignore column 0, which is
never supervised.  Both terms skip ignore-labeled points; their unweighted sum
is the training objective (no class weights).
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, gather_rows, log_softmax, reshape, softmax, take_cols

IGNORE = 0


def _valid_index(labels):
    labels = np.asarray(labels)
    idx = np.nonzero(labels != IGNORE)[0]
    if idx.size == 0:
        raise ValueError("loss undefined: every point is ignore-labeled")
    return idx, labels[idx]


def cross_entropy(scores: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood over non-ignored points."""
    idx, lab = _valid_index(labels)
    logp = log_softmax(gather_rows(scores, idx), axis=1)
    onehot = np.zeros(logp.shape)
    onehot[np.arange(idx.size), lab] = 1.0
    return (logp * onehot).sum() * (-1.0 / idx.size)


def _jaccard_grad(gt_sorted):
    """Gradient of the Jaccard-loss extension along sorted errors."""
    gts = gt_sorted.sum()
    intersection = gts - np.cumsum(gt_sorted)
    union = gts + np.cumsum(1.0 - gt_sorted)
    jaccard = 1.0 - intersection / union
    if gt_sorted.size > 1:
        jaccard[1:] = jaccard[1:] - jaccard[:-1]
    return jaccard


def lovasz_softmax(scores: Tensor, labels) -> Tensor:
    """Mean over present classes of the sorted-error Jaccard surrogate.

    Per class: errors are |1[y=c] - p_c|, sorted descending; their dot product
    with the Jaccard-extension gradient is the class loss.  Classes without
    ground-truth points are skipped (the ignore column never has any).
    """
    idx, lab = _valid_index(labels)
    probas = softmax(gather_rows(scores, idx), axis=1)
    n, width = probas.shape
    losses = None
    present = [c for c in range(width) if np.any(lab == c)]
    for c in present:
        fg = (lab == c).astype(np.float64)
        err = (reshape(take_cols(probas, [c]), (n,)) - fg).abs()
        order = np.argsort(-err.data, kind="stable")
        grad = _jaccard_grad(fg[order])
        term = (gather_rows(err, order) * grad).sum()
        losses = term if losses is None else losses + term
    return losses * (1.0 / len(present))


def segmentation_loss(scores: Tensor, labels) -> Tensor:
    """Unweighted sum of cross-entropy and the Jaccard surrogate."""
    return cross_entropy(scores, labels) + lovasz_softmax(scores, labels)
