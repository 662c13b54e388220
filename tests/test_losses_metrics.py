import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helix.autodiff import Tensor, gradcheck, softmax
from helix.losses import cross_entropy, lovasz_softmax, segmentation_loss
from helix.metrics import ConfusionMatrix, predict_labels

from oracles import brute_force_miou


def scores_for(labels, width, logit=100.0):
    """One-hot-perfect scores for the given labels."""
    out = np.zeros((len(labels), width))
    out[np.arange(len(labels)), labels] = logit
    return Tensor(out)


def test_perfect_prediction_near_zero_loss():
    labels = np.array([1, 2, 3, 1, 2])
    loss = segmentation_loss(scores_for(labels, 4), labels)
    assert float(loss.data) < 1e-3


def test_all_ignored_raises():
    with pytest.raises(ValueError):
        segmentation_loss(Tensor(np.zeros((3, 4))), np.zeros(3, dtype=int))


def test_ignored_points_excluded():
    labels = np.array([1, 0, 1])
    full = cross_entropy(scores_for(labels, 3, logit=2.0), labels)
    sub = cross_entropy(scores_for(labels[[0, 2]], 3, logit=2.0), labels[[0, 2]])
    assert float(full.data) == pytest.approx(float(sub.data), abs=1e-12)


def test_lovasz_single_point_binary_closed_form():
    # one valid point, true class 1, two real classes
    raw = np.array([[0.3, 1.2, -0.7]])
    labels = np.array([1])
    p = softmax(Tensor(raw), axis=1).data[0, 1]
    loss = lovasz_softmax(Tensor(raw), labels)
    assert float(loss.data) == pytest.approx(1.0 - p, abs=1e-12)


def test_loss_not_increased_by_correction():
    rng = np.random.default_rng(0)
    labels = np.array([1, 2, 1, 2, 1])
    raw = rng.standard_normal((5, 3))
    wrong = raw.copy()
    wrong[3, 1], wrong[3, 2] = 3.0, -3.0  # point 3 (true class 2) confidently wrong
    fixed = wrong.copy()
    fixed[3, 1], fixed[3, 2] = -3.0, 3.0  # same margin, now correct
    l_wrong = float(segmentation_loss(Tensor(wrong), labels).data)
    l_fixed = float(segmentation_loss(Tensor(fixed), labels).data)
    assert l_fixed <= l_wrong


def test_loss_gradcheck():
    rng = np.random.default_rng(1)
    scores = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
    labels = np.array([1, 2, 3, 0, 2, 1])
    assert gradcheck(lambda: segmentation_loss(scores, labels), [scores]) < 1e-5


# -- metrics -----------------------------------------------------------------


def test_diagonal_confusion_perfect():
    conf = ConfusionMatrix(3, np.diag([5, 2, 9]))
    np.testing.assert_allclose(conf.iou(), [1.0, 1.0, 1.0])
    assert conf.miou() == 1.0


def test_uniform_two_class():
    conf = ConfusionMatrix(2, [[1, 1], [1, 1]])
    np.testing.assert_allclose(conf.iou(), [1 / 3, 1 / 3])
    assert conf.miou() == pytest.approx(1 / 3)


def test_absent_class_excluded():
    conf2 = ConfusionMatrix(2, [[1, 1], [1, 1]])
    conf3 = ConfusionMatrix(3, [[1, 1, 0], [1, 1, 0], [0, 0, 0]])
    assert conf3.miou() == pytest.approx(conf2.miou())


def test_ignore_labels_contribute_nothing():
    conf = ConfusionMatrix(2)
    conf.update([0, 0, 1], [1, 2, 1])
    assert conf.counts.sum() == 1


def test_predicted_only_class_excluded_from_mean():
    conf = ConfusionMatrix(2)
    conf.update([1, 1], [1, 2])  # class 2 never in gt
    assert conf.present_classes().tolist() == [1]
    assert conf.miou() == pytest.approx(0.5)


def test_predict_labels_skips_ignore_column():
    scores = np.array([[10.0, 0.0, 1.0], [0.0, 3.0, -1.0]])
    np.testing.assert_array_equal(predict_labels(scores), [2, 1])


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_confusion_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n_classes = int(rng.integers(2, 6))
    n = int(rng.integers(1, 200))
    t = rng.integers(0, n_classes + 1, n)
    p = rng.integers(1, n_classes + 1, n)
    conf = ConfusionMatrix(n_classes).update(t, p)
    expected = brute_force_miou(t, p, n_classes)
    if np.isnan(expected):
        assert np.isnan(conf.miou())
    else:
        assert conf.miou() == pytest.approx(expected, abs=1e-12)
