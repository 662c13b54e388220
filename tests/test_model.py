import gc
import tracemalloc

import numpy as np
import pytest
from toyfix import scene_slices, toy_model, toy_model_config

from helix.model import SegmentationModel, load_checkpoint, save_checkpoint


@pytest.fixture(scope="module")
def slices():
    return scene_slices(seed=5, n_rotations=2)


@pytest.fixture(scope="module")
def long_stream():
    """Seven rotations in 36-degree slices: 70 slices against offsets (0, 1)."""
    return scene_slices(seed=5, n_rotations=7, dtheta=np.deg2rad(36.0))


@pytest.fixture(scope="module")
def model():
    return toy_model(seed=1)


def test_forward_shapes(slices, model):
    buf = model.new_buffer()
    scores = model.forward_slice(slices[0], buf)
    assert scores.shape == (len(slices[0].points), model.cfg.n_classes + 1)


def test_zero_weights_give_uniform_logits(slices):
    m = toy_model(seed=2)
    for _, t in m.parameters():
        t.data[...] = 0.0
    scores = m.forward_slice(slices[0], m.new_buffer()).data
    np.testing.assert_allclose(scores, 0.0, atol=1e-12)
    # uniform: every class equally likely for every point
    assert np.all(scores == scores[:, :1])


def test_point_permutation_permutes_outputs(slices, model):
    import dataclasses

    slc = slices[0]
    scores = model.forward_slice(slc, model.new_buffer()).data
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(slc.points))
    slc_p = dataclasses.replace(slc, points=slc.points.take(perm))
    scores_p = model.forward_slice(slc_p, model.new_buffer()).data
    np.testing.assert_array_equal(scores_p, scores[perm])


def test_forward_purity_bit_identical(slices, model):
    a = model.forward_slice(slices[0], model.new_buffer()).data
    b = model.forward_slice(slices[0], model.new_buffer()).data
    np.testing.assert_array_equal(a, b)


def test_second_slice_sees_first_slice(slices, model):
    # stream two rotations; perturbing rotation-0 points changes rotation-1 output
    buf = model.new_buffer()
    model.forward_slice(slices[0], buf)
    out1 = model.forward_slice(slices[1], buf).data

    import dataclasses

    moved = slices[0].points.copy()
    moved.intensity = np.clip(moved.intensity + 0.2, 0, 1)
    buf2 = model.new_buffer()
    model.forward_slice(dataclasses.replace(slices[0], points=moved), buf2)
    out1b = model.forward_slice(slices[1], buf2).data
    assert not np.array_equal(out1, out1b)


def test_slice_by_slice_blind_to_past(slices):
    # the row-(c) ablation must NOT react to rotation-0 changes
    m = toy_model(seed=1, slice_by_slice=True)
    buf = m.new_buffer()
    m.forward_slice(slices[0], buf)
    out1 = m.forward_slice(slices[1], buf).data

    import dataclasses

    moved = slices[0].points.copy()
    moved.intensity = np.clip(moved.intensity + 0.2, 0, 1)
    buf2 = m.new_buffer()
    m.forward_slice(dataclasses.replace(slices[0], points=moved), buf2)
    out1b = m.forward_slice(slices[1], buf2).data
    np.testing.assert_array_equal(out1, out1b)


def test_conv1_mode_runs(slices):
    m = toy_model(seed=3, mode="conv1")
    scores = m.forward_slice(slices[0], m.new_buffer())
    assert np.all(np.isfinite(scores.data))


def test_empty_slice_scores(slices, model):
    import dataclasses

    empty = slices[0].points.take(np.zeros(0, dtype=int))
    slc = dataclasses.replace(slices[0], points=empty)
    scores = model.forward_slice(slc, model.new_buffer())
    assert scores.shape == (0, model.cfg.n_classes + 1)


def test_no_echo_points_get_zero_rows(model):
    slices_ne = scene_slices(seed=5, n_rotations=1, keep_no_echo=True)
    slc = slices_ne[0]
    scores = model.forward_slice(slc, model.new_buffer()).data
    no_echo = slc.points.r == 0
    assert no_echo.any()
    np.testing.assert_array_equal(scores[no_echo], 0.0)
    preds, _ = model.segment_points(slc, model.new_buffer())
    np.testing.assert_array_equal(preds[no_echo], 0)
    assert np.all(preds[~no_echo] >= 1)


def test_checkpoint_roundtrip(tmp_path, slices, model):
    path = tmp_path / "toy.ckpt"
    save_checkpoint(path, model)
    back = load_checkpoint(path)
    assert back.cfg == model.cfg
    for (na, ta), (nb, tb) in zip(model.parameters(), back.parameters()):
        assert na == nb
        np.testing.assert_allclose(ta.data, tb.data, atol=1e-7)  # float32 storage
    a = model.forward_slice(slices[0], model.new_buffer()).data
    b = back.forward_slice(slices[0], back.new_buffer()).data
    np.testing.assert_allclose(a, b, atol=1e-5)


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_checkpoint(p)


def test_param_count_reported(model):
    n = model.n_parameters()
    assert n > 1000
    assert n == sum(t.data.size for _, t in model.parameters())


def test_config_consistency_enforced():
    from helix.attention import AttnConfig
    from helix.model import ModelConfig
    from helix.sparseconv import UNetConfig

    with pytest.raises(ValueError):
        ModelConfig(unet=UNetConfig(channels=(8, 16, 24)), attn=AttnConfig(dim=128))


def test_tiny_preset_runs(slices):
    from helix.model import ModelConfig

    cfg = ModelConfig.tiny(n_classes=4, r_max=16.0, grid_l1=(0.4, 150, 0.4), seed=2)
    assert cfg.unet.downsample == "maxpool"
    m = SegmentationModel(cfg)
    scores = m.forward_slice(slices[0], m.new_buffer())
    assert np.all(np.isfinite(scores.data))
    assert m.n_parameters() < toy_model(seed=2).n_parameters() * 4


def test_float32_model_stays_float32(slices, monkeypatch):
    """Every node of a float32 forward pass is float32, through the buffer
    and both attention blocks, and so are the returned scores."""
    from helix.autodiff import Tensor

    m = toy_model(seed=4, blocks=2, dtype="float32")
    node = Tensor._node
    made = []

    def counted(data, parents, backward):
        made.append(data.dtype)
        return node(data, parents, backward)

    monkeypatch.setattr(Tensor, "_node", staticmethod(counted))
    buf = m.new_buffer()
    scores = [m.forward_slice(slc, buf) for slc in slices[:2]]
    assert made and set(made) == {np.dtype(np.float32)}
    assert all(s.dtype == np.float32 for s in scores)


def buffered_tensors(buf):
    return [t for e in buf.entries for per_block in (*e.keys, *e.values) for t in per_block]


def test_segment_points_memory_stays_bounded(long_stream):
    """Inference keeps only the buffered payload alive, however long the stream."""
    assert len(long_stream) == 70
    m = toy_model(seed=3, dtype="float32")
    m.segment_points(long_stream[0], m.new_buffer())  # lazy imports and caches, once
    buf = m.new_buffer()
    gc.collect()
    tracemalloc.start()
    try:
        for i, slc in enumerate(long_stream, start=1):
            m.segment_points(slc, buf)
            if i in (40, 70):
                gc.collect()
                held = tracemalloc.get_traced_memory()[0]
                payload = sum(t.data.nbytes for t in buffered_tensors(buf))
                assert 0 < held <= 4 * payload, (i, held, payload)
    finally:
        tracemalloc.stop()
    assert all(not t.requires_grad and t._parents == () for t in buffered_tensors(buf))


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_segment_points_equals_forward_slice(long_stream, dtype):
    m = toy_model(seed=3, dtype=dtype)
    inference, graph = m.new_buffer(), m.new_buffer()
    for slc in long_stream:
        _, scores = m.segment_points(slc, inference)
        assert np.array_equal(scores, m.forward_slice(slc, graph).data)


def test_forward_slice_after_segment_points_has_gradients(slices):
    m = toy_model(seed=3)
    buf = m.new_buffer()
    m.segment_points(slices[0], buf)
    scores = m.forward_slice(slices[1], buf)
    assert scores.requires_grad
    scores.abs().sum().backward()
    grads = {name: t.grad for name, t in m.parameters()}
    assert all(g is not None for g in grads.values()), [n for n, g in grads.items() if g is None]
    assert np.any(grads["e_point.l0.weight"] != 0) and np.any(grads["attn.b0.h0.kv.weight"] != 0)
