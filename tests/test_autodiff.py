import numpy as np
import pytest

from helix.autodiff import (
    MLP,
    Linear,
    Tensor,
    add,
    concat,
    gather_rows,
    gradcheck,
    leaky_relu,
    linear,
    log_softmax,
    matmul,
    mul,
    no_grad,
    relu,
    rulebook_conv,
    scatter_add_rows,
    segment_maxpool,
    segment_softmax,
    softmax,
)


def test_matmul_identity():
    x = Tensor(np.arange(12.0).reshape(3, 4))
    y = matmul(Tensor(np.eye(3)), x)
    np.testing.assert_array_equal(y.data, x.data)


def test_matmul_1x1():
    y = matmul(Tensor([[2.0]]), Tensor([[3.0]]))
    assert y.data[0, 0] == 6.0


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 2))))


def test_matmul_gradcheck():
    rng = np.random.default_rng(7)
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    err = gradcheck(lambda: matmul(a, b).sum(), [a, b])
    assert err < 1e-6


def test_softmax_symmetry():
    y = softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
    np.testing.assert_allclose(y.data, [1 / 3] * 3)


def test_softmax_single_element():
    y = softmax(Tensor([4.2]), axis=0)
    np.testing.assert_allclose(y.data, [1.0])


def test_softmax_no_overflow():
    y = softmax(Tensor([1000.0, 1000.0]), axis=0)
    assert np.all(np.isfinite(y.data))
    np.testing.assert_allclose(y.data, [0.5, 0.5])


def test_softmax_sums_to_one():
    rng = np.random.default_rng(0)
    y = softmax(Tensor(rng.standard_normal((5, 7))), axis=1)
    assert np.all(y.data > 0)
    np.testing.assert_allclose(y.data.sum(axis=1), np.ones(5))


def test_segment_maxpool_single_row():
    out = segment_maxpool(Tensor([[1.0, 2.0]]), [0])
    np.testing.assert_array_equal(out.data, [[1.0, 2.0]])


def test_segment_maxpool_channelwise():
    out = segment_maxpool(Tensor([[1.0, 5.0], [3.0, 2.0]]), [0, 0])
    np.testing.assert_array_equal(out.data, [[3.0, 5.0]])


def test_segment_maxpool_empty():
    out = segment_maxpool(Tensor(np.zeros((0, 3))), np.zeros(0, dtype=int), num_segments=0)
    assert out.data.shape == (0, 3)


def test_segment_maxpool_grad_skips_non_argmax():
    x = Tensor([[1.0, 5.0], [3.0, 2.0]], requires_grad=True)
    segment_maxpool(x, [0, 0]).sum().backward()
    np.testing.assert_array_equal(x.grad, [[0.0, 1.0], [1.0, 0.0]])


def test_segment_maxpool_tie_goes_to_first_row():
    x = Tensor([[2.0], [2.0]], requires_grad=True)
    segment_maxpool(x, [0, 0]).sum().backward()
    np.testing.assert_array_equal(x.grad, [[1.0], [0.0]])


def maxpool_reference(x, seg, n_seg, upstream):
    """``np.maximum.at`` forward; each (segment, channel) gradient goes to the
    lowest row index attaining the maximum."""
    out = np.full((n_seg, x.shape[1]), -np.inf)
    np.maximum.at(out, seg, x)
    grad = np.zeros_like(x)
    for s, c in zip(*np.nonzero(np.isfinite(out))):
        row = np.nonzero((seg == s) & (x[:, c] == out[s, c]))[0][0]
        grad[row, c] = upstream[s, c]
    out[np.isinf(out)] = 0.0
    return out, grad


@pytest.mark.parametrize(
    "values,seg,n_seg",
    [
        # unsorted segment ids
        ([[1.0, 5.0], [3.0, 2.0], [0.5, 9.0], [4.0, 1.0], [2.0, 2.0]], [2, 0, 1, 0, 2], 3),
        # empty segments 1 and 2 between occupied ones: zero rows, zero gradient
        ([[1.0, -2.0], [3.0, 4.0], [-1.0, 0.0]], [0, 3, 0], 4),
        # ties between rows that are not adjacent (rows 0/2 and 0/3 in segment 1)
        ([[3.0, 1.0], [9.0, 1.0], [3.0, 0.0], [1.0, 1.0]], [1, 0, 1, 1], 2),
        # many ties, unsorted ids, an empty segment
        (np.random.default_rng(21).integers(0, 3, (40, 3)).astype(float).tolist(),
         np.random.default_rng(22).choice([0, 1, 2, 4, 5], 40).tolist(), 6),
    ],
)
def test_segment_maxpool_matches_maximum_at(values, seg, n_seg):
    x = Tensor(values, requires_grad=True)
    upstream = np.arange(1.0, 1.0 + n_seg * x.shape[1]).reshape(n_seg, -1)
    out = segment_maxpool(x, seg, n_seg)
    (out * Tensor(upstream)).sum().backward()
    want_out, want_grad = maxpool_reference(np.asarray(values), np.asarray(seg), n_seg, upstream)
    np.testing.assert_array_equal(out.data, want_out)
    np.testing.assert_array_equal(x.grad, want_grad)


def reference_rulebook_conv(x, weights, bias, rules, num_rows):
    """The per-tap gather / matmul / scatter / add loop that ``rulebook_conv`` replaced."""
    in_ch = x.data.shape[1]
    acc = None
    for t, (dst, src) in enumerate(rules):
        if dst.size == 0:
            continue
        w_t = gather_rows(weights, np.arange(t * in_ch, (t + 1) * in_ch))
        contrib = scatter_add_rows(matmul(gather_rows(x, src), w_t), dst, num_rows)
        acc = contrib if acc is None else add(acc, contrib)
    if acc is None:
        acc = Tensor(np.zeros((num_rows, weights.data.shape[1]), dtype=x.data.dtype))
    if bias is not None:
        acc = add(acc, bias)
    return acc


def random_rules(rng, taps, n_in, n_out):
    """Per-tap (dst, src) rows, unique within each tap; tap 1 connects nothing."""
    rules = []
    for t in range(taps):
        k = 0 if t == 1 else int(rng.integers(1, min(n_in, n_out) + 1))
        rules.append((rng.choice(n_out, k, replace=False), rng.choice(n_in, k, replace=False)))
    return rules


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("with_bias", [True, False])
def test_rulebook_conv_matches_per_tap_loop(dtype, tol, with_bias):
    rng = np.random.default_rng(19)
    taps, n_in, n_out, c_in, c_out = 5, 9, 7, 3, 4
    rules = random_rules(rng, taps, n_in, n_out)
    arrays = [rng.standard_normal(shape).astype(dtype)
              for shape in ((n_in, c_in), (taps * c_in, c_out), (c_out,), (n_out, c_out))]

    def run(op):
        x, w, b = (Tensor(a.copy(), requires_grad=True) for a in arrays[:3])
        out = op(x, w, b if with_bias else None, rules, n_out)
        (out * Tensor(arrays[3])).sum().backward()
        return [out.data, x.grad, w.grad] + ([b.grad] if with_bias else [])

    for got, want in zip(run(rulebook_conv), run(reference_rulebook_conv)):
        assert got.dtype == want.dtype == dtype
        np.testing.assert_allclose(got, want, rtol=tol, atol=tol * np.abs(want).max())


def test_rulebook_conv_gradcheck():
    rng = np.random.default_rng(23)
    rules = random_rules(rng, 4, 6, 5)
    x = Tensor(rng.standard_normal((6, 2)), requires_grad=True)
    w = Tensor(rng.standard_normal((8, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)

    def loss():
        y = rulebook_conv(x, w, b, rules, 5)
        return (y * y).sum()

    assert gradcheck(loss, [x, w, b]) < 1e-6


def test_fanout_sums_contributions():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((4, 3))
    x = Tensor(data.copy(), requires_grad=True)
    (relu(x).sum() + (x * x).sum()).backward()

    x1 = Tensor(data.copy(), requires_grad=True)
    x2 = Tensor(data.copy(), requires_grad=True)
    (relu(x1).sum() + (x2 * x2).sum()).backward()
    np.testing.assert_allclose(x.grad, x1.grad + x2.grad)


def test_gather_scatter_roundtrip_grad():
    x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    idx = np.array([2, 0, 2])
    y = scatter_add_rows(gather_rows(x, idx), np.array([0, 1, 1]), 2)
    y.sum().backward()
    np.testing.assert_array_equal(x.grad, [[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("scalar", [0.5, np.float64(0.5), np.float32(0.5), 2],
                         ids=["float", "np.float64", "np.float32", "int"])
def test_scalar_operand_takes_tensor_dtype(dtype, scalar):
    t = Tensor(np.arange(3.0), dtype=dtype)
    for out in (mul(t, scalar), mul(scalar, t), add(t, scalar), add(scalar, t),
                t / scalar, t - scalar, scalar - t, -t):
        assert out.dtype == dtype


def scatter_add_reference(x, index, num_rows):
    out = np.zeros((num_rows,) + x.shape[1:], dtype=x.dtype)
    np.add.at(out, index, x)
    return out


def segment_softmax_reference(scores, seg, num_segments):
    m = np.full(num_segments, -np.inf, dtype=scores.dtype)
    np.maximum.at(m, seg, scores)
    z = np.exp(scores - m[seg])
    denom = np.zeros(num_segments, dtype=scores.dtype)
    np.add.at(denom, seg, z)
    return z / denom[seg]


SEGMENT_CASES = [
    # unsorted ids
    ([2, 0, 1, 0, 2, 1, 1], 3),
    # empty segments 1, 2 and 4 between occupied ones, and a trailing empty one
    ([0, 3, 0, 5, 3], 7),
    # single-row segments only, sorted and not
    ([0, 1, 2, 3], 4),
    ([3, 0, 2, 1], 5),
    # sorted with repeats, as the v-major attention pairs are
    ([0, 0, 0, 1, 4, 4], 5),
    # no rows at all
    ([], 3),
]


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("seg,n_seg", SEGMENT_CASES)
def test_scatter_add_rows_matches_add_at(seg, n_seg, dtype, tol):
    rng = np.random.default_rng(len(seg) + n_seg)
    seg = np.asarray(seg, dtype=np.int64)
    x = Tensor(rng.standard_normal((seg.size, 3)).astype(dtype), requires_grad=True)
    upstream = rng.standard_normal((n_seg, 3)).astype(dtype)
    out = scatter_add_rows(x, seg, n_seg)
    (out * Tensor(upstream)).sum().backward()
    assert out.dtype == dtype
    np.testing.assert_allclose(out.data, scatter_add_reference(x.data, seg, n_seg),
                               rtol=tol, atol=tol)
    np.testing.assert_array_equal(x.grad, upstream[seg])


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("seg,n_seg", SEGMENT_CASES)
def test_segment_softmax_matches_maximum_at(seg, n_seg, dtype, tol):
    rng = np.random.default_rng(len(seg) + 2 * n_seg)
    seg = np.asarray(seg, dtype=np.int64)
    scores = (rng.standard_normal(seg.size) * 5).astype(dtype)
    y = segment_softmax(Tensor(scores), seg, n_seg)
    assert y.dtype == dtype
    np.testing.assert_allclose(y.data, segment_softmax_reference(scores, seg, n_seg),
                               rtol=tol, atol=tol)


def test_gather_rows_grad_sums_repeats_in_any_shape():
    x = Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
    index = np.array([[3, 0], [3, 3], [1, 0]])
    y = gather_rows(x, index)
    assert y.shape == (3, 2, 2)
    (y * Tensor(np.arange(12.0).reshape(3, 2, 2))).sum().backward()
    want = scatter_add_reference(np.arange(12.0).reshape(6, 2), index.ravel(), 4)
    np.testing.assert_array_equal(x.grad, want)


def test_scatter_and_segment_softmax_gradcheck():
    rng = np.random.default_rng(29)
    seg = np.array([4, 0, 4, 2, 0, 4, 2])
    x = Tensor(rng.standard_normal((7, 2)), requires_grad=True)
    w = Tensor(rng.standard_normal((6, 2)))
    assert gradcheck(lambda: (scatter_add_rows(x, seg, 6) * w).sum(), [x]) < 1e-6

    s = Tensor(rng.standard_normal(7), requires_grad=True)
    v = Tensor(rng.standard_normal(7))
    assert gradcheck(lambda: (segment_softmax(s, seg, 6) * v).sum(), [s]) < 1e-6


def test_segment_softmax_matches_dense():
    rng = np.random.default_rng(11)
    scores = rng.standard_normal(7)
    seg = np.array([0, 0, 1, 1, 1, 2, 2])
    y = segment_softmax(Tensor(scores), seg, 3)
    for s in range(3):
        m = seg == s
        np.testing.assert_allclose(y.data[m], np.exp(scores[m]) / np.exp(scores[m]).sum())


@pytest.mark.parametrize(
    "name,build",
    [
        ("add", lambda a, b: (a + b).sum()),
        ("mul", lambda a, b: (a * b).sum()),
        ("concat", lambda a, b: concat([a, b], axis=1).abs().sum()),
        ("linear_like", lambda a, b: (matmul(a, b) + 0.5).sum()),
    ],
)
def test_elementwise_gradchecks(name, build):
    rng = np.random.default_rng(5)
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((3, 4)) if name != "linear_like" else rng.standard_normal((4, 3)),
               requires_grad=True)
    assert gradcheck(lambda: build(a, b), [a, b]) < 1e-4


@pytest.mark.parametrize(
    "name,fn",
    [
        ("relu", lambda x: relu(x).sum()),
        ("leaky_relu", lambda x: leaky_relu(x, 0.1).sum()),
        ("softmax", lambda x: (softmax(x, axis=1) * softmax(x, axis=1)).sum()),
        ("log_softmax", lambda x: (log_softmax(x, axis=1) * 0.3).abs().sum()),
        ("exp", lambda x: x.exp().sum()),
        ("mean", lambda x: x.mean()),
        ("transpose", lambda x: (x.transpose() * 2.0).sum()),
    ],
)
def test_unary_gradchecks(name, fn):
    rng = np.random.default_rng(9)
    # keep entries away from relu/abs kinks so finite differences are clean
    x = Tensor(rng.standard_normal((4, 5)) + np.sign(rng.standard_normal((4, 5))) * 0.1,
               requires_grad=True)
    assert gradcheck(lambda: fn(x), [x]) < 1e-4


def test_segment_ops_gradcheck():
    rng = np.random.default_rng(13)
    x = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
    seg = np.array([0, 0, 1, 2, 2, 2])
    assert gradcheck(lambda: segment_maxpool(x, seg, 3).sum(), [x]) < 1e-4

    s = Tensor(rng.standard_normal(6), requires_grad=True)
    w = Tensor(rng.standard_normal(6), requires_grad=True)
    assert gradcheck(lambda: (segment_softmax(s, seg, 3) * w).sum(), [s, w]) < 1e-4


def test_mlp_gradcheck():
    rng = np.random.default_rng(17)
    mlp = MLP([3, 5, 2], rng=rng)
    params = [t for _, t in mlp.parameters()]
    x = Tensor(rng.standard_normal((4, 3)))
    assert gradcheck(lambda: mlp(x).abs().sum(), params) < 1e-4


def test_linear_bias_broadcast():
    rng = np.random.default_rng(2)
    layer = Linear(3, 2, rng=rng)
    layer.bias.data[:] = [1.0, -1.0]
    y = layer(Tensor(np.zeros((4, 3))))
    np.testing.assert_allclose(y.data, np.tile([1.0, -1.0], (4, 1)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("with_bias", [True, False])
def test_linear_matches_matmul_plus_add(dtype, with_bias):
    rng = np.random.default_rng(29)
    arrays = [rng.standard_normal(shape).astype(dtype)
              for shape in ((6, 5), (5, 3), (3,), (6, 3))]

    def two_nodes(x, w, b):
        y = matmul(x, w)
        return y if b is None else add(y, b)

    def run(op):
        x, w, b = (Tensor(a.copy(), requires_grad=True) for a in arrays[:3])
        out = op(x, w, b if with_bias else None)
        (out * Tensor(arrays[3])).sum().backward()
        return [out.data, x.grad, w.grad] + ([b.grad] if with_bias else [])

    for got, want in zip(run(linear), run(two_nodes)):
        assert got.dtype == want.dtype == dtype
        np.testing.assert_array_equal(got, want)


def test_linear_gradcheck():
    rng = np.random.default_rng(31)
    x, w, b = (Tensor(rng.standard_normal(shape), requires_grad=True)
               for shape in ((4, 3), (3, 2), (2,)))

    def loss():
        y = linear(x, w, b)
        return (y * y).sum()

    assert gradcheck(loss, [x, w, b]) < 1e-6


@pytest.mark.parametrize("bias", [True, False])
def test_linear_layer_adds_one_node(monkeypatch, bias):
    layer = Linear(3, 2, rng=np.random.default_rng(1), bias=bias)
    node = Tensor._node
    made = []

    def counted(data, parents, backward):
        made.append(data.shape)
        return node(data, parents, backward)

    monkeypatch.setattr(Tensor, "_node", staticmethod(counted))
    layer(Tensor(np.ones((4, 3))))
    assert made == [(4, 2)]


LEAKY_SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-40, -1e-40, 1e30, -1e30]


def leaky_inputs(dtype):
    rng = np.random.default_rng(37)
    return np.r_[LEAKY_SPECIALS, rng.standard_normal(64)].astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("slope", [0.01, 0.25, 1.0])
def test_leaky_relu_forward_matches_where(dtype, slope):
    x = leaky_inputs(dtype)
    got = leaky_relu(Tensor(x), slope).data
    want = np.where(x > 0, x, slope * x)
    assert got.dtype == want.dtype == dtype
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


class GradProbe(Tensor):
    """A leaf that keeps the last gradient passed to it."""

    def _accumulate(self, g):
        self.received = g
        super()._accumulate(g)


@pytest.mark.parametrize("slope", [0.01, 0.25, 1.0])
def test_leaky_relu_backward_mask_from_output(slope):
    x = leaky_inputs(np.float64)
    g = np.random.default_rng(41).standard_normal(x.shape)
    t = GradProbe(x, requires_grad=True)
    leaky_relu(t, slope).backward(g)
    np.testing.assert_array_equal(t.received, g * np.where(x > 0, 1.0, slope))

    x32, g32 = x.astype(np.float32), g.astype(np.float32)
    t32 = GradProbe(x32, requires_grad=True)
    leaky_relu(t32, slope).backward(g32)
    assert t32.received.dtype == np.float32
    np.testing.assert_array_equal(
        t32.received, g32 * np.where(x32 > 0, np.float32(1), np.float32(slope)))


@pytest.mark.parametrize("slope", [1.5, -0.1])
def test_leaky_relu_rejects_slopes_outside_unit_interval(slope):
    with pytest.raises(ValueError):
        leaky_relu(Tensor(np.ones(3)), slope)


def test_no_grad_builds_no_graph_and_restores_state():
    w = Tensor(np.ones(3), requires_grad=True)

    def builds_graph():
        y = w * 2.0
        assert y.requires_grad == bool(y._parents) == (y._backward is not None)
        return y.requires_grad

    with no_grad():
        assert not builds_graph()
        with no_grad():
            assert not builds_graph()
        assert not builds_graph()
    assert builds_graph()

    with pytest.raises(KeyError):
        with no_grad():
            with no_grad():
                raise KeyError("inner")
    assert builds_graph()
    with no_grad():
        with pytest.raises(KeyError):
            with no_grad():
                raise KeyError("inner")
        assert not builds_graph()
    assert builds_graph()


def test_backward_requires_scalar():
    with pytest.raises(ValueError):
        Tensor(np.zeros(3), requires_grad=True).backward()
