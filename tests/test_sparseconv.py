from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helix.autodiff
import helix.sparseconv
from helix.autodiff import Tensor, gradcheck
from helix.geometry import GridSpec, SparseCylGrid, cell_centers, pack_keys
from helix.sparseconv import (
    ConvKernel,
    CylUNet,
    UNetConfig,
    kernel_offsets,
    make_kernel,
    sparse_conv,
    strided_conv,
    strided_maxpool,
    transposed_strided_conv,
)

from oracles import empty_grid


def identity_kernel(extents, channels, dtype=np.float64) -> ConvKernel:
    """Unit weight at the center tap, zeros elsewhere."""
    offsets = kernel_offsets(extents)
    w = np.zeros((offsets.shape[0] * channels, channels))
    center = int(np.nonzero((offsets == 0).all(axis=1))[0][0])
    w[center * channels:(center + 1) * channels] = np.eye(channels)
    return ConvKernel(offsets, Tensor(w, requires_grad=True, dtype=dtype), None,
                      channels, channels)


def build_grid(keys, features, spec):
    """Assemble a grid directly from (r, theta, z) bins for conv tests."""
    keys = np.asarray(keys, dtype=np.int64)
    packed = pack_keys(keys[:, 0], keys[:, 1], keys[:, 2])
    order = np.argsort(packed)
    keys, packed = keys[order], packed[order]
    feats = np.asarray(features, dtype=np.float64)[order]
    n = keys.shape[0]
    return SparseCylGrid(
        spec=spec, keys=keys, keys_packed=packed,
        features=Tensor(feats, requires_grad=True),
        centers=cell_centers(spec, keys, np.zeros(3)),
        rotation=np.zeros(n, dtype=np.int64),
        sensor_position=np.zeros(3),
    )


def random_grid(rng, spec, n_cells, channels, z_range=(-3, 3)):
    keys = set()
    while len(keys) < n_cells:
        keys.add((int(rng.integers(0, spec.n_r)), int(rng.integers(0, spec.n_theta)),
                  int(rng.integers(*z_range))))
    keys = sorted(keys)
    feats = rng.standard_normal((len(keys), channels))
    return build_grid(np.array(keys), feats, spec)


def dense_conv_oracle(grid, kernel):
    """Dense cross-correlation with circular theta padding, masked to input occupancy."""
    spec = grid.spec
    zmin = int(grid.keys[:, 2].min())
    zmax = int(grid.keys[:, 2].max())
    dense = np.zeros((spec.n_r, spec.n_theta, zmax - zmin + 1, grid.channels))
    for row, (r, t, z) in enumerate(grid.keys):
        dense[r, t, z - zmin] = grid.features.data[row]
    out = np.zeros((grid.n_cells, kernel.out_ch))
    weights = kernel.weights.data.reshape(kernel.taps, kernel.in_ch, kernel.out_ch)
    for row, (r, t, z) in enumerate(grid.keys):
        acc = np.zeros(kernel.out_ch)
        for tap, (dr, dt, dz) in enumerate(kernel.offsets):
            rr, tt, zz = r + dr, (t + dt) % spec.n_theta, z + dz - zmin
            if 0 <= rr < spec.n_r and 0 <= zz < dense.shape[2]:
                acc += dense[rr, tt, zz] @ weights[tap]
        if kernel.bias is not None:
            acc += kernel.bias.data
        out[row] = acc
    return out


SPEC = GridSpec(1, 1.0, 12, 1.0, z_origin=0.0, r_max=12.0)


def test_identity_kernel_is_identity():
    rng = np.random.default_rng(0)
    grid = random_grid(rng, SPEC, 30, 5)
    out = sparse_conv(grid, identity_kernel((3, 3, 3), 5))
    np.testing.assert_array_equal(out.features.data, grid.features.data)
    np.testing.assert_array_equal(out.keys_packed, grid.keys_packed)


def test_theta_seam_neighbor_contributes():
    rng = np.random.default_rng(1)
    kernel = make_kernel((3, 3, 3), 1, 1, rng, bias=False)
    grid = build_grid(np.array([[5, 0, 0], [5, SPEC.n_theta - 1, 0]]),
                      np.array([[1.0], [10.0]]), SPEC)
    out = sparse_conv(grid, kernel)
    np.testing.assert_allclose(out.features.data, dense_conv_oracle(grid, kernel), atol=1e-12)
    # the cell at theta 0 must see its wraparound neighbor
    w = kernel.weights.data.reshape(27, 1, 1)
    offs = [tuple(o) for o in kernel.offsets]
    expected = w[offs.index((0, 0, 0))][0, 0] * 1.0 + w[offs.index((0, -1, 0))][0, 0] * 10.0
    row0 = int(np.nonzero((out.keys == [5, 0, 0]).all(axis=1))[0][0])
    np.testing.assert_allclose(out.features.data[row0, 0], expected)


def test_sparse_conv_matches_dense_oracle():
    rng = np.random.default_rng(2)
    for trial in range(5):
        grid = random_grid(rng, SPEC, 40, 3)
        kernel = make_kernel((3, 3, 3), 3, 4, rng)
        out = sparse_conv(grid, kernel)
        np.testing.assert_allclose(out.features.data, dense_conv_oracle(grid, kernel),
                                   atol=1e-9)


def test_sparse_conv_channel_mismatch():
    rng = np.random.default_rng(3)
    grid = random_grid(rng, SPEC, 10, 3)
    with pytest.raises(ValueError):
        sparse_conv(grid, make_kernel((3, 3, 3), 4, 4, rng))


def test_theta_shift_equivariance_exact():
    rng = np.random.default_rng(4)
    grid = random_grid(rng, SPEC, 50, 4)
    kernel = make_kernel((3, 3, 3), 4, 4, rng)
    out = sparse_conv(grid, kernel)
    shift = 5
    keys2 = grid.keys.copy()
    keys2[:, 1] = (keys2[:, 1] + shift) % SPEC.n_theta
    grid2 = build_grid(keys2, grid.features.data, SPEC)
    out2 = sparse_conv(grid2, kernel)
    # map rows of out to rows of out2 through the shifted key
    shifted = pack_keys(out.keys[:, 0], (out.keys[:, 1] + shift) % SPEC.n_theta,
                        out.keys[:, 2])
    rows = out2.lookup(shifted)
    assert np.all(rows >= 0)
    np.testing.assert_array_equal(out.features.data, out2.features.data[rows])


def test_strided_single_cell():
    rng = np.random.default_rng(5)
    grid = build_grid(np.array([[4, 7, 1]]), np.array([[2.0, 1.0]]), SPEC)
    out = strided_conv(grid, make_kernel((3, 3, 2), 2, 3, rng), (3, 3, 2))
    assert out.n_cells == 1
    np.testing.assert_array_equal(out.keys[0], [1, 2, 0])
    assert out.spec.n_theta == 4


def test_strided_ring_270_to_90():
    from helix.geometry import default_grid_specs

    l1, l2, _ = default_grid_specs()
    rng = np.random.default_rng(6)
    keys = np.array([[r, t, 0] for r, t in zip(rng.integers(0, 60, 40),
                                               rng.integers(0, 270, 40))])
    keys = np.unique(keys, axis=0)
    grid = build_grid(keys, rng.standard_normal((len(keys), 2)), l1)
    out = strided_conv(grid, make_kernel((3, 3, 2), 2, 2, rng), (3, 3, 2))
    assert out.spec.n_theta == 90
    assert abs(out.spec.dr - l2.dr) < 1e-12
    # occupancy equals brute-force bucketing
    expected = np.unique(np.stack([keys[:, 0] // 3, keys[:, 1] // 3, keys[:, 2] // 2],
                                  axis=1), axis=0)
    np.testing.assert_array_equal(out.keys, expected)


def test_strided_maxpool_occupancy_and_values():
    rng = np.random.default_rng(7)
    grid = random_grid(rng, SPEC, 30, 3)
    out = strided_maxpool(grid, (3, 3, 2))
    coarse = np.stack([grid.keys[:, 0] // 3, grid.keys[:, 1] // 3, grid.keys[:, 2] // 2],
                      axis=1)
    for i, key in enumerate(out.keys):
        members = np.all(coarse == key, axis=1)
        np.testing.assert_allclose(out.features.data[i],
                                   grid.features.data[members].max(axis=0))


def test_nondividing_theta_stride_rejected():
    rng = np.random.default_rng(8)
    spec = GridSpec(1, 1.0, 10, 1.0, r_max=12.0)
    grid = random_grid(rng, spec, 10, 2)
    with pytest.raises(ValueError):
        strided_conv(grid, make_kernel((3, 3, 2), 2, 2, rng), (3, 3, 2))


def test_encode_empty_grid():
    unet = CylUNet(UNetConfig(channels=(4, 8, 16)))
    l1spec = GridSpec(1, 1.0, 12, 1.0, r_max=12.0)
    f1, f2, f3 = unet.encode(empty_grid(l1spec, 4))
    assert f1.n_cells == 0 and f2.n_cells == 0 and f3.n_cells == 0
    assert f3.channels == 16


def test_encode_decode_shapes_and_occupancy():
    rng = np.random.default_rng(9)
    cfg = UNetConfig(channels=(4, 8, 16))
    unet = CylUNet(cfg, rng=rng)
    grid = random_grid(rng, SPEC, 60, 4, z_range=(0, 4))
    f1, f2, f3 = unet.encode(grid)
    assert f1.channels == 4 and f2.channels == 8 and f3.channels == 16
    # strided occupancy is the brute-force bucketing of the previous level
    exp2 = np.unique(np.stack([f1.keys[:, 0] // 3, f1.keys[:, 1] // 3,
                               f1.keys[:, 2] // 2], axis=1), axis=0)
    np.testing.assert_array_equal(f2.keys, exp2)
    g1 = unet.decode(f3, f2, f1)
    np.testing.assert_array_equal(g1.keys_packed, grid.keys_packed)
    assert g1.channels == 4


def test_decode_zero_inputs_zero_output_when_biasfree():
    rng = np.random.default_rng(10)
    cfg = UNetConfig(channels=(3, 5, 7), bias=False)
    unet = CylUNet(cfg, rng=rng)
    grid = random_grid(rng, SPEC, 25, 3, z_range=(0, 4))
    f1, f2, f3 = unet.encode(grid)
    z1 = f1.with_features(Tensor(np.zeros_like(f1.features.data)))
    z2 = f2.with_features(Tensor(np.zeros_like(f2.features.data)))
    z3 = f3.with_features(Tensor(np.zeros_like(f3.features.data)))
    out = unet.decode(z3, z2, z1)
    np.testing.assert_array_equal(out.features.data, np.zeros_like(out.features.data))


def test_deterministic_forward():
    rng = np.random.default_rng(11)
    grid = random_grid(rng, SPEC, 40, 4, z_range=(0, 4))
    unet = CylUNet(UNetConfig(channels=(4, 8, 16)), rng=np.random.default_rng(1))
    a = unet.decode(*reversed(unet.encode(grid)))
    b = unet.decode(*reversed(unet.encode(grid)))
    np.testing.assert_array_equal(a.features.data, b.features.data)


def test_asymmetric_toggle_runs():
    rng = np.random.default_rng(12)
    cfg = UNetConfig(channels=(4, 8, 16), asymmetric=True)
    unet = CylUNet(cfg, rng=rng)
    grid = random_grid(rng, SPEC, 30, 4, z_range=(0, 4))
    f1, f2, f3 = unet.encode(grid)
    out = unet.decode(f3, f2, f1)
    assert out.n_cells == grid.n_cells
    assert np.all(np.isfinite(out.features.data))


def test_maxpool_downsample_variant():
    rng = np.random.default_rng(13)
    cfg = UNetConfig(channels=(4, 8, 16), downsample="maxpool")
    unet = CylUNet(cfg, rng=rng)
    grid = random_grid(rng, SPEC, 30, 4, z_range=(0, 4))
    f1, f2, f3 = unet.encode(grid)
    out = unet.decode(f3, f2, f1)
    assert out.channels == 4


def test_kernel_gradcheck():
    rng = np.random.default_rng(14)
    spec = GridSpec(1, 1.0, 6, 1.0, r_max=5.0)
    grid = random_grid(rng, spec, 8, 2, z_range=(0, 2))
    kernel = make_kernel((3, 3, 3), 2, 3, rng)
    params = [grid.features, kernel.weights, kernel.bias]

    def loss():
        f = sparse_conv(grid, kernel).features
        return (f * f).sum()

    assert gradcheck(loss, params) < 1e-6


def test_strided_and_transposed_gradcheck():
    rng = np.random.default_rng(15)
    spec = GridSpec(1, 1.0, 6, 1.0, r_max=6.0)
    grid = random_grid(rng, spec, 10, 2, z_range=(0, 3))
    down = make_kernel((3, 3, 2), 2, 3, rng)
    up = make_kernel((3, 3, 2), 3, 2, rng)

    def loss():
        coarse = strided_conv(grid, down, (3, 3, 2))
        fine = transposed_strided_conv(coarse, grid, up, (3, 3, 2))
        return (fine.features * fine.features).sum()

    params = [grid.features, down.weights, down.bias, up.weights, up.bias]
    assert gradcheck(loss, params) < 1e-6


def test_submanifold_occupancy_preserved():
    rng = np.random.default_rng(16)
    grid = random_grid(rng, SPEC, 35, 3)
    out = sparse_conv(grid, make_kernel((3, 3, 3), 3, 3, rng))
    np.testing.assert_array_equal(out.keys_packed, grid.keys_packed)


def test_kernel_offsets_order_deterministic():
    offs = kernel_offsets((3, 3, 3))
    assert offs.shape == (27, 3)
    assert tuple(offs[0]) == (-1, -1, -1)
    assert tuple(offs[13]) == (0, 0, 0)


@st.composite
def seam_grids(draw):
    """Small random occupancies on rings of 1 to 12 cells, always occupied on
    both sides of the theta seam, plus a theta stride dividing the ring."""
    n_theta = draw(st.sampled_from([1, 2, 3, 6, 12]))
    theta_stride = draw(st.sampled_from([d for d in (1, 2, 3) if n_theta % d == 0]))
    spec = GridSpec(1, 1.0, n_theta, 1.0, z_origin=0.0, r_max=5.0)
    cell = st.tuples(st.integers(0, spec.n_r - 1), st.integers(0, n_theta - 1),
                     st.integers(-2, 2))
    keys = draw(st.sets(cell, min_size=1, max_size=30))
    r, _, z = draw(cell)
    keys |= {(r, 0, z), (r, n_theta - 1, z)}
    feats = np.ones((len(keys), 2))
    return build_grid(np.array(sorted(keys)), feats, spec), (3, theta_stride, 2)


@contextmanager
def recorded_rulebooks():
    """The rulebook of every ``rulebook_conv`` call made inside the block."""
    seen = []
    op = helix.sparseconv.rulebook_conv

    def recording(x, weights, bias, rulebook):
        seen.append(rulebook)
        return op(x, weights, bias, rulebook)

    with mock.patch.object(helix.sparseconv, "rulebook_conv", recording):
        yield seen


@settings(max_examples=60, deadline=None)
@given(seam_grids())
def test_rules_have_unique_rows_within_each_tap(case):
    """Within a tap an input row feeds at most one output row: the dense
    backward builds the transposed table by assignment, and the per-tap pass
    accumulates in place, so a repeat would silently drop contributions."""
    grid, stride = case
    rng = np.random.default_rng(0)
    with recorded_rulebooks() as seen:
        sparse_conv(grid, make_kernel((3, 3, 3), 2, 2, rng))
        coarse = strided_conv(grid, make_kernel(stride, 2, 3, rng), stride)
        transposed_strided_conv(coarse, grid, make_kernel(stride, 3, 2, rng), stride)
    assert len(seen) == 3
    n, m = grid.n_cells, coarse.n_cells
    for rulebook, (n_out, n_in) in zip(seen, ((n, n), (m, n), (n, m))):
        assert rulebook.n_in == n_in and rulebook.table.shape[0] == n_out
        assert rulebook.table.min(initial=0) >= 0 and rulebook.table.max(initial=0) <= n_in
        for col in rulebook.table.T:
            src = col[col != n_in]
            assert np.unique(src).size == src.size


def per_tap_neighbor_maps(grid, offsets):
    """The per-tap pack and lookup loop that ``_neighbor_maps`` replaced."""
    spec = grid.spec
    maps = []
    for off in offsets:
        r = grid.keys[:, 0] + off[0]
        t = (grid.keys[:, 1] + off[1]) % spec.n_theta
        z = grid.keys[:, 2] + off[2]
        ok = (r >= 0) & (r < spec.n_r)
        src = np.full(grid.n_cells, -1, dtype=np.int64)
        if np.any(ok):
            src[ok] = grid.lookup(pack_keys(r[ok], t[ok], z[ok]))
        dst = np.nonzero(src >= 0)[0]
        maps.append((dst, src[dst]))
    return maps


def per_tap_strided_rules(grid, stride):
    """The per-tap (coarse dst, fine src) lists that ``_strided_layout`` built
    before its table, with the coarse occupancy."""
    sr, st, sz = stride
    coarse = pack_keys(grid.keys[:, 0] // sr, grid.keys[:, 1] // st, grid.keys[:, 2] // sz)
    tap_id = ((grid.keys[:, 0] % sr) * st + grid.keys[:, 1] % st) * sz + grid.keys[:, 2] % sz
    uniq, dst = np.unique(coarse, return_inverse=True)
    by_tap = np.argsort(tap_id, kind="stable")
    bounds = np.searchsorted(tap_id[by_tap], np.arange(1, sr * st * sz))
    return uniq, [(dst[src], src) for src in np.split(by_tap, bounds)]


def rules_table(rules, num_rows, n_in):
    """Per-tap (dst, src) lists as a (num_rows, taps) table with sentinel ``n_in``."""
    table = np.full((num_rows, len(rules)), n_in, dtype=np.int64)
    for t, (dst, src) in enumerate(rules):
        assert np.unique(dst).size == dst.size
        table[dst, t] = src
    return table


@settings(max_examples=60, deadline=None)
@given(seam_grids(), st.sampled_from([(3, 3, 3), (3, 1, 3), (1, 3, 3), (3, 3, 1), (1, 1, 1),
                                      (3, 5, 1), (3, 3, 2)]))
def test_neighbor_maps_match_per_tap_lookup(case, extents):
    """The table, symmetric search included, equals the all-taps lookup; (3, 3, 2)
    is not centered and searches every tap."""
    grid, _ = case
    offsets = kernel_offsets(extents)
    rulebook = helix.sparseconv._neighbor_maps(grid, offsets)
    want = per_tap_neighbor_maps(grid, offsets)
    assert rulebook.table.dtype == np.int64 and rulebook.n_in == grid.n_cells
    np.testing.assert_array_equal(rulebook.table, rules_table(want, grid.n_cells, grid.n_cells))
    for (dst, src), (want_dst, want_src) in zip(rulebook.per_tap, want):
        assert np.array_equal(dst, want_dst) and np.array_equal(src, want_src)


@settings(max_examples=60, deadline=None)
@given(seam_grids())
def test_strided_tables_match_per_tap_lists(case):
    grid, stride = case
    rng = np.random.default_rng(0)
    uniq, rules = per_tap_strided_rules(grid, stride)
    got_uniq, _, down = helix.sparseconv._strided_layout(grid, stride)
    np.testing.assert_array_equal(got_uniq, uniq)
    np.testing.assert_array_equal(down.table, rules_table(rules, uniq.size, grid.n_cells))

    coarse = strided_conv(grid, make_kernel(stride, 2, 3, rng), stride)
    with recorded_rulebooks() as seen:
        transposed_strided_conv(coarse, grid, make_kernel(stride, 3, 2, rng), stride)
    parent = coarse.lookup(uniq)
    up_rules = [(fine, parent[cell]) for cell, fine in rules]
    np.testing.assert_array_equal(seen[0].table,
                                  rules_table(up_rules, grid.n_cells, coarse.n_cells))


def test_transposed_conv_reuses_its_table_and_refuses_other_occupancy():
    """The upsampling table is built once per skip map, and a coarse map with
    a cell missing or a cell too many is an internal error."""
    rng = np.random.default_rng(18)
    grid = random_grid(rng, SPEC, 40, 3)
    up = make_kernel((3, 3, 2), 4, 3, rng)
    coarse = strided_conv(grid, make_kernel((3, 3, 2), 3, 4, rng), (3, 3, 2))
    with recorded_rulebooks() as seen:
        first = transposed_strided_conv(coarse, grid, up, (3, 3, 2)).features.data
        again = transposed_strided_conv(coarse, grid, up, (3, 3, 2)).features.data
    assert seen[0] is seen[1]
    np.testing.assert_array_equal(first, again)

    feats = coarse.features.data
    stray = [[coarse.keys[:, 0].max() + 1, 0, 0]]
    for bad in (build_grid(coarse.keys[1:], feats[1:], coarse.spec),
                build_grid(np.concatenate([coarse.keys, stray]),
                           np.concatenate([feats, feats[:1]]), coarse.spec)):
        with pytest.raises(RuntimeError, match="occupancy mismatch"):
            transposed_strided_conv(bad, grid, up, (3, 3, 2))


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("with_bias", [True, False])
def test_conv_kinds_agree_dense_and_per_tap(dtype, tol, with_bias, monkeypatch):
    """Each of the three convolutions, run densely and per tap: same outputs
    and gradients of the features, weights and bias."""
    rng = np.random.default_rng(24)
    grid = random_grid(rng, SPEC, 40, 3)
    grid = grid.with_features(Tensor(grid.features.data.astype(dtype), requires_grad=True))
    conv3, down, up = (make_kernel(ext, i, o, rng, with_bias, dtype)
                       for ext, i, o in (((3, 3, 3), 3, 3), ((3, 3, 2), 3, 4),
                                         ((3, 3, 2), 4, 3)))
    coarse = strided_conv(grid, down, (3, 3, 2))
    coarse = coarse.with_features(Tensor(coarse.features.data, requires_grad=True))
    convs = [(lambda: sparse_conv(grid, conv3), grid.features, conv3),
             (lambda: strided_conv(grid, down, (3, 3, 2)), grid.features, down),
             (lambda: transposed_strided_conv(coarse, grid, up, (3, 3, 2)), coarse.features, up)]
    for conv, x, kernel in convs:
        runs = []
        for limit in (0, 2 ** 62):
            monkeypatch.setattr(helix.autodiff, "CONV_GATHER_LIMIT", limit)
            params = [x] + [p for _, p in kernel.parameters()]
            for p in params:
                p.zero_grad()
            out = conv().features
            (out * out).sum().backward()
            runs.append([out.data] + [p.grad for p in params])
        for got, want in zip(*runs):
            assert got.dtype == want.dtype == dtype
            np.testing.assert_allclose(got, want, rtol=tol, atol=tol * np.abs(want).max())


def test_each_conv_adds_one_autodiff_node(monkeypatch):
    rng = np.random.default_rng(17)
    grid = random_grid(rng, SPEC, 40, 3)
    conv3 = make_kernel((3, 3, 3), 3, 3, rng)
    down = make_kernel((3, 3, 2), 3, 4, rng)
    up = make_kernel((3, 3, 2), 4, 3, rng)
    coarse = strided_conv(grid, down, (3, 3, 2))
    node = Tensor._node
    made = []

    def counted(data, parents, backward):
        made.append(data.shape)
        return node(data, parents, backward)

    monkeypatch.setattr(Tensor, "_node", staticmethod(counted))
    for conv in (lambda: sparse_conv(grid, conv3),
                 lambda: strided_conv(grid, down, (3, 3, 2)),
                 lambda: transposed_strided_conv(coarse, grid, up, (3, 3, 2))):
        before = len(made)
        conv()
        assert len(made) - before == 1
