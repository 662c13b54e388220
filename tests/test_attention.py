import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helix.attention import (
    AttnConfig,
    BufferEntry,
    KVBuffer,
    TransformerParams,
    VoxelTokens,
    block_forward,
    dense_block_reference,
    dense_transformer_reference,
    head_compat_stats,
    mask_pairs,
    pair_bins,
    spatial_bin,
    temporal_bin,
    tokens_from_grid,
    transformer_forward,
)
from helix.autodiff import Tensor, gradcheck


def micro_cfg(**kw):
    base = dict(blocks=1, heads=2, dim=8, key_dim=4, radius=6.0, offsets=(0, 1, 2))
    base.update(kw)
    return AttnConfig(**base)


def random_tokens(rng, n, cfg, rotations=(0,), slice_seqs=None, spread=4.0,
                  requires_grad=False):
    feats = Tensor(rng.standard_normal((n, cfg.dim)), requires_grad=requires_grad)
    centers = rng.uniform(-spread, spread, size=(n, 3))
    rot = np.asarray(rotations)[rng.integers(0, len(rotations), n)]
    seq = rot if slice_seqs is None else np.asarray(slice_seqs)
    return VoxelTokens(feats, centers, np.zeros(n), rot.astype(np.int64),
                       np.asarray(seq, dtype=np.int64))


# -- bins ---------------------------------------------------------------------


def test_bin_zero_offset():
    assert spatial_bin(0.0, 1.5) == 0


@pytest.mark.parametrize("x,expected", [(1.0, 1), (3.0, 2), (5.0, 3), (-1.0, -1),
                                        (-5.0, -3), (6.0, 3)])
def test_bin_x_paper_points(x, expected):
    assert spatial_bin(x, 1.5) == expected


def test_bin_z_point_six():
    assert spatial_bin(0.6, 0.5) == 1


def test_bin_x_transitions():
    xs = np.arange(0.0, 6.0, 0.001)
    bins = spatial_bin(xs, 1.5)
    jumps = xs[1:][np.diff(bins) != 0]
    expected = [0.75, 2.25, 3.0 * np.sqrt(2.0 / 1.25)]  # last one ~3.7947
    assert len(jumps) == 3
    np.testing.assert_allclose(jumps, expected, atol=0.005)
    # matches the printed figure coordinates loosely (0.75 / 2.23 / 3.79)
    np.testing.assert_allclose(jumps, [0.75, 2.23, 3.79], atol=0.02)


def test_bin_z_transitions():
    xs = np.arange(0.0, 6.0, 0.001)
    bins = spatial_bin(xs, 0.5)
    jumps = xs[1:][np.diff(bins) != 0]
    expected = [0.25, 0.75, np.sqrt(2.0 / 1.25)]  # last one ~1.2649 (figure prints 1.25)
    assert len(jumps) == 3
    np.testing.assert_allclose(jumps, expected, atol=0.005)


def test_bin_monotone_and_symmetric():
    xs = np.linspace(-30, 30, 5001)
    b = spatial_bin(xs, 1.5)
    assert np.all(np.diff(b) >= 0)
    np.testing.assert_array_equal(spatial_bin(-xs, 1.5), -b)
    assert b.max() == 3 and b.min() == -3


def test_temporal_bin_positions():
    np.testing.assert_array_equal(temporal_bin(np.array([0, 5, 10]), (0, 5, 10)),
                                  [0, 1, 2])
    with pytest.raises(ValueError):
        temporal_bin(np.array([3]), (0, 5, 10))


# -- mask -----------------------------------------------------------------------


def test_mask_self_included():
    c = np.zeros((1, 3))
    rot = np.zeros(1, dtype=np.int64)
    vi, ui = mask_pairs(c, rot, c, rot, AttnConfig())
    assert (vi.tolist(), ui.tolist()) == ([0], [0])


def test_mask_radius_and_offsets():
    cfg = AttnConfig()
    cv = np.zeros((1, 3))
    rv = np.array([10])
    cu = np.array([[5.0, 0, 0], [7.0, 0, 0], [5.0, 0, 0]])
    ru = np.array([5, 10, 7])  # offsets 5, 0, 3
    vi, ui = mask_pairs(cv, rv, cu, ru, cfg)
    # distance 5 offset 5 in; distance 7 out; offset 3 out
    assert ui.tolist() == [0]


def dense_mask_pairs(centers_v, rotation_v, centers_u, rotation_u, cfg):
    """The dense distance-matrix mask that the spatial hash replaced."""
    if centers_v.shape[0] == 0 or centers_u.shape[0] == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    off = rotation_v[:, None] - rotation_u[None, :]
    ok = np.isin(off, cfg.offsets)
    d2 = ((centers_v[:, None, :] - centers_u[None, :, :]) ** 2).sum(axis=2)
    ok &= d2 < cfg.radius ** 2
    vi, ui = np.nonzero(ok)
    return vi.astype(np.int64), ui.astype(np.int64)


@st.composite
def mask_cases(draw):
    """Token sets on a lattice of about radius / 4 steps, mixed with free
    coordinates, and often u tokens a few steps from the v tokens; either
    side may be empty.  An exact lattice puts pairs at exactly the radius;
    lattices a hair wider or narrower put centers on and next to the hash
    cell edges.  Coordinates go negative."""
    radius = draw(st.sampled_from([0.3, 1.0, 1.5, 6.0]))
    step = radius / 4 * draw(st.sampled_from([1.0, 1.0 + 1e-6, 1.0 + 2e-6, 1.0 - 1e-6]))
    coord = st.one_of(st.integers(-8, 8).map(lambda k: k * step),
                      st.floats(-3 * radius, 3 * radius))

    def points(n):
        return np.array(draw(st.lists(st.tuples(coord, coord, coord), min_size=n,
                                      max_size=n)), dtype=np.float64).reshape(n, 3)

    def rotations(n):
        return np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
                        dtype=np.int64)

    n_v, n_u = draw(st.integers(0, 20)), draw(st.integers(0, 20))
    centers_v, rotation_v = points(n_v), rotations(n_v)
    centers_u, rotation_u = points(n_u), rotations(n_u)
    if n_v and draw(st.booleans()):  # u tokens up to five steps from v tokens
        hops = st.tuples(*[st.integers(-5, 5)] * 3)
        hops = np.array(draw(st.lists(hops, min_size=n_u, max_size=n_u))).reshape(n_u, 3)
        centers_u = centers_v[np.arange(n_u) % n_v] + hops * step
    if draw(st.booleans()):  # a slice against its past plus itself, as in streaming
        centers_u = np.concatenate([centers_u, centers_v])
        rotation_u = np.concatenate([rotation_u, rotation_v])
    offsets = draw(st.sampled_from([(0,), (0, 1, 2), (0, 2), (0, 5, 10)]))
    cfg = AttnConfig(radius=radius, offsets=offsets)
    return centers_v, rotation_v, centers_u, rotation_u, cfg


@settings(max_examples=300, deadline=None)
@given(mask_cases())
def test_mask_pairs_matches_dense(case):
    vi, ui = mask_pairs(*case)
    want_vi, want_ui = dense_mask_pairs(*case)
    assert vi.dtype == ui.dtype == np.int64
    np.testing.assert_array_equal(vi, want_vi)
    np.testing.assert_array_equal(ui, want_ui)


def test_mask_pairs_keeps_pairs_at_the_radius_edge():
    cfg = AttnConfig(radius=6.0)
    below = np.nextafter(6.0, 0.0)
    cu = np.array([[6.0, 0, 0], [below, 0, 0], [-below, 0, 0], [0, 0, -6.0], [0, below, 0]])
    rot = np.zeros(5, dtype=np.int64)
    vi, ui = mask_pairs(np.zeros((1, 3)), rot[:1], cu, rot, cfg)
    assert ui.tolist() == [1, 2, 4]


def test_zero_radius_mask_is_empty_without_warnings():
    rng = np.random.default_rng(2)
    c = rng.uniform(-4, 4, (6, 3))
    rot = np.zeros(6, dtype=np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vi, ui = mask_pairs(c, rot, c, rot, micro_cfg(radius=0.0))
    assert vi.size == ui.size == 0


def test_pair_bins_index_the_stacked_tables():
    cfg = AttnConfig()
    cv = np.zeros((1, 3))
    cu = np.array([[1.0, -5.0, 0.6], [0.0, 0.0, 0.0]])
    bins = pair_bins(cv, np.array([10]), cu, np.array([5, 10]), np.array([0, 0]),
                     np.array([0, 1]), cfg)
    S = cfg.bins_spatial
    np.testing.assert_array_equal(bins, [[3 + 1, S + 3 - 3, 2 * S + 3 + 1, 3 * S + 1],
                                         [3, S + 3, 2 * S + 3, 3 * S]])


# -- blocks ----------------------------------------------------------------------


def test_self_only_block_is_residual_plus_value():
    cfg = micro_cfg(without_posenc=True)
    rng = np.random.default_rng(0)
    params = TransformerParams(cfg, rng)
    tok = random_tokens(rng, 1, cfg)
    out, (keys, values) = block_forward(tok, None, 0, params.blocks[0], cfg)
    expected = tok.features.data + np.concatenate([v.data for v in values], axis=1)
    np.testing.assert_allclose(out.features.data, expected, atol=1e-12)


def test_attention_rows_sum_to_one():
    cfg = micro_cfg()
    rng = np.random.default_rng(1)
    params = TransformerParams(cfg, rng)
    n = 20
    tok = random_tokens(rng, n, cfg)
    # dense reference exposes the weights implicitly: rows with a mask must
    # reproduce an average, i.e. outputs lie in the convex hull of values
    out = dense_block_reference(tok.features.data, tok.centers, tok.t, tok.rotation,
                                tok.slice_seq, 0, params.blocks[0], cfg)
    assert np.all(np.isfinite(out))


@pytest.mark.parametrize("flags", [{}, {"with_queries": True}, {"without_posenc": True}])
def test_sparse_block_matches_dense(flags):
    rng = np.random.default_rng(7)
    cfg = micro_cfg(**flags)
    params = TransformerParams(cfg, rng)
    for trial in range(4):
        n = int(rng.integers(2, 50))
        tok = random_tokens(rng, n, cfg)
        out, _ = block_forward(tok, None, 0, params.blocks[0], cfg)
        ref = dense_block_reference(tok.features.data, tok.centers, tok.t, tok.rotation,
                                    tok.slice_seq, 0, params.blocks[0], cfg)
        np.testing.assert_allclose(out.features.data, ref, atol=1e-9)


def test_empty_mask_is_pure_residual():
    # radius 0 empties the mask entirely (self-distance 0 is not < 0)
    cfg = micro_cfg(radius=0.0)
    rng = np.random.default_rng(3)
    params = TransformerParams(cfg, rng)
    tok = random_tokens(rng, 5, cfg)
    out, _ = block_forward(tok, None, 0, params.blocks[0], cfg)
    np.testing.assert_allclose(out.features.data, tok.features.data, atol=1e-15)


def _grid_from_tokens(tok, cfg, seq):
    from helix.geometry import GridSpec, SparseCylGrid

    n = len(tok)
    spec = GridSpec(3, 1.5, 45, 0.5)
    return SparseCylGrid(
        spec=spec, keys=np.zeros((n, 3), dtype=np.int64),
        keys_packed=np.arange(n, dtype=np.int64), features=tok.features,
        centers=tok.centers, t_first=tok.t, rotation=tok.rotation, slice_seq=seq,
        sensor_position=np.zeros(3))


def test_transformer_zero_blocks_is_identity():
    cfg = micro_cfg(blocks=0)
    rng = np.random.default_rng(4)
    params = TransformerParams(cfg, rng)
    tok = random_tokens(rng, 8, cfg)
    grid = _grid_from_tokens(tok, cfg, 0)
    out = transformer_forward(grid, KVBuffer(cfg), params, cfg)
    np.testing.assert_array_equal(out.features.data, tok.features.data)


def _slice_fixture(rng, cfg, n_slices, n_per, slices_per_rotation=1):
    toks = []
    for s in range(n_slices):
        rot = s // slices_per_rotation
        t = random_tokens(rng, n_per, cfg, rotations=(rot,))
        t.slice_seq = np.full(n_per, s, dtype=np.int64)
        toks.append(t)
    return toks


def _run_streaming(token_sets, params, cfg):
    buffer = KVBuffer(cfg)
    outs = []
    for s, tok in enumerate(token_sets):
        grid = _grid_from_tokens(tok, cfg, s)
        out = transformer_forward(grid, buffer, params, cfg)
        outs.append(out.features.data.copy())
    return outs, buffer


def test_streaming_matches_batch():
    rng = np.random.default_rng(5)
    cfg = micro_cfg(blocks=2)
    params = TransformerParams(cfg, rng)
    token_sets = _slice_fixture(rng, cfg, 3, 12)
    outs, _ = _run_streaming(token_sets, params, cfg)

    feats = np.concatenate([t.features.data for t in token_sets])
    centers = np.concatenate([t.centers for t in token_sets])
    tt = np.concatenate([t.t for t in token_sets])
    rot = np.concatenate([t.rotation for t in token_sets])
    seq = np.concatenate([t.slice_seq for t in token_sets])
    ref = dense_transformer_reference(feats, centers, tt, rot, seq, params, cfg)
    np.testing.assert_allclose(np.concatenate(outs), ref, atol=1e-9)


class RecordingBuffer(KVBuffer):
    """Records, per fetch, the rotations asked for and the entries returned."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.fetches = []

    def fetch(self, rotations):
        got = super().fetch(rotations)
        self.fetches.append((list(self.entries), got))
        return got


def test_streaming_fetches_only_attendable_rotations():
    """Offsets {0, 2} over five rotations, every other slice straddling two
    rotation indices: streaming equals the dense batch reference, and a
    single-rotation slice at r never fetches the entries holding only r - 1."""
    rng = np.random.default_rng(16)
    cfg = micro_cfg(blocks=2, offsets=(0, 2))
    params = TransformerParams(cfg, rng)
    token_sets = []
    for s in range(8):
        tok = random_tokens(rng, 9, cfg, rotations=(s // 2, s // 2 + 1) if s % 2 else (s // 2,))
        tok.slice_seq = np.full(len(tok), s, dtype=np.int64)
        token_sets.append(tok)
    assert len(np.unique(np.concatenate([t.rotation for t in token_sets]))) == 5
    assert all(len(np.unique(t.rotation)) == 2 for t in token_sets[1::2])

    buffer = RecordingBuffer(cfg)
    outs = [transformer_forward(_grid_from_tokens(tok, cfg, s), buffer, params, cfg)
            .features.data for s, tok in enumerate(token_sets)]
    feats = np.concatenate([t.features.data for t in token_sets])
    centers = np.concatenate([t.centers for t in token_sets])
    tt = np.concatenate([t.t for t in token_sets])
    rot = np.concatenate([t.rotation for t in token_sets])
    seq = np.concatenate([t.slice_seq for t in token_sets])
    ref = dense_transformer_reference(feats, centers, tt, rot, seq, params, cfg)
    np.testing.assert_allclose(np.concatenate(outs), ref, atol=1e-9)

    skipped = 0
    for s in range(2, 8, 2):
        r = s // 2
        buffered, fetched = buffer.fetches[s]
        only_previous = [e for e in buffered if e.rotations == {r - 1}]
        assert only_previous
        assert not any(e.rotations == {r - 1} for e in fetched)
        assert all(e in fetched for e in buffered if r - 2 in e.rotations)
        skipped += len(buffered) - len(fetched)
    assert skipped > 0


def test_slice_by_slice_ablation_changes_output():
    rng = np.random.default_rng(6)
    cfg = micro_cfg(blocks=1, offsets=(0, 1))
    params = TransformerParams(cfg, rng)
    token_sets = _slice_fixture(rng, cfg, 2, 10)
    full, _ = _run_streaming(token_sets, params, cfg)

    cfg_sbs = micro_cfg(blocks=1, offsets=(0, 1), slice_by_slice=True)
    sbs, _ = _run_streaming(token_sets, params, cfg_sbs)
    np.testing.assert_allclose(full[0], sbs[0], atol=1e-12)  # first slice has no past
    assert not np.allclose(full[1], sbs[1])


def test_causality_future_perturbation():
    rng = np.random.default_rng(8)
    cfg = micro_cfg(blocks=2)
    params = TransformerParams(cfg, rng)
    token_sets = _slice_fixture(rng, cfg, 3, 10)
    outs_a, _ = _run_streaming(token_sets, params, cfg)

    perturbed = token_sets[:2] + [VoxelTokens(
        Tensor(token_sets[2].features.data + 1.0), token_sets[2].centers,
        token_sets[2].t, token_sets[2].rotation, token_sets[2].slice_seq)]
    outs_b, _ = _run_streaming(perturbed, params, cfg)
    np.testing.assert_array_equal(outs_a[0], outs_b[0])
    np.testing.assert_array_equal(outs_a[1], outs_b[1])
    assert not np.array_equal(outs_a[2], outs_b[2])


def test_buffer_eviction_by_rotation_age():
    rng = np.random.default_rng(9)
    cfg = micro_cfg(blocks=1, offsets=(0, 1, 2))
    params = TransformerParams(cfg, rng)
    token_sets = _slice_fixture(rng, cfg, 6, 5)
    _, buffer = _run_streaming(token_sets, params, cfg)
    current = max(int(e.rotation.max()) for e in buffer.entries)
    for e in buffer.entries:
        assert current - int(e.rotation.max()) <= cfg.max_offset + 1  # before next evict
    buffer.evict(current)
    for e in buffer.entries:
        assert current - int(e.rotation.max()) <= cfg.max_offset


def test_translation_invariance():
    rng = np.random.default_rng(10)
    cfg = micro_cfg(blocks=2)
    params = TransformerParams(cfg, rng)
    tok = random_tokens(rng, 30, cfg, rotations=(0, 1))
    out1, _ = block_forward(tok, None, 0, params.blocks[0], cfg)

    shifted = VoxelTokens(tok.features, tok.centers + np.array([128.0, -64.0, 32.0]),
                          tok.t, tok.rotation, tok.slice_seq)
    out2, _ = block_forward(shifted, None, 0, params.blocks[0], cfg)
    np.testing.assert_allclose(out1.features.data, out2.features.data, atol=1e-9)


def test_block_gradcheck():
    rng = np.random.default_rng(11)
    cfg = micro_cfg(blocks=1, heads=2, dim=6, key_dim=3)
    params = TransformerParams(cfg, rng)
    tok = random_tokens(rng, 6, cfg, rotations=(0, 1), requires_grad=True)
    tensors = [tok.features] + [t for _, t in params.parameters()]

    def loss():
        out, _ = block_forward(tok, None, 0, params.blocks[0], cfg)
        return (out.features * out.features).sum()

    assert gradcheck(loss, tensors, max_entries=40) < 1e-5


def test_block_gradcheck_through_buffer():
    rng = np.random.default_rng(12)
    cfg = micro_cfg(blocks=1, heads=2, dim=6, key_dim=3, offsets=(0, 1))
    params = TransformerParams(cfg, rng)
    tok0 = random_tokens(rng, 4, cfg, rotations=(0,), requires_grad=True)
    tok1 = random_tokens(rng, 4, cfg, rotations=(1,), requires_grad=True)
    tensors = [tok0.features, tok1.features] + [t for _, t in params.parameters()]

    def loss():
        buffer = KVBuffer(cfg)
        g0 = _grid_from_tokens(tok0, cfg, 0)
        g1 = _grid_from_tokens(tok1, cfg, 1)
        transformer_forward(g0, buffer, params, cfg)
        out1 = transformer_forward(g1, buffer, params, cfg)
        return (out1.features * out1.features).sum()

    assert gradcheck(loss, tensors, max_entries=30) < 1e-5


# -- head/bin statistics ------------------------------------------------------------


def test_head_stats_zero_tables():
    rng = np.random.default_rng(13)
    cfg = micro_cfg(blocks=1)
    params = TransformerParams(cfg, rng)
    for tables in params.blocks[0].pos:
        for t in tables.values():
            t.data[:] = 0.0
    toks = _slice_fixture(rng, cfg, 2, 8)
    stats = head_compat_stats(toks, params, cfg)
    assert stats
    assert all(v == 0.0 for v in stats.values())


def test_head_stats_single_pair():
    rng = np.random.default_rng(14)
    cfg = micro_cfg(blocks=1, heads=1, dim=4, key_dim=2)
    params = TransformerParams(cfg, rng)
    tok = random_tokens(rng, 1, cfg)
    stats = head_compat_stats([tok], params, cfg)
    # single self-pair: every dimension has exactly its zero bin
    kv = tok.features.data @ params.blocks[0].kv[0].weight.data + params.blocks[0].kv[0].bias.data
    key = kv[:, :2][0]
    pos = (params.blocks[0].pos[0]["X"].data[cfg.beta]
           + params.blocks[0].pos[0]["Y"].data[cfg.beta]
           + params.blocks[0].pos[0]["Z"].data[cfg.beta]
           + params.blocks[0].pos[0]["T"].data[0])
    expected = float(key @ pos)
    assert stats[(0, 0, "X", 0)] == pytest.approx(expected, abs=1e-12)
    assert stats[(0, 0, "T", 0)] == pytest.approx(expected, abs=1e-12)


def dense_head_compat_stats(token_sets, params, cfg):
    """The earlier statistics: block inputs from the dense -inf reference."""
    features = np.concatenate([ts.features.data for ts in token_sets])
    centers = np.concatenate([ts.centers for ts in token_sets])
    t = np.concatenate([ts.t for ts in token_sets])
    rotation = np.concatenate([ts.rotation for ts in token_sets])
    slice_seq = np.concatenate([ts.slice_seq for ts in token_sets])
    vi, ui = dense_mask_pairs(centers, rotation, centers, rotation, cfg)
    keep = slice_seq[ui] <= slice_seq[vi]
    vi, ui = vi[keep], ui[keep]
    bins = {
        "X": spatial_bin(centers[ui, 0] - centers[vi, 0], cfg.rho_x),
        "Y": spatial_bin(centers[ui, 1] - centers[vi, 1], cfg.rho_y),
        "Z": spatial_bin(centers[ui, 2] - centers[vi, 2], cfg.rho_z),
        "T": temporal_bin(rotation[vi] - rotation[ui], cfg.offsets),
    }
    out = {}
    block_input = features
    for w, block in enumerate(params.blocks):
        for h in range(cfg.heads):
            keys = (block_input @ block.kv[h].weight.data + block.kv[h].bias.data)[:, :cfg.key_dim]
            pos = (block.pos[h]["X"].data[bins["X"] + cfg.beta]
                   + block.pos[h]["Y"].data[bins["Y"] + cfg.beta]
                   + block.pos[h]["Z"].data[bins["Z"] + cfg.beta]
                   + block.pos[h]["T"].data[bins["T"]])
            compat = np.einsum("ek,ek->e", keys[vi], pos)
            for d in ("X", "Y", "Z", "T"):
                for b in np.unique(bins[d]):
                    out[(w, h, d, int(b))] = float(compat[bins[d] == b].mean())
        block_input = dense_block_reference(block_input, centers, t, rotation, slice_seq, w,
                                            block, cfg)
    return out


@pytest.mark.parametrize("flags", [{}, {"with_queries": True}, {"slice_by_slice": True}])
def test_head_stats_two_blocks_match_dense_driven(flags):
    rng = np.random.default_rng(17)
    cfg = micro_cfg(blocks=2, **flags)
    params = TransformerParams(cfg, rng)
    toks = _slice_fixture(rng, cfg, 4, 8, slices_per_rotation=2)
    stats = head_compat_stats(toks, params, cfg)
    want = dense_head_compat_stats(toks, params, cfg)
    assert set(stats) == set(want)
    assert any(w == 1 for w, *_ in stats)
    for key_, value in want.items():
        assert stats[key_] == pytest.approx(value, abs=1e-9)


def test_head_stats_brute_force():
    rng = np.random.default_rng(15)
    cfg = micro_cfg(blocks=1, heads=2, dim=6, key_dim=3)
    params = TransformerParams(cfg, rng)
    toks = _slice_fixture(rng, cfg, 2, 7)
    stats = head_compat_stats(toks, params, cfg)

    # brute-force double loop
    feats = np.concatenate([t.features.data for t in toks])
    centers = np.concatenate([t.centers for t in toks])
    rot = np.concatenate([t.rotation for t in toks])
    seq = np.concatenate([t.slice_seq for t in toks])
    n = feats.shape[0]
    from collections import defaultdict

    acc = defaultdict(list)
    for h in range(cfg.heads):
        blk = params.blocks[0]
        keys = (feats @ blk.kv[h].weight.data + blk.kv[h].bias.data)[:, :cfg.key_dim]
        for v in range(n):
            for u in range(n):
                if seq[u] > seq[v]:
                    continue
                d = centers[v] - centers[u]
                if (d @ d) >= cfg.radius ** 2 or (rot[v] - rot[u]) not in cfg.offsets:
                    continue
                bx = int(spatial_bin(centers[u, 0] - centers[v, 0], cfg.rho_x))
                by = int(spatial_bin(centers[u, 1] - centers[v, 1], cfg.rho_y))
                bz = int(spatial_bin(centers[u, 2] - centers[v, 2], cfg.rho_z))
                bt = int(temporal_bin(np.array([rot[v] - rot[u]]), cfg.offsets)[0])
                pos = (blk.pos[h]["X"].data[bx + cfg.beta] + blk.pos[h]["Y"].data[by + cfg.beta]
                       + blk.pos[h]["Z"].data[bz + cfg.beta] + blk.pos[h]["T"].data[bt])
                c = float(keys[v] @ pos)
                for dim, b in (("X", bx), ("Y", by), ("Z", bz), ("T", bt)):
                    acc[(0, h, dim, b)].append(c)
    for key_, vals in acc.items():
        assert stats[key_] == pytest.approx(np.mean(vals), abs=1e-9)
    assert set(stats) == set(acc)
