"""Spatio-temporal attention over coarse voxels, with causal key/value buffering.

Each coarse voxel token carries its absolute center, the release time of its
first point and its rotation index.  A token attends the tokens of the current
and selected past rotations that lie within a metric radius; compatibilities
use the token's key both as key and as query plus a binned relative positional
encoding, per head.  Blocks keep no feed-forward or normalization stages: the
learnable state is the per-head linear layers and the positional tables.

Streaming works slice by slice: the keys, values and positions of every
processed slice stay buffered for ``max(offsets)`` rotations, so a new slice
attends a large spatio-temporal neighborhood without recomputation.  Buffered
tensors stay connected to the autodiff graph only on the training path
(``forward_slice``), which makes training windows differentiate exactly
through the buffer; inference (``segment_points``) runs under ``no_grad``, so
the buffer holds plain data and its memory is bounded by the payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import (
    Linear,
    Tensor,
    add,
    concat,
    gather_rows,
    matmul,
    mul,
    no_grad,
    reshape,
    scatter_add_rows,
    segment_softmax,
    slice_cols,
    transpose,
    tsum,
)
from .geometry import SparseCylGrid


@dataclass
class AttnConfig:
    blocks: int = 2
    heads: int = 4
    dim: int = 128
    key_dim: int = 8
    radius: float = 6.0
    offsets: tuple = (0, 5, 10)
    rho_x: float = 1.5
    rho_y: float = 1.5
    rho_z: float = 0.5
    rho_t: float = 0.52          # 5 rotations x 104 ms; kept on record for stats
    alpha: float = 2.0
    beta: int = 3
    gamma: float = 1.25
    with_queries: bool = False   # ablation: separate query projection
    without_posenc: bool = False  # ablation: drop the positional term
    slice_by_slice: bool = False  # ablation: mask restricted to the current slice

    def __post_init__(self):
        if self.dim % self.heads != 0:
            raise ValueError("dim must be divisible by heads")
        if 0 not in self.offsets:
            raise ValueError("rotation offsets must contain 0")
        self.offsets = tuple(sorted(self.offsets))

    @property
    def head_dim(self):
        return self.dim // self.heads

    @property
    def bins_spatial(self):
        return 2 * self.beta + 1

    @property
    def bins_temporal(self):
        return len(self.offsets)

    @property
    def max_offset(self):
        return max(self.offsets)


# ---------------------------------------------------------------------------
# positional-encoding bins
# ---------------------------------------------------------------------------


def _round_half_away(v):
    return np.sign(v) * np.floor(np.abs(v) + 0.5)


def spatial_bin(x, rho, alpha=2.0, beta=3, gamma=1.25):
    """Discretize a metric offset into ``2*beta + 1`` irregular bins.

    Rounded-linear inside ``|x| <= alpha*rho``; logarithmic growth outside,
    saturating at ``+-beta``.  Monotone non-decreasing in ``x``.
    """
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x)
    lin = _round_half_away(x / rho)
    # clamp below the branch point: the log branch is only used for |x| > alpha*rho
    arg = alpha + (np.log(np.maximum(ax, alpha * rho) / (alpha * rho))
                   / np.log(alpha / gamma) * (beta - alpha))
    logpart = np.sign(x) * np.minimum(beta, _round_half_away(arg))
    out = np.where(ax <= alpha * rho, lin, logpart)
    return np.clip(out, -beta, beta).astype(np.int64)


def temporal_bin(rotation_delta, offsets):
    """Bin index of a rotation offset: its position in the sorted offset set."""
    offs = np.asarray(offsets)
    idx = np.searchsorted(offs, rotation_delta)
    idx = np.clip(idx, 0, offs.size - 1)
    if np.any(offs[idx] != rotation_delta):
        raise ValueError("rotation delta outside the configured offset set")
    return idx.astype(np.int64)


# ---------------------------------------------------------------------------
# tokens, parameters, buffer
# ---------------------------------------------------------------------------


@dataclass
class VoxelTokens:
    """Tokens of one or more slices at the coarsest grid level."""

    features: Tensor        # (n, dim)
    centers: np.ndarray     # (n, 3) absolute
    t: np.ndarray           # (n,) release time of first point
    rotation: np.ndarray    # (n,) rotation index
    slice_seq: np.ndarray   # (n,) global slice counter

    def __len__(self):
        return self.centers.shape[0]


def tokens_from_grid(grid: SparseCylGrid) -> VoxelTokens:
    n = grid.n_cells
    return VoxelTokens(grid.features, grid.centers, grid.t_first, grid.rotation,
                       np.full(n, grid.slice_seq, dtype=np.int64))


class BlockParams:
    """Per-head joint key/value projection plus positional tables for one block."""

    POS_INIT = 0.2  # keys are O(1); tables must register in compatibilities early

    def __init__(self, cfg: AttnConfig, rng, dtype=np.float64):
        K, Dh = cfg.key_dim, cfg.head_dim
        self.kv = [Linear(cfg.dim, K + Dh, rng=rng, dtype=dtype) for _ in range(cfg.heads)]
        self.query = ([Linear(cfg.dim, K, rng=rng, dtype=dtype) for _ in range(cfg.heads)]
                      if cfg.with_queries else None)
        self.pos = []
        for _ in range(cfg.heads):
            tables = {
                "X": Tensor(rng.standard_normal((cfg.bins_spatial, K)) * self.POS_INIT,
                            requires_grad=True, dtype=dtype),
                "Y": Tensor(rng.standard_normal((cfg.bins_spatial, K)) * self.POS_INIT,
                            requires_grad=True, dtype=dtype),
                "Z": Tensor(rng.standard_normal((cfg.bins_spatial, K)) * self.POS_INIT,
                            requires_grad=True, dtype=dtype),
                "T": Tensor(rng.standard_normal((cfg.bins_temporal, K)) * self.POS_INIT,
                            requires_grad=True, dtype=dtype),
            }
            self.pos.append(tables)

    def parameters(self, prefix=""):
        for h, layer in enumerate(self.kv):
            yield from layer.parameters(f"{prefix}h{h}.kv.")
        if self.query is not None:
            for h, layer in enumerate(self.query):
                yield from layer.parameters(f"{prefix}h{h}.query.")
        for h, tables in enumerate(self.pos):
            for d, tensor in tables.items():
                yield f"{prefix}h{h}.pos_{d.lower()}", tensor


class TransformerParams:
    def __init__(self, cfg: AttnConfig, rng=None, dtype=np.float64):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.cfg = cfg
        self.blocks = [BlockParams(cfg, rng, dtype) for _ in range(cfg.blocks)]

    def parameters(self, prefix="attn."):
        for w, block in enumerate(self.blocks):
            yield from block.parameters(f"{prefix}b{w}.")


@dataclass
class BufferEntry:
    """Keys/values of one processed slice, for every block and head."""

    slice_seq: int
    rotation: np.ndarray
    centers: np.ndarray
    t: np.ndarray
    keys: list     # [block][head] Tensor (n, key_dim)
    values: list   # [block][head] Tensor (n, head_dim)
    rotations: frozenset = field(init=False)  # the distinct rotation indices held

    def __post_init__(self):
        self.rotations = frozenset(np.unique(self.rotation).tolist())

    def __len__(self):
        return self.centers.shape[0]


class KVBuffer:
    """Causal ring buffer of past slices, evicted strictly by rotation age."""

    def __init__(self, cfg: AttnConfig):
        self.cfg = cfg
        self.entries: list[BufferEntry] = []

    def append(self, entry: BufferEntry):
        self.entries.append(entry)

    def evict(self, current_rotation):
        keep = self.cfg.max_offset
        self.entries = [e for e in self.entries
                        if len(e) and current_rotation - max(e.rotations) <= keep]

    def fetch(self, rotations):
        """The entries holding any of ``rotations``, oldest first."""
        wanted = set(rotations)
        return [e for e in self.entries if not e.rotations.isdisjoint(wanted)]

    def clear(self):
        self.entries = []


# ---------------------------------------------------------------------------
# masking
# ---------------------------------------------------------------------------


_NEIGHBORS = np.stack(np.meshgrid(*[[-1, 0, 1]] * 3, indexing="ij"), axis=-1).reshape(-1, 3)


def _cell_key(cells, dims):
    return (cells[..., 0] * dims[1] + cells[..., 1]) * dims[2] + cells[..., 2]


def mask_pairs(centers_v, rotation_v, centers_u, rotation_u, cfg: AttnConfig):
    """All (v, u) attention pairs: center distance < radius, rotation offset in P.

    Returns (vi, ui) index arrays in v-major, u-ascending order.  Candidates
    are assumed causally valid (no future slices).

    A uniform spatial hash finds the candidates: the u centers are sorted by
    cell, and each v looks up the 27 cells around its own.  Cells are a hair
    wider than the radius, so two centers closer than the radius lie in
    neighboring cells even after the rounding of the cell computation; the
    exact distance and offset tests then pick the pairs.
    """
    empty = np.zeros(0, dtype=np.int64)
    n_v, n_u = centers_v.shape[0], centers_u.shape[0]
    if n_v == 0 or n_u == 0 or not cfg.radius > 0:
        return empty, empty.copy()
    lo = centers_v.min(axis=0)
    # at most 2**20 cells a side keep the packed cell keys inside int64
    cell = max(cfg.radius * (1.0 + 1e-6), float((centers_v.max(axis=0) - lo).max()) / 2**20)
    cells_v = np.floor((centers_v - lo) / cell).astype(np.int64) + 1
    cells_u = np.floor((centers_u - lo) / cell).astype(np.int64) + 1
    dims = cells_v.max(axis=0) + 2
    near = np.flatnonzero(np.all((cells_u >= 0) & (cells_u < dims), axis=1))
    keys_u = _cell_key(cells_u[near], dims)
    order = np.argsort(keys_u, kind="stable")
    keys_u = keys_u[order]

    keys_v = _cell_key(cells_v[:, None, :] + _NEIGHBORS, dims).ravel()
    first = np.searchsorted(keys_u, keys_v, "left")
    count = np.searchsorted(keys_u, keys_v, "right") - first
    vi = np.repeat(np.arange(n_v), count.reshape(n_v, -1).sum(axis=1))
    run_start = np.cumsum(count) - count
    ui = near[order[np.arange(vi.size) - np.repeat(run_start - first, count)]]

    d2 = ((centers_v[vi] - centers_u[ui]) ** 2).sum(axis=1)
    ok = (d2 < cfg.radius ** 2) & np.isin(rotation_v[vi] - rotation_u[ui], cfg.offsets)
    pair = np.sort(vi[ok] * n_u + ui[ok])
    return pair // n_u, pair % n_u


def _table_starts(cfg: AttnConfig):
    """First row of the X, Y, Z and T tables in their row-wise stack."""
    S = cfg.bins_spatial
    return np.array([0, S, 2 * S, 3 * S])


def pair_bins(centers_v, rotation_v, centers_u, rotation_u, vi, ui, cfg: AttnConfig):
    """Positional-table rows of every pair (v, u), shape (pairs, 4).

    The columns index the row-wise stack of the X, Y, Z and T tables: the
    spatial bins of the offset ``u - v`` and the temporal bin of
    ``r_v - r_u``, each shifted to its table's first row.
    """
    d = centers_u[ui] - centers_v[vi]
    rows = [spatial_bin(d[:, i], rho, cfg.alpha, cfg.beta, cfg.gamma) + cfg.beta
            for i, rho in enumerate((cfg.rho_x, cfg.rho_y, cfg.rho_z))]
    rows.append(temporal_bin(rotation_v[vi] - rotation_u[ui], cfg.offsets))
    return np.stack(rows, axis=1) + _table_starts(cfg)


def _slice_geometry(tokens: VoxelTokens, past_entries, cfg: AttnConfig):
    """The mask pairs of a slice against past plus current, and their table rows."""
    cand_centers = np.concatenate([e.centers for e in past_entries] + [tokens.centers])
    cand_rot = np.concatenate([e.rotation for e in past_entries] + [tokens.rotation])
    pairs = mask_pairs(tokens.centers, tokens.rotation, cand_centers, cand_rot, cfg)
    bins = (None if cfg.without_posenc else
            pair_bins(tokens.centers, tokens.rotation, cand_centers, cand_rot, *pairs, cfg))
    return pairs, bins


def _pair_posenc(tables, queries, index):
    """Each pair's positional compatibility: its query against its four table rows.

    Every query meets all stacked table rows in one small product; ``index``
    holds each pair's four flat positions in it.
    """
    stacked = concat([tables[d] for d in ("X", "Y", "Z", "T")], axis=0)
    compat = reshape(matmul(queries, transpose(stacked)), (-1,))
    return tsum(gather_rows(compat, index), axis=1)


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------


def _project_kv(features, params: BlockParams, cfg: AttnConfig):
    """Per-head keys and values from the joint linear layer."""
    keys, values = [], []
    for h in range(cfg.heads):
        kv = params.kv[h](features)
        keys.append(slice_cols(kv, 0, cfg.key_dim))
        values.append(slice_cols(kv, cfg.key_dim, cfg.key_dim + cfg.head_dim))
    return keys, values


def block_forward(tokens: VoxelTokens, past: BufferEntry | list | None,
                  block_index: int, params: BlockParams, cfg: AttnConfig,
                  pairs=None, bins=None):
    """One attention block over a slice's tokens against past plus current.

    ``pairs`` and their ``bins`` (from :func:`mask_pairs` and
    :func:`pair_bins` over past plus current) are computed here when
    ``pairs`` is not given.  Returns the output tokens and this slice's
    (keys, values) for the buffer.  An empty mask degenerates to a pure
    residual pass-through.
    """
    n = len(tokens)
    cur_keys, cur_values = _project_kv(tokens.features, params, cfg)
    queries = ([params.query[h](tokens.features) for h in range(cfg.heads)]
               if cfg.with_queries else cur_keys)

    past_entries = [] if past is None else (past if isinstance(past, list) else [past])
    if cfg.slice_by_slice:
        past_entries = []

    if pairs is None:
        pairs, bins = _slice_geometry(tokens, past_entries, cfg)
    vi, ui = pairs
    if not cfg.without_posenc:
        pos_index = vi[:, None] * (3 * cfg.bins_spatial + cfg.bins_temporal) + bins

    head_outputs = []
    for h in range(cfg.heads):
        if vi.size == 0:
            head_outputs.append(Tensor(np.zeros((n, cfg.head_dim),
                                                dtype=tokens.features.dtype)))
            continue
        cand_keys = concat([e.keys[block_index][h] for e in past_entries] + [cur_keys[h]],
                           axis=0)
        cand_values = concat([e.values[block_index][h] for e in past_entries]
                             + [cur_values[h]], axis=0)
        scores = tsum(mul(gather_rows(queries[h], vi), gather_rows(cand_keys, ui)), axis=1)
        if not cfg.without_posenc:
            scores = add(scores, _pair_posenc(params.pos[h], queries[h], pos_index))
        attn = segment_softmax(mul(scores, 1.0 / np.sqrt(cfg.key_dim)), vi, n)
        weighted = mul(reshape(attn, (-1, 1)), gather_rows(cand_values, ui))
        head_outputs.append(scatter_add_rows(weighted, vi, n))

    out_features = add(tokens.features, concat(head_outputs, axis=1))
    out = VoxelTokens(out_features, tokens.centers, tokens.t, tokens.rotation,
                      tokens.slice_seq)
    return out, (cur_keys, cur_values)


def transformer_forward(grid3: SparseCylGrid, buffer: KVBuffer,
                        params: TransformerParams, cfg: AttnConfig) -> SparseCylGrid:
    """Apply all blocks to a slice's coarse map and update the causal buffer.

    Only the buffered slices holding a rotation this slice can attend are
    fetched.  The mask and the positional bins are geometric, so they are
    computed once and shared by all blocks and heads.  The buffer is first
    evicted by rotation age, then receives this slice's keys/values for every
    block.
    """
    tokens = tokens_from_grid(grid3)
    if len(tokens) == 0:
        return grid3
    rotations = np.unique(tokens.rotation).tolist()
    # a slice straddling two rotations still attends offsets from its oldest one
    buffer.evict(rotations[0])
    past = [] if cfg.slice_by_slice else buffer.fetch(
        {r - p for r in rotations for p in cfg.offsets})
    pairs, bins = _slice_geometry(tokens, past, cfg)

    all_keys, all_values = [], []
    for w in range(cfg.blocks):
        tokens, (k, v) = block_forward(tokens, past, w, params.blocks[w], cfg,
                                       pairs=pairs, bins=bins)
        all_keys.append(k)
        all_values.append(v)

    if cfg.blocks > 0:
        buffer.append(BufferEntry(
            slice_seq=int(tokens.slice_seq[0]) if len(tokens) else grid3.slice_seq,
            rotation=tokens.rotation.copy(),
            centers=tokens.centers.copy(),
            t=tokens.t.copy(),
            keys=all_keys,
            values=all_values,
        ))
    return grid3.with_features(tokens.features)


# ---------------------------------------------------------------------------
# dense references (oracles for the sparse path)
# ---------------------------------------------------------------------------


def dense_block_reference(features, centers, t, rotation, slice_seq, block_index,
                          params: BlockParams, cfg: AttnConfig):
    """Dense attention with -inf masking over all tokens at once (numpy only).

    Tokens may span several slices; a token attends tokens of its own or
    earlier slices, under the metric/temporal mask.  Used as the independent
    oracle for the masked sparse implementation and its streaming variant.
    """
    n, D = features.shape
    K, Dh = cfg.key_dim, cfg.head_dim
    off = rotation[:, None] - rotation[None, :]
    d2 = ((centers[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    allowed = np.isin(off, cfg.offsets) & (d2 < cfg.radius ** 2)
    allowed &= slice_seq[None, :] <= slice_seq[:, None]
    if cfg.slice_by_slice:
        allowed &= slice_seq[None, :] == slice_seq[:, None]

    heads = []
    for h in range(cfg.heads):
        W = params.kv[h].weight.data
        b = params.kv[h].bias.data
        kv = features @ W + b
        k, v = kv[:, :K], kv[:, K:]
        q = (features @ params.query[h].weight.data + params.query[h].bias.data
             if cfg.with_queries else k)
        scores = q @ k.T
        if not cfg.without_posenc:
            dxyz = centers[None, :, :] - centers[:, None, :]
            bx = spatial_bin(dxyz[..., 0], cfg.rho_x, cfg.alpha, cfg.beta, cfg.gamma) + cfg.beta
            by = spatial_bin(dxyz[..., 1], cfg.rho_y, cfg.alpha, cfg.beta, cfg.gamma) + cfg.beta
            bz = spatial_bin(dxyz[..., 2], cfg.rho_z, cfg.alpha, cfg.beta, cfg.gamma) + cfg.beta
            bt = np.zeros_like(off)
            bt[allowed] = temporal_bin(off[allowed], cfg.offsets)
            pos = (params.pos[h]["X"].data[bx] + params.pos[h]["Y"].data[by]
                   + params.pos[h]["Z"].data[bz] + params.pos[h]["T"].data[bt])
            scores = scores + np.einsum("vk,vuk->vu", q, pos)
        scores = scores / np.sqrt(K)
        scores = np.where(allowed, scores, -np.inf)
        with np.errstate(invalid="ignore"):
            m = np.max(scores, axis=1, keepdims=True)
            m = np.where(np.isfinite(m), m, 0.0)
            e = np.exp(scores - m)
            e = np.where(allowed, e, 0.0)
            denom = e.sum(axis=1, keepdims=True)
            attn = np.divide(e, denom, out=np.zeros_like(e), where=denom > 0)
        heads.append(attn @ v)
    return features + np.concatenate(heads, axis=1)


def dense_transformer_reference(features, centers, t, rotation, slice_seq,
                                params: TransformerParams, cfg: AttnConfig):
    """All blocks of the batch-mode reference."""
    out = features
    for w in range(cfg.blocks):
        out = dense_block_reference(out, centers, t, rotation, slice_seq, w,
                                    params.blocks[w], cfg)
    return out


# ---------------------------------------------------------------------------
# head/bin compatibility statistics
# ---------------------------------------------------------------------------


def head_compat_stats(token_sets, params: TransformerParams, cfg: AttnConfig):
    """Mean key/positional compatibility per (block, head, dimension, bin).

    ``token_sets`` is a chronological list of VoxelTokens (e.g. a few
    rotations of slices).  Pairs are the attention mask pairs in batch mode;
    keys for block ``w`` come from that block's input, i.e. the output of
    block ``w - 1``.  Empty bins are absent from the result, not zero.
    """
    centers = np.concatenate([ts.centers for ts in token_sets])
    rotation = np.concatenate([ts.rotation for ts in token_sets])
    slice_seq = np.concatenate([ts.slice_seq for ts in token_sets])
    tokens = VoxelTokens(Tensor(np.concatenate([ts.features.data for ts in token_sets])),
                         centers, np.concatenate([ts.t for ts in token_sets]), rotation,
                         slice_seq)

    vi, ui = mask_pairs(centers, rotation, centers, rotation, cfg)
    keep = slice_seq[ui] <= slice_seq[vi]
    vi, ui = vi[keep], ui[keep]

    out = {}
    if vi.size == 0:
        return out
    bins = pair_bins(centers, rotation, centers, rotation, vi, ui, cfg)
    # the bins as reported: signed spatial bins and the temporal bin index
    labels = bins - _table_starts(cfg) - [cfg.beta, cfg.beta, cfg.beta, 0]
    # the blocks themselves attend within a slice only in the ablation
    attend = slice_seq[ui] == slice_seq[vi] if cfg.slice_by_slice else slice(None)
    for w, block in enumerate(params.blocks):
        for h in range(cfg.heads):
            W = block.kv[h].weight.data
            b = block.kv[h].bias.data
            keys = (tokens.features.data @ W + b)[:, :cfg.key_dim]
            stacked = np.concatenate([block.pos[h][d].data for d in "XYZT"])
            pos = stacked[bins].sum(axis=1)
            compat = np.einsum("ek,ek->e", keys[vi], pos)
            for i, d in enumerate("XYZT"):
                for bin_value in np.unique(labels[:, i]):
                    sel = labels[:, i] == bin_value
                    out[(w, h, d, int(bin_value))] = float(compat[sel].mean())
        with no_grad():
            tokens, _ = block_forward(tokens, None, w, block, cfg,
                                      pairs=(vi[attend], ui[attend]), bins=bins[attend])
    return out
