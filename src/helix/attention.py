"""Spatio-temporal attention over coarse voxels, with causal key/value buffering.

Each coarse voxel token carries its absolute center and its rotation index.
A token attends the tokens of the current and selected past rotations that lie
within a metric radius; compatibilities use the token's key both as key and as
query plus a binned relative positional encoding, per head.  Blocks keep no
feed-forward or normalization stages: the learnable state is one key/value
projection, an optional query projection and one positional table per block.

A block runs all heads at once.  Its parameters are stored in the layout the
fused op reads: the key/value projection's output columns hold each head's key
then value, side by side, and the positional table stacks each head's X, Y, Z
and T rows.  One :func:`~helix.autodiff.pair_attention` op computes every
head's scores, softmax and value sums as batched GEMMs over the slice's tokens
x candidates.  The mask and the positional bins are geometric, computed once
per slice and shared by all blocks and heads.  The dense oracles for this path
live with the tests.

Streaming works slice by slice: the keys, values and positions of every
processed slice stay buffered for ``max(offsets)`` rotations, so a new slice
attends a large spatio-temporal neighborhood without recomputation.  The
buffer keeps one key and one value tensor per slice and block, the heads side
by side.  Buffered tensors stay connected to the autodiff graph only on the
training path (``forward_slice``), which makes training windows differentiate
exactly through the buffer; inference (``segment_points``) runs under
``no_grad``, so the buffer holds plain data and its memory is bounded by the
payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import (
    Linear,
    Tensor,
    add,
    concat,
    no_grad,
    pair_attention,
    take_cols,
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
    rotation: np.ndarray    # (n,) rotation index
    slice_seq: np.ndarray   # (n,) global slice counter

    def __len__(self):
        return self.centers.shape[0]


def tokens_from_grid(grid: SparseCylGrid) -> VoxelTokens:
    n = grid.n_cells
    return VoxelTokens(grid.features, grid.centers, grid.rotation,
                       np.full(n, grid.slice_seq, dtype=np.int64))


class BlockParams:
    """One block's parameters, all heads side by side.

    * ``kv``: (dim -> heads * (key_dim + head_dim)); head h's columns hold its
      key, then its value.
    * ``query``: (dim -> heads * key_dim), only with separate queries.
    * ``pos_table``: (heads * (3 * bins_spatial + bins_temporal), key_dim);
      head h's rows stack its X, Y and Z tables (``bins_spatial`` rows each)
      and its T table (``bins_temporal`` rows).
    """

    POS_INIT = 0.2  # keys are O(1); tables must register in compatibilities early

    def __init__(self, cfg: AttnConfig, rng, dtype=np.float64):
        K, Dh = cfg.key_dim, cfg.head_dim
        self.kv = Linear(cfg.dim, K + Dh, rng=rng, dtype=dtype, heads=cfg.heads)
        self.query = (Linear(cfg.dim, K, rng=rng, dtype=dtype, heads=cfg.heads)
                      if cfg.with_queries else None)
        # one draw of all rows equals drawing each head's X, Y, Z and T in turn
        rows = cfg.heads * (3 * cfg.bins_spatial + cfg.bins_temporal)
        self.pos_table = Tensor(rng.standard_normal((rows, K)) * self.POS_INIT,
                                requires_grad=True, dtype=dtype)

    def parameters(self, prefix=""):
        yield from self.kv.parameters(f"{prefix}kv.")
        if self.query is not None:
            yield from self.query.parameters(f"{prefix}query.")
        yield f"{prefix}pos_table", self.pos_table


class TransformerParams:
    def __init__(self, cfg: AttnConfig, rng=None, dtype=np.float64):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.cfg = cfg
        self.blocks = [BlockParams(cfg, rng, dtype) for _ in range(cfg.blocks)]

    def parameters(self, prefix="attn."):
        for w, block in enumerate(self.blocks):
            yield from block.parameters(f"{prefix}b{w}.")


@dataclass(eq=False)
class BufferEntry:
    """Keys/values of one processed slice, for every block (all heads side by
    side).  Entries compare by identity."""

    rotation: np.ndarray
    centers: np.ndarray
    keys: list     # [block] Tensor (n, heads * key_dim), the heads side by side
    values: list   # [block] Tensor (n, heads * head_dim)
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


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------


def _keys_values(features, params: BlockParams, cfg: AttnConfig):
    """All heads' keys (n, heads * key_dim) and values (n, heads * head_dim)
    from the one projection; each head's columns hold its key, then its value."""
    K, Dh = cfg.key_dim, cfg.head_dim
    kv = params.kv(features)
    first = np.arange(cfg.heads)[:, None] * (K + Dh)
    return (take_cols(kv, (first + np.arange(K)).ravel()),
            take_cols(kv, (first + K + np.arange(Dh)).ravel()))


def block_forward(tokens: VoxelTokens, past: BufferEntry | list | None,
                  block_index: int, params: BlockParams, cfg: AttnConfig,
                  pairs=None, bins=None):
    """One attention block over a slice's tokens against past plus current.

    ``pairs`` and their ``bins`` (from :func:`mask_pairs` and
    :func:`pair_bins` over past plus current) are computed here when
    ``pairs`` is not given.  All heads run in one
    :func:`~helix.autodiff.pair_attention` op.  Returns the output tokens and
    this slice's (keys, values) for the buffer.  An empty mask degenerates to
    a pure residual pass-through.
    """
    keys, values = _keys_values(tokens.features, params, cfg)
    queries = params.query(tokens.features) if cfg.with_queries else keys

    past_entries = [] if past is None else (past if isinstance(past, list) else [past])
    if cfg.slice_by_slice:
        past_entries = []

    if pairs is None:
        pairs, bins = _slice_geometry(tokens, past_entries, cfg)
    cand_keys = concat([e.keys[block_index] for e in past_entries] + [keys], axis=0)
    cand_values = concat([e.values[block_index] for e in past_entries] + [values], axis=0)
    tables = None if cfg.without_posenc else params.pos_table
    attended = pair_attention(queries, cand_keys, cand_values, tables, pairs, bins,
                              cfg.heads, 1.0 / np.sqrt(cfg.key_dim))

    out = VoxelTokens(add(tokens.features, attended), tokens.centers, tokens.rotation,
                      tokens.slice_seq)
    return out, (keys, values)


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
            rotation=tokens.rotation.copy(),
            centers=tokens.centers.copy(),
            keys=all_keys,
            values=all_values,
        ))
    return grid3.with_features(tokens.features)


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
                         centers, rotation, slice_seq)

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
        with no_grad():
            next_tokens, (keys, _) = block_forward(
                tokens, None, w, block, cfg, pairs=(vi[attend], ui[attend]), bins=bins[attend])
        pair_keys = keys.data.reshape(len(tokens), cfg.heads, cfg.key_dim)[vi]
        tables = block.pos_table.data.reshape(cfg.heads, -1, cfg.key_dim)
        # (pairs, heads): each head's key against the sum of its pair's four rows
        compat = np.einsum("ehk,hek->eh", pair_keys, tables[:, bins].sum(axis=2))
        for i, d in enumerate("XYZT"):
            for bin_value in np.unique(labels[:, i]):
                means = compat[labels[:, i] == bin_value].mean(axis=0)
                out.update(((w, h, d, int(bin_value)), float(m)) for h, m in enumerate(means))
        tokens = next_tokens
    return out
