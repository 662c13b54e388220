"""Reference implementations of attention, for the tests only.

* :func:`dense_block_reference` / :func:`dense_transformer_reference`: dense
  attention with minus-infinity masking over all tokens at once, the
  independent oracle for the masked sparse path and its streaming variant.
* :func:`per_head_attention`: the per-head chain of small autodiff ops that
  ``helix.attention.block_forward`` ran before all heads went into one
  :func:`helix.autodiff.pair_attention` call; same signature as that op.
* :func:`head_columns` / :func:`head_tables`: one head's share of a block's
  fused parameters, as the per-head references read them.
"""

import numpy as np

from helix.attention import spatial_bin, temporal_bin
from helix.autodiff import (
    add,
    concat,
    gather_rows,
    matmul,
    mul,
    reshape,
    scatter_add_rows,
    segment_softmax,
    take_cols,
    transpose,
    tsum,
)


def head_columns(layer, h, heads):
    """Weight and bias of head ``h``'s output columns of a ``Linear`` holding
    ``heads`` equal-width layers side by side."""
    width = layer.weight.shape[1] // heads
    cols = slice(h * width, (h + 1) * width)
    return layer.weight.data[:, cols], layer.bias.data[cols]


def head_tables(params, h, cfg):
    """Head ``h``'s X, Y, Z and T positional tables: its rows of the block's
    stacked table."""
    S = cfg.bins_spatial
    rows = params.pos_table.data.reshape(cfg.heads, -1, cfg.key_dim)[h]
    return dict(zip("XYZT", np.split(rows, [S, 2 * S, 3 * S])))


def dense_block_reference(features, centers, rotation, slice_seq, block_index,
                          params, cfg):
    """Dense attention with -inf masking over all tokens at once (numpy only).

    Tokens may span several slices; a token attends tokens of its own or
    earlier slices, under the metric/temporal mask.
    """
    K = cfg.key_dim
    off = rotation[:, None] - rotation[None, :]
    d2 = ((centers[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    allowed = np.isin(off, cfg.offsets) & (d2 < cfg.radius ** 2)
    allowed &= slice_seq[None, :] <= slice_seq[:, None]
    if cfg.slice_by_slice:
        allowed &= slice_seq[None, :] == slice_seq[:, None]

    heads = []
    for h in range(cfg.heads):
        W, b = head_columns(params.kv, h, cfg.heads)
        kv = features @ W + b
        k, v = kv[:, :K], kv[:, K:]
        if cfg.with_queries:
            Wq, bq = head_columns(params.query, h, cfg.heads)
            q = features @ Wq + bq
        else:
            q = k
        scores = q @ k.T
        if not cfg.without_posenc:
            dxyz = centers[None, :, :] - centers[:, None, :]
            bx = spatial_bin(dxyz[..., 0], cfg.rho_x, cfg.alpha, cfg.beta, cfg.gamma) + cfg.beta
            by = spatial_bin(dxyz[..., 1], cfg.rho_y, cfg.alpha, cfg.beta, cfg.gamma) + cfg.beta
            bz = spatial_bin(dxyz[..., 2], cfg.rho_z, cfg.alpha, cfg.beta, cfg.gamma) + cfg.beta
            bt = np.zeros_like(off)
            bt[allowed] = temporal_bin(off[allowed], cfg.offsets)
            tables = head_tables(params, h, cfg)
            pos = tables["X"][bx] + tables["Y"][by] + tables["Z"][bz] + tables["T"][bt]
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


def dense_transformer_reference(features, centers, rotation, slice_seq, params, cfg):
    """All blocks of the batch-mode reference."""
    out = features
    for w in range(cfg.blocks):
        out = dense_block_reference(out, centers, rotation, slice_seq, w,
                                    params.blocks[w], cfg)
    return out


def per_head_attention(q, k, v, tables, pairs, bins, heads, scale):
    """The per-head op chain: per head, gather the pairs' queries and keys,
    sum their products, add the positional term, softmax per query row, and
    scatter the weighted values back to the rows."""
    vi, ui = pairs
    n = q.shape[0]
    K, Dh = q.shape[1] // heads, v.shape[1] // heads
    if tables is not None:
        R = tables.shape[0] // heads
        pos_index = vi[:, None] * R + bins
    head_outputs = []
    for h in range(heads):
        if vi.size == 0:
            head_outputs.append(np.zeros((n, Dh), dtype=q.dtype))
            continue
        q_h = take_cols(q, np.arange(h * K, (h + 1) * K))
        k_h = take_cols(k, np.arange(h * K, (h + 1) * K))
        v_h = take_cols(v, np.arange(h * Dh, (h + 1) * Dh))
        scores = tsum(mul(gather_rows(q_h, vi), gather_rows(k_h, ui)), axis=1)
        if tables is not None:
            table = transpose(gather_rows(tables, np.arange(h * R, (h + 1) * R)))
            compat = reshape(matmul(q_h, table), (-1,))
            scores = add(scores, tsum(gather_rows(compat, pos_index), axis=1))
        attn = segment_softmax(mul(scores, scale), vi, n)
        weighted = mul(reshape(attn, (-1, 1)), gather_rows(v_h, ui))
        head_outputs.append(scatter_add_rows(weighted, vi, n))
    return concat(head_outputs, axis=1)
