"""Reference implementations of attention, for the tests only.

* :func:`dense_block_reference` / :func:`dense_transformer_reference`: dense
  attention with minus-infinity masking over all tokens at once, the
  independent oracle for the masked sparse path and its streaming variant.
* :func:`per_head_attention`: the per-head chain of small autodiff ops that
  ``helix.attention.block_forward`` ran before all heads went into one
  :func:`helix.autodiff.pair_attention` call; same signature as that op.
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


def dense_block_reference(features, centers, t, rotation, slice_seq, block_index,
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


def dense_transformer_reference(features, centers, t, rotation, slice_seq, params, cfg):
    """All blocks of the batch-mode reference."""
    out = features
    for w in range(cfg.blocks):
        out = dense_block_reference(out, centers, t, rotation, slice_seq, w,
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
