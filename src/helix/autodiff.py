"""Dense tensors with reverse-mode automatic differentiation.

A small numpy-backed engine: just enough operations to express point MLPs,
sparse convolutions (one rulebook op per convolution: per kernel tap, a
matmul over the (destination, source) row pairs that tap connects), masked
attention and the segmentation losses, each with an exact backward pass.
Graphs are built eagerly by the forward functions below and walked once, in
reverse topological order, by :meth:`Tensor.backward`.  Inside
:func:`no_grad` the same functions build no graph: their outputs hold data
only, so nothing keeps the inputs of a step alive after it.

Float64 is the test/gradient-check width, float32 the benchmark width.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "matmul",
    "linear",
    "relu",
    "leaky_relu",
    "softmax",
    "log_softmax",
    "concat",
    "take_cols",
    "gather_rows",
    "scatter_add_rows",
    "rulebook_conv",
    "segment_maxpool",
    "segment_softmax",
    "pair_attention",
    "Linear",
    "MLP",
    "gradcheck",
]

_FLOATS = (np.float32, np.float64)

_grad_enabled = ContextVar("helix_grad_enabled", default=True)


@contextmanager
def no_grad():
    """Build no autodiff graph inside the block (per thread and async task).

    Operations still compute their outputs, but the outputs get no parents
    and no backward, so they keep no intermediate arrays alive.  Nests, and
    restores the previous state on exit, also on an exception.
    """
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


class Tensor:
    """A dense array plus a gradient slot, forming a node of a backward graph.

    Tensors are immutable after creation except for gradient accumulation.
    ``product(shape) == data.size`` holds by construction and ``grad``, when
    present, always has the same shape as ``data``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOATS:
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _node(data, parents, backward):
        out = Tensor(data)
        if _grad_enabled.get() and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def detach(self):
        return Tensor(self.data)

    def astype(self, dtype):
        return Tensor(self.data.astype(dtype), requires_grad=self.requires_grad)

    def item(self):
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    # -- autodiff --------------------------------------------------------------

    def backward(self, grad=None):
        """Accumulate gradients of ``self`` into every reachable parent.

        Iterative topological order so long streaming graphs cannot hit the
        recursion limit; each node's backward runs exactly once.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without an explicit gradient needs a scalar")
            grad = np.ones_like(self.data)
        order, seen, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad:
                    stack.append((p, False))
        self._accumulate(np.asarray(grad, dtype=self.data.dtype))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operators ---------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, other * -1.0)

    def __rsub__(self, other):
        return add(other, mul(self, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None):
        n = self.data.size if axis is None else self.data.shape[axis]
        return tsum(self, axis=axis) * (1.0 / n)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def transpose(self):
        return transpose(self)

    def abs(self):
        return tabs(self)

    def exp(self):
        return texp(self)

    def log(self):
        return tlog(self)

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _operands(a, b):
    """Both operands of a binary op as tensors.

    A scalar operand takes the dtype of the tensor operand, so that a float64
    constant such as ``1 / np.sqrt(k)`` keeps a float32 graph float32.
    """
    if isinstance(a, Tensor) and not isinstance(b, Tensor) and np.ndim(b) == 0:
        return a, Tensor(b, dtype=a.data.dtype)
    if isinstance(b, Tensor) and not isinstance(a, Tensor) and np.ndim(a) == 0:
        return Tensor(a, dtype=b.data.dtype), b
    return _as_tensor(a), _as_tensor(b)


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (reverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise and shape ops
# ---------------------------------------------------------------------------


def add(a, b):
    a, b = _operands(a, b)
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return Tensor._node(out_data, (a, b), backward)


def mul(a, b):
    a, b = _operands(a, b)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return Tensor._node(out_data, (a, b), backward)


def div(a, b):
    a, b = _operands(a, b)
    out_data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return Tensor._node(out_data, (a, b), backward)


def matmul(a, b):
    """Standard 2-D matrix product; gradients accumulate into both parents."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul inner extents disagree: {a.data.shape} @ {b.data.shape}")
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return Tensor._node(out_data, (a, b), backward)


def linear(x, w, b=None):
    """Affine map ``x @ w + b`` as one node (``b`` may be None)."""
    x = _as_tensor(x)
    out_data = x.data @ w.data
    if b is not None:
        out_data += b.data

    def backward(g):
        if x.requires_grad:
            x._accumulate(g @ w.data.T)
        if w.requires_grad:
            w._accumulate(x.data.T @ g)
        if b is not None and b.requires_grad:
            b._accumulate(g.sum(axis=0))

    return Tensor._node(out_data, (x, w) if b is None else (x, w, b), backward)


def tsum(x, axis=None, keepdims=False):
    x = _as_tensor(x)
    out_data = x.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            x._accumulate(np.broadcast_to(g, x.data.shape).copy())
        else:
            if not keepdims:
                g = np.expand_dims(g, axis)
            x._accumulate(np.broadcast_to(g, x.data.shape).copy())

    return Tensor._node(out_data, (x,), backward)


def reshape(x, shape):
    x = _as_tensor(x)
    old = x.data.shape

    def backward(g):
        x._accumulate(g.reshape(old))

    return Tensor._node(x.data.reshape(shape), (x,), backward)


def transpose(x):
    x = _as_tensor(x)

    def backward(g):
        x._accumulate(g.T)

    return Tensor._node(x.data.T, (x,), backward)


def relu(x):
    x = _as_tensor(x)
    mask = x.data > 0

    def backward(g):
        x._accumulate(g * mask)

    return Tensor._node(np.where(mask, x.data, 0.0), (x,), backward)


def leaky_relu(x, slope=0.01):
    """``x`` where positive, else ``slope * x``; needs ``0 <= slope <= 1``.

    In that range the output is ``max(x, slope * x)`` and is positive exactly
    where ``x`` is, so the backward reads its mask from the output.  (With
    ``slope == 0``, ``+inf`` maps to NaN, as ``0 * inf`` does.)
    """
    if not 0 <= slope <= 1:
        raise ValueError(f"leaky_relu needs 0 <= slope <= 1, got {slope}")
    x = _as_tensor(x)
    out_data = np.multiply(x.data, slope, dtype=x.data.dtype)
    np.maximum(x.data, out_data, out=out_data)

    def backward(g):
        x._accumulate(g * np.take(np.array([slope, 1], dtype=g.dtype), out_data > 0))

    return Tensor._node(out_data, (x,), backward)


def tabs(x):
    x = _as_tensor(x)
    sign = np.sign(x.data)

    def backward(g):
        x._accumulate(g * sign)

    return Tensor._node(np.abs(x.data), (x,), backward)


def texp(x):
    x = _as_tensor(x)
    out_data = np.exp(x.data)

    def backward(g):
        x._accumulate(g * out_data)

    return Tensor._node(out_data, (x,), backward)


def tlog(x):
    x = _as_tensor(x)

    def backward(g):
        x._accumulate(g / x.data)

    return Tensor._node(np.log(x.data), (x,), backward)


def softmax(x, axis=-1):
    """Softmax along ``axis``, stabilized by max subtraction."""
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        x._accumulate(y * (g - inner))

    return Tensor._node(y, (x,), backward)


def log_softmax(x, axis=-1):
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - lse
    y = np.exp(out_data)

    def backward(g):
        x._accumulate(g - y * g.sum(axis=axis, keepdims=True))

    return Tensor._node(out_data, (x,), backward)


def concat(tensors, axis=0):
    """Channelwise/rowwise concatenation; backward splits the gradient."""
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    bounds = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, bounds[:-1], bounds[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t._accumulate(g[tuple(sl)])

    return Tensor._node(out_data, tuple(tensors), backward)


# ---------------------------------------------------------------------------
# gather / scatter / segment ops
# ---------------------------------------------------------------------------


def take_cols(x, cols):
    """Columns ``x[..., cols]`` for distinct ``cols``; backward scatters them back."""
    x = _as_tensor(x)
    cols = np.asarray(cols, dtype=np.int64)

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[..., cols] = g
        x._accumulate(gx)

    return Tensor._node(x.data[..., cols], (x,), backward)


def _segments(ids):
    """How to reduce rows by segment id with ``ufunc.reduceat``.

    Returns ``(order, starts, occupied)``: a stable sort order of ``ids``
    (None when they are already sorted), the offset in sorted order where
    each occupied segment begins, and the id of that segment.  A stable
    order keeps each segment's rows in row order.
    """
    order = None if np.all(ids[1:] >= ids[:-1]) else np.argsort(ids, kind="stable")
    sorted_ids = ids if order is None else ids[order]
    starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]]) if ids.size else ids
    return order, starts, sorted_ids[starts]


def _segment_reduce(ufunc, values, segments, num_segments, fill=0):
    """Reduce the rows of ``values`` per segment; segments without rows hold ``fill``."""
    order, starts, occupied = segments
    rows = values if order is None else values[order]
    out = np.full((num_segments,) + values.shape[1:], fill, dtype=values.dtype)
    out[occupied] = rows if starts.size == rows.shape[0] else ufunc.reduceat(rows, starts, axis=0)
    return out


def gather_rows(x, index):
    """``out[i] = x[index[i]]``; backward sums into the source rows."""
    x = _as_tensor(x)
    index = np.asarray(index, dtype=np.int64)

    def backward(g):
        rows = g.reshape((index.size,) + x.data.shape[1:])
        x._accumulate(_segment_reduce(np.add, rows, _segments(index.ravel()), x.data.shape[0]))

    return Tensor._node(x.data[index], (x,), backward)


def scatter_add_rows(x, index, num_rows):
    """``out[j] = sum over i with index[i] == j of x[i]``."""
    x = _as_tensor(x)
    index = np.asarray(index, dtype=np.int64)
    out_data = _segment_reduce(np.add, x.data, _segments(index), num_rows)

    def backward(g):
        x._accumulate(g[index])

    return Tensor._node(out_data, (x,), backward)


def rulebook_conv(x, weights, bias, rules, num_rows):
    """Sparse convolution from a rulebook: ``out[dst_t] += x[src_t] @ W_t``.

    ``weights`` stacks one ``(in, out)`` matrix per tap row-wise, ``rules``
    holds one ``(dst_t, src_t)`` pair of row-index arrays per tap, and the
    output has ``num_rows`` rows plus ``bias`` (or none).  Within a tap the
    dst rows must be unique, and so must the src rows: both passes accumulate
    with in-place fancy indexing, which keeps one write per repeated row.
    """
    x = _as_tensor(x)
    w = weights.data.reshape(len(rules), x.data.shape[1], -1)
    dtype = np.result_type(x.data, w) if bias is None else np.result_type(x.data, w, bias.data)
    out_data = np.zeros((num_rows, w.shape[2]), dtype=dtype)
    for (dst, src), w_t in zip(rules, w):
        if dst.size:
            out_data[dst] += x.data[src] @ w_t
    if bias is not None:
        out_data += bias.data

    def backward(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            for (dst, src), w_t in zip(rules, w):
                if dst.size:
                    gx[src] += g[dst] @ w_t.T
            x._accumulate(gx)
        if weights.requires_grad:
            gw = np.zeros_like(w)
            for t, (dst, src) in enumerate(rules):
                if dst.size:
                    gw[t] = x.data[src].T @ g[dst]
            weights._accumulate(gw.reshape(weights.data.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=0))

    parents = (x, weights) if bias is None else (x, weights, bias)
    return Tensor._node(out_data, parents, backward)


def segment_maxpool(values, segment_ids, num_segments=None):
    """Per-segment channelwise maximum over the rows of ``values``.

    The backward pass routes each output cell's gradient to the first row
    (lowest row index) attaining the maximum, so tied maxima are
    deterministic.  Segments with no rows produce zero rows.
    """
    x = _as_tensor(values)
    seg = np.asarray(segment_ids, dtype=np.int64)
    if seg.ndim != 1 or seg.shape[0] != x.data.shape[0]:
        raise ValueError("segment_ids must hold one id per row of values")
    if seg.size and seg.min() < 0:
        raise ValueError("segment_ids must be nonnegative")
    n_seg = int(num_segments) if num_segments is not None else (int(seg.max()) + 1 if seg.size else 0)
    n_rows, n_ch = x.data.shape
    segments = _segments(seg)
    out_data = _segment_reduce(np.maximum, x.data, segments, n_seg)

    def backward(g):
        # rows in stable sorted order: the first maximum there is the first in row order
        order, starts, occupied = segments
        if order is None:
            order = np.arange(n_rows)
        pooled = out_data[occupied]
        counts = np.diff(np.r_[starts, n_rows])
        hit = x.data[order] == np.repeat(pooled, counts, axis=0)
        pos = np.where(hit, np.arange(n_rows)[:, None], n_rows)
        first = np.minimum.reduceat(pos, starts, axis=0)
        gx = np.zeros_like(x.data)
        gx[order[first], np.arange(n_ch)] = g[occupied]
        x._accumulate(gx)

    return Tensor._node(out_data, (x,), backward)


def segment_softmax(scores, segment_ids, num_segments):
    """Softmax of a flat score vector within each segment (max-stabilized)."""
    x = _as_tensor(scores)
    seg = np.asarray(segment_ids, dtype=np.int64)
    if x.data.ndim != 1:
        raise ValueError("segment_softmax expects a flat score vector")
    segments = _segments(seg)
    m = _segment_reduce(np.maximum, x.data, segments, num_segments, -np.inf)
    z = np.exp(x.data - m[seg])
    y = z / _segment_reduce(np.add, z, segments, num_segments)[seg]

    def backward(g):
        t = _segment_reduce(np.add, g * y, segments, num_segments)
        x._accumulate(y * (g - t[seg]))

    return Tensor._node(y, (x,), backward)


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

# Largest (heads x query rows x candidates) tile pair_attention works on, in elements.
ATTENTION_TILE = 2 ** 22


def _row_tiles(vi, n_rows, row_width):
    """Contiguous query-row tiles of at most ``ATTENTION_TILE`` elements at
    ``row_width`` per row, as ``(r0, r1, pairs)``: the rows ``r0:r1`` and the
    slice of their pairs (``vi`` is sorted).  Tiles without pairs are left out."""
    step = max(1, ATTENTION_TILE // max(row_width, 1))
    bounds = np.arange(0, n_rows + step, step).clip(max=n_rows)
    cuts = np.searchsorted(vi, bounds)
    return [(r0, r1, slice(p0, p1)) for r0, r1, p0, p1
            in zip(bounds[:-1], bounds[1:], cuts[:-1], cuts[1:]) if p1 > p0]


def pair_attention(q, k, v, tables, pairs, bins, heads, scale):
    """Masked multi-head attention over (query row, candidate) pairs, one node.

    ``q`` (n, H*K) holds the heads' queries side by side, ``k`` (N, H*K) and
    ``v`` (N, H*Dh) the candidates' keys and values.  ``pairs = (vi, ui)``
    lists the attended pairs, ``vi`` non-decreasing.  ``tables`` (H*R, K)
    stacks each head's R positional-table rows and ``bins`` (P, 4) holds each
    pair's four rows in them; with ``tables`` None there is no positional
    term.  Per head h, pair p scores ``scale * q_h[vi] . (k_h[ui] + sum_j
    T_h[bins[p, j]])``; the scores are softmax-normalized over each query
    row's pairs and weight ``v_h[ui]``.  Rows without pairs output zeros.

    Query rows go in contiguous tiles of at most ``ATTENTION_TILE`` elements
    of (heads x rows x candidates).  Per tile the scores are one batched GEMM
    whose pair entries are taken out, and the value sum is one batched GEMM
    of the weights scattered back into the zeroed tile.  The backward mirrors
    those GEMMs; the graph keeps only the (H, P) pair weights and indices.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    vi, ui = (np.asarray(a, dtype=np.int64) for a in pairs)
    n, n_u, H = q.data.shape[0], k.data.shape[0], heads
    K, Dh = q.data.shape[1] // H, v.data.shape[1] // H
    dtype = q.data.dtype
    q3 = q.data.reshape(n, H, K).transpose(1, 0, 2)
    k3 = k.data.reshape(n_u, H, K).transpose(1, 0, 2)
    v3 = v.data.reshape(n_u, H, Dh).transpose(1, 0, 2)
    t3 = None if tables is None else tables.data.reshape(H, -1, K)
    # per tile: its rows, its pairs, and their entries in the (H, rows * N) tile
    tiles = [(r0, r1, sl, (vi[sl] - r0) * n_u + ui[sl])
             for r0, r1, sl in _row_tiles(vi, n, H * n_u)]
    tile_size = max([H * (r1 - r0) * n_u for r0, r1, _, _ in tiles], default=0)

    def tile_view(tile, r0, r1):
        """The first (H, r1 - r0, N) elements of ``tile``, and the same as (H, rows * N)."""
        view = tile[:H * (r1 - r0) * n_u]
        return view.reshape(H, r1 - r0, n_u), view.reshape(H, -1)

    def table_index(r0, sl):
        """The pairs' four entries each in a head's flat (rows x R) table products, (4, pairs)."""
        return bins[sl].T + (vi[sl] - r0) * t3.shape[1]

    # each query row's pairs form one contiguous segment (vi >= 0)
    starts = np.flatnonzero(np.diff(vi, prepend=-1))
    counts = np.diff(np.r_[starts, vi.size])

    def per_pair(per_row):
        return np.repeat(per_row, counts, axis=1)

    tile = np.empty(tile_size, dtype)
    scores = np.empty((H, vi.size), dtype)
    for r0, r1, sl, cols in tiles:
        box, box_flat = tile_view(tile, r0, r1)
        np.matmul(q3[:, r0:r1], k3.transpose(0, 2, 1), out=box)
        s = np.take(box_flat, cols, axis=1)
        if t3 is not None:
            compat = np.matmul(q3[:, r0:r1], t3.transpose(0, 2, 1)).reshape(H, -1)
            for col in table_index(r0, sl):
                s += np.take(compat, col, axis=1)
        scores[:, sl] = s
    scores *= dtype.type(scale)
    scores -= per_pair(np.maximum.reduceat(scores, starts, axis=1))
    weights = np.exp(scores, out=scores)
    weights /= per_pair(np.add.reduceat(weights, starts, axis=1))

    tile[...] = 0
    out_data = np.zeros((n, H, Dh), dtype)
    for r0, r1, sl, cols in tiles:
        box, box_flat = tile_view(tile, r0, r1)
        box_flat[:, cols] = weights[:, sl]
        out_data[r0:r1] = np.matmul(box, v3).transpose(1, 0, 2)
        box_flat[:, cols] = 0
    out_data = out_data.reshape(n, H * Dh)

    def backward(g):
        g3 = g.reshape(n, H, Dh).transpose(1, 0, 2)
        dv = np.zeros_like(v3) if v.requires_grad else None
        dscores = np.empty_like(weights)
        # ``sparse`` holds pair values at their entries and is zero elsewhere
        tile, sparse = np.empty(tile_size, dtype), np.zeros(tile_size, dtype)
        for r0, r1, sl, cols in tiles:
            if dv is not None:
                box, box_flat = tile_view(sparse, r0, r1)
                box_flat[:, cols] = weights[:, sl]
                dv += np.matmul(box.transpose(0, 2, 1), g3[:, r0:r1])
                box_flat[:, cols] = 0
            box, box_flat = tile_view(tile, r0, r1)
            np.matmul(g3[:, r0:r1], v3.transpose(0, 2, 1), out=box)
            dscores[:, sl] = np.take(box_flat, cols, axis=1)
        if dv is not None:
            v._accumulate(dv.transpose(1, 0, 2).reshape(n_u, H * Dh))
        # softmax backward: w * (dw - sum over the row's pairs of w * dw)
        dscores *= weights
        dscores -= weights * per_pair(np.add.reduceat(dscores, starts, axis=1))
        dscores *= dtype.type(scale)

        dq = np.zeros_like(q3) if q.requires_grad else None
        dk = np.zeros_like(k3) if k.requires_grad else None
        dt = np.zeros_like(t3) if tables is not None and tables.requires_grad else None
        for r0, r1, sl, cols in tiles:
            box, box_flat = tile_view(sparse, r0, r1)
            box_flat[:, cols] = dscores[:, sl]
            if dq is not None:
                dq[:, r0:r1] = np.matmul(box, k3)
            if dk is not None:
                dk += np.matmul(box.transpose(0, 2, 1), q3[:, r0:r1])
            box_flat[:, cols] = 0
            if t3 is None or (dq is None and dt is None):
                continue
            # pairs of a row may share a table row: sum their scores' gradients
            R = t3.shape[1]
            index = np.arange(H)[:, None] * ((r1 - r0) * R) + table_index(r0, sl)[:, None, :]
            dcompat = np.bincount(
                index.ravel(), np.broadcast_to(dscores[:, sl], index.shape).ravel(),
                minlength=H * (r1 - r0) * R).astype(dtype).reshape(H, r1 - r0, R)
            if dq is not None:
                dq[:, r0:r1] += np.matmul(dcompat, t3)
            if dt is not None:
                dt += np.matmul(dcompat.transpose(0, 2, 1), q3[:, r0:r1])
        if dq is not None:
            q._accumulate(dq.transpose(1, 0, 2).reshape(n, H * K))
        if dk is not None:
            k._accumulate(dk.transpose(1, 0, 2).reshape(n_u, H * K))
        if dt is not None:
            tables._accumulate(dt.reshape(tables.data.shape))

    parents = (q, k, v) if tables is None else (q, k, v, tables)
    return Tensor._node(out_data, parents, backward)


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------


def he_init(rng, fan_in, shape, dtype=np.float64):
    return Tensor(rng.standard_normal(shape) * np.sqrt(2.0 / max(fan_in, 1)),
                  requires_grad=True, dtype=dtype)


class Linear:
    """Affine map ``x @ weight + bias``."""

    def __init__(self, in_features, out_features, rng=None, bias=True, dtype=np.float64):
        rng = rng or np.random.default_rng(0)
        self.weight = he_init(rng, in_features, (in_features, out_features), dtype)
        self.bias = Tensor(np.zeros(out_features), requires_grad=True, dtype=dtype) if bias else None

    def __call__(self, x):
        return linear(x, self.weight, self.bias)

    def parameters(self, prefix=""):
        yield prefix + "weight", self.weight
        if self.bias is not None:
            yield prefix + "bias", self.bias


class MLP:
    """Stack of Linear layers with LeakyReLU between them (none after the last)."""

    def __init__(self, widths, rng=None, slope=0.01, dtype=np.float64):
        rng = rng or np.random.default_rng(0)
        self.slope = slope
        self.layers = [Linear(a, b, rng=rng, dtype=dtype) for a, b in zip(widths[:-1], widths[1:])]

    def __call__(self, x):
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i < len(self.layers) - 1:
                x = leaky_relu(x, self.slope)
        return x

    def parameters(self, prefix=""):
        for i, layer in enumerate(self.layers):
            yield from layer.parameters(f"{prefix}l{i}.")


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


def gradcheck(fn, tensors, eps=1e-5, max_entries=None, rng=None):
    """Compare analytic gradients of ``fn()`` against central finite differences.

    ``fn`` must return a scalar Tensor computed from ``tensors`` (closure).
    Returns the maximum relative error over all checked entries; entries are
    subsampled to ``max_entries`` per tensor when given.  Requires float64
    inputs for the stated tolerances to be meaningful.
    """
    rng = rng or np.random.default_rng(0)
    for t in tensors:
        t.zero_grad()
    out = fn()
    out.backward()
    worst = 0.0
    for t in tensors:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        idxs = np.arange(flat.size)
        if max_entries is not None and flat.size > max_entries:
            idxs = rng.choice(flat.size, size=max_entries, replace=False)
        for i in idxs:
            keep = flat[i]
            flat[i] = keep + eps
            f_plus = float(fn().data)
            flat[i] = keep - eps
            f_minus = float(fn().data)
            flat[i] = keep
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = analytic.reshape(-1)[i]
            scale = max(abs(a), abs(numeric))
            err = abs(a - numeric) if scale < 1e-6 else abs(a - numeric) / scale
            worst = max(worst, err)
    return worst
