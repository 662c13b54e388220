"""Dense tensors with reverse-mode automatic differentiation.

A small numpy-backed engine: just enough operations to express point MLPs,
sparse convolutions (one rulebook op per convolution: per kernel tap, a
matmul over the (destination, source) row pairs that tap connects), masked
attention and the segmentation losses, each with an exact backward pass.
Graphs are built eagerly by the forward functions below and walked once, in
reverse topological order, by :meth:`Tensor.backward`.

Float64 is the test/gradient-check width, float32 the benchmark width.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "matmul",
    "relu",
    "leaky_relu",
    "softmax",
    "log_softmax",
    "concat",
    "slice_cols",
    "gather_rows",
    "scatter_add_rows",
    "rulebook_conv",
    "segment_maxpool",
    "segment_softmax",
    "Linear",
    "MLP",
    "gradcheck",
]

_FLOATS = (np.float32, np.float64)


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
        out.requires_grad = any(p.requires_grad for p in parents)
        if out.requires_grad:
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
        return add(self, mul(_as_tensor(other), -1.0))

    def __rsub__(self, other):
        return add(_as_tensor(other), mul(self, -1.0))

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
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return Tensor._node(out_data, (a, b), backward)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return Tensor._node(out_data, (a, b), backward)


def div(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
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
    x = _as_tensor(x)
    mask = x.data > 0

    def backward(g):
        x._accumulate(g * np.where(mask, 1.0, slope))

    return Tensor._node(np.where(mask, x.data, slope * x.data), (x,), backward)


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


def slice_cols(x, lo, hi):
    """Contiguous column slice ``x[:, lo:hi]``; backward zero-pads."""
    x = _as_tensor(x)

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[:, lo:hi] = g
        x._accumulate(gx)

    return Tensor._node(x.data[:, lo:hi], (x,), backward)


def gather_rows(x, index):
    """``out[i] = x[index[i]]``; backward scatter-adds into the source rows."""
    x = _as_tensor(x)
    index = np.asarray(index, dtype=np.int64)

    def backward(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, index, g)
        x._accumulate(gx)

    return Tensor._node(x.data[index], (x,), backward)


def scatter_add_rows(x, index, num_rows):
    """``out[j] = sum over i with index[i] == j of x[i]``."""
    x = _as_tensor(x)
    index = np.asarray(index, dtype=np.int64)
    out_data = np.zeros((num_rows,) + x.data.shape[1:], dtype=x.data.dtype)
    np.add.at(out_data, index, x.data)

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

    # a stable sort keeps each segment's rows in row order, so the first
    # maximum in sorted order is the first in row order too
    order = np.argsort(seg, kind="stable")
    sorted_seg = seg[order]
    starts = np.flatnonzero(np.diff(sorted_seg, prepend=-1))
    occupied = sorted_seg[starts]
    out_data = np.zeros((n_seg, n_ch), dtype=x.data.dtype)
    out_data[occupied] = np.maximum.reduceat(x.data[order], starts, axis=0)

    def backward(g):
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
    m = np.full(num_segments, -np.inf, dtype=x.data.dtype)
    if seg.size:
        np.maximum.at(m, seg, x.data)
    z = np.exp(x.data - m[seg]) if seg.size else np.zeros_like(x.data)
    denom = np.zeros(num_segments, dtype=x.data.dtype)
    np.add.at(denom, seg, z)
    y = z / denom[seg] if seg.size else z

    def backward(g):
        t = np.zeros(num_segments, dtype=x.data.dtype)
        np.add.at(t, seg, g * y)
        x._accumulate(y * (g - t[seg]))

    return Tensor._node(y, (x,), backward)


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
        y = matmul(x, self.weight)
        return y if self.bias is None else add(y, self.bias)

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
