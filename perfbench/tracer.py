"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each helix layer from outside the
package and records one span per call: name, start, end, parent span and the
operation (a slice or a training step) it belongs to.  Counters record the
work done at the same boundaries.  Spans stay in memory until
:meth:`Tracer.write`.

Names are patched in the namespace of the module that calls them: ``helix.model``
imports ``voxelize`` and ``transformer_forward`` by name, so
``helix.model.voxelize`` is the name to patch, not ``helix.geometry.voxelize``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []              # [name, start, end, parent index, op]
        self.counts = defaultdict(float)
        self.op = -1                 # -1: set-up, outside any operation
        self._stack = []
        self._undo = []

    # -- spans ------------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def add(self, name, value):
        self.counts[name] += value

    def wrap(self, name, fn, count=None):
        """``fn`` inside a span named ``name``; ``count(tracer, args, result)`` after."""

        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(index)
            if count is not None:
                count(self, args, out)
            return out

        return traced

    # -- patching ---------------------------------------------------------

    def patch(self, owner, attr, replacement):
        """Replace ``owner.attr`` (a module or class attribute) until :meth:`restore`."""
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def patch_function(self, module, attr, name, count=None):
        self.patch(module, attr, self.wrap(name, getattr(module, attr), count))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def totals(self):
        """Per span name: calls, inclusive seconds and self seconds.

        A span's self time is its duration minus the time its child spans
        cover.
        """
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = {}
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_s[i]
        return out

    def write(self, path):
        """One JSON object per span, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                    "parent": parent, "op": op}) + "\n")


class NullTracer:
    """Stands in for :class:`Tracer` in the timed runs: records nothing."""

    op = -1

    @contextmanager
    def span(self, name):
        yield


def instrument(tracer: Tracer, model):
    """Wrap every layer boundary that ``model``'s forward and training pass through.

    Covers the benchmark's configurations: convolution downsampling and the
    full transformer (the maxpool preset and the U-Net-only ablation call
    functions not wrapped here).
    """
    import helix.attention
    import helix.autodiff
    import helix.model
    import helix.sparseconv
    import helix.training

    def cells(name):
        return lambda tr, args, grid: tr.add(name, grid.n_cells)

    def masked(tr, args, pairs):
        n_v, n_u = len(args[0]), len(args[2])
        tr.add("attention.buffered_tokens", n_u - n_v)
        tr.add("attention.pairs", len(pairs[0]))
        tr.add("attention.dense_pairs", n_v * n_u)

    def points(tr, args, scores):
        tr.add("harness.points", len(args[1].points))

    t = tracer
    t.patch_function(helix.model, "point_descriptors", "geometry.descriptors")
    t.patch_function(helix.model, "voxelize", "geometry.voxelize", cells("geometry.cells_l1"))
    t.patch_function(helix.model, "transformer_forward", "attention.forward",
                     cells("attention.tokens"))
    t.patch_function(helix.attention, "mask_pairs", "attention.mask", masked)
    t.patch_function(helix.sparseconv, "sparse_conv", "sparseconv.conv")
    for attr in ("strided_conv", "transposed_strided_conv"):
        t.patch_function(helix.sparseconv, attr, "sparseconv.strided")
    t.patch_function(helix.training, "segmentation_loss", "losses.loss")

    unet_cls = helix.sparseconv.CylUNet
    encode = unet_cls.encode

    def counted_encode(self, grid1):
        maps = encode(self, grid1)
        t.add("sparseconv.cells_l2", maps[1].n_cells)
        t.add("sparseconv.cells_l3", maps[2].n_cells)
        return maps

    t.patch(unet_cls, "encode", counted_encode)
    model_cls = helix.model.SegmentationModel
    t.patch(model_cls, "forward_slice",
            t.wrap("model.forward", model_cls.forward_slice, points))
    t.patch(helix.training.Adam, "step", t.wrap("training.adam", helix.training.Adam.step))

    tensor = helix.autodiff.Tensor
    t.patch(tensor, "_node", staticmethod(_node_counter(t, tensor._node)))
    t.patch(tensor, "backward", t.wrap("autodiff.backward", tensor.backward))

    mlp_call = helix.autodiff.MLP.__call__
    mlp_names = {id(model.e_point): "autodiff.point_mlp", id(model.d_point): "autodiff.head"}

    def traced_mlp(self, x):
        name = mlp_names.get(id(self))
        if name is None:
            return mlp_call(self, x)
        index = t.open(name)
        try:
            return mlp_call(self, x)
        finally:
            t.close(index)

    t.patch(helix.autodiff.MLP, "__call__", traced_mlp)


def _node_counter(tracer, node):
    counts = tracer.counts

    def counted(data, parents, backward):
        counts["autodiff.nodes"] += 1
        return node(data, parents, backward)

    return counted
