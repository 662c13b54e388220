"""The benchmark's tracer patches helix names from outside the package; this
guards those names against renames, on one toy slice."""

import importlib.util
from pathlib import Path

import numpy as np
from toyfix import scene_slices, toy_model

import helix.attention
import helix.model
from helix.autodiff import Tensor

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_attention_and_conv_spans():
    tracer_mod = load_tracer()
    model = toy_model(seed=2, dtype="float32")
    slc = scene_slices(seed=5, n_rotations=1, dtheta=np.deg2rad(72.0))[0]
    originals = (helix.model.transformer_forward, helix.attention.mask_pairs, Tensor._node)
    tracer = tracer_mod.Tracer()
    tracer_mod.instrument(tracer, model)
    try:
        model.segment_points(slc, model.new_buffer())
    finally:
        tracer.restore()
    spans = tracer.totals()
    for name in ("attention.forward", "attention.mask", "sparseconv.conv"):
        assert spans.get(name, {}).get("calls", 0) >= 1, name
    assert tracer.counts["attention.pairs"] > 0 and tracer.counts["autodiff.nodes"] > 0
    assert (helix.model.transformer_forward, helix.attention.mask_pairs,
            Tensor._node) == originals
