"""Span tracer for the benchmark's traced pass.

The package is never edited.  ``Tracer.install`` replaces each traced
function at every ``usdenoise`` module attribute that holds it, so a call
through ``from module import f`` is caught as well as one through
``module.f``; ``Tracer.uninstall`` puts the originals back.  Spans carry a
name, start, end, parent and op id, stay in memory, and are written as JSON
lines when the run ends.

Byte and flop counts on spans are computed from array shapes, not measured.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import time
from collections import defaultdict

# Per-layer metrics: (name, unit).  BENCHMARK.json lists the same names.
PER_LAYER = [
    ("nnet.unet_forward.s", "s"),
    ("nnet.unet_forward.calls", "count"),
    ("nnet.unet_forward.self.s", "s"),
    ("nnet.unet_backward.s", "s"),
    ("nnet.adam_step.s", "s"),
    ("nnet.conv2d_fwd.L0.s", "s"),
    ("nnet.conv2d_fwd.L1.s", "s"),
    ("nnet.conv2d_fwd.L2.s", "s"),
    ("nnet.conv2d_bwd.L0.s", "s"),
    ("nnet.conv2d_bwd.L1.s", "s"),
    ("nnet.conv2d_bwd.L2.s", "s"),
    ("nnet.conv2d.L0.gflop", "GFLOP"),
    ("nnet.conv2d.L1.gflop", "GFLOP"),
    ("nnet.conv2d.L2.gflop", "GFLOP"),
    ("nnet.conv2d.gflop", "GFLOP"),
    ("nnet.conv2d.gflop_per_s", "GFLOP/s"),
    ("nnet.conv2d.flop_per_byte", "flop/B"),
    ("diffusion.denoise_from.s", "s"),
    ("diffusion.predictor.s", "s"),
    ("diffusion.reverse_step.s", "s"),
    ("diffusion.reverse_step.calls", "count"),
    ("diffusion.forward_jump.s", "s"),
    ("ultrasound.scatterers.s", "s"),
    ("ultrasound.synth_rf.s", "s"),
    ("kernels.deposit_pulses.s", "s"),
    ("kernels.deposit_pulses.calls", "count"),
    ("kernels.deposit_pulses.bytes", "B"),
    ("ultrasound.das_beamform.s", "s"),
    ("kernels.das_sum.s", "s"),
    ("kernels.das_sum.bytes", "B"),
    ("ultrasound.envelope_image.s", "s"),
    ("ultrasound.compound.s", "s"),
    ("ultrasound.log_compress.s", "s"),
    ("baselines.nlm_denoise.s", "s"),
    ("kernels.nlm_filter.s", "s"),
    ("baselines.bm3d_denoise.s", "s"),
    ("baselines.bm3d_denoise.self.s", "s"),
    ("kernels.match_blocks.stage1.s", "s"),
    ("kernels.match_blocks.stage2.s", "s"),
    ("baselines.bm3d.transform.s", "s"),
    ("baselines.bm3d.groups", "count"),
    ("formats.write_checkpoint.s", "s"),
    ("formats.write_checkpoint.bytes", "B"),
    ("formats.read_checkpoint.s", "s"),
    ("formats.read_checkpoint.bytes", "B"),
    ("formats.read_pgm.s", "s"),
    ("formats.write_pgm.s", "s"),
    ("rng.standard_normal.s", "s"),
    ("rng.uniforms.s", "s"),
    ("metrics.psnr.s", "s"),
    ("metrics.gcnr.s", "s"),
    ("bench.run_bench.self.s", "s"),
    ("cli.main.self.s", "s"),
    ("trace.spans", "count"),
]

CONV_LEVELS = (0, 1, 2)

# Metrics computed from array shapes and file sizes rather than measured.
COMPUTED = [name for name, unit in PER_LAYER
            if unit in ("B", "GFLOP", "flop/B")]


class Tracer:
    """In-memory span recorder; ``enabled`` gates recording."""

    def __init__(self):
        self.spans: list[dict] = []
        self.enabled = False
        self.op = None            # id of the workload op in progress
        self.net_hw = None        # input height of the U-Net call in progress
        self.bm3d_stage = None    # 1 or 2 inside a BM3D stage
        self._open: list[dict] = []
        self._patched: list[tuple] = []
        self._t0 = time.perf_counter()

    def begin(self, name: str) -> dict:
        span = {"id": len(self.spans),
                "parent": self._open[-1]["id"] if self._open else None,
                "op": self.op, "name": name,
                "start": time.perf_counter() - self._t0, "end": None}
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter() - self._t0
        self._open.pop()

    def install(self) -> None:
        """Wrap every traced function at every attribute that holds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "usdenoise" or name.startswith("usdenoise.")]
        for module_name, attr, factory, only_in in _TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = factory(self, original)
            for m in modules:
                if only_in is not None and m.__name__ != only_in:
                    continue
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, original))

    def uninstall(self) -> None:
        for m, key, original in reversed(self._patched):
            setattr(m, key, original)
        self._patched.clear()

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w") as f:
            f.write(json.dumps({"type": "run", **header}) + "\n")
            for span in self.spans:
                f.write(json.dumps({"type": "span", **span}) + "\n")


# ------------------------------------------------------------- wrappers

def _span(name, attrs=None):
    """Factory for a plain span.  ``attrs(tracer, args, kwargs, out)`` may
    add computed counts, and may rename the span once shapes are known."""
    def factory(tr: Tracer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.enabled:
                return fn(*args, **kwargs)
            span = tr.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tr.end(span)
            if attrs is not None:
                span.update(attrs(tr, args, kwargs, out))
            return out
        return wrapper
    return factory


def _with_state(field, value_fn, inner=None):
    """Set ``Tracer.<field>`` for the duration of the call, then restore."""
    def factory(tr: Tracer, fn):
        traced = inner(tr, fn) if inner is not None else fn

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.enabled:
                return fn(*args, **kwargs)
            saved = getattr(tr, field)
            setattr(tr, field, value_fn(args))
            try:
                return traced(*args, **kwargs)
            finally:
                setattr(tr, field, saved)
        return wrapper
    return factory


def _denoise_from(tr: Tracer, fn):
    """Span the reverse chain and, inside it, each network call."""
    spanned = _span("diffusion.denoise_from")(tr, fn)
    predictor_span = _span("diffusion.predictor")

    @functools.wraps(fn)
    def wrapper(x_noisy, t_start, predictor, *args, **kwargs):
        if tr.enabled:
            predictor = predictor_span(tr, predictor)
        return spanned(x_noisy, t_start, predictor, *args, **kwargs)
    return wrapper


def _level(net_hw, out_hw) -> int | None:
    """U-Net level of a convolution output: 0 at full size, 1 at half, ..."""
    if not net_hw:
        return None
    return int(round(math.log2(net_hw / out_hw)))


def _conv_fwd_attrs(tr, args, kwargs, out):
    x, w = args[0], args[1]
    y = out[0]
    b, o, oh, ow = y.shape
    _, c, kh, kw = w.shape
    return {"name": f"nnet.conv2d_fwd.L{_level(tr.net_hw, oh)}",
            "flop": 2 * b * oh * ow * o * c * kh * kw,
            "bytes": x.nbytes + w.nbytes + y.nbytes}


def _conv_bwd_attrs(tr, args, kwargs, out):
    dy = args[0]
    dx, dw = out[0], out[1]
    b, o, oh, ow = dy.shape
    _, c, kh, kw = dw.shape
    return {"name": f"nnet.conv2d_bwd.L{_level(tr.net_hw, oh)}",
            "flop": 2 * (2 * b * oh * ow * o * c * kh * kw),  # dW and dX GEMMs
            "bytes": dy.nbytes + 2 * dx.nbytes + 2 * dw.nbytes}


def _match_attrs(tr, args, kwargs, out):
    return {"name": f"kernels.match_blocks.stage{tr.bm3d_stage}",
            "groups": int(out.shape[0])}


def _deposit_attrs(tr, args, kwargs, out):
    tau, amp, phase = args[:3]
    return {"bytes": tau.nbytes + amp.nbytes + phase.nbytes + out.nbytes}


def _das_attrs(tr, args, kwargs, out):
    return {"bytes": args[0].nbytes + args[1].nbytes + out.nbytes}


def _file_bytes(tr, args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


_UNET = "usdenoise.nnet.unet"
_OPS = "usdenoise.nnet.ops"
_DIFF = "usdenoise.diffusion"
_PHANTOM = "usdenoise.ultrasound.phantom"
_BEAM = "usdenoise.ultrasound.beamform"
_SIGNAL = "usdenoise.ultrasound.signal"
_KERN = "usdenoise._kernels"
_BM3D = "usdenoise.baselines.bm3d"
_FMT = "usdenoise.formats"

# (defining module, function, wrapper factory, only patch it in this module)
_TARGETS = [
    (_UNET, "unet_forward", _with_state("net_hw", lambda a: a[2].shape[-2],
                                        _span("nnet.unet_forward")), None),
    (_UNET, "unet_backward", _with_state("net_hw", lambda a: a[1].shape[-2],
                                         _span("nnet.unet_backward")), None),
    (_OPS, "conv2d_fwd", _span("nnet.conv2d_fwd", _conv_fwd_attrs), None),
    (_OPS, "conv2d_bwd", _span("nnet.conv2d_bwd", _conv_bwd_attrs), None),
    ("usdenoise.nnet.optim", "adam_step", _span("nnet.adam_step"), None),
    ("usdenoise.nnet.train", "train", _span("nnet.train"), None),
    (_DIFF, "denoise_from", _denoise_from, None),
    (_DIFF, "reverse_step", _span("diffusion.reverse_step"), None),
    (_DIFF, "forward_jump", _span("diffusion.forward_jump"), None),
    (_PHANTOM, "synth_phantom", _span("ultrasound.synth_phantom"), None),
    (_PHANTOM, "_scatterers", _span("ultrasound.scatterers"), None),
    (_PHANTOM, "synth_rf", _span("ultrasound.synth_rf"), None),
    (_BEAM, "das_beamform", _span("ultrasound.das_beamform"), None),
    (_BEAM, "compound", _span("ultrasound.compound"), None),
    (_SIGNAL, "envelope_image", _span("ultrasound.envelope_image"), None),
    (_SIGNAL, "log_compress", _span("ultrasound.log_compress"), None),
    (_KERN, "deposit_pulses", _span("kernels.deposit_pulses", _deposit_attrs),
     None),
    (_KERN, "das_sum", _span("kernels.das_sum", _das_attrs), None),
    (_KERN, "nlm_filter", _span("kernels.nlm_filter"), None),
    (_KERN, "match_blocks", _span("kernels.match_blocks", _match_attrs), None),
    ("usdenoise.baselines.nlm", "nlm_denoise", _span("baselines.nlm_denoise"),
     None),
    (_BM3D, "bm3d_denoise", _span("baselines.bm3d_denoise"), None),
    (_BM3D, "_stage1", _with_state("bm3d_stage", lambda a: 1), None),
    (_BM3D, "_stage2", _with_state("bm3d_stage", lambda a: 2), None),
    *[("usdenoise.baselines.transforms", fn, _span("baselines.bm3d.transform"),
       _BM3D) for fn in ("dct2", "idct2", "haar1", "ihaar1")],
    (_FMT, "write_checkpoint", _span("formats.write_checkpoint", _file_bytes),
     None),
    (_FMT, "read_checkpoint", _span("formats.read_checkpoint", _file_bytes),
     None),
    (_FMT, "read_pgm", _span("formats.read_pgm"), None),
    (_FMT, "write_pgm", _span("formats.write_pgm"), None),
    ("usdenoise.rng", "standard_normal", _span("rng.standard_normal"), None),
    ("usdenoise.rng", "uniforms", _span("rng.uniforms"), None),
    ("usdenoise.metrics", "psnr", _span("metrics.psnr"), None),
    ("usdenoise.metrics", "gcnr", _span("metrics.gcnr"), None),
    ("usdenoise.bench", "run_bench", _span("bench.run_bench"), None),
    ("usdenoise.cli", "main", _span("cli.main"), None),
]

# ------------------------------------------------------------ reduction

def layer_metrics(spans: list[dict]) -> dict:
    """Reduce spans to the PER_LAYER metrics as ``{name: value}``.

    Busy time of a name counts each span not nested in another span of the
    same name; self time subtracts the durations of direct child spans.
    """
    by_id = {s["id"]: s for s in spans}
    child_s = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] += s["end"] - s["start"]
    busy, self_s = defaultdict(float), defaultdict(float)
    calls, nbytes, flop = defaultdict(int), defaultdict(int), defaultdict(int)
    for s in spans:
        name, dur = s["name"], s["end"] - s["start"]
        calls[name] += 1
        nbytes[name] += s.get("bytes", 0)
        flop[name] += s.get("flop", 0)
        self_s[name] += dur - child_s[s["id"]]
        p = s["parent"]
        while p is not None and by_id[p]["name"] != name:
            p = by_id[p]["parent"]
        if p is None:
            busy[name] += dur

    out = {}
    for metric, _unit in PER_LAYER:
        base, _, kind = metric.rpartition(".")
        if metric.endswith(".self.s"):
            out[metric] = self_s[base[:-len(".self")]]
        elif kind == "s":
            out[metric] = busy[base]
        elif kind == "calls":
            out[metric] = calls[base]
        elif kind == "bytes":
            out[metric] = nbytes[base]
    convs = [n for n in calls if n.startswith(("nnet.conv2d_fwd.",
                                               "nnet.conv2d_bwd."))]
    for lv in CONV_LEVELS:
        out[f"nnet.conv2d.L{lv}.gflop"] = sum(
            flop[n] for n in convs if n.endswith(f".L{lv}")) / 1e9
    conv_flop = sum(flop[n] for n in convs)
    conv_bytes = sum(nbytes[n] for n in convs)
    conv_s = sum(busy[n] for n in convs)
    out["nnet.conv2d.gflop"] = conv_flop / 1e9
    out["nnet.conv2d.gflop_per_s"] = conv_flop / 1e9 / conv_s if conv_s else 0.0
    out["nnet.conv2d.flop_per_byte"] = conv_flop / conv_bytes if conv_bytes else 0.0
    out["baselines.bm3d.groups"] = sum(s.get("groups", 0) for s in spans)
    out["trace.spans"] = len(spans)
    return out
