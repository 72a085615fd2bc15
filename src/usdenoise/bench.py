"""Benchmark harness: corrupt held-out images with the forward process at
several strengths, denoise with each method, and tabulate PSNR, GCNR and
the speckle ratio (the estimate's std over the background annulus divided
by the clean image's std there; 1 keeps the speckle, 0 flattens it).

The comparison protocol for the classical baselines: after t forward steps
the corrupted image is rescaled by 1/sqrt(abar_t) to undo the signal
attenuation, which leaves additive noise of std sqrt((1-abar_t)/abar_t) in
the signed domain [-1, 1] (half that after mapping to display range); that
analytic sigma is handed to NLM/BM3D, which otherwise run at the
``NlmConfig``/``Bm3dConfig`` defaults (NLM's h is ``H_FACTOR * sigma``; the
``baseline`` command is where to tune them).  All metrics are computed in
the unit-interval display domain against the clean image, with outputs
clipped to [0, 1].

Synthetic test images are ``PhantomSpec()`` phantoms but for the grid,
array and angles that ``BenchConfig`` names, each with one anechoic cyst of
radius ``CYST_RADIUS_M``; GCNR compares the cyst, shrunk by ``MASK_GAP_PX``,
with an annulus that gap outside it.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from usdenoise.baselines import Bm3dConfig, NlmConfig, bm3d_denoise, nlm_denoise
from usdenoise.diffusion import (
    DEFAULT_STEPS,
    DEFAULT_T,
    denoise_from,
    forward_jump,
    make_schedule,
)
from usdenoise.formats import read_pgm
from usdenoise.image import Image2D, to_signed, to_unit_clipped
from usdenoise.metrics import gcnr, psnr
from usdenoise.nnet import load_model, unet_forward
from usdenoise.rng import standard_normal, stream, uniforms
from usdenoise.ultrasound import Cyst, PhantomSpec, TransducerGeometry, synth_phantom
from usdenoise.ultrasound.phantom import annulus_mask, cyst_mask

METHODS = ("noisy", "nlm", "bm3d", "ddpm")
CYST_RADIUS_M = 1.5e-3        # the phantoms' one anechoic cyst
MASK_GAP_PX = 2               # pixels between the cyst's edge and each mask

# Each per-image metric: (row key, CSV format, report.md heading and format)
COLUMNS = (
    ("psnr_db", "{:.4f}", "PSNR (dB)", "{:.2f}"),
    ("gcnr_percent", "{:.2f}", "GCNR (%)", "{:.1f}"),
    ("speckle_ratio", "{:.4f}", "Speckle ratio", "{:.2f}"),
)


@dataclass
class BenchConfig:
    """Benchmark run description; JSON config files use these exact keys."""

    image_dir: str | None = None      # PGM directory; None -> synth phantoms
    num_images: int = 16
    t_starts: tuple = (10, 20)
    methods: tuple = METHODS
    seed: int = 0
    out_dir: str = "bench_out"
    checkpoint: str | None = None
    ddpm_steps: int = DEFAULT_STEPS   # network calls per chain, at most t_start
    # phantom size: PhantomSpec's, but with a 64-element array
    phantom_nx: int = PhantomSpec.nx
    phantom_nz: int = PhantomSpec.nz
    phantom_elements: int = 64
    phantom_angles_deg: tuple = PhantomSpec.DEFAULT_ANGLES_DEG

    def __post_init__(self):
        if not self.methods:
            raise ValueError("need at least one method")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        if not self.t_starts:
            raise ValueError("need at least one t_start")
        for name in ("methods", "t_starts"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} lists an entry twice: {list(values)}")
        counts = (self.num_images, self.ddpm_steps, *self.t_starts)
        if not all(isinstance(v, numbers.Integral) for v in counts):
            raise ValueError("num_images, ddpm_steps and t_starts must be "
                             f"integers, got {counts}")
        if self.num_images < 1:
            raise ValueError("num_images must be at least 1")
        for t in self.t_starts:
            if not 1 <= t <= DEFAULT_T:
                raise ValueError(f"t_start {t} outside 1..{DEFAULT_T}")
        if self.ddpm_steps < 1:
            raise ValueError("ddpm_steps must be at least 1")

    @classmethod
    def from_json(cls, path) -> "BenchConfig":
        raw = json.loads(Path(path).read_text())
        if not isinstance(raw, dict):
            raise ValueError("a bench config must be a JSON object")
        fields = cls.__dataclass_fields__
        unknown = set(raw) - set(fields)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in raw.items():
            if not _json_type_ok(value, fields[key].default):
                raise ValueError(f"config key {key!r} has the wrong type: "
                                 f"{value!r}")
            if isinstance(value, list):
                raw[key] = tuple(value)
        return cls(**raw)


def _json_type_ok(value, default) -> bool:
    """Whether a JSON value has the type of a BenchConfig field, judged by
    the field's default: None means a string or null, a tuple a list whose
    items match its first item, a float any number."""
    if default is None:
        return value is None or isinstance(value, str)
    if isinstance(default, tuple):
        return (isinstance(value, list)
                and all(_json_type_ok(v, default[0]) for v in value))
    if isinstance(value, bool):
        return False
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


@dataclass
class BenchImage:
    name: str
    clean: Image2D                    # unit-interval
    inside: np.ndarray                # boolean
    outside: np.ndarray               # boolean


def _default_masks(shape) -> tuple[np.ndarray, np.ndarray]:
    """Disc of radius r = min(h, w)/6 and concentric annulus over radii
    (r+2, sqrt(2)*(r+2)]: 1.40x the disc's pixels at 64x64, 1.84x at 32x32."""
    h, w = shape
    yy, xx = np.mgrid[0:h, 0:w]
    r = min(h, w) / 6.0
    d2 = (yy - h / 2.0) ** 2 + (xx - w / 2.0) ** 2
    inside = d2 <= r * r
    outer = math.sqrt(2.0) * (r + 2)
    outside = (d2 > (r + 2) ** 2) & (d2 <= outer * outer)
    return inside, outside


def make_phantom_set(cfg: BenchConfig) -> list[BenchImage]:
    geometry = TransducerGeometry(element_count=cfg.phantom_elements)
    angles = tuple(math.radians(a) for a in cfg.phantom_angles_deg)
    images = []
    for i in range(cfg.num_images):
        jitter = uniforms(2, cfg.seed, stream("bench.cyst", i)) - 0.5
        cyst = Cyst(cx=float(jitter[0]) * 1.2e-3,
                    cz=10.0e-3 + float(jitter[1]) * 1.2e-3,
                    radius=CYST_RADIUS_M)
        spec = PhantomSpec(nx=cfg.phantom_nx, nz=cfg.phantom_nz,
                           geometry=geometry, angles=angles, cysts=(cyst,),
                           seed=stream("bench.phantom", cfg.seed, i))
        bmode, _, _ = synth_phantom(spec)
        inside = cyst_mask(spec, cyst, erode=MASK_GAP_PX)
        outside = annulus_mask(spec, cyst, gap=MASK_GAP_PX)
        images.append(BenchImage(f"phantom{i:02d}", bmode, inside, outside))
    return images


def load_image_set(cfg: BenchConfig) -> list[BenchImage]:
    paths = sorted(Path(cfg.image_dir).glob("*.pgm"))[:cfg.num_images]
    if not paths:
        raise ValueError(f"no PGM images found in {cfg.image_dir}")
    images = []
    for p in paths:
        img = read_pgm(p)
        inside, outside = _default_masks(img.shape)
        try:    # so that an image too small for the masks fails before any run
            gcnr(img, inside, outside)
        except ValueError as exc:
            raise ValueError(f"{p}: {exc}") from None
        images.append(BenchImage(p.stem, img, inside, outside))
    return images


class DdpmDenoiser:
    """Checkpoint-backed reverse-process denoiser of signed images.

    ``inject_seed`` and ``steps`` are passed through to ``denoise_from``,
    so a chain makes min(steps, t_start) network calls.  U-Net errors
    propagate unchanged: an input the checkpoint cannot run (wrong channel
    count, extent not divisible by 2^depth) raises ``unet_forward``'s
    ``ValueError``.  A non-finite noise prediction makes ``reverse_step``
    raise ``NumericError``.
    """

    def __init__(self, checkpoint_path, inject_seed: int | None = None,
                 steps: int | None = DEFAULT_STEPS):
        self.params, self.net_cfg = load_model(checkpoint_path)
        self.inject_seed = inject_seed
        self.steps = steps

    def predictor(self, x: np.ndarray, t: int) -> np.ndarray:
        eps_hat, _ = unet_forward(self.params, self.net_cfg,
                                  x[None, None], np.array([t]))
        return eps_hat[0, 0]

    def __call__(self, noisy_signed: np.ndarray, t_start: int) -> np.ndarray:
        return denoise_from(noisy_signed, t_start, self.predictor,
                            make_schedule(), inject_seed=self.inject_seed,
                            steps=self.steps)


def run_method(method: str, noisy_signed: np.ndarray, t_start: int,
               ddpm: DdpmDenoiser | None) -> Image2D:
    ab = make_schedule().alpha_bar(t_start)
    if method == "noisy":
        return to_unit_clipped(noisy_signed)
    if method == "ddpm":
        if ddpm is None:
            raise ValueError("ddpm method requested without a checkpoint")
        return to_unit_clipped(ddpm(noisy_signed, t_start))
    # classical baselines: undo attenuation, hand over the analytic sigma
    rescaled = noisy_signed.astype(np.float64) / math.sqrt(ab)
    sigma = math.sqrt((1.0 - ab) / ab) / 2.0
    unit = Image2D((rescaled + 1.0) / 2.0)
    out = (nlm_denoise(unit, NlmConfig(h=NlmConfig.H_FACTOR * sigma,
                                       sigma=sigma))
           if method == "nlm" else bm3d_denoise(unit, Bm3dConfig(sigma=sigma)))
    return Image2D(np.clip(out.data, 0.0, 1.0))


def _std_ratio(est: np.ndarray, clean: np.ndarray, mask: np.ndarray) -> float:
    """std of ``est`` over ``mask`` divided by that of ``clean``; NaN when
    the clean region is flat and so has no speckle to keep."""
    ref = float(clean[mask].std(dtype=np.float64))
    return float(est[mask].std(dtype=np.float64)) / ref if ref > 0 else math.nan


def _csv(rows, keys) -> str:
    """CSV text of ``rows`` over ``keys``; metrics in their COLUMNS format."""
    fmt = {key: csv_fmt for key, csv_fmt, _, _ in COLUMNS}
    lines = [",".join(fmt.get(k, "{}").format(r[k]) for k in keys) for r in rows]
    return "\n".join([",".join(keys), *lines]) + "\n"


def _markdown(summary, metadata) -> str:
    """report.md: a method-by-t_start table of each metric, then the run
    metadata.  ``summary`` is sorted by method and then by t_start."""
    t_values = sorted({r["t_start"] for r in summary})
    parts = []
    for key, _, heading, fmt in COLUMNS:
        parts += [f"## {heading}", "",
                  "| Method | " + " | ".join(f"T={t}" for t in t_values) + " |",
                  "|---" * (len(t_values) + 1) + "|"]
        for method, rows in itertools.groupby(summary, lambda r: r["method"]):
            parts.append(f"| {method} | "
                         + " | ".join(fmt.format(r[key]) for r in rows) + " |")
        parts.append("")
    parts += ["## Run metadata", "", "```json",
              json.dumps(metadata, indent=2, sort_keys=True), "```", ""]
    return "\n".join(parts)


def run_bench(cfg: BenchConfig, images: list[BenchImage] | None = None):
    """Execute the benchmark, write its reports to ``cfg.out_dir`` and
    return (summary rows, per-image rows).  A summary row holds each metric's
    mean for one (method, t_start), sorted by method and then by t_start."""
    sched = make_schedule()
    ddpm = None
    if "ddpm" in cfg.methods:
        if cfg.checkpoint is None:
            raise ValueError("ddpm method requested without a checkpoint")
        ddpm = DdpmDenoiser(cfg.checkpoint, steps=cfg.ddpm_steps)
    if images is None:
        images = load_image_set(cfg) if cfg.image_dir else make_phantom_set(cfg)
    if not images:
        raise ValueError("empty test set")

    per_image = []
    for i, ti in enumerate(images):
        clean_signed = to_signed(ti.clean)
        for t_start in cfg.t_starts:
            t_start = int(t_start)
            eps = standard_normal(ti.clean.shape, cfg.seed,
                                  stream("bench.noise", i, t_start))
            noisy_signed = forward_jump(clean_signed, t_start, sched, eps)
            for method in cfg.methods:
                est = run_method(method, noisy_signed, t_start, ddpm)
                per_image.append({
                    "method": method,
                    "t_start": t_start,
                    "image": ti.name,
                    "psnr_db": psnr(ti.clean, est, 1.0),
                    "gcnr_percent": 100.0 * gcnr(est, ti.inside, ti.outside),
                    "speckle_ratio": _std_ratio(est.data, ti.clean.data,
                                                ti.outside),
                })

    metric_keys = [key for key, *_ in COLUMNS]
    cells = {}
    for r in per_image:
        cells.setdefault((r["method"], r["t_start"]), []).append(r)
    summary = [{"method": method, "t_start": t_start,
                **{k: float(np.mean([r[k] for r in rows])) for k in metric_keys}}
               for (method, t_start), rows in sorted(cells.items())]
    metadata = {**asdict(cfg), "num_images": len(images)}

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.csv").write_text(
        _csv(summary, ["method", "t_start", *metric_keys]))
    (out / "report.md").write_text(_markdown(summary, metadata))
    # strict JSON: a non-finite metric (a flat clean background's speckle
    # ratio, an exact estimate's PSNR) is written as null
    rows = [{k: v if not isinstance(v, float) or math.isfinite(v) else None
             for k, v in r.items()} for r in summary]
    (out / "report.json").write_text(
        json.dumps({"metadata": metadata, "rows": rows},
                   indent=2, sort_keys=True, allow_nan=False))
    (out / "per_image.csv").write_text(
        _csv(per_image, ["method", "t_start", "image", *metric_keys]))
    return summary, per_image
