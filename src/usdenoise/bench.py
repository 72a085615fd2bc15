"""Benchmark harness: corrupt held-out images with the forward process at
several strengths, denoise with each method, and tabulate PSNR/GCNR.

The comparison protocol for the classical baselines: after t forward steps
the corrupted image is rescaled by 1/sqrt(abar_t) to undo the signal
attenuation, which leaves additive noise of std sqrt((1-abar_t)/abar_t) in
the signed-unit domain (half that after mapping to display range); that
analytic sigma is handed to NLM/BM3D.  All metrics are computed in the
unit-interval display domain against the clean image, with outputs clipped
to [0, 1].
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from usdenoise.baselines import Bm3dConfig, NlmConfig, bm3d_denoise, nlm_denoise
from usdenoise.diffusion import (
    STANDARD_POSTERIOR,
    NoiseSchedule,
    denoise_from,
    forward_jump,
    make_schedule,
)
from usdenoise.formats import image_from_pgm_unit
from usdenoise.image import RANGE_SIGNED, RANGE_UNIT, Image2D
from usdenoise.metrics import (
    PSNR_STANDARD,
    MetricsReport,
    RegionMask,
    gcnr,
    psnr,
)
from usdenoise.nnet import load_model, unet_forward
from usdenoise.rng import GaussianField
from usdenoise.ultrasound import Cyst, PhantomSpec, TransducerGeometry, synth_phantom
from usdenoise.ultrasound.phantom import annulus_mask, cyst_mask
from usdenoise.rng import uniforms

METHODS = ("noisy", "nlm", "bm3d", "ddpm")


class NumericError(RuntimeError):
    """A pipeline produced non-finite samples."""


@dataclass
class BenchConfig:
    """Benchmark run description; JSON config files use these exact keys."""

    image_dir: str | None = None      # PGM directory; None -> synth phantoms
    num_images: int = 16
    t_starts: tuple = (10, 20)
    methods: tuple = METHODS
    seed: int = 0
    variant: str = STANDARD_POSTERIOR
    psnr_formula: str = PSNR_STANDARD
    out_dir: str = "bench_out"
    checkpoint: str | None = None
    schedule_T: int = 300
    schedule_beta: float = 1.0 / 300.0
    gcnr_bins: int = 64
    mask_erode_px: int = 2
    # phantom generation
    phantom_nx: int = 64
    phantom_nz: int = 64
    phantom_density: float = 8.0
    phantom_elements: int = 64
    phantom_angles_deg: tuple = (-5.0, 0.0, 5.0)
    cyst_radius_mm: float = 1.5
    cyst_echogenicity: float = 0.0
    # baseline parameters
    nlm_patch_radius: int = 2
    nlm_search_radius: int = 7
    nlm_h_factor: float = 0.55
    bm3d_block_size: int = 8
    bm3d_max_matches: int = 16
    bm3d_search_radius: int = 19
    bm3d_hard_threshold: float = 2.7
    bm3d_stages: str = "two"

    def __post_init__(self):
        if not self.methods:
            raise ValueError("need at least one method")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        if not self.t_starts:
            raise ValueError("need at least one t_start")
        for t in self.t_starts:
            if not 1 <= int(t) <= self.schedule_T:
                raise ValueError(f"t_start {t} outside 1..{self.schedule_T}")

    @classmethod
    def from_json(cls, path) -> "BenchConfig":
        raw = json.loads(Path(path).read_text())
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key in ("t_starts", "methods", "phantom_angles_deg"):
            if key in raw:
                raw[key] = tuple(raw[key])
        return cls(**raw)


@dataclass
class BenchImage:
    name: str
    clean: Image2D                    # unit-interval
    inside: RegionMask
    outside: RegionMask


def _default_masks(shape) -> tuple[RegionMask, RegionMask]:
    """Concentric disc and equal-area annulus for mask-less image sets."""
    h, w = shape
    yy, xx = np.mgrid[0:h, 0:w]
    r = min(h, w) / 6.0
    d2 = (yy - h / 2.0) ** 2 + (xx - w / 2.0) ** 2
    inside = d2 <= r * r
    outer = math.sqrt(2.0) * (r + 2)
    outside = (d2 > (r + 2) ** 2) & (d2 <= outer * outer)
    return RegionMask(inside, "inside"), RegionMask(outside, "outside")


def make_phantom_set(cfg: BenchConfig) -> list[BenchImage]:
    geometry = TransducerGeometry(element_count=cfg.phantom_elements)
    angles = tuple(math.radians(a) for a in cfg.phantom_angles_deg)
    images = []
    for i in range(cfg.num_images):
        jitter = uniforms(2, cfg.seed, draw_index=900 + i) - 0.5
        cyst = Cyst(cx=float(jitter[0]) * 1.2e-3,
                    cz=10.0e-3 + float(jitter[1]) * 1.2e-3,
                    radius=cfg.cyst_radius_mm * 1e-3,
                    echogenicity=cfg.cyst_echogenicity)
        spec = PhantomSpec(nx=cfg.phantom_nx, nz=cfg.phantom_nz,
                           geometry=geometry, angles=angles,
                           scatterer_density=cfg.phantom_density,
                           seed=cfg.seed * 1009 + i, cysts=(cyst,))
        bmode, _, _ = synth_phantom(spec)
        inside = cyst_mask(spec, cyst, erode=cfg.mask_erode_px)
        outside = annulus_mask(spec, cyst, gap=cfg.mask_erode_px)
        images.append(BenchImage(f"phantom{i:02d}", bmode, inside, outside))
    return images


def load_image_set(cfg: BenchConfig) -> list[BenchImage]:
    paths = sorted(Path(cfg.image_dir).glob("*.pgm"))[:cfg.num_images]
    if not paths:
        raise ValueError(f"no PGM images found in {cfg.image_dir}")
    images = []
    for p in paths:
        img = image_from_pgm_unit(p)
        inside, outside = _default_masks(img.shape)
        images.append(BenchImage(p.stem, img, inside, outside))
    return images


def check_finite(name: str, data: np.ndarray) -> np.ndarray:
    """Return ``data``; raise NumericError if any sample is not finite."""
    if not np.all(np.isfinite(data)):
        raise NumericError(f"{name} produced non-finite samples")
    return data


def _to_unit_clipped(signed: np.ndarray) -> Image2D:
    return Image2D(np.clip((signed + 1.0) / 2.0, 0.0, 1.0), RANGE_UNIT)


class DdpmDenoiser:
    """Checkpoint-backed reverse-process denoiser.

    ``inject_seed`` is passed through to ``denoise_from``.
    """

    def __init__(self, checkpoint_path, variant: str,
                 inject_seed: int | None = None):
        self.params, self.net_cfg = load_model(checkpoint_path)
        self.variant = variant
        self.inject_seed = inject_seed

    def predictor(self, img: Image2D, t: int) -> np.ndarray:
        eps_hat, _ = unet_forward(self.params, self.net_cfg,
                                  img.data[None, None].astype(np.float64),
                                  np.array([t]))
        return eps_hat[0, 0]

    def __call__(self, noisy_signed: Image2D, t_start: int,
                 sched: NoiseSchedule) -> np.ndarray:
        div = 1 << self.net_cfg.depth
        if noisy_signed.height % div or noisy_signed.width % div:
            raise ValueError(f"image extent {noisy_signed.height}x"
                             f"{noisy_signed.width} is not divisible by the "
                             f"model's 2^depth = {div}")
        out = denoise_from(noisy_signed, t_start, self.predictor, sched,
                           self.variant, inject_seed=self.inject_seed)
        return out.data


def run_method(method: str, noisy_signed: Image2D, t_start: int,
               sched: NoiseSchedule, cfg: BenchConfig,
               ddpm: DdpmDenoiser | None) -> Image2D:
    ab = sched.alpha_bar(t_start)
    if method == "noisy":
        return _to_unit_clipped(check_finite("noisy", noisy_signed.data))
    if method == "ddpm":
        if ddpm is None:
            raise ValueError("ddpm method requested without a checkpoint")
        return _to_unit_clipped(check_finite("ddpm",
                                              ddpm(noisy_signed, t_start, sched)))
    # classical baselines: undo attenuation, hand over the analytic sigma
    rescaled = noisy_signed.data.astype(np.float64) / math.sqrt(ab)
    sigma_unit = math.sqrt((1.0 - ab) / ab) / 2.0
    unit = Image2D((rescaled + 1.0) / 2.0, RANGE_UNIT)
    if method == "nlm":
        out = nlm_denoise(unit, NlmConfig(patch_radius=cfg.nlm_patch_radius,
                                          search_radius=cfg.nlm_search_radius,
                                          h=cfg.nlm_h_factor * sigma_unit,
                                          sigma=sigma_unit))
    else:
        out = bm3d_denoise(unit, Bm3dConfig(block_size=cfg.bm3d_block_size,
                                            max_matches=cfg.bm3d_max_matches,
                                            search_radius=cfg.bm3d_search_radius,
                                            hard_threshold=cfg.bm3d_hard_threshold,
                                            sigma=sigma_unit,
                                            stages=cfg.bm3d_stages))
    return Image2D(np.clip(check_finite(method, out.data), 0.0, 1.0),
                   RANGE_UNIT)


def run_bench(cfg: BenchConfig, images: list[BenchImage] | None = None,
              write_files: bool = True):
    """Execute the benchmark; returns (MetricsReport, per-image rows)."""
    sched = make_schedule(cfg.schedule_T, "constant-beta", cfg.schedule_beta)
    if images is None:
        images = load_image_set(cfg) if cfg.image_dir else make_phantom_set(cfg)
    if not images:
        raise ValueError("empty test set")
    ddpm = None
    if "ddpm" in cfg.methods:
        if cfg.checkpoint is None:
            raise ValueError("ddpm method requested without a checkpoint")
        ddpm = DdpmDenoiser(cfg.checkpoint, cfg.variant)

    per_image = []
    for i, ti in enumerate(images):
        clean_signed = ti.clean.to_range(RANGE_SIGNED)
        for t_start in cfg.t_starts:
            t_start = int(t_start)
            eps = GaussianField(ti.clean.shape, cfg.seed,
                                draw_index=7000 + i * 100 + t_start)
            noisy_signed = forward_jump(clean_signed, t_start, sched, eps)
            for method in cfg.methods:
                est = run_method(method, noisy_signed, t_start, sched, cfg, ddpm)
                row = {
                    "method": method,
                    "t_start": t_start,
                    "image": ti.name,
                    "psnr_db": psnr(ti.clean, est, 1.0, cfg.psnr_formula),
                    "gcnr_percent": 100.0 * gcnr(est, ti.inside, ti.outside,
                                                 cfg.gcnr_bins),
                }
                per_image.append(row)

    report = MetricsReport(metadata={
        **{k: (list(v) if isinstance(v, tuple) else v)
           for k, v in asdict(cfg).items()},
        "num_images": len(images),
        "sampler_variant": cfg.variant,
        "psnr_formula": cfg.psnr_formula,
    })
    for method in sorted(set(cfg.methods)):
        for t_start in cfg.t_starts:
            rows = [r for r in per_image
                    if r["method"] == method and r["t_start"] == int(t_start)]
            report.add(method, int(t_start),
                       float(np.mean([r["psnr_db"] for r in rows])),
                       float(np.mean([r["gcnr_percent"] for r in rows])))

    if write_files:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.csv").write_text(report.to_csv())
        (out / "report.md").write_text(report.to_markdown())
        (out / "report.json").write_text(
            json.dumps({"metadata": report.metadata, "rows": report.sorted_rows()},
                       indent=2, sort_keys=True))
        lines = ["method,t_start,image,psnr_db,gcnr_percent"]
        for r in per_image:
            lines.append(f"{r['method']},{r['t_start']},{r['image']},"
                         f"{r['psnr_db']:.4f},{r['gcnr_percent']:.2f}")
        (out / "per_image.csv").write_text("\n".join(lines) + "\n")
    return report, per_image
