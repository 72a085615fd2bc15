"""Synthetic speckle phantoms: scatterer fields, per-element RF synthesis,
and a fast patch generator for training data.

The simulator is deliberately minimal: far-field point scatterers echo a
Gaussian-modulated cosine, with no attenuation or element directivity.
That is enough to produce fully developed (Rayleigh) speckle and anechoic
cysts with known ground-truth masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from usdenoise import _kernels
from usdenoise.metrics import RegionMask
from usdenoise.rng import standard_normal, uniforms
from usdenoise.ultrasound.beamform import bmode_from_frames, tx_delay
from usdenoise.ultrasound.signal import log_compress
from usdenoise.ultrasound.types import ImagingGrid, RFFrame, TransducerGeometry

# Gaussian pulse std in seconds, as a fraction of the carrier period
PULSE_SIGMA_PERIODS = 0.5
# speckle_patches blurs and averages this many patches per pass
_PATCH_CHUNK = 16


@dataclass(frozen=True)
class Cyst:
    """Circular inclusion: center (m), radius (m), echogenicity >= 0.

    Echogenicity scales scatterer amplitudes inside the disc; 0 makes the
    cyst anechoic.
    """

    cx: float
    cz: float
    radius: float
    echogenicity: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.cx, self.cz, self.radius,
                                       self.echogenicity))):
            raise ValueError("cyst position, radius and echogenicity must "
                             "be finite")
        if self.radius <= 0:
            raise ValueError("cyst radius must be positive")
        if self.echogenicity < 0:
            raise ValueError("echogenicity must be non-negative")


@dataclass(frozen=True)
class PhantomSpec:
    """Scatterer phantom over a rectangular grid.

    ``scatterer_density`` counts scatterers per wavelength-squared cell.
    ``angles`` are the plane-wave steering angles synthesized and later
    compounded into the B-mode.
    """

    nx: int = 64
    nz: int = 64
    width_m: float = 6.4e-3
    depth_m: float = 6.4e-3
    z0_m: float = 6.8e-3
    scatterer_density: float = 6.0
    cysts: tuple = ()
    seed: int = 0
    angles: tuple = (-0.0873, 0.0, 0.0873)   # about +-5 degrees
    geometry: TransducerGeometry = field(default_factory=TransducerGeometry)
    dynamic_range_db: float = 60.0

    def __post_init__(self):
        for name in ("width_m", "depth_m", "z0_m", "scatterer_density",
                     "dynamic_range_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.scatterer_density <= 0:
            raise ValueError("scatterer density must be positive")
        if self.nx < 1 or self.nz < 1 or self.width_m <= 0 or self.depth_m <= 0:
            raise ValueError("bad grid")
        if self.z0_m <= 0:
            raise ValueError("grid must start below the array (z0 > 0)")
        if not all(math.isfinite(a) and abs(a) < math.pi / 4
                   for a in self.angles):
            raise ValueError("steering angles must be finite with "
                             f"|angle| < pi/4 rad, got {self.angles}")
        for c in self.cysts:
            if (abs(c.cx) + c.radius > self.width_m / 2
                    or c.cz - c.radius < self.z0_m
                    or c.cz + c.radius > self.z0_m + self.depth_m):
                raise ValueError(f"cyst at ({c.cx}, {c.cz}) r={c.radius} "
                                 "extends outside the grid")

    def grid(self) -> ImagingGrid:
        return ImagingGrid.centered(self.nx, self.nz, self.width_m,
                                    self.depth_m, self.z0_m)


def _scatterers(spec: PhantomSpec):
    """Deterministic scatterer cloud: positions, amplitudes, phases."""
    lam = spec.geometry.wavelength
    n = max(1, round(spec.scatterer_density * spec.width_m * spec.depth_m
                     / (lam * lam)))
    xs = (uniforms(n, spec.seed, draw_index=0) - 0.5) * spec.width_m
    zs = spec.z0_m + uniforms(n, spec.seed, draw_index=1) * spec.depth_m
    re = standard_normal((n,), spec.seed, draw_index=2).astype(np.float64)
    im = standard_normal((n,), spec.seed, draw_index=3).astype(np.float64)
    amp = np.hypot(re, im)
    phase = np.arctan2(im, re)
    for c in spec.cysts:
        inside = (xs - c.cx) ** 2 + (zs - c.cz) ** 2 <= c.radius ** 2
        amp = np.where(inside, amp * c.echogenicity, amp)
    return xs, zs, amp, phase


def synth_rf(spec: PhantomSpec, angle: float) -> RFFrame:
    """Per-element RF traces for one steered plane-wave transmission."""
    g = spec.geometry
    xs, zs, amp, phase = _scatterers(spec)
    # anechoic scatterers add exact zeros to the traces: drop them
    echo = amp != 0.0
    xs, zs, amp, phase = xs[echo], zs[echo], amp[echo], phase[echo]
    sigma_t = PULSE_SIGMA_PERIODS / g.center_frequency
    half_width = int(math.ceil(4.0 * sigma_t * g.sampling_rate))
    tx = tx_delay(xs, zs, angle, g)
    ex = g.element_x()
    # worst-case arrival over all scatterers and elements bounds the trace
    zmax = spec.z0_m + spec.depth_m
    rx_max = math.hypot(spec.width_m / 2 + g.aperture / 2, zmax)
    tau_max = (zmax + 0.5 * g.aperture * abs(math.sin(angle))
               + rx_max) / g.sound_speed
    n_samples = int(math.ceil(tau_max * g.sampling_rate)) + half_width + 4
    traces = np.empty((g.element_count, n_samples), dtype=np.float64)
    for e in range(g.element_count):
        rx = np.hypot(xs - ex[e], zs) / g.sound_speed
        traces[e] = _kernels.deposit_pulses(
            tx + rx, amp, phase, g.sampling_rate, g.center_frequency,
            sigma_t, n_samples, half_width)
    return RFFrame(samples=traces.astype(np.float32), steer_angle=angle,
                   geometry=g)


def cyst_mask(spec: PhantomSpec, cyst: Cyst, erode: int = 0) -> RegionMask:
    """Ground-truth pixel mask of a cyst disc, optionally eroded (pixels)."""
    grid = spec.grid()
    X, Z = np.meshgrid(grid.x, grid.z)
    shrink = erode * max(grid.dx, grid.dz)
    r = max(cyst.radius - shrink, 0.0)
    return RegionMask((X - cyst.cx) ** 2 + (Z - cyst.cz) ** 2 <= r * r, "inside")


def annulus_mask(spec: PhantomSpec, cyst: Cyst, gap: int = 2) -> RegionMask:
    """Equal-area concentric annulus around a cyst, kept ``gap`` pixels
    clear of the cyst boundary."""
    grid = spec.grid()
    X, Z = np.meshgrid(grid.x, grid.z)
    pad = gap * max(grid.dx, grid.dz)
    r_in = cyst.radius + pad
    r_out = math.sqrt(r_in ** 2 + cyst.radius ** 2)  # same area as the disc
    d2 = (X - cyst.cx) ** 2 + (Z - cyst.cz) ** 2
    return RegionMask((d2 > r_in ** 2) & (d2 <= r_out ** 2), "outside")


def synth_phantom(spec: PhantomSpec):
    """Full phantom synthesis.

    Returns ``(bmode, rf_frames, cyst_masks)``: the compounded log-domain
    B-mode image, one RF frame per steering angle, and the ground-truth
    cyst masks.  Fully deterministic given ``spec.seed``.
    """
    frames = [synth_rf(spec, a) for a in spec.angles]
    bmode = bmode_from_frames(frames, spec.grid(), spec.dynamic_range_db)
    masks = [cyst_mask(spec, c) for c in spec.cysts]
    return bmode, frames, masks


def _sep_blur(field: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Separable symmetric filtering along the last two axes."""
    r = taps.size // 2
    out = np.zeros_like(field)
    padded = np.pad(field, [(0, 0)] * (field.ndim - 2) + [(r, r), (0, 0)],
                    mode="wrap")
    for k in range(taps.size):
        out += taps[k] * padded[..., k:k + field.shape[-2], :]
    field = out
    out = np.zeros_like(field)
    padded = np.pad(field, [(0, 0)] * (field.ndim - 2) + [(0, 0), (r, r)],
                    mode="wrap")
    for k in range(taps.size):
        out += taps[k] * padded[..., :, k:k + field.shape[-1]]
    return out


def speckle_patches(count: int, size: int = 32, seed: int = 0,
                    looks: int = 10, blur_px: float = 1.0,
                    cyst_fraction: float = 0.5) -> np.ndarray:
    """Fast synthetic B-mode-like patches (no RF path).

    Each patch is the multi-look average of smoothed complex-Gaussian
    speckle envelopes, log-compressed to the unit interval; a random disc
    with reduced echogenicity is stamped into ``cyst_fraction`` of them.
    Used for training data where full RF synthesis would be overkill.
    Returns float32 of shape (count, size, size) in [0, 1].
    """
    if count < 1 or size < 4:
        raise ValueError("need count >= 1 and size >= 4")
    r = max(1, int(round(2 * blur_px)))
    x = np.arange(-r, r + 1, dtype=np.float64)
    taps = np.exp(-x * x / (2 * blur_px * blur_px))
    taps /= taps.sum()

    re = standard_normal((count, looks, size, size), seed, 0)
    im = standard_normal((count, looks, size, size), seed, 1)
    # a few patches at a time, so the float64 looks stay small
    env = np.empty((count, size, size), dtype=np.float64)
    for i in range(0, count, _PATCH_CHUNK):
        j = min(i + _PATCH_CHUNK, count)
        env[i:j] = np.hypot(_sep_blur(re[i:j].astype(np.float64), taps),
                            _sep_blur(im[i:j].astype(np.float64), taps)
                            ).mean(axis=1)

    n_cysts = int(round(count * cyst_fraction))
    if n_cysts:
        u = uniforms(4 * count, seed, 2).reshape(count, 4)
        yy, xx = np.mgrid[0:size, 0:size]
        for i in range(n_cysts):
            cy = size * (0.25 + 0.5 * u[i, 0])
            cx = size * (0.25 + 0.5 * u[i, 1])
            rad = size * (0.12 + 0.18 * u[i, 2])
            gain = 0.05 + 0.45 * u[i, 3]
            inside = (yy - cy) ** 2 + (xx - cx) ** 2 <= rad * rad
            env[i] = np.where(inside, env[i] * gain, env[i])

    out = np.empty((count, size, size), dtype=np.float32)
    for i in range(count):
        out[i] = log_compress(env[i], 50.0).data
    return out
