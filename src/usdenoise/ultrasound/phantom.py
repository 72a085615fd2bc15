"""Synthetic speckle phantoms: scatterer fields, per-element RF synthesis,
and a fast patch generator for training data.

The simulator is deliberately minimal: far-field point scatterers echo a
Gaussian-modulated cosine, with no attenuation or element directivity.
That is enough to produce fully developed (Rayleigh) speckle and anechoic
cysts with known ground-truth masks.

Scatterer ``s`` echoes ``Re{A exp(i 2 pi f0 t)} G(t - tau)`` on element
``e`` for steering angle ``a``: ``G`` is the Gaussian pulse envelope,
``tau = tx_a + rx_e`` the transmit plus receive delay, and
``A = (re + i im) exp(-i 2 pi f0 tau)`` the echo's complex amplitude at
``t = 0``.  ``synth_rf`` splits ``exp(-i 2 pi f0 tau)`` into a receive
phasor per scatterer and element, shared by every angle, and a transmit
phasor per scatterer and angle.  NumPy 2.4 evaluates float64 ``cos``,
``sin`` and ``hypot`` one element at a time, 14-30 ns each against about
1.7 ns for ``exp`` (x86-64 Xeon VM), so none of them runs per scatterer:
each phasor is ``_kernels.cycle_phasor``, a gather from a table of 1024
turns rotated by a degree-5 polynomial, and the receive delay is
``beamform.rx_delay``, a square root of the squared sum.
``_kernels.deposit_pulses`` then deposits each (element, angle) trace with
``exp`` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from usdenoise import _kernels
from usdenoise.rng import _normals, standard_normal, stream, uniforms
from usdenoise.ultrasound.beamform import (
    bmode_from_frames,
    receive_window,
    rx_delay,
    tx_delay,
)
from usdenoise.ultrasound.signal import log_compress
from usdenoise.ultrasound.types import ImagingGrid, RFFrame, TransducerGeometry

# Gaussian pulse std in seconds, as a fraction of the carrier period
PULSE_SIGMA_PERIODS = 0.5
# speckle_patches draws, blurs and averages this many patches per pass; at
# 32x32 their looks and float64 blur buffers (under 2 MiB) fit a core's L2
_PATCH_CHUNK = 4
# speckle_patches: looks averaged per patch, Gaussian blur std (pixels),
# and the share of patches that get a cyst
PATCH_LOOKS = 10
PATCH_BLUR_PX = 1.0
PATCH_CYST_FRACTION = 0.5


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
    """Scatterer phantom over a rectangular grid; the defaults are the
    phantom of ``usdenoise phantom`` and ``bench``.

    ``scatterer_density`` counts scatterers per wavelength-squared cell; 8
    is the bench's value, which ROADMAP item 3 (fully developed speckle)
    revisits.  ``angles`` are the plane-wave steering angles compounded into
    the B-mode.  The center frequency must lie below Nyquist (fs / 2).
    """

    nx: int = 64
    nz: int = 64
    width_m: float = 6.4e-3
    depth_m: float = 6.4e-3
    z0_m: float = 6.8e-3
    scatterer_density: float = 8.0
    cysts: tuple = ()
    seed: int = 0
    DEFAULT_ANGLES_DEG = (-5.0, 0.0, 5.0)   # not a field; ``angles`` in deg
    angles: tuple = tuple(map(math.radians, DEFAULT_ANGLES_DEG))
    geometry: TransducerGeometry = field(default_factory=TransducerGeometry)
    dynamic_range_db: float = 60.0

    def __post_init__(self):
        for name in ("width_m", "depth_m", "z0_m", "scatterer_density"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not 0 < self.dynamic_range_db < math.inf:   # False for nan too
            raise ValueError("dynamic range must be positive and finite")
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
        g = self.geometry
        if g.center_frequency >= g.sampling_rate / 2:
            raise ValueError(f"center frequency {g.center_frequency} Hz is "
                             f"not below Nyquist ({g.sampling_rate / 2} Hz)")
        receive_window(g)   # rejects a geometry DAS cannot weight
        # sizes whose products overflow an array length, before any work
        limit = np.iinfo(np.intp).max
        with np.errstate(over="ignore"):
            count = _scatterer_count(self)
            samples = max((_trace_length(self, a) for a in self.angles),
                          default=0.0)
        if not count <= limit:   # False for inf too
            raise ValueError(f"{count:.3g} scatterers from scatterer_density"
                             " * width_m * depth_m are too many")
        if not samples <= limit:
            raise ValueError(f"RF traces of {samples:.3g} samples from "
                             "width_m, depth_m and z0_m are too long")

    def grid(self) -> ImagingGrid:
        return ImagingGrid.centered(self.nx, self.nz, self.width_m,
                                    self.depth_m, self.z0_m)


def _scatterer_count(spec: PhantomSpec) -> float:
    """Expected scatterers over the grid (inf when the product overflows)."""
    lam = spec.geometry.wavelength
    return spec.scatterer_density * spec.width_m * spec.depth_m / (lam * lam)


def _pulse_half_width(g: TransducerGeometry) -> int:
    """Samples from a pulse's center to its truncation at 4 sigma."""
    sigma_t = PULSE_SIGMA_PERIODS / g.center_frequency
    return int(math.ceil(4.0 * sigma_t * g.sampling_rate))


def _trace_length(spec: PhantomSpec, angle: float) -> float:
    """Samples per RF trace of the frame steered at ``angle`` (inf when the
    sizes overflow): enough to hold the whole pulse of a scatterer at any
    grid corner on any element.  The worst-case arrival bounds it;
    ``tx_delay`` peaks at the deepest grid corner on the steered side."""
    g = spec.geometry
    zmax = spec.z0_m + spec.depth_m
    rx_max = math.hypot(spec.width_m / 2 + g.aperture / 2, zmax)
    tx_max = float(tx_delay(math.copysign(spec.width_m / 2, angle), zmax,
                            angle, g))
    arrival = (tx_max + rx_max / g.sound_speed) * g.sampling_rate
    return float(np.ceil(arrival)) + _pulse_half_width(g) + 4


def _scatterers(spec: PhantomSpec):
    """Deterministic scatterer cloud: positions and the real and imaginary
    parts of each complex echo amplitude."""
    n = max(1, round(_scatterer_count(spec)))
    xs = (uniforms(n, spec.seed, draw_index=0) - 0.5) * spec.width_m
    zs = spec.z0_m + uniforms(n, spec.seed, draw_index=1) * spec.depth_m
    re = standard_normal((n,), spec.seed, draw_index=2).astype(np.float64)
    im = standard_normal((n,), spec.seed, draw_index=3).astype(np.float64)
    for c in spec.cysts:
        inside = (xs - c.cx) ** 2 + (zs - c.cz) ** 2 <= c.radius ** 2
        re = np.where(inside, re * c.echogenicity, re)
        im = np.where(inside, im * c.echogenicity, im)
    return xs, zs, re, im


def synth_rf(spec: PhantomSpec) -> list[RFFrame]:
    """Per-element RF traces, one frame per steering angle in ``spec.angles``.

    The scatterers are drawn once; ``exp(-i 2 pi f0 tau)`` is split into the
    transmit phasor of each angle and the receive phasor of each element,
    each computed once by the table-driven ``_kernels.cycle_phasor``, with
    no ``cos`` or ``sin`` per scatterer (see the module docstring).  Each
    trace is ``_trace_length`` samples long.
    """
    g = spec.geometry
    f0, fs = g.center_frequency, g.sampling_rate
    xs, zs, re, im = _scatterers(spec)
    # anechoic scatterers add exact zeros to the traces: drop them
    echo = (re != 0.0) | (im != 0.0)
    xs, zs, amp = xs[echo], zs[echo], re[echo] + 1j * im[echo]
    sigma_t = PULSE_SIGMA_PERIODS / f0
    half_width = _pulse_half_width(g)
    tx, tx_amp, traces = [], [], []
    for angle in spec.angles:
        tx.append(tx_delay(xs, zs, angle, g))
        tx_amp.append(amp * _kernels.cycle_phasor(-f0 * tx[-1]))
        traces.append(np.empty((g.element_count,
                                int(_trace_length(spec, angle))), np.float32))
    for e, x_e in enumerate(g.element_x()):
        rx = rx_delay(xs, zs, x_e, g)
        rx_phasor = _kernels.cycle_phasor(-f0 * rx)
        for tx_a, a_amp, out in zip(tx, tx_amp, traces):
            echo_amp = a_amp * rx_phasor
            out[e] = _kernels.deposit_pulses(
                tx_a + rx, echo_amp.real, echo_amp.imag, fs, f0, sigma_t,
                out.shape[1], half_width)
    return [RFFrame(samples=out, steer_angle=angle, geometry=g)
            for angle, out in zip(spec.angles, traces)]


def cyst_mask(spec: PhantomSpec, cyst: Cyst, erode: int = 0) -> np.ndarray:
    """Ground-truth boolean pixel mask of a cyst disc, optionally eroded
    (pixels)."""
    grid = spec.grid()
    X, Z = np.meshgrid(grid.x, grid.z)
    shrink = erode * max(grid.dx, grid.dz)
    r = max(cyst.radius - shrink, 0.0)
    return (X - cyst.cx) ** 2 + (Z - cyst.cz) ** 2 <= r * r


def annulus_mask(spec: PhantomSpec, cyst: Cyst, gap: int) -> np.ndarray:
    """Boolean mask of the equal-area concentric annulus around a cyst, kept
    ``gap`` pixels clear of the cyst boundary."""
    grid = spec.grid()
    X, Z = np.meshgrid(grid.x, grid.z)
    pad = gap * max(grid.dx, grid.dz)
    r_in = cyst.radius + pad
    r_out = math.sqrt(r_in ** 2 + cyst.radius ** 2)  # same area as the disc
    d2 = (X - cyst.cx) ** 2 + (Z - cyst.cz) ** 2
    return (d2 > r_in ** 2) & (d2 <= r_out ** 2)


def synth_phantom(spec: PhantomSpec):
    """Full phantom synthesis.

    Returns ``(bmode, rf_frames, cyst_masks)``: the compounded log-domain
    B-mode image, one RF frame per steering angle, and the ground-truth
    boolean cyst masks.  Fully deterministic given ``spec.seed``.
    """
    frames = synth_rf(spec)
    bmode = bmode_from_frames(frames, spec.grid(), spec.dynamic_range_db)
    masks = [cyst_mask(spec, c) for c in spec.cysts]
    return bmode, frames, masks


def _sep_blur(field: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Separable symmetric filtering along the last two axes, with
    wrap-around edges (of at most the axis length), in float64.

    Each axis copies the field once into a buffer padded along that axis,
    where the element k taps further on is a fixed flat distance away; the
    taps then sum in order over whole contiguous runs of that buffer, and
    the pad positions' sums are never read.
    """
    r = taps.size // 2
    out = field
    for axis in (-2, -1):
        n = field.shape[axis]
        shape = list(field.shape)
        shape[axis] += 2 * r
        padded = np.empty(shape)
        body = np.moveaxis(padded, axis, 0)
        body[r:r + n] = np.moveaxis(out, axis, 0)
        body[:r] = body[n:n + r]
        body[r + n:] = body[r:2 * r]
        step = padded.strides[axis] // padded.itemsize
        src = padded.reshape(-1)
        m = src.size - 2 * r * step
        acc = np.empty_like(padded)
        run = acc.reshape(-1)[r * step:r * step + m]
        term = np.empty(m)
        np.multiply(src[:m], taps[0], out=run)
        for k in range(1, taps.size):
            np.multiply(src[k * step:k * step + m], taps[k], out=term)
            run += term
        out = np.moveaxis(np.moveaxis(acc, axis, 0)[r:r + n], 0, axis)
    return out


def speckle_patches(count: int, size: int = 32, seed: int = 0) -> np.ndarray:
    """Fast synthetic B-mode-like patches (no RF path).

    Each patch is the multi-look average of smoothed complex-Gaussian
    speckle envelopes, log-compressed to the unit interval; a random disc
    with reduced echogenicity is stamped into ``PATCH_CYST_FRACTION`` of them.
    Used for training data where full RF synthesis would be overkill.
    Returns float32 of shape (count, size, size) in [0, 1].  Beyond the
    output and its float64 envelopes, working memory is bounded by one
    chunk of ``_PATCH_CHUNK`` patches' looks.
    """
    if count < 1 or size < 4:
        raise ValueError("need count >= 1 and size >= 4")
    r = max(1, int(round(2 * PATCH_BLUR_PX)))
    x = np.arange(-r, r + 1, dtype=np.float64)
    taps = np.exp(-x * x / (2 * PATCH_BLUR_PX * PATCH_BLUR_PX))
    taps /= taps.sum()

    # the looks of a chunk of patches at a time, drawn from each field's
    # stream by flat offset, so no field is ever held for every patch
    pixels = PATCH_LOOKS * size * size
    looks = np.empty((2, min(count, _PATCH_CHUNK) * pixels), dtype=np.float32)
    env = np.empty((count, size, size), dtype=np.float64)
    for i in range(0, count, _PATCH_CHUNK):
        j = min(i + _PATCH_CHUNK, count)
        chunk = looks[:, :(j - i) * pixels]
        for k, part in enumerate(chunk):
            _normals(part, seed, stream("speckle.look", k), i * pixels)
        shape = (j - i, PATCH_LOOKS, size, size)
        re, im = (_sep_blur(part.reshape(shape), taps) for part in chunk)
        np.hypot(re, im, out=re)
        np.mean(re, axis=1, out=env[i:j])

    n_cysts = int(round(count * PATCH_CYST_FRACTION))
    if n_cysts:
        u = uniforms(4 * count, seed, stream("speckle.cyst")).reshape(count, 4)
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
