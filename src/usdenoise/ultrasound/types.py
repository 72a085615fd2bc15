"""Acquisition geometry and RF containers for the plane-wave pipeline."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class TransducerGeometry:
    """Linear array description; defaults mimic a 128-element 8 MHz probe."""

    element_count: int = 128
    pitch: float = 0.245e-3          # m
    sampling_rate: float = 50e6      # Hz
    sound_speed: float = 1540.0      # m/s
    center_frequency: float = 8e6    # Hz

    def __post_init__(self):
        for name in ("element_count", "pitch", "sampling_rate",
                     "sound_speed", "center_frequency"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def wavelength(self) -> float:
        return self.sound_speed / self.center_frequency

    @property
    def aperture(self) -> float:
        return self.element_count * self.pitch

    def element_x(self) -> np.ndarray:
        """Lateral element centers, centered at x = 0."""
        e = np.arange(self.element_count, dtype=np.float64)
        return (e - (self.element_count - 1) / 2.0) * self.pitch


@dataclass
class RFFrame:
    """Per-element echo traces for one steered plane-wave transmission.

    Time zero is the instant the transmitted wavefront crosses the aperture
    corner nearest the steering direction, so all field delays stay
    non-negative (see ``beamform.tx_delay``).
    """

    samples: np.ndarray              # (elements, time samples)
    steer_angle: float               # radians
    geometry: TransducerGeometry = field(default_factory=TransducerGeometry)

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float32)
        if arr.ndim != 2:
            raise ValueError("RF samples must be (elements, samples)")
        if arr.shape[0] != self.geometry.element_count:
            raise ValueError(f"{arr.shape[0]} traces but geometry declares "
                             f"{self.geometry.element_count} elements")
        if abs(self.steer_angle) >= math.pi / 4:
            raise ValueError("steer angle must satisfy |angle| < pi/4")
        self.samples = arr


@dataclass(frozen=True)
class ImagingGrid:
    """Rectangular pixel grid with meter coordinates.

    Columns index the lateral axis ``x`` (centered around 0), rows index
    depth ``z`` (increasing away from the array).
    """

    nx: int
    nz: int
    x0: float
    z0: float
    dx: float
    dz: float

    def __post_init__(self):
        if self.nx < 1 or self.nz < 1:
            raise ValueError("grid needs at least one pixel per axis")
        if not all(map(math.isfinite, (self.x0, self.z0, self.dx, self.dz))):
            raise ValueError("grid origin and pixel pitch must be finite")
        if self.dx <= 0 or self.dz <= 0 or self.z0 <= 0:
            raise ValueError("pixel pitch and start depth must be positive")

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.nx)

    @property
    def z(self) -> np.ndarray:
        return self.z0 + self.dz * np.arange(self.nz)

    @classmethod
    def centered(cls, nx: int, nz: int, width: float, depth: float,
                 z0: float) -> "ImagingGrid":
        if nx < 1 or nz < 1:
            raise ValueError("grid needs at least one pixel per axis")
        dx = width / nx
        dz = depth / nz
        return cls(nx=nx, nz=nz, x0=-width / 2 + dx / 2, z0=z0 + dz / 2,
                   dx=dx, dz=dz)
