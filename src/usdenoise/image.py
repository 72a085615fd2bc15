"""Unit-interval images, and the signed arrays the diffusion sampler uses.

Files, B-modes, baselines and metrics use ``Image2D``, whose samples lie
nominally in [0, 1].  The sampler works, as in Ho et al. (2020, §3.3), on
plain float32 (H, W) arrays scaled linearly to [-1, 1]; ``to_signed`` and
``to_unit_clipped`` are the two maps between the domains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RANGE_UNIT = "unit-interval"    # nominal [0, 1], the one value range


class NumericError(ValueError):
    """Samples that must be finite are not."""


def finite32(a) -> np.ndarray:
    """``a`` cast to float32; ``NumericError`` if any sample is then not
    finite.  This is the package's one finiteness check on images: every
    ``Image2D`` and every forward and reverse diffusion step passes through
    it."""
    # a float64 sample past the float32 range casts to inf, which the
    # finiteness check below reports
    with np.errstate(over="ignore"):
        arr = np.asarray(a, dtype=np.float32)
    if not np.all(np.isfinite(arr)):
        raise NumericError("image contains non-finite samples")
    return arr


@dataclass
class Image2D:
    """A height x width float32 image in the unit interval.

    [0, 1] is the nominal range, not a clamp: a rescaled noisy image may
    exceed it, and ``write_pgm`` clips when it quantizes.  Every sample
    must be finite after the cast to float32, else ``NumericError``.
    ``value_range`` must be ``RANGE_UNIT``; any other tag raises
    ``ValueError``.
    """

    data: np.ndarray
    value_range: str = RANGE_UNIT

    def __post_init__(self):
        if np.ndim(self.data) != 2:
            raise ValueError(f"image data must be 2-D, got shape "
                             f"{np.shape(self.data)}")
        self.data = finite32(self.data)
        if self.value_range != RANGE_UNIT:
            raise ValueError(f"unknown value range {self.value_range!r}")

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape


def to_signed(img: Image2D) -> np.ndarray:
    """The image's samples mapped from [0, 1] to [-1, 1], as float32."""
    return img.data * 2.0 - 1.0


def to_unit_clipped(signed: np.ndarray) -> Image2D:
    """Map signed samples to a unit-interval image, clipped to [0, 1]."""
    return Image2D(np.clip((signed + 1.0) / 2.0, 0.0, 1.0))
