"""Single-channel float images with a declared nominal value range."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RANGE_UNIT = "unit-interval"    # nominal [0, 1]
RANGE_SIGNED = "signed-unit"    # nominal [-1, 1]

_BOUNDS = {
    RANGE_UNIT: (0.0, 1.0),
    RANGE_SIGNED: (-1.0, 1.0),
}


class NumericError(ValueError):
    """Samples that must be finite are not."""


def range_bounds(value_range: str) -> tuple[float, float]:
    try:
        return _BOUNDS[value_range]
    except KeyError:
        raise ValueError(f"unknown value range {value_range!r}") from None


@dataclass
class Image2D:
    """A height x width float32 image: samples plus a range tag.

    ``value_range`` is a declared nominal range tag, not a clamp: transient
    intermediates (e.g. after adding noise) may exceed the nominal bounds.
    Every sample must be finite after the cast to float32, else
    ``NumericError``.  This is the package's one finiteness check: each
    reverse step, denoiser output and written image passes through it.
    """

    data: np.ndarray
    value_range: str = RANGE_UNIT

    def __post_init__(self):
        # a float64 sample past the float32 range casts to inf, which the
        # finiteness check below reports
        with np.errstate(over="ignore"):
            arr = np.asarray(self.data, dtype=np.float32)
        if arr.ndim != 2:
            raise ValueError(f"image data must be 2-D, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NumericError("image contains non-finite samples")
        range_bounds(self.value_range)
        self.data = arr

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def bounds(self) -> tuple[float, float]:
        return range_bounds(self.value_range)

    def like(self, data: np.ndarray) -> "Image2D":
        """New image with this one's range tag."""
        return Image2D(data, self.value_range)

    def to_range(self, target: str) -> "Image2D":
        """Affinely remap the nominal range; a no-op when tags match."""
        if target == self.value_range:
            return Image2D(self.data.copy(), target)
        lo, hi = self.bounds()
        tlo, thi = range_bounds(target)
        scale = (thi - tlo) / (hi - lo)
        return Image2D((self.data - lo) * scale + tlo, target)
