"""Single-channel float images with a declared nominal value range."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

RANGE_UNIT = "unit-interval"    # nominal [0, 1]
RANGE_SIGNED = "signed-unit"    # nominal [-1, 1]
RANGE_EIGHT_BIT = "eight-bit"   # nominal [0, 255]

_BOUNDS = {
    RANGE_UNIT: (0.0, 1.0),
    RANGE_SIGNED: (-1.0, 1.0),
    RANGE_EIGHT_BIT: (0.0, 255.0),
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
    """A height x width float32 image.

    ``value_range`` is a declared nominal range tag, not a clamp: transient
    intermediates (e.g. after adding noise) may exceed the nominal bounds.
    All samples must stay finite, else ``NumericError``.  ``meta`` carries
    provenance such as the sampler variant that produced the image.
    """

    data: np.ndarray
    value_range: str = RANGE_UNIT
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
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

    def like(self, data: np.ndarray, **extra_meta) -> "Image2D":
        """New image with this one's range tag and merged metadata."""
        return Image2D(data, self.value_range, {**self.meta, **extra_meta})

    def to_range(self, target: str) -> "Image2D":
        """Affinely remap the nominal range; a no-op when tags match."""
        if target == self.value_range:
            return Image2D(self.data.copy(), target, dict(self.meta))
        lo, hi = self.bounds()
        tlo, thi = range_bounds(target)
        scale = (thi - tlo) / (hi - lo)
        return Image2D((self.data - lo) * scale + tlo, target, dict(self.meta))
