"""Non-local means denoising."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from usdenoise import _kernels
from usdenoise.image import Image2D


@dataclass(frozen=True)
class NlmConfig:
    """Patch radius, search radius, and filtering strength.

    ``sigma`` is the assumed noise standard deviation used for the
    noise-compensated patch distance max(d2 - 2 sigma^2, 0); leave it 0 for
    the plain exponential weighting.  ``baseline`` and ``bench`` use
    h = ``H_FACTOR`` * sigma.
    """

    patch_radius: int = 2
    search_radius: int = 7
    H_FACTOR = 0.55   # not a field
    h: float = 0.1
    sigma: float = 0.0

    def __post_init__(self):
        if self.patch_radius < 1 or self.search_radius < 1:
            raise ValueError("radii must be >= 1")
        if not (self.h > 0 and self.h * self.h > 0):
            raise ValueError("filtering strength h must be positive, "
                             "with h^2 above float64 underflow")
        if not self.sigma >= 0:
            raise ValueError("sigma must be non-negative")


def nlm_denoise(img: Image2D, cfg: NlmConfig) -> Image2D:
    """Replace each pixel with the patch-similarity-weighted average of its
    search window (borders handled by symmetric padding)."""
    margin = cfg.patch_radius + cfg.search_radius
    need = 2 * margin + 1
    if img.height <= need or img.width <= need:
        raise ValueError(f"image must exceed {need} pixels per side for "
                         f"patch_radius={cfg.patch_radius}, "
                         f"search_radius={cfg.search_radius}")
    out = _kernels.nlm_filter(img.data, cfg.patch_radius, cfg.search_radius,
                              cfg.h, cfg.sigma)
    return Image2D(out.astype(np.float32))
