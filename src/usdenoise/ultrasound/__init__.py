"""Plane-wave ultrasound pipeline: FFT/envelope/log-compression, DAS
beamforming with angle compounding, and synthetic speckle phantoms.

The B-mode stages pass plain NumPy arrays: ``das_beamform`` returns the
float64 RF sum, ``envelope_image`` and ``compound`` float64 envelopes, and
``cyst_mask``/``annulus_mask`` boolean masks.  ``log_compress`` returns the
``Image2D`` B-mode."""

from usdenoise.ultrasound.beamform import (
    bmode_from_frames,
    compound,
    das_beamform,
    rx_delay,
    tx_delay,
)
from usdenoise.ultrasound.phantom import (
    Cyst,
    PhantomSpec,
    annulus_mask,
    cyst_mask,
    speckle_patches,
    synth_phantom,
    synth_rf,
)
from usdenoise.ultrasound.signal import (
    envelope_image,
    fft,
    log_compress,
)
from usdenoise.ultrasound.types import ImagingGrid, RFFrame, TransducerGeometry

__all__ = [
    "Cyst",
    "ImagingGrid",
    "PhantomSpec",
    "RFFrame",
    "TransducerGeometry",
    "annulus_mask",
    "bmode_from_frames",
    "compound",
    "cyst_mask",
    "das_beamform",
    "envelope_image",
    "fft",
    "log_compress",
    "rx_delay",
    "speckle_patches",
    "synth_phantom",
    "synth_rf",
    "tx_delay",
]
