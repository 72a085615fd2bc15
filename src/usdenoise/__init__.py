"""Speckle-preserving ultrasound denoising toolkit.

Library layout:

- ``diffusion``   -- noise schedule, forward corruption, reverse sampler
- ``nnet``        -- small U-Net noise predictor with manual backprop + Adam
- ``baselines``   -- NLM and BM3D reference denoisers
- ``metrics``     -- MSE / PSNR / GCNR
- ``ultrasound``  -- FFT, envelope detection, DAS beamforming, phantoms
- ``formats``     -- bit-exact file formats of the CLI (PGM, checkpoints, RF)
- ``bench``       -- benchmark harness and report files of ``usdenoise bench``
- ``_kernels``    -- NumPy hot loops (NLM, block matching, pulse synthesis, DAS)
"""

from usdenoise.image import Image2D, RANGE_UNIT

__version__ = "0.1.0"

# The kernels are NumPy only; the benchmark's provenance line reads this.
COMPILED_KERNELS = False

__all__ = [
    "COMPILED_KERNELS",
    "Image2D",
    "RANGE_UNIT",
    "__version__",
]
