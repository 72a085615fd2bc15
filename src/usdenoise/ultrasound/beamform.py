"""Plane-wave delay-and-sum beamforming and angle compounding."""

from __future__ import annotations

import numpy as np

from usdenoise import _kernels
from usdenoise.image import Image2D, NumericError
from usdenoise.ultrasound.signal import envelope_image, log_compress
from usdenoise.ultrasound.types import ImagingGrid, RFFrame, TransducerGeometry


def tx_delay(x, z, angle: float, geometry: TransducerGeometry):
    """One-way transmit delay of a steered plane wave to field point(s).

    Time zero is when the wavefront crosses the aperture corner nearest the
    steering direction, i.e. delay = (z cos(a) + x sin(a) + A/2 |sin(a)|)/c
    with A the aperture width; this keeps delays non-negative over the whole
    field of view.  The synthesizer and the beamformer share this origin.
    """
    ref = 0.5 * geometry.aperture * abs(np.sin(angle))
    return (np.asarray(z) * np.cos(angle) + np.asarray(x) * np.sin(angle)
            + ref) / geometry.sound_speed


def rx_delay(x, z, x_e, geometry: TransducerGeometry) -> np.ndarray:
    """One-way receive delay from field point(s) ``(x, z)`` back to the
    element(s) at lateral position ``x_e``: ``sqrt((x - x_e)^2 + z^2) / c``,
    as a new float64 array of the broadcast shape.

    All of it runs in place on that one array.  The square root of the
    squared sum is within an ulp or so of ``np.hypot``, which NumPy 2.4
    evaluates one element at a time at about five times the cost; squared
    lengths in metres are far from float64 overflow and underflow, where
    ``hypot`` would differ.
    """
    out = np.empty(np.broadcast_shapes(np.shape(x), np.shape(x_e),
                                       np.shape(z)))
    np.subtract(x, x_e, out=out)
    out *= out
    out += np.square(z)
    np.sqrt(out, out=out)
    out /= geometry.sound_speed
    return out


def receive_window(geometry: TransducerGeometry) -> np.ndarray:
    """Hann receive apodization over the elements.

    ``np.hanning(2)`` is ``[0, 0]``: a 2-element array would beamform an
    all-zero image, so it is rejected here, before any work is done.
    """
    if geometry.element_count == 2:
        raise ValueError("a 2-element array has an all-zero Hann receive "
                         "window; use 1 or at least 3 elements")
    return np.hanning(geometry.element_count)


def _pixels(grid: ImagingGrid) -> tuple[np.ndarray, np.ndarray]:
    """Lateral and depth positions of every pixel, ``(nz*nx,)`` each, in
    raster order."""
    X, Z = np.meshgrid(grid.x, grid.z)
    return X.reshape(-1), Z.reshape(-1)


def _receive_delays(geometry: TransducerGeometry,
                   grid: ImagingGrid) -> np.ndarray:
    """``rx_delay`` from every pixel of ``grid`` to every element: the
    ``(elements, nz*nx)`` array ``das_beamform`` adds its transmit delay to.
    """
    X, Z = _pixels(grid)
    return rx_delay(X, Z, geometry.element_x()[:, None], geometry)


def das_beamform(rf: RFFrame, grid: ImagingGrid, *,
                 rx: np.ndarray | None = None) -> np.ndarray:
    """Delay-and-sum image reconstruction: the float64 ``(nz, nx)`` RF sum
    before envelope detection.

    For every pixel the per-element delay is the plane-wave transmit time
    plus the return path to the element; element traces are sampled with
    linear interpolation and summed.  Delays outside the recorded window
    contribute zero.  A Hann receive window over the elements tames
    aperture sidelobes; low f-numbers otherwise put a noticeable clutter
    floor inside anechoic targets.  A non-finite RF sample that reaches
    the image raises ``NumericError`` here, before the envelope FFT.

    ``rx`` is ``_receive_delays(rf.geometry, grid)``, which does not depend
    on the steering angle; ``bmode_from_frames`` computes it once per
    geometry and passes it, and it is computed here when omitted.
    """
    g = rf.geometry
    weights = receive_window(g)
    if rx is None:
        rx = _receive_delays(g, grid)
    X, Z = _pixels(grid)
    # (elements, pixels) fractional sample indices
    idx = rx + tx_delay(X, Z, rf.steer_angle, g)
    idx *= g.sampling_rate
    summed = _kernels.das_sum(rf.samples * weights[:, None], idx)
    if not np.isfinite(summed).all():
        raise NumericError("beamformed image contains non-finite samples")
    return summed.reshape(grid.nz, grid.nx)


def compound(images: list) -> np.ndarray:
    """Pixel-wise mean of per-angle envelope arrays (incoherent); ``np.stack``
    rejects an empty list and arrays of different shapes."""
    return np.mean(np.stack(images), axis=0)


def bmode_from_frames(frames: list[RFFrame], grid: ImagingGrid,
                      dynamic_range_db: float) -> Image2D:
    """Beamform each steered frame, compound envelopes, log-compress.

    The receive delays are computed once per distinct geometry among the
    frames and shared by its steering angles.
    """
    delays = {}
    envelopes = []
    for f in frames:
        if f.geometry not in delays:
            delays[f.geometry] = _receive_delays(f.geometry, grid)
        envelopes.append(envelope_image(das_beamform(
            f, grid, rx=delays[f.geometry])))
    return log_compress(compound(envelopes), dynamic_range_db)
