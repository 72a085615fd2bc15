import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from tests.conftest import TEST_GEOMETRY
from usdenoise import _kernels
from usdenoise.rng import standard_normal, stream
from usdenoise.ultrasound import (
    Cyst,
    ImagingGrid,
    PhantomSpec,
    RFFrame,
    TransducerGeometry,
    bmode_from_frames,
    compound,
    das_beamform,
    envelope_image,
    fft,
    log_compress,
    phantom,
    rx_delay,
    speckle_patches,
    synth_phantom,
    synth_rf,
    tx_delay,
)
from usdenoise.ultrasound import beamform
from usdenoise.ultrasound.phantom import cyst_mask


def direct_dft(x):
    n = len(x)
    k = np.arange(n)
    return np.asarray(x) @ np.exp(-2j * np.pi * np.outer(k, k) / n)


# -------------------------------------------------------------------- FFT

def test_fft_delta_impulse():
    x = np.zeros(16)
    x[0] = 1.0
    assert np.allclose(fft(x), np.ones(16), atol=1e-12)


def test_fft_pure_tone_single_bin():
    n, k = 64, 5
    x = np.exp(2j * np.pi * k * np.arange(n) / n)
    spec = fft(x)
    assert abs(spec[k] - n) < 1e-9
    spec[k] = 0.0
    assert np.abs(spec).max() < 1e-9


def test_fft_matches_direct_dft_1024():
    rng = np.random.default_rng(0)
    x = rng.normal(size=1024) + 1j * rng.normal(size=1024)
    oracle = direct_dft(x)
    assert np.abs(fft(x) - oracle).max() / np.abs(oracle).max() < 1e-5


@pytest.mark.parametrize("n", [1, 2, 8, 256, 4096])
def test_fft_round_trip_and_parseval(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    spec = fft(x)
    assert np.abs(np.fft.ifft(spec) - x).max() <= 1e-5
    energy_t = np.sum(np.abs(x) ** 2)
    energy_f = np.sum(np.abs(spec) ** 2) / n
    assert abs(energy_t - energy_f) <= 1e-5 * energy_t


def test_fft_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        fft(np.zeros(48))


# --------------------------------------------------------------- envelope

def test_envelope_pure_cosine():
    n = 1024
    t = np.arange(n)
    amp = 0.8
    env = envelope_image(amp * np.cos(2 * np.pi * 0.1 * t)[:, None])[:, 0]
    interior = env[64:-64]
    assert np.abs(interior - amp).max() < 0.02 * amp


def test_envelope_all_zero():
    assert np.array_equal(envelope_image(np.zeros((256, 1))),
                          np.zeros((256, 1)))


def test_envelope_gaussian_modulated_tone():
    n = 1024
    fs = 50e6
    t = (np.arange(n) - n / 2) / fs
    sigma = 0.4e-6
    truth = np.exp(-t * t / (2 * sigma * sigma))
    line = truth * np.cos(2 * np.pi * 8e6 * t)
    env = envelope_image(line[:, None])[:, 0]
    interior = slice(128, -128)
    rms = np.sqrt(np.mean((env[interior] - truth[interior]) ** 2))
    assert rms < 0.03 * truth.max()


def test_envelope_pads_odd_lengths():
    env = envelope_image(np.cos(2 * np.pi * 0.1 * np.arange(300))[:, None])
    assert env.shape == (300, 1)


@pytest.mark.parametrize("shape", [(8,), (4, 4, 2)], ids=["1-D", "3-D"])
def test_envelope_rejects_an_rf_image_that_is_not_2d(shape):
    # one RF line broadcast against the (m, 1) Hilbert multiplier into an
    # (8, 8) "envelope", and a 3-D stack passed through unchanged
    rf = np.cos(np.arange(math.prod(shape), dtype=np.float64)).reshape(shape)
    with pytest.raises(ValueError, match=r"2-D, got shape \(") as err:
        envelope_image(rf)
    assert str(shape) in str(err.value)


# ----------------------------------------------------------- log_compress

def test_log_compress_peak_maps_to_one():
    out = log_compress(np.full((8, 8), 3.7), 60.0)
    assert np.allclose(out.data, 1.0)
    assert out.value_range == "unit-interval"


def test_log_compress_clamp_boundary():
    dr = 40.0
    env = np.array([[1.0, 10 ** (-dr / 20.0)]])
    out = log_compress(env, dr)
    assert out.data[0, 0] == pytest.approx(1.0, abs=1e-6)
    assert out.data[0, 1] == pytest.approx(0.0, abs=1e-6)


def test_log_compress_two_value_fixture():
    out = log_compress(np.array([[1.0, 0.1]]), 40.0)
    # 20*log10(0.1) = -20 dB -> (-20 + 40)/40 = 0.5
    assert np.allclose(out.data, [[1.0, 0.5]], atol=1e-6)


def test_log_compress_rejects_bad_input():
    with pytest.raises(ValueError):
        log_compress(np.zeros((4, 4)), 60.0)
    with pytest.raises(ValueError):
        log_compress(np.array([[-1.0, 1.0]]), 60.0)
    with pytest.raises(ValueError):
        log_compress(np.ones((4, 4)), 0.0)


# ------------------------------------------------------------ RF synthesis

def _deposit_per_sample(tau, amp, phase, fs, f0, sigma_t, n_samples, hw):
    """The compiled kernel's algorithm: one exp and one cos per sample."""
    trace = np.zeros(n_samples)
    for s in range(tau.size):
        c = math.floor(tau[s] * fs)
        for kk in range(max(c - hw, 0), min(c + hw, n_samples - 1) + 1):
            dt = kk / fs - tau[s]
            trace[kk] += (amp[s] * math.exp(-dt * dt / (2.0 * sigma_t ** 2))
                          * math.cos(2.0 * math.pi * f0 * dt + phase[s]))
    return trace


def _deposit_cases():
    fs, n = 50e6, 96
    rng = np.random.default_rng(11)
    shared = (40 + rng.uniform(0.0, 1.0, 5)) / fs      # one centre sample
    return {
        "random": rng.uniform(0.0, n / fs, 60),
        "clipped_both_ends": np.array([0.0, 3.2, 11.9, n - 12.5, n - 1.0,
                                       n - 0.3]) / fs,
        "negative": np.array([-0.4, -5.5, -12.9, -13.5, -40.0]) / fs,
        "past_trace": np.array([n + 0.2, n + 7.5, n + 12.99, n + 13.5,
                                n + 80.0]) / fs,
        "shared_centre": shared,
        "empty": np.zeros(0),
    }


def _reference_amplitude(tau, amp, phase, f0):
    """Complex amplitude at t = 0 of ``amp * cos(2 pi f0 (t - tau) + phase)``."""
    a = amp * np.exp(1j * (phase - 2.0 * np.pi * f0 * tau))
    return a.real, a.imag


@pytest.mark.parametrize(
    "sigma_t, case",
    [(62.5e-9, case) for case in sorted(_deposit_cases())] + [(1e-9, "empty")])
def test_deposit_pulses_matches_per_sample_loop(sigma_t, case):
    # 62.5 ns is the simulator's pulse (half_width 13 at 50 MHz); 1 ns is a
    # twentieth of a sample, too narrow for the Gaussian recurrence, so only
    # a trace with no echoes, which never runs it, takes that pulse
    tau = _deposit_cases()[case]
    rng = np.random.default_rng(12)
    amp = rng.normal(size=tau.size)
    phase = rng.uniform(-np.pi, np.pi, tau.size)
    args = (50e6, 8e6, sigma_t, 96, 13)
    got = _kernels.deposit_pulses(tau, *_reference_amplitude(tau, amp, phase,
                                                             8e6), *args)
    want = _deposit_per_sample(tau, amp, phase, *args)
    assert got.shape == (96,) and got.dtype == np.float64
    assert np.abs(got - want).max(initial=0.0) < 1e-12


@pytest.mark.parametrize("f0", [0.49 * 50e6, 50e6 / 40])
@pytest.mark.parametrize("case", ["random", "clipped_both_ends",
                                  "shared_centre"])
def test_deposit_pulses_matches_per_sample_loop_at_extreme_carriers(f0, case):
    # the tap recurrence rotates by theta = 2 pi f0/fs per tap, and its
    # rounding errors grow as 1/sin(theta): theta is near pi at 0.49 fs and
    # near 0 at fs/40
    tau = _deposit_cases()[case]
    rng = np.random.default_rng(14)
    amp = rng.normal(size=tau.size)
    phase = rng.uniform(-np.pi, np.pi, tau.size)
    args = (50e6, f0, 62.5e-9, 96, 13)
    got = _kernels.deposit_pulses(tau, *_reference_amplitude(tau, amp, phase,
                                                             f0), *args)
    want = _deposit_per_sample(tau, amp, phase, *args)
    assert np.abs(got - want).max() < 1e-12


def test_deposit_pulses_rejects_a_pulse_too_narrow_for_the_recurrence():
    tau = _deposit_cases()["random"]
    with pytest.raises(ValueError, match="too narrow"):
        _kernels.deposit_pulses(tau, np.ones(tau.size), np.zeros(tau.size),
                                50e6, 8e6, 1e-9, 96, 13)
    # three taps keep every v_j in range (b (2 hw + 1) = 600), but the
    # recurrence's q^2 = exp(-4 b x) overflows for x near -1
    with pytest.raises(ValueError, match="too narrow"):
        _kernels.deposit_pulses(tau, np.ones(tau.size), np.zeros(tau.size),
                                50e6, 8e6, 1e-9, 96, 1)


def test_phantom_rejects_a_carrier_at_or_above_nyquist(monkeypatch):
    # a 30 MHz carrier at 50 MHz sampling was synthesized and aliased
    def no_synthesis(*args, **kwargs):
        pytest.fail("synth_rf called with a carrier above Nyquist")

    monkeypatch.setattr(phantom, "synth_rf", no_synthesis)
    for f0 in (30e6, 25e6):
        with pytest.raises(ValueError, match="Nyquist"):
            phantom.synth_phantom(PhantomSpec(geometry=TransducerGeometry(
                element_count=8, center_frequency=f0)))


def test_deposit_pulses_at_phantom_scale_delays():
    # tau*fs near 1000 samples, as in the phantoms: 2 pi f0 tau is about
    # 1000 rad there, where one float64 ulp is 2^-43 rad (1.1e-13).  The
    # kernel and the reference each round phases of that size a few times
    # (tau*fs, f0*tau, the sample time k/fs), so an echo's phase is off by
    # at most 8 ulps and its samples by |amp| * 8 * 2^-43 each; the bound
    # adds that over every echo to the 1e-12 of the short-delay cases.
    fs, f0, n, hw = 50e6, 8e6, 1100, 13
    rng = np.random.default_rng(13)
    tau = rng.uniform(985.0, 1015.0, 40) / fs
    amp = rng.normal(size=tau.size)
    phase = rng.uniform(-np.pi, np.pi, tau.size)
    assert 2.0 * np.pi * f0 * tau.max() < 1024.0     # ulp 2^-43 below 1024
    args = (fs, f0, 62.5e-9, n, hw)
    got = _kernels.deposit_pulses(tau, *_reference_amplitude(tau, amp, phase,
                                                             f0), *args)
    want = _deposit_per_sample(tau, amp, phase, *args)
    bound = 1e-12 + np.abs(amp).sum() * 8 * 2.0 ** -43
    assert np.abs(got - want).max() < bound


# ---------------------------------------------------------------- DAS

def _single_scatterer_frame(spec, x, z, angle):
    g = spec.geometry
    sigma_t = 0.5 / g.center_frequency
    hw = int(math.ceil(4 * sigma_t * g.sampling_rate))
    tx = tx_delay(x, z, angle, g)
    zmax = spec.z0_m + spec.depth_m
    rx_max = math.hypot(spec.width_m / 2 + g.aperture / 2, zmax)
    tau_max = (zmax + 0.5 * g.aperture * abs(math.sin(angle)) + rx_max) / g.sound_speed
    n = int(math.ceil(tau_max * g.sampling_rate)) + hw + 4
    traces = np.empty((g.element_count, n))
    for e in range(g.element_count):
        tau = np.array([tx + math.hypot(x - g.element_x()[e], z)
                        / g.sound_speed])
        re, im = _reference_amplitude(tau, 1.0, 0.0, g.center_frequency)
        traces[e] = _kernels.deposit_pulses(
            tau, re, im, g.sampling_rate, g.center_frequency, sigma_t, n, hw)
    return RFFrame(traces.astype(np.float32), angle, g)


def test_rx_delay_matches_hypot():
    # the square root of the squared sum is within an ulp of np.hypot; each
    # then rounds its division by c, which can add one more
    g = TEST_GEOMETRY
    rng = np.random.default_rng(15)
    x = rng.uniform(-3.2e-3, 3.2e-3, 20000)
    z = rng.uniform(6.8e-3, 13.2e-3, 20000)
    x_e = g.element_x()[::7, None]
    unit = dataclasses.replace(g, sound_speed=1.0)
    hyp = np.hypot(x - x_e, z)
    assert rx_delay(x, z, x_e, unit).shape == hyp.shape
    assert np.all(np.abs(rx_delay(x, z, x_e, unit) - hyp) <= np.spacing(hyp))
    want = hyp / g.sound_speed
    assert np.all(np.abs(rx_delay(x, z, x_e, g) - want)
                  <= 2 * np.spacing(want))


def test_das_beamform_keeps_the_bits_of_its_delay_formula():
    # das_beamform adds the transmit delay to rx_delay's delays; the sum
    # tx + rx, then times fs, is the same float as here, so the image is
    # the same to the bit
    spec = PhantomSpec(nx=24, nz=20, geometry=TEST_GEOMETRY,
                       scatterer_density=2.0, seed=8, angles=(-0.1, 0.15))
    grid = spec.grid()
    for frame in synth_rf(spec):
        g = frame.geometry
        X, Z = np.meshgrid(grid.x, grid.z)
        tx = tx_delay(X, Z, frame.steer_angle, g).reshape(-1)
        dx = X.reshape(-1)[None, :] - g.element_x()[:, None]
        rx = np.sqrt(dx * dx + (Z.reshape(-1)[None, :]) ** 2) / g.sound_speed
        idx = (tx[None, :] + rx) * g.sampling_rate
        rf = frame.samples.astype(np.float64) * np.hanning(g.element_count)[:, None]
        want = _kernels.das_sum(rf, idx).reshape(grid.nz, grid.nx)
        assert np.array_equal(das_beamform(frame, grid), want)


def _spy_rx_delay(monkeypatch):
    calls = []
    real = beamform.rx_delay

    def spy(*args):
        calls.append(args[-1])
        return real(*args)

    monkeypatch.setattr(beamform, "rx_delay", spy)
    return calls


def test_bmode_computes_receive_delays_once_per_geometry(monkeypatch):
    spec = PhantomSpec(nx=24, nz=20, geometry=TEST_GEOMETRY,
                       scatterer_density=2.0, seed=8,
                       angles=(-0.1, 0.0, 0.15))
    frames = synth_rf(spec)
    calls = _spy_rx_delay(monkeypatch)
    bmode_from_frames(frames, spec.grid(), spec.dynamic_range_db)
    assert calls == [TEST_GEOMETRY]


def test_bmode_of_mixed_geometries_is_per_frame_das(monkeypatch):
    # RF files read from disk may mix element counts in one B-mode
    other = dataclasses.replace(TEST_GEOMETRY, element_count=33)
    specs = [PhantomSpec(nx=24, nz=20, geometry=g, scatterer_density=2.0,
                         seed=8, angles=(-0.1, 0.15))
             for g in (TEST_GEOMETRY, other)]
    a, b = (synth_rf(sp) for sp in specs)
    frames = [a[0], b[0], a[1], b[1]]
    grid, dr = specs[0].grid(), specs[0].dynamic_range_db
    want = log_compress(compound([envelope_image(das_beamform(f, grid))
                                  for f in frames]), dr)
    calls = _spy_rx_delay(monkeypatch)
    got = bmode_from_frames(frames, grid, dr)
    assert calls == [TEST_GEOMETRY, other]
    assert np.array_equal(got.data, want.data)


def test_das_zero_rf_gives_zero_image():
    g = TEST_GEOMETRY
    frame = RFFrame(np.zeros((g.element_count, 512), dtype=np.float32), 0.0, g)
    spec = PhantomSpec(geometry=g)
    img = das_beamform(frame, spec.grid())
    assert np.array_equal(img, np.zeros((64, 64)))


def test_das_rejects_a_two_element_receive_window():
    # np.hanning(2) is [0, 0], so a 2-element RF file beamformed to zeros
    g = TransducerGeometry(element_count=2)
    frame = RFFrame(np.ones((2, 512), dtype=np.float32), 0.0, g)
    with pytest.raises(ValueError, match="receive window"):
        das_beamform(frame, PhantomSpec(geometry=TEST_GEOMETRY).grid())
    with pytest.raises(ValueError, match="receive window"):
        PhantomSpec(geometry=g)


@pytest.mark.parametrize("angle_deg,tol_px", [(0.0, 1), (10.0, 2), (-10.0, 2)])
def test_das_point_scatterer_localization(angle_deg, tol_px):
    spec = PhantomSpec(geometry=TEST_GEOMETRY)
    grid = spec.grid()
    px, pz = 20, 40
    frame = _single_scatterer_frame(spec, grid.x[px], grid.z[pz],
                                    math.radians(angle_deg))
    env = envelope_image(das_beamform(frame, grid))
    peak = np.unravel_index(np.argmax(env), env.shape)
    assert abs(peak[0] - pz) <= tol_px
    assert abs(peak[1] - px) <= tol_px


def test_das_two_scatterers_ordering():
    spec = PhantomSpec(geometry=TEST_GEOMETRY)
    grid = spec.grid()
    f1 = _single_scatterer_frame(spec, grid.x[12], grid.z[16], 0.0)
    f2 = _single_scatterer_frame(spec, grid.x[50], grid.z[48], 0.0)
    both = RFFrame(f1.samples + f2.samples, 0.0, spec.geometry)
    env = envelope_image(das_beamform(both, grid))
    # two well-separated peaks in the expected relative positions
    top = env[:32, :32]
    bottom = env[32:, 32:]
    p1 = np.unravel_index(np.argmax(top), top.shape)
    p2 = np.unravel_index(np.argmax(bottom), bottom.shape)
    assert abs(p1[0] - 16) <= 1 and abs(p1[1] - 12) <= 1
    assert abs(p2[0] + 32 - 48) <= 1 and abs(p2[1] + 32 - 50) <= 1


def test_das_linearity():
    spec = PhantomSpec(nx=32, nz=32, geometry=TEST_GEOMETRY)
    grid = spec.grid()
    rng = np.random.default_rng(1)
    g = spec.geometry
    s1 = rng.normal(size=(g.element_count, 700)).astype(np.float32)
    s2 = rng.normal(size=(g.element_count, 700)).astype(np.float32)
    a, b = 2.5, -1.25
    img1 = das_beamform(RFFrame(s1, 0.0, g), grid)
    img2 = das_beamform(RFFrame(s2, 0.0, g), grid)
    img12 = das_beamform(RFFrame(a * s1 + b * s2, 0.0, g), grid)
    assert np.allclose(img12, a * img1 + b * img2, atol=1e-3)


# ------------------------------------------------------------- compounding

def test_compound_single_image_is_identity():
    img = np.arange(16.0).reshape(4, 4)
    assert np.allclose(compound([img]), img)


def test_compound_of_copies_is_idempotent():
    img = np.arange(16.0).reshape(4, 4)
    out = compound([img, img.copy(), img.copy()])
    assert np.allclose(out, img)


def test_compound_rejects_mismatched_dims():
    with pytest.raises(ValueError):
        compound([np.zeros((4, 4)), np.zeros((5, 4))])
    with pytest.raises(ValueError):
        compound([])


def test_compounding_reduces_speckle_cov(fifteen_angle_envelopes):
    _, envs = fifteen_angle_envelopes
    interior = (slice(8, -8), slice(8, -8))
    covs = [e[interior].std() / e[interior].mean() for e in envs]
    comp = compound(envs)[interior]
    cov_comp = comp.std() / comp.mean()
    assert cov_comp < min(covs)  # strictly lower than every single angle
    single = envs[7][interior]
    snr_single = single.mean() / single.std()
    assert comp.mean() / comp.std() > snr_single


# ---------------------------------------------------------------- phantom

def test_uniform_phantom_rayleigh_statistics(fifteen_angle_envelopes):
    spec, envs = fifteen_angle_envelopes
    inner = envs[7][8:-8, 8:-8]
    ratio = inner.mean() / inner.std()
    assert abs(ratio - 1.9130584) < 0.1 * 1.9130584


def test_anechoic_cyst_contract():
    cyst = Cyst(cx=0.0, cz=10.0e-3, radius=1.5e-3, echogenicity=0.0)
    spec = PhantomSpec(geometry=TEST_GEOMETRY, scatterer_density=8.0,
                       seed=5, cysts=(cyst,), angles=(0.0,))
    _, frames, masks = synth_phantom(spec)
    env = envelope_image(das_beamform(frames[0], spec.grid()))
    inner = cyst_mask(spec, cyst, erode=2)
    background = ~masks[0]
    background[:6] = background[-6:] = False
    background[:, :6] = background[:, -6:] = False
    assert env[inner].mean() < 0.2 * env[background].mean()


def test_synth_rf_skips_zero_amplitude_scatterers_exactly(monkeypatch):
    cyst = Cyst(cx=0.0, cz=10.0e-3, radius=1.5e-3, echogenicity=0.0)
    spec = PhantomSpec(geometry=TEST_GEOMETRY, scatterer_density=2.0,
                       seed=5, cysts=(cyst,), angles=(0.1,))
    xs, zs, re, im = phantom._scatterers(spec)
    amp = np.hypot(re, im)
    assert (amp == 0).sum() > 0.02 * amp.size
    deposited = []
    real = _kernels.deposit_pulses

    def spy(tau, a_re, a_im, *args):
        deposited.append((tau.size, real(tau, a_re, a_im, *args)))
        return deposited[-1][1]

    monkeypatch.setattr(_kernels, "deposit_pulses", spy)
    synth_rf(spec)
    monkeypatch.undo()
    g = spec.geometry
    f0 = g.center_frequency
    tx = tx_delay(xs, zs, 0.1, g)
    sigma_t = phantom.PULSE_SIGMA_PERIODS / f0
    half_width = math.ceil(4.0 * sigma_t * g.sampling_rate)
    assert len(deposited) == g.element_count
    for x_e, (n, trace) in zip(g.element_x(), deposited):
        assert n == (amp != 0).sum()
        rx = rx_delay(xs, zs, x_e, g)
        # the echo amplitudes as synth_rf composes them, zeros included
        a = ((re + 1j * im) * _kernels.cycle_phasor(-f0 * tx)
             * _kernels.cycle_phasor(-f0 * rx))
        full = real(tx + rx, a.real, a.imag, g.sampling_rate, f0, sigma_t,
                    trace.size, half_width)
        assert np.array_equal(trace, full)


def test_synth_rf_calls_cos_and_sin_only_on_small_arrays(monkeypatch):
    # NumPy evaluates float64 cos and sin one element at a time; phasors
    # come from cycle_phasor's table, so no call sees the scatterers.  The
    # scatterers are drawn first: their Box-Muller normals take a cos each
    sizes = []

    def spy(real):
        def wrapped(x, *args, **kwargs):
            sizes.append(np.size(x))
            return real(x, *args, **kwargs)
        return wrapped

    spec = PhantomSpec(geometry=TEST_GEOMETRY, seed=4)
    drawn = phantom._scatterers(spec)
    monkeypatch.setattr(phantom, "_scatterers", lambda _: drawn)
    _kernels._carrier_table.cache_clear()
    monkeypatch.setattr(np, "cos", spy(np.cos))
    monkeypatch.setattr(np, "sin", spy(np.sin))
    synth_rf(spec)
    monkeypatch.undo()
    assert max(sizes, default=0) <= _kernels.PHASOR_TURNS


def test_synth_rf_one_pass_equals_one_angle_at_a_time():
    spec = PhantomSpec(nx=32, nz=32, geometry=TEST_GEOMETRY,
                       scatterer_density=2.0, seed=9,
                       angles=(-0.0873, 0.0, 0.2443))
    frames = synth_rf(spec)
    assert [f.steer_angle for f in frames] == list(spec.angles)
    for frame, angle in zip(frames, spec.angles):
        alone, = synth_rf(dataclasses.replace(spec, angles=(angle,)))
        assert frame.samples.dtype == np.float32
        assert np.array_equal(frame.samples, alone.samples)


def test_synth_phantom_draws_the_scatterers_once(monkeypatch):
    calls = []
    real = phantom._scatterers

    def spy(spec):
        calls.append(spec.seed)
        return real(spec)

    monkeypatch.setattr(phantom, "_scatterers", spy)
    spec = PhantomSpec(nx=16, nz=16, geometry=TransducerGeometry(8),
                       scatterer_density=1.0, seed=4,
                       angles=(-0.1, 0.0, 0.1))
    _, frames, _ = synth_phantom(spec)
    assert len(frames) == 3 and calls == [4]


@pytest.mark.parametrize("angle_deg", [-14.0, -5.0, 5.0, 14.0, 30.0])
def test_synth_rf_traces_hold_the_latest_pulse_whole(angle_deg):
    # the trace length bounded tx by zmax + A/2 |sin a| and missed the
    # x sin a term: at 5 and 14 degrees the last taps of a pulse from the
    # far grid corner fell past the end of the trace
    angle = math.radians(angle_deg)
    spec = PhantomSpec(geometry=TEST_GEOMETRY, scatterer_density=0.01,
                       angles=(angle,))
    g = spec.geometry
    frame, = synth_rf(spec)
    hw = math.ceil(4.0 * phantom.PULSE_SIGMA_PERIODS / g.center_frequency
                   * g.sampling_rate)
    zmax = spec.z0_m + spec.depth_m
    last = 0
    for x in (-spec.width_m / 2, spec.width_m / 2):
        for z in (spec.z0_m, zmax):
            tau = (tx_delay(x, z, angle, g)
                   + np.hypot(x - g.element_x(), z) / g.sound_speed)
            last = max(last, math.floor(tau.max() * g.sampling_rate) + hw)
    assert last < frame.samples.shape[1]


def test_phantom_deterministic():
    cyst = Cyst(cx=0.5e-3, cz=9.0e-3, radius=1.0e-3)
    spec = PhantomSpec(geometry=TEST_GEOMETRY, seed=11, cysts=(cyst,),
                       angles=(0.0, 0.05))
    b1, f1, m1 = synth_phantom(spec)
    b2, f2, m2 = synth_phantom(spec)
    assert np.array_equal(b1.data, b2.data)
    assert all(np.array_equal(x.samples, y.samples) for x, y in zip(f1, f2))
    assert np.array_equal(m1[0], m2[0])


def test_phantom_rejects_cyst_outside_grid():
    with pytest.raises(ValueError):
        PhantomSpec(cysts=(Cyst(cx=5.0e-3, cz=10.0e-3, radius=2.0e-3),))
    with pytest.raises(ValueError):
        PhantomSpec(scatterer_density=0.0)


def test_phantom_rejects_an_overflowing_trace_length_without_warning():
    # the worst-case transmit delay overflows float64 here: the check must
    # report the sizes, not a RuntimeWarning from tx_delay
    with pytest.raises(ValueError, match="RF traces of inf samples"):
        PhantomSpec(width_m=1.7e308, z0_m=1.7e308, scatterer_density=1e-300,
                    angles=(0.7,))


def test_geometry_element_positions_centered():
    g = TransducerGeometry(element_count=8, pitch=1e-3)
    x = g.element_x()
    assert np.allclose(x, (np.arange(8) - 3.5) * 1e-3)
    assert abs(x.sum()) < 1e-12


def test_imaging_grid_validation():
    with pytest.raises(ValueError):
        ImagingGrid(nx=0, nz=4, x0=0, z0=1e-3, dx=1e-4, dz=1e-4)
    with pytest.raises(ValueError):
        ImagingGrid(nx=4, nz=4, x0=0, z0=-1e-3, dx=1e-4, dz=1e-4)


def test_rfframe_validation():
    g = TransducerGeometry(element_count=4)
    with pytest.raises(ValueError):
        RFFrame(np.zeros((5, 16)), 0.0, g)
    with pytest.raises(ValueError):
        RFFrame(np.zeros((4, 16)), 1.0, g)  # >= pi/4


# ---------------------------------------------------------------- patches

def test_speckle_patches_shape_range_determinism():
    a = speckle_patches(6, size=32, seed=4)
    b = speckle_patches(6, size=32, seed=4)
    assert a.shape == (6, 32, 32) and a.dtype == np.float32
    assert a.min() >= 0.0 and a.max() <= 1.0
    assert np.array_equal(a, b)
    c = speckle_patches(6, size=32, seed=5)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed", [3, 100])
def test_speckle_patches_chunks_equal_one_shot(seed):
    # the looks are blurred and averaged a chunk of patches at a time; all
    # at once must give the same bits.  The cyst-free patches (those after
    # the first half) still span two chunks.
    count, size, looks = 2 * phantom._PATCH_CHUNK + 5, 32, phantom.PATCH_LOOKS
    n_cysts = int(round(count * phantom.PATCH_CYST_FRACTION))
    out = speckle_patches(count, size=size, seed=seed)
    taps = np.exp(-np.arange(-2.0, 3.0) ** 2 / 2.0)
    taps /= taps.sum()
    re = standard_normal((count, looks, size, size), seed,
                         stream("speckle.look", 0))
    im = standard_normal((count, looks, size, size), seed,
                         stream("speckle.look", 1))
    env = np.hypot(phantom._sep_blur(re.astype(np.float64), taps),
                   phantom._sep_blur(im.astype(np.float64), taps)).mean(axis=1)
    assert n_cysts < 2 * phantom._PATCH_CHUNK
    for got, e in zip(out[n_cysts:], env[n_cysts:]):
        assert np.array_equal(got, log_compress(e, 50.0).data)


def test_speckle_patches_memory_grows_only_with_the_output():
    # the ten looks of each field are drawn and blurred a chunk at a time;
    # holding both (count, 10, size, size) fields grew the peak by about
    # 80 bytes per output pixel, the float32 output and float64 envelope
    # alone need 12
    def peak(count):
        tracemalloc.start()
        try:
            speckle_patches(count, size=32, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    grown = peak(1000) - peak(232)
    assert grown < 16 * (1000 - 232) * 32 * 32


def test_speckle_patches_log_compression_bit_identical(monkeypatch):
    # log_compress replaced a private copy of the same formula; the patches
    # must not change by a single bit
    envs = []
    real = phantom.log_compress

    def spy(env, dynamic_range_db):
        envs.append(np.array(env))
        return real(env, dynamic_range_db)

    monkeypatch.setattr(phantom, "log_compress", spy)
    out = speckle_patches(4, size=16, seed=2)
    assert len(envs) == 4
    for got, env in zip(out, envs):
        peak = env.max()
        floor = peak * 10.0 ** (-50.0 / 20.0)
        db = 20.0 * np.log10(np.maximum(env, floor) / peak)
        want = np.asarray((db + 50.0) / 50.0, dtype=np.float32)
        assert np.array_equal(got, want)
