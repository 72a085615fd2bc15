"""Acceptance suite: one test per exit criterion, gates at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  The heavy fixtures (30-epoch training run, 16-image phantom
benchmark) are session-scoped and shared across criteria.
"""

import math
import time

import numpy as np
import pytest

from usdenoise.diffusion import (
    denoise_from,
    forward_jump,
    forward_step,
    make_schedule,
)
from usdenoise.image import to_signed
from usdenoise.metrics import gcnr, mse, psnr
from usdenoise.rng import standard_normal


def _report(n, message):
    print(f"\n[criterion {n:2d}] PASS - {message}")


# ---------------------------------------------------------------------- 1

def test_criterion_01_schedule_algebra():
    t0 = time.time()
    s = make_schedule(300, 1.0 / 300.0)
    direct = np.array([math.prod(s.alphas[:t + 1].tolist())
                       for t in range(s.T)])
    rel = np.abs(s.alpha_bars - direct) / direct
    assert rel.max() <= 1e-6
    assert abs(s.alpha_bar(300) - 0.3673) <= 1e-4
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(1, f"incremental abar == direct product (max rel "
               f"{rel.max():.2e}), abar_300 = {s.alpha_bar(300):.6f} "
               f"[{elapsed:.2f}s]")


# ---------------------------------------------------------------------- 2

def test_criterion_02_forward_process_equivalence():
    t0 = time.time()
    s = make_schedule(300)
    x = np.tanh(standard_normal((16, 16), seed=21)).astype(np.float32)
    stepped = x
    for t in range(1, 301):
        stepped = forward_step(stepped, t, s, eps=None)
    jumped = forward_jump(x, 300, s, eps=None)
    rel = (np.abs(stepped - jumped)
           / np.maximum(np.abs(jumped), 1e-12)).max()
    assert rel <= 1e-5

    worst = 0.0
    for t in (10, 20, 300):
        ab = s.alpha_bar(t)
        eps = standard_normal((10_000, 5, 5), seed=500 + t).astype(np.float64)
        x_t = math.sqrt(ab) * 0.5 + math.sqrt(1.0 - ab) * eps
        err = np.abs(x_t.var(axis=0) - (1.0 - ab)) / (1.0 - ab)
        worst = max(worst, float(err.max()))
        assert err.max() < 0.05
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(2, f"300-step composition rel err {rel:.2e}; Monte-Carlo "
               f"variance within {100 * worst:.2f}% at t in {{10,20,300}} "
               f"[{elapsed:.1f}s]")


# ---------------------------------------------------------------------- 3

def test_criterion_03_sampler_inversion(bench_outputs):
    _, images, _, _ = bench_outputs
    s = make_schedule(300)
    x0 = to_signed(images[0].clean)
    eps = standard_normal(x0.shape, seed=31)
    x1 = forward_jump(x0, 1, s, eps=eps)
    rec = denoise_from(x1, 1, lambda im, t: eps, s)
    max_err = float(np.abs(rec - x0).max())
    assert max_err <= 1e-4

    improved = 0
    for i, ti in enumerate(images):
        clean = to_signed(ti.clean)
        for t_start in (10, 20):
            e = standard_normal(clean.shape, seed=600 + i, draw_index=t_start)
            noisy = forward_jump(clean, t_start, s, eps=e)
            rec = denoise_from(noisy, t_start, lambda im, t: e, s)
            assert psnr(clean, rec, 2.0) > psnr(clean, noisy, 2.0)
            improved += 1
    _report(3, f"t=1 inversion max err {max_err:.2e}; oracle predictor "
               f"improved PSNR on {improved}/{improved} image corruptions")


# ---------------------------------------------------------------------- 4

def test_criterion_04_gradient_correctness():
    from tests.test_nnet import TINY, _sampled_gradient_check

    t0 = time.time()
    worst = _sampled_gradient_check(TINY, n_per_tensor=25, seed=41)
    elapsed = time.time() - t0
    assert worst <= 1e-3
    assert elapsed < 300.0
    _report(4, f">=25 sampled weights per tensor, worst FD rel err "
               f"{worst:.2e} [{elapsed:.0f}s]")


# ---------------------------------------------------------------------- 5

def test_criterion_05_training_trajectory(trained_model):
    _, history, elapsed = trained_model
    assert elapsed < 1200.0
    first_l1 = history[0]["heldout_l1"]
    last_l1 = history[-1]["heldout_l1"]
    assert last_l1 <= 0.5 * first_l1
    first5 = [h["train_mse"] for h in history[:5]]
    assert all(b < a for a, b in zip(first5, first5[1:]))
    _report(5, f"held-out L1 {first_l1:.3f} -> {last_l1:.3f} "
               f"({last_l1 / first_l1:.2f}x); first-5 train MSE "
               f"{[round(v, 3) for v in first5]} [{elapsed:.0f}s]")


# ---------------------------------------------------------------------- 6

def test_criterion_06_benchmark_direction(bench_outputs):
    _, images, summary, per_image = bench_outputs
    for name in {r["image"] for r in per_image}:
        rows = {r["t_start"]: r["psnr_db"] for r in per_image
                if r["method"] == "noisy" and r["image"] == name}
        assert rows[20] < rows[10]

    mean = {(r["method"], r["t_start"]): r["psnr_db"]
            for r in summary}
    gains = {}
    for method in ("nlm", "bm3d", "ddpm"):
        gains[method] = mean[(method, 10)] - mean[("noisy", 10)]
        assert gains[method] >= 1.0
    ordering = sorted(("nlm", "bm3d", "ddpm"), key=lambda m: -mean[(m, 10)])
    _report(6, f"noisy PSNR falls with t on all {len(images)} images; "
               f"gains over noisy at t=10: "
               + ", ".join(f"{m} +{gains[m]:.2f} dB" for m in gains)
               + f" (observed ordering at toy scale: {' > '.join(ordering)})")


# ---------------------------------------------------------------------- 7

def test_criterion_07_gcnr_sanity(bench_outputs):
    _, _, summary, per_image = bench_outputs
    for r in per_image:
        assert 0.0 <= r["gcnr_percent"] <= 100.0
    noisy20 = {r["image"]: r["gcnr_percent"] for r in per_image
               if r["method"] == "noisy" and r["t_start"] == 20}
    for method in ("nlm", "bm3d", "ddpm"):
        for r in per_image:
            if r["method"] == method and r["t_start"] == 20:
                assert r["gcnr_percent"] >= noisy20[r["image"]]
    mean = {(r["method"], r["t_start"]): r["gcnr_percent"]
            for r in summary}
    # reported, not gated: the background's std over the clean image's
    ratio = {(r["method"], r["t_start"]): r["speckle_ratio"]
             for r in summary}
    methods = ("noisy", "nlm", "bm3d", "ddpm")
    _report(7, f"GCNR at t=20: noisy {mean[('noisy', 20)]:.1f}%, "
               f"nlm {mean[('nlm', 20)]:.1f}%, bm3d {mean[('bm3d', 20)]:.1f}%, "
               f"ddpm {mean[('ddpm', 20)]:.1f}%; all in [0, 100]; speckle "
               "ratio at t=10/20: "
               + ", ".join(f"{m} {ratio[(m, 10)]:.2f}/{ratio[(m, 20)]:.2f}"
                           for m in methods))


# ---------------------------------------------------------------------- 8

def test_criterion_08_metric_oracles():
    rng = np.random.default_rng(81)
    a = rng.normal(size=(19, 27))
    b = rng.normal(size=(19, 27))
    brute = 0.0
    for i in range(19):
        for j in range(27):
            brute += (a[i, j] - b[i, j]) ** 2
    brute /= 19 * 27
    assert mse(a, b) == pytest.approx(brute, rel=1e-9)

    fix = psnr(np.zeros((4, 4)), np.full((4, 4), 16.0), 255.0)
    assert abs(fix - 24.05) <= 0.01

    n = 10_000
    img = np.zeros((200, 100))
    img.reshape(-1)[:n] = rng.uniform(0.0, 1.0, n)
    img.reshape(-1)[n:2 * n] = rng.uniform(0.5, 1.5, n)
    m1 = np.zeros((200, 100), dtype=bool)
    m2 = np.zeros((200, 100), dtype=bool)
    m1.reshape(-1)[:n] = True
    m2.reshape(-1)[n:2 * n] = True
    overlap = gcnr(img, m1, m2)
    assert abs(overlap - 0.5) <= 0.05
    _report(8, f"MSE == brute force; PSNR fixture {fix:.4f} dB; "
               f"uniform-overlap GCNR {overlap:.3f}")


# ---------------------------------------------------------------------- 9

def test_criterion_09_ultrasound_path(fifteen_angle_envelopes):
    from usdenoise.ultrasound import fft

    rng = np.random.default_rng(91)
    x = rng.normal(size=1024) + 1j * rng.normal(size=1024)
    k = np.arange(1024)
    oracle = x @ np.exp(-2j * np.pi * np.outer(k, k) / 1024)
    fft_err = float(np.abs(fft(x) - oracle).max() / np.abs(oracle).max())
    assert fft_err <= 1e-5

    from tests.test_ultrasound import _single_scatterer_frame
    from usdenoise.ultrasound import das_beamform, envelope_image, compound
    from usdenoise.ultrasound import PhantomSpec
    from tests.conftest import TEST_GEOMETRY

    spec = PhantomSpec(geometry=TEST_GEOMETRY)
    grid = spec.grid()
    frame = _single_scatterer_frame(spec, grid.x[20], grid.z[40], 0.0)
    env = envelope_image(das_beamform(frame, grid))
    peak = np.unravel_index(np.argmax(env), env.shape)
    loc_err = max(abs(peak[0] - 40), abs(peak[1] - 20))
    assert loc_err <= 1

    _, envs = fifteen_angle_envelopes
    interior = (slice(8, -8), slice(8, -8))
    covs = [e[interior].std() / e[interior].mean() for e in envs]
    comp = compound(envs)[interior]
    cov_comp = float(comp.std() / comp.mean())
    assert cov_comp < min(covs)

    single = envs[7][interior]
    ratio = float(single.mean() / single.std())
    target = math.sqrt(math.pi / (4.0 - math.pi))
    assert abs(ratio - target) <= 0.1 * target
    _report(9, f"FFT vs DFT {fft_err:.2e}; point localization off by "
               f"{loc_err}px; compound CoV {cov_comp:.3f} < min single "
               f"{min(covs):.3f}; Rayleigh mean/std {ratio:.3f} "
               f"(target {target:.3f})")


# --------------------------------------------------------------------- 10

def test_criterion_10_format_robustness(tmp_path):
    from usdenoise.formats import (
        FormatError, load_cifar, read_checkpoint, read_pgm, read_rf,
        read_tensor)
    from tests.test_formats import (
        MUTATIONS, _valid_ckpt, _valid_cifar, _valid_pgm, _valid_rf,
        _valid_tensor)

    readers = {"pgm": read_pgm, "tensor": read_tensor, "ckpt": read_checkpoint,
               "cifar": load_cifar, "rf": read_rf}
    blobs = {"pgm": _valid_pgm(tmp_path), "tensor": _valid_tensor(),
             "ckpt": _valid_ckpt(tmp_path), "cifar": _valid_cifar(),
             "rf": _valid_rf(tmp_path)}
    # the pristine blobs parse cleanly (round-trip side is covered by the
    # format test module; this re-checks the readers used below)
    for kind, blob in blobs.items():
        target = tmp_path / f"ok.{kind}"
        target.write_bytes(blob)
        readers[kind](target)

    assert len(MUTATIONS) >= 20
    for i, (kind, mutate) in enumerate(MUTATIONS):
        target = tmp_path / f"mut{i:02d}.{kind}"
        target.write_bytes(mutate(blobs[kind]))
        with pytest.raises(FormatError):
            readers[kind](target)
    _report(10, f"{len(MUTATIONS)} mutated/truncated fixtures all raised "
                f"typed FormatError subclasses across 5 formats")
