import numpy as np
import pytest

from usdenoise.ultrasound import (
    PhantomSpec,
    TransducerGeometry,
    das_beamform,
    envelope_image,
    synth_rf,
)

# Small probe used throughout the test suite to keep simulation cheap.
TEST_GEOMETRY = TransducerGeometry(element_count=64)


@pytest.fixture(scope="session")
def fifteen_angle_envelopes():
    """Uniform speckle phantom imaged from 15 steering angles.

    Returns (spec, [per-angle envelope images]) for compounding statistics.
    """
    angles = tuple(np.deg2rad(np.linspace(-14.0, 14.0, 15)))
    spec = PhantomSpec(nx=64, nz=64, geometry=TEST_GEOMETRY,
                       scatterer_density=8.0, seed=3, angles=angles)
    envs = [envelope_image(das_beamform(f, spec.grid()))
            for f in synth_rf(spec)]
    return spec, envs


@pytest.fixture(scope="session")
def trained_model(tmp_path_factory):
    """The desk-scale training run: 200 synthetic 32x32 speckle patches,
    30 epochs.  Several acceptance criteria share this single run.

    Returns (checkpoint_path, history, elapsed_seconds).
    """
    import time

    from usdenoise.diffusion import make_schedule
    from usdenoise.nnet import TrainConfig, UNetConfig, train
    from usdenoise.ultrasound import speckle_patches

    out = tmp_path_factory.mktemp("model")
    ckpt = out / "model.ckpt"
    patches = speckle_patches(232, size=32, seed=100)
    train_set = patches[:200] * 2.0 - 1.0
    heldout = patches[200:] * 2.0 - 1.0
    t0 = time.time()
    _, history = train(train_set, make_schedule(300),
                       TrainConfig(epochs=30, seed=7), UNetConfig(),
                       heldout_set=heldout, checkpoint_path=ckpt,
                       log_path=out / "loss_log.csv")
    return ckpt, history, time.time() - t0


@pytest.fixture(scope="session")
def bench_outputs(trained_model, tmp_path_factory):
    """Full benchmark over the 16-image anechoic-cyst phantom test set.

    Returns (config, phantom image list, summary rows, per-image rows).
    """
    from usdenoise.bench import BenchConfig, make_phantom_set, run_bench

    ckpt, _, _ = trained_model
    cfg = BenchConfig(checkpoint=str(ckpt), seed=11,
                      out_dir=str(tmp_path_factory.mktemp("bench")))
    images = make_phantom_set(cfg)
    summary, per_image = run_bench(cfg, images=images)
    return cfg, images, summary, per_image
