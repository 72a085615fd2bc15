import importlib
import math
import tracemalloc

import numpy as np
import pytest

from usdenoise.diffusion import make_schedule
from usdenoise.nnet import (
    TrainConfig,
    UNetConfig,
    UNetParams,
    adam_step,
    init_params,
    l1_eval,
    load_model,
    lr_schedule,
    mse_loss,
    save_model,
    time_embed,
    train,
    unet_backward,
    unet_forward,
)
from usdenoise.nnet.ops import (
    conv2d_bwd,
    conv2d_fwd,
    silu_bwd,
    silu_fwd,
    upconv2d_bwd,
    upconv2d_fwd,
)

TINY = UNetConfig(in_channels=1, base_channels=4, depth=1, time_embed_dim=8,
                  image_size=8)


# ------------------------------------------------------------- time_embed

def test_time_embed_zero_argument():
    e = time_embed(0, 16)
    assert np.allclose(e[0::2], 0.0)
    assert np.allclose(e[1::2], 1.0)


def test_time_embed_deterministic():
    assert np.array_equal(time_embed(37, 32), time_embed(37, 32))


def test_time_embed_matches_scalar_oracle():
    dim = 32
    e = time_embed(300, dim)
    for k in range(dim // 2):
        arg = 300.0 / 10000.0 ** (2.0 * k / dim)
        assert abs(e[2 * k] - math.sin(arg)) < 1e-6
        assert abs(e[2 * k + 1] - math.cos(arg)) < 1e-6


def test_time_embed_rejects_odd_dim():
    with pytest.raises(ValueError):
        time_embed(1, 7)


# ------------------------------------------------------------ forward pass

def test_zero_params_give_zero_output():
    params = init_params(TINY, seed=0)
    for name in params.tensors:
        params.tensors[name][:] = 0.0
    x = np.random.default_rng(0).normal(size=(2, 1, 8, 8))
    eps_hat, _ = unet_forward(params, TINY, x, np.array([1, 5]))
    assert np.array_equal(eps_hat, np.zeros_like(x))


@pytest.mark.parametrize("cfg,shape", [
    (TINY, (3, 1, 8, 8)),
    (TINY, (1, 1, 16, 16)),       # fully convolutional
    (UNetConfig(base_channels=8, depth=2, image_size=16), (2, 1, 16, 16)),
])
def test_output_shape_matches_input(cfg, shape):
    params = init_params(cfg, seed=1)
    x = np.random.default_rng(1).normal(size=shape)
    t = np.full(shape[0], 7)
    eps_hat, _ = unet_forward(params, cfg, x, t)
    assert eps_hat.shape == shape


def test_forward_validates_input():
    params = init_params(TINY, seed=0)
    with pytest.raises(ValueError):
        unet_forward(params, TINY, np.zeros((1, 2, 8, 8)), np.array([1]))
    with pytest.raises(ValueError):
        unet_forward(params, TINY, np.zeros((1, 1, 9, 9)), np.array([1]))
    with pytest.raises(ValueError):
        unet_forward(params, TINY, np.zeros((2, 1, 8, 8)), np.array([1]))


def test_time_index_reaches_output():
    params = init_params(TINY, seed=3)
    x = np.random.default_rng(2).normal(size=(1, 1, 8, 8))
    a, _ = unet_forward(params, TINY, x, np.array([1]))
    b, _ = unet_forward(params, TINY, x, np.array([300]))
    assert not np.allclose(a, b)


# ------------------------------------------------------- conv primitives

# (B, C, O, H, W, stride): channel counts and extents all differ; then a
# stem-like C = 1 (GEMMs with K = 3), a head-like O = 1 and a B = 4 stride 2
CONV_CASES = [(2, 3, 5, 6, 8, 1), (2, 3, 5, 6, 8, 2), (1, 4, 2, 5, 7, 1),
              (3, 2, 3, 4, 10, 2), (2, 1, 4, 6, 8, 1), (2, 4, 1, 6, 8, 1),
              (4, 3, 5, 6, 8, 2)]


def _conv_by_taps(x, w, b, stride):
    """Reference 3x3 same-padding convolution: one product per kernel tap."""
    B, C, H, W = x.shape
    OH, OW = (H - 1) // stride + 1, (W - 1) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    y = np.zeros((B, w.shape[0], OH, OW)) + b[None, :, None, None]
    for ky in range(3):
        for kx in range(3):
            tap = xp[:, :, ky:ky + stride * OH:stride, kx:kx + stride * OW:stride]
            y += np.einsum("oc,bchw->bohw", w[:, :, ky, kx], tap)
    return y


def _conv_case(case, seed=0):
    B, C, O, H, W, stride = case
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(B, C, H, W)), rng.normal(size=(O, C, 3, 3)),
            rng.normal(size=O), stride)


@pytest.mark.parametrize("case", CONV_CASES)
def test_conv2d_fwd_matches_tap_loop(case):
    x, w, b, stride = _conv_case(case)
    y, cache = conv2d_fwd(x, w, b, stride)
    ref = _conv_by_taps(x, w, b, stride)
    assert y.shape == ref.shape
    assert np.allclose(y, ref, rtol=1e-12, atol=1e-12)
    assert cache[0] is x and cache[1] is w and cache[2] == stride


@pytest.mark.parametrize("case", CONV_CASES)
def test_conv2d_bwd_matches_finite_differences(case, delta=1e-5):
    x, w, b, stride = _conv_case(case, seed=1)
    y, cache = conv2d_fwd(x, w, b, stride)
    g = np.random.default_rng(2).normal(size=y.shape)
    dx, dw, db = conv2d_bwd(g, cache)
    assert (dx.shape, dw.shape, db.shape) == (x.shape, w.shape, b.shape)

    def numeric(arr):
        out = np.zeros_like(arr)
        flat, grad = arr.reshape(-1), out.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + delta
            hi = np.sum(conv2d_fwd(x, w, b, stride)[0] * g)
            flat[j] = orig - delta
            lo = np.sum(conv2d_fwd(x, w, b, stride)[0] * g)
            flat[j] = orig
            grad[j] = (hi - lo) / (2 * delta)
        return out

    for analytic, arr in ((dx, x), (dw, w), (db, b)):
        assert np.allclose(analytic, numeric(arr), rtol=1e-6, atol=1e-6)


# (B, C, O, H, W): B > 1, odd C != O, H != W
UPCONV_CASES = [(2, 3, 5, 3, 4), (3, 5, 2, 4, 2)]


def _upsampled_conv(x, w, b):
    return conv2d_fwd(x.repeat(2, axis=2).repeat(2, axis=3), w, b)


@pytest.mark.parametrize("case", UPCONV_CASES)
def test_upconv2d_matches_upsample_then_conv(case):
    B, C, O, H, W = case
    x, w, b, _ = _conv_case((B, C, O, H, W, 1), seed=3)
    y, cache = upconv2d_fwd(x, w, b)
    ref, ref_cache = _upsampled_conv(x, w, b)
    assert y.shape == ref.shape == (B, O, 2 * H, 2 * W)
    assert np.allclose(y, ref, rtol=1e-12, atol=1e-12)

    g = np.random.default_rng(4).normal(size=y.shape)
    dx, dw, db = upconv2d_bwd(g, cache)
    ref_dx, ref_dw, ref_db = conv2d_bwd(g, ref_cache)
    # the upsampling's backward sums each 2x2 block of the gradient
    ref_dx = ref_dx.reshape(B, C, H, 2, W, 2).sum(axis=(3, 5))
    for got, want in ((dx, ref_dx), (dw, ref_dw), (db, ref_db)):
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("case", UPCONV_CASES)
def test_upconv2d_bwd_matches_finite_differences(case, delta=1e-5):
    B, C, O, H, W = case
    x, w, b, _ = _conv_case((B, C, O, H, W, 1), seed=5)
    y, cache = upconv2d_fwd(x, w, b)
    g = np.random.default_rng(6).normal(size=y.shape)
    dx, dw, db = upconv2d_bwd(g, cache)

    def numeric(arr):
        out = np.zeros_like(arr)
        flat, grad = arr.reshape(-1), out.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + delta
            hi = np.sum(upconv2d_fwd(x, w, b)[0] * g)
            flat[j] = orig - delta
            lo = np.sum(upconv2d_fwd(x, w, b)[0] * g)
            flat[j] = orig
            grad[j] = (hi - lo) / (2 * delta)
        return out

    for analytic, arr in ((dx, x), (dw, w), (db, b)):
        assert np.allclose(analytic, numeric(arr), rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("case, bound", [
    ((1, 32, 16, 64, 64, 1), 6.0), ((4, 32, 32, 32, 32, 1), 6.0),
    ((1, 16, 32, 64, 64, 2), 3.0)])
def test_conv2d_fwd_peak_allocation(case, bound):
    # the 9x im2col column matrix peaked at 10.1x the input's bytes at
    # stride 1 and 3.3x at stride 2; the 3x row-tap operand stays below
    x, w, b, stride = _conv_case(case)
    x, w, b = x.astype(np.float32), w.astype(np.float32), b.astype(np.float32)
    tracemalloc.start()
    try:
        conv2d_fwd(x, w, b, stride)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * x.nbytes


def test_conv2d_rejects_channel_mismatch():
    x, w, b, _ = _conv_case(CONV_CASES[0])
    with pytest.raises(ValueError, match="channels"):
        conv2d_fwd(x[:, :2], w, b)


# ------------------------------------------------------------------ dtypes

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride", [1, 2])
def test_primitives_return_their_input_dtype(dtype, stride):
    x, w, b, _ = _conv_case((2, 3, 5, 6, 8, stride))
    x, w, b = x.astype(dtype), w.astype(dtype), b.astype(dtype)
    y, cache = conv2d_fwd(x, w, b, stride)
    assert y.dtype == dtype
    assert all(g.dtype == dtype
               for g in conv2d_bwd(np.ones_like(y), cache))
    h, act = silu_fwd(y)
    assert h.dtype == dtype and silu_bwd(h, act).dtype == dtype
    up, up_cache = upconv2d_fwd(x, w, b)
    assert up.dtype == dtype
    assert all(g.dtype == dtype
               for g in upconv2d_bwd(np.ones_like(up), up_cache))


def _forward_backward(params, x, t, dy):
    eps_hat, tape = unet_forward(params, TINY, x, t)
    return eps_hat, unet_backward(tape, dy)


def _rel(a, ref):
    ref = ref.astype(np.float64)
    return float(np.linalg.norm(a - ref) / max(np.linalg.norm(ref), 1e-30))


def test_unet_runs_in_the_dtype_of_its_input():
    params = init_params(TINY, seed=4)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 1, 8, 8))
    dy = rng.normal(size=x.shape)
    t = np.array([3, 250])
    ref, ref_grads = _forward_backward(params, x, t, dy)
    assert ref.dtype == np.float64
    assert all(g.dtype == np.float64 for g in ref_grads.values())

    out, grads = _forward_backward(params, x.astype(np.float32), t, dy)
    assert out.dtype == np.float32
    assert all(g.dtype == np.float32 for g in grads.values())
    # float32 rounding only: same weights, relative L2 error within 1e-4
    assert _rel(out, ref) <= 1e-4
    for name, g in grads.items():
        assert _rel(g, ref_grads[name]) <= 1e-4, name


def _record_forward_dtypes(monkeypatch, module):
    seen = []
    real = module.unet_forward

    def spy(params, cfg, x, t):
        seen.append(x.dtype)
        return real(params, cfg, x, t)

    monkeypatch.setattr(module, "unet_forward", spy)
    return seen


def test_train_and_heldout_run_the_network_in_float32(monkeypatch):
    # the package's ``train`` function shadows its module of the same name
    train_mod = importlib.import_module("usdenoise.nnet.train")
    seen = _record_forward_dtypes(monkeypatch, train_mod)
    data = _toy_data(8, 16, seed=4)
    train(data, make_schedule(300), TrainConfig(epochs=1, batch_size=4),
          SMALL, heldout_set=data[:4])
    assert len(seen) == 3            # two training batches, one held-out
    assert set(seen) == {np.dtype(np.float32)}


def test_ddpm_denoiser_runs_the_network_in_float32(monkeypatch, tmp_path):
    import usdenoise.bench as bench
    from usdenoise.diffusion import STANDARD_POSTERIOR
    from usdenoise.image import RANGE_SIGNED, Image2D

    seen = _record_forward_dtypes(monkeypatch, bench)
    ckpt = tmp_path / "tiny.ckpt"
    save_model(ckpt, init_params(TINY, seed=0), TINY)
    denoiser = bench.DdpmDenoiser(ckpt, STANDARD_POSTERIOR)
    noisy = np.random.default_rng(8).uniform(-1, 1, (8, 8))
    out = denoiser(Image2D(noisy, RANGE_SIGNED), 3, make_schedule(300))
    assert out.shape == (8, 8)
    assert seen == [np.dtype(np.float32)] * 3


# ---------------------------------------------------------------- backward

@pytest.mark.parametrize("batch", [16, 14])   # 14: a short last chunk
def test_chunked_step_matches_one_pass(batch, monkeypatch):
    train_mod = importlib.import_module("usdenoise.nnet.train")
    # a chunk of 4 splits both batches, whatever the production value
    monkeypatch.setattr(train_mod, "STEP_CHUNK", 4)
    assert batch > train_mod.STEP_CHUNK
    params = init_params(TINY, seed=5)
    rng = np.random.default_rng(9)
    x = rng.normal(size=(batch, 1, 8, 8))
    eps = rng.normal(size=x.shape)
    t = rng.integers(1, 301, size=batch)
    loss, grads = train_mod._loss_and_grads(params, TINY, x, t, eps)

    eps_hat, tape = unet_forward(params, TINY, x, t)
    ref_loss, dloss = mse_loss(eps_hat, eps)
    ref = unet_backward(tape, dloss)
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    assert set(grads) == set(ref)
    for name, g in grads.items():
        assert g.dtype == np.float64
        assert np.allclose(g, ref[name], rtol=1e-12, atol=1e-12), name


def _sampled_gradient_check(cfg, n_per_tensor, delta=1e-3, seed=0):
    params = init_params(cfg, seed=1)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 1, 8, 8))
    t = np.array([3, 250])
    target = rng.normal(size=x.shape)

    def loss_only():
        eps_hat, _ = unet_forward(params, cfg, x, t)
        return mse_loss(eps_hat, target)[0]

    eps_hat, tape = unet_forward(params, cfg, x, t)
    _, dloss = mse_loss(eps_hat, target)
    grads = unet_backward(tape, dloss)

    worst = 0.0
    for name, w in params.tensors.items():
        flat = w.reshape(-1)
        sel = rng.choice(flat.size, size=min(n_per_tensor, flat.size),
                         replace=False)
        for j in sel:
            orig = flat[j]
            flat[j] = np.float32(orig + delta)
            hi = loss_only()
            step_hi = float(flat[j])
            flat[j] = np.float32(orig - delta)
            lo = loss_only()
            step_lo = float(flat[j])
            flat[j] = orig
            fd = (hi - lo) / (step_hi - step_lo)
            an = grads[name].reshape(-1)[j]
            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
            worst = max(worst, rel)
    return worst


def test_gradients_match_finite_differences():
    assert _sampled_gradient_check(TINY, n_per_tensor=5) <= 1e-3


def test_zero_upstream_gradient_gives_zero_table():
    params = init_params(TINY, seed=2)
    x = np.random.default_rng(3).normal(size=(1, 1, 8, 8))
    _, tape = unet_forward(params, TINY, x, np.array([4]))
    grads = unet_backward(tape, np.zeros((1, 1, 8, 8)))
    assert set(grads) == set(params.tensors)
    for g in grads.values():
        assert np.array_equal(g, np.zeros_like(g))


def test_backward_is_pure_wrt_tape():
    params = init_params(TINY, seed=2)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 1, 8, 8))
    _, tape = unet_forward(params, TINY, x, np.array([2, 9]))
    dy = rng.normal(size=x.shape)
    g1 = unet_backward(tape, dy)
    g2 = unet_backward(tape, dy)
    for name in g1:
        assert np.array_equal(g1[name], g2[name])


def test_stale_tape_rejected():
    params = init_params(TINY, seed=2)
    x = np.random.default_rng(5).normal(size=(1, 1, 8, 8))
    eps_hat, tape = unet_forward(params, TINY, x, np.array([2]))
    _, dloss = mse_loss(eps_hat, np.zeros_like(eps_hat))
    grads = unet_backward(tape, dloss)
    adam_step(params, grads, lr=1e-3)
    with pytest.raises(ValueError, match="stale"):
        unet_backward(tape, dloss)


# ------------------------------------------------------------------ losses

def test_mse_loss_identical():
    a = np.random.default_rng(0).normal(size=(2, 1, 4, 4))
    loss, grad = mse_loss(a, a.copy())
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros_like(a))


def test_mse_loss_constant_difference():
    a = np.full((1, 1, 2, 2), 3.0)
    b = np.full((1, 1, 2, 2), 1.0)
    loss, grad = mse_loss(a, b)
    assert loss == pytest.approx(4.0, abs=1e-12)
    assert np.allclose(grad, 2.0 * 2.0 / 4)


def test_mse_loss_matches_brute_force():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(2, 1, 5, 5))
    b = rng.normal(size=(2, 1, 5, 5))
    loss, grad = mse_loss(a, b)
    acc = 0.0
    for idx in np.ndindex(a.shape):
        acc += (a[idx] - b[idx]) ** 2
    assert loss == pytest.approx(acc / a.size, rel=1e-6)
    idx = (1, 0, 2, 3)
    assert grad[idx] == pytest.approx(2 * (a[idx] - b[idx]) / a.size, rel=1e-9)


def test_l1_eval_examples():
    a = np.zeros((2, 2))
    assert l1_eval(a, a) == 0.0
    assert l1_eval(a, a + 3.0) == pytest.approx(3.0, abs=1e-12)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 3))
    y = rng.normal(size=(3, 3))
    acc = sum(abs(x[i, j] - y[i, j]) for i in range(3) for j in range(3))
    assert l1_eval(x, y) == pytest.approx(acc / 9, rel=1e-6)


def test_losses_reject_shape_mismatch():
    with pytest.raises(ValueError):
        mse_loss(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        l1_eval(np.zeros((2, 2)), np.zeros((2, 3)))


# -------------------------------------------------------------------- Adam

def _scalar_params(value):
    p = UNetParams(tensors={"w": np.array([value], dtype=np.float32)})
    p.zero_moments()
    return p


def test_adam_zero_gradient_from_rest_is_noop():
    p = _scalar_params(0.5)
    adam_step(p, {"w": np.zeros(1)}, lr=0.1)
    assert p.tensors["w"][0] == 0.5
    assert p.m["w"][0] == 0.0 and p.v["w"][0] == 0.0


def test_adam_zero_gradient_decays_moments():
    p = _scalar_params(0.5)
    p.m["w"] = np.array([1.0], dtype=np.float32)
    p.v["w"] = np.array([1.0], dtype=np.float32)
    adam_step(p, {"w": np.zeros(1)}, lr=0.1)
    assert p.m["w"][0] == pytest.approx(0.9)
    assert p.v["w"][0] == pytest.approx(0.999)
    adam_step(p, {"w": np.zeros(1)}, lr=0.1)
    assert p.m["w"][0] == pytest.approx(0.81)  # geometric decay toward 0


def test_adam_first_step_closed_form():
    p = _scalar_params(1.0)
    g = 0.125
    adam_step(p, {"w": np.array([g])}, lr=0.01)
    # bias correction makes m_hat = g and v_hat = g^2 at step 1
    assert p.tensors["w"][0] == pytest.approx(1.0 - 0.01 * g / (abs(g) + 1e-8),
                                              rel=1e-6)
    assert p.step == 1


def test_adam_quadratic_descent_monotone():
    p = _scalar_params(1.0)
    values = [1.0]
    for _ in range(10):
        w = float(p.tensors["w"][0])
        adam_step(p, {"w": np.array([2.0 * w])}, lr=0.05)  # d/dw w^2
        values.append(float(p.tensors["w"][0]))
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] > -0.2  # heading toward 0, not oscillating past it


def test_adam_missing_gradient_key():
    p = _scalar_params(1.0)
    with pytest.raises(KeyError, match="w"):
        adam_step(p, {}, lr=0.1)


# ------------------------------------------------------------- lr schedule

def test_lr_schedule_values():
    cfg = TrainConfig(lr=0.001, lr_gamma=0.3, lr_step_epochs=50)
    assert lr_schedule(0, cfg) == pytest.approx(0.001)
    assert lr_schedule(49, cfg) == pytest.approx(0.001)
    assert lr_schedule(50, cfg) == pytest.approx(0.0003)
    assert lr_schedule(100, cfg) == pytest.approx(0.00009)
    with pytest.raises(ValueError):
        lr_schedule(-1, cfg)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(lr_gamma=1.5)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)


# ---------------------------------------------------------------- training

def _toy_data(n, size, seed):
    from usdenoise.ultrasound import speckle_patches
    return speckle_patches(n, size=size, seed=seed) * 2.0 - 1.0


SMALL = UNetConfig(in_channels=1, base_channels=6, depth=1, time_embed_dim=8,
                   image_size=16)


def test_train_zero_epochs_returns_initial_params():
    sched = make_schedule(300)
    data = _toy_data(8, 16, seed=0)
    cfg = TrainConfig(epochs=0, batch_size=4, seed=1)
    params, history = train(data, sched, cfg, SMALL)
    ref = init_params(SMALL, cfg.seed)
    assert history == []
    for name in ref.tensors:
        assert np.array_equal(params.tensors[name], ref.tensors[name])


def test_train_rejects_empty_dataset():
    sched = make_schedule(300)
    with pytest.raises(ValueError):
        train(np.zeros((0, 16, 16)), sched, TrainConfig(epochs=1), SMALL)


def test_train_loss_decreases_and_is_deterministic():
    sched = make_schedule(300)
    data = _toy_data(24, 16, seed=3)
    cfg = TrainConfig(epochs=3, batch_size=8, seed=5)
    _, h1 = train(data, sched, cfg, SMALL)
    _, h2 = train(data, sched, cfg, SMALL)
    assert [r["train_mse"] for r in h1] == [r["train_mse"] for r in h2]
    assert h1[-1]["train_mse"] < h1[0]["train_mse"]


def test_checkpoint_round_trip_bit_exact(tmp_path):
    sched = make_schedule(300)
    data = _toy_data(8, 16, seed=4)
    cfg = TrainConfig(epochs=1, batch_size=4, seed=6)
    params, _ = train(data, sched, cfg, SMALL)
    p = tmp_path / "model.ckpt"
    save_model(p, params, SMALL)
    loaded, loaded_cfg = load_model(p)
    assert loaded_cfg == SMALL
    assert loaded.step == params.step
    x = np.random.default_rng(7).normal(size=(2, 1, 16, 16))
    t = np.array([5, 120])
    a, _ = unet_forward(params, SMALL, x, t)
    b, _ = unet_forward(loaded, loaded_cfg, x, t)
    assert np.array_equal(a, b)


def test_warm_start_config_mismatch(tmp_path):
    params = init_params(TINY, seed=0)
    sched = make_schedule(300)
    data = _toy_data(8, 16, seed=4)
    with pytest.raises(ValueError, match="mismatch"):
        train(data, sched, TrainConfig(epochs=1), SMALL, initial=params)


def test_warm_start_continues_from_weights(tmp_path):
    sched = make_schedule(300)
    data = _toy_data(16, 16, seed=8)
    stage1, _ = train(data, sched, TrainConfig(epochs=3, batch_size=8, seed=9),
                      SMALL)
    follow = TrainConfig(epochs=1, batch_size=8, seed=10)
    _, warm = train(data, sched, follow, SMALL, initial=stage1)
    _, cold = train(data, sched, follow, SMALL)
    # identical draws, so the difference is purely the starting weights
    assert warm[0]["train_mse"] < cold[0]["train_mse"]


def test_loss_log_format(tmp_path):
    sched = make_schedule(300)
    data = _toy_data(8, 16, seed=4)
    cfg = TrainConfig(epochs=2, batch_size=4, seed=6)
    log = tmp_path / "loss.csv"
    train(data, sched, cfg, SMALL, heldout_set=data[:4], log_path=log)
    lines = log.read_text().strip().split("\n")
    assert lines[0] == "epoch,train_mse,heldout_l1,lr"
    assert len(lines) == 3
    assert lines[1].startswith("0,")
