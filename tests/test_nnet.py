import importlib
import math
import tracemalloc

import numpy as np
import pytest

from usdenoise.diffusion import make_schedule
from usdenoise.image import NumericError
from usdenoise.nnet import (
    TrainConfig,
    UNetConfig,
    UNetParams,
    adam_step,
    heldout_l1,
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
from usdenoise.nnet import ops
from usdenoise.nnet.ops import (
    conv2d_bwd,
    conv2d_fwd,
    silu_bwd,
    silu_fwd,
    upconv2d_bwd,
    upconv2d_fwd,
)
from usdenoise.nnet.train import _as_batch_array

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
# stem-like C = 1 (GEMMs with K = 3), a head-like O = 1, a B = 4 stride 2
# and widths 1 and 2, where every pixel of a row is next to a row end
CONV_CASES = [(2, 3, 5, 6, 8, 1), (2, 3, 5, 6, 8, 2), (1, 4, 2, 5, 7, 1),
              (3, 2, 3, 4, 10, 2), (2, 1, 4, 6, 8, 1), (2, 4, 1, 6, 8, 1),
              (4, 3, 5, 6, 8, 2), (2, 3, 4, 5, 1, 1), (3, 2, 3, 4, 2, 1),
              (2, 3, 4, 6, 2, 2)]


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
UPCONV_CASES = [(2, 3, 5, 3, 4), (3, 5, 2, 4, 2), (2, 3, 4, 3, 1)]


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


def _network_layout(a):
    """a with the same values in (C, H, B, W) memory, the layout the U-Net's
    activations and gradients have."""
    return np.ascontiguousarray(a.transpose(1, 2, 0, 3)).transpose(2, 0, 1, 3)


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("shape", [(2, 3, 5, 1), (3, 2, 4, 2), (2, 3, 5, 7),
                                   (2, 1, 7, 4)])
@pytest.mark.parametrize("layout", ["network", "c-contiguous"])
def test_expand_matches_padded_reference(monkeypatch, stride, shape, layout):
    x = np.random.default_rng(9).normal(size=shape).astype(np.float32)
    if layout == "network":
        x = _network_layout(x)
    B, C, H, W = shape
    OH, OW = (H - 1) // stride + 1, (W - 1) // stride + 1
    # E[c, kx, p, q, b, ow] = xpad[b, c, stride*q + p, stride*ow + kx]; at odd
    # extents stride 2 reads one row or column past the one-pixel border
    xpad = np.pad(x, ((0, 0), (0, 0), (1, 1 + stride), (1, 1 + stride)))
    rows = stride * np.arange(OH + 2 // stride) + np.arange(stride)[:, None]
    cols = stride * np.arange(OW) + np.arange(3)[:, None]
    ref = xpad[:, :, rows[:, :, None, None], cols].transpose(1, 4, 2, 3, 0, 5)
    # E is allocated uninitialised: fill its memory with NaN so that any
    # border element left unwritten shows
    empty = np.empty

    def poisoned(*args, **kwargs):
        out = empty(*args, **kwargs)
        out.fill(np.nan)
        return out

    monkeypatch.setattr(np, "empty", poisoned)
    e = ops._expand(x, stride)
    monkeypatch.undo()
    assert e.shape == ref.shape and e.dtype == ref.dtype
    assert e.tobytes() == np.ascontiguousarray(ref).tobytes()


def _conv_bwd_by_taps(x, w, g, stride):
    """Reference gradients of ``_conv_by_taps``: one product per kernel tap."""
    OH, OW = g.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    dxp, dw = np.zeros_like(xp), np.zeros_like(w)
    for ky in range(3):
        for kx in range(3):
            window = (slice(None), slice(None),
                      slice(ky, ky + stride * OH, stride),
                      slice(kx, kx + stride * OW, stride))
            dw[:, :, ky, kx] = np.einsum("bohw,bchw->oc", g, xp[window])
            dxp[window] += np.einsum("oc,bohw->bchw", w[:, :, ky, kx], g)
    return dxp[:, :, 1:-1, 1:-1], dw, g.sum(axis=(0, 2, 3))


def _gamma(n):
    """Higham's gamma_n for float32: a float32 sum of n products, in any
    order, errs by at most gamma_n times the sum of their magnitudes."""
    u = 2.0 ** -24
    return n * u / (1 - n * u)


def _assert_float32_gradients(got, x, w, g, stride, upsample):
    """got = float32 (dx, dw, db) for float32 x, w, g; compared with the
    float64 tap loop on the same values, within gamma_n of the products'
    magnitudes, n the products each gradient element sums plus two."""
    def taps(x, w, g):
        if upsample:
            x = x.repeat(2, axis=2).repeat(2, axis=3)
        dx, dw, db = _conv_bwd_by_taps(x, w, g, stride)
        if upsample:
            B, C, H, W = dx.shape
            dx = dx.reshape(B, C, H // 2, 2, W // 2, 2).sum(axis=(3, 5))
        return dx, dw, db

    x, w, g = (a.astype(np.float64) for a in (x, w, g))
    want = taps(x, w, g)
    size = taps(np.abs(x), np.abs(w), np.abs(g))
    B, O, OH, OW = g.shape
    # dx sums 9 taps of O channels (over each 2x2 block when upsampled);
    # dw and db sum one product per output pixel
    n = {0: 9 * O * (4 if upsample else 1), 1: B * OH * OW, 2: B * OH * OW}
    for i, name in enumerate(("dx", "dw", "db")):
        assert got[i].dtype == np.float32 and got[i].shape == want[i].shape
        err = np.abs(got[i] - want[i])
        assert np.all(err <= _gamma(n[i] + 2) * size[i]), name


@pytest.mark.parametrize("case", CONV_CASES)
def test_conv2d_bwd_float32_matches_tap_loop(case):
    x, w, b, stride = _conv_case(case, seed=7)
    x, w, b = x.astype(np.float32), w.astype(np.float32), b.astype(np.float32)
    x = _network_layout(x)
    y, cache = conv2d_fwd(x, w, b, stride)
    g = np.random.default_rng(8).normal(size=y.shape).astype(np.float32)
    g = _network_layout(g)
    _assert_float32_gradients(conv2d_bwd(g, cache), x, w, g, stride,
                              upsample=False)


@pytest.mark.parametrize("case", UPCONV_CASES)
def test_upconv2d_bwd_float32_matches_tap_loop(case):
    B, C, O, H, W = case
    x, w, b, _ = _conv_case((B, C, O, H, W, 1), seed=10)
    x, w, b = x.astype(np.float32), w.astype(np.float32), b.astype(np.float32)
    x = _network_layout(x)
    y, cache = upconv2d_fwd(x, w, b)
    g = np.random.default_rng(11).normal(size=y.shape).astype(np.float32)
    g = _network_layout(g)
    _assert_float32_gradients(upconv2d_bwd(g, cache), x, w, g, 1,
                              upsample=True)


def _traced_peak(fn) -> int:
    """Peak bytes allocated while ``fn()`` runs, its result included."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("case, bound", [
    ((1, 32, 16, 64, 64, 1), 6.0), ((4, 32, 32, 32, 32, 1), 6.0),
    ((1, 16, 32, 64, 64, 2), 3.0)])
def test_conv2d_fwd_peak_allocation(case, bound):
    # the 9x im2col column matrix peaked at 10.1x the input's bytes at
    # stride 1 and 3.3x at stride 2; the 3x row-tap operand stays below
    x, w, b, stride = _conv_case(case)
    x, w, b = x.astype(np.float32), w.astype(np.float32), b.astype(np.float32)
    assert _traced_peak(lambda: conv2d_fwd(x, w, b, stride)) < bound * x.nbytes


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

    seen = _record_forward_dtypes(monkeypatch, bench)
    ckpt = tmp_path / "tiny.ckpt"
    save_model(ckpt, init_params(TINY, seed=0), TINY)
    denoiser = bench.DdpmDenoiser(ckpt)
    # float64 input: the chain casts it to float32 before the first call
    noisy = np.random.default_rng(8).uniform(-1, 1, (8, 8))
    out = denoiser(noisy, 3)
    assert out.shape == (8, 8)
    assert seen == [np.dtype(np.float32)] * 3


# ---------------------------------------------------------------- backward

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


def test_backward_consumes_its_tape():
    params = init_params(TINY, seed=2)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 1, 8, 8))
    t = np.array([2, 9])
    dy = rng.normal(size=x.shape)
    _, tape = unet_forward(params, TINY, x, t)
    g1 = unet_backward(tape, dy)
    with pytest.raises(ValueError, match="consumed"):
        unet_backward(tape, dy)
    # a fresh forward pass gives a fresh tape and the same gradients
    g2 = unet_backward(unet_forward(params, TINY, x, t)[1], dy)
    for name in g1:
        assert np.array_equal(g1[name], g2[name])


MEM = UNetConfig(image_size=32)


def _batch16():
    params = init_params(MEM, seed=0)
    x = np.random.default_rng(1).normal(size=(16, 1, 32, 32))
    return params, x.astype(np.float32), np.arange(1, 17)


def test_training_step_memory_is_one_forward_pass():
    # backward held the whole tape until it returned: 1.34x the forward
    params, x, t = _batch16()
    forward = _traced_peak(lambda: unet_forward(params, MEM, x, t))

    def step():
        eps_hat, tape = unet_forward(params, MEM, x, t)
        unet_backward(tape, mse_loss(eps_hat, x)[1])

    assert _traced_peak(step) <= 1.2 * forward


def test_heldout_l1_memory_is_one_forward_pass():
    # each batch's tape stayed alive through the next forward: 1.8x
    params, x, t = _batch16()
    forward = _traced_peak(lambda: unet_forward(params, MEM, x, t))
    heldout, sched = _toy_data(48, 32, seed=2), make_schedule(300)
    peak = _traced_peak(lambda: heldout_l1(params, MEM, heldout, sched,
                                           seed=3, batch_size=16))
    assert peak <= 1.2 * forward


def test_each_convolution_expands_one_operand_per_pass(monkeypatch):
    # a stride-1 backward takes dW and dX from the expansion of dy; when it
    # also re-expanded its taped input, backward built 30 expansions
    calls = []
    expand = ops._expand

    def spy(x, stride):
        calls.append(stride)
        return expand(x, stride)

    monkeypatch.setattr(ops, "_expand", spy)
    cfg = UNetConfig()
    params = init_params(cfg, seed=0)
    x = np.random.default_rng(3).normal(size=(2, 1, 32, 32)).astype(np.float32)
    eps_hat, tape = unet_forward(params, cfg, x, np.array([1, 2]))
    assert len(calls) == 16
    calls.clear()
    unet_backward(tape, mse_loss(eps_hat, x)[1])
    assert len(calls) == 16


def test_tape_keeps_conv_inputs_in_network_memory():
    # the expansions and the stride-1 dW read (C, H, B, W) memory in place;
    # only the stem's input is the caller's (B, C, H, W) array
    cfg = UNetConfig()
    x = np.random.default_rng(3).normal(size=(2, 1, 32, 32)).astype(np.float32)
    _, tape = unet_forward(init_params(cfg, seed=0), cfg, x, np.array([1, 2]))
    for name, entry in tape.items():
        if isinstance(entry, tuple) and name != "stem":
            assert entry[0].transpose(1, 2, 0, 3).flags.c_contiguous, name


def _tape_arrays(entry):
    if isinstance(entry, np.ndarray):
        yield entry
    elif isinstance(entry, tuple):
        for item in entry:
            yield from _tape_arrays(item)


def test_tape_holds_each_skip_once():
    # down{d} read encoder level d's output and dec{d}.conv1 a concatenated
    # copy of it: 1.57 MB of a B=16 32x32 tape held twice.  Now down{d}
    # reads the concatenation's second half, so exactly the skips are
    # shared between entries
    params, x, t = _batch16()
    _, tape = unet_forward(params, MEM, x, t)
    arrays = [a for entry in tape.values() for a in _tape_arrays(entry)]
    owners = {}
    for a in arrays:
        while isinstance(a.base, np.ndarray):
            a = a.base
        owners[id(a)] = a.nbytes
    skips = sum(16 * MEM.channels(d) * (32 >> d) ** 2 * 4
                for d in range(MEM.depth))
    assert skips == 1572864
    assert sum(owners.values()) == sum(a.nbytes for a in arrays) - skips
    for d in range(MEM.depth):
        cat = tape[f"dec{d}.conv1"][0]
        assert np.shares_memory(tape[f"down{d}"][0], cat[:, MEM.channels(d):])


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


def test_every_batch_of_every_epoch_draws_its_own_streams(monkeypatch):
    # batch 1000 of epoch 0 drew the steps and noise of batch 0 of epoch 1:
    # the index was 20_000 + 1000 * epoch + batch
    train_mod = importlib.import_module("usdenoise.nnet.train")
    streams = []
    for name in ("uniforms", "standard_normal"):
        def spy(size, seed, draw_index, real=getattr(train_mod, name)):
            streams.append((seed, draw_index))
            return real(size, seed, draw_index)
        monkeypatch.setattr(train_mod, name, spy)
    # the draws alone are under test: stand in for the network and Adam
    monkeypatch.setattr(train_mod, "unet_forward",
                        lambda params, cfg, x, t: (np.zeros_like(x), None))
    monkeypatch.setattr(train_mod, "unet_backward", lambda tape, grad: {})
    monkeypatch.setattr(train_mod, "adam_step", lambda p, grads, lr: p)
    train(np.zeros((1001, 2, 2), np.float32), make_schedule(300),
          TrainConfig(epochs=2, batch_size=1), TINY)
    # per epoch one shuffle, then per batch one step draw and one noise draw
    assert len(streams) == 2 * (1 + 2 * 1001)
    assert len(set(streams)) == len(streams)


def test_training_corrupts_every_batch_through_forward_jump(monkeypatch):
    # each network input is a forward_jump output or a slice of one
    train_mod = importlib.import_module("usdenoise.nnet.train")
    jumps, inputs = [], []

    def jump(x0, t, sched, eps, real=train_mod.forward_jump):
        jumps.append(real(x0, t, sched, eps))
        return jumps[-1]

    def forward(params, cfg, x, t, real=train_mod.unet_forward):
        inputs.append((len(jumps), x))
        return real(params, cfg, x, t)

    monkeypatch.setattr(train_mod, "forward_jump", jump)
    monkeypatch.setattr(train_mod, "unet_forward", forward)
    data = _toy_data(14, 16, seed=4)
    train(data[:8], make_schedule(300), TrainConfig(epochs=2, batch_size=4),
          SMALL, heldout_set=data[8:])
    # per epoch: two training batches, one jump each, then one jump over
    # the six held-out images, which the network sees as batches of 4 and 2
    assert [n for n, _ in inputs] == [1, 2, 3, 3, 4, 5, 6, 6]
    assert all(np.shares_memory(x, jumps[n - 1]) for n, x in inputs)
    assert sum(x.shape[0] for _, x in inputs) == 2 * (8 + 6)


def test_non_finite_dataset_raises_at_its_first_corrupted_batch():
    data = _toy_data(8, 16, seed=4)
    data[5, 3, 3] = np.nan
    with pytest.raises(NumericError, match="non-finite"):
        train(data, make_schedule(300), TrainConfig(epochs=1, batch_size=4),
              SMALL)


def test_train_divergence_raises_before_writing(tmp_path):
    # a diverging run returned NaN losses and wrote a NaN checkpoint and log
    data = _toy_data(8, 16, seed=4)
    cfg = TrainConfig(epochs=2, batch_size=4, lr=1e30, seed=6)
    with pytest.warns(RuntimeWarning), \
            pytest.raises(NumericError, match="batch 1 of epoch 0"):
        train(data, make_schedule(300), cfg, SMALL, heldout_set=data[:4],
              checkpoint_path=tmp_path / "model.ckpt",
              log_path=tmp_path / "loss_log.csv")
    assert not (tmp_path / "model.ckpt").exists()
    assert not (tmp_path / "loss_log.csv").exists()


def test_train_non_finite_heldout_l1_raises_before_writing(tmp_path,
                                                          monkeypatch):
    train_mod = importlib.import_module("usdenoise.nnet.train")
    monkeypatch.setattr(train_mod, "heldout_l1", lambda *a, **k: math.nan)
    data = _toy_data(8, 16, seed=4)
    with pytest.raises(NumericError, match="held-out L1 of epoch 0"):
        train(data, make_schedule(300), TrainConfig(epochs=1, batch_size=4),
              SMALL, heldout_set=data[:4],
              checkpoint_path=tmp_path / "model.ckpt")
    assert not (tmp_path / "model.ckpt").exists()


def test_as_batch_array_keeps_a_floating_dataset():
    data = _toy_data(4, 16, seed=4)
    assert data.dtype == np.float32
    assert np.shares_memory(_as_batch_array(data), data)
    ints = _as_batch_array(np.ones((2, 4, 4), dtype=np.uint8))
    assert ints.dtype == np.float64


def test_train_float32_set_matches_its_float64_copy(tmp_path):
    # the float32 set is not widened whole; each batch widens exactly
    data = _toy_data(12, 16, seed=4)
    cfg = TrainConfig(epochs=2, batch_size=4, seed=6)
    runs = []
    for dtype in (np.float32, np.float64):
        ckpt = tmp_path / f"{np.dtype(dtype).name}.ckpt"
        _, history = train(data[:8].astype(dtype), make_schedule(300), cfg,
                           SMALL, heldout_set=data[8:].astype(dtype),
                           checkpoint_path=ckpt)
        runs.append((ckpt.read_bytes(), [r["heldout_l1"] for r in history]))
    assert runs[0] == runs[1]


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
    # at 3 stage-1 epochs warm and cold differ by less than the draws'
    # spread (warm lost on 1 or 2 of 8 seed pairs); at 12 it won on all 16
    stage1, _ = train(data, sched,
                      TrainConfig(epochs=12, batch_size=8, seed=9), SMALL)
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
