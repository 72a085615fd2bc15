"""A small U-Net noise predictor with sinusoidal time conditioning.

Topology (per down/up level): two 3x3 convolutions with SiLU activations,
the time embedding projected by a learned linear map and added as a
per-channel bias after the first convolution of every block.  Downsampling
is a stride-2 convolution, upsampling is nearest-neighbor followed by a
convolution (``upconv2d_fwd`` computes the pair at the low resolution and
never forms the upsampled tensor), and skip connections concatenate
channels.  The network is fully convolutional: any input whose extent is
divisible by 2^depth works.

Forward returns an activation tape from which ``unet_backward`` computes
exact reverse-mode gradients for every parameter; no autograd involved.
Backward consumes its tape: it drops each activation as soon as it has
read it, so the tape's memory falls as the gradients are computed, and a
second backward over the same tape raises ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from usdenoise.nnet.ops import (
    conv2d_bwd,
    conv2d_fwd,
    silu_bwd,
    silu_fwd,
    upconv2d_bwd,
    upconv2d_fwd,
)
from usdenoise.rng import stream, uniforms


@dataclass(frozen=True)
class UNetConfig:
    in_channels: int = 1
    base_channels: int = 16
    depth: int = 2
    time_embed_dim: int = 32
    image_size: int = 32

    def __post_init__(self):
        if min(self.in_channels, self.base_channels, self.depth,
               self.time_embed_dim, self.image_size) < 1:
            raise ValueError("all network size parameters must be >= 1")
        if self.time_embed_dim % 2:
            raise ValueError("time embedding dimension must be even")
        if (self.depth >= self.image_size.bit_length()
                or self.image_size % (1 << self.depth)):
            raise ValueError(f"image size {self.image_size} not divisible "
                             f"by 2^depth = 2^{self.depth}")

    def channels(self, level: int) -> int:
        return self.base_channels * (1 << level)


@dataclass
class UNetParams:
    """Named weight tensors plus Adam moment tables and a step counter.

    All tensors are float32 so that checkpoint serialization (float32
    payloads) round-trips bit-exactly.
    """

    tensors: dict = field(default_factory=dict)
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0

    def zero_moments(self):
        for name, w in self.tensors.items():
            self.m[name] = np.zeros_like(w)
            self.v[name] = np.zeros_like(w)
        self.step = 0


def time_embed(t: int, dim: int) -> np.ndarray:
    """Sinusoidal embedding: e[2k] = sin(t / 10000^(2k/dim)), e[2k+1] = cos."""
    if dim % 2:
        raise ValueError("embedding dimension must be even")
    k = np.arange(dim // 2, dtype=np.float64)
    angle = float(t) / np.power(10000.0, 2.0 * k / dim)
    out = np.empty(dim, dtype=np.float64)
    out[0::2] = np.sin(angle)
    out[1::2] = np.cos(angle)
    return out


def _param_shapes(cfg: UNetConfig) -> dict:
    """The full name -> shape table, in construction order."""
    shapes: dict[str, tuple] = {}

    def conv(name, c_out, c_in):
        shapes[f"{name}.w"] = (c_out, c_in, 3, 3)
        shapes[f"{name}.b"] = (c_out,)

    def block(name, c_in, c):
        conv(f"{name}.conv1", c, c_in)
        shapes[f"{name}.time.w"] = (c, cfg.time_embed_dim)
        shapes[f"{name}.time.b"] = (c,)
        conv(f"{name}.conv2", c, c)

    conv("stem", cfg.channels(0), cfg.in_channels)
    for d in range(cfg.depth):
        block(f"enc{d}", cfg.channels(d), cfg.channels(d))
        conv(f"down{d}", cfg.channels(d + 1), cfg.channels(d))
    block("mid", cfg.channels(cfg.depth), cfg.channels(cfg.depth))
    for d in reversed(range(cfg.depth)):
        conv(f"up{d}", cfg.channels(d), cfg.channels(d + 1))
        block(f"dec{d}", 2 * cfg.channels(d), cfg.channels(d))
    conv("head", cfg.in_channels, cfg.channels(0))
    return shapes


def init_params(cfg: UNetConfig, seed: int = 0) -> UNetParams:
    """Uniform(-sqrt(1/fan_in), +sqrt(1/fan_in)) weights, zero biases."""
    params = UNetParams()
    for name, shape in _param_shapes(cfg).items():
        if name.endswith(".b"):
            w = np.zeros(shape, dtype=np.float32)
        else:
            fan_in = int(np.prod(shape[1:]))
            bound = math.sqrt(1.0 / fan_in)
            u = uniforms(math.prod(shape), seed, stream("unet.init " + name))
            w = ((2.0 * u - 1.0) * bound).astype(np.float32).reshape(shape)
        params.tensors[name] = w
    params.zero_moments()
    return params


def check_compatible(params: UNetParams, cfg: UNetConfig):
    """Raise if the parameter table does not match the config's template."""
    expected = _param_shapes(cfg)
    if set(params.tensors) != set(expected):
        raise ValueError("checkpoint/config mismatch: parameter names differ "
                         f"at {min(set(params.tensors) ^ set(expected))}")
    for name, shape in expected.items():
        if params.tensors[name].shape != shape:
            raise ValueError(f"checkpoint/config mismatch: {name} has shape "
                             f"{params.tensors[name].shape}, expected {shape}")


def unet_forward(params: UNetParams, cfg: UNetConfig, x: np.ndarray,
                 t: np.ndarray):
    """Predict the per-pixel noise for a batch.

    ``x`` is (B, in_channels, H, W) with H and W divisible by 2^depth;
    ``t`` holds one step index per batch item.  Returns ``(eps_hat, tape)``
    where the tape carries every intermediate needed for exact gradients.

    The pass runs in the floating dtype of ``x``,
    ``np.result_type(x.dtype, np.float32)``: float32 input (training and
    sampling) computes and returns float32 without copying the float32
    parameters, float64 input (the finite-difference gradient checks)
    computes and returns float64.
    """
    check_compatible(params, cfg)
    x = np.asarray(x)
    dt = np.result_type(x.dtype, np.float32)
    x = x.astype(dt, copy=False)
    t = np.atleast_1d(np.asarray(t, dtype=np.int64))
    B, C, H, W = x.shape
    if C != cfg.in_channels:
        raise ValueError(f"expected {cfg.in_channels} input channels, got {C}")
    if t.shape != (B,):
        raise ValueError(f"need one step index per batch item, got {t.shape}")
    div = 1 << cfg.depth
    if H % div or W % div:
        raise ValueError(f"input extent {H}x{W} not divisible by {div}")

    p = {k: v.astype(dt, copy=False) for k, v in params.tensors.items()}
    emb = np.stack([time_embed(int(ti), cfg.time_embed_dim)
                    for ti in t]).astype(dt)
    tape: dict = {"emb": emb, "cfg": cfg, "params": params,
                  "params_step": params.step}

    def block(name, h, out=None):
        h, tape[f"{name}.conv1"] = conv2d_fwd(h, p[f"{name}.conv1.w"],
                                              p[f"{name}.conv1.b"])
        # added in place, so h keeps the conv output's (C, H, B, W) memory
        tb = emb @ p[f"{name}.time.w"].T + p[f"{name}.time.b"]
        h += tb[:, :, None, None]
        h, tape[f"{name}.act1"] = silu_fwd(h)
        h, tape[f"{name}.conv2"] = conv2d_fwd(h, p[f"{name}.conv2.w"], p[f"{name}.conv2.b"])
        h, tape[f"{name}.act2"] = silu_fwd(h, out=out)
        return h

    h, tape["stem"] = conv2d_fwd(x, p["stem.w"], p["stem.b"])
    # decoder level d reads the upsampled map and encoder level d's output
    # concatenated in (2C, H, B, W) memory, the layout the convs read; both
    # are written there, and down{d} reads the second half in place, so the
    # tape holds each skip once
    cats = []
    for d in range(cfg.depth):
        c = cfg.channels(d)
        cats.append(np.empty((2 * c, h.shape[2], B, h.shape[3]), dtype=dt))
        h = block(f"enc{d}", h, out=cats[d][c:].transpose(2, 0, 1, 3))
        h, tape[f"down{d}"] = conv2d_fwd(h, p[f"down{d}.w"], p[f"down{d}.b"],
                                         stride=2)
    h = block("mid", h)
    for d in reversed(range(cfg.depth)):
        _, tape[f"up{d}"] = upconv2d_fwd(h, p[f"up{d}.w"], p[f"up{d}.b"],
                                         out=cats[d][:cfg.channels(d)])
        h = block(f"dec{d}", cats[d].transpose(2, 0, 1, 3))
    eps_hat, tape["head"] = conv2d_fwd(h, p["head.w"], p["head.b"])
    return eps_hat, tape


def unet_backward(tape: dict, dloss_deps_hat: np.ndarray) -> dict:
    """Exact gradients of the forward pass; keys match the parameter table.

    The tape must come from a forward run against the current parameters;
    updating the parameters invalidates outstanding tapes.  Backward
    consumes the tape: it removes each activation entry as it reads it, so
    the memory of each is freed once its layer's gradients are computed,
    and a second call on the same tape raises ``ValueError``.  The
    gradients take the dtype the forward pass ran in, and the upstream
    gradient is cast to it.
    """
    cfg: UNetConfig = tape["cfg"]
    if tape["params"].step != tape["params_step"]:
        raise ValueError("stale tape: parameters were updated after forward")
    if "head" not in tape:                   # the first entry backward pops
        raise ValueError("consumed tape: unet_backward already ran on it")
    emb = tape["emb"]
    grads: dict[str, np.ndarray] = {}

    def conv_back(name, dy):
        dx, dw, db = conv2d_bwd(dy, tape.pop(name))
        grads[f"{name}.w"] = dw
        grads[f"{name}.b"] = db
        return dx

    def block_back(name, dy):
        dy = silu_bwd(dy, tape.pop(f"{name}.act2"))
        dy = silu_bwd(conv_back(f"{name}.conv2", dy),
                      tape.pop(f"{name}.act1"))
        dbias = dy.sum(axis=(2, 3))                  # (B, C)
        grads[f"{name}.time.w"] = dbias.T @ emb
        grads[f"{name}.time.b"] = dbias.sum(axis=0)
        return conv_back(f"{name}.conv1", dy)

    dy = np.asarray(dloss_deps_hat, dtype=emb.dtype)
    dy = conv_back("head", dy)
    dskips = {}
    for d in range(cfg.depth):
        dy = block_back(f"dec{d}", dy)
        c = cfg.channels(d)
        dskips[d] = dy[:, c:]
        dy, grads[f"up{d}.w"], grads[f"up{d}.b"] = upconv2d_bwd(
            dy[:, :c], tape.pop(f"up{d}"))
    dy = block_back("mid", dy)
    for d in reversed(range(cfg.depth)):
        dy = conv_back(f"down{d}", dy)
        dy = dy + dskips[d]
        dy = block_back(f"enc{d}", dy)
    conv_back("stem", dy)
    return grads
