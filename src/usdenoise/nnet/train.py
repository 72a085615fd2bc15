"""Noise-prediction training loop.

Per batch: draw one step index per item uniformly over [1, T], corrupt the
clean images with the forward jump, and minimize the MSE between the
predicted and the true noise.  Per epoch the loop records the mean train
MSE, a held-out L1 score on a frozen corruption of the validation set, and
the learning rate; the log serializes as ``epoch,train_mse,heldout_l1,lr``.

Each batch's forward and backward pass runs ``STEP_CHUNK`` samples at a
time and the gradient tables are summed, which is the batch gradient; this
bounds the activation tape of a large batch.  The chunk was 4 while the
convolutions built 9x im2col matrices, which overflowed the cache at B=16
on 32x32.  The row-tap convolutions' 3x operand does not: a 16-sample
pass beat four 4-sample passes in 8 of 10 benchmark pairs (median +0.6%
samples/s, same peak memory), so a B=16 batch now runs as one pass.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from usdenoise.diffusion import NoiseSchedule
from usdenoise.formats import read_checkpoint, write_checkpoint
from usdenoise.nnet.ops import l1_eval, mse_loss
from usdenoise.nnet.optim import TrainConfig, adam_step, lr_schedule
from usdenoise.nnet.unet import (
    UNetConfig,
    UNetParams,
    check_compatible,
    init_params,
    unet_backward,
    unet_forward,
)
from usdenoise.rng import standard_normal, uniforms

CONFIG_KEY = "__config__"
STEP_KEY = "__step__"
STEP_CHUNK = 16  # samples per forward/backward pass within one batch


def params_to_entries(params: UNetParams, cfg: UNetConfig) -> dict:
    entries = {
        CONFIG_KEY: np.array([cfg.in_channels, cfg.base_channels, cfg.depth,
                              cfg.time_embed_dim, cfg.image_size],
                             dtype=np.float32),
        STEP_KEY: np.array([params.step], dtype=np.float32),
    }
    for name, w in params.tensors.items():
        entries[f"w.{name}"] = w
    for name, w in params.m.items():
        entries[f"m.{name}"] = w
    for name, w in params.v.items():
        entries[f"v.{name}"] = w
    return entries


def entries_to_params(entries: dict) -> tuple[UNetParams, UNetConfig]:
    if CONFIG_KEY not in entries or STEP_KEY not in entries:
        raise ValueError("checkpoint lacks network configuration entries")
    ic, bc, depth, tdim, isz = (int(v) for v in entries[CONFIG_KEY])
    cfg = UNetConfig(in_channels=ic, base_channels=bc, depth=depth,
                     time_embed_dim=tdim, image_size=isz)
    params = UNetParams(step=int(entries[STEP_KEY][0]))
    for key, arr in entries.items():
        if key.startswith("w."):
            params.tensors[key[2:]] = arr
        elif key.startswith("m."):
            params.m[key[2:]] = arr
        elif key.startswith("v."):
            params.v[key[2:]] = arr
    check_compatible(params, cfg)
    if set(params.m) != set(params.tensors) or set(params.v) != set(params.tensors):
        raise ValueError("checkpoint optimizer state is incomplete")
    return params, cfg


def save_model(path, params: UNetParams, cfg: UNetConfig) -> None:
    write_checkpoint(path, params_to_entries(params, cfg))


def load_model(path) -> tuple[UNetParams, UNetConfig]:
    return entries_to_params(read_checkpoint(path))


def _as_batch_array(dataset) -> np.ndarray:
    data = np.asarray(dataset, dtype=np.float64)
    if data.ndim != 3:
        raise ValueError("dataset must be (N, H, W)")
    if data.shape[0] == 0:
        raise ValueError("empty dataset")
    return data


def _corrupt(x0: np.ndarray, t: np.ndarray, sched: NoiseSchedule,
             eps: np.ndarray) -> np.ndarray:
    """The forward jump, rounded to float32 so the network runs in float32."""
    ab = sched.alpha_bars[t - 1][:, None, None, None]
    return (np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps).astype(np.float32)


def _loss_and_grads(params: UNetParams, cfg: UNetConfig, x_t: np.ndarray,
                    t: np.ndarray, eps: np.ndarray) -> tuple[float, dict]:
    """The batch's MSE and its gradient table, ``STEP_CHUNK`` samples at a
    time: each chunk's loss gradient is scaled by its share of the batch and
    the tables are summed; the MSE is the size-weighted mean."""
    n = x_t.shape[0]
    total, grads = 0.0, None
    for lo in range(0, n, STEP_CHUNK):
        sl = slice(lo, min(lo + STEP_CHUNK, n))
        m = sl.stop - sl.start
        eps_hat, tape = unet_forward(params, cfg, x_t[sl], t[sl])
        loss, dloss = mse_loss(eps_hat, eps[sl])
        chunk = unet_backward(tape, dloss * (m / n))
        total += loss * m
        if grads is None:
            grads = chunk
        else:
            for name, g in chunk.items():
                grads[name] += g
    return total / n, grads


def heldout_l1(params: UNetParams, cfg: UNetConfig, heldout: np.ndarray,
               sched: NoiseSchedule, seed: int, batch_size: int = 16) -> float:
    """L1 noise-prediction error on a frozen corruption of the held-out set."""
    data = _as_batch_array(heldout)[:, None]
    n = data.shape[0]
    t = 1 + np.floor(uniforms(n, seed, draw_index=0) * sched.T).astype(np.int64)
    t = np.minimum(t, sched.T)
    eps = standard_normal(data.shape, seed, draw_index=1).astype(np.float64)
    x_t = _corrupt(data, t, sched, eps)
    total = 0.0
    for lo in range(0, n, batch_size):
        sl = slice(lo, min(lo + batch_size, n))
        eps_hat, _ = unet_forward(params, cfg, x_t[sl], t[sl])
        total += l1_eval(eps_hat, eps[sl]) * (sl.stop - sl.start)
    return total / n


def train(dataset, sched: NoiseSchedule, cfg: TrainConfig, net_cfg: UNetConfig,
          heldout_set=None, initial: UNetParams | None = None,
          checkpoint_path=None, log_path=None, verbose: bool = False):
    """Train the noise predictor; returns (params, history).

    ``initial`` warm-starts from existing weights (shape-checked against
    ``net_cfg``); optimizer moments restart at zero.  ``history`` rows are
    dicts with epoch, train_mse, heldout_l1, lr.
    """
    data = _as_batch_array(dataset)
    n, h, w = data.shape
    div = 1 << net_cfg.depth
    if h % div or w % div:
        raise ValueError(f"dataset images {h}x{w} not divisible by {div}")
    if initial is not None:
        check_compatible(initial, net_cfg)
        params = UNetParams(tensors={k: v.copy()
                                     for k, v in initial.tensors.items()})
        params.zero_moments()
    else:
        params = init_params(net_cfg, cfg.seed)

    history: list[dict] = []
    for epoch in range(cfg.epochs):
        lr = lr_schedule(epoch, cfg)
        order = np.argsort(uniforms(n, cfg.seed, draw_index=10_000 + epoch),
                           kind="stable")
        losses = []
        for bi, lo in enumerate(range(0, n, cfg.batch_size)):
            idx = order[lo:lo + cfg.batch_size]
            x0 = data[idx][:, None]
            draw = 20_000 + epoch * 1000 + bi
            u = uniforms(idx.size, cfg.seed, draw_index=draw)
            t = np.minimum(1 + np.floor(u * sched.T).astype(np.int64), sched.T)
            eps = standard_normal(x0.shape, cfg.seed + 1, draw_index=draw)
            eps = eps.astype(np.float64)
            x_t = _corrupt(x0, t, sched, eps)
            loss, grads = _loss_and_grads(params, net_cfg, x_t, t, eps)
            adam_step(params, grads, lr)
            losses.append(loss)
        row = {"epoch": epoch, "train_mse": float(np.mean(losses)),
               "heldout_l1": math.nan, "lr": lr}
        if heldout_set is not None:
            row["heldout_l1"] = heldout_l1(params, net_cfg, heldout_set,
                                           sched, seed=cfg.seed + 2,
                                           batch_size=cfg.batch_size)
        history.append(row)
        if verbose:
            print(f"epoch {epoch:3d}  train_mse {row['train_mse']:.5f}  "
                  f"heldout_l1 {row['heldout_l1']:.5f}  lr {lr:.2e}")

    if checkpoint_path is not None:
        save_model(checkpoint_path, params, net_cfg)
    if log_path is not None:
        write_loss_log(log_path, history)
    return params, history


def write_loss_log(path, history: list[dict]) -> None:
    lines = ["epoch,train_mse,heldout_l1,lr"]
    for row in history:
        lines.append(f"{row['epoch']},{row['train_mse']:.8f},"
                     f"{row['heldout_l1']:.8f},{row['lr']:.8g}")
    Path(path).write_text("\n".join(lines) + "\n")
