"""Noise-prediction training loop.

Per batch: draw one step index per item uniformly over [1, T], corrupt the
clean images with ``diffusion.forward_jump`` (float64, rounded once to the
network's float32), and minimize the MSE between the predicted and the true
noise.  Per epoch the loop records the mean train MSE, a held-out L1 score
on a frozen corruption of the validation set, and the learning rate; the
log serializes as ``epoch,train_mse,heldout_l1,lr``.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np

from usdenoise.diffusion import NoiseSchedule, forward_jump
from usdenoise.formats import HeaderError, read_checkpoint, write_checkpoint
from usdenoise.image import NumericError
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
from usdenoise.rng import standard_normal, stream, uniforms

CONFIG_KEY = "__config__"
STEP_KEY = "__step__"


def _tables(params: UNetParams) -> dict:
    """Each checkpoint entry-name prefix with the table it holds."""
    return {"w.": params.tensors, "m.": params.m, "v.": params.v}


def params_to_entries(params: UNetParams, cfg: UNetConfig) -> dict:
    entries = {
        CONFIG_KEY: np.array(dataclasses.astuple(cfg), dtype=np.float32),
        STEP_KEY: np.array([params.step], dtype=np.float32),
    }
    for prefix, table in _tables(params).items():
        entries.update({prefix + name: w for name, w in table.items()})
    return entries


def _counts(entries: dict, key: str, size: int) -> list[int]:
    """Entry ``key`` as ``size`` non-negative integers."""
    if key not in entries:
        raise HeaderError(f"checkpoint lacks the {key} entry")
    values = entries[key].ravel().tolist()
    if len(values) != size or not all(
            math.isfinite(v) and v >= 0 and v == int(v) for v in values):
        raise HeaderError(f"checkpoint entry {key} holds {values}, expected "
                          f"{size} non-negative integer(s)")
    return [int(v) for v in values]


def entries_to_params(entries: dict) -> tuple[UNetParams, UNetConfig]:
    """The model in a checkpoint's table; ``HeaderError``, naming the entry,
    when the table is not a well-formed model."""
    params = UNetParams(step=_counts(entries, STEP_KEY, 1)[0])
    tables = _tables(params)
    for key, arr in entries.items():
        if key[:2] in tables:
            tables[key[:2]][key[2:]] = arr
    try:    # an invalid config, or tensors that do not fit it
        cfg = UNetConfig(*_counts(entries, CONFIG_KEY, 5))
        check_compatible(params, cfg)
    except ValueError as exc:
        raise HeaderError(f"checkpoint entry {CONFIG_KEY}: {exc}") from None
    unpaired = [prefix + name for prefix in ("m.", "v.")
                for name in sorted(set(tables[prefix]) ^ set(params.tensors))]
    if unpaired:
        raise HeaderError(f"optimizer state incomplete at {unpaired[0]}")
    return params, cfg


def save_model(path, params: UNetParams, cfg: UNetConfig) -> None:
    write_checkpoint(path, params_to_entries(params, cfg))


def load_model(path) -> tuple[UNetParams, UNetConfig]:
    return entries_to_params(read_checkpoint(path))


def _as_batch_array(dataset) -> np.ndarray:
    """The dataset as an (N, H, W) array.  A floating array is used as it
    is, not copied; anything else becomes float64."""
    data = np.asarray(dataset)
    if not np.issubdtype(data.dtype, np.floating):
        data = data.astype(np.float64)
    if data.ndim != 3:
        raise ValueError("dataset must be (N, H, W)")
    if data.shape[0] == 0:
        raise ValueError("empty dataset")
    return data


def heldout_l1(params: UNetParams, cfg: UNetConfig, heldout: np.ndarray,
               sched: NoiseSchedule, seed: int, batch_size: int = 16) -> float:
    """L1 noise-prediction error on a frozen corruption of the held-out set."""
    data = _as_batch_array(heldout)[:, None]
    n = data.shape[0]
    u = uniforms(n, seed, stream("heldout.t"))
    t = np.minimum(1 + np.floor(u * sched.T).astype(np.int64), sched.T)
    eps = standard_normal(data.shape, seed, stream("heldout.noise"))
    x_t = forward_jump(data, t, sched, eps)
    total = 0.0
    for lo in range(0, n, batch_size):
        sl = slice(lo, min(lo + batch_size, n))
        eps_hat = unet_forward(params, cfg, x_t[sl], t[sl])[0]
        total += l1_eval(eps_hat, eps[sl]) * (sl.stop - sl.start)
    return total / n


def train(dataset, sched: NoiseSchedule, cfg: TrainConfig, net_cfg: UNetConfig,
          heldout_set=None, initial: UNetParams | None = None,
          checkpoint_path=None, log_path=None, verbose: bool = False):
    """Train the noise predictor; returns (params, history).

    ``initial`` warm-starts from existing weights (shape-checked against
    ``net_cfg``); optimizer moments restart at zero.  ``history`` rows are
    dicts with epoch, train_mse, heldout_l1, lr.  A non-finite corrupted
    batch, batch loss or held-out L1 raises ``NumericError`` before any
    checkpoint or log is written.
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
        order = np.argsort(uniforms(n, cfg.seed, stream("train.order", epoch)),
                           kind="stable")
        losses = []
        for bi, lo in enumerate(range(0, n, cfg.batch_size)):
            idx = order[lo:lo + cfg.batch_size]
            x0 = data[idx][:, None]
            u = uniforms(idx.size, cfg.seed, stream("train.t", epoch, bi))
            t = np.minimum(1 + np.floor(u * sched.T).astype(np.int64), sched.T)
            eps = standard_normal(x0.shape, cfg.seed,
                                  stream("train.noise", epoch, bi))
            x_t = forward_jump(x0, t, sched, eps)
            eps_hat, tape = unet_forward(params, net_cfg, x_t, t)
            loss, dloss = mse_loss(eps_hat, eps)
            grads = unet_backward(tape, dloss)
            if not math.isfinite(loss):
                raise NumericError(f"training diverged: batch {bi} of epoch "
                                   f"{epoch} has loss {loss}")
            adam_step(params, grads, lr)
            losses.append(loss)
        row = {"epoch": epoch, "train_mse": float(np.mean(losses)),
               "heldout_l1": math.nan, "lr": lr}
        if heldout_set is not None:
            row["heldout_l1"] = heldout_l1(params, net_cfg, heldout_set,
                                           sched, seed=cfg.seed,
                                           batch_size=cfg.batch_size)
            if not math.isfinite(row["heldout_l1"]):
                raise NumericError(f"training diverged: held-out L1 of epoch "
                                   f"{epoch} is {row['heldout_l1']}")
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
