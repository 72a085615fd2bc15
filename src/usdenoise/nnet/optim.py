"""Adam optimizer and stepwise learning-rate decay."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from usdenoise.nnet.unet import UNetParams

# Adam's moment decay rates and denominator guard
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 16
    lr: float = 1e-3
    lr_gamma: float = 0.3
    lr_step_epochs: int = 50
    epochs: int = 30
    seed: int = 0

    def __post_init__(self):
        if not (self.lr > 0 and np.isfinite(self.lr)):
            raise ValueError("learning rate must be positive and finite")
        if not 0.0 < self.lr_gamma <= 1.0:
            raise ValueError("lr decay factor must lie in (0, 1]")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.epochs < 0 or self.lr_step_epochs < 1:
            raise ValueError("bad epoch counts")


def lr_schedule(epoch: int, cfg: TrainConfig) -> float:
    """Step decay: lr * gamma^floor(epoch / step_epochs)."""
    if epoch < 0:
        raise ValueError("epoch must be non-negative")
    return cfg.lr * cfg.lr_gamma ** (epoch // cfg.lr_step_epochs)


def adam_step(params: UNetParams, grads: dict, lr: float) -> UNetParams:
    """Bias-corrected Adam update, in place; increments the step counter.

    Moments are kept float32 alongside the weights (arithmetic in float64)
    so the whole optimizer state serializes bit-exactly.
    """
    for name in params.tensors:
        if name not in grads:
            raise KeyError(f"missing gradient for parameter {name!r}")
    params.step += 1
    t = params.step
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name, w in params.tensors.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != w.shape:
            raise ValueError(f"gradient for {name!r} has shape {g.shape}, "
                             f"parameter is {w.shape}")
        m = BETA1 * params.m[name].astype(np.float64) + (1 - BETA1) * g
        v = BETA2 * params.v[name].astype(np.float64) + (1 - BETA2) * g * g
        update = lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
        params.tensors[name] = (w.astype(np.float64) - update).astype(np.float32)
        params.m[name] = m.astype(np.float32)
        params.v[name] = v.astype(np.float32)
    return params
