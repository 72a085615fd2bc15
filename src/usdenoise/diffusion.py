"""Variance schedule plus the forward (corruption) and reverse (denoising)
Markov processes, on signed images: plain float32 (H, W) arrays scaled
to [-1, 1] (``image.to_signed``).

Step indices are 1-based integers: ``t`` runs over ``1..T`` and ``x_0`` is
the clean image.  The reverse step is the DDPM posterior step (Ho et al.
2020, Algorithm 2) from step t to any earlier step s, by one rule:

    x_s = (x_t - (1-a')/sqrt(1-abar_t) * eps_hat)/sqrt(a') + sqrt(b') * z,
    a' = abar_t/abar_s (abar_0 = 1),  b' = 1 - a'

For s = t-1 this is the one-step chain, and its float32 coefficients equal
those of a' = a_t and b' = b_t at every step of the default schedule.  A
chain that visits an evenly spaced subsequence of the steps is the
respacing of Nichol & Dhariwal (2021).  At s = 0, fed the exact noise, the
step algebraically inverts the forward jump.  The injected noise z is zero
at s = 0 and whenever no injected noise is supplied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from usdenoise.image import finite32
from usdenoise.rng import standard_normal, stream

DEFAULT_T = 300
DEFAULT_BETA = 1.0 / 300.0
DEFAULT_STEPS = 5      # network calls per chain, the sampler's default


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step variances b_t with derived a_t = 1 - b_t and cumulative
    products abar_t = prod_{s<=t} a_s (1-based indexing)."""

    betas: np.ndarray

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=np.float64)
        if betas.ndim != 1 or betas.size < 1:
            raise ValueError("schedule needs at least one step")
        if not np.all((betas > 0.0) & (betas < 1.0)):
            raise ValueError("every per-step variance must lie in (0, 1)")
        object.__setattr__(self, "betas", betas)
        alphas = 1.0 - betas
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "alpha_bars", np.cumprod(alphas))

    @property
    def T(self) -> int:
        return self.betas.size

    def _check_t(self, t):
        t = _integer(t, "step index t")
        if not np.all((1 <= t) & (t <= self.T)):
            raise ValueError(f"step index t={t} outside 1..{self.T}")
        return t

    def alpha_bar(self, t: int) -> float:
        return float(self.alpha_bars[self._check_t(t) - 1])


def make_schedule(T: int = DEFAULT_T, beta: float = DEFAULT_BETA) -> NoiseSchedule:
    """Build a schedule of ``T`` steps that all have the variance ``beta``."""
    T = int(T)
    if T < 1:
        raise ValueError("T must be at least 1")
    return NoiseSchedule(np.full(T, float(beta), dtype=np.float64))


def _integer(value, name: str):
    """An integer as int, an integer array as int64; else ``ValueError``."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iu" and not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return arr.astype(np.int64) if arr.ndim else int(arr)


def _noise_array(eps, shape) -> np.ndarray:
    """The noise array ``eps`` as float32, or zero noise for ``None``;
    its samples must be finite and its shape the image's."""
    if eps is None:
        return np.zeros(shape, dtype=np.float32)
    arr = finite32(eps)
    if arr.shape != tuple(shape):
        raise ValueError(f"noise shape {arr.shape} does not match image {tuple(shape)}")
    return arr


def forward_step(x_prev: np.ndarray, t: int, sched: NoiseSchedule,
                 eps=None) -> np.ndarray:
    """One corruption step, sqrt(a_t) * x_prev + sqrt(1-a_t) * eps: the
    forward jump of the one-step schedule b_t."""
    t = sched._check_t(t)
    return forward_jump(x_prev, 1, NoiseSchedule(sched.betas[t - 1:t]), eps)


def forward_jump(x0: np.ndarray, t, sched: NoiseSchedule,
                 eps=None) -> np.ndarray:
    """Jump straight to step t: sqrt(abar_t) * x0 + sqrt(1-abar_t) * eps,
    in float64 and rounded once to float32.  ``t`` is one step index or an
    integer array of one per item along the leading axes of ``x0``; a step
    that is not an integer in 1..T, or an array of another shape, raises
    ``ValueError``."""
    t = sched._check_t(t)
    if np.shape(t) != x0.shape[:np.ndim(t)]:
        raise ValueError(f"steps of shape {np.shape(t)} do not lead {x0.shape}")
    e = _noise_array(eps, x0.shape)
    ab = sched.alpha_bars[t - 1]
    ab = ab.reshape(ab.shape + (1,) * (x0.ndim - ab.ndim))
    return finite32(np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * e)


def reverse_step(x_t: np.ndarray, t: int, eps_hat, sched: NoiseSchedule,
                 inject=None, *, s: int | None = None) -> np.ndarray:
    """One denoising step from x_t to x_s (default s = t-1) given predicted
    noise."""
    t = sched._check_t(t)
    s = t - 1 if s is None else _integer(s, "reverse step target s")
    if not 0 <= s < t:
        raise ValueError(f"reverse step target s={s} outside 0..{t - 1}")
    ab = sched.alpha_bar(t)
    a = ab / (sched.alpha_bar(s) if s else 1.0)
    e = _noise_array(eps_hat, x_t.shape)
    # a degenerate schedule (1 - abar_t == 0) or a diverging chain gives
    # inf or NaN here; finite32 rejects it with NumericError, so no warning
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        coef = (1.0 - a) / np.sqrt(1.0 - ab)
        out = (x_t - np.float32(coef) * e) / np.float32(np.sqrt(a))
        if inject is not None and s > 0:
            z = _noise_array(inject, x_t.shape)
            out = out + np.float32(np.sqrt(1.0 - a)) * z
    return finite32(out)


def denoise_from(x_noisy: np.ndarray, t_start: int, predictor,
                 sched: NoiseSchedule, inject_seed: int | None = None,
                 steps: int | None = None) -> np.ndarray:
    """Run reverse steps from t_start to 0, one predictor call per step.

    The chain visits ``steps`` evenly spaced integer steps from t_start
    down to 0 (t_start*k//steps for k = steps..1), or every step when
    ``steps`` is None or at least t_start; a count below 1 or a fractional
    one raises ``ValueError``.  ``predictor(x: ndarray, t: int) -> ndarray``
    supplies the per-step noise estimate from the float32 chain state.  A
    non-finite sample in ``x_noisy``, in a noise estimate or in any step's
    output raises ``NumericError``.  When ``inject_seed`` is given, a fresh
    reproducible noise field is injected at every step except the last,
    the step from t drawing ``(inject_seed, stream("inject", t))``.  An
    exception the predictor raises propagates unchanged.
    """
    t_start = sched._check_t(t_start)
    steps = t_start if steps is None else _integer(steps, "steps")
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    steps = min(steps, t_start)
    ts = [t_start * k // steps for k in range(steps, 0, -1)]
    x = finite32(x_noisy)
    for t, s in zip(ts, ts[1:] + [0]):
        eps_hat = predictor(x, t)
        inject = (standard_normal(x.shape, inject_seed, stream("inject", t))
                  if inject_seed is not None and s > 0 else None)
        x = reverse_step(x, t, eps_hat, sched, inject, s=s)
    return x
