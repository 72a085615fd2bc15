"""Array primitives for the noise-prediction network.

Parameters are stored float32 (so checkpoints round-trip bit-exactly) but
all arithmetic here runs in float64: central finite differences at delta =
1e-3 need the extra headroom to certify gradients to 1e-3 relative error.

Convolutions are im2col + one BLAS matmul, laid out channel-major: the
column matrix is (C*3*3, B*OH*OW), filled by nine shifted slice copies of a
zero-padded (C, B, H+2, W+2) copy of the input, so every copy runs along
contiguous rows.  The forward output is the (O, B, OH, OW) matmul result
returned as a (B, O, OH, OW) view; elementwise ops keep that layout, so the
next layer's channel-major copy reads contiguous memory again.

The backward pass rebuilds the column matrix for dW instead of keeping it
on the tape: for the default U-Net at B=16 on 32x32 the column matrices of
one forward pass total about 235 MB, as much again as the whole training
run's peak resident memory.  dX is the transposed convolution: the same
forward convolution of dY with every kernel flipped in both spatial axes
and the in/out channels swapped.  For stride 2, dY is first scattered onto
the even pixels of a zero (H, W) grid, which makes it exact.
"""

from __future__ import annotations

import numpy as np


def _im2col(x: np.ndarray, stride: int) -> np.ndarray:
    """(C*3*3, B*OH*OW) columns of the 3x3 same-padded windows of x."""
    B, C, H, W = x.shape
    OH, OW = (H - 1) // stride + 1, (W - 1) // stride + 1
    xp = np.zeros((C, B, H + 2, W + 2))
    xp[:, :, 1:-1, 1:-1] = x.transpose(1, 0, 2, 3)
    cols = np.empty((C, 3, 3, B, OH, OW))
    for ky in range(3):
        for kx in range(3):
            cols[:, ky, kx] = xp[:, :, ky:ky + stride * OH:stride,
                                 kx:kx + stride * OW:stride]
    return cols.reshape(C * 9, B * OH * OW)


def _conv(x: np.ndarray, w: np.ndarray, stride: int) -> np.ndarray:
    """Bias-free 3x3 same-padding convolution, channel-major (O, B, OH, OW)."""
    B, C, H, W = x.shape
    O, C2 = w.shape[:2]
    if C2 != C:
        raise ValueError(f"weight expects {C2} channels, input has {C}")
    y = w.reshape(O, -1) @ _im2col(x, stride)
    return y.reshape(O, B, (H - 1) // stride + 1, (W - 1) // stride + 1)


def conv2d_fwd(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int = 1):
    """3x3 same-padding convolution; returns (y, cache).

    x is (B, C, H, W); w is (O, C, 3, 3).  stride 2 halves the spatial size
    (inputs must have even extent in that case).
    """
    y = _conv(x, w, stride)
    y += b[:, None, None, None]
    return y.transpose(1, 0, 2, 3), (x, w, stride)


def conv2d_bwd(dy: np.ndarray, cache):
    """Gradients of conv2d_fwd; returns (dx, dw, db)."""
    x, w, stride = cache
    B, _, H, W = x.shape
    O = w.shape[0]
    dy_cm = dy.transpose(1, 0, 2, 3)
    dw = (dy_cm.reshape(O, -1) @ _im2col(x, stride).T).reshape(w.shape)
    db = dy.sum(axis=(0, 2, 3))
    if stride > 1:
        up = np.zeros((O, B, H, W))
        up[:, :, ::stride, ::stride] = dy_cm
        dy_cm = up
    w_t = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    dx = _conv(dy_cm.transpose(1, 0, 2, 3), w_t, 1)
    return dx.transpose(1, 0, 2, 3), dw, db


def silu_fwd(x: np.ndarray):
    s = 1.0 / (1.0 + np.exp(-x))
    return x * s, x


def silu_bwd(dy: np.ndarray, x: np.ndarray):
    s = 1.0 / (1.0 + np.exp(-x))
    return dy * s * (1.0 + x * (1.0 - s))


def upsample2_fwd(x: np.ndarray):
    """Nearest-neighbor 2x upsampling."""
    return x.repeat(2, axis=2).repeat(2, axis=3)


def upsample2_bwd(dy: np.ndarray):
    B, C, H2, W2 = dy.shape
    return dy.reshape(B, C, H2 // 2, 2, W2 // 2, 2).sum(axis=(3, 5))


def mse_loss(eps_hat: np.ndarray, eps: np.ndarray):
    """Mean squared error and its gradient wrt the prediction."""
    if eps_hat.shape != eps.shape:
        raise ValueError(f"shape mismatch: {eps_hat.shape} vs {eps.shape}")
    diff = eps_hat.astype(np.float64) - eps.astype(np.float64)
    loss = float(np.mean(diff * diff))
    return loss, 2.0 * diff / diff.size


def l1_eval(eps_hat: np.ndarray, eps: np.ndarray) -> float:
    """Mean absolute error (evaluation only, no gradient)."""
    if eps_hat.shape != eps.shape:
        raise ValueError(f"shape mismatch: {eps_hat.shape} vs {eps.shape}")
    return float(np.mean(np.abs(eps_hat.astype(np.float64) - eps)))
