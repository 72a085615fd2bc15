"""Array primitives for the noise-prediction network.

Every primitive computes in the floating dtype of the arrays it is given
and returns that dtype; every buffer it allocates takes the input's dtype,
so float32 in means float32 arithmetic throughout and nothing upcasts
silently.  Parameters are stored float32 (so checkpoints round-trip
bit-exactly); the U-Net casts them to its input's dtype.  Training and
sampling run in float32, which doubles the GEMM throughput.  Float64 stays
available, by passing float64 input, for the finite-difference gradient
checks: central differences at delta = 1e-3 need its headroom to certify
gradients to 1e-3 relative error.

Convolutions are im2col + one BLAS matmul, laid out channel-major: the
column matrix is (C*3*3, B*OH*OW), filled by nine shifted slice copies of a
zero-padded (C, B, H+2, W+2) copy of the input, so every copy runs along
contiguous rows.  The forward output is the (O, B, OH, OW) matmul result
returned as a (B, O, OH, OW) view; elementwise ops keep that layout, so the
next layer's channel-major copy reads contiguous memory again.

The backward pass rebuilds the column matrix for dW instead of keeping it
on the tape: for the default U-Net at B=16 on 32x32 the column matrices of
one forward pass total about 235 MB in float64 and half that in float32,
against a training run's peak resident memory of about 230 MB.  At stride
1, dX is the transposed convolution: the same forward convolution of dY
with every kernel flipped in both spatial axes and the in/out channels
swapped.  At stride 2 that convolution would run over a dY grid that is
three quarters zeros, so dX is instead one matmul W^T dY, giving each
input window's nine tap gradients, followed by nine stride-2 adds into a
zero-padded buffer.

Upsampling is never materialised.  The decoder's nearest-neighbour 2x
upsampling followed by a 3x3 convolution (a resize-convolution) is computed
at the low resolution as a sub-pixel convolution: output row 2i + p reads,
through kernel tap k, the input row i + floor((p + k - 1) / 2), so along
each axis parity p = 0 sees the taps (w0 | w1 + w2 | 0) at input offsets
(-1, 0, +1) and parity p = 1 sees (0 | w0 + w1 | w2).  The four parity
kernels are folded from W by one matmul with a constant 0/1 matrix,
stacked into one (4*O, C, 3, 3) stride-1 convolution of the low-resolution
input, and its channels are interleaved into the (B, O, 2H, 2W) output.
The flops are those of the full-resolution convolution, but the column
matrix is 4x smaller, the GEMM has 4*O rows and the tape keeps the
low-resolution input.  The backward pass de-interleaves dY, runs the
convolution's backward and folds dW back with the transposed matrix.
"""

from __future__ import annotations

import numpy as np

# _TAPS[p, k, j] = 1 where tap k of a kernel over the 2x-upsampled input
# lands on tap j of the kernel over the input itself, for output parity p
_TAPS = np.array([[[1, 0, 0], [0, 1, 0], [0, 1, 0]],
                  [[0, 1, 0], [0, 1, 0], [0, 0, 1]]], dtype=np.float64)
# (ky*3 + kx) -> ((py*2 + px)*9 + jy*3 + jx): the four folded 3x3 kernels
_FOLD = np.einsum("pkj,qlm->klpqjm", _TAPS, _TAPS).reshape(9, 36)


def _im2col(x: np.ndarray, stride: int) -> np.ndarray:
    """(C*3*3, B*OH*OW) columns of the 3x3 same-padded windows of x."""
    B, C, H, W = x.shape
    OH, OW = (H - 1) // stride + 1, (W - 1) // stride + 1
    xp = np.zeros((C, B, H + 2, W + 2), dtype=x.dtype)
    xp[:, :, 1:-1, 1:-1] = x.transpose(1, 0, 2, 3)
    cols = np.empty((C, 3, 3, B, OH, OW), dtype=x.dtype)
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
    B, C, H, W = x.shape
    O = w.shape[0]
    dy_mat = dy.transpose(1, 0, 2, 3).reshape(O, -1)
    dw = (dy_mat @ _im2col(x, stride).T).reshape(w.shape)
    db = dy.sum(axis=(0, 2, 3))
    if stride == 1:
        w_t = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        dx = _conv(dy, w_t, 1)
    else:
        OH, OW = dy.shape[2:]
        taps = (w.reshape(O, C * 9).T @ dy_mat).reshape(C, 3, 3, B, OH, OW)
        dxp = np.zeros((C, B, H + 2, W + 2), dtype=taps.dtype)
        for ky in range(3):
            for kx in range(3):
                dxp[:, :, ky:ky + stride * OH:stride,
                    kx:kx + stride * OW:stride] += taps[:, ky, kx]
        dx = dxp[:, :, 1:-1, 1:-1]
    return dx.transpose(1, 0, 2, 3), dw, db


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) as 0.5 (1 + tanh(x / 2)), which cannot overflow."""
    s = np.tanh(x * 0.5)
    s += 1.0
    s *= 0.5
    return s


def silu_fwd(x: np.ndarray):
    return x * _sigmoid(x), x


def silu_bwd(dy: np.ndarray, x: np.ndarray):
    s = _sigmoid(x)
    return dy * s * (1.0 + x * (1.0 - s))


def upconv2d_fwd(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """``conv2d_fwd(upsample2(x), w, b)`` computed at x's resolution.

    x is (B, C, H, W); returns ``(y, cache)`` with y (B, O, 2H, 2W), where
    upsample2 is nearest-neighbour 2x upsampling.  One stride-1 convolution
    of x with the (4*O, C, 3, 3) parity-folded kernels gives every output
    parity; its channels are interleaved into the output pixels.
    """
    O, C = w.shape[:2]
    wf = w.reshape(O * C, 9) @ _FOLD.astype(w.dtype, copy=False)
    wf = wf.reshape(O, C, 4, 3, 3).transpose(2, 0, 1, 3, 4)
    y4, cache = conv2d_fwd(x, wf.reshape(4 * O, C, 3, 3), np.tile(b, 4))
    B, _, H, W = y4.shape
    # y4 is a view of (py, px, O, B, H, W) memory; write (O, B, 2H, 2W) by
    # parity, which runs 2-4x faster than one transposed copy
    parts = y4.transpose(1, 0, 2, 3).reshape(2, 2, O, B, H, W)
    y = np.empty((O, B, H, 2, W, 2), dtype=y4.dtype)
    for py in range(2):
        for px in range(2):
            y[:, :, :, py, :, px] = parts[py, px]
    return y.reshape(O, B, 2 * H, 2 * W).transpose(1, 0, 2, 3), cache


def upconv2d_bwd(dy: np.ndarray, cache):
    """Gradients of upconv2d_fwd; returns (dx, dw, db)."""
    x, wf, _ = cache
    B, C, H, W = x.shape
    O = wf.shape[0] // 4
    # de-interleave into (py, px, O, B, H, W) memory, the channel-major
    # layout conv2d_bwd reads without a copy
    src = dy.transpose(1, 0, 2, 3).reshape(O, B, H, 2, W, 2)
    parts = np.ascontiguousarray(src.transpose(3, 5, 0, 1, 2, 4))
    dy4 = parts.reshape(4 * O, B, H, W).transpose(1, 0, 2, 3)
    dx, dwf, dbf = conv2d_bwd(dy4, cache)
    dwf = dwf.reshape(4, O, C, 9).transpose(1, 2, 0, 3).reshape(O * C, 36)
    dw = (dwf @ _FOLD.T.astype(dwf.dtype, copy=False)).reshape(O, C, 3, 3)
    return dx, dw, dbf.reshape(4, O).sum(axis=0)


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
