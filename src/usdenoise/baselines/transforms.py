"""Orthonormal 2-D DCT and 1-D Haar transforms for collaborative filtering.

Both transforms are matmuls with cached, exactly orthonormal matrices, so
Parseval holds and squared distances are preserved: block matching can run
in the transform domain.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=8)
def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis, read-only: row k is
    c_k cos(pi (2j+1) k / 2n)."""
    if n < 1:
        raise ValueError("transform size must be >= 1")
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    mat = np.cos(np.pi * (2 * j + 1) * k / (2 * n)) * math.sqrt(2.0 / n)
    mat[0] = math.sqrt(1.0 / n)
    mat.setflags(write=False)
    return mat


def dct2(block: np.ndarray) -> np.ndarray:
    """2-D orthonormal DCT of square block(s); batched over leading axes."""
    block = np.asarray(block, dtype=np.float64)
    n = block.shape[-1]
    if block.shape[-2] != n:
        raise ValueError("blocks must be square")
    t = dct_matrix(n)
    return t @ block @ t.T


def idct2(coeffs: np.ndarray) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=np.float64)
    n = coeffs.shape[-1]
    if coeffs.shape[-2] != n:
        raise ValueError("blocks must be square")
    t = dct_matrix(n)
    return t.T @ coeffs @ t


@lru_cache(maxsize=8)
def haar_matrix(n: int) -> np.ndarray:
    """Read-only orthonormal Haar basis of power-of-two size ``n``, rows
    packed as ``haar1`` describes.

    Level by level, the coarser basis times the pairwise sums is stacked over
    the pairwise differences; each +-1 row is then scaled to unit norm.
    """
    if n < 1 or n & (n - 1):
        raise ValueError(f"stack length {n} is not a power of two")
    mat = np.ones((1, 1))
    while mat.shape[0] < n:
        eye = np.eye(mat.shape[0])
        mat = np.vstack([mat @ np.kron(eye, [1.0, 1.0]),
                         np.kron(eye, [1.0, -1.0])])
    mat *= np.sqrt(1.0 / np.abs(mat).sum(axis=1, keepdims=True))
    mat.setflags(write=False)
    return mat


def haar1(stack: np.ndarray) -> np.ndarray:
    """Full orthonormal Haar decomposition along axis 0 (power-of-two length).

    Output packing: [overall average, coarse details, ..., finest details];
    a constant stack of value v maps to v * sqrt(len) in slot 0.
    """
    stack = np.asarray(stack, dtype=np.float64)
    n = stack.shape[0]
    return (haar_matrix(n) @ stack.reshape(n, -1)).reshape(stack.shape)


def ihaar1(coeffs: np.ndarray) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=np.float64)
    n = coeffs.shape[0]
    return (haar_matrix(n).T @ coeffs.reshape(n, -1)).reshape(coeffs.shape)
