"""Discrete Fourier Transform on the TCU (Theorem 7, Section 4.5).

The Cooley-Tukey decomposition with radix ``n1 = sqrt(m)``: arrange the
input vector as an ``n1 x n2`` matrix X in row-major order
(``n2 = n/sqrt(m)``), replace each column by its size-``n1`` DFT — a single
*tall* tensor product ``X^T @ W_{sqrt(m)}`` where the Fourier matrix
stays resident — multiply by twiddle factors, recurse on the rows, and
read the result in column-major order.  The recurrence

    T(n) = sqrt(m) T(n / sqrt(m)) + O(n + l),   T(n) = O(m + l) for n <= m

solves to ``T(n) = O((n + l) log_m n)``.

All transforms here are *batched*: :func:`batched_dft` transforms every
row of a ``(batch, size)`` matrix at once, which keeps the left operand
of every tensor call tall (the Lemma 1 trick that the stencil algorithm
relies on to amortise latency).  The model assumes the unit handles
complex words (Section 4.5); set ``complex_cost_factor=4`` on the
machine to charge the 4-real-product emulation instead.

Sizes must factor into ``sqrt(m)``-smooth products: every recursion
level needs ``sqrt(m) | size`` until ``size <= sqrt(m)``.  Powers of two
(with a power-of-two ``sqrt(m)``) always work.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..core.machine import TCUMachine, placeholder
from ..core.program import check_split
from ..matmul.dense import matmul

__all__ = [
    "dft_matrix",
    "dft",
    "idft",
    "batched_dft",
    "batched_idft",
    "dft_recursion_depth",
]


@lru_cache(maxsize=64)
def _dft_matrix_cached(size: int) -> np.ndarray:
    r = np.arange(size)
    return np.exp(-2j * np.pi * np.outer(r, r) / size)


def dft_matrix(size: int) -> np.ndarray:
    """The symmetric Fourier matrix ``W[r, c] = exp(-2*pi*i*r*c/size)``."""
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    return _dft_matrix_cached(size)


def dft_recursion_depth(n: int, m: int) -> int:
    """Recursion levels Theorem 7's algorithm uses for an n-point DFT
    (the ``log_m n`` factor, with the paper's ``n <= m`` base case)."""
    import math

    s = math.isqrt(m)
    depth = 1
    while n > m:
        n //= s
        depth += 1
    return depth


def batched_dft(tcu: TCUMachine, X: np.ndarray, *, split: str | int = "auto") -> np.ndarray:
    """DFT of every row of a ``(batch, size)`` complex matrix.

    Implements the Theorem 7 recursion; the batch dimension rides along
    in the tall operand of every tensor call, so transforming B vectors
    costs ``O((B*n + l) log_m n)`` — not B times the latency.

    Each recursion level's product goes through the plan/execute layer
    (levels are sequential because of the twiddle pass, so the planner
    works within one level at a time); ``split`` is validated on entry
    and forwarded to the planner at every level (``"auto"`` lets merged
    tall transforms scale across parallel units, ``1`` pins the legacy
    schedule).
    """
    check_split(split)
    X = np.asarray(X)
    if X.ndim != 2:
        raise ValueError(f"batched_dft expects a 2-D (batch, size) array, got {X.shape}")
    if tcu.execute == "cost-only":
        # only the shape matters; casting would materialise a full-size
        # complex copy of what may be an O(1)-storage placeholder
        X = placeholder(X.shape, np.complex128)
    else:
        X = np.asarray(X, dtype=np.complex128)
    B, size = X.shape
    if size == 0 or B == 0:
        return X.copy()
    s = tcu.sqrt_m
    if size <= s:
        W = dft_matrix(size)
        tcu.charge_cpu(size * size)  # constructing/loading the base Fourier matrix
        return matmul(tcu, X, W, split=split)
    if size % s:
        raise ValueError(
            f"DFT size {size} is not sqrt(m)={s}-smooth; Theorem 7 requires "
            "sqrt(m) | size at every recursion level (use power-of-two sizes)"
        )
    n1, n2 = s, size // s
    cost_only = tcu.execute == "cost-only"

    # Column DFTs: view each row as an n1 x n2 matrix; its columns,
    # transposed, form a tall (B*n2) x n1 operand against W_{n1}.
    # The strided re-arrangements are index arithmetic in the RAM model
    # (a real implementation fuses them into the next pass), so only
    # the twiddle multiplication is charged per element per level.
    if cost_only:
        cols = placeholder((B * n2, n1), np.complex128)
    else:
        cols = X.reshape(B, n1, n2).transpose(0, 2, 1).reshape(B * n2, n1)
    tcu.charge_cpu(n1 * n1)
    # row b*n2+c holds DFT of column c
    G = matmul(tcu, cols, dft_matrix(n1), split=split)

    # Twiddle factors: entry (r=p, c) of each n1 x n2 matrix gets
    # exp(-2*pi*i * p*c / size).
    tcu.charge_cpu(B * size)
    if cost_only:
        batched_dft(tcu, placeholder((B * n1, n2), np.complex128), split=split)
        return placeholder((B, size), np.complex128)
    c_idx = np.tile(np.arange(n2), B)[:, None]
    p_idx = np.arange(n1)[None, :]
    G = G * np.exp(-2j * np.pi * (c_idx * p_idx) / size)

    # Row DFTs: rows of the n1 x n2 matrices, batch B*n1, size n2.
    rows = G.reshape(B, n2, n1).transpose(0, 2, 1).reshape(B * n1, n2)
    F = batched_dft(tcu, rows, split=split)

    # Read out column-major: y[q*n1 + p] = F[p, q].
    out = F.reshape(B, n1, n2).transpose(0, 2, 1).reshape(B, size)
    return out


def batched_idft(tcu: TCUMachine, X: np.ndarray, *, split: str | int = "auto") -> np.ndarray:
    """Inverse DFT of every row (conjugation trick; same cost bound)."""
    check_split(split)
    X = np.asarray(X)
    if X.ndim != 2:
        raise ValueError(f"batched_idft expects a 2-D array, got {X.shape}")
    if tcu.execute != "cost-only":
        X = np.asarray(X, dtype=np.complex128)
    size = X.shape[1]
    if size == 0:
        return np.zeros(X.shape, dtype=np.complex128)
    if tcu.execute == "cost-only":
        batched_dft(tcu, placeholder(X.shape, np.complex128), split=split)
        tcu.charge_cpu(X.size)
        return placeholder(X.shape, np.complex128)
    out = np.conj(batched_dft(tcu, np.conj(X), split=split)) / size
    tcu.charge_cpu(X.size)
    return out


def dft(tcu: TCUMachine, x: np.ndarray) -> np.ndarray:
    """DFT of a single n-point vector in ``O((n + l) log_m n)`` model time."""
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError(f"dft expects a 1-D vector, got shape {x.shape}")
    return batched_dft(tcu, x[None, :])[0]


def idft(tcu: TCUMachine, y: np.ndarray) -> np.ndarray:
    """Inverse DFT of a single vector."""
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"idft expects a 1-D vector, got shape {y.shape}")
    return batched_idft(tcu, y[None, :])[0]
