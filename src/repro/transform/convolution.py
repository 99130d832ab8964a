"""Circular convolution via the TCU DFT (convolution theorem).

These are the primitives the stencil algorithm of Section 4.6 builds
on: 1-D and 2-D circular convolutions evaluated as
``IDFT( DFT(a) * DFT(b) )``, with every transform batched so a stack of
T independent convolutions against one common kernel costs
``O((T*S^2 + l) log_m S)`` — not T separate latencies (Lemma 1's tall
left-matrix trick).

The centred-kernel helpers implement the paper's correlation-style
convention (footnote 2): a kernel ``W`` of odd side ``2k+1`` is placed
circularly around offset 0 so that

    out[i] = sum_{|t| <= k}  in[(i + t) mod S] * W[k + t]

holds for every position — the exact form the unrolled-stencil identity
of Section 4.6 needs.
"""

from __future__ import annotations

import numpy as np

from ..core.machine import TCUMachine, placeholder
from ..core.program import check_split
from .dft import batched_dft, batched_idft

__all__ = [
    "circular_convolve",
    "batched_circular_convolve2d",
    "embed_centered_kernel_1d",
    "embed_centered_kernel_2d",
    "reversed_embedded_kernel_2d",
    "dft2",
    "idft2",
]


def circular_convolve(
    tcu: TCUMachine,
    a: np.ndarray,
    b: np.ndarray,
    *,
    split: str | int = "auto",
) -> np.ndarray:
    """Standard circular convolution ``c[i] = sum_j a[j] b[(i-j) mod n]``."""
    check_split(split)
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise ValueError(
            f"circular_convolve expects equal-length vectors, got {a.shape}, {b.shape}"
        )
    fa = batched_dft(tcu, a[None, :], split=split)
    fb = batched_dft(tcu, b[None, :], split=split)
    cost_only = tcu.execute == "cost-only"
    prod = placeholder(fa.shape, np.complex128) if cost_only else fa * fb
    tcu.charge_cpu(a.size)
    out = batched_idft(tcu, prod, split=split)[0]
    if not (np.iscomplexobj(a) or np.iscomplexobj(b)):
        # real inputs give a real result (dtype preserved in cost-only
        # so downstream consumers see the same array kind)
        out = placeholder(out.shape, np.float64) if cost_only else out.real
        tcu.charge_cpu(a.size)
    return out


def dft2(tcu: TCUMachine, X: np.ndarray, *, split: str | int = "auto") -> np.ndarray:
    """2-D DFT of a ``(batch, S, S)`` stack: row transforms then column
    transforms, each as one batched (tall) 1-D DFT."""
    check_split(split)
    X = np.asarray(X)
    if X.ndim != 3 or X.shape[1] != X.shape[2]:
        raise ValueError(f"dft2 expects a (batch, S, S) stack, got {X.shape}")
    T, S, _ = X.shape
    if tcu.execute == "cost-only":
        # shape-only: two batched transform passes, no re-arrangements
        batched_dft(tcu, placeholder((T * S, S), np.complex128), split=split)
        batched_dft(tcu, placeholder((T * S, S), np.complex128), split=split)
        return placeholder((T, S, S), np.complex128)
    X = np.asarray(X, dtype=np.complex128)
    # axis re-arrangements are index arithmetic (fused in a RAM
    # implementation); the transform passes below carry the cost.
    rows = batched_dft(tcu, X.reshape(T * S, S), split=split).reshape(T, S, S)
    cols = rows.transpose(0, 2, 1).reshape(T * S, S)
    out = batched_dft(tcu, cols, split=split).reshape(T, S, S).transpose(0, 2, 1)
    return out


def idft2(tcu: TCUMachine, X: np.ndarray, *, split: str | int = "auto") -> np.ndarray:
    """Inverse 2-D DFT of a ``(batch, S, S)`` stack."""
    check_split(split)
    X = np.asarray(X)
    if X.ndim != 3 or X.shape[1] != X.shape[2]:
        raise ValueError(f"idft2 expects a (batch, S, S) stack, got {X.shape}")
    T, S, _ = X.shape
    if tcu.execute == "cost-only":
        batched_idft(tcu, placeholder((T * S, S), np.complex128), split=split)
        batched_idft(tcu, placeholder((T * S, S), np.complex128), split=split)
        return placeholder((T, S, S), np.complex128)
    X = np.asarray(X, dtype=np.complex128)
    rows = batched_idft(tcu, X.reshape(T * S, S), split=split).reshape(T, S, S)
    cols = rows.transpose(0, 2, 1).reshape(T * S, S)
    out = batched_idft(tcu, cols, split=split).reshape(T, S, S).transpose(0, 2, 1)
    return out


def embed_centered_kernel_1d(W: np.ndarray, size: int) -> np.ndarray:
    """Embed an odd-length kernel circularly around offset 0.

    Produces ``ker`` of length ``size`` with ``ker[t mod size] = W[k + t]``
    for ``|t| <= k``, so circular convolution with the *index-reversed*
    ker realises ``out[i] = sum_t in[i+t] W[k+t]``.
    """
    W = np.asarray(W)
    if W.ndim != 1 or W.size % 2 == 0:
        raise ValueError(f"kernel must be 1-D of odd length, got shape {W.shape}")
    k = W.size // 2
    if size < W.size:
        raise ValueError(f"size {size} too small for kernel of half-width {k}")
    ker = np.zeros(size, dtype=W.dtype)
    for t in range(-k, k + 1):
        ker[t % size] = W[k + t]
    return ker


def embed_centered_kernel_2d(W: np.ndarray, size: int) -> np.ndarray:
    """2-D analogue of :func:`embed_centered_kernel_1d` for odd-side kernels."""
    W = np.asarray(W)
    if W.ndim != 2 or W.shape[0] != W.shape[1] or W.shape[0] % 2 == 0:
        raise ValueError(f"kernel must be square with odd side, got {W.shape}")
    k = W.shape[0] // 2
    if size < W.shape[0]:
        raise ValueError(f"size {size} too small for kernel of half-width {k}")
    ker = np.zeros((size, size), dtype=W.dtype)
    for t in range(-k, k + 1):
        for u in range(-k, k + 1):
            ker[t % size, u % size] = W[k + t, k + u]
    return ker


def reversed_embedded_kernel_2d(kernel: np.ndarray, size: int) -> np.ndarray:
    """The index-reversed circular embedding of a centred odd-side kernel.

    ``out[i] = sum_t in[i+t] W[k+t]`` is circular convolution with the
    index-reversed embedded kernel: build ``ker[-t, -u] = W[k+t, k+u]``.
    Pure data movement (the caller charges the embedding cost); shared
    by :func:`batched_circular_convolve2d` and the serving layer's
    planned stencil lowering.
    """
    embedded = embed_centered_kernel_2d(np.asarray(kernel), size)
    reversed_ker = np.zeros_like(embedded)
    idx = (-np.arange(size)) % size
    reversed_ker[np.ix_(idx, idx)] = embedded
    return reversed_ker


def batched_circular_convolve2d(
    tcu: TCUMachine,
    tiles: np.ndarray,
    kernel: np.ndarray,
    *,
    split: str | int = "auto",
) -> np.ndarray:
    """Correlate every ``S x S`` tile with a centred odd-side kernel.

    Parameters
    ----------
    tiles:
        ``(T, S, S)`` stack.
    kernel:
        ``(2k+1) x (2k+1)`` weight matrix ``W``; the result satisfies

        ``out[t, i, j] = sum_{|a|,|b| <= k} tiles[t, (i+a)%S, (j+b)%S] * W[k+a, k+b]``.

    One forward 2-D DFT of the stack, one of the kernel, a pointwise
    product and one inverse transform — all batched.
    """
    check_split(split)
    tiles = np.asarray(tiles)
    if tiles.ndim != 3 or tiles.shape[1] != tiles.shape[2]:
        raise ValueError(f"tiles must be (T, S, S), got {tiles.shape}")
    S = tiles.shape[1]
    reversed_ker = reversed_embedded_kernel_2d(kernel, S)
    tcu.charge_cpu(2 * S * S)

    cost_only = tcu.execute == "cost-only"
    f_tiles = dft2(tcu, tiles, split=split)
    f_ker = dft2(tcu, reversed_ker[None, :, :], split=split)[0]
    if cost_only:
        prod = placeholder(f_tiles.shape, np.complex128)
    else:
        prod = f_tiles * f_ker[None, :, :]
    tcu.charge_cpu(tiles.size)
    out = idft2(tcu, prod, split=split)
    if not (np.iscomplexobj(tiles) or np.iscomplexobj(kernel)):
        # real inputs give a real result (dtype preserved in cost-only)
        out = placeholder(out.shape, np.float64) if cost_only else out.real
        tcu.charge_cpu(tiles.size)
    return out
