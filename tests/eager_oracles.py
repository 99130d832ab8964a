"""Eager reference schedules: the per-call execution paths the planned
kernels replaced, kept here as test oracles.

Each oracle issues its tensor calls one at a time through the machine's
own ``mm`` primitive and charges every CPU step itself, so it shares no
charging code with the planned kernels it checks:

* :func:`per_call_matmul` — the Theorem 2 loop: one tall call per
  (strip, block) pair, one accumulation charge per call;
* :func:`eager_strassen` — the Theorem 1 recursion with
  :func:`per_call_matmul` at its leaves;
* :func:`eager_batched_dft` / :func:`eager_batched_idft` — the Theorem 7
  recursion with :func:`per_call_matmul` at every level;
* :func:`per_segment_closure` — Figure 7 with the above and below
  segments of every trailing update issued as two separate calls.

On a sequential machine the planned kernels charge exactly what these
do wherever the planner has nothing to merge (Strassen, the DFT); the
closure's planned path merges the two segment calls of every interior
pivot column into one.  The oracles run on numeric machines.
"""

from __future__ import annotations

import numpy as np

from repro.matmul.schedule import ceil_to_multiple, pad_matrix, padded_copy_cost, theorem2_tasks
from repro.matmul.strassen import STRASSEN_2X2, default_cutoff


def per_call_matmul(tcu, A, B, *, charge_padding=True):
    """``A @ B`` by the Theorem 2 schedule, one tensor call at a time."""
    A = np.asarray(A)
    B = np.asarray(B)
    p, q = A.shape
    r = B.shape[1]
    if p == 0 or q == 0 or r == 0:
        return np.zeros((p, r), dtype=np.result_type(A.dtype, B.dtype))
    s = tcu.sqrt_m
    p_pad, q_pad, r_pad = max(p, s), ceil_to_multiple(q, s), ceil_to_multiple(r, s)
    if charge_padding:
        tcu.charge_cpu(padded_copy_cost(A, p_pad, q_pad) + padded_copy_cost(B, q_pad, r_pad))
    Ap, Bp = pad_matrix(A, p_pad, q_pad), pad_matrix(B, q_pad, r_pad)
    C = np.zeros((p_pad, r_pad), dtype=np.result_type(Ap.dtype, Bp.dtype))
    for j, _, strip, block in theorem2_tasks(Ap, Bp, s):
        C[:, j * s : (j + 1) * s] += tcu.mm(strip, block)
        tcu.charge_cpu(p_pad * s)  # the C_{i,j} accumulation
    return C[:p, :r]


def _combine(blocks, coeffs, side, dtype):
    out = np.zeros((side, side), dtype=dtype)
    for (i, j), coef in coeffs.items():
        out += coef * blocks[i][j]
    return out


def _strassen(tcu, A, B, alg, cutoff):
    side = A.shape[0]
    if side <= cutoff:
        return per_call_matmul(tcu, A, B)
    b = alg.block
    padded = ceil_to_multiple(side, b)
    if padded != side:
        tcu.charge_cpu(2 * padded * padded)
        A = pad_matrix(A, padded, padded)
        B = pad_matrix(B, padded, padded)
    sub = padded // b
    dtype = np.result_type(A.dtype, B.dtype)
    blocksA = [[A[i * sub : (i + 1) * sub, j * sub : (j + 1) * sub] for j in range(b)]
               for i in range(b)]
    blocksB = [[B[i * sub : (i + 1) * sub, j * sub : (j + 1) * sub] for j in range(b)]
               for i in range(b)]
    # one RAM unit per word per operand term, for the whole step
    tcu.charge_cpu(sum(len(ac) + len(bc) for ac, bc in alg.products) * sub * sub)
    prods = [
        _strassen(
            tcu, _combine(blocksA, ac, sub, dtype), _combine(blocksB, bc, sub, dtype), alg, cutoff
        )
        for ac, bc in alg.products
    ]
    C = np.zeros((padded, padded), dtype=dtype)
    for (i, j), terms in alg.c_terms.items():
        out = C[i * sub : (i + 1) * sub, j * sub : (j + 1) * sub]
        for idx, coef in terms:
            out += coef * prods[idx]
    # one RAM unit per word per output term, for the whole assembly
    tcu.charge_cpu(sum(len(terms) for terms in alg.c_terms.values()) * sub * sub)
    return C[:side, :side]


def eager_strassen(tcu, A, B, *, algorithm=STRASSEN_2X2, cutoff=None):
    """The Theorem 1 recursion, each leaf product run as it is reached."""
    A = np.asarray(A)
    B = np.asarray(B)
    if cutoff is None:
        cutoff = default_cutoff(tcu, algorithm)
    return _strassen(tcu, A, B, algorithm, cutoff)


def _fourier(size):
    r = np.arange(size)
    return np.exp(-2j * np.pi * np.outer(r, r) / size)


def eager_batched_dft(tcu, X):
    """The Theorem 7 recursion on every row, one level's calls at a time."""
    X = np.asarray(X, dtype=np.complex128)
    B, size = X.shape
    if size == 0 or B == 0:
        return X.copy()
    s = tcu.sqrt_m
    if size <= s:
        tcu.charge_cpu(size * size)  # the base Fourier matrix
        return per_call_matmul(tcu, X, _fourier(size))
    n1, n2 = s, size // s
    cols = X.reshape(B, n1, n2).transpose(0, 2, 1).reshape(B * n2, n1)
    tcu.charge_cpu(n1 * n1)
    G = per_call_matmul(tcu, cols, _fourier(n1))
    tcu.charge_cpu(B * size)  # the twiddle pass
    c_idx = np.tile(np.arange(n2), B)[:, None]
    p_idx = np.arange(n1)[None, :]
    G = G * np.exp(-2j * np.pi * (c_idx * p_idx) / size)
    rows = G.reshape(B, n2, n1).transpose(0, 2, 1).reshape(B * n1, n2)
    F = eager_batched_dft(tcu, rows)
    return F.reshape(B, n1, n2).transpose(0, 2, 1).reshape(B, size)


def eager_batched_idft(tcu, X):
    """Inverse of :func:`eager_batched_dft` by conjugation."""
    X = np.asarray(X, dtype=np.complex128)
    if X.shape[1] == 0:
        return np.zeros(X.shape, dtype=np.complex128)
    out = np.conj(eager_batched_dft(tcu, np.conj(X))) / X.shape[1]
    tcu.charge_cpu(X.size)
    return out


def _outer_sweep(tcu, X, left, right):
    """Figure 7's kernels A, B and C: ``X |= left[:, k] & right[k, :]``
    for every k, one charge per sweep."""
    s = X.shape[0]
    for k in range(s):
        X |= np.outer(left[:, k], right[k, :])
        tcu.charge_cpu(2 * s * s)


def per_segment_closure(tcu, adjacency):
    """Figure 7 with every trailing-update segment its own tensor call."""
    A = np.asarray(adjacency)
    n = A.shape[0]
    s = tcu.sqrt_m
    padded = ceil_to_multiple(n, s)
    work = np.zeros((padded, padded), dtype=np.int64)
    work[:n, :n] = A
    tcu.charge_cpu(padded * padded)
    nb = padded // s
    for k in range(nb):
        kk = slice(k * s, (k + 1) * s)
        Xkk = work[kk, kk]
        _outer_sweep(tcu, Xkk, Xkk, Xkk)
        for j in range(nb):
            if j != k:
                Xkj = work[kk, j * s : (j + 1) * s]
                _outer_sweep(tcu, Xkj, Xkk, Xkj)
        for i in range(nb):
            if i != k:
                Xik = work[i * s : (i + 1) * s, kk]
                _outer_sweep(tcu, Xik, Xik, Xkk)
        segments = []
        if k > 0:
            segments.append(slice(0, k * s))
        if k + 1 < nb:
            segments.append(slice((k + 1) * s, padded))
        for j in range(nb):
            if j == k:
                continue
            jj = slice(j * s, (j + 1) * s)
            Z = work[kk, jj].copy()  # the weight must not alias the updated strip
            tcu.charge_cpu(s * s)
            for seg in segments:
                strip = work[seg, jj]
                np.minimum(strip + tcu.mm(work[seg, kk], Z), 1, out=strip)
                tcu.charge_cpu(2 * (seg.stop - seg.start) * s)
    return work[:n, :n]
