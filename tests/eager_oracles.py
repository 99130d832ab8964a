"""Eager reference schedules: the per-call execution paths the planned
kernels replaced, kept here as test oracles.

Each oracle issues its tensor calls through the machine's own primitives
— one ``mm`` at a time, or one ``mm_batch`` where the replaced path
batched — and charges every CPU step itself, so it shares no charging
code with the planned kernels it checks (save the batch levels of
:func:`per_call_execute`, which both executors run through
``plan.run_level``):

* :func:`per_call_matmul` — the Theorem 2 loop: one tall call per
  (strip, block) pair, one accumulation charge per call;
* :func:`eager_strassen` — the Theorem 1 recursion with
  :func:`per_call_matmul` at its leaves;
* :func:`eager_batched_dft` / :func:`eager_batched_idft` — the Theorem 7
  recursion with :func:`per_call_matmul` at every level;
* :func:`per_segment_closure` — Figure 7 with the above and below
  segments of every trailing update issued as two separate calls;
* :func:`one_batch_matmul` — the Theorem 2 loop on a parallel machine:
  every (strip, block) call in one ``mm_batch``, one accumulation
  charge per call;
* :func:`per_call_execute` — the per-call plan executor the fused level
  executor replaced: one ``mm`` per merge group or grid call, then the
  level's CPU ops, each charged here.

On a sequential machine the planned kernels charge exactly what these
do wherever the planner has nothing to merge (Strassen, the DFT); the
closure's planned path merges the two segment calls of every interior
pivot column into one.  The kernel oracles run on numeric machines;
:func:`per_call_execute` also runs cost-only.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.machine import placeholder
from repro.core.parallel import ParallelTCUMachine
from repro.core.program import GridCall, TensorOp
from repro.matmul.schedule import ceil_to_multiple, pad_matrix, padded_copy_cost, theorem2_tasks
from repro.matmul.strassen import STRASSEN_2X2, default_cutoff


def _padded(tcu, A, B):
    """Both operands padded to the ``sqrt(m)`` grid, the copies charged."""
    s = tcu.sqrt_m
    p, q = A.shape
    r = B.shape[1]
    p_pad, q_pad, r_pad = max(p, s), ceil_to_multiple(q, s), ceil_to_multiple(r, s)
    tcu.charge_cpu(padded_copy_cost(A, p_pad, q_pad) + padded_copy_cost(B, q_pad, r_pad))
    return pad_matrix(A, p_pad, q_pad), pad_matrix(B, q_pad, r_pad)


def per_call_matmul(tcu, A, B):
    """``A @ B`` by the Theorem 2 schedule, one tensor call at a time."""
    A = np.asarray(A)
    B = np.asarray(B)
    p, q = A.shape
    r = B.shape[1]
    if p == 0 or q == 0 or r == 0:
        return np.zeros((p, r), dtype=np.result_type(A.dtype, B.dtype))
    s = tcu.sqrt_m
    Ap, Bp = _padded(tcu, A, B)
    C = np.zeros((Ap.shape[0], Bp.shape[1]), dtype=np.result_type(Ap.dtype, Bp.dtype))
    for j, _, strip, block in theorem2_tasks(Ap, Bp, s):
        C[:, j * s : (j + 1) * s] += tcu.mm(strip, block)
        tcu.charge_cpu(Ap.shape[0] * s)  # the C_{i,j} accumulation
    return C[:p, :r]


def one_batch_matmul(ptcu, A, B):
    """``A @ B`` on a parallel machine with every Theorem 2 call issued
    as one ``mm_batch`` in :func:`per_call_matmul`'s order (block column
    outer, strip inner), then one accumulation charge per call."""
    A = np.asarray(A)
    B = np.asarray(B)
    p, q = A.shape
    r = B.shape[1]
    if p == 0 or q == 0 or r == 0:
        return np.zeros((p, r), dtype=np.result_type(A.dtype, B.dtype))
    s = ptcu.sqrt_m
    Ap, Bp = _padded(ptcu, A, B)
    tasks = list(theorem2_tasks(Ap, Bp, s))
    results = ptcu.mm_batch([(strip, block) for _, _, strip, block in tasks])
    C = np.zeros((Ap.shape[0], Bp.shape[1]), dtype=np.result_type(Ap.dtype, Bp.dtype))
    for (j, _, _, _), partial in zip(tasks, results, strict=True):
        C[:, j * s : (j + 1) * s] += partial
        ptcu.charge_cpu(Ap.shape[0] * s)
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


def _source(src):
    return src.result() if isinstance(src, TensorOp) else src


def _cpu_value(op):
    """A CPU-side op's value from its inputs."""
    if op.kind == "add":
        out = np.zeros(op.shape, dtype=op.dtype)
        for coef, src in op.terms:
            if coef == 1.0:
                out += _source(src)
            elif coef == -1.0:
                out -= _source(src)
            else:
                out += coef * _source(src)
        return out
    if op.kind == "copy":
        return np.array(_source(op.a), copy=True)
    if op.kind == "apply":
        return op.fn(*[_source(src) for _, src in op.terms])
    if op.kind == "view":
        return _source(op.a)[op.key]
    # stripsum: each block column summed from zeros over the strips in order
    products = op.a.result()
    kq, kr, p, s = products.shape
    blocks = np.zeros((kr, p, s), dtype=op.dtype)
    for i in range(kq):
        blocks += products[i]
    return np.ascontiguousarray(blocks.swapaxes(0, 1)).reshape(p, kr * s)


def _cpu_ops(others, machine):
    """A level's CPU-side ops in op order: an add charged one unit per
    word per term, a copy one per word, an apply its declared cost, a
    strip sum one per word per partial; a view is free."""
    for op in others:
        if op.kind == "add":
            for _ in op.terms:
                machine.charge_cpu(math.prod(op.shape))
        elif op.kind == "copy":
            machine.charge_cpu(math.prod(op.shape))
        elif op.kind == "apply" and op.cpu:
            machine.charge_cpu(op.cpu)
        elif op.kind == "stripsum":
            machine.charge_cpu(math.prod(op.a.shape))
        if machine.execute == "cost-only":
            op.value = placeholder(op.shape, op.dtype)
        else:
            op.value = _cpu_value(op)


def per_call_execute(plan, machine):
    """Execute ``plan`` level by level, one tensor call at a time: each
    merge group one ``machine.mm`` on its stacked streams, each grid
    call one ``mm`` in the grid's call order (block column outer, strip
    inner), then the level's CPU ops.  A level that is one scheduled
    batch on a parallel machine — more than one call group, or a split
    one — runs through ``plan.run_level``: a batch is one ``mm_batch``
    whichever executor issues it.  Returns ``plan``."""
    cost_only = machine.execute == "cost-only"
    for d, (groups, others) in enumerate(plan.levels):
        if isinstance(machine, ParallelTCUMachine) and (
            len(groups) > 1 or max(plan.splits[d], default=1) > 1
        ):
            plan.run_level(d, machine)
            continue
        for group in groups:
            streams = [_source(op.a) for op in group]
            out = machine.mm(
                streams[0] if len(streams) == 1 else np.vstack(streams), _source(group[0].b)
            )
            offset = 0
            for op in group:
                value = out[offset : offset + op.shape[0]]
                offset += op.shape[0]
                if isinstance(op, GridCall):
                    if cost_only:
                        op.grid.value = placeholder(op.grid.shape, op.grid.dtype)
                    else:
                        op.store(value)
                elif cost_only:
                    op.value = placeholder(op.shape, op.dtype)
                else:
                    op.value = value
        _cpu_ops(others, machine)
    return plan
