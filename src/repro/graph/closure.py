"""Graph transitive closure on the TCU (Theorem 5, Figure 7).

The iterative closure algorithm (Figure 5) is the Floyd-Warshall loop
over the boolean semiring: ``d[i,j] |= d[i,k] & d[k,j]``.  Figure 7
blocks it into ``sqrt(m) x sqrt(m)`` tiles with four kernels:

* ``A(X)``    -- closure step within the diagonal block ``X_kk``;
* ``B(X, Y)`` -- pivot-row block, ``X |= Y & X`` column-wise;
* ``C(X, Y)`` -- pivot-column block, ``X |= X & Y``;
* ``D(X, Y, Z)`` -- trailing blocks.  The paper's key observation: D
  touches blocks *disjoint* from the pivot row/column, so boolean
  (OR/AND) can be replaced by integer (+/x) followed by clamping
  ``X[i,j] <- min(X[i,j], 1)`` — which makes D a plain matrix product
  the tensor unit can run.

For each ``j != k`` the block ``X_kj`` is the resident weight matrix
and the ``X_ik`` blocks for all ``i != k`` stream through as (at most
two) tall calls — rows above and rows below the pivot block row.
Total model time (Theorem 5):

    T(n) = Theta( n^3 / sqrt(m) + (n^2/m) l + n^2 sqrt(m) ).

Kernels A, B and C are ``sqrt(m)`` rank-one OR-updates on the CPU.  B
closes each column of a pivot-row block on its own and C each row of a
pivot-column block, so each runs as one sweep per contiguous run of the
pivot row (column), ``j < k`` and ``j > k``, charged once from its shape
at 2 RAM units per entry per update — Theta(m^{3/2}) per block, as in
the paper.  The trailing clamp is charged once per pivot and runs as
one add-and-clamp per pair of those runs, at most four.

Each pivot's trailing update is built as a
:class:`~repro.core.program.TensorProgram`: the planner notices that the
above/below segments of one ``j`` share the same resident weight block
and merges them into a single taller call — one latency per ``(k, j)``
pair instead of the two the per-segment Figure 7 sequence pays — and,
on a :class:`~repro.core.parallel.ParallelTCUMachine`, batches all of a
pivot's updates across its tensor units.
"""

from __future__ import annotations

import numpy as np

from ..core.machine import TCUMachine
from ..core.program import TensorOp, TensorProgram, check_split, run_program
from ..matmul.schedule import ceil_to_multiple

__all__ = ["transitive_closure"]


def _sweep(tcu: TCUMachine, X: np.ndarray, left: np.ndarray, right: np.ndarray) -> None:
    """Figure 7's kernels A, B and C: ``X |= left[:, k] & right[k, :]``
    for every ``k < sqrt(m)`` in turn, in place, charged 2 RAM units per
    entry of ``X`` per step."""
    s = tcu.sqrt_m
    tcu.charge_cpu(2 * s * X.size)
    if tcu.execute == "cost-only":
        return
    for k in range(s):
        X |= np.outer(left[:, k], right[k, :])


def transitive_closure(
    tcu: TCUMachine,
    adjacency: np.ndarray,
    *,
    split: str | int = "auto",
) -> np.ndarray:
    """Transitive closure of a directed graph (Figure 7).

    Parameters
    ----------
    adjacency:
        ``n x n`` 0/1 matrix, ``adjacency[i, j] = 1`` iff edge i -> j.
    split:
        Planner split policy for each pivot's trailing-update level
        (``"auto"`` re-splits merged strips across parallel units;
        ``1`` pins the legacy schedule).

    Returns
    -------
    0/1 int64 matrix ``c`` with ``c[i, j] = 1`` iff a non-empty directed
    path from i to j exists (so ``c[i, i] = 1`` exactly when i lies on a
    cycle, matching the Figure 5 iteration).

    The vertex count need not divide by ``sqrt(m)``; padding vertices
    are isolated and cropped from the result.

    Every iteration's structure is value-independent, so on a machine
    with ``execute="cost-only"`` the full Figure 7 cost is charged (all
    kernels and trailing tensor calls) while the numeric closure work is
    skipped; the returned matrix is then meaningless.
    """
    check_split(split)
    A = np.asarray(adjacency)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"adjacency must be square, got {A.shape}")
    if not np.isin(np.unique(A), (0, 1)).all():
        raise ValueError("adjacency entries must be 0/1")
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
        _sweep(tcu, Xkk, Xkk, Xkk)  # kernel A
        # the i != k rows (and j != k columns) form two contiguous runs
        segments = []
        if k > 0:
            segments.append(slice(0, k * s))
        if k + 1 < nb:
            segments.append(slice((k + 1) * s, padded))
        for seg in segments:  # kernel B on a run of the pivot row
            row = work[kk, seg]
            _sweep(tcu, row, Xkk, row)
        for seg in segments:  # kernel C on a run of the pivot column
            col = work[seg, kk]
            _sweep(tcu, col, col, Xkk)
        # Trailing update D on the tensor unit: for each j != k the
        # weight block X_kj stays resident while every X_ik (i != k)
        # streams through.  Lazy build: both segments of a given j
        # reference the same copied weight op, so the planner merges
        # them into one tall call; all (j, seg) products of this pivot
        # are independent (they read the pivot column, write disjoint
        # strips) and form a single batchable level.
        program = TensorProgram()
        products: list[list[TensorOp]] = [[] for _ in segments]  # per row run
        for j in range(nb):
            if j == k:
                continue
            jj = slice(j * s, (j + 1) * s)
            # weight must not alias the updated strip
            weight = program.copy(work[kk, jj])
            for row_products, seg in zip(products, segments, strict=True):
                row_products.append(program.mm(work[seg, kk], weight))
        run_program(program, tcu, split=split)
        if not segments:
            continue  # a lone block: nothing off the pivot row and column
        # X <- min(X + Y*Z, 1) on every entry off the pivot row and
        # column: integer product + clamp, 2 units per entry, applied
        # to each (row run, column run) block at once, its products
        # side by side
        tcu.charge_cpu(2 * (padded - s) ** 2)
        if tcu.execute != "cost-only":
            for rows, row_products in zip(segments, products, strict=True):
                runs = [run for run in (row_products[:k], row_products[k:]) if run]
                for cols, run in zip(segments, runs, strict=True):
                    block = work[rows, cols]
                    block += np.concatenate([op.result() for op in run], axis=1)
                    np.minimum(block, 1, out=block)
    return work[:n, :n]
