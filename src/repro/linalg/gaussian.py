"""Gaussian elimination without pivoting on the TCU (Theorem 4, Figure 4).

The forward phase of GE on a ``sqrt(n) x sqrt(n)`` system is blocked
into ``sqrt(m) x sqrt(m)`` tiles and driven by four kernels, exactly as
in Figure 4 of the paper:

* ``A(X)``        -- eliminate within the diagonal block;
* ``B(X, Y, X')`` -- update a pivot-row block ``X = X_kj`` using the
  diagonal block ``Y = X_kk``, and emit the *negated, pivot-scaled*
  copy ``X'_j`` that the trailing update needs;
* ``C(X, Y)``     -- update a pivot-column block ``X = X_ik``;
* ``D(X, Y, Z)``  -- the trailing update ``X_ij += X_ik * X'_j`` — the
  only kernel executed on the tensor unit.

For each ``j`` the block ``X'_j`` is loaded once as the resident weight
matrix while the entire sub-column of ``X_ik`` blocks (contiguous rows
``(k+1)*sqrt(m) .. sqrt(n)``) streams through as a tall left operand,
giving Theorem 4's bound

    T(n) = Theta( n^{3/2}/sqrt(m) + (n/m) l + n sqrt(m) ),

which collapses to the optimal dense-MM cost once ``sqrt(n) >= m``.

B updates each column of a pivot-row block on its own and C each row of
a pivot-column block, so each runs as one CPU sweep over the whole pivot
row (column): one numpy update per elimination step for all blocks, in
the block-at-a-time arithmetic and order, charged the step's RAM-model
cost summed over its blocks — Theta(m^{3/2}) per block, as in the paper.
"""

from __future__ import annotations

import numpy as np

from ..core.machine import TCUMachine
from ..matmul.schedule import ceil_to_multiple

__all__ = ["ge_forward", "ge_solve", "back_substitute"]

_ZERO_PIVOT = (
    "zero pivot encountered: Gaussian elimination without pivoting "
    "requires a matrix with non-zero leading minors"
)


def _kernel_A(tcu: TCUMachine, X: np.ndarray, live: int) -> None:
    """Within-block elimination (Figure 4, function A), in place.  Only
    the first ``live`` steps are computed: a later step would update
    padding alone, beside a pivot whose row and column are zero there,
    so it is charged but not run."""
    s = X.shape[0]
    for k in range(s - 1):
        if k < live:
            pivot = X[k, k]
            if pivot == 0:
                raise ZeroDivisionError(_ZERO_PIVOT)
            X[k + 1 :, k + 1 :] -= np.outer(X[k + 1 :, k], X[k, k + 1 :]) / pivot
        tcu.charge_cpu((s - 1 - k) * (s - 1 - k) * 3)


def _kernel_B(tcu: TCUMachine, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Pivot-row sweep (Figure 4, function B on every block of ``X``),
    in place; returns the blocks ``X'_j`` side by side."""
    # B divides by every pivot of Y, the last one too, which A never
    # divides by and so never checks
    if Y[-1, -1] == 0:
        raise ZeroDivisionError(_ZERO_PIVOT)
    s, width = X.shape
    for k in range(s - 1):
        X[k + 1 :, :] -= np.outer(Y[k + 1 :, k], X[k, :]) / Y[k, k]
        tcu.charge_cpu((s - 1 - k) * width * 3)
    Xp = -X / np.diag(Y)[:, None]
    tcu.charge_cpu(2 * s * width)
    return Xp


def _kernel_C(tcu: TCUMachine, X: np.ndarray, Y: np.ndarray) -> None:
    """Pivot-column sweep (Figure 4, function C on every block of
    ``X``), in place."""
    height, s = X.shape
    for k in range(s - 1):
        X[:, k + 1 :] -= np.outer(X[:, k], Y[k, k + 1 :]) / Y[k, k]
        tcu.charge_cpu(height * (s - 1 - k) * 3)


def ge_forward(tcu: TCUMachine, X: np.ndarray, *, overwrite: bool = False) -> np.ndarray:
    """Forward phase of Gaussian elimination without pivoting (Figure 4).

    Returns the matrix after elimination; its upper triangle is the
    upper-triangular system U (entries below the diagonal are the
    intermediate values the blocked schedule leaves behind, matching the
    unblocked Figure 2 loop which also never touches them).

    The input side need not divide by ``sqrt(m)``: the matrix is padded
    with an identity block, which eliminates trivially and is cropped
    from the result.  The padding's rows and columns stay zero beside
    the diagonal, so the elimination steps at the input's last pivot
    and after it change padding only: they are charged but not
    computed, and, as on an unpadded side, nothing divides by that
    pivot.
    """
    if tcu.execute == "cost-only":
        raise ValueError(
            "Gaussian elimination divides by the pivot values it computes, "
            "so execute='cost-only' cannot reproduce its charges; use a "
            "numeric machine"
        )
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise ValueError(f"ge_forward expects a square matrix, got {X.shape}")
    n_side = X.shape[0]
    s = tcu.sqrt_m
    padded = ceil_to_multiple(n_side, s)
    if padded != n_side:
        work = np.eye(padded, dtype=np.float64)
        work[:n_side, :n_side] = X
        tcu.charge_cpu(padded * padded)
    else:
        work = X if overwrite else X.copy()
    nb = padded // s

    for k in range(nb):
        kk = slice(k * s, (k + 1) * s)
        Xkk = work[kk, kk]
        # the step at the input's last pivot, n_side - 1, and later ones
        # eliminate padding only
        _kernel_A(tcu, Xkk, n_side - 1 - k * s)
        if k + 1 == nb:
            break
        lo = (k + 1) * s
        below = slice(lo, padded)
        xprime = _kernel_B(tcu, work[kk, below], Xkk)
        _kernel_C(tcu, work[below, kk], Xkk)
        tall = work[below, kk]  # all X_ik blocks, contiguous rows
        for j in range(0, padded - lo, s):
            # X'_j resident in the unit; the sub-column of X_ik blocks
            # streams through as one tall call (Figure 4, lines 8-10).
            update = tcu.mm(tall, xprime[:, j : j + s])
            work[below, lo + j : lo + j + s] += update
            tcu.charge_cpu((padded - lo) * s)
    return work[:n_side, :n_side]


def back_substitute(tcu: TCUMachine, U: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solve ``triu(U) x = y`` by back substitution (Theta(r^2) RAM work)."""
    U = np.asarray(U, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    r = y.shape[0]
    if U.shape[0] < r or U.shape[1] < r:
        raise ValueError(f"U of shape {U.shape} too small for {r} unknowns")
    x = np.zeros(r)
    for i in range(r - 1, -1, -1):
        acc = y[i] - U[i, i + 1 : r] @ x[i + 1 :]
        if U[i, i] == 0:
            raise ZeroDivisionError(f"zero diagonal entry at row {i}")
        x[i] = acc / U[i, i]
        tcu.charge_cpu(2 * (r - i))
    return x


def ge_solve(tcu: TCUMachine, A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` via the paper's augmented-matrix formulation.

    Builds the ``r x r`` augmented matrix of Section 4.2 (``r - 1``
    equations, last column b, last row zero), runs the Figure 4 forward
    phase, then back-substitutes (the Theta(r^2) second phase).
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be square, got {A.shape}")
    if b.shape != (A.shape[0],):
        raise ValueError(f"b of shape {b.shape} does not match A {A.shape}")
    r = A.shape[0] + 1
    c = np.zeros((r, r))
    c[: r - 1, : r - 1] = A
    c[: r - 1, r - 1] = b
    # The paper's last row is all zeros and never pivots (Figure 2 stops
    # at k = sqrt(n) - 2).  The blocked kernels sweep every row, so give
    # the inert row a unit pivot: its off-diagonals are zero, hence it
    # eliminates nothing and is ignored by back substitution.
    c[r - 1, r - 1] = 1.0
    tcu.charge_cpu(r * r)
    elim = ge_forward(tcu, c, overwrite=True)
    return back_substitute(tcu, elim[: r - 1, : r - 1], elim[: r - 1, r - 1])
