"""Dense matrix multiplication on the (m, l)-TCU (Theorem 2, Corollary 1).

Theorem 2's algorithm: split the left matrix A into ``sqrt(m)``-wide
*tall* vertical strips ``A_i`` and the right matrix B into
``sqrt(m) x sqrt(m)`` blocks ``B_{i,j}``.  Each ``C_{i,j} = A_i B_{i,j}``
is one tensor call on a tall operand (cost ``p * sqrt(m) + l``), and the
output strip ``C_j = sum_i C_{i,j}`` needs only additions.  For square
``sqrt(n) x sqrt(n)`` inputs this gives the semiring-optimal

    Theta( n^{3/2} / sqrt(m)  +  (n/m) * l )

model time; :func:`matmul` generalises the same schedule to arbitrary
``p x q`` times ``q x r`` shapes, which also yields Corollary 1's bound
``Theta(rn/sqrt(m) + (r*sqrt(n)/m) l)`` for ``sqrt(n) x r`` by
``r x sqrt(n)`` products.

Plan/execute split
------------------
A product is one grid node of a lazy
:class:`~repro.core.program.TensorProgram`
(:meth:`~repro.core.program.TensorProgram.grid`): the ``kq * kr``
``C_{i,j}`` calls plus the strip sums ``C_j = sum_i C_{i,j}``, planned,
levelled and charged exactly like one ``mm`` node per call and one
``add`` node per output block column.  :func:`matmul` runs its one grid
through the level executor: a
:class:`~repro.core.parallel.ParallelTCUMachine` plans it (the planner
batches its calls over the units), a sequential machine runs it unplanned
(a lone grid has nothing to merge) — as a single ``A @ B`` GEMM on
machines that can fuse it.  Across products sharing a resident block
(see :func:`matmul_lazy`) the planner merges calls so k products pay one
latency.
"""

from __future__ import annotations

import numpy as np

from ..core.machine import TCUMachine, placeholder
from ..core.parallel import ParallelTCUMachine
from ..core.program import Lazy, TensorProgram, check_split, run_grid, run_program
from .schedule import ceil_to_multiple, pad_matrix, padded_copy_cost

__all__ = [
    "matmul",
    "matmul_lazy",
    "square_mm",
    "rectangular_mm",
    "tensor_call_count",
]


def _check_operands(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    A = np.asarray(A)
    B = np.asarray(B)
    if A.ndim != 2 or B.ndim != 2:
        raise ValueError("matmul expects 2-D operands")
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"inner dimensions disagree: {A.shape} @ {B.shape}")
    return A, B


def _pad_operands(
    tcu: TCUMachine, A: np.ndarray, B: np.ndarray, charge_padding: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Pad both operands to the tensor-unit grid, charging the copies.

    On a cost-only machine a padded copy is an O(1) placeholder: the
    copy is charged but never materialised (a fresh copy's blocks are
    distinct from every other buffer either way).
    """
    p, q = A.shape
    _, r = B.shape
    s = tcu.sqrt_m
    p_pad = max(p, s)
    q_pad = ceil_to_multiple(q, s)
    r_pad = ceil_to_multiple(r, s)
    if charge_padding:
        tcu.charge_cpu(
            padded_copy_cost(A, p_pad, q_pad) + padded_copy_cost(B, q_pad, r_pad)
        )
    if tcu.execute == "cost-only":
        return _padded_placeholder(A, p_pad, q_pad), _padded_placeholder(B, q_pad, r_pad)
    return pad_matrix(A, p_pad, q_pad), pad_matrix(B, q_pad, r_pad)


def _padded_placeholder(M: np.ndarray, rows: int, cols: int) -> np.ndarray:
    return M if M.shape == (rows, cols) else placeholder((rows, cols), M.dtype)


def matmul(
    tcu: TCUMachine,
    A: np.ndarray,
    B: np.ndarray,
    *,
    charge_padding: bool = True,
    split: str | int = "auto",
) -> np.ndarray:
    """``C = A @ B`` for arbitrary 2-D shapes via the Theorem 2 schedule.

    Parameters
    ----------
    tcu:
        The machine executing (and billing) the computation.
    A, B:
        ``p x q`` and ``q x r`` arrays over a common dtype family.
    charge_padding:
        Charge the RAM-model cost of materialising padded copies (on by
        default; disable only inside algorithms that pre-pad).
    split:
        Validated on entry for every machine (``"auto"`` or an integer
        ``>= 1``, else :class:`~repro.core.program.ProgramError`) and
        forwarded to :func:`~repro.core.program.plan_program` on a
        parallel machine: ``"auto"`` (default) lets the cost model split
        merged tall calls across the units, ``1`` pins the legacy
        one-call-per-group schedule, an explicit ``s`` forces ``s``
        chunks per group.  Sequential machines are unaffected
        (splitting is the identity there).

    On a machine with ``execute="cost-only"`` the product is never
    computed and no padded copy is materialised: the schedule's exact
    model cost is charged from shapes alone and an O(1)-storage
    placeholder is returned, so sweeps can run at ledger speed on
    operands that are themselves placeholders.

    The schedule is one grid node run through the level executor: a
    :class:`~repro.core.parallel.ParallelTCUMachine` plans the grid and
    batches its calls over the units; a sequential machine runs it
    unplanned — one ``A @ B`` GEMM with one vectorised ledger charge on
    machines that can fuse it, a stacked grid product whose every call
    is checked on overflow-checked machines, the grid's calls through
    the machine's own primitive on row-bounded, weak, quantised and
    systolic machines.

    Notes
    -----
    The right operand block ``B_{i,j}`` is loaded once per tensor call
    while the *whole* height-``p`` strip of A streams through — the
    asymmetric behaviour of Section 3 (property 3).  Output additions
    are charged one RAM unit per word.
    """
    check_split(split)
    A, B = _check_operands(A, B)
    p, q = A.shape
    _, r = B.shape
    if p == 0 or q == 0 or r == 0:
        return np.zeros((p, r), dtype=np.result_type(A.dtype, B.dtype))
    Ap, Bp = _pad_operands(tcu, A, B, charge_padding)
    program = TensorProgram()
    product = program.grid(Ap, Bp, tcu.sqrt_m)
    if isinstance(tcu, ParallelTCUMachine):
        run_program(program, tcu, split=split)
    else:
        run_grid(product, tcu)
    return product.result()[:p, :r]


def matmul_lazy(
    tcu: TCUMachine,
    program: TensorProgram,
    A: np.ndarray,
    B: np.ndarray,
    *,
    charge_padding: bool = True,
) -> Lazy:
    """Append a Theorem 2 product to a caller-owned program, as one
    grid node (:meth:`~repro.core.program.TensorProgram.grid`).

    This is how independent products join one plan: every product built
    into the same program is planned together, so calls that share a
    resident right-hand block merge into one tall call (one latency for
    all of them) and each DAG level batches on parallel machines.  The
    caller must :func:`~repro.core.program.run_program` the program
    before reading the returned :class:`~repro.core.program.Lazy`.

    Padding copies are charged at build time (set ``charge_padding``
    False when operands are pre-padded).  Note the planner merges by
    buffer identity: pass the *same* ``B`` object (already padded if
    padding would be needed) to every product that should share its
    residency.
    """
    A, B = _check_operands(A, B)
    p, q = A.shape
    _, r = B.shape
    if p == 0 or q == 0 or r == 0:
        empty = np.zeros((p, r), dtype=np.result_type(A.dtype, B.dtype))
        return Lazy(lambda: empty)
    product = program.grid(*_pad_operands(tcu, A, B, charge_padding), tcu.sqrt_m)
    return Lazy(lambda: product.result()[:p, :r])


def square_mm(tcu: TCUMachine, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Theorem 2 specialised to square operands (shape-checked)."""
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(
            f"square_mm expects equal square operands, got {A.shape} and {B.shape}"
        )
    return matmul(tcu, A, B)


def rectangular_mm(
    tcu: TCUMachine,
    A: np.ndarray,
    B: np.ndarray,
    *,
    algorithm=None,
) -> np.ndarray:
    """Corollary 1: multiply ``sqrt(n) x r`` by ``r x sqrt(n)``.

    With ``algorithm=None`` this is the Theorem 2 schedule (semiring
    cost ``rn/sqrt(m) + (r sqrt(n)/m) l``).  Passing a
    :class:`~repro.matmul.strassen.BilinearAlgorithm` instead decomposes
    the product into ``t x t`` squares with ``t = min(sqrt(n), r)`` and
    runs the Strassen-like recursion of Theorem 1 on each square, as the
    corollary's proof prescribes.  All the square subproducts' leaf
    calls join one program and are planned together.
    """
    A = np.asarray(A)
    B = np.asarray(B)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
        raise ValueError(f"incompatible shapes {A.shape} @ {B.shape}")
    if algorithm is None:
        return matmul(tcu, A, B)

    from .strassen import default_cutoff, strassen_like_lazy

    p, q = A.shape
    _, r = B.shape
    t = min(p, q, r)
    t_pad = max(t, 1)
    p_pad = ceil_to_multiple(p, t_pad)
    q_pad = ceil_to_multiple(q, t_pad)
    r_pad = ceil_to_multiple(r, t_pad)
    tcu.charge_cpu(
        padded_copy_cost(A, p_pad, q_pad) + padded_copy_cost(B, q_pad, r_pad)
    )
    Ap = pad_matrix(A, p_pad, q_pad)
    Bp = pad_matrix(B, q_pad, r_pad)
    C = np.zeros((p_pad, r_pad), dtype=np.result_type(Ap.dtype, Bp.dtype))

    # All t x t subproducts are independent: build their recursions into
    # one shared program so every leaf call is planned (and on parallel
    # machines batched) together.
    program = TensorProgram()
    cutoff = default_cutoff(tcu, algorithm)
    tasks = []
    for bi in range(p_pad // t_pad):
        for bj in range(r_pad // t_pad):
            for bk in range(q_pad // t_pad):
                blockA = Ap[bi * t_pad : (bi + 1) * t_pad, bk * t_pad : (bk + 1) * t_pad]
                blockB = Bp[bk * t_pad : (bk + 1) * t_pad, bj * t_pad : (bj + 1) * t_pad]
                lazy = strassen_like_lazy(
                    tcu, program, blockA, blockB, algorithm=algorithm, cutoff=cutoff
                )
                tasks.append((bi, bj, lazy))
    run_program(program, tcu)
    for bi, bj, lazy in tasks:
        acc = C[bi * t_pad : (bi + 1) * t_pad, bj * t_pad : (bj + 1) * t_pad]
        acc += lazy.result()
        tcu.charge_cpu(t_pad * t_pad)
    return C[:p, :r]


def tensor_call_count(p: int, q: int, r: int, sqrt_m: int) -> int:
    """Number of tensor calls the Theorem 2 schedule issues for
    ``p x q @ q x r`` (used by tests to pin the accounting down)."""
    q_pad = ceil_to_multiple(q, sqrt_m)
    r_pad = ceil_to_multiple(r, sqrt_m)
    return (q_pad // sqrt_m) * (r_pad // sqrt_m)
