"""Strassen-like recursive matrix multiplication on the TCU (Theorem 1).

A *Strassen-like algorithm* (Ballard et al., as used by the paper) has a
base case that multiplies two ``sqrt(n0) x sqrt(n0)`` matrices with
``p0`` element multiplications plus ``O(n0)`` additions; recursing on
block matrices gives running time ``O(n^{omega0})`` with
``omega0 = log_{n0} p0`` (areas, so omega0 = omega/2).

Theorem 1: end the recursion once a subproblem fits the tensor unit —
the paper recurses while ``n > m * n0`` and solves the base case with
the blocked Theorem 2 schedule — giving TCU time

    T(n) = O( (n / m)^{omega0} * (m + l) ).

:class:`BilinearAlgorithm` describes the bilinear form explicitly, so
the classical 2x2 algorithm (n0 = 4, p0 = 8, omega0 = 3/2) and Strassen
(n0 = 4, p0 = 7, omega0 = log4 7 ~ 1.404) share one recursion engine;
any other (n0, p0) scheme can be plugged in the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Iterator, Mapping, Sequence

import numpy as np

from ..core.machine import TCUMachine
from ..core.program import Lazy, TensorProgram, run_program
from .dense import matmul_lazy
from .schedule import ceil_to_multiple, pad_matrix

__all__ = [
    "BilinearAlgorithm",
    "CLASSICAL_2X2",
    "STRASSEN_2X2",
    "strassen_like_mm",
    "strassen_like_lazy",
    "default_cutoff",
    "recursion_depth",
]

Coeffs = Mapping[tuple[int, int], float]


@dataclass(frozen=True)
class BilinearAlgorithm:
    """An explicit bilinear matrix-multiplication scheme.

    Attributes
    ----------
    name:
        Human-readable identifier.
    block:
        Split factor ``b``: operands are viewed as ``b x b`` block
        matrices, so the paper's base-case *area* is ``n0 = b**2``.
    products:
        For each of the ``p0`` products, a pair ``(a_coeffs, b_coeffs)``
        of sparse linear combinations over the operand blocks, e.g.
        ``({(0, 0): 1, (1, 1): 1}, {(0, 0): 1, (1, 1): 1})`` for
        Strassen's M1.
    c_terms:
        For each output block ``(i, j)``, the linear combination of
        products that forms it, as ``((product_index, coefficient), ...)``.
    """

    name: str
    block: int
    products: tuple[tuple[Coeffs, Coeffs], ...]
    c_terms: Mapping[tuple[int, int], Sequence[tuple[int, float]]]

    @property
    def n0(self) -> int:
        """Base-case problem *area* (the paper's n0)."""
        return self.block * self.block

    @property
    def p0(self) -> int:
        """Element multiplications per recursion step."""
        return len(self.products)

    @property
    def omega0(self) -> float:
        """The exponent ``log_{n0} p0`` (area convention; = omega/2)."""
        return math.log(self.p0) / math.log(self.n0)

    def validate(self) -> None:
        """Sanity-check block indices; raises ValueError on a bad scheme."""
        b = self.block
        for a_c, b_c in self.products:
            for (i, j) in list(a_c) + list(b_c):
                if not (0 <= i < b and 0 <= j < b):
                    raise ValueError(f"block index ({i},{j}) out of range for b={b}")
        for (i, j), terms in self.c_terms.items():
            if not (0 <= i < b and 0 <= j < b):
                raise ValueError(f"output block ({i},{j}) out of range for b={b}")
            for idx, _ in terms:
                if not (0 <= idx < self.p0):
                    raise ValueError(f"product index {idx} out of range")


CLASSICAL_2X2 = BilinearAlgorithm(
    name="classical",
    block=2,
    products=tuple(
        ({(i, k): 1}, {(k, j): 1}) for i in range(2) for j in range(2) for k in range(2)
    ),
    # products are ordered (i, j, k) row-major: index = 4*i + 2*j + k
    c_terms={
        (i, j): tuple((4 * i + 2 * j + k, 1) for k in range(2))
        for i in range(2)
        for j in range(2)
    },
)

STRASSEN_2X2 = BilinearAlgorithm(
    name="strassen",
    block=2,
    products=(
        ({(0, 0): 1, (1, 1): 1}, {(0, 0): 1, (1, 1): 1}),  # M1
        ({(1, 0): 1, (1, 1): 1}, {(0, 0): 1}),  # M2
        ({(0, 0): 1}, {(0, 1): 1, (1, 1): -1}),  # M3
        ({(1, 1): 1}, {(1, 0): 1, (0, 0): -1}),  # M4
        ({(0, 0): 1, (0, 1): 1}, {(1, 1): 1}),  # M5
        ({(1, 0): 1, (0, 0): -1}, {(0, 0): 1, (0, 1): 1}),  # M6
        ({(0, 1): 1, (1, 1): -1}, {(1, 0): 1, (1, 1): 1}),  # M7
    ),
    c_terms={
        (0, 0): ((0, 1), (3, 1), (4, -1), (6, 1)),
        (0, 1): ((2, 1), (4, 1)),
        (1, 0): ((1, 1), (3, 1)),
        (1, 1): ((0, 1), (1, -1), (2, 1), (5, 1)),
    },
)


def default_cutoff(tcu: TCUMachine, algorithm: BilinearAlgorithm) -> int:
    """Largest base-case side: recurse while the *area* exceeds ``m * n0``
    (the paper's recursion boundary), i.e. while side > sqrt(m * n0)."""
    side = math.isqrt(tcu.m * algorithm.n0)
    return max(side, tcu.sqrt_m, algorithm.block)


def recursion_depth(side: int, cutoff: int, block: int) -> int:
    """Levels of recursion :func:`strassen_like_mm` performs for a
    ``side x side`` product (0 when the base case fires immediately)."""
    depth = 0
    while side > cutoff:
        side = ceil_to_multiple(side, block) // block
        depth += 1
    return depth


def _operand_pairs(
    tcu: TCUMachine,
    A: np.ndarray,
    B: np.ndarray,
    alg: BilinearAlgorithm,
    sub: int,
    dtype: np.dtype,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The ``p0`` operand pairs of one recursion step, formed one pair
    at a time: linear combinations of the operands' ``sub x sub``
    blocks, charging one RAM unit per word per term (one charge for the
    step, paid when the first pair is formed)."""
    b = alg.block
    blocksA = [[A[i * sub : (i + 1) * sub, j * sub : (j + 1) * sub] for j in range(b)] for i in range(b)]
    blocksB = [[B[i * sub : (i + 1) * sub, j * sub : (j + 1) * sub] for j in range(b)] for i in range(b)]
    terms = sum(len(a_coeffs) + len(b_coeffs) for a_coeffs, b_coeffs in alg.products)
    tcu.charge_cpu(terms * sub * sub)
    for a_coeffs, b_coeffs in alg.products:
        yield _combine(blocksA, a_coeffs, sub, dtype), _combine(blocksB, b_coeffs, sub, dtype)


def _combine(
    blocks: list[list[np.ndarray]], coeffs: Coeffs, side: int, dtype: np.dtype
) -> np.ndarray:
    """A linear combination of operand blocks (charged by the caller)."""
    out = np.zeros((side, side), dtype=dtype)
    for (i, j), coef in coeffs.items():
        if coef == 1:
            out += blocks[i][j]
        elif coef == -1:
            out -= blocks[i][j]
        else:
            out += coef * blocks[i][j]
    return out


def _validated(
    tcu: TCUMachine,
    A: np.ndarray,
    B: np.ndarray,
    algorithm: BilinearAlgorithm,
    cutoff: int | None,
) -> tuple[np.ndarray, np.ndarray, int]:
    A = np.asarray(A)
    B = np.asarray(B)
    if A.ndim != 2 or A.shape != B.shape or A.shape[0] != A.shape[1]:
        raise ValueError(
            f"strassen_like_mm expects equal square operands, got {A.shape} and {B.shape}"
        )
    algorithm.validate()
    if cutoff is None:
        cutoff = default_cutoff(tcu, algorithm)
    if cutoff < algorithm.block:
        raise ValueError(f"cutoff must be >= block={algorithm.block}")
    return A, B, cutoff


def strassen_like_mm(
    tcu: TCUMachine,
    A: np.ndarray,
    B: np.ndarray,
    *,
    algorithm: BilinearAlgorithm = STRASSEN_2X2,
    cutoff: int | None = None,
) -> np.ndarray:
    """Theorem 1: recursive Strassen-like product with a TCU base case.

    ``A`` and ``B`` must be square and of equal side; the recursion pads
    each level to a multiple of ``algorithm.block`` (cost charged) and
    switches to the Theorem 2 blocked schedule once the side is at most
    ``cutoff`` (default: the paper's ``sqrt(m * n0)`` boundary).

    The recursion *builds* all its leaf Theorem 2 schedules into one
    :class:`TensorProgram` — the leaves' operands are pure CPU
    combinations of the inputs, so every leaf call is independent and
    lands in a single plan level, batched on parallel machines — then
    executes the program once and assembles the result bottom-up.  On a
    sequential machine it charges exactly what the classic eager
    recursion charges.
    """
    A, B, cutoff = _validated(tcu, A, B, algorithm, cutoff)
    program = TensorProgram()
    lazy = _recurse_lazy(tcu, program, A, B, algorithm, cutoff)
    run_program(program, tcu)
    return lazy.result()


def strassen_like_lazy(
    tcu: TCUMachine,
    program: TensorProgram,
    A: np.ndarray,
    B: np.ndarray,
    *,
    algorithm: BilinearAlgorithm = STRASSEN_2X2,
    cutoff: int | None = None,
) -> Lazy:
    """Append a Theorem 1 recursion to a caller-owned program.

    The operand combinations are charged immediately (they are RAM
    work); the leaf tensor calls join ``program`` and run when the
    caller executes it, after which the returned
    :class:`~repro.core.program.Lazy` assembles the product.
    """
    A, B, cutoff = _validated(tcu, A, B, algorithm, cutoff)
    return _recurse_lazy(tcu, program, A, B, algorithm, cutoff)


def _recurse_lazy(
    tcu: TCUMachine,
    program: TensorProgram,
    A: np.ndarray,
    B: np.ndarray,
    alg: BilinearAlgorithm,
    cutoff: int,
) -> Lazy:
    """Build the recursion's leaf schedules into ``program``.

    Operand combinations happen (and are charged) during the build —
    they never depend on a tensor result, so every leaf ``mm`` node is
    dependency-free and the planner sees the whole recursion as one flat
    level of independent calls.  The returned :class:`Lazy` performs the
    bottom-up ``C`` assembly (one charge for its terms) once the
    program has run.
    """
    side = A.shape[0]
    if side <= cutoff:
        return matmul_lazy(tcu, program, A, B)
    b = alg.block
    padded = ceil_to_multiple(side, b)
    if padded != side:
        tcu.charge_cpu(2 * padded * padded)
        A = pad_matrix(A, padded, padded)
        B = pad_matrix(B, padded, padded)
    sub = padded // b
    dtype = np.result_type(A.dtype, B.dtype)
    lazies = [
        _recurse_lazy(tcu, program, left, right, alg, cutoff)
        for left, right in _operand_pairs(tcu, A, B, alg, sub, dtype)
    ]

    def assemble() -> np.ndarray:
        prods = [lazy.result() for lazy in lazies]
        return _assemble(tcu, alg, prods, padded, sub, dtype)[:side, :side]

    return Lazy(assemble)


def _assemble(
    tcu: TCUMachine,
    alg: BilinearAlgorithm,
    prods: list[np.ndarray],
    padded: int,
    sub: int,
    dtype: np.dtype,
) -> np.ndarray:
    """Form the output blocks from the products, charging one RAM unit
    per word per term (one charge for the whole assembly)."""
    C = np.zeros((padded, padded), dtype=dtype)
    terms_total = 0
    for (i, j), terms in alg.c_terms.items():
        out = C[i * sub : (i + 1) * sub, j * sub : (j + 1) * sub]
        for idx, coef in terms:
            if coef == 1:
                out += prods[idx]
            elif coef == -1:
                out -= prods[idx]
            else:
                out += coef * prods[idx]
        terms_total += len(terms)
    tcu.charge_cpu(terms_total * sub * sub)
    return C
