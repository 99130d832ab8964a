"""Matrix multiplication on the (m, l)-TCU.

* :mod:`repro.matmul.dense`    -- Theorem 2 blocked schedule, Corollary 1
* :mod:`repro.matmul.strassen` -- Theorem 1 Strassen-like recursion
* :mod:`repro.matmul.sparse`   -- Theorem 3 output-sensitive product
* :mod:`repro.matmul.schedule` -- tiling/padding helpers
"""

from .dense import matmul, matmul_lazy, rectangular_mm, square_mm, tensor_call_count
from .schedule import block_view, ceil_to_multiple, pad_matrix, strip_view, theorem2_tasks
from .sparse import SparseProductStats, SparseRecoveryError, sparse_mm
from .strassen import (
    CLASSICAL_2X2,
    STRASSEN_2X2,
    BilinearAlgorithm,
    default_cutoff,
    recursion_depth,
    strassen_like_lazy,
    strassen_like_mm,
)

__all__ = [
    "matmul",
    "matmul_lazy",
    "square_mm",
    "rectangular_mm",
    "tensor_call_count",
    "sparse_mm",
    "SparseProductStats",
    "SparseRecoveryError",
    "BilinearAlgorithm",
    "CLASSICAL_2X2",
    "STRASSEN_2X2",
    "strassen_like_mm",
    "strassen_like_lazy",
    "default_cutoff",
    "recursion_depth",
    "pad_matrix",
    "ceil_to_multiple",
    "block_view",
    "strip_view",
    "theorem2_tasks",
]
