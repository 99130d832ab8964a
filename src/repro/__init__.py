"""tcu-model: reproduction of "A Computational Model for Tensor Core Units"
(Chowdhury, Silvestri, Vella — SPAA 2020).

The package simulates the paper's (m, l)-TCU machine — a RAM model with
a tensor unit multiplying ``n x sqrt(m)`` by ``sqrt(m) x sqrt(m)``
matrices in ``n*sqrt(m) + l`` model time — and implements every
algorithm the paper designs for it, with exact model-time accounting so
each theorem's cost bound can be measured.

Quickstart
----------
>>> import numpy as np
>>> from repro import TCUMachine, matmul
>>> tcu = TCUMachine(m=16, ell=4)
>>> A = np.arange(36.0).reshape(6, 6); B = np.eye(6)
>>> C = matmul(tcu, A, B)
>>> bool(np.array_equal(C, A)), tcu.ledger.tensor_calls > 0
(True, True)

Subpackages
-----------
core      the machine, ledger, systolic-array simulator, presets
matmul    dense / Strassen-like / sparse multiplication (Thms 1-3)
linalg    Gaussian elimination (Thm 4)
graph     transitive closure, Seidel APSD (Thms 5-6)
transform DFT, convolution, stencils (Thms 7-8)
arith     integer multiplication, polynomial evaluation (Thms 9-11)
extmem    external-memory model and the Theorem 12 simulation
analysis  theorem cost formulas, curve fitting, tables
baselines RAM-model reference implementations
serve     online inference serving: arrivals, dynamic batching, SLOs
"""

from .core import (
    PRESETS,
    TEST_UNIT,
    TPU_V1,
    VOLTA_TC,
    BatchStats,
    CompiledPlan,
    CostLedger,
    ExecutionCursor,
    MachineSpec,
    ParallelTCUMachine,
    Plan,
    PlanCache,
    PlanStats,
    QuantizedTCUMachine,
    Schedule,
    SystolicArray,
    TCUMachine,
    TensorProgram,
    TensorShapeError,
    WeakTCUMachine,
    available_schedulers,
    compile_plan,
    get_scheduler,
    placeholder,
    run_program,
    schedule_batch,
)
from .matmul import (
    CLASSICAL_2X2,
    STRASSEN_2X2,
    BilinearAlgorithm,
    matmul,
    matmul_lazy,
    rectangular_mm,
    sparse_mm,
    square_mm,
    strassen_like_mm,
)
from .serve import (
    BurstyWorkload,
    ClassMetrics,
    ClosedLoopWorkload,
    DiurnalWorkload,
    MixedWorkload,
    PoissonWorkload,
    Request,
    ServeMetrics,
    ServeResult,
    ServingEngine,
    TraceWorkload,
    compute_metrics,
    replay_batches,
)

__version__ = "1.1.0"

__all__ = [
    "TCUMachine",
    "WeakTCUMachine",
    "ParallelTCUMachine",
    "QuantizedTCUMachine",
    "BatchStats",
    "Schedule",
    "schedule_batch",
    "get_scheduler",
    "available_schedulers",
    "placeholder",
    "CostLedger",
    "SystolicArray",
    "TensorShapeError",
    "MachineSpec",
    "TPU_V1",
    "VOLTA_TC",
    "TEST_UNIT",
    "PRESETS",
    "matmul",
    "matmul_lazy",
    "TensorProgram",
    "Plan",
    "PlanStats",
    "run_program",
    "square_mm",
    "rectangular_mm",
    "sparse_mm",
    "strassen_like_mm",
    "BilinearAlgorithm",
    "CLASSICAL_2X2",
    "STRASSEN_2X2",
    "ServingEngine",
    "ServeResult",
    "ServeMetrics",
    "Request",
    "PoissonWorkload",
    "BurstyWorkload",
    "ClosedLoopWorkload",
    "TraceWorkload",
    "DiurnalWorkload",
    "MixedWorkload",
    "ClassMetrics",
    "ExecutionCursor",
    "CompiledPlan",
    "PlanCache",
    "compile_plan",
    "compute_metrics",
    "replay_batches",
    "__version__",
]
