"""Core of the reproduction: the simulated (m, l)-TCU machine.

* :mod:`repro.core.ledger`     -- model-time accounting
* :mod:`repro.core.program`    -- lazy TensorProgram IR, planner, executor
* :mod:`repro.core.machine`    -- the (m, l)-TCU and the weak model of §5
* :mod:`repro.core.scheduling` -- multi-unit scheduling policies (§6)
* :mod:`repro.core.systolic`   -- cycle-level systolic array (Figure 1)
* :mod:`repro.core.words`      -- kappa-bit word discipline (§4.7)
* :mod:`repro.core.presets`    -- TPUv1 / Volta-TC parameterisations (§3.1)
"""

from .ledger import CallTrace, CostLedger, LedgerError, LedgerSpan, TensorCall
from .machine import TCUMachine, TensorShapeError, WeakTCUMachine, placeholder
from .parallel import BatchStats, ParallelTCUMachine
from .scheduling import (
    BruteForceScheduler,
    GreedyOnlineScheduler,
    LPTScheduler,
    RoundRobinScheduler,
    Schedule,
    SchedulerPolicy,
    available_schedulers,
    get_scheduler,
    lpt_bound,
    register_scheduler,
    schedule_batch,
)
from .plan_cache import CompiledPlan, LevelCharges, PlanCache, compile_plan
from .program import (
    ExecutionCursor,
    Lazy,
    Plan,
    PlanStats,
    ProgramError,
    TensorOp,
    TensorProgram,
    execute_plan,
    plan_program,
    run_program,
)
from .presets import PRESETS, TEST_UNIT, TPU_V1, VOLTA_TC, MachineSpec
from .quantize import QuantizationErrorStats, QuantizedTCUMachine, quantize_array
from .systolic import SystolicArray, SystolicRunStats
from .words import (
    OverflowError_,
    WordSpec,
    check_no_overflow,
    int_to_limbs,
    limbs_to_int,
    safe_limb_bits,
)

__all__ = [
    "CostLedger",
    "CallTrace",
    "LedgerError",
    "LedgerSpan",
    "TensorCall",
    "TensorProgram",
    "TensorOp",
    "Plan",
    "PlanStats",
    "ProgramError",
    "Lazy",
    "ExecutionCursor",
    "CompiledPlan",
    "LevelCharges",
    "PlanCache",
    "compile_plan",
    "plan_program",
    "execute_plan",
    "run_program",
    "TCUMachine",
    "WeakTCUMachine",
    "TensorShapeError",
    "placeholder",
    "ParallelTCUMachine",
    "BatchStats",
    "Schedule",
    "SchedulerPolicy",
    "LPTScheduler",
    "RoundRobinScheduler",
    "GreedyOnlineScheduler",
    "BruteForceScheduler",
    "schedule_batch",
    "get_scheduler",
    "register_scheduler",
    "available_schedulers",
    "lpt_bound",
    "QuantizedTCUMachine",
    "QuantizationErrorStats",
    "quantize_array",
    "SystolicArray",
    "SystolicRunStats",
    "WordSpec",
    "OverflowError_",
    "safe_limb_bits",
    "int_to_limbs",
    "limbs_to_int",
    "check_no_overflow",
    "MachineSpec",
    "TPU_V1",
    "VOLTA_TC",
    "TEST_UNIT",
    "PRESETS",
]
