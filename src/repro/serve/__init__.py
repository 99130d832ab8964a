"""Online inference serving on the (m, l)-TCU — arrivals, admission,
dynamic batching, preemptible execution, SLO metrics.

The paper's cost model prices every tensor call at ``n*sqrt(m) + l``;
its algorithms win by amortising the invocation latency ``l`` over
taller calls.  Online serving faces the same trade-off *in time*:
batching requests amortises ``l`` but makes early arrivals wait — and a
long batch holding the machine makes latency-critical requests wait
behind it.  This package is a discrete-event simulator for both
tensions, layered entirely on the existing machine stack:

* :mod:`repro.serve.workload`  -- requests (with priority classes and
  deadlines), request types that lower whole batches into explicit
  :class:`~repro.core.program.Plan` objects (MLP, dense matmul, DFT —
  all through the planned kernels), and seeded arrival processes
  (Poisson, bursty MMPP, closed-loop, recorded traces, diurnal
  envelopes, multi-class mixes);
* :mod:`repro.serve.table`     -- the per-run request store: arrivals
  as column chunks, one table row per request, and the read-only
  record views a served result exposes;
* :mod:`repro.serve.admission` -- pluggable admission control
  (unbounded, queue-cap drop, deadline-aware reject) behind a name
  registry, with shed requests reported next to goodput;
* :mod:`repro.serve.batcher`   -- pluggable dynamic-batching policies
  (continuous, size-triggered, timeout) and the priority-aware release
  selection over per-class queues;
* :mod:`repro.serve.engine`    -- the event kernel: arrivals ->
  admission -> class queues -> preemptible level-granular execution on
  :class:`~repro.core.machine.TCUMachine` /
  :class:`~repro.core.parallel.ParallelTCUMachine`, with the simulated
  clock driven by the :class:`~repro.core.ledger.CostLedger`, resume
  costs charged through the ledger's ``reload`` category, an exact
  batch-replay harness, and (on cost-only machines) a
  :class:`~repro.core.plan_cache.PlanCache` hot path that replays
  frozen per-level charge columns instead of re-planning each batch;
* :mod:`repro.serve.metrics`   -- throughput, p50/p95/p99 latency, SLO
  goodput, shed rate, preemption/reload counters, per-class
  breakdowns, engine and per-unit utilisation, availability and
  wasted-work accounting;
* :mod:`repro.serve.faults`    -- seeded deterministic fault injection
  (transient call failures, MTBF/MTTR unit crashes, stragglers),
  retry policies with backoff, and graceful degradation onto cheaper
  variants (fewer rows, or a quantized machine twin) — every faulty
  run bit-replayable from ``(workload seed, fault seed)``.

Observability rides on top: pass a :class:`~repro.obs.Tracer` to
:class:`ServingEngine` and the run emits request/batch/level spans,
fault instants and time-series metric samples, all timestamped on the
ledger clock — export via :mod:`repro.obs` (Perfetto/Chrome trace
JSON, Prometheus text) with zero cost and bit-identical charges when
no tracer is attached.
"""

from ..obs import (
    MetricsRegistry,
    Sampler,
    SloBurnMonitor,
    Tracer,
    chrome_trace_json,
    prometheus_text,
    to_chrome_trace,
    write_chrome_trace,
)

from ..core.plan_cache import CompiledPlan, PlanCache, compile_plan
from .admission import (
    AdmissionPolicy,
    DeadlineAdmission,
    QueueCapAdmission,
    UnboundedAdmission,
    available_admissions,
    get_admission,
    register_admission,
)
from .batcher import (
    BatchPolicy,
    ContinuousBatcher,
    SizeBatcher,
    TimeoutBatcher,
    available_batchers,
    get_batcher,
    priority_release,
    register_batcher,
)
from .engine import BatchRecord, ServeError, ServeResult, ServingEngine, replay_batches
from .faults import (
    Degrader,
    ExponentialRetry,
    FaultEvent,
    FaultInjector,
    FixedRetry,
    NoFaultInjector,
    NoRetry,
    RetryPolicy,
    SeededFaultInjector,
    available_fault_injectors,
    available_retry_policies,
    get_fault_injector,
    get_retry_policy,
    register_fault_injector,
    register_retry_policy,
)
from .metrics import ClassMetrics, ServeMetrics, compute_metrics
from .scenarios import (
    chaos_injector,
    interactive_batch_mix,
    size1_capacity,
    tpu_mlp_request_type,
)
from .workload import (
    BurstyWorkload,
    ClosedLoopWorkload,
    DFTRequestType,
    DiurnalWorkload,
    MatmulRequestType,
    MixedWorkload,
    MLPRequestType,
    PoissonWorkload,
    Request,
    RequestType,
    StencilRequestType,
    TraceWorkload,
    Workload,
    available_request_types,
    get_request_type,
    register_request_type,
)

__all__ = [
    "Request",
    "RequestType",
    "MatmulRequestType",
    "MLPRequestType",
    "DFTRequestType",
    "StencilRequestType",
    "register_request_type",
    "get_request_type",
    "available_request_types",
    "Workload",
    "PoissonWorkload",
    "BurstyWorkload",
    "ClosedLoopWorkload",
    "TraceWorkload",
    "DiurnalWorkload",
    "MixedWorkload",
    "AdmissionPolicy",
    "UnboundedAdmission",
    "QueueCapAdmission",
    "DeadlineAdmission",
    "register_admission",
    "get_admission",
    "available_admissions",
    "BatchPolicy",
    "ContinuousBatcher",
    "SizeBatcher",
    "TimeoutBatcher",
    "register_batcher",
    "get_batcher",
    "available_batchers",
    "priority_release",
    "ServingEngine",
    "ServeResult",
    "BatchRecord",
    "ServeError",
    "replay_batches",
    "ServeMetrics",
    "ClassMetrics",
    "compute_metrics",
    "FaultEvent",
    "FaultInjector",
    "NoFaultInjector",
    "SeededFaultInjector",
    "register_fault_injector",
    "get_fault_injector",
    "available_fault_injectors",
    "RetryPolicy",
    "NoRetry",
    "FixedRetry",
    "ExponentialRetry",
    "register_retry_policy",
    "get_retry_policy",
    "available_retry_policies",
    "Degrader",
    "size1_capacity",
    "tpu_mlp_request_type",
    "interactive_batch_mix",
    "chaos_injector",
    "PlanCache",
    "CompiledPlan",
    "compile_plan",
    "Tracer",
    "MetricsRegistry",
    "Sampler",
    "SloBurnMonitor",
    "to_chrome_trace",
    "chrome_trace_json",
    "write_chrome_trace",
    "prometheus_text",
]
