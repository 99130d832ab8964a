"""Golden pins of whole served runs.

Each case serves one fixed scenario and pins two SHA-256 digests as
literals: the canonical JSON of ``ServeResult.to_dict()`` — every
request's arrival, launch, completion and batch, every batch record,
shed and abandoned request and fault event — and of
``compute_metrics(result).to_dict()``.  The traced case also pins its
Perfetto export.  Any change to the event loop's order of arrivals,
admissions, launches or completions, or to the summaries, moves a
digest; a pure refactor of the engine moves none.
"""

import hashlib
import json

import pytest

from repro.core.machine import TCUMachine
from repro.core.presets import TPU_V1
from repro.obs import Tracer, chrome_trace_json
from repro.serve import (
    ClosedLoopWorkload,
    ContinuousBatcher,
    DeadlineAdmission,
    FixedRetry,
    MixedWorkload,
    PoissonWorkload,
    QueueCapAdmission,
    SeededFaultInjector,
    ServingEngine,
    SizeBatcher,
    TimeoutBatcher,
    TraceWorkload,
    compute_metrics,
    interactive_batch_mix,
)

ELL = 64.0


def _cost_only(**kwargs):
    return TCUMachine(m=16, ell=ELL, execute="cost-only", **kwargs)


def _poisson_continuous():
    workload = PoissonWorkload(
        rate=1 / 9e3, total=300, kind="matmul", rows=(4, 8, 16), slo=1.5e5, seed=5
    )
    return ServingEngine(_cost_only(), ContinuousBatcher(max_size=16)).serve(workload)


def _queue_cap_shed():
    workload = PoissonWorkload(rate=1 / 6e3, total=240, kind="matmul", rows=8, seed=7)
    engine = ServingEngine(
        _cost_only(), ContinuousBatcher(max_size=4), admission=QueueCapAdmission(cap=3)
    )
    return engine.serve(workload)


def _deadline_admission():
    workload = PoissonWorkload(
        rate=1 / 1e4, total=240, kind="matmul", rows=(4, 8), deadline=1.2e5, seed=11
    )
    engine = ServingEngine(
        _cost_only(), "continuous", admission=DeadlineAdmission(est_service=3e4)
    )
    return engine.serve(workload)


def _closed_loop(think):
    workload = ClosedLoopWorkload(
        clients=5, total=80, think=think, kind="mlp", rows=(2, 4), seed=13
    )
    return ServingEngine(_cost_only(), TimeoutBatcher(timeout=5e3, max_size=4)).serve(
        workload
    )


def _trace_equal_stamps():
    times = [0.0, 0.0, 0.0, 40.0, 40.0, 900.0, 900.0, 900.0, 900.0, 5e3, 5e3, 2e4]
    workload = TraceWorkload(times, kind="dft", rows=(1, 2), seed=3)
    return ServingEngine(_cost_only(), SizeBatcher(size=3)).serve(workload)


def _interactive_mix_preempt():
    workload = interactive_batch_mix(
        60, 3, interactive_load=0.6, batch_rows=2048, interactive_slo=5e5, seed=4
    )
    machine = TPU_V1.create(execute="cost-only", trace_calls=False)
    return ServingEngine(machine, "continuous", preempt=True).serve(workload)


def _chaos_fixed_abandon():
    workload = MixedWorkload(
        PoissonWorkload(
            rate=1 / 4e4, total=120, kind="matmul", rows=(4, 8), priority=1,
            deadline=2e5, seed=17,
        ),
        PoissonWorkload(
            rate=1 / 2.5e5, total=20, kind="mlp", rows=16, deadline=5e5, seed=18
        ),
    )
    engine = ServingEngine(
        _cost_only(),
        "continuous",
        preempt=True,
        faults=SeededFaultInjector(
            fail_rate=0.15, mtbf=5e5, mttr=3e4, straggle_rate=0.1,
            straggle_factor=2.0, seed=19,
        ),
        retry=FixedRetry(delay=1e4, max_attempts=3),
        abandon=True,
    )
    return engine.serve(workload)


def _numeric_uncached():
    workload = MixedWorkload(
        PoissonWorkload(rate=1 / 3e3, total=24, kind="mlp", rows=(2, 4), seed=23),
        PoissonWorkload(rate=1 / 6e3, total=12, kind="dft", rows=1, seed=24),
    )
    machine = TCUMachine(m=16, ell=ELL)
    return ServingEngine(machine, "continuous", plan_cache=False).serve(workload)


def _traced_level_run():
    """The traced case; returns the result and its Perfetto export."""
    workload = MixedWorkload(
        PoissonWorkload(
            rate=1 / 4e4, total=60, kind="matmul", rows=8, slo=1e5, priority=2,
            seed=29,
        ),
        PoissonWorkload(rate=1 / 4e5, total=6, kind="mlp", rows=64, seed=30),
    )
    tracer = Tracer(detail="level", sample_every=5e4)
    machine = _cost_only(trace_calls=True)
    result = ServingEngine(machine, "continuous", preempt=True, tracer=tracer).serve(
        workload
    )
    return result, chrome_trace_json(tracer, label="golden")


CASES = {
    "poisson-continuous": _poisson_continuous,
    "queue-cap-shed": _queue_cap_shed,
    "deadline-admission": _deadline_admission,
    "closed-loop-think": lambda: _closed_loop(2e4),
    "closed-loop-zero-think": lambda: _closed_loop(0.0),
    "trace-equal-stamps": _trace_equal_stamps,
    "interactive-mix-preempt": _interactive_mix_preempt,
    "chaos-fixed-abandon": _chaos_fixed_abandon,
    "numeric-uncached": _numeric_uncached,
    "traced-level": lambda: _traced_level_run()[0],
}

# (to_dict digest, compute_metrics digest) per case
GOLDEN = {
    "chaos-fixed-abandon": (
        "943844225d4e7b31f78721df94730265d701492423051daa4ced189d0329f29c",
        "0f303bbec71a91b3a21eee91aaf89c329724ae372ba5af5c502bd7013389c44f",
    ),
    "closed-loop-think": (
        "99110167896b3b5f819560a0b2d9a63f59b3afb9055792d507ef44d274fcf811",
        "5bf69ad2fe695d8760341c96f8781e813ae74d76b9f784e60e9e41d9e5d8364e",
    ),
    "closed-loop-zero-think": (
        "a306cd0896cf685cc04b6f295ec9071153c38be66f9f81aa262888610a1c1bcf",
        "fc14e7ed5b43b1f41a6383df0974575860c8318ccd39d3ee2b207f69b0ab9b18",
    ),
    "deadline-admission": (
        "354c42b50a481d4cc8ab70348b1bb754cfe834499029747f1addc22de645422c",
        "c011106c2245a4921e17caa0149f42d6a692d5ef4a18cd4ccbc89ca0a346360d",
    ),
    "interactive-mix-preempt": (
        "e9c2fab0ba347d97ef09751f0436de23bf461f41d4a72cac22a544a913c7eb62",
        "414362e85016ec485229fa1f74b637776cd49c372608417f3a4e89966c521f94",
    ),
    "numeric-uncached": (
        "5920fd8f4ae5f8542edfa33508d7ae1db38f63005f2e737f12d02f6585bbe732",
        "40b6a67061256d2512710b86f3893d7ea2e26f983078eecc93bee6da4ac614fe",
    ),
    "poisson-continuous": (
        "95e823c02ffd61a218bd07752496a878ad27a5a566ccf74b9082aee0761dbaa0",
        "c94c6f9e4f2c424857c4bf324cf3933f5c54d3675c50c1b46a455711ea91de80",
    ),
    "queue-cap-shed": (
        "5299c813dee7be78a615c7b4e101c634349151c734a11165cc2c92c09e7ec39f",
        "a86233423e22b50cc874e87e9a7bbef268ca1e0bad2657df44c67a1957e0b398",
    ),
    "trace-equal-stamps": (
        "b8e4705dee1657598ce714186440a7d85341ab1ffad34f797428cf98f35e9f50",
        "016970e1558a4d2f7d3430116f2b4efb658558883c13474dab1fec14ac933ede",
    ),
    "traced-level": (
        "212038ce125aa5aeebe5ae632b5c69aa23961c15a25038178242c1de893eb1cc",
        "0d264f77208125cc79abee11a8f459b0329f55ab93f6d6ce1614bf201a1f6f08",
    ),
}

# the traced case's chrome_trace_json text
TRACE_GOLDEN = "148a55f4f1a809f4700a8af174cbb9e67c661051e147db3e6e82eda4888214de"


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def digests(result) -> tuple[str, str]:
    return _digest(result.to_dict()), _digest(compute_metrics(result).to_dict())


@pytest.mark.parametrize("name", sorted(CASES))
def test_served_run_matches_golden(name):
    assert digests(CASES[name]()) == GOLDEN[name]


def test_traced_export_matches_golden():
    result, text = _traced_level_run()
    assert digests(result) == GOLDEN["traced-level"]
    assert hashlib.sha256(text.encode()).hexdigest() == TRACE_GOLDEN
