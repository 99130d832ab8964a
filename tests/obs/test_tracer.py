"""The PR 9 bit-identity and reconciliation gates.

A tracer must be a pure *observer*: attaching one never changes a
single ledger charge, the final clock, or any completion time — across
machine shapes and under the harshest chaos scenario — and the spans it
records must reconcile against the engine's accounting bit-exactly
(``sum(segment durs) == busy_time``, per batch against
``BatchRecord.service``).  Two replays of a traced run export
byte-identical Chrome trace JSON.
"""

import pytest

from repro.analysis.report import trace_table
from repro.core.machine import TCUMachine
from repro.core.parallel import ParallelTCUMachine
from repro.core.presets import TPU_V1
from repro.obs import ObsError, SloBurnMonitor, Tracer, chrome_trace_json
from repro.serve import (
    PoissonWorkload,
    ServingEngine,
    chaos_injector,
    interactive_batch_mix,
)

ELL = 512.0

MACHINE_CONFIGS = {
    "serial-numeric": lambda: TCUMachine(m=16, ell=ELL),
    "serial-cost-only": lambda: TCUMachine(m=16, ell=ELL, execute="cost-only"),
    "serial-max-rows": lambda: TCUMachine(m=16, ell=ELL, max_rows=16),
    "parallel-3": lambda: ParallelTCUMachine(m=16, ell=ELL, units=3),
    "parallel-cost-only": lambda: ParallelTCUMachine(
        m=16, ell=ELL, units=2, execute="cost-only"
    ),
}

CHAOS_SEEDS = list(range(10))


def _plain_run(config, tracer=None):
    machine = MACHINE_CONFIGS[config]()
    workload = PoissonWorkload(rate=2e-4, total=50, kind="matmul", rows=8, seed=1)
    result = ServingEngine(machine, "timeout", tracer=tracer).serve(workload)
    return machine, result


def _chaos_run(seed, tracer=None, requests=60):
    machine = TPU_V1.create(execute="cost-only", trace_calls=True)
    workload = interactive_batch_mix(
        requests, 3, interactive_load=0.6, batch_rows=2048,
        interactive_slo=5e5, seed=seed,
    )
    engine = ServingEngine(
        machine,
        "continuous",
        faults=chaos_injector(
            fail_rate=0.05, crash_every=9.0, repair_for=0.4,
            straggle_rate=0.1, straggle_factor=2.5, seed=seed + 100,
        ),
        retry="fixed",
        recovery="checkpoint",
        preempt=True,
        tracer=tracer,
    )
    return machine, engine.serve(workload)


def _identical(plain_m, plain, traced_m, traced):
    return (
        plain_m.ledger.snapshot() == traced_m.ledger.snapshot()
        and plain.clock == traced.clock
        and plain.busy_time == traced.busy_time
        and len(plain.requests) == len(traced.requests)
        and all(
            a.completion == b.completion
            for a, b in zip(plain.requests, traced.requests)
        )
    )


# ----------------------------------------------------------------------
# bit-identity: tracing must not perturb the run
# ----------------------------------------------------------------------
@pytest.mark.parametrize("config", sorted(MACHINE_CONFIGS))
def test_tracing_is_charge_invisible_per_config(config):
    plain_m, plain = _plain_run(config)
    traced_m, traced = _plain_run(config, tracer=Tracer())
    assert _identical(plain_m, plain, traced_m, traced)


@pytest.mark.parametrize("config", sorted(MACHINE_CONFIGS))
def test_level_detail_keeps_charges_identical(config):
    """detail='level' forces stepwise execution; charges must not move
    (stepwise parity is a standing engine gate)."""
    plain_m, plain = _plain_run(config)
    tr = Tracer(detail="level")
    traced_m, traced = _plain_run(config, tracer=tr)
    assert _identical(plain_m, plain, traced_m, traced)
    assert tr.levels, "level detail must record per-level spans"


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_chaos_sweep_bit_identity(seed):
    plain_m, plain = _chaos_run(seed)
    traced_m, traced = _chaos_run(seed, tracer=Tracer())
    assert _identical(plain_m, plain, traced_m, traced)
    assert plain.faults == traced.faults
    assert plain.wasted_time == traced.wasted_time
    assert plain.reload_time == traced.reload_time


# ----------------------------------------------------------------------
# reconciliation: spans == ledger accounting, bit-exact
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", CHAOS_SEEDS[:5])
def test_span_totals_reconcile_exactly(seed):
    tr = Tracer()
    _, result = _chaos_run(seed, tracer=tr)
    assert tr.exec_time() == result.busy_time
    per_batch = tr.exec_time_by_batch()
    for batch in result.batches:
        assert per_batch[batch.index] == batch.service
    totals = tr.span_totals()
    completed = {b.index for b in result.batches}
    assert totals["service"] == sum(b.service for b in result.batches)
    assert totals["reload"] == sum(b.reload_time for b in result.batches)
    # every completed request accounted once, with its batch linked
    done = [r for r in tr.requests if r[3] == "done"]
    assert len(done) == len(result.requests)
    assert all(r[7] in completed for r in done)


def test_trace_covers_faults_and_sheds():
    tr = Tracer()
    _, result = _chaos_run(4, tracer=tr)
    fault_instants = [i for i in tr.instants if i[0].startswith("fault:")]
    assert len(fault_instants) == result.faults
    outcomes = {r[3] for r in tr.requests}
    assert "done" in outcomes
    assert len([r for r in tr.requests if r[3] == "abandoned"]) == len(
        result.abandoned
    )
    assert len(tr.waits) == result.retries
    assert tr.events_total() > 0


def test_replay_exports_identical_bytes():
    runs = []
    for _ in range(2):
        tr = Tracer(sample_every=2e5)
        _chaos_run(7, tracer=tr)
        runs.append(chrome_trace_json(tr))
    assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# tracer lifecycle and guard rails
# ----------------------------------------------------------------------
def test_engine_rejects_non_tracer():
    machine = MACHINE_CONFIGS["serial-numeric"]()
    with pytest.raises(ValueError, match="tracer"):
        ServingEngine(machine, "timeout", tracer=object())


def test_unknown_detail_rejected():
    with pytest.raises(ObsError, match="detail"):
        Tracer(detail="verbose")


def test_ledger_hook_is_exclusive_and_released():
    machine = MACHINE_CONFIGS["serial-numeric"]()
    tr = Tracer()
    tr.bind_ledger(machine.ledger)
    with pytest.raises(ObsError, match="already carries"):
        Tracer().bind_ledger(machine.ledger)
    tr.unbind_ledger(machine.ledger)
    assert machine.ledger.on_charge is None


def test_engine_releases_hook_after_serve():
    tr = Tracer()
    machine, _ = _plain_run("serial-numeric", tracer=tr)
    assert machine.ledger.on_charge is None
    # ledger counters mirrored the charge stream
    tensor = tr.registry.get("ledger_tensor_time").value
    assert tensor > 0.0


@pytest.mark.parametrize("cached", [True, False], ids=["cached", "live"])
@pytest.mark.parametrize(
    "make_machine",
    [
        lambda: TCUMachine(m=16, ell=ELL, execute="cost-only"),
        lambda: ParallelTCUMachine(m=16, ell=ELL, units=3, execute="cost-only"),
    ],
    ids=["serial", "parallel"],
)
def test_ledger_hook_sees_every_tensor_charge(make_machine, cached):
    """``on_charge`` fires for makespan charges too: a parallel batch and
    a replayed level pay through the same ledger entry as a serial call,
    so the mirrored counter tracks the ledger's tensor columns."""
    tr = Tracer()
    machine = make_machine()
    ServingEngine(
        machine, "continuous", tracer=tr, plan_cache=None if cached else False
    ).serve(PoissonWorkload(rate=1e-4, total=40, kind="dft", rows=(1, 2, 4), seed=1))
    led = machine.ledger
    assert led.tensor_time > 0.0
    assert tr.registry.get("ledger_tensor_time").value == pytest.approx(
        led.tensor_time + led.latency_time, rel=1e-12
    )


def test_monitors_fire_into_trace():
    tr = Tracer(
        monitors=[
            SloBurnMonitor(
                "interactive-burn", target=0.99, window=5e6,
                priority=2, min_count=4,
            )
        ]
    )
    _, result = _chaos_run(3, tracer=tr)
    assert tr.alerts, "tight SLO under chaos must trip the burn monitor"
    names = {a[0] for a in tr.alerts}
    assert names == {"interactive-burn"}
    alert_instants = [i for i in tr.instants if i[0].startswith("alert:")]
    assert len(alert_instants) == len(tr.alerts)


# ----------------------------------------------------------------------
# trace_table rides on the tracer
# ----------------------------------------------------------------------
def test_trace_table_reports_zero_deviation():
    tr = Tracer()
    _, result = _chaos_run(2, tracer=tr)
    text = trace_table(tr, result, limit=5)
    assert "deviation 0\n" in text or text.endswith("deviation 0")
    assert "critical path" in text
