"""The PR 9 bit-identity and reconciliation gates.

A tracer must be a pure *observer*: attaching one never changes a
single ledger charge, the final clock, or any completion time — across
machine shapes and under the harshest chaos scenario — and the spans it
records must reconcile against the engine's accounting bit-exactly
(``sum(segment durs) == busy_time``, per batch against
``BatchRecord.service``).  Two replays of a traced run export
byte-identical Chrome trace JSON.
"""

import hashlib

import pytest

from repro.analysis.report import trace_table
from repro.core.machine import TCUMachine
from repro.core.parallel import ParallelTCUMachine
from repro.core.presets import TPU_V1
from repro.obs import (
    MetricsRegistry,
    ObsError,
    SloBurnMonitor,
    Tracer,
    chrome_trace_json,
)
from repro.serve import (
    MixedWorkload,
    PoissonWorkload,
    QueueCapAdmission,
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


# ----------------------------------------------------------------------
# per-plan charge mirroring == per-charge mirroring, bit for bit
# ----------------------------------------------------------------------
CATEGORIES = ("tensor", "cpu", "reload", "wasted")


def _seeded_registry():
    """A registry whose ledger counters start off-integer, so every
    addition order shows in the last bits."""
    reg = MetricsRegistry()
    for i, cat in enumerate(CATEGORIES):
        reg.counter(f"ledger_{cat}_time").inc(0.1 * (i + 1))
    return reg


def _mirror_run(make_machine, *, cached, stepwise, mirror):
    """Serve a fractional-``ell`` mix; ``mirror`` is a Tracer or, for the
    reference, a registry fed by a per-charge ``on_charge`` hook alone."""
    machine = make_machine()
    workload = MixedWorkload(
        PoissonWorkload(rate=1e-5, total=30, kind="dft", rows=(1, 2, 4), seed=2),
        PoissonWorkload(rate=1e-5, total=30, kind="mlp", rows=(1, 2), seed=3),
    )
    engine = ServingEngine(
        machine, "continuous", preempt=stepwise,
        plan_cache=None if cached else False,
        tracer=mirror if isinstance(mirror, Tracer) else None,
    )
    if not isinstance(mirror, Tracer):
        counters = {cat: mirror.counter(f"ledger_{cat}_time") for cat in CATEGORIES}

        def per_charge(category, amount):
            counters[category].value += amount

        machine.ledger.on_charge = per_charge
    engine.serve(workload)
    registry = mirror.registry if isinstance(mirror, Tracer) else mirror
    return [registry.get(f"ledger_{cat}_time").value for cat in CATEGORIES]


@pytest.mark.parametrize("sample_every", [None, 5e3], ids=["unsampled", "sampled"])
@pytest.mark.parametrize("stepwise", [False, True], ids=["one-pass", "stepwise"])
@pytest.mark.parametrize("cached", [True, False], ids=["cached", "live"])
@pytest.mark.parametrize(
    "make_machine",
    [
        lambda: TCUMachine(m=16, ell=100.3, execute="cost-only"),
        lambda: ParallelTCUMachine(m=16, ell=100.3, units=3, execute="cost-only"),
    ],
    ids=["serial", "parallel"],
)
def test_plan_mirror_equals_per_charge_mirror(make_machine, cached, stepwise, sample_every):
    reference = _mirror_run(
        make_machine, cached=cached, stepwise=stepwise, mirror=_seeded_registry()
    )
    tracer = Tracer(sample_every=sample_every, registry=_seeded_registry())
    mirrored = _mirror_run(make_machine, cached=cached, stepwise=stepwise, mirror=tracer)
    assert [v.hex() for v in mirrored] == [v.hex() for v in reference]
    assert all(type(v) is float for v in mirrored)


# ----------------------------------------------------------------------
# row views: one entry per completed batch, the rows of earlier revisions
# ----------------------------------------------------------------------
# sha256 of repr((requests, segments, batch_rows)) per chaos seed, as the
# per-request emission recorded them (every outcome: done, shed, abandoned)
ROW_DIGESTS = {
    0: "45f948341ec1abaaba79cf124c4695de29af4cdb333f0949d676769877459f0c",
    1: "48bbd9ae0422fa57b3e87a742f6b7a5283b11bf9f2d74ccd5181401fa1feed13",
    2: "9cc69ca3110ce4ae3ad7bf7adc36e20674b63bbdece8cc826f90ef755bc5bf2c",
    3: "53d0e42ec946f725d2ae0dd6a7467b0fb81441be24472e5d44ac08e340fa5889",
    4: "67a14031113eee30ad3112efc5f357b7e0a0551e656dd55e1db9da6a1c9ef3b9",
    5: "569bd8e59bd821c14d0f0dc51ddf28262aabbbbe7e30e404ffb6c7df2812af72",
    6: "79095c951b895f56db67bb43a09a2088f2161e06771460842f08ec650dd54874",
    7: "1ce742a0fc44aa1f517240733a37f671b840caaa06b57a7138d1d74800f815d3",
    8: "93c94ed2c303aead6a7d0c8323ba74a7f3469690760e84125324a80cb8598e68",
    9: "96c064eeeee429e241167a0ecfccd31c199096d9492eb6f951ddf5b1fddef86b",
}


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_row_views_match_pinned_rows(seed):
    tracer = Tracer(
        detail="level",
        sample_every=2e5,
        monitors=[
            SloBurnMonitor("burn", target=0.99, window=5e6, priority=2, min_count=4)
        ],
    )
    machine = TPU_V1.create(execute="cost-only", trace_calls=True)
    workload = interactive_batch_mix(
        60, 3, interactive_load=0.6, batch_rows=2048, interactive_slo=5e5, seed=seed
    )
    result = ServingEngine(
        machine,
        "continuous",
        admission=QueueCapAdmission(cap=2),
        faults=chaos_injector(
            fail_rate=0.05, crash_every=9.0, repair_for=0.4,
            straggle_rate=0.1, straggle_factor=2.5, seed=seed + 100,
        ),
        retry="fixed",
        recovery="checkpoint",
        preempt=True,
        abandon=True,
        tracer=tracer,
    ).serve(workload)
    rows = (tracer.requests, tracer.segments, tracer.batch_rows)
    assert {row[3] for row in rows[0]} == {"done", "shed", "abandoned"}
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == ROW_DIGESTS[seed]
    assert tracer.exec_time() == result.busy_time


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
