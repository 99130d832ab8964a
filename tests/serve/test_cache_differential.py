"""Differential: a cached served run equals its live twin.

One :class:`~repro.core.program.ExecutionCursor` steps both a live
:class:`~repro.core.program.Plan` and a frozen
:class:`~repro.core.plan_cache.CompiledPlan`, so the engine's default
plan cache must be invisible.  Fixed cases pin the build charges and
empty plans; Hypothesis then generates request kinds, row counts
(zero included), machines and engine knobs — preemption, stragglers,
transient failures, unit crashes, checkpoint or restart recovery and
per-level tracing — the cached run and the ``plan_cache=False`` run give
the same :meth:`ServeResult.to_dict`, the same ledger snapshot and the
same Perfetto bytes.

Serial machines use integer ``ell``, where every charge is an
integer-valued float and replay is exact.  Parallel machines leave out
stencil: its plan builds its kernel transform with four ``mm_batch``
makespans, which replay as one summed addend and may differ from the
live run in the last bit (see :mod:`repro.core.plan_cache`).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ParallelTCUMachine, TCUMachine
from repro.obs import Tracer, chrome_trace_json, prometheus_text
from repro.serve import (
    FixedRetry,
    MixedWorkload,
    PoissonWorkload,
    SeededFaultInjector,
    ServingEngine,
    TraceWorkload,
    chaos_injector,
)

ROWS = st.lists(st.integers(0, 12), min_size=1, max_size=3).map(tuple)


def without_cache_counters(result: dict) -> dict:
    """``to_dict()`` minus the cache's own hit/miss/size counters, which
    differ between the two engines by construction."""
    return {k: v for k, v in result.items() if not k.startswith("cache_")}


@st.composite
def scenarios(draw, kinds):
    classes = [
        dict(
            kind=draw(st.sampled_from(kinds)),
            rows=draw(ROWS),
            rate=draw(st.sampled_from([1e-4, 1e-3, 1e-2])),
            total=draw(st.integers(1, 8)),
            priority=priority,
            seed=draw(st.integers(0, 2**16)),
        )
        for priority in range(draw(st.sampled_from([1, 2, 2])))
    ]
    crashes = draw(st.booleans())
    faults = dict(
        fail_rate=draw(st.sampled_from([0.0, 0.1, 0.3])),
        mtbf=2e5 if crashes else None,
        mttr=5e3 if crashes else None,
        straggle_rate=draw(st.sampled_from([0.0, 0.3, 1.0])),
        straggle_factor=draw(st.sampled_from([1.5, 2.0, 3.0])),
        seed=draw(st.integers(0, 2**16)),
    )
    engine = dict(
        preempt=draw(st.sampled_from([False, True, True])),
        recovery=draw(st.sampled_from(["checkpoint", "restart"])),
        retry_delay=draw(st.sampled_from([0.0, 500.0])),
        level_trace=draw(st.booleans()),
    )
    return classes, faults, engine


def assert_cached_equals_live(make_machine, make_workload, make_faults, tracing, **knobs):
    """Serve one scenario with the default plan cache and with
    ``plan_cache=False``; both runs must agree in everything but the
    cache's own counters.  Returns the cached run's result."""
    runs = []
    for cache in (None, False):
        tracer = Tracer(detail="level") if tracing else None
        machine = make_machine()
        result = ServingEngine(
            machine, "continuous", faults=make_faults(), plan_cache=cache,
            tracer=tracer, **knobs,
        ).serve(make_workload())
        perfetto = chrome_trace_json(tracer) if tracing else None
        runs.append((result, machine.ledger.snapshot(), perfetto))
    (cached, cached_snap, cached_trace), (live, live_snap, live_trace) = runs
    assert live.cache_lookups == 0 < cached.cache_lookups
    assert without_cache_counters(cached.to_dict()) == without_cache_counters(live.to_dict())
    assert cached_snap == live_snap
    assert cached_trace == live_trace
    return cached


def assert_scenario(make_machine, scenario):
    classes, faults, knobs = scenario
    assert_cached_equals_live(
        make_machine,
        lambda: MixedWorkload(*[PoissonWorkload(**c) for c in classes]),
        lambda: SeededFaultInjector(**faults),
        knobs["level_trace"],
        preempt=knobs["preempt"],
        retry=FixedRetry(knobs["retry_delay"], max_attempts=3),
        recovery=knobs["recovery"],
    )


class TestFixedCases:
    """A compiled plan's build charges are paid when its cursor is made,
    where a live plan pays them while it is built — outside level 0, so
    a straggler on level 0 does not multiply them and a level-0 failure
    does not waste them — and an empty plan has no level to draw a
    fault on, cached or not."""

    @pytest.mark.parametrize(
        "faults",
        [
            lambda: chaos_injector(straggle_rate=1.0, straggle_factor=2.0, seed=7),
            lambda: chaos_injector(seed=7),
        ],
        ids=["stragglers", "failures"],
    )
    @pytest.mark.parametrize("kind,rows", [("stencil", 8), ("dft", 4)])
    def test_build_charges_stay_out_of_level_zero(self, kind, rows, faults):
        assert_cached_equals_live(
            lambda: TCUMachine(m=16, ell=8.0, execute="cost-only"),
            lambda: PoissonWorkload(rate=1e-4, total=60, kind=kind, rows=rows, seed=3),
            faults,
            False,
            retry="fixed",
            recovery="checkpoint",
        )

    def test_zero_row_requests_draw_no_faults(self):
        cached = assert_cached_equals_live(
            lambda: TCUMachine(m=16, ell=64.0, execute="cost-only"),
            lambda: TraceWorkload([0.0, 10.0, 20.0], kind="matmul", rows=0, seed=1),
            lambda: chaos_injector(fail_rate=0.5, seed=2),
            False,
            retry="fixed",
        )
        assert cached.faults == 0

    def test_parallel_levels_replay_their_makespan(self):
        """A compiled parallel level advances open sections and
        ``on_charge`` by its recorded makespan, as the live ``mm_batch``
        does — not by its tensor plus latency delta, which differs from
        the makespan in the last bit here."""
        runs = []
        for cache in (None, False):
            tracer = Tracer()
            machine = ParallelTCUMachine(m=16, ell=512.0, units=3, execute="cost-only")
            result = ServingEngine(
                machine, "continuous", plan_cache=cache, tracer=tracer
            ).serve(PoissonWorkload(rate=1e-5, total=3, kind="dft", rows=1, seed=0))
            counter = [
                line
                for line in prometheus_text(tracer.registry).splitlines()
                if line.startswith("ledger_tensor_time ")
            ]
            runs.append((result.kind_time["dft"], counter, machine.ledger.snapshot()))
        cached, live = runs
        assert cached == live
        assert live[:2] == (5928.0, ["ledger_tensor_time 4824"])


@settings(max_examples=160, deadline=None)
@given(
    scenario=scenarios(["matmul", "mlp", "dft", "stencil"]),
    ell=st.sampled_from([0.0, 8.0, 64.0, 512.0]),
    max_rows=st.sampled_from([None, 16]),
)
def test_cached_serving_equals_live_on_serial_machines(scenario, ell, max_rows):
    assert_scenario(
        lambda: TCUMachine(m=16, ell=ell, max_rows=max_rows, execute="cost-only"),
        scenario,
    )


@settings(max_examples=100, deadline=None)
@given(
    scenario=scenarios(["matmul", "mlp", "dft"]),
    units=st.integers(2, 4),
    ell=st.sampled_from([8.0, 64.0, 512.0]),
)
def test_cached_serving_equals_live_on_parallel_machines(scenario, units, ell):
    assert_scenario(
        lambda: ParallelTCUMachine(m=16, ell=ell, units=units, execute="cost-only"),
        scenario,
    )
