"""Serving through the plan cache: cached replay must be invisible.

The engine routes cost-only batch execution through
:class:`~repro.core.plan_cache.PlanCache`; these gates pin that a cached
run is bit-identical to live execution — ledger snapshot, per-shape
trace totals, clock, per-batch timings, and the full preempt/resume
choreography — while the cache counters surface through
:class:`ServeResult` and :class:`ServeMetrics`.
"""

from functools import lru_cache

import pytest

from repro import (
    ParallelTCUMachine,
    PlanCache,
    PoissonWorkload,
    TCUMachine,
    compute_metrics,
)
from repro.serve import MixedWorkload, ServingEngine, get_request_type

ELL = 512.0

COST_ONLY_CONFIGS = {
    "serial-cost-only": lambda: TCUMachine(m=16, ell=ELL, execute="cost-only"),
    "max-rows-cost-only": lambda: TCUMachine(
        m=16, ell=ELL, execute="cost-only", max_rows=16
    ),
    "parallel-cost-only": lambda: ParallelTCUMachine(
        m=16, ell=ELL, units=2, execute="cost-only"
    ),
}


def mixed_workload(seed: int = 0) -> MixedWorkload:
    return MixedWorkload(
        PoissonWorkload(rate=2e-4, total=30, kind="mlp", rows=8, seed=seed + 1),
        PoissonWorkload(rate=1e-4, total=20, kind="matmul", rows=16, seed=seed + 2),
    )


@lru_cache(maxsize=None)
def service_of(kind: str, rows: int) -> float:
    machine = TCUMachine(m=16, ell=ELL, execute="cost-only", trace_calls=False)
    get_request_type(kind).serve(machine, [rows])
    return machine.ledger.total_time


def two_class_workload(seed: int = 0) -> MixedWorkload:
    s_hot = service_of("matmul", 8)
    hot_rate = 0.3 / s_hot
    horizon = 60 / hot_rate
    bulk = PoissonWorkload(
        rate=6 / horizon, total=6, kind="dft", rows=4096, seed=seed + 1, priority=0
    )
    hot = PoissonWorkload(
        rate=hot_rate, total=60, kind="matmul", rows=8, seed=seed + 2, priority=2
    )
    return MixedWorkload(bulk, hot)


def assert_same_run(cached_m, cached, live_m, live):
    assert cached_m.ledger.snapshot() == live_m.ledger.snapshot()
    assert cached_m.ledger.call_shape_totals() == live_m.ledger.call_shape_totals()
    assert cached.clock == live.clock
    assert cached.busy_time == live.busy_time
    assert [b.launch for b in cached.batches] == [b.launch for b in live.batches]
    assert [b.service for b in cached.batches] == [b.service for b in live.batches]
    assert [b.completion for b in cached.batches] == [
        b.completion for b in live.batches
    ]
    for a, b in zip(cached.requests, live.requests):
        assert (a.rid, a.launch, a.completion) == (b.rid, b.launch, b.completion)


class TestCachedServingBitIdentity:
    @pytest.mark.parametrize("config", sorted(COST_ONLY_CONFIGS))
    def test_cached_equals_uncached(self, config):
        cached_m = COST_ONLY_CONFIGS[config]()
        live_m = COST_ONLY_CONFIGS[config]()
        cached = ServingEngine(cached_m, "continuous").serve(mixed_workload())
        live = ServingEngine(live_m, "continuous", plan_cache=False).serve(
            mixed_workload()
        )
        assert cached.cache_lookups == len(cached.batches) > 0
        assert live.cache_lookups == 0
        assert_same_run(cached_m, cached, live_m, live)

    @pytest.mark.parametrize("config", sorted(COST_ONLY_CONFIGS))
    def test_preempt_then_resume_cached_equals_live(self, config):
        cached_m = COST_ONLY_CONFIGS[config]()
        live_m = COST_ONLY_CONFIGS[config]()
        cached = ServingEngine(cached_m, "continuous", preempt=True).serve(
            two_class_workload()
        )
        live = ServingEngine(
            live_m, "continuous", preempt=True, plan_cache=False
        ).serve(two_class_workload())
        assert cached.preemptions == live.preemptions > 0
        assert cached.reload_time == live.reload_time > 0.0
        for a, b in zip(cached.batches, live.batches):
            assert a.preemptions == b.preemptions
            assert a.resumes == b.resumes
            assert a.reload_time == b.reload_time
        assert_same_run(cached_m, cached, live_m, live)
        cached.check_conservation()

    def test_repeat_shapes_hit_the_cache(self):
        machine = TCUMachine(m=16, ell=ELL, execute="cost-only")
        engine = ServingEngine(machine, "size")
        workload = PoissonWorkload(rate=2e-4, total=48, kind="mlp", rows=8, seed=7)
        result = engine.serve(workload)
        # SizeBatcher emits fixed-size batches: one compile, rest hits
        assert result.cache_misses >= 1
        assert result.cache_hits > result.cache_misses
        assert result.cache_hit_rate == pytest.approx(
            result.cache_hits / result.cache_lookups
        )


class TestCachePolicy:
    def test_numeric_machine_gets_no_auto_cache(self):
        machine = TCUMachine(m=16, ell=ELL)
        engine = ServingEngine(machine, "continuous")
        assert engine.plan_cache is None
        result = engine.serve(
            PoissonWorkload(rate=2e-4, total=10, kind="matmul", rows=8, seed=3)
        )
        assert result.cache_lookups == 0
        assert result.cache_hit_rate is None

    def test_explicit_cache_on_numeric_machine_raises(self):
        machine = TCUMachine(m=16, ell=ELL)
        with pytest.raises(ValueError, match="cost-only"):
            ServingEngine(machine, "continuous", plan_cache=PlanCache())
        with pytest.raises(ValueError, match="cost-only"):
            ServingEngine(machine, "continuous", plan_cache=True)

    @pytest.mark.parametrize("bad", ["yes", 1, 0, 2.0, {}])
    def test_bad_plan_cache_fails_at_construction(self, bad):
        """Only None, True, False or a PlanCache is a plan_cache; an int
        is refused though 1 == True and 0 == False."""
        for machine in (
            TCUMachine(m=16, ell=ELL, execute="cost-only"),
            TCUMachine(m=16, ell=ELL),
        ):
            with pytest.raises(
                ValueError,
                match=r"^plan_cache must be None, True, False or a PlanCache, got ",
            ) as err:
                ServingEngine(machine, "continuous", plan_cache=bad)
            assert repr(bad) in str(err.value)

    def test_shared_cache_keeps_machine_fingerprints_apart(self):
        cache = PlanCache()
        serial = TCUMachine(m=16, ell=ELL, execute="cost-only")
        capped = TCUMachine(m=16, ell=ELL, execute="cost-only", max_rows=16)
        workload = lambda: PoissonWorkload(  # noqa: E731
            rate=2e-4, total=12, kind="mlp", rows=8, seed=5
        )
        ServingEngine(serial, "size", plan_cache=cache).serve(workload())
        ServingEngine(capped, "size", plan_cache=cache).serve(workload())
        # both machines compiled their own entry under their own key
        assert len(cache) >= 2
        assert PlanCache.key("mlp", [8] * 8, serial) != PlanCache.key(
            "mlp", [8] * 8, capped
        )
        # the shared-cache runs still match dedicated uncached runs
        check = TCUMachine(m=16, ell=ELL, execute="cost-only", max_rows=16)
        ServingEngine(check, "size", plan_cache=False).serve(workload())
        assert capped.ledger.snapshot() == check.ledger.snapshot()

    def test_counters_flow_into_metrics(self):
        machine = TCUMachine(m=16, ell=ELL, execute="cost-only")
        engine = ServingEngine(machine, "size")
        result = engine.serve(
            PoissonWorkload(rate=2e-4, total=24, kind="matmul", rows=8, seed=9)
        )
        metrics = compute_metrics(result)
        assert metrics.cache_hits == result.cache_hits
        assert metrics.cache_misses == result.cache_misses
        assert metrics.cache_size == result.cache_size == len(engine.plan_cache)
        assert metrics.cache_hit_rate == result.cache_hit_rate

    def test_counters_are_per_run_deltas(self):
        machine = TCUMachine(m=16, ell=ELL, execute="cost-only")
        engine = ServingEngine(machine, "size")
        workload = lambda seed: PoissonWorkload(  # noqa: E731
            rate=2e-4, total=24, kind="matmul", rows=8, seed=seed
        )
        first = engine.serve(workload(1))
        second = engine.serve(workload(2))
        assert first.cache_misses >= 1
        # the second run reuses the first run's compiled plans wholesale
        assert second.cache_misses == 0
        assert second.cache_hits == len(second.batches)
