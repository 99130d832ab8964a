"""Fault-tolerance gates: zero-fault parity, seeded replay, recovery
policies, retries, degradation, and the grown conservation invariants.

These pin the PR7 acceptance criteria:

1. **Zero-fault parity.**  With the injector disabled (``None``, the
   ``"none"`` injector, or a ``"seeded"`` injector with every rate at
   zero) the engine is bit-identical to the fault-free kernel across
   the five pinned machine configurations.
2. **Seeded replay.**  Any faulty run replays bit-identically from its
   ``(workload seed, fault seed)`` pair — including through the
   engine's single top-level ``seed``.
3. **Recovery accounting.**  Checkpoint recovery wastes strictly less
   than restart on the same fault timeline, every failed attempt's
   charges stay on the ledger as accounted wasted work, and
   ``check_conservation`` holds on every faulty run — including
   degenerate ones (zero requests, all-shed, all-abandoned).
"""

import math

import numpy as np
import pytest

from repro import ParallelTCUMachine, PoissonWorkload, TCUMachine, replay_batches
from repro.core.ledger import CostLedger, LedgerError
from repro.core.program import ProgramError
from repro.serve import (
    Degrader,
    ExponentialRetry,
    FixedRetry,
    MixedWorkload,
    NoFaultInjector,
    SeededFaultInjector,
    ServingEngine,
    available_fault_injectors,
    available_retry_policies,
    compute_metrics,
    get_fault_injector,
    get_request_type,
    get_retry_policy,
)
from repro.serve.admission import DeadlineAdmission, QueueCapAdmission
from repro.serve.faults import _LEVEL_BLOCK

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


def hot_workload(seed: int = 1, total: int = 40) -> PoissonWorkload:
    return PoissonWorkload(rate=2e-4, total=total, kind="matmul", rows=8, seed=seed)


def faulty_engine(machine, **kwargs) -> ServingEngine:
    kwargs.setdefault("faults", SeededFaultInjector(fail_rate=0.25, seed=7))
    kwargs.setdefault("retry", FixedRetry(delay=100.0, max_attempts=8))
    return ServingEngine(machine, "continuous", **kwargs)


class TestZeroFaultParity:
    @pytest.mark.parametrize("config", sorted(MACHINE_CONFIGS))
    @pytest.mark.parametrize("inert", ["none", "zero-seeded"])
    def test_inert_injector_is_bit_identical(self, config, inert):
        injector = (
            NoFaultInjector()
            if inert == "none"
            else SeededFaultInjector(fail_rate=0.0, straggle_rate=0.0, seed=5)
        )
        assert not injector.active
        plain_m = MACHINE_CONFIGS[config]()
        armed_m = MACHINE_CONFIGS[config]()
        plain = ServingEngine(plain_m, "timeout").serve(hot_workload())
        armed = ServingEngine(
            armed_m, "timeout", faults=injector, retry="exponential"
        ).serve(hot_workload())
        assert armed.faults == 0 and armed.wasted_time == 0.0
        assert plain_m.ledger.snapshot() == armed_m.ledger.snapshot()
        assert plain_m.ledger.call_shape_totals() == armed_m.ledger.call_shape_totals()
        assert plain.clock == armed.clock
        assert [b.launch for b in plain.batches] == [b.launch for b in armed.batches]
        assert [b.service for b in plain.batches] == [b.service for b in armed.batches]
        for a, b in zip(plain.requests, armed.requests):
            assert (a.rid, a.launch, a.completion) == (b.rid, b.launch, b.completion)

    def test_zero_fault_result_reports_inert_columns(self):
        result = ServingEngine(TCUMachine(m=16, ell=ELL)).serve(hot_workload())
        assert result.faults == result.retries == result.degraded == 0
        assert result.wasted_time == 0.0 and result.wasted_ratio == 0.0
        assert result.availability == 1.0
        assert all(b.attempts == 1 and b.attempt_spans == () for b in result.batches)


class TestSeededReplay:
    @pytest.mark.parametrize("config", sorted(MACHINE_CONFIGS))
    def test_faulty_run_replays_bit_identically(self, config):
        def run():
            machine = MACHINE_CONFIGS[config]()
            result = faulty_engine(machine).serve(hot_workload())
            return machine, result

        m1, r1 = run()
        m2, r2 = run()
        assert r1.faults > 0, "scenario failed to trigger faults"
        assert m1.ledger.snapshot() == m2.ledger.snapshot()
        assert m1.ledger.call_shape_totals() == m2.ledger.call_shape_totals()
        assert r1.clock == r2.clock and r1.wasted_time == r2.wasted_time
        assert [
            (e.kind, e.batch, e.level, e.attempt, e.clock) for e in r1.fault_events
        ] == [(e.kind, e.batch, e.level, e.attempt, e.clock) for e in r2.fault_events]

    def test_top_level_seed_reproduces_everything(self):
        def run(seed):
            machine = TCUMachine(m=16, ell=ELL, execute="cost-only")
            result = faulty_engine(machine).serve(hot_workload(), seed=seed)
            return machine.ledger.snapshot(), result.clock, result.faults

        assert run(42) == run(42)
        snap_a, clock_a, _ = run(42)
        snap_b, clock_b, _ = run(43)
        assert clock_a != clock_b or snap_a != snap_b

    def test_seed_splits_workload_and_fault_streams(self):
        # reseeding through the engine must actually move the arrivals
        wl1, wl2 = hot_workload(seed=1), hot_workload(seed=1)
        wl2.reseed(999)
        a1 = [r.arrival for r in wl1.requests()]
        a2 = [r.arrival for r in wl2.requests()]
        assert a1 != a2

    def test_mixed_workload_reseeds_constituents_independently(self):
        mix = MixedWorkload(hot_workload(seed=1), hot_workload(seed=1))
        mix.reseed(7)
        seeds = [wl.seed for wl in mix.workloads]
        assert seeds[0] != seeds[1]


def per_level_draws(seed, straggle_rate, fail_rate, factor, levels):
    """The oracle: each level's two uniforms from its own ``random(2)``
    call on the injector's per-level substream."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])
    draws = []
    for _ in range(levels):
        u_straggle, u_fail = rng.random(2)
        draws.append(
            (factor if u_straggle < straggle_rate else 1.0, bool(u_fail < fail_rate))
        )
    return draws


# fail_rate must stay below 1, so its "always" case is the largest
# double below 1: only a uniform equal to it is not below it
RATES = [0.0, 0.05, 1.0]
FAIL_RATES = [0.0, 0.05, float(np.nextafter(1.0, 0.0))]


class TestLevelDraws:
    """``draw_level`` reads each level's uniforms from a block of its
    stream; the draws must be those of one ``random(2)`` per level."""

    LEVELS = 3 * _LEVEL_BLOCK + 5  # three refills and part of a fourth

    @pytest.mark.parametrize("fail_rate", FAIL_RATES)
    @pytest.mark.parametrize("straggle_rate", RATES)
    def test_block_draws_equal_per_level_draws(self, straggle_rate, fail_rate):
        for seed in range(10):
            inj = SeededFaultInjector(
                straggle_rate=straggle_rate, fail_rate=fail_rate,
                straggle_factor=3.0, seed=seed,
            )
            got = [inj.draw_level() for _ in range(self.LEVELS)]
            want = per_level_draws(seed, straggle_rate, fail_rate, 3.0, self.LEVELS)
            assert got == want, seed
            assert all(type(f) is float and type(x) is bool for f, x in got)

    @pytest.mark.parametrize("drawn", [1, _LEVEL_BLOCK // 2, _LEVEL_BLOCK, _LEVEL_BLOCK + 3])
    def test_begin_run_restarts_the_stream_mid_block(self, drawn):
        inj = SeededFaultInjector(straggle_rate=0.5, fail_rate=0.5, seed=3)
        want = per_level_draws(3, 0.5, 0.5, 2.0, self.LEVELS + 1)
        assert [inj.draw_level() for _ in range(drawn)] == want[:drawn]
        inj.begin_run()
        assert [inj.draw_level() for _ in range(self.LEVELS)] == want[:-1]
        # a reseed takes effect at the next begin_run, mid-block too
        inj.reseed(4)
        assert inj.draw_level() == want[-1]
        inj.begin_run()
        assert [inj.draw_level() for _ in range(self.LEVELS)] == per_level_draws(
            4, 0.5, 0.5, 2.0, self.LEVELS
        )


class TestRecoveryPolicies:
    def make(self, recovery):
        machine = TCUMachine(m=16, ell=ELL, execute="cost-only")
        engine = faulty_engine(machine, recovery=recovery)
        return engine.serve(hot_workload(total=60))

    def test_checkpoint_beats_restart_on_wasted_work(self):
        ckpt = self.make("checkpoint")
        restart = self.make("restart")
        assert ckpt.faults == restart.faults > 0
        assert ckpt.wasted_time < restart.wasted_time
        assert ckpt.wasted_ratio < restart.wasted_ratio

    def test_attempt_spans_sum_to_service(self):
        result = self.make("checkpoint")
        retried = [b for b in result.batches if b.faults > 0]
        assert retried, "scenario failed to trigger retries"
        for batch in retried:
            assert batch.attempts == len(batch.attempt_spans) > 1
            assert math.isclose(
                sum(batch.attempt_spans), batch.service, rel_tol=1e-9
            )
            assert batch.recovery_time > 0.0
            assert len(batch.retry_at) == batch.attempts - 1

    def test_restart_wastes_whole_attempts(self):
        result = self.make("restart")
        for batch in result.batches:
            if batch.faults and batch.preemptions == 0:
                # every failed attempt is fully wasted under restart
                failed = sorted(batch.attempt_spans)[:-1]
                assert batch.wasted_time >= sum(failed) * (1 - 1e-9) - batch.reload_time

    def test_invalid_recovery_name_rejected(self):
        with pytest.raises(ValueError, match="recovery"):
            ServingEngine(TCUMachine(m=16, ell=ELL), recovery="wish-harder")


class TestRetriesAndBackoff:
    def test_fixed_backoff_spaces_retries(self):
        machine = TCUMachine(m=16, ell=ELL, execute="cost-only")
        delay = 1000.0
        result = faulty_engine(
            machine, retry=FixedRetry(delay=delay, max_attempts=10)
        ).serve(hot_workload())
        retried = [b for b in result.batches if b.retry_at]
        assert retried
        # a retry can start no earlier than its failure plus the backoff
        for event in result.fault_events:
            batch = next(
                (b for b in result.batches if b.index == event.batch), None
            )
            if batch is None:
                continue
            later = [t for t in batch.retry_at if t >= event.clock]
            if later:
                assert later[0] >= event.clock + delay * (1 - 1e-9)

    def test_exponential_delay_schedule(self):
        policy = ExponentialRetry(base=10.0, factor=3.0, cap=50.0, max_attempts=6)
        assert policy.delay(2) == 10.0
        assert policy.delay(3) == 30.0
        assert policy.delay(4) == 50.0  # capped
        assert policy.delay(5) == 50.0

    def test_retry_budget_exhaustion_abandons(self):
        machine = TCUMachine(m=16, ell=ELL, execute="cost-only")
        result = ServingEngine(
            machine,
            "continuous",
            faults=SeededFaultInjector(fail_rate=0.6, seed=3),
            retry=FixedRetry(delay=0.0, max_attempts=2),
        ).serve(hot_workload())
        assert result.abandoned, "budget of 2 under 60% faults must abandon"
        assert result.availability is not None and result.availability < 1.0
        for req in result.abandoned:
            assert not req.done

    def test_no_retry_abandons_on_first_fault(self):
        machine = TCUMachine(m=16, ell=ELL, execute="cost-only")
        result = ServingEngine(
            machine,
            "continuous",
            faults=SeededFaultInjector(fail_rate=0.5, seed=2),
        ).serve(hot_workload())
        assert result.faults > 0 and result.retries == 0
        assert result.abandoned


class TestCrashesAndStragglers:
    def test_crashes_fire_and_delay_service(self):
        machine = TCUMachine(m=16, ell=ELL, execute="cost-only")
        plain_m = TCUMachine(m=16, ell=ELL, execute="cost-only")
        mtbf = 5e5
        result = ServingEngine(
            machine,
            "continuous",
            faults=SeededFaultInjector(mtbf=mtbf, mttr=1e5, seed=4),
            retry=FixedRetry(delay=0.0, max_attempts=20),
        ).serve(hot_workload(total=80))
        plain = ServingEngine(plain_m, "continuous").serve(hot_workload(total=80))
        kinds = {e.kind for e in result.fault_events}
        assert kinds == {"crash"}
        # repairs push completions later than the fault-free run
        assert result.clock > plain.clock

    def test_crash_timeline_is_a_property_of_the_seed(self):
        a = SeededFaultInjector(mtbf=100.0, mttr=10.0, seed=6)
        b = SeededFaultInjector(mtbf=100.0, mttr=10.0, seed=6)
        # a draws many level draws first; the crash stream must not move
        for _ in range(100):
            a.draw_level()
        assert a.next_crash() == b.next_crash()
        assert a.take_crash() == b.take_crash()

    def test_stragglers_charge_cpu_not_waste(self):
        machine = TCUMachine(m=16, ell=ELL, execute="cost-only")
        result = ServingEngine(
            machine,
            "continuous",
            faults=SeededFaultInjector(
                straggle_rate=1.0, straggle_factor=2.0, seed=1
            ),
        ).serve(hot_workload())
        assert result.completed == 40
        assert result.faults == 0 and result.wasted_time == 0.0
        # every level ran 2x slow: the served run charges exactly twice
        # its own uninterrupted replay, the surplus in the cpu column —
        # and the call trace is untouched (stragglers slow, not corrupt)
        fork = machine.fork()
        replay_batches(result.batches, fork)
        served, replay = machine.ledger, fork.ledger
        assert served.call_shape_totals() == replay.call_shape_totals()
        assert math.isclose(served.total_time, 2.0 * replay.total_time, rel_tol=1e-9)
        assert math.isclose(
            served.cpu_time - replay.cpu_time, replay.total_time, rel_tol=1e-9
        )


class TestGracefulDegradation:
    def wl(self):
        return hot_workload(total=50)

    def test_rows_mode_shrinks_the_batch(self):
        machine = TCUMachine(m=16, ell=ELL, execute="cost-only")
        result = faulty_engine(
            machine,
            faults=SeededFaultInjector(fail_rate=0.5, seed=5),
            degrade=Degrader(after_attempts=1, mode="rows", rows_factor=0.5),
        ).serve(self.wl())
        degraded = [b for b in result.batches if b.degraded == "rows"]
        assert degraded and result.degraded == len(degraded)
        for batch in degraded:
            assert sum(batch.rows) < 8 * len(batch.rids)

    def test_quantize_mode_replans_on_cheaper_twin(self):
        machine = TCUMachine(m=16, ell=ELL, execute="cost-only")
        result = faulty_engine(
            machine,
            faults=SeededFaultInjector(fail_rate=0.5, seed=5),
            degrade=Degrader(after_attempts=1, mode="quantize", ell_factor=0.25),
        ).serve(self.wl())
        degraded = [b for b in result.batches if b.degraded]
        assert degraded
        assert all(b.degraded == "quantize:int8" for b in degraded)
        # the twin shares the ledger: conservation already validated the
        # clock, so only the precision label needs checking here

    def test_degrader_validation(self):
        with pytest.raises(ValueError, match="after_attempts"):
            Degrader(after_attempts=0)
        with pytest.raises(ValueError, match="mode"):
            Degrader(mode="prayers")
        with pytest.raises(ValueError, match="rows_factor"):
            Degrader(rows_factor=1.5)
        with pytest.raises(ValueError, match="ell_factor"):
            Degrader(ell_factor=0.0)


class TestValidationParity:
    """Satellite: every knob rejects bad values in the TimeoutBatcher
    ValueError style, policies and admissions alike."""

    def test_admission_validation(self):
        with pytest.raises(ValueError, match="cap must be >= 1"):
            QueueCapAdmission(cap=0)
        with pytest.raises(ValueError, match="est_service must be >= 0"):
            DeadlineAdmission(est_service=-1.0)

    def test_injector_validation(self):
        with pytest.raises(ValueError, match="fail_rate"):
            SeededFaultInjector(fail_rate=-0.1)
        with pytest.raises(ValueError, match="fail_rate"):
            SeededFaultInjector(fail_rate=1.0)
        with pytest.raises(ValueError, match="mtbf and mttr"):
            SeededFaultInjector(mtbf=10.0)
        with pytest.raises(ValueError, match="mtbf must be > 0"):
            SeededFaultInjector(mtbf=0.0, mttr=1.0)
        with pytest.raises(ValueError, match="straggle_rate"):
            SeededFaultInjector(straggle_rate=2.0)
        with pytest.raises(ValueError, match="straggle_factor"):
            SeededFaultInjector(straggle_factor=0.5)

    def test_retry_validation(self):
        with pytest.raises(ValueError, match="delay must be >= 0"):
            FixedRetry(delay=-1.0)
        with pytest.raises(ValueError, match="max_attempts"):
            FixedRetry(max_attempts=0)
        with pytest.raises(ValueError, match="base must be >= 0"):
            ExponentialRetry(base=-1.0)
        with pytest.raises(ValueError, match="factor"):
            ExponentialRetry(factor=0.5)
        with pytest.raises(ValueError, match="cap"):
            ExponentialRetry(cap=-1.0)

    def test_registries(self):
        assert set(available_fault_injectors()) >= {"none", "seeded"}
        assert set(available_retry_policies()) >= {
            "no-retry",
            "fixed",
            "exponential",
        }
        assert get_fault_injector("none").name == "none"
        assert get_retry_policy("fixed").name == "fixed"
        with pytest.raises(ValueError, match="unknown fault injector"):
            get_fault_injector("gremlins")
        with pytest.raises(ValueError, match="unknown retry policy"):
            get_retry_policy("pray")


class TestLedgerAndCursorPlumbing:
    def test_attribute_wasted_bounds(self):
        ledger = CostLedger()
        ledger.charge_cpu(10.0)
        assert ledger.attribute_wasted(4.0) == 4.0
        assert ledger.wasted_time == 4.0 and ledger.useful_time == 6.0
        with pytest.raises(LedgerError, match="exceed"):
            ledger.attribute_wasted(7.0)
        with pytest.raises(LedgerError, match="negative"):
            ledger.attribute_wasted(-1.0)

    def test_attribute_wasted_excludes_reload_budget(self):
        ledger = CostLedger()
        ledger.charge_cpu(5.0)
        ledger.charge_reload(100.0)
        with pytest.raises(LedgerError, match="exceed"):
            ledger.attribute_wasted(6.0)

    def test_cursor_rewind_rejects_forward_jumps(self):
        machine = TCUMachine(m=16, ell=ELL, execute="cost-only")
        plan = get_request_type("dft").plan(machine, [512])
        from repro.core.program import ExecutionCursor

        cursor = ExecutionCursor(plan, machine)
        cursor.step()
        cursor.rewind(0)
        assert cursor.next_level == 0
        with pytest.raises(ProgramError):
            cursor.rewind(2)
        with pytest.raises(ProgramError):
            cursor.rewind(-1)

    def test_rewound_level_recharges_identically(self):
        machine = TCUMachine(m=16, ell=ELL, execute="cost-only")
        plan = get_request_type("dft").plan(machine, [512])
        from repro.core.program import ExecutionCursor

        cursor = ExecutionCursor(plan, machine)
        first = cursor.step()
        cursor.rewind(0)
        again = cursor.step()
        assert first == again


class TestDegenerateConservation:
    """Satellite: the grown invariants hold vacuously, not crash."""

    def test_zero_requests(self):
        machine = TCUMachine(m=16, ell=ELL)
        result = faulty_engine(machine).serve(
            PoissonWorkload(rate=1e-4, total=0, kind="matmul", rows=8, seed=1)
        )
        result.check_conservation()
        assert result.completed == 0 and result.availability is None
        metrics = compute_metrics(result)
        assert metrics.requests == 0 and metrics.availability is None

    def test_all_shed(self):
        machine = TCUMachine(m=16, ell=ELL)
        result = ServingEngine(
            machine,
            "size",
            admission=DeadlineAdmission(est_service=math.inf),
        ).serve(
            PoissonWorkload(
                rate=1e-4, total=10, kind="matmul", rows=8, seed=1, deadline=1.0
            )
        )
        result.check_conservation()
        assert result.completed == 0 and len(result.shed) == 10
        metrics = compute_metrics(result)
        assert metrics.shed == 10 and metrics.availability is None

    def test_all_abandoned(self):
        machine = TCUMachine(m=16, ell=ELL, execute="cost-only")
        result = ServingEngine(
            machine,
            "continuous",
            faults=SeededFaultInjector(fail_rate=0.95, seed=8),
            retry=FixedRetry(delay=0.0, max_attempts=2),
        ).serve(hot_workload(total=5))
        result.check_conservation()
        if result.completed == 0:  # the intended degenerate shape
            assert result.availability == 0.0
            assert result.batches == []
            metrics = compute_metrics(result)
            assert metrics.availability == 0.0
        assert len(result.abandoned) > 0

    def test_all_abandoned_at_launch_by_deadline(self):
        machine = TCUMachine(m=16, ell=ELL, execute="cost-only")
        result = ServingEngine(
            machine,
            # zero relative deadline: every request has already expired
            # whenever it launches, so all are abandoned unserved
            "timeout",
            abandon=True,
        ).serve(
            PoissonWorkload(
                rate=1e-2, total=8, kind="matmul", rows=8, seed=1, deadline=0.0
            )
        )
        result.check_conservation()
        assert result.completed == 0
        assert len(result.abandoned) == 8
        assert result.wasted_time == 0.0


class TestChaosPropertySweep:
    """Satellite (CI chaos-smoke): 10 random fault seeds, conservation
    and zero-fault parity asserted on every one."""

    @pytest.mark.parametrize("seed", range(10))
    def test_conservation_under_random_faults(self, seed):
        machine = TCUMachine(m=16, ell=ELL, execute="cost-only")
        result = ServingEngine(
            machine,
            "continuous",
            faults=SeededFaultInjector(
                fail_rate=0.15,
                mtbf=8e5,
                mttr=1e5,
                straggle_rate=0.1,
                seed=seed,
            ),
            retry=ExponentialRetry(base=50.0, max_attempts=5),
        ).serve(hot_workload(seed=seed))
        result.check_conservation()  # serve already ran it; pin it
        assert result.ledger_time > 0.0
        assert math.isclose(
            result.useful_time + result.wasted_time + result.reload_time,
            result.ledger_time,
            rel_tol=1e-9,
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_zero_fault_parity_per_seed(self, seed):
        plain_m = TCUMachine(m=16, ell=ELL, execute="cost-only")
        armed_m = TCUMachine(m=16, ell=ELL, execute="cost-only")
        plain = ServingEngine(plain_m, "continuous").serve(hot_workload(seed=seed))
        armed = ServingEngine(
            armed_m,
            "continuous",
            faults=SeededFaultInjector(fail_rate=0.0, seed=seed),
            retry="exponential",
        ).serve(hot_workload(seed=seed))
        assert plain_m.ledger.snapshot() == armed_m.ledger.snapshot()
        assert plain.clock == armed.clock
