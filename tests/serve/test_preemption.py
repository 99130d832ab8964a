"""Preemption gates: zero-preemption bit-identity and resume charge parity.

These pin the PR5 acceptance criteria, mirroring the PR4 replay gates:

1. **Zero-preemption bit-identity.**  With preemption disabled (or
   enabled but never triggered — one priority class), the event kernel
   reproduces the run-to-completion engine exactly: per-shape charges,
   completions and the final clock are bit-identical whether or not the
   preemption machinery is armed, on every machine configuration.
2. **Preempt/resume charge parity.**  A preempted run's tensor, latency
   and cpu charges equal the uninterrupted serial replay's *exactly*,
   and its total exceeds the replay by precisely the ledgered reload
   charges — checkpoint/restore moves work in time and costs exactly
   what the ledger says it costs, on plain / max_rows / parallel /
   cost-only machines alike.
"""

import math
from functools import lru_cache

import pytest

from repro import ParallelTCUMachine, PoissonWorkload, TCUMachine, replay_batches
from repro.serve import (
    MixedWorkload,
    ServingEngine,
    get_request_type,
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


@lru_cache(maxsize=None)
def service_of(kind: str, rows: int) -> float:
    """Measured single-request service time on the reference machine."""
    machine = TCUMachine(m=16, ell=ELL, execute="cost-only", trace_calls=False)
    get_request_type(kind).serve(machine, [rows])
    return machine.ledger.total_time


def two_class_workload(seed: int = 0) -> MixedWorkload:
    """Slow, huge bulk-DFT jobs under a fast high-priority matmul
    stream, with rates derived from *measured* service times so bulk
    executions reliably straddle several high-priority arrivals (each
    bulk job is ~14x a hot request, spread over ~11 plan levels)."""
    s_hot = service_of("matmul", 8)
    hot_rate = 0.3 / s_hot  # hot class at 30% of its own capacity
    horizon = 60 / hot_rate
    bulk = PoissonWorkload(
        rate=6 / horizon, total=6, kind="dft", rows=4096, seed=seed + 1, priority=0
    )
    hot = PoissonWorkload(
        rate=hot_rate, total=60, kind="matmul", rows=8, seed=seed + 2, priority=2
    )
    return MixedWorkload(bulk, hot)


def preempting_engine(machine) -> ServingEngine:
    return ServingEngine(machine, "continuous", preempt=True)


class TestZeroPreemptionBitIdentity:
    @pytest.mark.parametrize("config", sorted(MACHINE_CONFIGS))
    def test_preempt_flag_is_inert_for_one_class(self, config):
        """One priority class can never preempt itself: arming the
        machinery must change nothing, bit for bit."""
        workload = lambda: PoissonWorkload(  # noqa: E731
            rate=2e-4, total=60, kind="mlp", rows=8, seed=11
        )
        plain_m = MACHINE_CONFIGS[config]()
        armed_m = MACHINE_CONFIGS[config]()
        plain = ServingEngine(plain_m, "timeout", preempt=False).serve(workload())
        armed = ServingEngine(armed_m, "timeout", preempt=True).serve(workload())
        assert armed.preemptions == 0 and armed.reload_time == 0.0
        assert plain_m.ledger.snapshot() == armed_m.ledger.snapshot()
        assert plain_m.ledger.call_shape_totals() == armed_m.ledger.call_shape_totals()
        assert plain.clock == armed.clock
        assert [b.launch for b in plain.batches] == [b.launch for b in armed.batches]
        assert [b.service for b in plain.batches] == [b.service for b in armed.batches]
        for a, b in zip(plain.requests, armed.requests):
            assert (a.rid, a.launch, a.completion) == (b.rid, b.launch, b.completion)

    def test_unpreempted_batches_keep_the_pr4_invariants(self):
        machine = TCUMachine(m=16, ell=ELL)
        result = ServingEngine(machine, "continuous", preempt=True).serve(
            PoissonWorkload(rate=2e-4, total=40, kind="matmul", rows=8, seed=3)
        )
        result.check_conservation()
        for request in result.requests:
            batch = result.batches[request.batch]
            assert request.completion == batch.launch + batch.service
        for prev, cur in zip(result.batches, result.batches[1:]):
            assert cur.launch >= prev.completion


class TestPreemptResumeChargeParity:
    @pytest.mark.parametrize("config", sorted(MACHINE_CONFIGS))
    def test_preempted_run_equals_replay_plus_reload(self, config):
        machine = MACHINE_CONFIGS[config]()
        result = preempting_engine(machine).serve(two_class_workload())
        result.check_conservation()
        assert result.preemptions > 0, "scenario failed to trigger preemption"
        assert result.reload_time > 0.0

        fork = machine.fork()
        replay_batches(result.batches, fork)
        served, replay = machine.ledger, fork.ledger
        # hardware work is identical, shape by shape, bit for bit
        assert served.call_shape_totals() == replay.call_shape_totals()
        assert served.tensor_calls == replay.tensor_calls
        assert served.tensor_time == replay.tensor_time
        assert served.latency_time == replay.latency_time
        assert served.cpu_time == replay.cpu_time
        # ...and the only extra cost is the explicitly ledgered reload
        assert replay.reload_time == 0.0
        assert math.isclose(
            served.total_time, replay.total_time + served.reload_time, rel_tol=1e-12
        )

    def test_batch_records_account_their_own_reloads(self):
        machine = TCUMachine(m=16, ell=ELL)
        result = preempting_engine(machine).serve(two_class_workload(seed=5))
        assert result.preemptions > 0
        per_batch = sum(b.reload_time for b in result.batches)
        assert math.isclose(per_batch, result.reload_time, rel_tol=1e-12)
        preempted = [b for b in result.batches if b.preemptions]
        assert preempted
        for batch in preempted:
            # one resume (with its reload) per checkpoint taken
            assert len(batch.resumes) == batch.preemptions
            assert batch.reload_time > 0.0
            # the suspension gap is real: finish > launch + service
            assert batch.completion > batch.launch + batch.service
            for resume in batch.resumes:
                # a resume can coincide with the finish when only
                # zero-cost levels (e.g. a DFT readout) remained
                assert batch.launch < resume <= batch.completion

    def test_high_priority_requests_jump_the_bulk_batch(self):
        """The point of the machinery: with preemption on, the worst
        high-priority latency drops strictly below the no-preemption
        engine's on the same workload."""

        def run(preempt):
            machine = TCUMachine(m=16, ell=ELL)
            engine = ServingEngine(machine, "continuous", preempt=preempt)
            return engine.serve(two_class_workload(seed=9))

        fifo = run(False)
        preemptive = run(True)
        assert preemptive.preemptions > 0

        def worst_hot(result):
            return max(r.latency for r in result.requests if r.priority == 2)

        assert worst_hot(preemptive) < worst_hot(fifo)
        # total completions are unaffected: preemption sheds nothing
        assert preemptive.completed == fifo.completed

    def test_preemption_only_at_level_boundaries(self):
        """A suspended batch has executed a whole number of levels: its
        service time splits into segments that each end on a boundary,
        so every resume strictly follows the preceding suspension."""
        machine = TCUMachine(m=16, ell=ELL)
        result = preempting_engine(machine).serve(two_class_workload(seed=13))
        by_index = {b.index: b for b in result.batches}
        for batch in result.batches:
            if not batch.preemptions:
                continue
            # the preemptor(s) ran inside this batch's suspension window
            preemptors = [
                other
                for other in result.batches
                if other.priority > batch.priority
                and batch.launch < other.launch < batch.completion
            ]
            assert preemptors, f"no preemptor overlapped batch {batch.index}"
        assert by_index  # sanity


class TestStencilPreemption:
    def test_default_stencil_is_now_preemptible(self):
        """The default stencil kind lowers through the IR: under a
        preemptive engine a hot stream can checkpoint its batches."""
        s_hot = service_of("matmul", 8)
        hot_rate = 0.3 / s_hot
        horizon = 60 / hot_rate
        bulk = PoissonWorkload(
            rate=6 / horizon, total=6, kind="stencil", rows=128, seed=1, priority=0
        )
        hot = PoissonWorkload(
            rate=hot_rate, total=60, kind="matmul", rows=8, seed=2, priority=2
        )
        machine = TCUMachine(m=16, ell=ELL)
        result = preempting_engine(machine).serve(MixedWorkload(bulk, hot))
        result.check_conservation()
        assert any(
            batch.kind == "stencil" and batch.preemptions > 0
            for batch in result.batches
        )
