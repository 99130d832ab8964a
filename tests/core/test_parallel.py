"""Parallel tensor units (the §6 extension)."""

import numpy as np
import pytest
from eager_oracles import one_batch_matmul

from repro.analysis.formulas import predicted_parallel_time
from repro.core.parallel import BatchStats, ParallelTCUMachine
from repro.core.machine import TensorShapeError
from repro.core.words import OverflowError_
from repro.matmul.schedule import ceil_to_multiple
from repro import TCUMachine, matmul


def jobs(rng, count, n_rows=8, s=4):
    return [(rng.random((n_rows, s)), rng.random((s, s))) for _ in range(count)]


class TestMachine:
    def test_single_unit_equals_sequential(self, rng):
        p1 = ParallelTCUMachine(m=16, ell=8.0, units=1)
        seq = TCUMachine(m=16, ell=8.0)
        batch = jobs(rng, 5)
        results = p1.mm_batch(batch)
        for (A, B), C in zip(batch, results):
            assert np.allclose(C, A @ B)
            seq.mm(A, B)
        assert np.isclose(p1.time, seq.time)

    def test_equal_jobs_speed_up_by_p(self, rng):
        for p in (2, 4, 8):
            machine = ParallelTCUMachine(m=16, ell=8.0, units=p)
            machine.mm_batch(jobs(rng, 8))
            assert machine.last_batch is not None
            assert np.isclose(machine.last_batch.speedup, min(p, 8))

    def test_excess_units_idle(self, rng):
        machine = ParallelTCUMachine(m=16, units=16)
        machine.mm_batch(jobs(rng, 3))
        assert machine.last_batch.units_used == 3
        assert np.isclose(machine.last_batch.speedup, 3.0)

    def test_unbalanced_jobs_lpt(self, rng):
        """One giant job bounds the makespan regardless of p."""
        machine = ParallelTCUMachine(m=16, ell=0.0, units=4)
        batch = [(rng.random((400, 4)), rng.random((4, 4)))] + jobs(rng, 3, n_rows=4)
        machine.mm_batch(batch)
        assert machine.last_batch.makespan == 400 * 4

    def test_empty_batch(self):
        machine = ParallelTCUMachine(m=16, units=4)
        assert machine.mm_batch([]) == []
        stats = machine.last_batch
        assert isinstance(stats, BatchStats)
        assert (stats.calls, stats.serial_time, stats.makespan, stats.units_used) == (
            0,
            0.0,
            0.0,
            0,
        )
        assert stats.policy == "lpt"
        assert machine.last_schedule is None

    def test_complex_factor_one_takes_fast_path(self, rng):
        """At the default complex_cost_factor=1 a complex batch prices
        and executes exactly like a real one — one bulk charge, no
        per-call scratch capture."""
        machine = ParallelTCUMachine(m=16, ell=3.0, units=2)
        pairs = [
            (
                rng.random((8, 4)) + 1j * rng.random((8, 4)),
                rng.random((4, 4)) + 1j * rng.random((4, 4)),
            )
            for _ in range(4)
        ]
        results = machine.mm_batch(pairs)
        for (A, B), C in zip(pairs, results):
            assert np.allclose(C, A @ B)
        ref = machine.fork()
        for A, B in pairs:
            ref.mm(A, B)
        assert machine.ledger.tensor_calls == ref.ledger.tensor_calls == 4
        assert machine.ledger.call_shape_totals() == ref.ledger.call_shape_totals()
        assert machine.ledger.cpu_time == ref.ledger.cpu_time == 0.0

    def test_results_correct(self, rng):
        machine = ParallelTCUMachine(m=16, units=3)
        batch = jobs(rng, 7, n_rows=12)
        for (A, B), C in zip(batch, machine.mm_batch(batch)):
            assert np.allclose(C, A @ B)

    def test_bad_shape_rejected(self, rng):
        machine = ParallelTCUMachine(m=16, units=2)
        with pytest.raises(TensorShapeError):
            machine.mm_batch([(rng.random((8, 5)), rng.random((4, 4)))])
        with pytest.raises(TensorShapeError):
            machine.mm_batch([(rng.random((2, 4)), rng.random((4, 4)))])

    def test_invalid_units(self):
        with pytest.raises(ValueError):
            ParallelTCUMachine(m=16, units=0)

    def test_call_count_exact(self, rng):
        machine = ParallelTCUMachine(m=16, units=4)
        machine.mm_batch(jobs(rng, 6))
        assert machine.ledger.tensor_calls == 6

    def test_sequential_mm_unchanged(self, rng):
        machine = ParallelTCUMachine(m=16, ell=4.0, units=4)
        A, B = rng.random((8, 4)), rng.random((4, 4))
        machine.mm(A, B)
        assert machine.time == 8 * 4 + 4.0

    def test_trace_records_true_costs_and_units(self, rng):
        """The trace keeps every call at its true serial cost tagged with
        the unit it ran on; the ledger clock advances by the makespan."""
        machine = ParallelTCUMachine(m=16, ell=0.0, units=2)
        machine.mm_batch(jobs(rng, 4))
        assert len(machine.ledger.calls) == 4
        assert np.isclose(
            sum(c.time for c in machine.ledger.calls), machine.last_batch.serial_time
        )
        assert np.isclose(machine.ledger.tensor_total, machine.last_batch.makespan)
        units = machine.ledger.calls.unit_ids()
        assert set(units.tolist()) == {0, 1}

    def test_serial_mm_traces_unit_minus_one(self, rng):
        machine = ParallelTCUMachine(m=16, units=2)
        machine.mm(rng.random((8, 4)), rng.random((4, 4)))
        assert machine.ledger.calls[0].unit == -1


class TestParallelMatmul:
    """Theorem 2 on a parallel machine: ``matmul(..., split=1)`` issues
    the grid's calls as one ``mm_batch``."""

    @pytest.mark.parametrize("shape", [(16, 16), (20, 13), (64, 64)])
    def test_correct(self, rng, shape):
        machine = ParallelTCUMachine(m=16, units=4)
        A = rng.random(shape)
        B = rng.random((shape[1], shape[0]))
        assert np.allclose(matmul(machine, A, B, split=1), A @ B)

    def test_tensor_time_scales_down(self, rng):
        A = rng.random((64, 64))
        B = rng.random((64, 64))
        times = []
        for p in (1, 4, 16):
            machine = ParallelTCUMachine(m=16, ell=16.0, units=p)
            matmul(machine, A, B, split=1)
            times.append(machine.ledger.tensor_total)
        assert times[0] > times[1] > times[2]
        # ideal scaling on the tensor part (calls are equal-sized)
        assert np.isclose(times[0] / times[1], 4.0, rtol=0.05)

    def test_saturation_below_call_count(self, rng):
        """More units than grid products gain nothing further."""
        A = rng.random((16, 16))  # 16 calls at m=16
        B = rng.random((16, 16))
        t16 = ParallelTCUMachine(m=16, units=16)
        t64 = ParallelTCUMachine(m=16, units=64)
        matmul(t16, A, B, split=1)
        matmul(t64, A, B, split=1)
        assert np.isclose(t16.time, t64.time)

    def test_predicted_shape(self):
        n, m, ell = 4096, 16, 8.0
        assert predicted_parallel_time(n, m, ell, 1) == pytest.approx(
            (n / m) * (np.sqrt(n) * 4 + ell)
        )
        # doubling p halves the wave count while calls > p
        assert predicted_parallel_time(n, m, ell, 2) == pytest.approx(
            predicted_parallel_time(n, m, ell, 1) / 2
        )
        # floor at one wave
        assert predicted_parallel_time(n, m, ell, 10**6) == pytest.approx(
            np.sqrt(n) * 4 + ell
        )

    def test_matches_sequential_result(self, rng):
        seq = TCUMachine(m=16)
        par = ParallelTCUMachine(m=16, units=4)
        A = rng.random((24, 18))
        B = rng.random((18, 9))
        assert np.allclose(matmul(seq, A, B), matmul(par, A, B, split=1))


# the differential against the one-batch Theorem 2 oracle: every
# scheduling policy, a row bound that splits the streams, the complex
# cost factor, and more units than grid calls
ONE_BATCH_CONFIGS = {
    "lpt-4": dict(m=16, ell=8.0, units=4),
    "greedy-3": dict(m=16, ell=8.0, units=3, scheduler="greedy"),
    "round-robin-2": dict(m=16, ell=24.0, units=2, scheduler="round-robin"),
    "max-rows": dict(m=16, ell=8.0, units=3, max_rows=8),
    "complex-cost": dict(m=16, ell=16.0, units=4, complex_cost_factor=4),
    "more-units": dict(m=16, ell=8.0, units=64),
}
ONE_BATCH_SHAPES = [(16, 16, 16), (20, 13, 9), (3, 4, 4), (5, 3, 2), (9, 17, 4), (40, 8, 33)]


def _operand(rng, shape, dtype):
    if dtype == np.int64:
        return rng.integers(-4, 5, size=shape)
    out = rng.random(shape)
    return out + 1j * rng.random(shape) if dtype == np.complex128 else out


@pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.int64])
@pytest.mark.parametrize("shape", ONE_BATCH_SHAPES)
@pytest.mark.parametrize("config", sorted(ONE_BATCH_CONFIGS))
def test_matmul_split1_matches_one_batch_oracle(config, shape, dtype):
    """Snapshot, per-shape totals, unit ids and output bits equal the
    oracle's; a product with a single grid call is the one exception in
    the trace: a serial call (unit -1) where the oracle's batch of one
    ran on unit 0, for the same model time."""
    rng = np.random.default_rng(sum(shape))
    p, q, r = shape
    A = _operand(rng, (p, q), dtype)
    B = _operand(rng, (q, r), dtype)
    machine = ParallelTCUMachine(**ONE_BATCH_CONFIGS[config])
    oracle = ParallelTCUMachine(**ONE_BATCH_CONFIGS[config])
    C = matmul(machine, A, B, split=1)
    C_ref = one_batch_matmul(oracle, A, B)
    assert C.dtype == C_ref.dtype
    assert np.ascontiguousarray(C).tobytes() == np.ascontiguousarray(C_ref).tobytes()
    led, ref = machine.ledger, oracle.ledger
    assert led.snapshot() == ref.snapshot()
    assert led.call_shape_totals() == ref.call_shape_totals()
    units, ref_units = led.calls.unit_ids().tolist(), ref.calls.unit_ids().tolist()
    s = machine.sqrt_m
    if ceil_to_multiple(q, s) * ceil_to_multiple(r, s) == s * s:
        assert set(units) == {-1} and set(ref_units) == {0}
    else:
        assert units == ref_units


def batch_vs_serial(machine, pairs):
    """Issue the batch, replay the same calls serially on a fork, and
    pin the ISSUE 3 acceptance bar: the batch's serial_time equals the
    serial ledger total, with bit-identical hardware call counts,
    per-shape trace totals and CPU charges."""
    results = machine.mm_batch(pairs)
    ref = machine.fork()
    for A, B in pairs:
        ref.mm(A, B)
    stats = machine.last_batch
    assert stats.serial_time == ref.ledger.tensor_total
    assert machine.ledger.tensor_calls == ref.ledger.tensor_calls
    assert machine.ledger.call_shape_totals() == ref.ledger.call_shape_totals()
    assert machine.ledger.cpu_time == ref.ledger.cpu_time
    assert stats.makespan <= stats.serial_time
    assert stats.hardware_calls == ref.ledger.tensor_calls
    return results, ref, stats


class TestBatchCostSemantics:
    """`mm_batch` prices every call exactly as the scalar path does —
    the batch undercharging bugfix, pinned per machine configuration."""

    def test_complex_cost_factor_parity(self, rng):
        """A complex batch charges 4 calls plus the two extra real adds
        per call, exactly like the serial path (it used to charge 1x)."""
        machine = ParallelTCUMachine(m=16, ell=5.0, units=3, complex_cost_factor=4)
        pairs = [
            (
                rng.random((8 + 4 * i, 4)) + 1j * rng.random((8 + 4 * i, 4)),
                rng.random((4, 4)) + 1j * rng.random((4, 4)),
            )
            for i in range(5)
        ]
        results, ref, stats = batch_vs_serial(machine, pairs)
        for (A, B), C in zip(pairs, results):
            assert np.allclose(C, A @ B)
        assert machine.ledger.tensor_calls == 4 * len(pairs)
        assert machine.ledger.cpu_time == sum(2 * A.shape[0] * 4 for A, _ in pairs)
        assert stats.makespan < stats.serial_time

    def test_max_rows_chunking_parity(self, rng):
        """Streams over the hardware row bound are charged as
        ceil(n / max_rows) calls, each paying latency, plus the
        reassembly copies (it used to charge one bound-blind call)."""
        machine = ParallelTCUMachine(m=16, ell=7.0, units=2, max_rows=10)
        pairs = [(rng.random((25, 4)), rng.random((4, 4))) for _ in range(4)]
        results, ref, stats = batch_vs_serial(machine, pairs)
        for (A, B), C in zip(pairs, results):
            assert np.allclose(C, A @ B)
        # 25 rows at max_rows=10: chunks of 10, 10, 5 -> 3 calls per stream
        assert machine.ledger.tensor_calls == 3 * 4
        # each hardware chunk pays the full latency
        lat = sum(c.latency for c in machine.ledger.calls)
        assert lat == 12 * 7.0
        # reassembly of each split output is charged RAM work
        assert machine.ledger.cpu_time == 4 * 25 * 4

    def test_max_rows_padded_final_chunk_parity(self, rng):
        """A ragged final chunk below sqrt(m) pays the pad copy
        `_mm_split` levies, in the batch exactly as in serial."""
        machine = ParallelTCUMachine(m=16, ell=2.0, units=2, max_rows=8)
        pairs = [(rng.random((9, 4)), rng.random((4, 4))) for _ in range(3)]
        results, ref, stats = batch_vs_serial(machine, pairs)
        for (A, B), C in zip(pairs, results):
            assert np.allclose(C, A @ B)
        # chunks of 8 and 1; the 1-row tail pads to sqrt(m)=4
        assert machine.ledger.tensor_calls == 2 * 3
        assert machine.ledger.cpu_time == 3 * (4 * 4 + 9 * 4)

    def test_batch_overflow_detected(self):
        """check_overflow validates batched integer accumulators (the
        old `A @ B` fast path skipped the check entirely)."""
        machine = ParallelTCUMachine(
            m=16, units=2, kappa=8, check_overflow=True
        )
        A = np.full((8, 4), 100, dtype=np.int64)
        B = np.full((4, 4), 100, dtype=np.int64)
        with pytest.raises(OverflowError_):
            machine.mm_batch([(A, B), (A, B)])
        # small values pass the same check
        ok = machine.fork()
        small = np.ones((8, 4), dtype=np.int64)
        outs = ok.mm_batch([(small, np.eye(4, dtype=np.int64))] * 2)
        assert np.array_equal(outs[0], small)

    def test_systolic_batch_routes_through_backend(self, rng):
        """Systolic machines execute batched calls on the systolic
        array, with ledger parity against the serial path."""
        machine = ParallelTCUMachine(m=16, ell=2.0, units=2, backend="systolic")
        pairs = [
            (
                rng.integers(0, 5, (8, 4)).astype(float),
                rng.integers(0, 5, (4, 4)).astype(float),
            )
            for _ in range(3)
        ]
        results, ref, stats = batch_vs_serial(machine, pairs)
        for (A, B), C in zip(pairs, results):
            assert np.array_equal(C, A @ B)

    def test_subclass_custom_latency_parity(self, rng):
        """A subclass with its own per-call latency semantics keeps
        batch/serial trace parity — including the latency column and
        the fork()ed serial reference staying the subclass."""

        class DoubleLatencyMachine(ParallelTCUMachine):
            def _mm_single(self, A, B):
                self.ledger.charge_tensor(A.shape[0], self.sqrt_m, 2 * self.ell)
                return A @ B

        machine = DoubleLatencyMachine(m=16, ell=5.0, units=2)
        assert not machine.fusable
        assert isinstance(machine.fork(), DoubleLatencyMachine)
        pairs = [(rng.random((8 + 4 * i, 4)), rng.random((4, 4))) for i in range(4)]
        results, ref, stats = batch_vs_serial(machine, pairs)
        for (A, B), C in zip(pairs, results):
            assert np.allclose(C, A @ B)
        lats = [c.latency for c in machine.ledger.calls]
        assert lats == [c.latency for c in ref.ledger.calls] == [10.0] * 4

    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"max_rows": 12}, {"complex_cost_factor": 4}],
        ids=["plain", "max_rows", "complex"],
    )
    def test_cost_only_batch_matches_numeric(self, rng, kwargs):
        heights = [8, 16, 24, 8]
        if "complex_cost_factor" in kwargs:
            pairs = [
                (
                    rng.random((h, 4)) + 1j * rng.random((h, 4)),
                    rng.random((4, 4)) + 1j * rng.random((4, 4)),
                )
                for h in heights
            ]
        else:
            pairs = [(rng.random((h, 4)), rng.random((4, 4))) for h in heights]
        numeric = ParallelTCUMachine(m=16, ell=9.0, units=3, **kwargs)
        cost = ParallelTCUMachine(m=16, ell=9.0, units=3, execute="cost-only", **kwargs)
        numeric.mm_batch(pairs)
        outs = cost.mm_batch(pairs)
        assert numeric.ledger.snapshot() == cost.ledger.snapshot()
        assert numeric.ledger.call_shape_totals() == cost.ledger.call_shape_totals()
        assert numeric.last_batch == cost.last_batch
        assert all(out.shape == (h, 4) for out, h in zip(outs, heights))


class TestSchedulerSelection:
    def test_machine_policy_and_per_batch_override(self, rng):
        machine = ParallelTCUMachine(m=16, ell=0.0, units=2, scheduler="round-robin")
        assert machine.scheduler.name == "round-robin"
        pairs = [(rng.random((h, 4)), rng.random((4, 4))) for h in (32, 4, 4, 4)]
        machine.mm_batch(pairs)
        # round-robin: unit 0 gets costs 128 and 16 -> makespan 144
        assert machine.last_batch.makespan == 144.0
        assert machine.last_batch.policy == "round-robin"
        machine.mm_batch(pairs, policy="lpt")
        # LPT isolates the giant job -> makespan 128
        assert machine.last_batch.makespan == 128.0
        assert machine.last_batch.policy == "lpt"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            ParallelTCUMachine(m=16, units=2, scheduler="nope")

    def test_fork_preserves_scheduler(self):
        machine = ParallelTCUMachine(m=16, units=4, scheduler="greedy")
        child = machine.fork()
        assert child.scheduler.name == "greedy"
        assert child.units == 4

    def test_last_schedule_exposes_timelines(self, rng):
        machine = ParallelTCUMachine(m=16, ell=0.0, units=2)
        machine.mm_batch([(rng.random((8, 4)), rng.random((4, 4))) for _ in range(4)])
        sched = machine.last_schedule
        assert sched is not None
        assert sched.unit_times.shape == (2,)
        assert sched.unit_times.sum() == machine.last_batch.serial_time
        assert sched.makespan == machine.last_batch.makespan
        assert 0.0 < sched.utilization <= 1.0
