"""Tests for the lazy TensorProgram IR, planner and executor."""

import numpy as np
import pytest
from eager_oracles import eager_strassen, per_call_matmul, per_segment_closure

from repro import TCUMachine, TensorProgram, matmul, matmul_lazy, run_program
from repro.core.machine import TensorShapeError, placeholder
from repro.core.parallel import ParallelTCUMachine
from repro.core.program import Lazy, ProgramError, execute_plan, plan_program
from repro.extmem.simulate import simulate_ledger_io
from repro.graph.closure import transitive_closure
from repro.matmul.strassen import strassen_like_mm


class TestProgramConstruction:
    def test_mm_node_shape_and_dtype(self, rng):
        prog = TensorProgram()
        op = prog.mm(rng.random((8, 4)), rng.random((4, 4)))
        assert op.shape == (8, 4)
        assert op.kind == "mm"
        assert len(prog) == 1

    def test_mm_rejects_non_square_right(self, rng):
        prog = TensorProgram()
        with pytest.raises(TensorShapeError, match="square"):
            prog.mm(rng.random((8, 4)), rng.random((4, 5)))

    def test_mm_rejects_mismatched_inner(self, rng):
        prog = TensorProgram()
        with pytest.raises(TensorShapeError, match="inner"):
            prog.mm(rng.random((8, 5)), rng.random((4, 4)))

    def test_add_requires_terms(self):
        prog = TensorProgram()
        with pytest.raises(ProgramError, match="term"):
            prog.add([])

    def test_add_rejects_shape_mismatch(self, rng):
        prog = TensorProgram()
        with pytest.raises(TensorShapeError, match="shape"):
            prog.add([rng.random((4, 4)), rng.random((5, 4))])

    def test_dependency_levels(self, rng):
        prog = TensorProgram()
        a = prog.mm(rng.random((4, 4)), rng.random((4, 4)))
        b = prog.mm(a, rng.random((4, 4)))
        c = prog.add([a, b])
        assert (a.level, b.level, c.level) == (0, 1, 2)

    def test_result_before_execution_raises(self, rng):
        prog = TensorProgram()
        op = prog.mm(rng.random((4, 4)), rng.random((4, 4)))
        with pytest.raises(ProgramError, match="no value"):
            op.result()

    def test_foreign_op_rejected(self, rng):
        prog_a = TensorProgram()
        op = prog_a.mm(rng.random((4, 4)), rng.random((4, 4)))
        prog_b = TensorProgram()
        with pytest.raises(ProgramError, match="different program"):
            prog_b.copy(op)


class TestPlanning:
    def test_plan_validates_against_machine(self, tcu, rng):
        prog = TensorProgram()
        prog.mm(rng.random((8, 8)), rng.random((8, 8)))  # sqrt(m)=4 machine
        with pytest.raises(TensorShapeError, match="sqrt"):
            plan_program(prog, tcu)

    def test_plan_rejects_short_stream(self, tcu, rng):
        prog = TensorProgram()
        # build-time checks pass (3x3 is square) but n < sqrt(m) is a
        # machine property, caught at plan time
        with pytest.raises(TensorShapeError):
            prog.mm(rng.random((3, 4)), rng.random((4, 4)))
            plan_program(prog, tcu)

    def test_same_resident_block_merges(self, tcu, rng):
        B = rng.random((4, 4))
        prog = TensorProgram()
        for _ in range(5):
            prog.mm(rng.random((8, 4)), B)
        plan = plan_program(prog, tcu)
        assert plan.stats.mm_ops == 5
        assert plan.stats.tensor_calls_planned == 1
        assert plan.stats.merged_away == 4

    def test_distinct_blocks_do_not_merge(self, tcu, rng):
        prog = TensorProgram()
        for _ in range(3):
            prog.mm(rng.random((8, 4)), rng.random((4, 4)))
        plan = plan_program(prog, tcu)
        assert plan.stats.tensor_calls_planned == 3
        assert plan.stats.merged_away == 0

    def test_mixed_dtype_streams_do_not_merge(self, tcu, rng):
        """int and float products against one block stay separate calls
        so per-call charging (and dtypes) match the eager execution."""
        B = np.eye(4)
        prog = TensorProgram()
        prog.mm(rng.integers(0, 5, (8, 4)), B.astype(np.int64))
        prog.mm(rng.random((8, 4)), B.astype(np.int64))
        # different B objects anyway; now same B, different stream dtypes
        prog2 = TensorProgram()
        Bi = B.astype(np.int64)
        prog2.mm(rng.integers(0, 5, (8, 4)), Bi)
        prog2.mm(rng.random((8, 4)), Bi)
        plan = plan_program(prog2, tcu)
        assert plan.stats.tensor_calls_planned == 2


class TestExecution:
    def test_merged_call_results_correct(self, tcu, rng):
        B = rng.random((4, 4))
        As = [rng.random((8, 4)) for _ in range(5)]
        prog = TensorProgram()
        ops = [prog.mm(A, B) for A in As]
        run_program(prog, tcu)
        for A, op in zip(As, ops):
            assert np.allclose(op.result(), A @ B)

    def test_merged_call_pays_one_latency(self, rng):
        ell = 100.0
        B = rng.random((4, 4))
        machine = TCUMachine(m=16, ell=ell)
        prog = TensorProgram()
        for _ in range(5):
            prog.mm(rng.random((8, 4)), B)
        run_program(prog, machine)
        assert machine.ledger.tensor_calls == 1
        assert machine.ledger.latency_time == ell
        assert machine.ledger.tensor_time == 5 * 8 * 4

    def test_chained_products(self, tcu, rng):
        A = rng.random((4, 4))
        B = rng.random((4, 4))
        C = rng.random((4, 4))
        prog = TensorProgram()
        ab = prog.mm(A, B)
        abc = prog.mm(ab, C)
        run_program(prog, tcu)
        assert np.allclose(abc.result(), A @ B @ C)

    def test_add_and_copy_charged(self, tcu, rng):
        X = rng.random((4, 4))
        Y = rng.random((4, 4))
        prog = TensorProgram()
        total = prog.add([(2.0, X), (-1.0, Y)])
        dup = prog.copy(total)
        run_program(prog, tcu)
        assert np.allclose(total.result(), 2 * X - Y)
        assert np.allclose(dup.result(), total.result())
        assert dup.result() is not total.result()
        # 2 add terms + 1 copy, 16 words each
        assert tcu.ledger.cpu_time == 3 * 16

    def test_copy_isolates_resident_block(self, tcu, rng):
        """A copy node gives later mutation of the source no effect on
        the planned execution (the closure kernel relies on this)."""
        X = rng.random((4, 4))
        prog = TensorProgram()
        snap = prog.copy(X)
        op = prog.mm(np.ones((8, 4)), snap)
        run_program(prog, tcu)
        expected = np.ones((8, 4)) @ X
        X[:] = 0.0
        assert np.allclose(op.result(), expected)

    def test_execute_populates_all_values(self, tcu, rng):
        prog = TensorProgram()
        a = prog.mm(rng.random((4, 4)), rng.random((4, 4)))
        b = prog.add([a, a])
        plan = plan_program(prog, tcu)
        execute_plan(plan, tcu)
        assert a.value is not None and b.value is not None

    def test_lazy_caches_result(self):
        calls = []

        def build():
            calls.append(1)
            return np.zeros((2, 2))

        lazy = Lazy(build)
        assert lazy.result() is lazy.result()
        assert len(calls) == 1


class TestParallelExecution:
    def test_level_feeds_mm_batch(self, rng):
        machine = ParallelTCUMachine(m=16, ell=8.0, units=4)
        serial = TCUMachine(m=16, ell=8.0)
        prog_p, prog_s = TensorProgram(), TensorProgram()
        pairs = [(rng.random((8, 4)), rng.random((4, 4))) for _ in range(4)]
        ops_p = [prog_p.mm(A, B) for A, B in pairs]
        ops_s = [prog_s.mm(A, B) for A, B in pairs]
        run_program(prog_p, machine)
        run_program(prog_s, serial)
        for (A, B), op in zip(pairs, ops_p):
            assert np.allclose(op.result(), A @ B)
        # 4 equal independent calls on 4 units: ~4x faster than serial
        assert machine.time == pytest.approx(serial.time / 4)
        assert machine.last_batch is not None
        assert machine.last_batch.calls == 4

    def test_matmul_plans_batches_on_parallel_machine(self, rng):
        A = rng.random((24, 24))
        B = rng.random((24, 24))
        par = ParallelTCUMachine(m=16, ell=7.0, units=4)
        ser = TCUMachine(m=16, ell=7.0)
        Cp = matmul(par, A, B)
        Cs = matmul(ser, A, B)
        assert np.allclose(Cp, Cs)
        assert par.time < ser.time


class TestPlannedVersusEager:
    """The acceptance bar: planned execution is cost-equivalent or
    cheaper than the eager per-call oracles, with identical numerics."""

    def test_theorem2_matmul_cost_equivalent(self, rng):
        A = rng.random((24, 20))
        B = rng.random((20, 12))
        eager = TCUMachine(m=16, ell=9.0)
        planned = TCUMachine(m=16, ell=9.0)
        Ce = per_call_matmul(eager, A, B)
        Cp = matmul(planned, A, B)
        assert np.allclose(Ce, Cp)
        assert planned.time <= eager.time
        assert planned.ledger.snapshot() == eager.ledger.snapshot()

    def test_strassen_cost_equivalent(self, rng):
        A = rng.random((24, 24))
        B = rng.random((24, 24))
        eager = TCUMachine(m=16, ell=9.0)
        planned = TCUMachine(m=16, ell=9.0)
        Ce = eager_strassen(eager, A, B)
        Cp = strassen_like_mm(planned, A, B)
        assert np.allclose(Ce, Cp)
        assert planned.ledger.snapshot() == eager.ledger.snapshot()

    def test_latency_dominated_case_strictly_cheaper(self, rng):
        """k products sharing one resident block: the planner pays one
        latency where the eager schedule pays k (small sqrt(m), big l)."""
        ell = 10_000.0
        W = rng.random((4, 4))
        streams = [rng.random((16, 4)) for _ in range(8)]
        eager = TCUMachine(m=16, ell=ell)
        for X in streams:
            per_call_matmul(eager, X, W)
        planned = TCUMachine(m=16, ell=ell)
        prog = TensorProgram()
        outs = [matmul_lazy(planned, prog, X, W) for X in streams]
        run_program(prog, planned)
        for X, lazy in zip(streams, outs):
            assert np.allclose(lazy.result(), X @ W)
        assert planned.ledger.latency_time < eager.ledger.latency_time
        assert planned.ledger.latency_time == ell
        assert planned.time < eager.time
        assert planned.ledger.tensor_time == eager.ledger.tensor_time

    def test_closure_planned_latency_strictly_lower(self, rng):
        A = (rng.random((20, 20)) < 0.2).astype(np.int64)
        np.fill_diagonal(A, 0)
        eager = TCUMachine(m=16, ell=50.0)
        planned = TCUMachine(m=16, ell=50.0)
        Ce = per_segment_closure(eager, A)
        Cp = transitive_closure(planned, A)
        assert np.array_equal(Ce, Cp)
        assert planned.ledger.latency_time < eager.ledger.latency_time
        assert planned.time < eager.time
        assert planned.ledger.tensor_time == eager.ledger.tensor_time

    def test_extmem_replays_planned_trace_identically(self, rng):
        """Theorem 12 weak-mode I/Os are invariant under planning: a
        merged block-aligned call moves exactly the words of the calls
        it replaced."""
        A = (rng.random((20, 20)) < 0.25).astype(np.int64)
        np.fill_diagonal(A, 0)
        eager = TCUMachine(m=16, ell=7.0)
        planned = TCUMachine(m=16, ell=7.0)
        per_segment_closure(eager, A)
        transitive_closure(planned, A)
        sim_e = simulate_ledger_io(eager.ledger, weak=True)
        sim_p = simulate_ledger_io(planned.ledger, weak=True)
        assert sim_p.tensor_ios == sim_e.tensor_ios

    def test_merge_respects_max_rows_bound(self, rng):
        """Merging must never push a call over the hardware row bound:
        a re-split merged call would charge copies and per-chunk
        latencies the eager schedule never paid."""
        W = rng.random((4, 4))
        streams = [rng.random((8, 4)) for _ in range(5)]
        eager = TCUMachine(m=16, ell=7.0, max_rows=10)
        for X in streams:
            per_call_matmul(eager, X, W)
        planned = TCUMachine(m=16, ell=7.0, max_rows=10)
        prog = TensorProgram()
        outs = [matmul_lazy(planned, prog, X, W) for X in streams]
        plan = run_program(prog, planned)
        for X, lazy in zip(streams, outs):
            assert np.allclose(lazy.result(), X @ W)
        # every 8-row stream already saturates max_rows=10: no merging
        assert plan.stats.merged_away == 0
        assert planned.time <= eager.time
        assert planned.ledger.snapshot() == eager.ledger.snapshot()

    def test_merge_packs_under_max_rows(self, rng):
        """Streams that do fit together still merge up to the bound."""
        W = rng.random((4, 4))
        streams = [rng.random((8, 4)) for _ in range(5)]
        planned = TCUMachine(m=16, ell=7.0, max_rows=16)
        prog = TensorProgram()
        outs = [matmul_lazy(planned, prog, X, W) for X in streams]
        plan = run_program(prog, planned)
        for X, lazy in zip(streams, outs):
            assert np.allclose(lazy.result(), X @ W)
        # pairs of 8-row streams pack into 16-row calls: 5 -> 3
        assert plan.stats.tensor_calls_planned == 3
        assert planned.ledger.latency_time == 3 * 7.0
        # cpu is the 5 accumulation adds only — no split/reassembly copies
        assert planned.ledger.cpu_time == 5 * 8 * 4

    def test_parallel_complex_batches_with_true_costs(self, rng):
        """Complex batches parallelise *and* keep per-call parity: the
        batch charges the 4x complex factor and the extra CPU adds
        exactly as the eager serial path, then advances the clock by
        the makespan instead of the serial sum."""
        A = (rng.random((16, 16)) + 1j * rng.random((16, 16))).astype(complex)
        B = (rng.random((16, 16)) + 1j * rng.random((16, 16))).astype(complex)
        eager = ParallelTCUMachine(m=16, ell=5.0, units=4, complex_cost_factor=4)
        planned = ParallelTCUMachine(m=16, ell=5.0, units=4, complex_cost_factor=4)
        Ce = per_call_matmul(eager, A, B)
        Cp = matmul(planned, A, B)
        assert np.allclose(Ce, Cp)
        assert planned.ledger.tensor_calls == eager.ledger.tensor_calls
        assert planned.ledger.call_shape_totals() == eager.ledger.call_shape_totals()
        assert planned.ledger.cpu_time == eager.ledger.cpu_time
        # 16 equal independent grid calls on 4 units: 4x on the clock
        assert planned.ledger.tensor_total == eager.ledger.tensor_total / 4

    def test_parallel_max_rows_split_matches_eager(self, rng):
        """``split=1`` keeps the legacy parity: a single over-bound
        logical call runs its hardware chunks back-to-back on one unit
        and charges equal the eager path.  The default ``split="auto"``
        now re-splits that stream across the units instead — same
        numerics bit-for-bit, strictly smaller clock, pinned to the
        planner's modelled makespan."""
        A = rng.random((40, 8))
        B = rng.random((8, 8))
        eager = ParallelTCUMachine(m=64, ell=3.0, units=4, max_rows=16)
        Ce = per_call_matmul(eager, A, B)

        legacy = ParallelTCUMachine(m=64, ell=3.0, units=4, max_rows=16)
        prog = TensorProgram()
        op = matmul_lazy(legacy, prog, A, B)
        run_program(prog, legacy, split=1)
        assert np.array_equal(op.result(), Ce)
        assert legacy.ledger.snapshot() == eager.ledger.snapshot()

        auto = ParallelTCUMachine(m=64, ell=3.0, units=4, max_rows=16)
        prog2 = TensorProgram()
        op2 = matmul_lazy(auto, prog2, A, B)
        plan = run_program(prog2, auto)
        assert np.array_equal(op2.result(), Ce)
        assert plan.splits[0][0] > 1
        assert auto.time < legacy.time
        assert auto.last_batch.makespan == plan.modelled_makespans[0]

    def test_parallel_max_rows_grid_parallelises(self, rng):
        """Row-bounded machines no longer serialise whole levels: the
        grid's independent calls (each split into chunks by the bound)
        are scheduled across units with per-call parity preserved."""
        A = rng.random((32, 16))
        B = rng.random((16, 16))
        eager = ParallelTCUMachine(m=16, ell=3.0, units=4, max_rows=20)
        planned = ParallelTCUMachine(m=16, ell=3.0, units=4, max_rows=20)
        Ce = per_call_matmul(eager, A, B)
        Cp = matmul(planned, A, B)
        assert np.allclose(Ce, Cp)
        assert planned.ledger.tensor_calls == eager.ledger.tensor_calls
        assert planned.ledger.call_shape_totals() == eager.ledger.call_shape_totals()
        assert planned.ledger.cpu_time == eager.ledger.cpu_time
        assert planned.ledger.tensor_total < eager.ledger.tensor_total

    def test_extmem_replays_merged_matmul_trace_identically(self, rng):
        W = rng.random((4, 4))
        streams = [rng.random((8, 4)) for _ in range(6)]
        eager = TCUMachine(m=16, ell=3.0)
        for X in streams:
            per_call_matmul(eager, X, W)
        planned = TCUMachine(m=16, ell=3.0)
        prog = TensorProgram()
        for X in streams:
            matmul_lazy(planned, prog, X, W)
        run_program(prog, planned)
        sim_e = simulate_ledger_io(eager.ledger, weak=True)
        sim_p = simulate_ledger_io(planned.ledger, weak=True)
        assert sim_p.tensor_ios == sim_e.tensor_ios


class TestPlaceholderResidents:
    """Cost-only placeholders must not merge as shared resident blocks.

    Every :func:`~repro.core.machine.placeholder` aliases the same zero
    scalar, so buffer identity cannot distinguish two placeholder
    residents standing for different hypothetical weights; merging them
    would charge fewer latencies than the numeric run.
    """

    def test_distinct_placeholders_stay_unmerged(self):
        from repro.core.machine import placeholder

        machine = TCUMachine(m=16, ell=100.0, execute="cost-only")
        prog = TensorProgram()
        for _ in range(5):
            prog.mm(placeholder((8, 4)), placeholder((4, 4)))
        plan = plan_program(prog, machine)
        assert plan.stats.tensor_calls_planned == 5
        assert plan.stats.merged_away == 0
        execute_plan(plan, machine)
        assert machine.ledger.latency_time == 500.0

    def test_cost_only_matmul_charges_match_numeric_on_parallel(self, rng):
        from repro.core.machine import placeholder

        A = rng.random((32, 16))
        B = rng.random((16, 16))
        numeric = ParallelTCUMachine(m=16, ell=32.0, units=2)
        matmul(numeric, A, B)
        cost = ParallelTCUMachine(m=16, ell=32.0, units=2, execute="cost-only")
        matmul(cost, placeholder((32, 16)), placeholder((16, 16)))
        assert cost.ledger.snapshot() == numeric.ledger.snapshot()
        assert cost.ledger.call_shape_totals() == numeric.ledger.call_shape_totals()

    def test_shared_placeholder_object_still_merges(self):
        """Reusing the *same* placeholder object signals shared
        residency (the matmul_lazy contract) and merges exactly like a
        shared numeric weight matrix would."""
        from repro.core.machine import placeholder

        W = placeholder((4, 4))
        machine = TCUMachine(m=16, ell=100.0, execute="cost-only")
        prog = TensorProgram()
        for _ in range(5):
            prog.mm(placeholder((8, 4)), W)
        plan = plan_program(prog, machine)
        assert plan.stats.tensor_calls_planned == 1
        assert plan.stats.merged_away == 4
        execute_plan(plan, machine)
        assert machine.ledger.latency_time == 100.0

    def test_distinct_partial_broadcast_views_still_merge(self, rng):
        """Two distinct partially-broadcast views of the same buffer
        alias the same elements, so buffer-keying (and merging) stays
        sound for them — only fully zero-strided scalars opt out."""
        W_row = rng.random((1, 4))
        machine = TCUMachine(m=16, ell=50.0)
        prog = TensorProgram()
        for _ in range(2):
            # a fresh view object each time: same pointer, strides (0, 8)
            prog.mm(rng.random((8, 4)), np.broadcast_to(W_row, (4, 4)))
        plan = plan_program(prog, machine)
        assert plan.stats.tensor_calls_planned == 1
        assert plan.stats.merged_away == 1

    def test_numeric_broadcast_resident_still_sound(self, rng):
        """A broadcast numeric resident reused across ops merges (same
        object = shared residency) with numerically identical results."""
        W_row = rng.random((1, 4))
        W = np.broadcast_to(W_row, (4, 4))
        streams = [rng.random((8, 4)) for _ in range(3)]
        eager = TCUMachine(m=16, ell=7.0)
        expected = [eager.mm(X, W) for X in streams]
        planned = TCUMachine(m=16, ell=7.0)
        prog = TensorProgram()
        ops = [prog.mm(X, W) for X in streams]
        plan = run_program(prog, planned)
        assert plan.stats.tensor_calls_planned == 1  # one latency for all
        assert planned.ledger.tensor_time == eager.ledger.tensor_time
        assert planned.ledger.latency_time == 7.0
        for op, want in zip(ops, expected):
            assert np.allclose(op.result(), want)


class TestNewOpKinds:
    def test_apply_numeric_and_charge(self, rng):
        machine = TCUMachine(m=16, ell=0.0)
        prog = TensorProgram()
        op = prog.mm(rng.random((4, 4)), rng.random((4, 4)))
        relu = prog.apply(
            lambda v: np.maximum(v, 0.0), [op], (4, 4), np.float64, cpu=16
        )
        run_program(prog, machine)
        assert np.allclose(relu.result(), np.maximum(op.result(), 0.0))
        assert machine.ledger.cpu_time == 16.0

    def test_apply_cost_only_skips_fn(self):
        machine = TCUMachine(m=16, ell=0.0, execute="cost-only")
        prog = TensorProgram()

        def boom(*_):
            raise AssertionError("fn must not run in cost-only mode")

        op = prog.apply(boom, [placeholder((4, 4))], (4, 4), np.float64, cpu=16)
        run_program(prog, machine)
        assert op.result().shape == (4, 4)
        assert machine.ledger.cpu_time == 16.0

    def test_apply_shape_contract_enforced(self, rng):
        machine = TCUMachine(m=16, ell=0.0)
        prog = TensorProgram()
        prog.apply(lambda: np.zeros((2, 2)), [], (4, 4), np.float64)
        with pytest.raises(ProgramError, match="declared shape"):
            run_program(prog, machine)

    def test_apply_rejects_negative_cpu(self):
        prog = TensorProgram()
        with pytest.raises(ProgramError, match=">= 0"):
            prog.apply(lambda: None, [], (1,), np.float64, cpu=-1)

    def test_view_is_free_and_correct(self, rng):
        machine = TCUMachine(m=16, ell=0.0)
        prog = TensorProgram()
        op = prog.mm(rng.random((8, 4)), rng.random((4, 4)))
        v = prog.view(op, (slice(2, 6), slice(None)))
        assert v.shape == (4, 4)
        cpu_before_ops = machine.ledger.cpu_time
        run_program(prog, machine)
        assert machine.ledger.cpu_time == cpu_before_ops  # views charge nothing
        assert np.array_equal(v.result(), op.result()[2:6])

    def test_view_feeds_mm(self, rng):
        """A view of an earlier op can be the streamed operand of a
        later mm — the multi-stage chaining the serving planner uses."""
        machine = TCUMachine(m=16, ell=0.0)
        W1 = rng.random((4, 4))
        W2 = rng.random((4, 4))
        X = rng.random((8, 4))
        prog = TensorProgram()
        first = prog.mm(X, W1)
        second = prog.mm(prog.view(first, (slice(0, 4), slice(None))), W2)
        run_program(prog, machine)
        assert np.allclose(second.result(), (X @ W1)[:4] @ W2)


class TestExecutionCursor:
    def _layered_program(self, rng, machine):
        prog = TensorProgram()
        W1 = rng.random((4, 4))
        W2 = rng.random((4, 4))
        a = prog.mm(rng.random((8, 4)), W1)
        b = prog.apply(lambda v: np.maximum(v, 0.0), [a], (8, 4), np.float64, cpu=32)
        c = prog.mm(b, W2)
        prog.add([c])
        return prog

    def test_stepwise_equals_one_shot(self, rng):
        from repro.core.program import ExecutionCursor

        stepped = TCUMachine(m=16, ell=9.0)
        oneshot = TCUMachine(m=16, ell=9.0)
        plan_a = plan_program(self._layered_program(rng, stepped), stepped)
        plan_b = plan_program(self._layered_program(rng, oneshot), oneshot)
        cursor = ExecutionCursor(plan_a, stepped)
        while not cursor.done:
            cursor.step()
        execute_plan(plan_b, oneshot)
        assert stepped.ledger.snapshot() == oneshot.ledger.snapshot()
        assert sum(cursor.level_times) == stepped.ledger.total_time

    def test_level_spans_reported_per_step(self, rng):
        from repro.core.program import ExecutionCursor

        machine = TCUMachine(m=16, ell=5.0)
        plan = plan_program(self._layered_program(rng, machine), machine)
        cursor = ExecutionCursor(plan, machine)
        assert cursor.remaining_levels == cursor.total_levels > 1
        first = cursor.step()
        assert first == machine.ledger.total_time > 0
        assert cursor.level_times == [first]
        cursor.run()
        assert cursor.done and cursor.remaining_levels == 0
        with pytest.raises(ProgramError, match="exhausted"):
            cursor.step()

    @pytest.mark.parametrize("compiled", [False, True], ids=["live", "compiled"])
    def test_level_times_are_clock_differences(self, compiled):
        """Each ``level_times`` entry is the ledger's ``total_time``
        after the level minus before it, bit for bit, on a clock where
        a fractional ell makes those differences round; a compiled
        plan's one-pass ``run`` is one such difference."""
        from repro.core.plan_cache import compile_plan
        from repro.core.program import ExecutionCursor
        from repro.serve import get_request_type

        machine = TCUMachine(m=16, ell=2.7)
        ledger = machine.ledger
        ledger.charge_cpu(1e9 + 0.1)  # a clock far from zero
        rtype, rows = get_request_type("mlp"), [8, 8, 4]
        plan = compile_plan(rtype, machine, rows) if compiled else rtype.plan(machine, rows)
        cursor = ExecutionCursor(plan, machine)
        assert cursor.total_levels > 2
        clocks = [ledger.total_time]
        cursor.observer = lambda level, elapsed: clocks.append(ledger.total_time)
        for _ in range(cursor.total_levels - 1):
            cursor.step()
        if compiled:
            cursor.rewind(1)
            cursor.run()
        else:
            cursor.step()
        want = [after - before for before, after in zip(clocks, clocks[1:])]
        assert [t.hex() for t in cursor.level_times] == [t.hex() for t in want]
        if compiled:
            # the differences round: they are not the levels' own totals
            totals = [level.total_time for level in plan.levels]
            assert cursor.level_times[: len(totals) - 1] != totals[:-1]

    def test_resident_words_shrink_as_levels_complete(self, rng):
        from repro.core.program import ExecutionCursor

        machine = TCUMachine(m=16, ell=0.0)
        plan = plan_program(self._layered_program(rng, machine), machine)
        cursor = ExecutionCursor(plan, machine)
        # two distinct resident 4x4 blocks remain before any step
        assert cursor.resident_words() == 32
        cursor.step()  # first mm level done
        assert cursor.resident_words() == 16
        cursor.run()
        assert cursor.resident_words() == 0

    def test_charge_reload_pays_resident_words(self, rng):
        from repro.core.program import ExecutionCursor

        machine = TCUMachine(m=16, ell=0.0)
        plan = plan_program(self._layered_program(rng, machine), machine)
        cursor = ExecutionCursor(plan, machine)
        cursor.step()
        charged = cursor.charge_reload()
        assert charged == 16.0
        assert machine.ledger.reload_time == 16.0

    def test_shared_resident_counted_once(self, rng):
        from repro.core.program import ExecutionCursor

        machine = TCUMachine(m=16, ell=0.0)
        W = rng.random((4, 4))
        prog = TensorProgram()
        for _ in range(3):
            prog.mm(rng.random((8, 4)), W)  # same buffer: one resident block
        plan = plan_program(prog, machine)
        assert ExecutionCursor(plan, machine).resident_words() == 16

    def test_cost_only_cursor_matches_numeric(self, rng):
        from repro.core.program import ExecutionCursor

        numeric = TCUMachine(m=16, ell=3.0)
        cost = TCUMachine(m=16, ell=3.0, execute="cost-only")
        plan_n = plan_program(self._layered_program(rng, numeric), numeric)
        plan_c = plan_program(self._layered_program(rng, cost), cost)
        ExecutionCursor(plan_n, numeric).run()
        cur = ExecutionCursor(plan_c, cost)
        cur.run()
        assert numeric.ledger.snapshot() == cost.ledger.snapshot()
