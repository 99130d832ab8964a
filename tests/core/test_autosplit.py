"""Auto-splitter gates (PR 10 acceptance).

The planner's ``split="auto"`` decisions must match the exact scheduling
oracle on brute-forceable instances, split numerics must be bit-identical
to the unsplit product, charges must be execution-mode independent
(cost-only == numeric), preemption on a cursor over a split compiled
plan must be invisible, and ``split=1`` must keep the legacy unsplit
schedule bit-exact — pinned with golden ledger values across the five
standard machine configs.
"""

import itertools

import numpy as np
import pytest

from repro import (
    ParallelTCUMachine,
    TCUMachine,
    TensorProgram,
    compile_plan,
    matmul,
    matmul_lazy,
    run_program,
)
import repro.core.program as program_module
from repro.core.program import (
    ExecutionCursor,
    ProgramError,
    TensorOp,
    _choose_level_splits,
    _level_makespan,
    _split_cap,
    modelled_call_cost,
    plan_program,
)
from repro.serve import get_request_type
from repro.transform.convolution import dft2, idft2
from repro.transform.dft import batched_dft, batched_idft
from repro.transform.stencil import heat_equation_weights, unrolled_weights

ELL = 32.0

MACHINE_CONFIGS = {
    "serial-numeric": lambda: TCUMachine(m=16, ell=ELL),
    "serial-cost-only": lambda: TCUMachine(m=16, ell=ELL, execute="cost-only"),
    "serial-max-rows": lambda: TCUMachine(m=16, ell=ELL, max_rows=16),
    "parallel-3": lambda: ParallelTCUMachine(m=16, ell=ELL, units=3),
    "parallel-cost-only": lambda: ParallelTCUMachine(
        m=16, ell=ELL, units=2, execute="cost-only"
    ),
}

# Golden split=1 ledger totals for the two-product program below — the
# exact charges the PR 9 planner produced before the splitter existed.
# A change here means split=1 is no longer bit-identical to the legacy
# schedule.
LEGACY_GOLDEN = {
    "serial-numeric": (2048.0, 6),
    "serial-cost-only": (2048.0, 6),
    "serial-max-rows": (3296.0, 16),
    "parallel-3": (1376.0, 6),
    "parallel-cost-only": (1488.0, 6),
}


def two_product_program(machine):
    rng = np.random.default_rng(7)
    prog = TensorProgram()
    a = matmul_lazy(machine, prog, rng.random((48, 8)), rng.random((8, 8)))
    b = matmul_lazy(machine, prog, rng.random((20, 8)), rng.random((8, 4)))
    return prog, a, b


def tall_program(machine, rows, dtype=np.float64):
    """A single merged tall call: ``rows x s`` against one resident block."""
    rng = np.random.default_rng(11)
    s = machine.sqrt_m
    A = rng.random((rows, s)).astype(dtype)
    B = rng.random((s, s)).astype(dtype)
    if np.issubdtype(np.dtype(dtype), np.complexfloating):
        A = A + 1j * rng.random((rows, s))
        B = B + 1j * rng.random((s, s))
    prog = TensorProgram()
    out = matmul_lazy(machine, prog, A, B)
    return prog, out, A @ B


class TestOraclePinning:
    """Chosen splits minimise makespan under the machine's own policy,
    checked against exhaustive enumeration with the exact scheduler."""

    @pytest.mark.parametrize("rows", [8, 20, 40, 64])
    @pytest.mark.parametrize("units", [2, 3, 4])
    def test_single_group_matches_exhaustive_oracle(self, rows, units):
        machine = ParallelTCUMachine(m=16, ell=ELL, units=units, scheduler="exact")
        prog, _, _ = tall_program(machine, rows)
        plan = plan_program(prog, machine)
        groups, _ = plan.levels[0]
        assert len(groups) == 1
        cap = _split_cap(groups[0], machine, units)
        spans = {s: _level_makespan(groups, [s], machine) for s in range(1, cap + 1)}
        chosen = plan.splits[0][0]
        best = min(spans.values())
        assert spans[chosen] == best
        # ties break toward fewer calls
        assert chosen == min(s for s, v in spans.items() if v == best)
        assert plan.modelled_makespans[0] == best

    def test_multi_group_matches_exhaustive_oracle(self):
        machine = ParallelTCUMachine(m=16, ell=ELL, units=3, scheduler="exact")
        rng = np.random.default_rng(3)
        prog = TensorProgram()
        matmul_lazy(machine, prog, rng.random((24, 4)), rng.random((4, 4)))
        matmul_lazy(machine, prog, rng.random((8, 4)), rng.random((4, 4)))
        plan = plan_program(prog, machine)
        groups, _ = plan.levels[0]
        caps = [_split_cap(g, machine, 3) for g in groups]
        best = min(
            _level_makespan(groups, list(combo), machine)
            for combo in itertools.product(*[range(1, c + 1) for c in caps])
        )
        assert plan.modelled_makespans[0] == best
        assert _level_makespan(groups, plan.splits[0], machine) == best

    @pytest.mark.parametrize("config", ["parallel-3", "parallel-cost-only"])
    def test_modelled_makespan_reconciles_with_ledger(self, config):
        """The planner's priced makespan is the makespan the batch
        executor actually charges (exact on plain machines)."""
        machine = MACHINE_CONFIGS[config]()
        prog, _, _ = tall_program(machine, 48)
        plan = run_program(prog, machine)
        assert plan.splits[0][0] > 1
        assert machine.last_batch.makespan == plan.modelled_makespans[0]

    def test_modelled_makespan_reconciles_under_max_rows(self):
        machine = ParallelTCUMachine(m=16, ell=ELL, units=3, max_rows=16)
        prog, _, _ = tall_program(machine, 48)
        plan = run_program(prog, machine)
        assert plan.splits[0][0] > 1
        assert machine.last_batch.makespan == pytest.approx(
            plan.modelled_makespans[0], rel=1e-12
        )

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("max_rows", [None, 16])
    @pytest.mark.parametrize("rows", [4, 17, 48])
    def test_modelled_call_cost_matches_machine_charge(self, dtype, max_rows, rows):
        """The splitter's per-chunk cost model reproduces the machine's
        actual tensor+latency charge for a single call."""
        machine = TCUMachine(m=16, ell=ELL, max_rows=max_rows, complex_cost_factor=2)
        rng = np.random.default_rng(5)
        s = machine.sqrt_m
        A = rng.random((rows, s)).astype(dtype)
        B = rng.random((s, s)).astype(dtype)
        before = machine.ledger.tensor_time + machine.ledger.latency_time
        machine.mm(A, B)
        charged = machine.ledger.tensor_time + machine.ledger.latency_time - before
        assert charged == modelled_call_cost(machine, rows, dtype)


class TestSplitParity:
    """Splitting changes the schedule, never the numbers."""

    @pytest.mark.parametrize("rows", [24, 48, 100])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_split_numeric_bit_identical_to_unsplit(self, rows, dtype):
        unsplit = ParallelTCUMachine(m=16, ell=ELL, units=4)
        prog1, out1, expected = tall_program(unsplit, rows, dtype)
        run_program(prog1, unsplit, split=1)

        auto = ParallelTCUMachine(m=16, ell=ELL, units=4)
        prog2, out2, _ = tall_program(auto, rows, dtype)
        plan = run_program(prog2, auto)
        assert plan.splits[0][0] > 1
        assert np.array_equal(out1.result(), out2.result())
        assert np.allclose(out2.result(), expected)
        assert auto.time < unsplit.time

    def test_cost_only_equals_numeric_charges_on_split_run(self):
        numeric = ParallelTCUMachine(m=16, ell=ELL, units=3)
        prog1, _, _ = tall_program(numeric, 48)
        plan1 = run_program(prog1, numeric)

        cost_only = ParallelTCUMachine(m=16, ell=ELL, units=3, execute="cost-only")
        prog2, _, _ = tall_program(cost_only, 48)
        plan2 = run_program(prog2, cost_only)

        assert plan1.splits == plan2.splits
        assert numeric.ledger.snapshot() == cost_only.ledger.snapshot()
        assert (
            numeric.ledger.call_shape_totals() == cost_only.ledger.call_shape_totals()
        )

    def test_split_chunks_carry_unit_ids_in_trace(self):
        machine = ParallelTCUMachine(m=16, ell=ELL, units=3, trace_calls=True)
        prog, _, _ = tall_program(machine, 48)
        plan = run_program(prog, machine)
        pieces = plan.splits[0][0]
        assert pieces > 1
        units_used = set(machine.ledger.calls.unit_ids().tolist())
        assert len(units_used) == min(pieces, machine.units)

    @pytest.mark.parametrize("config", sorted(MACHINE_CONFIGS))
    def test_split1_is_bit_identical_to_pr9_golden(self, config):
        machine = MACHINE_CONFIGS[config]()
        prog, a, b = two_product_program(machine)
        plan = run_program(prog, machine, split=1)
        assert all(f == 1 for level in plan.splits for f in level)
        total_time, calls = LEGACY_GOLDEN[config]
        assert machine.ledger.snapshot()["total_time"] == total_time
        assert machine.ledger.tensor_calls == calls

    @pytest.mark.parametrize("config", ["serial-numeric", "serial-max-rows"])
    def test_auto_is_identity_on_serial_machines(self, config):
        legacy = MACHINE_CONFIGS[config]()
        prog1, _, _ = two_product_program(legacy)
        run_program(prog1, legacy, split=1)
        auto = MACHINE_CONFIGS[config]()
        prog2, _, _ = two_product_program(auto)
        plan = run_program(prog2, auto)
        assert all(f == 1 for level in plan.splits for f in level)
        assert auto.ledger.snapshot() == legacy.ledger.snapshot()


class TestCompiledSplitPlans:
    """Split plans freeze into ``CompiledPlan`` and replay bit-identically
    with preemption intact."""

    def test_stepped_split_replay_equals_uninterrupted(self):
        probe = ParallelTCUMachine(m=16, ell=ELL, units=3)
        live_plan = get_request_type("dft").plan(probe, [512])
        assert any(f > 1 for level in live_plan.splits for f in level)

        ran = ParallelTCUMachine(m=16, ell=ELL, units=3)
        compiled = compile_plan(get_request_type("dft"), ran, [512])
        ExecutionCursor(compiled, ran).run()

        stepped = ParallelTCUMachine(m=16, ell=ELL, units=3)
        cursor = ExecutionCursor(compile_plan(get_request_type("dft"), stepped, [512]), stepped)
        while not cursor.done:
            cursor.step()
        assert stepped.ledger.snapshot() == ran.ledger.snapshot()
        assert stepped.ledger.call_shape_totals() == ran.ledger.call_shape_totals()

    def test_preempt_resume_split_cursor_prices_like_live(self):
        rtype = get_request_type("dft")
        live_m = ParallelTCUMachine(m=16, ell=ELL, units=3)
        live = ExecutionCursor(rtype.plan(live_m, [512]), live_m)
        replay_m = ParallelTCUMachine(m=16, ell=ELL, units=3)
        replay = ExecutionCursor(compile_plan(rtype, replay_m, [512]), replay_m)

        live.step()
        replay.step()
        assert replay.resident_words() == live.resident_words()
        assert replay.charge_reload() == live.charge_reload()
        while not live.done:
            live.step()
        while not replay.done:
            replay.step()
        assert replay_m.ledger.snapshot() == live_m.ledger.snapshot()

    def test_live_split_execution_matches_compiled_replay(self):
        live_m = ParallelTCUMachine(m=16, ell=ELL, units=3)
        get_request_type("dft").serve(live_m, [512])
        replay_m = ParallelTCUMachine(m=16, ell=ELL, units=3)
        ExecutionCursor(
            compile_plan(get_request_type("dft"), replay_m, [512]), replay_m
        ).run()
        assert replay_m.ledger.snapshot() == live_m.ledger.snapshot()
        assert replay_m.ledger.call_shape_totals() == live_m.ledger.call_shape_totals()


class TestSplitKnob:
    def test_invalid_split_rejected(self):
        machine = TCUMachine(m=16, ell=ELL)
        prog, _, _ = tall_program(machine, 8)
        with pytest.raises(ProgramError):
            plan_program(prog, machine, split=0)
        with pytest.raises(ProgramError):
            plan_program(prog, machine, split=True)
        with pytest.raises(ProgramError):
            plan_program(prog, machine, split="bogus")

    @pytest.mark.parametrize("config", sorted(MACHINE_CONFIGS))
    def test_invalid_split_rejected_on_entry_to_kernels(self, config):
        """``split`` is checked on entry to ``matmul`` on every machine —
        serial ones never reach the planner — so ``batched_dft`` and the
        other kernels forwarding it inherit the check."""
        rng = np.random.default_rng(1)
        message = "split must be 'auto' or an integer >= 1, got 'bogus'"
        machine = MACHINE_CONFIGS[config]()
        with pytest.raises(ProgramError) as raised:
            matmul(machine, rng.random((8, 4)), rng.random((4, 4)), split="bogus")
        assert str(raised.value) == message
        with pytest.raises(ProgramError) as raised:
            batched_dft(machine, rng.random((2, 16)) + 0j, split="bogus")
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "kernel, args",
        [
            (unrolled_weights, (heat_equation_weights(), 2)),
            (batched_dft, (np.zeros((2, 0), complex),)),
            (batched_dft, (np.zeros((0, 16), complex),)),
            (batched_idft, (np.zeros((2, 0), complex),)),
            (dft2, (np.zeros((0, 4, 4)),)),
            (idft2, (np.zeros((0, 4, 4)),)),
        ],
        ids=[
            "unrolled_weights-small-squarings",
            "batched_dft-no-columns",
            "batched_dft-no-rows",
            "batched_idft-no-columns",
            "dft2-empty-stack",
            "idft2-empty-stack",
        ],
    )
    def test_invalid_split_rejected_where_no_product_runs(self, kernel, args):
        """Every public kernel taking ``split`` checks it on entry, also
        on inputs that never reach ``matmul`` or the planner: Lemma 2's
        small squarings take the direct RAM convolution, and empty
        transforms return before any product."""
        machine = TCUMachine(m=16, ell=8.0)
        with pytest.raises(ProgramError, match="split must be 'auto'"):
            kernel(machine, *args, split="bogus")
        assert machine.time == 0

    def test_explicit_split_forces_factor(self):
        machine = ParallelTCUMachine(m=16, ell=ELL, units=4)
        prog, _, _ = tall_program(machine, 48)
        plan = plan_program(prog, machine, split=3)
        assert plan.splits[0][0] == 3

    def test_explicit_split_clamps_to_row_capacity(self):
        machine = ParallelTCUMachine(m=16, ell=ELL, units=4)
        prog, _, _ = tall_program(machine, 8)  # only 2 chunks of sqrt_m rows fit
        plan = plan_program(prog, machine, split=4)
        assert plan.splits[0][0] == 2

    def test_split_ignored_on_serial_machines(self):
        machine = TCUMachine(m=16, ell=ELL)
        prog, _, _ = tall_program(machine, 48)
        plan = plan_program(prog, machine, split=4)
        assert plan.splits[0][0] == 1

    def test_kernel_entry_points_thread_split(self):
        """The kernel wrappers forward split= to every planner call:
        split=1 on a parallel machine charges the serial machine's exact
        call trace, auto re-partitions the merged DFT stream (more,
        shorter calls; same streamed rows) and never slows the clock."""
        rng = np.random.default_rng(3)
        X = rng.random((8, 64)) + 1j * rng.random((8, 64))
        serial = TCUMachine(m=16, ell=16.0)
        batched_dft(serial, X)
        pinned = ParallelTCUMachine(m=16, ell=16.0, units=4)
        out_pinned = batched_dft(pinned, X, split=1)
        auto = ParallelTCUMachine(m=16, ell=16.0, units=4)
        out_auto = batched_dft(auto, X, split="auto")

        assert pinned.ledger.tensor_calls == serial.ledger.tensor_calls
        assert pinned.ledger.call_shape_totals() == serial.ledger.call_shape_totals()
        assert auto.ledger.tensor_calls > serial.ledger.tensor_calls
        def streamed(led):
            return sum(
                n * count for (n, _), (count, _, _) in led.call_shape_totals().items()
            )

        assert streamed(auto.ledger) == streamed(serial.ledger)
        assert auto.time <= pinned.time
        np.testing.assert_array_equal(out_auto, out_pinned)


def reference_splits(groups, machine):
    """The original chooser: the same search, with every candidate priced
    afresh by ``_level_makespan`` (no tables, no memo)."""
    units = int(getattr(machine, "units", 1))
    best = [1] * len(groups)
    if units <= 1 or not groups:
        return best
    caps = [_split_cap(g, machine, units) for g in groups]
    if all(cap == 1 for cap in caps):
        return best
    best_span = _level_makespan(groups, best, machine)
    if best_span <= 0.0:
        return best
    serial = float(program_module._level_cost_vector(groups, best, machine).sum())
    if best_span == serial / units:
        return best

    def better(span, splits):
        return span < best_span or (span == best_span and sum(splits) < sum(best))

    space = 1
    for cap in caps:
        space *= cap
    if space <= program_module._SPLIT_SEARCH_LIMIT:
        for cand in itertools.product(*(range(1, cap + 1) for cap in caps)):
            splits = list(cand)
            if splits == best:
                continue
            span = _level_makespan(groups, splits, machine)
            if better(span, splits):
                best, best_span = splits, span
        return best
    for _ in range(program_module._SPLIT_DESCENT_PASSES):
        changed = False
        for gi, cap in enumerate(caps):
            for factor in range(1, cap + 1):
                if factor == best[gi]:
                    continue
                trial = list(best)
                trial[gi] = factor
                span = _level_makespan(groups, trial, machine)
                if better(span, trial):
                    best, best_span = trial, span
                    changed = True
        if not changed:
            break
    return best


def count_calls(monkeypatch, *names):
    """Count calls to the named ``repro.core.program`` globals (the
    lookups the planner makes) while still running them."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(program_module, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(program_module, name, counting)
    return counts


def make_group(rows, dtype, sqrt_m=4):
    """A merge group of ``rows`` streamed rows: one op, or two when the
    stream is tall enough to come from two merged calls."""
    parts = [rows] if rows < 2 * sqrt_m else [sqrt_m, rows - sqrt_m]
    return [
        TensorOp(i, "mm", shape=(n, sqrt_m), dtype=np.dtype(dtype))
        for i, n in enumerate(parts)
    ]


SCHEDULERS = ("lpt", "round-robin", "greedy", "exact")
FRACTIONAL_ELLS = (1 / 3, 2.5, 1e5 + 0.7)
ELLS = (0.0, 16.0, 512.0) + FRACTIONAL_ELLS
GROUP_ROWS = (4, 5, 8, 12, 16, 21, 33, 48)
DTYPES = (np.float64, np.complex128, np.float32, np.complex64)


def random_level(rng, scheduler, units, ell):
    """A generated level: a few shapes shared by many groups (as merged
    levels have), on a machine with random row bound and complex factor."""
    machine = ParallelTCUMachine(
        m=16,
        ell=ell,
        units=units,
        scheduler=scheduler,
        max_rows=(None, 16, 24)[int(rng.integers(3))],
        complex_cost_factor=int(rng.integers(1, 5)),
        execute="cost-only",
    )
    shapes = [
        (int(rng.choice(GROUP_ROWS)), DTYPES[int(rng.integers(len(DTYPES)))])
        for _ in range(int(rng.integers(1, 4)))
    ]
    # the exact oracle is exponential: keep its levels to a few chunks
    n_groups = int(rng.integers(1, 4 if scheduler == "exact" else 11))
    groups = [
        make_group(*shapes[int(rng.integers(len(shapes)))]) for _ in range(n_groups)
    ]
    return groups, machine


class TestSearchParity:
    """The tabulated, memoised split search returns exactly the splits of
    the original chooser that priced every candidate afresh."""

    def test_identical_groups_level(self):
        machine = ParallelTCUMachine(m=16, ell=512.0, units=3, execute="cost-only")
        groups = [make_group(8, np.float64) for _ in range(256)]
        chosen, span = _choose_level_splits(groups, machine)
        assert chosen == reference_splits(groups, machine)
        assert span == _level_makespan(groups, chosen, machine)
        assert sum(f > 1 for f in chosen) == 1

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_generated_corpus(self, scheduler):
        rng = np.random.default_rng(SCHEDULERS.index(scheduler))
        searched = {"exhaustive": 0, "descent": 0}
        for units in (2, 3, 4):
            for ell in ELLS:
                for _ in range(8):
                    groups, machine = random_level(rng, scheduler, units, ell)
                    chosen, span = _choose_level_splits(groups, machine)
                    # the chooser's own price of its choice, bit for bit
                    assert span == _level_makespan(groups, chosen, machine)
                    assert chosen == reference_splits(groups, machine), (
                        units, ell, machine.max_rows, machine.complex_cost_factor,
                        [(program_module._group_rows(g), g[0].dtype) for g in groups],
                    )
                    space = int(np.prod([_split_cap(g, machine, units) for g in groups]))
                    if space > 1:
                        limit = program_module._SPLIT_SEARCH_LIMIT
                        searched["exhaustive" if space <= limit else "descent"] += 1
        assert searched["exhaustive"] > 0
        if scheduler != "exact":
            assert searched["descent"] > 0

    @pytest.mark.parametrize("ell", FRACTIONAL_ELLS)
    def test_fractional_ell_takes_ordered_key(self, ell, monkeypatch):
        """Non-integer chunk costs may round differently in another
        order, so each ordered candidate is priced: 2**3 - 1 splits of
        three identical groups.  With integer costs LPT prices each
        split count once: 3 more multisets after the unsplit one."""
        counts = count_calls(monkeypatch, "schedule_batch")
        groups = [make_group(8, np.float64) for _ in range(3)]
        for level_ell, priced in ((ell, 8), (16.0, 4)):
            counts["schedule_batch"] = 0
            machine = ParallelTCUMachine(m=16, ell=level_ell, units=2)
            chosen, _ = _choose_level_splits(groups, machine)
            assert counts["schedule_batch"] == priced
            assert chosen == reference_splits(groups, machine)


class TestPlannerCost:
    """Planning cost gate: the two-request matmul batch on the 3-unit
    machine (one level of 256 identical 8-row groups) prices a handful
    of distinct candidates, not every descent trial."""

    def test_matmul_batch_plans_cheaply(self, monkeypatch):
        counts = count_calls(monkeypatch, "schedule_batch", "modelled_call_cost")
        machine = ParallelTCUMachine(m=16, ell=512.0, units=3, execute="cost-only")
        plan = get_request_type("matmul").plan(machine, [4, 4])
        assert counts["schedule_batch"] <= 32
        assert counts["modelled_call_cost"] <= 600
        assert sum(f > 1 for level in plan.splits for f in level) == 1
