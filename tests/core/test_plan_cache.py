"""Plan cache core gates: compile-once/replay-forever bit-identity,
LRU bookkeeping, and the fingerprint check that refuses a replay onto a
machine the plan was not compiled for.

The cache's contract is *bitwise*: an :class:`ExecutionCursor` replaying
a compiled plan must be indistinguishable — snapshot, clock, per-shape trace totals, unit-id
columns, per-level boundaries, reload pricing — from live plan
execution on every machine configuration, or the serving engine could
not route through it unconditionally.
"""

import numpy as np
import pytest

from repro import (
    ParallelTCUMachine,
    PlanCache,
    TCUMachine,
    compile_plan,
)
from repro.core.ledger import CostLedger, LedgerError
from repro.core.program import ExecutionCursor, ProgramError, _resident_key, _source_shape
from repro.serve import get_request_type

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

KINDS = [
    ("matmul", [8, 16]),
    ("mlp", [8, 8, 4]),
    ("dft", [512]),
    ("stencil", [16, 16]),
]


def live_machine_after(config, kind, rows):
    machine = MACHINE_CONFIGS[config]()
    get_request_type(kind).serve(machine, rows)
    return machine


def replay_machine_after(config, kind, rows, *, stepped=False):
    machine = MACHINE_CONFIGS[config]()
    compiled = compile_plan(get_request_type(kind), machine, rows)
    cursor = ExecutionCursor(compiled, machine)
    if stepped:
        while not cursor.done:
            cursor.step()
    else:
        cursor.run()
    return machine


class TestReplayBitIdentity:
    @pytest.mark.parametrize("config", sorted(MACHINE_CONFIGS))
    @pytest.mark.parametrize("kind,rows", KINDS)
    def test_replay_matches_live_execution(self, config, kind, rows):
        live = live_machine_after(config, kind, rows)
        replay = replay_machine_after(config, kind, rows)
        assert live.ledger.snapshot() == replay.ledger.snapshot()
        assert live.ledger.call_shape_totals() == replay.ledger.call_shape_totals()
        assert live.ledger.total_time == replay.ledger.total_time
        assert np.array_equal(
            live.ledger.calls.unit_ids(), replay.ledger.calls.unit_ids()
        )

    @pytest.mark.parametrize("config", sorted(MACHINE_CONFIGS))
    def test_stepped_replay_equals_run_replay(self, config):
        stepped = replay_machine_after(config, "mlp", [8, 4], stepped=True)
        ran = replay_machine_after(config, "mlp", [8, 4])
        assert stepped.ledger.snapshot() == ran.ledger.snapshot()
        assert stepped.ledger.call_shape_totals() == ran.ledger.call_shape_totals()

    @pytest.mark.parametrize(
        "kind,rows", [("mlp", [8, 8]), ("dft", [4]), ("stencil", [8])]
    )
    def test_level_boundaries_and_reload_pricing_match_live(self, kind, rows):
        """Per-level elapsed times and resident-word reload prices are
        what the live cursor would report at every boundary — the
        preemption machinery sees no difference.  The dft and stencil
        plans charge build work (Fourier matrices, the kernel side),
        which must stay out of level 0."""
        rtype = get_request_type(kind)
        live_m = TCUMachine(m=16, ell=ELL, max_rows=16)
        plan = rtype.plan(live_m, rows)
        live = ExecutionCursor(plan, live_m)

        replay_m = TCUMachine(m=16, ell=ELL, max_rows=16)
        compiled = compile_plan(rtype, replay_m, rows)
        replay = ExecutionCursor(compiled, replay_m)

        # the cursor pays the build charges when it is made, where the
        # live plan paid them while it was built
        assert replay_m.ledger.snapshot() == live_m.ledger.snapshot()
        assert (kind == "mlp") == (live_m.ledger.total_time == 0.0)
        assert replay.total_levels == live.total_levels
        while not live.done:
            assert replay.resident_words() == live.resident_words()
            assert replay.step() == live.step()
        assert replay.done
        assert live_m.ledger.snapshot() == replay_m.ledger.snapshot()

    def test_charge_reload_prices_like_live_resume(self):
        rtype = get_request_type("dft")
        machine_a = TCUMachine(m=16, ell=ELL)
        machine_b = TCUMachine(m=16, ell=ELL)
        compiled = compile_plan(rtype, machine_a, [1024])
        live = ExecutionCursor(rtype.plan(machine_a, [1024]), machine_a)
        replay = ExecutionCursor(compiled, machine_b)
        live.step()
        replay.step()
        assert replay.resident_words() == live.resident_words()
        live_reload = live.charge_reload()
        replay_reload = replay.charge_reload()
        assert replay_reload == live_reload
        assert machine_b.ledger.reload_time == machine_a.ledger.reload_time > 0.0

    def test_exhausted_cursor_raises(self):
        machine = TCUMachine(m=16, ell=ELL, execute="cost-only")
        compiled = compile_plan(get_request_type("matmul"), machine, [8])
        cursor = ExecutionCursor(compiled, machine)
        cursor.run()
        with pytest.raises(ProgramError, match="exhausted"):
            cursor.step()

    def test_compilation_never_touches_the_live_ledger(self):
        machine = TCUMachine(m=16, ell=ELL, execute="cost-only")
        before = machine.ledger.snapshot()
        compile_plan(get_request_type("mlp"), machine, [8, 8])
        assert machine.ledger.snapshot() == before


ONE_PASS_PLANS = {
    # 3-unit dft levels have fractional makespan-scaled deltas
    "parallel-dft": (lambda **kw: ParallelTCUMachine(m=16, ell=ELL, units=3, **kw), "dft", [512]),
    # a fractional ell makes the spans and CPU deltas fractional too, so
    # section totals depend on adding them level by level
    "parallel-stencil-fractional-ell": (
        lambda **kw: ParallelTCUMachine(m=16, ell=0.1, units=3, execute="cost-only", **kw),
        "stencil",
        [8, 4],
    ),
    "parallel-matmul": (
        lambda **kw: ParallelTCUMachine(m=16, ell=ELL, units=3, execute="cost-only", **kw),
        "matmul",
        [8, 8, 8],
    ),
    "serial-matmul": (
        lambda **kw: TCUMachine(m=16, ell=ELL, execute="cost-only", **kw), "matmul", [8, 8, 8]
    ),
    "max-rows-stencil": (
        lambda **kw: TCUMachine(m=16, ell=ELL, max_rows=16, **kw), "stencil", [8, 4]
    ),
}


def finish(compiled, make_machine, trace, steps, rewind, one_pass):
    """Replay ``compiled`` inside two open sections: ``steps`` steps, an
    optional rewind, then ``run()`` or steps to exhaustion.  Returns the
    cursor, the ledger effects and the ``on_charge`` sequence."""
    machine = make_machine(trace_calls=trace)
    ledger = machine.ledger
    charges = []
    ledger.on_charge = lambda category, amount: charges.append((category, amount))
    with ledger.section("outer"), ledger.section("batch"):
        cursor = ExecutionCursor(compiled, machine)
        for _ in range(steps):
            cursor.step()
        if rewind is not None:
            cursor.rewind(rewind)
        before = ledger.total_time
        if one_pass:
            cursor.run()
        else:
            while not cursor.done:
                cursor.step()
        elapsed = ledger.total_time - before
    effects = [ledger.snapshot(), ledger.section_time("outer"), ledger.section_time("batch")]
    if trace is True:
        effects += [col.tolist() for col in ledger.calls.as_arrays()]
        effects += [ledger.calls.unit_ids().tolist(), [c.section for c in ledger.calls]]
    elif trace == "aggregate":
        effects.append(ledger.call_shape_totals())
    return cursor, effects, charges, elapsed


class TestOnePassReplay:
    """``run()`` on a compiled plan replays every remaining level in one
    pass; from every start level — after ``k`` steps, or after stepping
    to the end and rewinding to ``k`` — it leaves the ledger exactly as
    stepping the same levels does: snapshot, section totals, the full
    trace or the aggregate histogram, and the ``on_charge`` sequence."""

    @pytest.mark.parametrize("trace", [True, "aggregate"], ids=["full", "aggregate"])
    @pytest.mark.parametrize("plan", sorted(ONE_PASS_PLANS))
    def test_run_equals_stepping_from_every_level(self, plan, trace):
        make_machine, kind, rows = ONE_PASS_PLANS[plan]
        compiled = compile_plan(get_request_type(kind), make_machine(), rows)
        total = len(compiled.levels)
        assert total > 1
        starts = [(k, None) for k in range(total + 1)]
        starts += [(total, k) for k in range(total)]
        for steps, rewind in starts:
            stepped, want, want_charges, _ = finish(
                compiled, make_machine, trace, steps, rewind, one_pass=False
            )
            ran, got, got_charges, elapsed = finish(
                compiled, make_machine, trace, steps, rewind, one_pass=True
            )
            assert got == want, (steps, rewind)
            assert got_charges == want_charges, (steps, rewind)
            # the pass is one level_times entry: the clock it advanced
            done = steps if rewind is None else total
            assert ran.level_times[:done] == stepped.level_times[:done]
            start = done if rewind is None else rewind
            assert ran.level_times[done:] == ([elapsed] if start < total else [])
            assert ran.done

    def test_fractional_plan_is_replayed_level_by_level(self):
        """The 3-unit dft plan's deltas are fractional, so only level by
        level left-to-right addition reproduces stepping."""
        make_machine, kind, rows = ONE_PASS_PLANS["parallel-dft"]
        compiled = compile_plan(get_request_type(kind), make_machine(), rows)
        assert not all(
            float(x).is_integer()
            for level in compiled.levels
            for x in (level.tensor_time, level.latency_time)
        )

    def test_one_trace_append_per_run(self, monkeypatch):
        appends = []
        original = CostLedger.record_calls_bulk

        def counted(self, *args, **kwargs):
            appends.append(len(args[0]))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(CostLedger, "record_calls_bulk", counted)
        make_machine, kind, rows = ONE_PASS_PLANS["parallel-dft"]
        compiled = compile_plan(get_request_type(kind), make_machine(), rows)
        machine = make_machine()
        cursor = ExecutionCursor(compiled, machine)
        appends.clear()
        cursor.run()
        assert appends == [compiled.offsets[-1]] == [machine.ledger.tensor_calls]

    def test_levels_are_slices_of_one_trace_copy(self):
        make_machine, kind, rows = ONE_PASS_PLANS["parallel-matmul"]
        compiled = compile_plan(get_request_type(kind), make_machine(), rows)
        offsets = compiled.offsets
        assert len(offsets) == len(compiled.levels) + 1 and offsets[0] == 0
        for d, level in enumerate(compiled.levels):
            assert level.ns.size == offsets[d + 1] - offsets[d]
            for column, whole in zip(
                (level.ns, level.times, level.lats, level.units), compiled.calls, strict=True
            ):
                assert np.array_equal(column, whole[offsets[d] : offsets[d + 1]])
                if column.size:
                    assert np.shares_memory(column, whole)


class TestCompiledPlanShape:
    @pytest.mark.parametrize("config", sorted(MACHINE_CONFIGS))
    @pytest.mark.parametrize("kind,rows", KINDS)
    def test_resident_words_table_equals_rescan(self, config, kind, rows):
        """The plan's one-pass suffix table against the per-level rescan
        the cursor ran before it, at every level, and the compiled
        reload words read from the same table."""
        machine = MACHINE_CONFIGS[config]()
        plan = get_request_type(kind).plan(machine.fork(), rows)

        def rescan(start):
            seen, words = set(), 0
            for groups, _ in plan.levels[start:]:
                for g in groups:
                    key = _resident_key(g[0])
                    if key not in seen:
                        seen.add(key)
                        shape = _source_shape(g[0].b)
                        words += shape[0] * shape[1]
            return words

        cursor = ExecutionCursor(plan, machine)
        for level in range(len(plan.levels) + 1):
            assert plan.resident_words(level) == rescan(level)
            assert cursor.resident_words(level) == rescan(level)
        compiled = compile_plan(get_request_type(kind), machine, rows)
        assert list(compiled.reload_words) == [
            rescan(level) for level in range(len(compiled.levels))
        ]

    def test_reload_words_mirror_live_cursor(self):
        machine = TCUMachine(m=16, ell=ELL, execute="cost-only")
        rtype = get_request_type("mlp")
        compiled = compile_plan(rtype, machine, [8])
        assert len(compiled.reload_words) == len(compiled.levels)
        live = ExecutionCursor(rtype.plan(machine.fork(), [8]), machine.fork())
        assert compiled.reload_words[0] == live.resident_words()


class TestPlanCache:
    def test_hit_returns_the_same_compiled_object(self):
        cache = PlanCache()
        machine = TCUMachine(m=16, ell=ELL, execute="cost-only")
        rtype = get_request_type("matmul")
        first = cache.get_or_compile(rtype, machine, [8, 16])
        second = cache.get_or_compile(rtype, machine, [8, 16])
        assert second is first
        assert (cache.hits, cache.misses, len(cache)) == (1, 1, 1)
        stats = cache.stats()
        assert stats["hit_rate"] == pytest.approx(0.5)
        assert stats["size"] == 1

    def test_key_separates_kinds_rows_and_machine_configs(self):
        plain = TCUMachine(m=16, ell=ELL, execute="cost-only")
        capped = TCUMachine(m=16, ell=ELL, execute="cost-only", max_rows=16)
        pooled = ParallelTCUMachine(m=16, ell=ELL, units=2, execute="cost-only")
        keys = {
            PlanCache.key("matmul", [8], plain),
            PlanCache.key("matmul", [16], plain),
            PlanCache.key("mlp", [8], plain),
            PlanCache.key("matmul", [8], capped),
            PlanCache.key("matmul", [8], pooled),
        }
        assert len(keys) == 5
        # identical configuration on a distinct instance shares the key
        twin = TCUMachine(m=16, ell=ELL, execute="cost-only")
        assert PlanCache.key("matmul", [8], twin) == PlanCache.key(
            "matmul", [8], plain
        )

    def test_key_is_the_untruncated_rows(self):
        """A fractional row count misses the cache and is refused at
        compile; numpy ints share the int key."""
        cache = PlanCache()
        machine = TCUMachine(m=16, ell=ELL, execute="cost-only")
        rtype = get_request_type("matmul")
        compiled = cache.get_or_compile(rtype, machine, [2])
        with pytest.raises(ValueError, match=r"^rows must be an integer >= 0, got 2\.7$"):
            cache.get_or_compile(rtype, machine, [2.7])
        with pytest.raises(ValueError, match=r"got -3$"):
            cache.get_or_compile(rtype, machine, [5, -3])
        assert cache.get_or_compile(rtype, machine, [np.int64(2)]) is compiled
        assert (cache.hits, cache.misses, len(cache)) == (1, 3, 1)
        assert compiled.rows == (2,)

    def test_lru_evicts_least_recently_used(self):
        cache = PlanCache(capacity=2)
        machine = TCUMachine(m=16, ell=ELL, execute="cost-only")
        rtype = get_request_type("matmul")
        cache.get_or_compile(rtype, machine, [8])
        cache.get_or_compile(rtype, machine, [16])
        cache.get_or_compile(rtype, machine, [8])  # refresh [8]
        cache.get_or_compile(rtype, machine, [32])  # evicts [16]
        assert cache.evictions == 1
        assert PlanCache.key("matmul", [8], machine) in cache
        assert PlanCache.key("matmul", [16], machine) not in cache
        # the evicted shape recompiles as a miss
        misses = cache.misses
        cache.get_or_compile(rtype, machine, [16])
        assert cache.misses == misses + 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            PlanCache(capacity=0)

    def test_clear_empties_entries_but_keeps_counters(self):
        cache = PlanCache()
        machine = TCUMachine(m=16, ell=ELL, execute="cost-only")
        cache.get_or_compile(get_request_type("matmul"), machine, [8])
        cache.clear()
        assert len(cache) == 0
        assert cache.misses == 1


class TestPoisoningGuard:
    def test_replay_on_other_ell_machine_raises(self):
        donor = TCUMachine(m=16, ell=ELL, execute="cost-only")
        compiled = compile_plan(get_request_type("matmul"), donor, [8])
        victim = TCUMachine(m=16, ell=7.0, execute="cost-only")
        with pytest.raises(LedgerError, match="different machine configuration"):
            ExecutionCursor(compiled, victim).run()

    def test_replay_on_other_sqrt_m_machine_raises(self):
        donor = TCUMachine(m=16, ell=ELL, execute="cost-only")
        compiled = compile_plan(get_request_type("matmul"), donor, [8])
        victim = TCUMachine(m=64, ell=ELL, execute="cost-only")
        with pytest.raises(LedgerError, match="different machine configuration"):
            ExecutionCursor(compiled, victim).run()

    def test_raw_level_replay_is_guarded_too(self):
        """Parallel plans bypass charge_tensor_bulk's formula path; the
        fingerprint check refuses them before any level replays."""
        donor = ParallelTCUMachine(m=16, ell=ELL, units=3)
        compiled = compile_plan(get_request_type("matmul"), donor, [8, 8, 8])
        victim = ParallelTCUMachine(m=16, ell=9.0, units=3)
        with pytest.raises(LedgerError, match="different machine configuration"):
            cursor = ExecutionCursor(compiled, victim)
            while not cursor.done:
                cursor.step()

    def test_failed_replay_leaves_no_partial_bulk_charge(self):
        donor = TCUMachine(m=16, ell=ELL, execute="cost-only")
        compiled = compile_plan(get_request_type("matmul"), donor, [8])
        victim = TCUMachine(m=16, ell=7.0, execute="cost-only")
        with pytest.raises(LedgerError):
            ExecutionCursor(compiled, victim).run()
        assert victim.ledger.tensor_calls == 0


class TestConfigKeyCompleteness:
    """The cache key must separate machines along every cost-model
    parameter the auto-splitter reads (PR 10 regression): a plan whose
    split factor was priced for one ``(p, l, sqrt_m, max_rows,
    complex_cost_factor, scheduler)`` must never be served to another."""

    def test_cache_never_serves_across_unit_counts(self):
        cache = PlanCache()
        rtype = get_request_type("dft")
        p2 = ParallelTCUMachine(m=16, ell=ELL, units=2, execute="cost-only")
        p4 = ParallelTCUMachine(m=16, ell=ELL, units=4, execute="cost-only")
        first = cache.get_or_compile(rtype, p2, [512])
        second = cache.get_or_compile(rtype, p4, [512])
        assert cache.hits == 0 and cache.misses == 2
        assert first is not second
        # and the split decisions genuinely differ between the two keys
        assert PlanCache.key("dft", [512], p2) != PlanCache.key("dft", [512], p4)

    def test_cache_never_serves_across_schedulers(self):
        cache = PlanCache()
        rtype = get_request_type("matmul")
        lpt = ParallelTCUMachine(m=16, ell=ELL, units=3, scheduler="lpt")
        rr = ParallelTCUMachine(m=16, ell=ELL, units=3, scheduler="round-robin")
        cache.get_or_compile(rtype, lpt, [8, 8, 8])
        cache.get_or_compile(rtype, rr, [8, 8, 8])
        assert cache.hits == 0 and cache.misses == 2

    def test_config_key_covers_every_splitter_parameter(self):
        """Varying any parameter the splitter's cost model reads yields
        a distinct fingerprint."""
        base = ParallelTCUMachine(m=16, ell=ELL, units=3)
        variants = [
            ParallelTCUMachine(m=64, ell=ELL, units=3),  # sqrt_m
            ParallelTCUMachine(m=16, ell=7.0, units=3),  # l
            ParallelTCUMachine(m=16, ell=ELL, units=4),  # p
            ParallelTCUMachine(m=16, ell=ELL, units=3, max_rows=16),
            ParallelTCUMachine(m=16, ell=ELL, units=3, complex_cost_factor=4),
            ParallelTCUMachine(m=16, ell=ELL, units=3, scheduler="greedy"),
        ]
        keys = {base.config_key()} | {m.config_key() for m in variants}
        assert len(keys) == len(variants) + 1

    @pytest.mark.parametrize(
        "victim",
        [
            dict(units=4),
            dict(units=3, scheduler="round-robin"),
        ],
        ids=["units", "scheduler"],
    )
    def test_replay_refuses_other_unit_count_or_scheduler(self, victim):
        """``(sqrt_m, l)`` alone cannot tell these machines apart: a
        frozen plan carries its donor's unit assignment and makespans,
        so a p=3 plan replayed on a p=4 machine would charge the p=3
        schedule.  The plan's stored ``config_key`` refuses the replay,
        naming both keys, before anything is charged."""
        donor = ParallelTCUMachine(m=16, ell=ELL, units=3, execute="cost-only")
        compiled = compile_plan(get_request_type("dft"), donor, [4])
        assert compiled.config_key == donor.config_key()
        machine = ParallelTCUMachine(m=16, ell=ELL, execute="cost-only", **victim)
        with pytest.raises(LedgerError, match="different machine configuration") as err:
            ExecutionCursor(compiled, machine)
        assert str(donor.config_key()) in str(err.value)
        assert str(machine.config_key()) in str(err.value)
        assert machine.ledger.tensor_calls == 0 and machine.ledger.total_time == 0.0
        # a plan compiled for the victim itself replays as a live run does
        native = compile_plan(get_request_type("dft"), machine, [4])
        ExecutionCursor(native, machine).run()
        live = ParallelTCUMachine(m=16, ell=ELL, execute="cost-only", **victim)
        get_request_type("dft").serve(live, [4])
        assert machine.ledger.snapshot() == live.ledger.snapshot()
