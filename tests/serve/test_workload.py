"""Workload generators and the request-type registry."""

import heapq
import math
from dataclasses import replace

import numpy as np
import pytest

from repro import TCUMachine
from repro.core.program import execute_plan
from repro.serve import (
    BurstyWorkload,
    ClosedLoopWorkload,
    DiurnalWorkload,
    MatmulRequestType,
    MixedWorkload,
    MLPRequestType,
    PoissonWorkload,
    RequestType,
    TraceWorkload,
    available_request_types,
    get_request_type,
    register_request_type,
)
from repro.serve import workload as workload_module
from repro.serve.workload import Request


def arrivals(workload):
    return [r.arrival for r in workload.requests()]


class TestRegistry:
    def test_builtin_kinds_registered(self):
        names = available_request_types()
        for kind in ("matmul", "mlp", "dft", "stencil"):
            assert kind in names

    def test_get_by_name_and_instance(self):
        rtype = get_request_type("matmul")
        assert rtype.name == "matmul"
        assert get_request_type(rtype) is rtype

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown request type"):
            get_request_type("no-such-kind")

    def test_custom_registration(self):
        class Custom(RequestType):
            name = "custom-nop"
            default_rows = 4

            def serve(self, machine, rows):
                machine.charge_cpu(float(sum(rows)))

        register_request_type(Custom())
        assert "custom-nop" in available_request_types()
        machine = TCUMachine(m=16, ell=0.0)
        get_request_type("custom-nop").serve(machine, [4, 4])
        assert machine.ledger.cpu_time == 8.0


class TestRequestTypeCharging:
    def test_cost_only_matches_numeric(self):
        rows = [8, 4, 12]
        for kind in ("matmul", "mlp", "dft", "stencil"):
            numeric = TCUMachine(m=16, ell=8.0)
            cost = TCUMachine(m=16, ell=8.0, execute="cost-only")
            get_request_type(kind).serve(numeric, rows)
            get_request_type(kind).serve(cost, rows)
            assert numeric.ledger.snapshot() == cost.ledger.snapshot(), kind

    def test_matmul_kind_charges_shape_only(self):
        a = TCUMachine(m=16, ell=8.0)
        b = TCUMachine(m=16, ell=8.0)
        rtype = MatmulRequestType(name="mm-test", width=16, default_rows=8)
        rtype.serve(a, [8, 8])
        rtype.serve(b, [16])  # same total rows -> same stacked stream
        assert a.ledger.snapshot() == b.ledger.snapshot()

    def test_empty_batch_charges_nothing(self):
        machine = TCUMachine(m=16, ell=8.0)
        get_request_type("matmul").serve(machine, [])
        assert machine.ledger.total_time == 0.0


class TestSeedDerivation:
    """Resident weights are derived from the type *name*; the digest must
    be order-sensitive so anagram names never alias the same weights."""

    def test_anagram_matmul_types_get_distinct_weights(self):
        machine = TCUMachine(m=16, ell=8.0)
        ab = MatmulRequestType(name="ab", width=8, default_rows=4)
        ba = MatmulRequestType(name="ba", width=8, default_rows=4)
        assert not np.array_equal(ab._resident(machine), ba._resident(machine))

    def test_anagram_mlp_types_get_distinct_layers(self):
        machine = TCUMachine(m=16, ell=8.0)
        ab = MLPRequestType(name="ab", dims=(8, 8, 8), default_rows=4)
        ba = MLPRequestType(name="ba", dims=(8, 8, 8), default_rows=4)
        assert any(
            not np.array_equal(x, y)
            for x, y in zip(ab._layers(machine), ba._layers(machine))
        )

    def test_weights_stable_across_instances(self):
        machine = TCUMachine(m=16, ell=8.0)
        one = MatmulRequestType(name="pin", width=8, default_rows=4)
        two = MatmulRequestType(name="pin", width=8, default_rows=4)
        assert np.array_equal(one._resident(machine), two._resident(machine))

    def test_charges_unchanged_by_reseeding(self):
        # charges are shape-only, so the seed-derivation fix must not
        # move a single ledger entry
        for name in ("ab", "ba"):
            numeric = TCUMachine(m=16, ell=8.0)
            cost = TCUMachine(m=16, ell=8.0, execute="cost-only")
            rtype = MatmulRequestType(name=name, width=16, default_rows=8)
            rtype.serve(numeric, [8, 4])
            rtype.serve(cost, [8, 4])
            assert numeric.ledger.snapshot() == cost.ledger.snapshot()


class TestPoisson:
    def test_seeded_determinism(self):
        wl = PoissonWorkload(rate=0.01, total=50, seed=7)
        assert arrivals(wl) == arrivals(PoissonWorkload(rate=0.01, total=50, seed=7))
        assert arrivals(wl) != arrivals(PoissonWorkload(rate=0.01, total=50, seed=8))

    def test_monotone_and_counted(self):
        times = arrivals(PoissonWorkload(rate=0.05, total=200, seed=1))
        assert len(times) == 200
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_mean_gap_tracks_rate(self):
        times = np.array(arrivals(PoissonWorkload(rate=0.02, total=4000, seed=3)))
        mean_gap = float(np.diff(times, prepend=0.0).mean())
        assert mean_gap == pytest.approx(50.0, rel=0.1)

    def test_rows_choices_drawn_from_set(self):
        wl = PoissonWorkload(rate=0.01, total=100, rows=(4, 8, 16), seed=2)
        rows = {r.rows for r in wl.requests()}
        assert rows <= {4, 8, 16} and len(rows) > 1

    def test_default_rows_come_from_kind(self):
        req = next(iter(PoissonWorkload(rate=0.01, total=1, kind="dft", seed=0).requests()))
        assert req.rows == get_request_type("dft").default_rows

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PoissonWorkload(rate=0.0, total=10)
        with pytest.raises(ValueError):
            PoissonWorkload(rate=1.0, total=-1)


class TestBursty:
    def test_seeded_determinism_and_order(self):
        wl = BurstyWorkload(0.05, 0.005, 300, dwell=500.0, seed=11)
        times = arrivals(wl)
        assert times == arrivals(BurstyWorkload(0.05, 0.005, 300, dwell=500.0, seed=11))
        assert len(times) == 300
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_burstier_than_poisson(self):
        """Gap dispersion of an MMPP exceeds the exponential's CV of 1."""
        times = np.array(arrivals(BurstyWorkload(0.1, 0.001, 2000, dwell=2000.0, seed=5)))
        gaps = np.diff(times, prepend=0.0)
        cv = float(gaps.std() / gaps.mean())
        assert cv > 1.3

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BurstyWorkload(0.0, 0.1, 10, dwell=10.0)
        with pytest.raises(ValueError):
            BurstyWorkload(0.1, 0.1, 10, dwell=0.0)


class TestClosedLoop:
    def test_initial_population(self):
        wl = ClosedLoopWorkload(clients=4, total=20, think=10.0, seed=1)
        initial = list(wl.requests())
        assert len(initial) == 4
        assert all(r.arrival == 0.0 for r in initial)

    def test_on_complete_issues_until_total(self):
        wl = ClosedLoopWorkload(clients=2, total=5, think=3.0, seed=1)
        initial = list(wl.requests())
        issued = list(initial)
        now = 10.0
        while True:
            new = wl.on_complete(issued[0], now)
            if not new:
                break
            assert new[0].arrival == now + 3.0
            issued.extend(new)
            now += 1.0
        assert len(issued) == 5
        assert sorted(r.rid for r in issued) == list(range(5))

    def test_requests_rearms_the_counter(self):
        wl = ClosedLoopWorkload(clients=1, total=2, think=0.0, seed=1)
        first = list(wl.requests())
        assert len(wl.on_complete(first[0], 1.0)) == 1
        assert wl.on_complete(first[0], 2.0) == []
        again = list(wl.requests())  # re-armed
        assert len(again) == 1
        assert len(wl.on_complete(again[0], 1.0)) == 1


class TestTraceWorkload:
    def test_replays_array_timestamps(self):
        times = [0.0, 5.0, 5.0, 12.0, 40.0]
        wl = TraceWorkload(times, kind="matmul", rows=8)
        reqs = list(wl.requests())
        assert [r.arrival for r in reqs] == times
        assert [r.rid for r in reqs] == list(range(5))
        assert all(r.rows == 8 for r in reqs)

    def test_scale_and_start_transform_stamps(self):
        wl = TraceWorkload([1.0, 2.0], start=100.0, scale=10.0)
        assert arrivals(wl) == [110.0, 120.0]

    def test_loads_npy_and_text_files(self, tmp_path):
        times = np.array([0.5, 1.5, 9.0])
        npy = tmp_path / "trace.npy"
        np.save(npy, times)
        txt = tmp_path / "trace.txt"
        txt.write_text("\n".join(str(t) for t in times))
        assert arrivals(TraceWorkload(npy)) == times.tolist()
        assert arrivals(TraceWorkload(str(txt))) == times.tolist()

    def test_rejects_unsorted_and_bad_scale(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            TraceWorkload([3.0, 1.0])
        with pytest.raises(ValueError, match="scale"):
            TraceWorkload([1.0], scale=0.0)

    def test_rows_are_seeded_deterministic(self):
        a = TraceWorkload([0.0] * 50, rows=(4, 8, 16), seed=3)
        b = TraceWorkload([0.0] * 50, rows=(4, 8, 16), seed=3)
        assert [r.rows for r in a.requests()] == [r.rows for r in b.requests()]

    def test_serves_end_to_end(self):
        from repro.serve import ServingEngine

        machine = TCUMachine(m=16, ell=8.0)
        wl = TraceWorkload(np.linspace(0.0, 1e4, 20), kind="matmul", rows=8)
        result = ServingEngine(machine, "continuous").serve(wl)
        result.check_conservation()
        assert result.completed == 20


class TestDiurnalWorkload:
    def test_mean_rate_tracks_parameter(self):
        wl = DiurnalWorkload(rate=0.02, total=6000, period=5e4, amplitude=0.8, seed=1)
        times = np.array(arrivals(wl))
        mean_gap = float(np.diff(times, prepend=0.0).mean())
        assert mean_gap == pytest.approx(50.0, rel=0.15)

    def test_peak_window_denser_than_trough(self):
        period = 4e4
        wl = DiurnalWorkload(rate=0.05, total=8000, period=period, amplitude=1.0, seed=2)
        times = np.array(arrivals(wl))
        phase = (times % period) / period
        peak = int(((phase > 0.05) & (phase < 0.45)).sum())   # sin > 0
        trough = int(((phase > 0.55) & (phase < 0.95)).sum())  # sin < 0
        assert peak > 3 * trough

    def test_monotone_and_deterministic(self):
        wl = DiurnalWorkload(rate=0.01, total=500, period=1e4, seed=5)
        times = arrivals(wl)
        assert times == arrivals(DiurnalWorkload(rate=0.01, total=500, period=1e4, seed=5))
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DiurnalWorkload(rate=0.0, total=10, period=1.0)
        with pytest.raises(ValueError):
            DiurnalWorkload(rate=1.0, total=10, period=0.0)
        with pytest.raises(ValueError):
            DiurnalWorkload(rate=1.0, total=10, period=1.0, amplitude=1.5)


class TestMixedWorkload:
    def test_merges_in_time_order_with_fresh_rids(self):
        a = PoissonWorkload(rate=0.01, total=30, kind="matmul", seed=1, priority=2)
        b = PoissonWorkload(rate=0.02, total=40, kind="dft", seed=2, priority=0)
        merged = list(MixedWorkload(a, b).requests())
        assert len(merged) == 70
        assert [r.rid for r in merged] == list(range(70))
        times = [r.arrival for r in merged]
        assert times == sorted(times)
        assert {r.priority for r in merged} == {0, 2}
        assert {r.kind for r in merged} == {"matmul", "dft"}

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            MixedWorkload()

    def test_accepts_an_iterable(self):
        parts = [PoissonWorkload(rate=0.01, total=5, seed=s) for s in (1, 2)]
        assert len(list(MixedWorkload(parts).requests())) == 10


class TestPriorityAndDeadlineStamping:
    def test_poisson_stamps_class_and_absolute_deadline(self):
        wl = PoissonWorkload(rate=0.01, total=20, priority=3, deadline=100.0, seed=1)
        for req in wl.requests():
            assert req.priority == 3
            assert req.deadline == pytest.approx(req.arrival + 100.0)

    def test_deadline_defaults_to_none(self):
        req = next(iter(PoissonWorkload(rate=0.01, total=1, seed=0).requests()))
        assert req.priority == 0 and req.deadline is None


class TestPlanLowering:
    """RequestType.plan is the serve() one-shot, decomposed."""

    def test_plan_charges_equal_serve(self):
        rows = [8, 4, 12]
        for kind in ("matmul", "mlp", "dft", "stencil"):
            one_shot = TCUMachine(m=16, ell=8.0)
            stepped = TCUMachine(m=16, ell=8.0)
            get_request_type(kind).serve(one_shot, rows)
            plan = get_request_type(kind).plan(stepped, rows)
            assert plan is not None
            from repro.core.program import ExecutionCursor

            cursor = ExecutionCursor(plan, stepped)
            cursor.run()
            assert stepped.ledger.snapshot() == one_shot.ledger.snapshot(), kind

    def test_plans_have_checkpoint_boundaries(self):
        machine = TCUMachine(m=16, ell=8.0)
        for kind, rows, floor in (("mlp", [16], 4), ("dft", [8], 6)):
            plan = get_request_type(kind).plan(machine, rows)
            assert len(plan.levels) >= floor, kind

    def test_stencil_plan_matches_stencil_tcu_charges(self):
        # the stencil kind lowers through the program IR; running
        # stencil_tcu once per grid is the charge-parity oracle
        from repro.core.program import ExecutionCursor
        from repro.serve.workload import StencilRequestType
        from repro.transform.stencil import heat_equation_weights, stencil_tcu

        rtype = StencilRequestType(name="stencil-parity-test")
        for rows in ([8], [8, 12, 8]):
            planned_m = TCUMachine(m=16, ell=8.0)
            direct_m = TCUMachine(m=16, ell=8.0)
            plan = rtype.plan(planned_m, rows)
            assert len(plan.levels) >= 4
            ExecutionCursor(plan, planned_m).run()
            for side in rows:
                grid = np.zeros((side, side))
                stencil_tcu(direct_m, grid, heat_equation_weights(), rtype.steps)
            assert planned_m.ledger.snapshot() == direct_m.ledger.snapshot(), rows
            assert (
                planned_m.ledger.call_shape_totals()
                == direct_m.ledger.call_shape_totals()
            ), rows

    def test_zero_side_stencil_is_an_empty_request(self):
        """A zero-side grid is empty, as zero rows are for the other
        kinds: alone it plans no level and charges nothing, and beside
        a real grid it adds nothing."""
        machine = TCUMachine(m=16, ell=8.0, execute="cost-only")
        rtype = get_request_type("stencil")
        empty = rtype.plan(machine, [0])
        assert empty.levels == [] and machine.ledger.total_time == 0.0
        plans, snapshots = [], []
        for rows in ([0, 4], [4]):
            machine = TCUMachine(m=16, ell=8.0, execute="cost-only")
            plan = rtype.plan(machine, rows)
            execute_plan(plan, machine)
            plans.append(plan)
            snapshots.append(machine.ledger.snapshot())
        padded, alone = plans
        assert snapshots[0] == snapshots[1]
        assert len(padded.levels) == len(alone.levels) > 0
        assert padded.splits == alone.splits
        assert padded.stats == alone.stats

    @pytest.mark.parametrize("kind", ["matmul", "mlp", "dft", "stencil"])
    @pytest.mark.parametrize(("rows", "shown"), [([5, -3], "-3"), ([2.5], "2.5"), ([4, 1.5], "1.5")])
    def test_plan_rejects_a_row_count_it_would_truncate(self, kind, rows, shown):
        """A negative count once summed into a smaller batch, a
        fractional one was truncated; both now name the value."""
        machine = TCUMachine(m=16, ell=8.0, execute="cost-only")
        with pytest.raises(ValueError, match=rf"^rows must be an integer >= 0, got {shown}$"):
            get_request_type(kind).plan(machine, rows)
        assert machine.ledger.total_time == 0.0

    def test_plan_accepts_integral_row_counts_of_any_type(self):
        """numpy ints and integral floats plan exactly what ints do."""
        snapshots = []
        for rows in ([4, 8], [np.int64(4), np.int32(8)], [4.0, 8.0]):
            machine = TCUMachine(m=16, ell=8.0, execute="cost-only")
            execute_plan(get_request_type("mlp").plan(machine, rows), machine)
            snapshots.append(machine.ledger.snapshot())
        assert snapshots[0] == snapshots[1] == snapshots[2]

    def test_type_without_plan_fails_loudly(self):
        class Hollow(RequestType):
            name = "hollow"

        machine = TCUMachine(m=16, ell=8.0)
        message = r"'hollow' \(Hollow\) does not implement plan"
        with pytest.raises(NotImplementedError, match=message):
            Hollow().serve(machine, [4])
        with pytest.raises(NotImplementedError, match="Hollow"):
            Hollow().plan(machine, [4])


_NAN, _INF = math.nan, math.inf

# valid constructor arguments per workload; each bad case overrides one
_VALID = {
    PoissonWorkload: {"rate": 1.0, "total": 3},
    BurstyWorkload: {"rate_high": 0.1, "rate_low": 0.01, "total": 3, "dwell": 10.0},
    ClosedLoopWorkload: {"clients": 1, "total": 3},
    TraceWorkload: {"times": [0.0, 1.0, 5.0]},
    DiurnalWorkload: {"rate": 1.0, "total": 3, "period": 10.0},
}

# (workload, parameter, bad value, the value the message shows)
_BAD_PARAMETERS = [
    (PoissonWorkload, "rate", _NAN, "nan"),
    (PoissonWorkload, "rate", _INF, "inf"),
    (PoissonWorkload, "start", _NAN, "nan"),
    (PoissonWorkload, "start", -_INF, "-inf"),
    (PoissonWorkload, "deadline", _NAN, "nan"),
    (PoissonWorkload, "slo", _NAN, "nan"),
    (PoissonWorkload, "rows", -4, "-4"),
    (PoissonWorkload, "rows", (4, -1), "-1"),
    (PoissonWorkload, "rows", 2.5, "2.5"),
    (PoissonWorkload, "rows", (4, 0.5), "0.5"),
    (BurstyWorkload, "rate_high", _NAN, "nan"),
    (BurstyWorkload, "rate_low", _INF, "inf"),
    (BurstyWorkload, "dwell", _NAN, "nan"),
    (BurstyWorkload, "dwell", _INF, "inf"),
    (BurstyWorkload, "start", _NAN, "nan"),
    (BurstyWorkload, "rows", -1, "-1"),
    (ClosedLoopWorkload, "think", _NAN, "nan"),
    (ClosedLoopWorkload, "think", _INF, "inf"),
    (ClosedLoopWorkload, "start", _INF, "inf"),
    (ClosedLoopWorkload, "deadline", _NAN, "nan"),
    (ClosedLoopWorkload, "rows", -2, "-2"),
    (ClosedLoopWorkload, "rows", 3.25, "3.25"),
    (TraceWorkload, "times", [0.0, _NAN, 5.0], "nan"),
    (TraceWorkload, "times", [0.0, 1.0, _INF], "inf"),
    (TraceWorkload, "scale", _NAN, "nan"),
    (TraceWorkload, "scale", _INF, "inf"),
    (TraceWorkload, "start", _NAN, "nan"),
    (TraceWorkload, "slo", _NAN, "nan"),
    (TraceWorkload, "rows", (2, -8), "-8"),
    (TraceWorkload, "rows", (2, 7.5), "7.5"),
    (DiurnalWorkload, "rate", _NAN, "nan"),
    (DiurnalWorkload, "rate", _INF, "inf"),
    (DiurnalWorkload, "period", _NAN, "nan"),
    (DiurnalWorkload, "period", _INF, "inf"),
    (DiurnalWorkload, "phase", _NAN, "nan"),
    (DiurnalWorkload, "start", _INF, "inf"),
    (DiurnalWorkload, "deadline", _NAN, "nan"),
]


@pytest.mark.parametrize(
    ("cls", "param", "value", "shown"),
    _BAD_PARAMETERS,
    ids=[f"{c.__name__}-{p}-{s}" for c, p, _, s in _BAD_PARAMETERS],
)
def test_constructor_rejects_unservable_parameter(cls, param, value, shown):
    kwargs = dict(_VALID[cls], **{param: value})
    with pytest.raises(ValueError, match=rf"^{param} must be .*, got {shown}$"):
        cls(**kwargs)


# ----------------------------------------------------------------------
# generator parity: the chunk builders against per-request generators
# ----------------------------------------------------------------------
def _per_request_poisson(wl):
    """PoissonWorkload.requests as it was before the chunk builder: one
    generator step and one keyword Request(...) call per request."""
    chunk = workload_module._CHUNK
    rng = np.random.default_rng(wl.seed)
    t = wl.start
    rid = 0
    while rid < wl.total:
        n = min(chunk, wl.total - rid)
        gaps = rng.exponential(1.0 / wl.rate, size=n)
        gaps[0] += t
        arrivals = np.cumsum(gaps).tolist()
        rows = workload_module._rows_column(rng, wl.rows, wl.kind, n).tolist()
        for i in range(n):
            t = arrivals[i]
            yield Request(
                rid=rid,
                kind=wl.kind,
                arrival=t,
                rows=rows[i],
                slo=wl.slo,
                priority=wl.priority,
                deadline=None if wl.deadline is None else t + wl.deadline,
            )
            rid += 1


def _per_request_trace(wl):
    """TraceWorkload.requests as it was before the chunk builder."""
    chunk = workload_module._CHUNK
    rng = np.random.default_rng(wl.seed)
    rows = np.empty(0, dtype=np.int64)
    for rid in range(wl.total):
        i = rid % chunk
        if i == 0:
            rows = workload_module._rows_column(rng, wl.rows, wl.kind, min(chunk, wl.total - rid))
        t = float(wl.times[rid])
        yield Request(
            rid=rid,
            kind=wl.kind,
            arrival=t,
            rows=int(rows[i]),
            slo=wl.slo,
            priority=wl.priority,
            deadline=None if wl.deadline is None else t + wl.deadline,
        )


def _per_request_bursty(wl):
    """BurstyWorkload.requests as a per-request generator: the MMPP loop,
    each chunk's row counts drawn when its first request is."""
    chunk = workload_module._CHUNK
    rng = np.random.default_rng(wl.seed)
    t = wl.start
    state = 0
    switch = t + rng.exponential(wl.dwell)
    rows = np.empty(0, dtype=np.int64)
    for rid in range(wl.total):
        i = rid % chunk
        if i == 0:
            rows = workload_module._rows_column(rng, wl.rows, wl.kind, min(chunk, wl.total - rid))
        while True:
            gap = rng.exponential(1.0 / wl.rates[state])
            if t + gap <= switch:
                t += gap
                break
            t = switch
            state ^= 1
            switch = t + rng.exponential(wl.dwell)
        yield Request(
            rid=rid,
            kind=wl.kind,
            arrival=t,
            rows=int(rows[i]),
            slo=wl.slo,
            priority=wl.priority,
            deadline=None if wl.deadline is None else t + wl.deadline,
        )


def _per_request_diurnal(wl):
    """DiurnalWorkload.requests as a per-request generator: thinning,
    each chunk's row counts drawn when its first request is."""
    chunk = workload_module._CHUNK
    rng = np.random.default_rng(wl.seed)
    rate_max = wl.rate * (1.0 + wl.amplitude)
    t = wl.start
    rows = np.empty(0, dtype=np.int64)
    for rid in range(wl.total):
        i = rid % chunk
        if i == 0:
            rows = workload_module._rows_column(rng, wl.rows, wl.kind, min(chunk, wl.total - rid))
        while True:
            t += rng.exponential(1.0 / rate_max)
            if rng.random() * rate_max <= wl.rate_at(t):
                break
        yield Request(
            rid=rid,
            kind=wl.kind,
            arrival=t,
            rows=int(rows[i]),
            slo=wl.slo,
            priority=wl.priority,
            deadline=None if wl.deadline is None else t + wl.deadline,
        )


def _closed_loop_population(wl):
    """ClosedLoopWorkload's initial population, one request per client
    at ``start``, and the generator its follow-ups then draw from."""
    rng = np.random.default_rng(wl.seed)
    first = min(wl.clients, wl.total)
    rows = workload_module._rows_column(rng, wl.rows, wl.kind, first)
    population = [
        Request(
            rid=rid,
            kind=wl.kind,
            arrival=wl.start,
            rows=int(rows[rid]),
            slo=wl.slo,
            priority=wl.priority,
            deadline=None if wl.deadline is None else wl.start + wl.deadline,
        )
        for rid in range(first)
    ]
    return population, rng


def _merged(wl):
    """MixedWorkload.requests as a ``heapq.merge`` of its constituents'
    oracles by arrival (ties: the earlier constituent first), renumbered."""
    merged = heapq.merge(*map(_oracle, wl.workloads), key=lambda req: req.arrival)
    for rid, req in enumerate(merged):
        yield replace(req, rid=rid)


def _oracle(wl):
    if isinstance(wl, PoissonWorkload):
        return _per_request_poisson(wl)
    if isinstance(wl, TraceWorkload):
        return _per_request_trace(wl)
    if isinstance(wl, BurstyWorkload):
        return _per_request_bursty(wl)
    if isinstance(wl, DiurnalWorkload):
        return _per_request_diurnal(wl)
    if isinstance(wl, ClosedLoopWorkload):
        return iter(_closed_loop_population(wl)[0])
    assert isinstance(wl, MixedWorkload)
    return _merged(wl)


_STAMPS = [
    {},
    {"rows": 8},
    {"rows": (4, 8, 16), "deadline": 2.5e3},
    {"kind": "dft", "slo": 4e3, "priority": 2, "deadline": 1e3},
    {"rows": (1, 2), "start": 123.25},
]


def _poisson(total, **stamps):
    return PoissonWorkload(rate=1 / 300, total=total, seed=5, **stamps)


def _trace(total, **stamps):
    times = np.cumsum(np.random.default_rng(9).exponential(50.0, total).round(-1))
    return TraceWorkload(times, seed=5, **stamps)  # .round(-1): some gaps are 0


def _bursty(total, **stamps):
    return BurstyWorkload(1 / 50, 1 / 900, total, dwell=400.0, seed=5, **stamps)


def _diurnal(total, **stamps):
    return DiurnalWorkload(rate=1 / 200, total=total, period=3e3, amplitude=0.9, seed=5, **stamps)


def _closed(total, **stamps):
    return ClosedLoopWorkload(clients=total - 5, total=total, think=40.0, seed=5, **stamps)


def _mixed(total, **stamps):
    # equal stamps straddle the 16-row chunk boundaries of both traces
    # (rows 14-17 of the first, 13-18 of the second) and meet each
    # other and the Poisson stream's rows
    ticks = np.repeat(np.arange(0.0, total * 10.0, 50.0), 4)[:total]
    return MixedWorkload(
        TraceWorkload(ticks, seed=5, **stamps),
        PoissonWorkload(rate=1 / 40, total=total, kind="dft", priority=1, seed=6),
        TraceWorkload(ticks[1:] + 50.0, kind="mlp", rows=(2, 4), priority=2, seed=7),
    )


_ORACLES = [
    (_poisson, _per_request_poisson),
    (_trace, _per_request_trace),
    (_bursty, _per_request_bursty),
    (_diurnal, _per_request_diurnal),
    (_closed, _oracle),
    (_mixed, _merged),
]
_ORACLE_IDS = ["poisson", "trace", "bursty", "diurnal", "closed-loop", "mixed"]


def _from_chunks(wl):
    return [req for chunk in wl.chunks() for req in chunk.records()]


class TestChunkedGenerators:
    """Every stock workload's chunks() and requests() equal its
    per-request generator request for request, across chunk boundaries
    and after a reseed."""

    @pytest.mark.parametrize("stamps", _STAMPS, ids=lambda s: ",".join(s) or "defaults")
    @pytest.mark.parametrize("make, oracle", _ORACLES, ids=_ORACLE_IDS)
    def test_small_chunks(self, monkeypatch, make, oracle, stamps):
        monkeypatch.setattr(workload_module, "_CHUNK", 16)
        wl = make(2 * 16 + 3, **stamps)
        expected = list(oracle(wl))
        assert _from_chunks(wl) == expected
        assert list(wl.requests()) == expected
        wl.reseed(77)
        expected = list(oracle(wl))
        assert _from_chunks(wl) == expected
        assert list(wl.requests()) == expected

    @pytest.mark.parametrize("make, oracle", _ORACLES[:2], ids=_ORACLE_IDS[:2])
    def test_full_chunks(self, make, oracle):
        wl = make(2 * workload_module._CHUNK + 3, rows=(4, 8), deadline=900.0, start=7.5)
        expected = list(oracle(wl))
        assert len(expected) == wl.total
        assert list(wl.requests()) == expected
        assert _from_chunks(wl) == expected

    def test_mixed_keeps_constituent_order_on_shared_stamps(self, monkeypatch):
        monkeypatch.setattr(workload_module, "_CHUNK", 16)
        ticks = np.repeat([0.0, 10.0, 20.0, 30.0, 40.0], 8)  # 8 rows a stamp
        first = TraceWorkload(ticks, kind="matmul", seed=1)
        second = TraceWorkload(ticks[:20], kind="dft", seed=2)
        got = list(MixedWorkload(first, second).requests())
        expected = list(_merged(MixedWorkload(first, second)))
        assert got == expected
        # at each stamp, every row of the first constituent comes first
        kinds = [(r.arrival, r.kind) for r in got]
        assert kinds == sorted(kinds, key=lambda k: (k[0], k[1] != "matmul"))

    def test_closed_loop_follow_ups_continue_the_oracle_stream(self, monkeypatch):
        monkeypatch.setattr(workload_module, "_CHUNK", 16)
        wl = _closed(40, rows=(1, 2, 3))
        population, rng = _closed_loop_population(wl)
        assert _from_chunks(wl) == population
        follow = wl.on_complete(population[0], 5.0)
        rows = workload_module._rows_column(rng, wl.rows, wl.kind, 1)
        assert follow == [Request(rid=35, kind="matmul", arrival=45.0, rows=int(rows[0]))]

    def test_first_request_builds_one_chunk(self, monkeypatch):
        drawn = []
        rows_column = workload_module._rows_column

        def counting(rng, rows, kind, total):
            drawn.append(total)
            return rows_column(rng, rows, kind, total)

        monkeypatch.setattr(workload_module, "_rows_column", counting)
        stream = PoissonWorkload(rate=1.0, total=10**9, rows=4).requests()
        assert drawn == []
        assert next(stream).rid == 0
        assert drawn == [workload_module._CHUNK]
