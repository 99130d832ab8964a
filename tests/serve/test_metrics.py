"""ServeMetrics computation and the latency_table renderer."""

from dataclasses import replace

import numpy as np
import pytest

from repro import ParallelTCUMachine, PoissonWorkload, TCUMachine, compute_metrics
from repro.analysis.report import latency_table
from repro.serve import ServingEngine, SizeBatcher
from repro.serve.engine import BatchRecord, ServeResult
from repro.serve.workload import Request


def synthetic_result():
    """Two hand-built batches with known arithmetic."""
    machine = TCUMachine(m=16, ell=0.0)
    requests = [
        Request(rid=0, kind="matmul", arrival=0.0, rows=8, slo=30.0,
                launch=10.0, completion=20.0, batch=0),
        Request(rid=1, kind="matmul", arrival=5.0, rows=8, slo=30.0,
                launch=10.0, completion=20.0, batch=0),
        Request(rid=2, kind="matmul", arrival=12.0, rows=8, slo=30.0,
                launch=20.0, completion=100.0, batch=1),
    ]
    batches = [
        BatchRecord(index=0, kind="matmul", rids=(0, 1), rows=(8, 8),
                    launch=10.0, service=10.0),
        BatchRecord(index=1, kind="matmul", rids=(2,), rows=(8,),
                    launch=20.0, service=80.0),
    ]
    return ServeResult(
        requests=requests,
        batches=batches,
        clock=100.0,
        busy_time=90.0,
        ledger_time=90.0,
        policy="test",
        machine=machine,
    )


class TestComputeMetrics:
    def test_known_arithmetic(self):
        m = compute_metrics(synthetic_result())
        assert m.requests == 3 and m.batches == 2
        assert m.clock == 100.0
        assert m.throughput == pytest.approx(0.03)
        # latencies: 20, 15, 88
        assert m.latency_mean == pytest.approx((20 + 15 + 88) / 3)
        assert m.latency_max == 88.0
        assert m.latency_p50 == pytest.approx(np.percentile([20, 15, 88], 50))
        assert m.wait_mean == pytest.approx((10 + 5 + 8) / 3)
        assert m.batch_size_mean == pytest.approx(1.5)
        assert m.utilization == pytest.approx(0.9)

    def test_slo_attainment_and_goodput(self):
        m = compute_metrics(synthetic_result())
        # per-request slo=30: requests 0 and 1 meet it, request 2 misses
        assert m.slo_attainment == pytest.approx(2 / 3)
        assert m.goodput == pytest.approx(2 / 100.0)
        # the uniform per-request objective is surfaced as metrics.slo
        assert m.slo == 30.0

    def test_mixed_per_request_slos_leave_slo_none(self):
        result = synthetic_result()
        first = replace(result.requests[0], slo=40.0)
        result = replace(result, requests=[first, *result.requests[1:]])
        m = compute_metrics(result)
        assert m.slo is None
        assert m.slo_attainment is not None

    def test_fallback_slo_applies_to_unmarked_requests(self):
        result = synthetic_result()
        result = replace(result, requests=[replace(r, slo=None) for r in result.requests])
        assert compute_metrics(result).slo_attainment is None
        m = compute_metrics(result, slo=16.0)
        assert m.slo_attainment == pytest.approx(1 / 3)

    def test_empty_result(self):
        machine = TCUMachine(m=16, ell=0.0)
        empty = ServeResult(
            requests=[], batches=[], clock=0.0, busy_time=0.0,
            ledger_time=0.0, policy="test", machine=machine,
        )
        m = compute_metrics(empty)
        assert m.requests == 0 and m.throughput == 0.0
        assert m.slo_attainment is None and m.unit_busy_share is None

    def test_unit_busy_share_from_trace(self):
        machine = ParallelTCUMachine(m=16, ell=16.0, units=3)
        workload = PoissonWorkload(rate=2e-3, total=60, kind="mlp", rows=8, seed=2)
        result = ServingEngine(machine, SizeBatcher(size=8)).serve(workload)
        m = compute_metrics(result)
        assert m.unit_busy_share is not None
        assert set(m.unit_busy_share) <= {-1, 0, 1, 2}
        # busy shares are fractions of the engine clock
        assert all(0.0 <= share <= 1.0 for share in m.unit_busy_share.values())
        # some batched work actually landed on a unit
        assert any(unit >= 0 for unit in m.unit_busy_share)

    def test_unit_busy_share_absent_for_serial_machines(self):
        machine = TCUMachine(m=16, ell=16.0)
        workload = PoissonWorkload(rate=2e-3, total=20, kind="matmul", rows=8, seed=3)
        result = ServingEngine(machine, "continuous").serve(workload)
        assert compute_metrics(result).unit_busy_share is None

    def test_kind_time_reads_ledger_sections(self):
        machine = TCUMachine(m=16, ell=16.0)
        workload = PoissonWorkload(rate=2e-3, total=20, kind="matmul", rows=8, seed=4)
        result = ServingEngine(machine, "continuous").serve(workload)
        m = compute_metrics(result)
        assert m.kind_time["matmul"] == pytest.approx(result.ledger_time)

    def test_machine_reuse_does_not_double_count(self):
        """Sections and traces are cumulative on the ledger; metrics for
        each run must report only that run's share."""
        machine = ParallelTCUMachine(m=16, ell=16.0, units=2)
        engine = ServingEngine(machine, SizeBatcher(size=4))

        def one_run(seed):
            workload = PoissonWorkload(rate=2e-3, total=20, kind="mlp", rows=8, seed=seed)
            return engine.serve(workload)

        first = one_run(5)
        m1_before = compute_metrics(first)
        second = one_run(6)
        m1_after = compute_metrics(first)
        m2 = compute_metrics(second)
        assert m2.kind_time["mlp"] == pytest.approx(second.ledger_time)
        assert m1_after.kind_time["mlp"] == pytest.approx(first.ledger_time)
        # the first run's trace window is closed: metrics computed after
        # a later run are identical to metrics computed right away
        assert first.trace_end <= second.trace_start
        assert m1_after.unit_busy_share == m1_before.unit_busy_share
        assert m1_after.kind_time == m1_before.kind_time


class TestLatencyTable:
    def test_renders_all_columns(self):
        m = compute_metrics(synthetic_result())
        table = latency_table([("baseline", m)], title="sweep")
        assert "sweep" in table
        for header in ("scenario", "throughput", "p50", "p95", "p99", "goodput", "util"):
            assert header in table
        assert "baseline" in table

    def test_accepts_dict_and_missing_goodput(self):
        result = synthetic_result()
        result = replace(result, requests=[replace(r, slo=None) for r in result.requests])
        m = compute_metrics(result)
        table = latency_table({"no-slo": m})
        assert "n/a" in table


class TestClassAndShedMetrics:
    def _two_class_result(self):
        from repro.serve import MixedWorkload, QueueCapAdmission

        machine = TCUMachine(m=16, ell=32.0)
        hot = PoissonWorkload(
            rate=5e-3, total=40, kind="matmul", rows=8, seed=1, priority=2, slo=5e5
        )
        bulk = PoissonWorkload(rate=5e-3, total=40, kind="matmul", rows=8, seed=2)
        engine = ServingEngine(
            machine, "size", admission=QueueCapAdmission(cap=4), preempt=True
        )
        return engine.serve(MixedWorkload(hot, bulk))

    def test_per_class_breakdown_sums_to_run(self):
        result = self._two_class_result()
        m = compute_metrics(result)
        assert set(m.per_class) == {0, 2}
        assert sum(c.requests for c in m.per_class.values()) == m.requests
        assert sum(c.shed for c in m.per_class.values()) == m.shed
        assert m.shed == len(result.shed)
        assert m.shed_rate == pytest.approx(result.shed_rate)
        # only the hot class carried SLOs
        assert m.per_class[2].slo_attainment is not None
        assert m.per_class[0].slo_attainment is None

    def test_preemption_and_reload_counters_surface(self):
        result = self._two_class_result()
        m = compute_metrics(result)
        assert m.preemptions == result.preemptions
        assert m.reload_time == pytest.approx(result.reload_time)

    def test_latency_table_renders_class_rows_and_new_columns(self):
        from repro.analysis.report import latency_table

        m = compute_metrics(self._two_class_result())
        table = latency_table([("mixed", m)])
        for header in ("shed", "preempt"):
            assert header in table
        assert "mixed[p2]" in table and "mixed[p0]" in table
        flat = latency_table([("mixed", m)], per_class=False)
        assert "mixed[p2]" not in flat

    def test_all_shed_run_still_reports_per_class(self):
        """Total overload — every request shed — must still break the
        sheds down by class (the case admission studies measure)."""
        from repro.serve import DeadlineAdmission

        machine = TCUMachine(m=16, ell=8.0)
        engine = ServingEngine(
            machine, "continuous", admission=DeadlineAdmission(est_service=1e18)
        )
        result = engine.serve(
            PoissonWorkload(
                rate=1e-3, total=10, kind="matmul", rows=8,
                deadline=1.0, priority=3, seed=1,
            )
        )
        assert result.completed == 0 and len(result.shed) == 10
        m = compute_metrics(result)
        assert m.per_class[3].shed == 10
        assert m.per_class[3].shed_rate == 1.0
        assert m.per_class[3].requests == 0
