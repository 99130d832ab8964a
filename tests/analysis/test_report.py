"""Report compiler tests."""

import re

import numpy as np
import pytest

from repro.analysis.report import (
    compile_report,
    latency_table,
    main,
    trace_table,
    utilization_table,
)
from repro import TensorProgram, matmul_lazy, run_program
from repro.core.machine import TCUMachine
from repro.core.parallel import ParallelTCUMachine
from repro.core.scheduling import schedule_batch
from repro.obs import Tracer
from repro.serve import (
    DeadlineAdmission,
    PoissonWorkload,
    ServingEngine,
    compute_metrics,
)


@pytest.fixture
def results_dir(tmp_path):
    d = tmp_path / "results"
    d.mkdir()
    (d / "e2_thm2_size_sweep.txt").write_text("table two\n")
    (d / "e9_thm7_length_sweep.txt").write_text("table nine\n")
    (d / "zz_custom.txt").write_text("custom table\n")
    return d


class TestCompile:
    def test_contains_all_tables(self, results_dir):
        report = compile_report(results_dir)
        assert "table two" in report
        assert "table nine" in report
        assert "custom table" in report

    def test_section_titles(self, results_dir):
        report = compile_report(results_dir)
        assert "Theorem 2" in report
        assert "Theorem 7 — DFT" in report

    def test_ordering_follows_experiments(self, results_dir):
        report = compile_report(results_dir)
        assert report.index("table two") < report.index("table nine")

    def test_uncategorised_collected(self, results_dir):
        report = compile_report(results_dir)
        assert "(uncategorised)" in report

    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            compile_report(tmp_path / "nope")

    def test_empty_dir_raises(self, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        with pytest.raises(FileNotFoundError, match="benchmark"):
            compile_report(d)


class TestUtilizationTable:
    def test_renders_per_unit_rows_and_summary(self):
        sched = schedule_batch(np.array([8.0, 4.0, 4.0]), 2, "lpt")
        text = utilization_table(sched)
        assert "policy=lpt, p=2" in text
        assert "unit" in text and "busy share" in text
        assert "makespan 8" in text
        assert "utilisation 1" in text
        assert "gap bound 1.167" in text

    def test_machine_last_schedule_feeds_report(self):
        rng = np.random.default_rng(5)
        machine = ParallelTCUMachine(m=16, ell=2.0, units=3)
        machine.mm_batch([(rng.random((8, 4)), rng.random((4, 4))) for _ in range(5)])
        text = utilization_table(machine.last_schedule, title="batch report")
        assert text.startswith("batch report")
        # 5 calls spread over the 3 units appear in the calls column
        lines = [ln.split() for ln in text.splitlines() if ln.strip()[:1].isdigit()]
        assert sum(int(ln[1].replace(",", "")) for ln in lines) == 5

    def test_none_schedule_renders_stub(self):
        machine = ParallelTCUMachine(m=16, units=2)
        machine.mm_batch([])
        text = utilization_table(machine.last_schedule)
        assert "no batch scheduled" in text

    def test_plan_appends_split_decisions(self):
        rng = np.random.default_rng(9)
        machine = ParallelTCUMachine(m=16, ell=32.0, units=3)
        prog = TensorProgram()
        matmul_lazy(machine, prog, rng.random((48, 4)), rng.random((4, 4)))
        plan = run_program(prog, machine)
        assert plan.splits[0][0] > 1
        text = utilization_table(machine.last_schedule, plan=plan)
        assert "per-level split decisions" in text
        assert "split" in text and "modelled_makespan" in text
        # the chosen factor and its priced makespan appear in the body
        assert str(plan.splits[0][0]) in text
        assert f"{plan.modelled_makespans[0]:g}" in text


def _served_metrics(total, *, admission="unbounded", slo=None, deadline=None):
    machine = TCUMachine(m=16, ell=512.0)
    workload = PoissonWorkload(
        rate=2e-4, total=total, kind="matmul", rows=8, seed=1,
        slo=slo, deadline=deadline,
    )
    result = ServingEngine(machine, "timeout", admission=admission).serve(workload)
    return compute_metrics(result, slo=slo)


class TestLatencyTableDegenerate:
    def test_zero_requests_renders_without_crashing(self):
        m = _served_metrics(0)
        text = latency_table([("empty", m)])
        assert "empty" in text
        assert m.requests == 0

    def test_all_shed_run(self):
        # an absurd service estimate makes every deadline infeasible
        m = _served_metrics(
            20, admission=DeadlineAdmission(est_service=1e18), deadline=1.0
        )
        assert m.requests == 0 and m.shed == 20 and m.shed_rate == 1.0
        text = latency_table([("shed", m)])
        assert "shed" in text
        # no throughput fabricated out of zero completions
        assert m.throughput == 0.0

    def test_single_class_has_no_subrows(self):
        m = _served_metrics(10)
        text = latency_table([("one-class", m)])
        assert "one-class" in text
        assert "[p" not in text  # sub-rows only appear with >1 class


class TestTraceTable:
    def test_reconciles_against_result(self):
        machine = TCUMachine(m=16, ell=512.0)
        tracer = Tracer()
        workload = PoissonWorkload(rate=2e-4, total=12, kind="matmul", rows=8, seed=1)
        result = ServingEngine(machine, "timeout", tracer=tracer).serve(workload)
        text = trace_table(tracer, result, limit=5)
        assert "critical path" in text
        assert "deviation 0" in text
        # one body row per shown request, slowest first
        body = [ln for ln in text.splitlines() if ln.strip()[:1].isdigit()]
        assert len(body) == 5

    def test_limit_zero_keeps_footer(self):
        machine = TCUMachine(m=16, ell=512.0)
        tracer = Tracer()
        workload = PoissonWorkload(rate=2e-4, total=4, kind="matmul", rows=8, seed=1)
        result = ServingEngine(machine, "timeout", tracer=tracer).serve(workload)
        text = trace_table(tracer, result, limit=0)
        assert "busy_time" in text and "ledger" in text

    def test_footer_reconciles_to_exact_zeros_on_split_run(self):
        """Auto-split serving changes call shapes; the span/ledger
        reconciliation must still land on exact zeros."""
        machine = ParallelTCUMachine(m=16, ell=512.0, units=3)
        tracer = Tracer()
        workload = PoissonWorkload(rate=2e-4, total=12, kind="dft", rows=512, seed=3)
        result = ServingEngine(machine, "timeout", tracer=tracer).serve(workload)
        text = trace_table(tracer, result, limit=5)
        deviations = re.findall(r"deviation (\S+)", text)
        assert len(deviations) == 2
        assert all(d == "0" for d in deviations)


class TestMain:
    def test_writes_output_file(self, results_dir, tmp_path, capsys):
        out = tmp_path / "report.md"
        assert main([str(results_dir), str(out)]) == 0
        assert "table two" in out.read_text()
        assert "wrote" in capsys.readouterr().out

    def test_prints_to_stdout(self, results_dir, capsys):
        assert main([str(results_dir)]) == 0
        assert "table nine" in capsys.readouterr().out
