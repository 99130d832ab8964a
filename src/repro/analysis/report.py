"""Compile the per-experiment result tables into one markdown report.

`pytest benchmarks/ --benchmark-only` leaves every experiment's
rendered table under ``benchmarks/results/<experiment>.txt``; this
module stitches them into a single document so a fresh clone can do

    pytest benchmarks/ --benchmark-only
    python -m repro.analysis.report benchmarks/results report.md

and get the full paper-vs-measured appendix in one file.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from .tables import render_table

__all__ = ["compile_report", "utilization_table", "latency_table", "trace_table", "main"]

_SECTION_ORDER = [
    ("e1_", "Figure 1 / Section 2.2 — systolic array"),
    ("e2_", "Theorem 2 — dense matrix multiplication"),
    ("e3_", "Theorem 1 — Strassen-like multiplication"),
    ("e4_", "Corollary 1 — rectangular multiplication"),
    ("e5_", "Theorem 3 — sparse multiplication"),
    ("e6_", "Theorem 4 — Gaussian elimination"),
    ("e7_", "Theorem 5 — transitive closure"),
    ("e8_", "Theorem 6 — all-pairs shortest distances"),
    ("e9_", "Theorem 7 — DFT"),
    ("e10_", "Theorem 8 — stencil computations"),
    ("e11_", "Theorem 9 — integer multiplication"),
    ("e12_", "Theorem 10 — Karatsuba"),
    ("e13_", "Theorem 11 — polynomial evaluation"),
    ("e14_", "Theorem 12 / Section 5 — external-memory bridge"),
    ("e15_", "Section 3.1 — hardware presets"),
    ("e16_", "Extension — parallel tensor units"),
    ("e17_", "Extension — limited precision"),
    ("e18_", "Extension — scan / reduction / triangles"),
    ("e19_", "Extension — multi-unit scheduling"),
    ("e20_", "Extension — online serving"),
    ("e21_", "Extension — observability & tracing"),
]


def latency_table(entries, *, title: str | None = None, per_class: bool = True) -> str:
    """Render serving scenarios side by side — one row per scenario.

    ``entries`` is an iterable of ``(label, metrics)`` pairs where each
    ``metrics`` is a :class:`~repro.serve.metrics.ServeMetrics` (or a
    dict mapping labels to them).  Columns are the capacity-planning
    staples: completed requests, throughput, the latency percentiles,
    mean wait, SLO goodput, the admission **shed rate**, **preemption**
    count, engine utilisation, the plan-cache **hit rate** (``off``
    for runs served without a cache), and the fault-tolerance columns:
    **availability** (completions over everything that entered service,
    ``n/a`` when nothing did), **retry** count, the **wasted**-work
    ratio, and the mean **recovery** time from first fault to batch
    completion.  When a run carries several priority classes (and
    ``per_class`` is true), one indented sub-row per class follows its
    scenario row — label ``<scenario>[p<priority>]`` — showing the
    class's completions, its p50/p99, its goodput, its shed rate and
    its availability / retry / recovery numbers (classes serialise on
    one engine, so throughput and utilisation stay run-level).
    Latencies and throughput are model time, so tables are
    machine-reproducible.
    """
    if isinstance(entries, dict):
        entries = entries.items()
    rows = []
    for label, m in entries:
        rows.append(
            [
                label,
                m.requests,
                m.throughput,
                m.latency_p50,
                m.latency_p95,
                m.latency_p99,
                m.wait_mean,
                "n/a" if m.goodput is None else m.goodput,
                m.shed_rate,
                m.preemptions,
                m.utilization,
                "off" if m.cache_hit_rate is None else m.cache_hit_rate,
                "n/a" if m.availability is None else m.availability,
                m.retries,
                m.wasted_ratio,
                m.recovery_time_mean,
            ]
        )
        classes = m.per_class if per_class else {}
        if len(classes) > 1:
            for priority in sorted(classes, reverse=True):
                cls = classes[priority]
                rows.append(
                    [
                        f"  {label}[p{priority}]",
                        cls.requests,
                        "",
                        cls.latency_p50,
                        "",
                        cls.latency_p99,
                        "",
                        "n/a" if cls.goodput is None else cls.goodput,
                        cls.shed_rate,
                        "",
                        "",
                        "",
                        "n/a" if cls.availability is None else cls.availability,
                        cls.retries,
                        "",
                        cls.recovery_time_mean,
                    ]
                )
    return render_table(
        [
            "scenario",
            "requests",
            "throughput",
            "p50",
            "p95",
            "p99",
            "mean wait",
            "goodput",
            "shed",
            "preempt",
            "util",
            "cache",
            "avail",
            "retries",
            "wasted",
            "recovery",
        ],
        rows,
        title=title or "serving latency / throughput",
    )


def trace_table(tracer, result, *, title: str | None = None, limit: int = 20) -> str:
    """Critical-path breakdown of a traced run — one row per request.

    Takes the :class:`~repro.obs.Tracer` a run was served with and its
    :class:`~repro.serve.engine.ServeResult`, and renders the ``limit``
    slowest completed requests (latency-descending, i.e. the run's
    critical path first).  Per request: **queue** (arrival → launch),
    the batch's **exec** time (segment-duration fold, bit-identical to
    ``run.service``), its **reload** and **wasted** charges, the
    **backoff** spent parked between retries, the residual **stall**
    (time in service but not executing: preempted-out gaps, crash
    windows, backoff), the end-to-end **latency**, and whether the SLO
    was met.  A footer reconciles the span view against the ledger:
    the segment fold must equal ``result.busy_time`` exactly, and
    ``useful + wasted + reload`` must equal ``ledger_time`` — nonzero
    deviations mean the trace and the charges disagree.
    """
    batch_rows = {row[0]: row for row in tracer.batch_rows}
    exec_by_batch = tracer.exec_time_by_batch()
    backoff: dict[int, float] = {}
    for batch, _kind, _prio, start, end in tracer.waits:
        backoff[batch] = backoff.get(batch, 0.0) + (end - start)
    done = [r for r in tracer.requests if r[3] == "done"]
    done.sort(key=lambda r: (-(r[6] - r[4]), r[0]))
    shown = done[: max(0, limit)]
    rows = []
    for rid, kind, prio, _outcome, arrival, launch, finish, batch, met in shown:
        info = batch_rows.get(batch)
        service = info[6] if info else exec_by_batch.get(batch, 0.0)
        reload = info[7] if info else 0.0
        wasted = info[8] if info else 0.0
        rows.append(
            [
                rid,
                kind,
                prio,
                batch,
                launch - arrival,
                service,
                reload,
                wasted,
                backoff.get(batch, 0.0),
                (finish - launch) - service,
                finish - arrival,
                "n/a" if met is None else ("yes" if met else "no"),
            ]
        )
    table = render_table(
        [
            "rid",
            "kind",
            "prio",
            "batch",
            "queue",
            "exec",
            "reload",
            "wasted",
            "backoff",
            "stall",
            "latency",
            "slo met",
        ],
        rows,
        title=title
        or f"per-request critical path (slowest {len(shown)} of {len(done)} completed)",
    )
    exec_total = tracer.exec_time()
    accounted = result.useful_time + result.wasted_time + result.reload_time
    footer = (
        f"exec (spans) {exec_total:g} | busy_time {result.busy_time:g} | "
        f"deviation {exec_total - result.busy_time:g}\n"
        f"useful {result.useful_time:g} + wasted {result.wasted_time:g} + "
        f"reload {result.reload_time:g} = {accounted:g} | "
        f"ledger {result.ledger_time:g} | "
        f"deviation {accounted - result.ledger_time:g}"
    )
    return table + "\n" + footer


def utilization_table(schedule, *, title: str | None = None, plan=None) -> str:
    """Per-unit utilisation report for one scheduled batch.

    Takes the :class:`~repro.core.scheduling.Schedule` a
    :class:`~repro.core.parallel.ParallelTCUMachine` exposes as
    ``last_schedule`` and renders each unit's timeline — calls served,
    busy time, busy share of the makespan — followed by the batch-level
    makespan, pool utilisation and the policy's optimality-gap bound.
    ``None`` (what ``last_schedule`` holds before any batch, or after
    an empty one) renders as a one-line stub instead of crashing.

    Pass the :class:`~repro.core.program.Plan` the batch came from as
    ``plan=`` to append a per-level view of the auto-splitter's
    decisions: each level's call-group count, the chosen ``split``
    factors, and the planner's ``modelled_makespan`` (which the batch
    executor's ledgered makespan must reconcile against).
    """
    if schedule is None:
        return (title or "per-unit utilisation") + "\n(no batch scheduled)"
    counts = np.bincount(schedule.assignment, minlength=schedule.units)
    span = schedule.makespan
    rows = [
        [
            u,
            int(counts[u]),
            float(schedule.unit_times[u]),
            float(schedule.unit_times[u]) / span if span else 0.0,
        ]
        for u in range(schedule.units)
    ]
    header = title or (
        f"per-unit utilisation — policy={schedule.policy}, p={schedule.units}"
    )
    table = render_table(["unit", "calls", "busy time", "busy share"], rows, title=header)
    gap = "n/a" if schedule.gap_bound is None else f"{schedule.gap_bound:.4g}"
    summary = (
        f"makespan {schedule.makespan:g} | serial {schedule.serial_time:g} | "
        f"speedup {schedule.speedup:.3g} | utilisation {schedule.utilization:.3g} | "
        f"gap bound {gap}"
    )
    out = table + "\n" + summary
    if plan is not None:
        level_rows = []
        for d, (groups, _) in enumerate(plan.levels):
            factors = plan.splits[d]
            modelled = plan.modelled_makespans[d]
            level_rows.append(
                [
                    d,
                    len(groups),
                    ",".join(str(f) for f in factors) if factors else "-",
                    modelled if groups else 0.0,
                ]
            )
        out += "\n" + render_table(
            ["level", "groups", "split", "modelled_makespan"],
            level_rows,
            title="per-level split decisions",
        )
    return out


def compile_report(results_dir: Path) -> str:
    """Return the combined markdown report for a results directory."""
    results_dir = Path(results_dir)
    if not results_dir.is_dir():
        raise FileNotFoundError(f"no results directory at {results_dir}")
    files = sorted(results_dir.glob("*.txt"))
    if not files:
        raise FileNotFoundError(
            f"no result tables in {results_dir}; run "
            "`pytest benchmarks/ --benchmark-only` first"
        )
    by_prefix: dict[str, list[Path]] = {}
    for path in files:
        for prefix, _ in _SECTION_ORDER:
            if path.name.startswith(prefix):
                by_prefix.setdefault(prefix, []).append(path)
                break
        else:
            by_prefix.setdefault("other", []).append(path)

    lines = [
        "# tcu-model — measured experiment report",
        "",
        "Generated from the tables under "
        f"`{results_dir}` (regenerate with `pytest benchmarks/ --benchmark-only`).",
        "",
    ]
    for prefix, title in _SECTION_ORDER:
        paths = by_prefix.get(prefix)
        if not paths:
            continue
        lines.append(f"## {title}")
        lines.append("")
        for path in paths:
            lines.append("```")
            lines.append(path.read_text().rstrip("\n"))
            lines.append("```")
            lines.append("")
    for path in by_prefix.get("other", []):
        lines.append("## (uncategorised)")
        lines.append("```")
        lines.append(path.read_text().rstrip("\n"))
        lines.append("```")
        lines.append("")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    results = Path(args[0]) if args else Path("benchmarks/results")
    out = Path(args[1]) if len(args) > 1 else None
    report = compile_report(results)
    if out is None:
        print(report)
    else:
        out.write_text(report)
        print(f"wrote {out} ({len(report.splitlines())} lines)")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
