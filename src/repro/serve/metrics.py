"""SLO-facing metrics for a served run.

Turns a :class:`~repro.serve.engine.ServeResult` into the numbers a
capacity planner asks for: throughput, the latency distribution
(p50/p95/p99), SLO attainment and goodput, shed rate, preemption and
reload-cost counters, engine utilisation, per-priority-class breakdowns
(:class:`ClassMetrics`), and — on multi-unit machines with a full call
trace — the per-tensor-unit busy shares recovered from the ledger's
``unit_id`` column.

All quantities are in model time (the ledger clock), so two runs on
different hosts produce identical metrics for identical (workload,
machine, policy) triples.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from ..core.parallel import ParallelTCUMachine
from .engine import ServeResult
from .table import as_rows

__all__ = ["ServeMetrics", "ClassMetrics", "compute_metrics"]


@dataclass(frozen=True)
class ClassMetrics:
    """Serving statistics for one priority class.

    Attributes
    ----------
    priority:
        The class's priority value (higher = more urgent).
    requests, shed:
        Completed and admission-shed requests of the class.
    shed_rate:
        ``shed / (requests + shed)``.
    latency_p50 / latency_p99:
        The class's end-to-end latency percentiles.
    slo_attainment:
        Fraction of the class's completions that met their objective
        (``None`` when no request carried one).
    goodput:
        The class's SLO-meeting completions per unit of model time.
    abandoned:
        Requests of the class the engine gave up on (retry budget
        exhausted, or deadline-based abandonment).
    availability:
        ``requests / (requests + abandoned)`` — completions over
        everything the class committed to service (``None`` when the
        class never entered service).
    retries:
        Retry attempts the class's completed batches made.
    wasted_time:
        Model time the class's completed batches charged for work that
        produced no surviving results.
    recovery_time_mean:
        Mean model time from a batch's first fault to its completion,
        over the class's faulted batches (0 when none faulted).
    """

    priority: int
    requests: int
    shed: int
    shed_rate: float
    latency_p50: float
    latency_p99: float
    slo_attainment: float | None
    goodput: float | None
    abandoned: int = 0
    availability: float | None = None
    retries: int = 0
    wasted_time: float = 0.0
    recovery_time_mean: float = 0.0

    def to_dict(self) -> dict:
        """JSON-ready dict of every field."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> ClassMetrics:
        """Inverse of :meth:`to_dict` (accepts a JSON-decoded dict)."""
        return cls(**data)


@dataclass(frozen=True)
class ServeMetrics:
    """Aggregate serving statistics for one run.

    Attributes
    ----------
    requests, batches:
        Completed requests and executed batches.
    clock:
        Final engine clock (model time of the last completion).
    throughput:
        Completed requests per unit of model time.
    latency_mean / latency_p50 / latency_p95 / latency_p99 / latency_max:
        The end-to-end (wait + service) latency distribution.
    wait_mean, service_mean:
        Mean queueing delay and mean in-machine time per request.
    batch_size_mean:
        Requests per executed batch.
    slo:
        The latency objective the SLO numbers were computed against:
        the caller's fallback if given, else the single distinct
        per-request objective (``None`` when objectives were absent or
        mixed — attainment/goodput still reflect the per-request ones).
    slo_attainment:
        Fraction of requests whose latency met their objective.
    goodput:
        SLO-meeting completions per unit of model time.
    shed, shed_rate:
        Requests refused by the admission policy, and their fraction of
        all offered requests.
    preemptions:
        Batch checkpoints taken (a batch preempted twice counts twice).
    reload_time:
        Model time the run spent re-loading resident blocks on resume
        (the ledger's ``reload`` column for this run).
    utilization:
        Engine busy fraction: busy time / final clock.
    unit_busy_share:
        Per-tensor-unit busy fraction of the clock, recovered from the
        trace's ``unit_id`` column (key ``-1`` collects serially issued
        calls).  ``None`` unless the machine is a
        :class:`~repro.core.parallel.ParallelTCUMachine` with a full
        call trace.
    kind_time:
        Model time charged per request kind *during this run* (the
        engine snapshots its ``serve:<kind>`` ledger sections per run,
        so reusing one machine across serves never double-counts).
    cache_hits / cache_misses / cache_size:
        Plan-cache lookup counters for this run and the cache's size
        after it (all zero when the engine served without a cache).
    cache_hit_rate:
        ``hits / (hits + misses)``, or ``None`` when the run performed
        no cache lookups.
    abandoned:
        Requests the engine gave up on (retry budget exhausted, or
        deadline-based abandonment).
    availability:
        ``requests / (requests + abandoned)`` — completions over
        everything that entered service (``None`` when nothing did).
    faults, retries, degraded:
        Injected fault events, retry attempts scheduled, and batches
        re-planned onto the degraded variant.
    wasted_time, wasted_ratio:
        Model time charged for work that produced no surviving results,
        and its fraction of the run's total charged time.
    recovery_time_mean:
        Mean model time from a batch's first fault to its completion,
        over faulted batches (0 when none faulted).
    per_class:
        One :class:`ClassMetrics` per priority class seen in the run
        (completed, shed or abandoned), keyed by priority.
    """

    requests: int
    batches: int
    clock: float
    throughput: float
    latency_mean: float
    latency_p50: float
    latency_p95: float
    latency_p99: float
    latency_max: float
    wait_mean: float
    service_mean: float
    batch_size_mean: float
    slo: float | None
    slo_attainment: float | None
    goodput: float | None
    utilization: float
    unit_busy_share: dict[int, float] | None
    kind_time: dict[str, float]
    shed: int = 0
    shed_rate: float = 0.0
    preemptions: int = 0
    reload_time: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_size: int = 0
    cache_hit_rate: float | None = None
    abandoned: int = 0
    availability: float | None = None
    faults: int = 0
    retries: int = 0
    degraded: int = 0
    wasted_time: float = 0.0
    wasted_ratio: float = 0.0
    recovery_time_mean: float = 0.0
    per_class: dict[int, ClassMetrics] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready dict of every field.

        Integer-keyed maps (``per_class``, ``unit_busy_share``) are
        re-keyed by *string* — JSON objects only key by string, so this
        makes a ``dumps``/``loads`` round trip the identity on the dict
        form; :meth:`from_dict` restores the integer keys.
        """
        data = asdict(self)
        data["per_class"] = {str(k): v for k, v in data["per_class"].items()}
        if data["unit_busy_share"] is not None:
            data["unit_busy_share"] = {
                str(k): v for k, v in data["unit_busy_share"].items()
            }
        return data

    @classmethod
    def from_dict(cls, data: dict) -> ServeMetrics:
        """Inverse of :meth:`to_dict` (accepts a JSON-decoded dict):
        ``ServeMetrics.from_dict(json.loads(json.dumps(m.to_dict())))``
        equals ``m`` exactly."""
        data = dict(data)
        data["per_class"] = {
            int(k): v if isinstance(v, ClassMetrics) else ClassMetrics(**v)
            for k, v in data.get("per_class", {}).items()
        }
        share = data.get("unit_busy_share")
        if share is not None:
            data["unit_busy_share"] = {int(k): float(v) for k, v in share.items()}
        return cls(**data)


def _unit_busy_share(result: ServeResult) -> dict[int, float] | None:
    machine = result.machine
    if not isinstance(machine, ParallelTCUMachine):
        return None
    ledger = machine.ledger
    if ledger.trace_calls is not True or result.clock <= 0:
        return None
    units = ledger.calls.unit_ids()[result.trace_start : result.trace_end]
    times = ledger.calls.as_arrays()[2][result.trace_start : result.trace_end]
    if units.size == 0:
        return {}
    busy: dict[int, float] = {}
    for unit in np.unique(units):
        busy[int(unit)] = float(times[units == unit].sum()) / result.clock
    return busy


def _slo_stats(
    latencies: np.ndarray, objectives: np.ndarray, clock: float
) -> tuple[float | None, float | None]:
    """(attainment, goodput) against per-request objectives (NaN = none)."""
    with_slo = ~np.isnan(objectives)
    if not with_slo.any():
        return None, None
    met = int((latencies[with_slo] <= objectives[with_slo]).sum())
    attainment = met / int(with_slo.sum())
    goodput = met / clock if clock else 0.0
    return attainment, goodput


def _count_by_class(priorities: np.ndarray) -> dict[int, int]:
    classes, counts = np.unique(priorities, return_counts=True)
    return dict(zip(classes.tolist(), counts.tolist(), strict=True))


def compute_metrics(result: ServeResult, *, slo: float | None = None) -> ServeMetrics:
    """Summarise a served run; ``slo`` is the fallback latency objective
    for requests that did not carry their own.  Reads the columns of
    the run's request table; builds no per-request record."""
    requests = as_rows(result.requests)
    n = len(requests)
    clock = result.clock
    shed_by_class = _count_by_class(as_rows(result.shed).column("priority"))
    abandoned_by_class = _count_by_class(as_rows(result.abandoned).column("priority"))
    faulted = [b for b in result.batches if b.faults > 0]
    recovery_mean = (
        float(np.mean([b.recovery_time for b in faulted])) if faulted else 0.0
    )
    if n == 0:
        # classes that only ever shed (or abandoned) still get their
        # breakdown — the total-overload case is exactly what admission
        # and availability studies measure
        empty_classes = {
            priority: ClassMetrics(
                priority=priority,
                requests=0,
                shed=shed_by_class.get(priority, 0),
                shed_rate=1.0 if shed_by_class.get(priority, 0) else 0.0,
                latency_p50=0.0,
                latency_p99=0.0,
                slo_attainment=None,
                goodput=None,
                abandoned=abandoned_by_class.get(priority, 0),
                availability=0.0 if abandoned_by_class.get(priority, 0) else None,
            )
            for priority in sorted(set(shed_by_class) | set(abandoned_by_class))
        }
        return ServeMetrics(
            requests=0,
            batches=0,
            clock=0.0,
            throughput=0.0,
            latency_mean=0.0,
            latency_p50=0.0,
            latency_p95=0.0,
            latency_p99=0.0,
            latency_max=0.0,
            wait_mean=0.0,
            service_mean=0.0,
            batch_size_mean=0.0,
            slo=slo,
            slo_attainment=None,
            goodput=None,
            utilization=0.0,
            unit_busy_share=None,
            kind_time={},
            shed=len(result.shed),
            shed_rate=result.shed_rate,
            preemptions=result.preemptions,
            reload_time=result.reload_time,
            cache_hits=result.cache_hits,
            cache_misses=result.cache_misses,
            cache_size=result.cache_size,
            cache_hit_rate=result.cache_hit_rate,
            abandoned=len(result.abandoned),
            availability=result.availability,
            faults=result.faults,
            retries=result.retries,
            degraded=result.degraded,
            wasted_time=result.wasted_time,
            wasted_ratio=result.wasted_ratio,
            recovery_time_mean=recovery_mean,
            per_class=empty_classes,
        )
    # the subtractions are the ones Request.latency and Request.wait
    # perform, element for element
    arrivals = requests.column("arrival")
    latencies = requests.column("completion") - arrivals
    waits = requests.column("launch") - arrivals
    priorities = requests.column("priority")
    p50, p95, p99 = np.percentile(latencies, [50.0, 95.0, 99.0])

    # per-request objectives (NaN: none), the fallback filling the gaps
    objectives = requests.column("slo")
    if slo is not None:
        objectives = np.where(np.isnan(objectives), slo, objectives)
    attainment, goodput = _slo_stats(latencies, objectives, clock)
    effective_slo = slo
    with_slo = ~np.isnan(objectives)
    if effective_slo is None and with_slo.any():
        distinct = np.unique(objectives[with_slo])
        if distinct.size == 1:
            effective_slo = float(distinct[0])

    per_class: dict[int, ClassMetrics] = {}
    classes = (
        set(priorities.tolist()) | set(shed_by_class) | set(abandoned_by_class)
    )
    for priority in sorted(classes):
        mask = priorities == priority
        count = int(mask.sum())
        cls_shed = shed_by_class.get(priority, 0)
        cls_abandoned = abandoned_by_class.get(priority, 0)
        if count:
            cls_lat = latencies[mask]
            cls_p50, cls_p99 = np.percentile(cls_lat, [50.0, 99.0])
            cls_att, cls_good = _slo_stats(cls_lat, objectives[mask], clock)
        else:
            cls_p50 = cls_p99 = 0.0
            cls_att = cls_good = None
        cls_batches = [b for b in result.batches if b.priority == priority]
        cls_faulted = [b for b in cls_batches if b.faults > 0]
        per_class[int(priority)] = ClassMetrics(
            priority=int(priority),
            requests=count,
            shed=cls_shed,
            shed_rate=cls_shed / (count + cls_shed) if count + cls_shed else 0.0,
            latency_p50=float(cls_p50),
            latency_p99=float(cls_p99),
            slo_attainment=cls_att,
            goodput=cls_good,
            abandoned=cls_abandoned,
            availability=(
                count / (count + cls_abandoned) if count + cls_abandoned else None
            ),
            retries=sum(len(b.retry_at) for b in cls_batches),
            wasted_time=float(sum(b.wasted_time for b in cls_batches)),
            recovery_time_mean=(
                float(np.mean([b.recovery_time for b in cls_faulted]))
                if cls_faulted
                else 0.0
            ),
        )

    return ServeMetrics(
        requests=n,
        batches=len(result.batches),
        clock=clock,
        throughput=n / clock if clock else 0.0,
        latency_mean=float(latencies.mean()),
        latency_p50=float(p50),
        latency_p95=float(p95),
        latency_p99=float(p99),
        latency_max=float(latencies.max()),
        wait_mean=float(waits.mean()),
        service_mean=float((latencies - waits).mean()),
        batch_size_mean=n / len(result.batches) if result.batches else 0.0,
        slo=effective_slo,
        slo_attainment=attainment,
        goodput=goodput,
        utilization=result.busy_time / clock if clock else 0.0,
        unit_busy_share=_unit_busy_share(result),
        kind_time=dict(sorted(result.kind_time.items())),
        shed=len(result.shed),
        shed_rate=result.shed_rate,
        preemptions=result.preemptions,
        reload_time=result.reload_time,
        cache_hits=result.cache_hits,
        cache_misses=result.cache_misses,
        cache_size=result.cache_size,
        cache_hit_rate=result.cache_hit_rate,
        abandoned=len(result.abandoned),
        availability=result.availability,
        faults=result.faults,
        retries=result.retries,
        degraded=result.degraded,
        wasted_time=result.wasted_time,
        wasted_ratio=result.wasted_ratio,
        recovery_time_mean=recovery_mean,
        per_class=per_class,
    )
