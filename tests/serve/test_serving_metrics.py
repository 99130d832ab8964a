"""The serving metrics a :class:`~repro.obs.tracer.Tracer` keeps.

A served run registers eleven metrics on the tracer's registry (queue
depth, in-flight rows, availability, plan-cache hit rate, the six
request and fault counters, the latency histogram) plus one
``slo_attainment`` gauge per class with an SLO outcome.  These tests
pin what the metrics read: a sampled run ends with the registry a
samplerless one does, each sample reads the run as it stands, and a
registry shared by several runs accumulates the counters and keeps the
gauges of the latest run.
"""

import math

import pytest
from test_request_store_golden import (
    _ADMISSIONS,
    _BATCHERS,
    DESIGN,
    _behaviour,
    _machine,
    _workload,
)

from repro.core.machine import TCUMachine
from repro.core.plan_cache import PlanCache
from repro.obs import Histogram, MetricsRegistry, Tracer
from repro.serve import (
    ContinuousBatcher,
    PoissonWorkload,
    ServingEngine,
    Workload,
)
from repro.serve.table import Request


def _serve_golden(index: int, tracer: Tracer):
    """Serve golden case ``index``'s configuration with ``tracer``."""
    workload, batcher, admission, behaviour, _, machine = DESIGN[index]
    engine = ServingEngine(
        _machine(machine),
        _BATCHERS[batcher](),
        admission=_ADMISSIONS[admission](),
        tracer=tracer,
        **_behaviour(behaviour, index),
    )
    return engine.serve(_workload(workload, index))


@pytest.mark.parametrize("index", range(len(DESIGN)), ids=lambda i: "-".join(DESIGN[i]))
def test_sampled_and_samplerless_runs_end_with_one_registry(index):
    """A sampler reads the metrics during the run; it must not change
    where they end.  The latency histogram's sum is folded per request
    under a sampler and by one numpy sum without one, so it may differ
    in its last bits."""
    plain = Tracer(detail="level")
    sampled = Tracer(detail="level", sample_every=1e4)
    _serve_golden(index, plain)
    _serve_golden(index, sampled)
    assert plain.registry.names() == sampled.registry.names()
    for name in plain.registry.names():
        a, b = plain.registry.get(name), sampled.registry.get(name)
        if isinstance(a, Histogram):
            assert (a.counts, a.count) == (b.counts, b.count), name
            assert math.isclose(a.sum, b.sum, rel_tol=1e-12), name
        else:
            assert a.value == b.value, name


def test_in_flight_rows_read_a_degraded_segment_executed_rows():
    """Golden case 63 re-plans failing batches onto fewer rows: every
    ``in_flight_rows`` sample taken inside a segment run after the
    re-plan reads the rows that segment executes, not the rows the
    batch asked for.  (A sample at a segment's first instant may precede
    its launch, so only samples strictly inside count.)"""
    tracer = Tracer(detail="level", sample_every=1.0)
    result = _serve_golden(63, tracer)
    executed = {b.index: sum(b.rows) for b in result.batches if b.degraded == "rows"}
    replanned = {b: ts for name, ts, b, _ in tracer.instants if name == "degrade:rows"}
    times, values = tracer.sampler.series("in_flight_rows")
    seen = 0
    for batch, _, _, start, dur in tracer.segments:
        if batch not in executed or start < replanned[batch]:
            continue
        inside = (times > start) & (times < start + dur)
        assert (values[inside] == executed[batch]).all(), (batch, values[inside])
        seen += int(inside.sum())
    assert seen >= 3


class _Requests(Workload):
    """Serves the given requests as they are."""

    def __init__(self, requests):
        self._requests = requests

    def requests(self):
        return iter(self._requests)


def test_availability_counts_rows_abandoned_at_launch():
    """A launch that abandons part of its batch (one queued request's
    deadline passed while another batch ran) moves ``availability``:
    the next sample, taken while the rest of the batch still runs,
    reads one completion out of two requests that entered service."""
    requests = [
        Request(rid=0, kind="mlp", arrival=0.0, rows=64),
        Request(rid=1, kind="mlp", arrival=1.0, rows=4, deadline=2.0),
        Request(rid=2, kind="mlp", arrival=1.0, rows=4),
    ]
    tracer = Tracer(detail="level", sample_every=1.0)
    result = ServingEngine(
        TCUMachine(m=16, ell=64.0, execute="cost-only"),
        ContinuousBatcher(max_size=8),
        abandon=True,
        tracer=tracer,
    ).serve(_Requests(requests))
    first, second = result.batches
    assert (first.rids, second.rids) == ((0,), (2,))
    assert [r.rid for r in result.abandoned] == [1]
    times, values = tracer.sampler.series("availability")
    during = (times > second.launch) & (times < second.finish)
    assert during.any()
    assert (values[during] == 0.5).all(), values[during]
    assert values[-1] == result.availability == 2 / 3


def _attainment(result) -> float:
    met = [r.latency <= r.slo for r in result.requests]
    return sum(met) / len(met)


@pytest.mark.parametrize("sample_every", [None, 1e3], ids=["samplerless", "sampled"])
def test_shared_registry_accumulates_counters_and_keeps_latest_gauges(sample_every):
    """Two serves, each with a fresh tracer on one registry: the
    counters add the second run's totals to the first's, while
    ``availability``, ``cache_hit_rate`` and ``slo_attainment`` read the
    second run's values."""
    registry = MetricsRegistry()
    machine = TCUMachine(m=16, ell=64.0, execute="cost-only")
    cache = PlanCache()
    runs = (
        # overloaded, with deadlines: most requests are abandoned
        (
            PoissonWorkload(
                rate=1 / 1e3, total=30, kind="matmul", rows=8, slo=3e3,
                deadline=2e5, seed=1,
            ),
            True,
        ),
        # light load, no deadlines: every request completes
        (
            PoissonWorkload(
                rate=1 / 4e4, total=30, kind="matmul", rows=(4, 8), slo=4e4, seed=2
            ),
            False,
        ),
    )
    results = []
    for workload, abandon in runs:
        engine = ServingEngine(
            machine,
            ContinuousBatcher(max_size=4),
            abandon=abandon,
            plan_cache=cache,
            tracer=Tracer(sample_every=sample_every, registry=registry),
        )
        result = engine.serve(workload)
        results.append(result)
        completed = sum(r.completed for r in results)
        assert registry.get("requests_completed").value == completed
        assert registry.get("request_latency").count == completed
        assert registry.get("requests_abandoned").value == sum(
            len(r.abandoned) for r in results
        )
        assert registry.get("availability").value == result.availability
        assert registry.get("cache_hit_rate").value == result.cache_hit_rate
        assert registry.get('slo_attainment{class="0"}').value == _attainment(result)
    first, second = results
    # the pins discriminate: the runs differ in every gauge read above
    assert (first.completed, len(first.abandoned), second.completed) == (13, 17, 30)
    assert first.availability < second.availability == 1.0
    assert first.cache_hit_rate != second.cache_hit_rate
    assert _attainment(first) != _attainment(second)
