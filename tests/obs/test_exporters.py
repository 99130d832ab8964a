"""Chrome-trace / Perfetto and Prometheus export gates."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.presets import TPU_V1
from repro.obs import (
    Histogram,
    MetricsRegistry,
    ObsError,
    Sampler,
    SloBurnMonitor,
    Tracer,
    chrome_trace_json,
    prometheus_text,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.serve import ServingEngine, chaos_injector, interactive_batch_mix


@pytest.fixture(scope="module")
def chaos_trace():
    tracer = Tracer(
        detail="level",
        sample_every=2e5,
        monitors=[
            SloBurnMonitor(
                "interactive-burn", target=0.99, window=5e6,
                priority=2, min_count=4,
            )
        ],
    )
    machine = TPU_V1.create(execute="cost-only", trace_calls=True)
    workload = interactive_batch_mix(
        60, 3, interactive_load=0.6, batch_rows=2048,
        interactive_slo=5e5, seed=3,
    )
    result = ServingEngine(
        machine,
        "continuous",
        faults=chaos_injector(
            fail_rate=0.05, crash_every=9.0, repair_for=0.4,
            straggle_rate=0.1, straggle_factor=2.5, seed=103,
        ),
        retry="fixed",
        recovery="checkpoint",
        preempt=True,
        tracer=tracer,
    ).serve(workload)
    return tracer, result


def _reference_trace(tracer, *, label="serve"):
    """The trace-event dict, built event by event as a dict of dicts —
    the renderer's oracle (serialised by ``_reference_json``)."""
    events = []
    threads = {}

    def complete(name, cat, start, dur, pid, tid, **args):
        events.append(
            {"name": name, "cat": cat, "ph": "X", "ts": start, "dur": dur,
             "pid": pid, "tid": tid, "args": args}
        )

    for batch, kind, prio, start, dur in tracer.segments:
        threads.setdefault((1, prio), f"class p{prio}")
        complete(f"{kind}#b{batch}", "exec", start, dur, 1, prio, batch=batch)
    for batch, kind, prio, start, end in tracer.waits:
        threads.setdefault((1, prio), f"class p{prio}")
        complete(
            f"{kind}#b{batch} backoff", "backoff", start, end - start, 1, prio,
            batch=batch,
        )
    if tracer.levels:
        for batch, level, units, start, end in tracer.levels:
            for unit in units if units else (-1,):
                tid = unit + 1
                threads.setdefault((2, tid), "serial" if unit < 0 else f"unit {unit}")
                complete(
                    f"b{batch}/L{level}", "level", start, end - start, 2, tid,
                    batch=batch, level=level,
                )
    else:
        threads.setdefault((2, 0), "serial")
        for batch, kind, prio, start, dur in tracer.segments:
            complete(f"{kind}#b{batch}", "exec", start, dur, 2, 0, batch=batch)
    for rid, kind, prio, outcome, arrival, _, finish, batch, met in tracer.requests:
        threads.setdefault((3, prio), f"class p{prio}")
        if outcome == "shed":
            events.append(
                {"name": f"{kind}#r{rid} shed", "cat": "request", "ph": "i",
                 "s": "t", "ts": arrival, "pid": 3, "tid": prio,
                 "args": {"rid": rid}}
            )
            continue
        args = {"rid": rid, "batch": batch, "outcome": outcome}
        if met is not None:
            args["slo_met"] = met
        for ph, ts in (("b", arrival), ("e", finish)):
            events.append(
                {"name": f"{kind}#r{rid}", "cat": "request", "ph": ph, "id": rid,
                 "ts": ts, "pid": 3, "tid": prio,
                 "args": args if ph == "b" else {}}
            )
    threads.setdefault((4, 0), "events")
    for name, ts, batch, detail in tracer.instants:
        args = {"batch": batch}
        if detail:
            args["detail"] = detail
        events.append(
            {"name": name,
             "cat": "fault" if not name.startswith("alert:") else "alert",
             "ph": "i", "s": "t", "ts": ts, "pid": 4, "tid": 0, "args": args}
        )
    if tracer.downs:
        threads.setdefault((4, 1), "unit repair")
        for start, end in tracer.downs:
            complete("unit down", "down", start, end - start, 4, 1)
    if tracer.sampler is not None:
        for ts, snap in tracer.sampler.rows:
            for full_name, value in snap.items():
                events.append(
                    {"name": full_name, "ph": "C", "ts": ts, "pid": 5, "tid": 0,
                     "args": {"value": value}}
                )
    processes = ("priority classes", "tensor units", "requests",
                 "faults & alerts", "metrics")
    meta = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
         "args": {"name": f"{label}: {pname}"}}
        for pid, pname in enumerate(processes, start=1)
    ]
    meta += [
        {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
         "args": {"name": tname}}
        for (pid, tid), tname in sorted(threads.items())
    ]
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def _reference_json(tracer, *, label="serve"):
    return json.dumps(
        _reference_trace(tracer, label=label), sort_keys=True, separators=(",", ":")
    )


def _tracer(*, segments=(), waits=(), levels=(), requests=(), instants=(),
            downs=(), sampler_rows=None):
    """A tracer whose stores are filled directly (``sampler_rows=None``:
    no sampler)."""
    tracer = Tracer()
    tracer._log = [*segments, *requests]
    tracer.waits = list(waits)
    tracer.levels = list(levels)
    tracer.instants = list(instants)
    tracer.downs = list(downs)
    if sampler_rows is not None:
        tracer.sampler = sampler = Sampler(1.0)
        for ts, snap in sampler_rows:
            sampler.stamps.append(ts)
            sampler.keys.append(tuple(snap))
            sampler.values.append(tuple(snap.values()))
    return tracer


# strings the JSON escaper must handle: quotes, backslashes, control
# characters, non-ASCII (astral too) and %, which a %-template would eat
TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\%\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600'),
        st.characters(),
    ),
    max_size=4,
)
SPECIAL = [-0.0, 0.0, 1e16, 5e-324, 1.5, math.nan, math.inf, -math.inf]
NUMBER = st.one_of(
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.sampled_from(SPECIAL),
    st.sampled_from(SPECIAL).map(np.float64),
    st.floats().map(np.float64),
)
ID = st.integers(-2, 10**6)
PRIO = st.integers(0, 3)
METRIC = st.one_of(
    st.sampled_from(["requests_completed", "request_latency_sum"]),
    TEXT.map(lambda v: f'slo_attainment{{class="{v}"}}'),
)


@st.composite
def tracers(draw):
    def rows(*columns):
        return draw(st.lists(st.tuples(*columns), max_size=3))

    return _tracer(
        segments=rows(ID, TEXT, PRIO, NUMBER, NUMBER),
        waits=rows(ID, TEXT, PRIO, NUMBER, NUMBER),
        levels=rows(
            ID, ID, st.lists(st.integers(-1, 3), max_size=3).map(tuple),
            NUMBER, NUMBER,
        ),
        requests=rows(
            ID, TEXT, PRIO, st.sampled_from(["done", "abandoned", "shed"]),
            NUMBER, NUMBER, NUMBER, ID, st.sampled_from([None, True, False]),
        ),
        instants=rows(
            st.one_of(TEXT.map("alert:".__add__), TEXT.map("fault:".__add__), TEXT),
            NUMBER, ID, st.one_of(st.just(""), TEXT),
        ),
        downs=rows(NUMBER, NUMBER),
        sampler_rows=draw(
            st.none()
            | st.lists(
                st.tuples(NUMBER, st.dictionaries(METRIC, NUMBER, max_size=3)),
                max_size=3,
            )
        ),
    )


# values a registry stream may carry: the same object again, an equal
# but distinct object (parsed anew), 0.0 next to -0.0, NaN and infinities
SHARED = [0.0, -0.0, 0.1, 1.5, 1e16, 5e-324, math.nan, math.inf, -math.inf]
VALUE = st.one_of(
    st.sampled_from(SHARED),
    st.sampled_from(SHARED).map(lambda v: float(repr(v))),
    st.floats(),
)
GAUGES = [("queue_depth", None), ("slo", {"class": '2"%s\\'}), ("slo", {"class": "%d"})]


def _stream_tracer(pitch, ops):
    """A tracer whose registry is driven through ``ops`` and sampled on
    ``pitch``: metrics registered mid-run change the key set."""
    tracer = Tracer(sample_every=pitch)
    reg, sampler = tracer.registry, tracer.sampler
    for op, *args in ops:
        if op == "gauge":
            (name, labels), value = GAUGES[args[0]], args[1]
            reg.gauge(name, labels=labels).set(value)
        elif op == "counter":
            reg.counter(f"c{args[0]}").inc(args[1])
        elif op == "histogram":
            reg.histogram("latency", (1.0, 10.0)).observe(args[0])
        else:
            ts, force = args
            if force or sampler.due(ts):
                sampler.sample(reg, ts=ts, force=force)
    return tracer


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("gauge"), st.integers(0, len(GAUGES) - 1), VALUE),
        st.tuples(st.just("counter"), st.integers(0, 2), st.sampled_from([0.0, 1.0, 0.1, 1e16])),
        st.tuples(st.just("histogram"), st.sampled_from([0.5, 5.0, 50.0, math.inf])),
        st.tuples(st.just("sample"), st.floats(0.0, 1e7), st.booleans()),
    ),
    max_size=40,
)


class TestCounterExport:
    """The sampler's counter events: one template per key set, and one
    text per distinct value *object* — never per equal value."""

    @settings(max_examples=100, deadline=None)
    @given(pitch=st.sampled_from([1.0, 1e5, 0.3]), ops=OPS)
    def test_generated_registry_streams(self, pitch, ops):
        tracer = _stream_tracer(pitch, ops)
        assert chrome_trace_json(tracer) == _reference_json(tracer)

    def test_value_objects_and_signed_zeros(self):
        zero, again = 0.0, float("0.0")
        ops = [("gauge", 0, zero), ("sample", 0.0, True)]
        values = (-0.0, zero, again, math.nan, math.nan, float("nan"), math.inf, -math.inf, zero)
        for value in values:
            ops += [("gauge", 0, value), ("counter", 0, 0.0), ("sample", 1.0, True)]
        ops += [("gauge", 1, -0.0), ("sample", 2.0, True), ("gauge", 1, 0.0), ("sample", 3.0, True)]
        tracer = _stream_tracer(1.0, ops)
        text = chrome_trace_json(tracer)
        assert text == _reference_json(tracer)
        counters = [e for e in json.loads(text)["traceEvents"] if e["ph"] == "C"]
        depth = [e["args"]["value"] for e in counters if e["name"] == "queue_depth"]
        assert [math.copysign(1.0, v) for v in depth[:4]] == [1.0, -1.0, 1.0, 1.0]


class TestRendererMatchesReference:
    """``chrome_trace_json`` against the dict-building reference:
    identical text, not merely equal JSON."""

    @settings(max_examples=100, deadline=None)
    @given(tracer=tracers(), label=TEXT)
    def test_generated_stores(self, tracer, label):
        with np.errstate(all="ignore"):
            assert chrome_trace_json(tracer, label=label) == _reference_json(
                tracer, label=label
            )

    def test_edge_values(self):
        tricky = 'k"\\%s%d\x01\u00e9\U0001f600'
        values = [*SPECIAL, *map(np.float64, SPECIAL), 3, -(2**70), True, False]
        tracer = _tracer(
            segments=[(i, tricky, 2, v, v) for i, v in enumerate(values)],
            waits=[(7, tricky, 0, -0.0, math.inf)],
            levels=[(1, 0, (), 5e-324, 1e16), (1, 1, (0, 2), np.float64(1.5), 3)],
            requests=[
                (0, tricky, 2, "done", 1.5, 2.0, np.float64(3.25), 4, True),
                (1, tricky, 2, "done", 0, 1, 2, 4, False),
                (2, tricky, 0, "abandoned", -0.0, math.nan, math.inf, 5, None),
                (3, tricky, 0, "shed", np.float64(-0.0), math.nan, 9.0, -1, None),
            ],
            instants=[
                ("alert:" + tricky, 1.0, -1, tricky),
                ("fault:" + tricky, np.float64(2.5), 3, ""),
                (tricky, math.nan, 0, "%"),
            ],
            downs=[(1e16, math.inf)],
            sampler_rows=[
                (0.0, {f'slo{{class="{tricky}{i}"}}': v for i, v in enumerate(values)}),
                (np.float64(1.5), {"a": math.nan, "b": -math.inf, "c": np.float64(0.1)}),
                (2, {}),
            ],
        )
        with np.errstate(all="ignore"):
            assert chrome_trace_json(tracer, label=tricky) == _reference_json(
                tracer, label=tricky
            )

    def test_empty_tracer(self):
        for tracer in (_tracer(), _tracer(sampler_rows=[])):
            assert chrome_trace_json(tracer) == _reference_json(tracer)

    def test_chaos_trace(self, chaos_trace):
        tracer, _ = chaos_trace
        assert tracer.levels and tracer.downs and tracer.sampler.rows
        assert chrome_trace_json(tracer) == _reference_json(tracer)
        assert to_chrome_trace(tracer, label="chaos") == json.loads(
            _reference_json(tracer, label="chaos")
        )


class TestChromeTrace:
    def test_valid_and_self_checking(self, chaos_trace):
        tracer, _ = chaos_trace
        trace = to_chrome_trace(tracer)
        validate_chrome_trace(trace)

    def test_lanes_cover_classes_units_requests(self, chaos_trace):
        tracer, result = chaos_trace
        events = to_chrome_trace(tracer)["traceEvents"]
        pids = {e["pid"] for e in events}
        assert {1, 2, 3, 4, 5} <= pids
        # one async b/e pair per completed request
        begins = [e for e in events if e["ph"] == "b"]
        ends = [e for e in events if e["ph"] == "e"]
        assert len(begins) == len(ends)
        assert len(begins) >= len(result.requests)
        # level spans run on the unit lanes
        unit_x = [e for e in events if e["ph"] == "X" and e["pid"] == 2]
        assert unit_x

    def test_fault_instants_present(self, chaos_trace):
        tracer, result = chaos_trace
        events = to_chrome_trace(tracer)["traceEvents"]
        instants = [e for e in events if e["ph"] == "i"]
        faults = [e for e in instants if e["name"].startswith("fault:")]
        assert len(faults) == result.faults

    def test_metric_counters_exported(self, chaos_trace):
        tracer, _ = chaos_trace
        events = to_chrome_trace(tracer)["traceEvents"]
        counters = [e for e in events if e["ph"] == "C"]
        assert counters, "sampler rows must land as counter events"

    def test_json_bytes_deterministic(self, chaos_trace):
        tracer, _ = chaos_trace
        assert chrome_trace_json(tracer) == chrome_trace_json(tracer)

    def test_write_round_trips(self, chaos_trace, tmp_path):
        tracer, _ = chaos_trace
        path = write_chrome_trace(tracer, tmp_path / "trace.json")
        trace = json.loads(path.read_text())
        validate_chrome_trace(trace)

    def test_validate_rejects_malformed(self):
        with pytest.raises(ObsError, match="traceEvents"):
            validate_chrome_trace({})
        with pytest.raises(ObsError):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "Z", "name": "x", "pid": 1, "tid": 0, "ts": 0}]}
            )


class TestPrometheusText:
    def test_renders_all_metric_kinds(self):
        reg = MetricsRegistry()
        reg.counter("requests_total", "served requests").inc(3)
        reg.gauge("queue_depth", "queued rows").set(7)
        h = reg.histogram("latency", (1.0, 10.0), "request latency")
        h.observe(0.5)
        h.observe(5.0)
        text = prometheus_text(reg)
        assert "# HELP requests_total served requests" in text
        assert "# TYPE requests_total counter" in text
        assert "requests_total 3" in text
        assert "queue_depth 7" in text
        # cumulative buckets + +Inf + sum/count
        assert 'latency_bucket{le="1"} 1' in text
        assert 'latency_bucket{le="10"} 2' in text
        assert 'latency_bucket{le="+Inf"} 2' in text
        assert "latency_sum 5.5" in text
        assert "latency_count 2" in text

    def test_labels_rendered_sorted(self):
        reg = MetricsRegistry()
        reg.gauge("slo", labels={"class": "2", "az": "a"}).set(0.5)
        text = prometheus_text(reg)
        assert 'slo{az="a",class="2"} 0.5' in text

    def test_non_finite_values(self):
        reg = MetricsRegistry()
        reg.gauge("up").set(math.inf)
        reg.gauge("down").set(-math.inf)
        reg.gauge("unknown").set(math.nan)
        text = prometheus_text(reg)
        assert "up +Inf\n" in text
        assert "down -Inf\n" in text
        assert "unknown NaN\n" in text

    def test_numpy_amounts_export_as_plain_numbers(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(np.float64(0.5))
        reg.counter("n").inc(np.int64(3))
        up = reg.gauge("up")
        up.inc(np.float64(2.25))
        up.dec(np.float32(0.5))
        reg.gauge("set").set(np.float64(1.5))
        for name in ("c", "n", "up", "set"):
            assert type(reg.get(name).value) is float
        text = prometheus_text(reg)
        assert "c 0.5\n" in text
        assert "n 3\n" in text
        assert "up 1.75\n" in text
        assert "set 1.5\n" in text
        assert "np." not in text

    def test_histogram_with_infinite_sum(self):
        reg = MetricsRegistry()
        reg.histogram("latency", (1.0,)).observe(math.inf)
        text = prometheus_text(reg)
        assert 'latency_bucket{le="1"} 0\n' in text
        assert 'latency_bucket{le="+Inf"} 1\n' in text
        assert "latency_sum +Inf\n" in text

    @pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan])
    def test_histogram_rejects_non_finite_bounds(self, bound):
        # +Inf is the implicit last bucket; an explicit one would be a
        # second le="+Inf" series
        with pytest.raises(ObsError, match=f"bound {bound!r} is not finite"):
            Histogram("latency", bounds=(1.0, bound))
        with pytest.raises(ObsError, match=f"bound {bound!r} is not finite"):
            MetricsRegistry().histogram("latency", (bound,))

    def test_from_live_run(self, chaos_trace):
        tracer, result = chaos_trace
        text = prometheus_text(tracer.registry)
        assert "requests_completed" in text
        assert "ledger_tensor_time" in text
        lines = [line for line in text.splitlines() if line]
        assert all(line.startswith("#") or " " in line for line in lines)
