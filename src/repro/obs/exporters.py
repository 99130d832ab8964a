"""Trace and metrics exporters: Perfetto/Chrome trace JSON, Prometheus.

:func:`chrome_trace_json` renders a :class:`~repro.obs.tracer.Tracer`
as Chrome trace-event JSON text, which the Perfetto UI
(https://ui.perfetto.dev) opens directly:

* one process per view — ``priority classes`` (execution segments,
  backoff waits per class lane), ``tensor units`` (per-level spans on
  the unit that executed them), ``requests`` (async queued→done spans,
  one track per request id), ``faults & alerts`` (instant events for
  preemptions, faults, retries, degradations, SLO alerts, crash-repair
  windows) and ``metrics`` (counter tracks from the sampler);
* timestamps are the simulated ledger clock verbatim — the trace of a
  seeded run is **byte-identical across replays**, checkable with
  ``==`` on the text.

The renderer writes the text in one pass over the tracer's columnar
stores, from one template per event kind, without building or sorting
a dict per event; a sampled counter's text is rebuilt only when its
value changed.  Its contract is byte identity: the text is exactly
what ``json.dumps(trace, sort_keys=True, separators=(",", ":"))``
gives for the trace-event dict (sorted keys, no whitespace).  So every
number is formatted by the JSON encoder and every string escaped by
its escaper.  :func:`to_chrome_trace` parses the text back into that
dict, and :func:`write_chrome_trace` writes it to a file.

:func:`prometheus_text` renders a
:class:`~repro.obs.metrics.MetricsRegistry` in the Prometheus text
exposition format (``# HELP``/``# TYPE`` plus samples; histograms
expand to cumulative ``_bucket``/``_sum``/``_count`` series;
non-finite values read ``+Inf``, ``-Inf`` and ``NaN``).
"""

from __future__ import annotations

import json
import math
from itertools import compress
from json.encoder import encode_basestring_ascii
from operator import is_not
from pathlib import Path

from .metrics import Histogram, MetricsRegistry
from .sampler import Sampler
from .spans import ObsError
from .tracer import Tracer

__all__ = [
    "to_chrome_trace",
    "chrome_trace_json",
    "write_chrome_trace",
    "validate_chrome_trace",
    "prometheus_text",
]

# process ids of the export views (arbitrary but stable)
_PID_CLASSES = 1
_PID_UNITS = 2
_PID_REQUESTS = 3
_PID_EVENTS = 4
_PID_METRICS = 5

_PROCESS_NAMES = {
    _PID_CLASSES: "priority classes",
    _PID_UNITS: "tensor units",
    _PID_REQUESTS: "requests",
    _PID_EVENTS: "faults & alerts",
    _PID_METRICS: "metrics",
}


# One text template per event kind, its keys already in sorted order.
# Every %s slot takes finished JSON text — a number from ``_numbers`` or
# a string from ``_string`` — so no raw name ever reaches a template.
# Process ids are the ``_PID_*`` constants above.
_SPAN = '{"args":{%s},"cat":"%s","dur":%s,"name":%s,"ph":"X","pid":%d,"tid":%s,"ts":%s}'
_BEGIN = (
    '{"args":{"batch":%s,"outcome":%s,"rid":%s%s},"cat":"request","id":%s,'
    '"name":%s,"ph":"b","pid":3,"tid":%s,"ts":%s}'
)
_END = '{"args":{},"cat":"request","id":%s,"name":%s,"ph":"e","pid":3,"tid":%s,"ts":%s}'
_SHED = '{"args":{"rid":%s},"cat":"request","name":%s,"ph":"i","pid":3,"s":"t","tid":%s,"ts":%s}'
_INSTANT = '{"args":{"batch":%s%s},"cat":"%s","name":%s,"ph":"i","pid":4,"s":"t","tid":0,"ts":%s}'
# a counter is _COUNTER_HEAD + value + its series' tail + ts + "}"
_COUNTER_HEAD = '{"args":{"value":'
_COUNTER_TAIL = '},"name":%s,"ph":"C","pid":5,"tid":0,"ts":'
_META = '{"args":{"name":%s},"name":"%s","ph":"M","pid":%s,"tid":%s}'

_string = encode_basestring_ascii  # the string escaper json.dumps uses
_encode = json.JSONEncoder(separators=(",", ":")).encode


def _numbers(column: list | tuple) -> list[str]:
    """Each value of a numeric column as ``json.dumps`` writes it: one
    encoder call per column, split on the commas between values (no
    number, bool or null contains one)."""
    return _encode(column)[1:-1].split(",") if column else []


def _columns(rows: list[tuple], width: int) -> list[tuple]:
    """A columnar store's rows transposed into ``width`` columns."""
    return list(zip(*rows, strict=True)) or [()] * width


def _counter_rows(sampler: Sampler) -> list[str]:
    """The sampler's rows as counter events, one text per row that has
    any key.

    Each series keeps the text of its event minus the stamp — head,
    value and name — and a row joins its series' texts with its stamp.
    A series' text is rebuilt only when its value is not the *same
    object* as in the previous row: most samples repeat their series'
    previous float object, and the same object always prints the same
    text.  Never reuse by equal value — ``0.0 == -0.0`` prints
    differently."""
    changed: list = []  # per row: the positions whose value object changed
    fresh: list = []  # the values at those positions, in order
    keys = values = None
    for row_keys, row_values in zip(sampler.keys, sampler.values, strict=True):
        if row_keys == keys:
            at = list(compress(range(len(row_keys)), map(is_not, row_values, values)))
        else:
            at = range(len(row_keys))
        changed.append(at)
        fresh += map(row_values.__getitem__, at)
        keys, values = row_keys, row_values
    texts = iter(_numbers(fresh))
    out: list[str] = []
    keys = None
    for row_keys, at, stamp in zip(
        sampler.keys, changed, _numbers(sampler.stamps), strict=True
    ):
        if row_keys != keys:
            keys = row_keys
            tails = [_COUNTER_TAIL % _string(k) for k in keys]
            series = [""] * len(keys)
        for i in at:
            series[i] = _COUNTER_HEAD + next(texts) + tails[i]
        if series:
            out.append((stamp + "},").join(series) + stamp + "}")
    return out


def _spans(events: list[str], cat: str, pid: int, *columns) -> None:
    """Append one ``X`` event per row of the columns
    ``args, dur, name, tid, ts``."""
    events += [
        _SPAN % (args, cat, dur, name, pid, tid, ts)
        for args, dur, name, tid, ts in zip(*columns, strict=True)
    ]


def chrome_trace_json(tracer: Tracer, *, label: str = "serve") -> str:
    """Render ``tracer`` as Chrome trace-event JSON text (see module doc)."""
    events: list[str] = []
    threads: dict[tuple[int, int], str] = {}

    # -- priority-class lanes: execution segments + backoff waits ------
    batch, kind, prio, start, dur = _columns(tracer.segments, 5)
    for p in dict.fromkeys(prio):
        threads.setdefault((_PID_CLASSES, p), f"class p{p}")
    exec_cols = (
        ['"batch":' + b for b in _numbers(batch)],
        _numbers(dur),
        [_string(f"{k}#b{b}") for k, b in zip(kind, batch, strict=True)],
    )
    exec_starts = _numbers(start)
    _spans(events, "exec", _PID_CLASSES, *exec_cols, _numbers(prio), exec_starts)
    batch, kind, prio, start, end = _columns(tracer.waits, 5)
    for p in dict.fromkeys(prio):
        threads.setdefault((_PID_CLASSES, p), f"class p{p}")
    _spans(
        events,
        "backoff",
        _PID_CLASSES,
        ['"batch":' + b for b in _numbers(batch)],
        _numbers([e - s for s, e in zip(start, end, strict=True)]),
        [_string(f"{k}#b{b} backoff") for k, b in zip(kind, batch, strict=True)],
        _numbers(prio),
        _numbers(start),
    )

    # -- tensor-unit lanes: per-level spans (stepwise runs); fall back
    # to mirroring segments on the serial lane so the view never blanks
    if tracer.levels:
        batch, level, units, start, end = _columns(tracer.levels, 5)
        lanes = [u if u else (-1,) for u in units]  # -1: the serial lane
        for unit in dict.fromkeys(u for lane in lanes for u in lane):
            threads.setdefault(
                (_PID_UNITS, unit + 1), "serial" if unit < 0 else f"unit {unit}"
            )

        def per_unit(column: list[str]) -> list[str]:
            """Each row's text once per unit the level ran on."""
            return [text for text, lane in zip(column, lanes, strict=True) for _ in lane]

        level_args = [
            f'"batch":{b},"level":{lv}'
            for b, lv in zip(_numbers(batch), _numbers(level), strict=True)
        ]
        _spans(
            events,
            "level",
            _PID_UNITS,
            per_unit(level_args),
            per_unit(_numbers([e - s for s, e in zip(start, end, strict=True)])),
            per_unit([_string(f"b{b}/L{lv}") for b, lv in zip(batch, level, strict=True)]),
            _numbers([unit + 1 for lane in lanes for unit in lane]),  # unit u: thread u+1
            per_unit(_numbers(start)),
        )
    else:
        threads.setdefault((_PID_UNITS, 0), "serial")
        serial = ["0"] * len(exec_starts)
        _spans(events, "exec", _PID_UNITS, *exec_cols, serial, exec_starts)

    # -- request lifecycle: async spans, one track per request id ------
    rid, kind, prio, outcome, arrival, _, finish, batch, met = _columns(
        tracer.requests, 9
    )
    for p in dict.fromkeys(prio):
        threads.setdefault((_PID_REQUESTS, p), f"class p{p}")
    for r, k, o, m, r_s, p_s, a_s, f_s, b_s, m_s in zip(
        rid,
        kind,
        outcome,
        met,
        *map(_numbers, (rid, prio, arrival, finish, batch, met)),
        strict=True,
    ):
        if o == "shed":
            events.append(_SHED % (r_s, _string(f"{k}#r{r} shed"), p_s, a_s))
            continue
        name = _string(f"{k}#r{r}")
        slo = "" if m is None else ',"slo_met":' + m_s
        events.append(_BEGIN % (b_s, _string(o), r_s, slo, r_s, name, p_s, a_s))
        events.append(_END % (r_s, name, p_s, f_s))

    # -- faults & alerts: instants + crash-repair windows --------------
    threads.setdefault((_PID_EVENTS, 0), "events")
    name, ts, batch, detail = _columns(tracer.instants, 4)
    for n, d, t_s, b_s in zip(name, detail, _numbers(ts), _numbers(batch), strict=True):
        extra = ',"detail":' + _string(d) if d else ""
        cat = "fault" if not n.startswith("alert:") else "alert"
        events.append(_INSTANT % (b_s, extra, cat, _string(n), t_s))
    if tracer.downs:
        threads.setdefault((_PID_EVENTS, 1), "unit repair")
        start, end = _columns(tracer.downs, 2)
        count = len(start)
        _spans(
            events,
            "down",
            _PID_EVENTS,
            [""] * count,
            _numbers([e - s for s, e in zip(start, end, strict=True)]),
            ['"unit down"'] * count,
            ["1"] * count,
            _numbers(start),
        )

    # -- metrics: counter tracks from the sampler ----------------------
    if tracer.sampler is not None:
        events += _counter_rows(tracer.sampler)

    meta = [
        _META % (_string(f"{label}: {pname}"), "process_name", pid, 0)
        for pid, pname in _PROCESS_NAMES.items()
    ]
    keys = sorted(threads)
    pids, tids = _numbers([k[0] for k in keys]), _numbers([k[1] for k in keys])
    meta += [
        _META % (_string(threads[key]), "thread_name", pid, tid)
        for key, pid, tid in zip(keys, pids, tids, strict=True)
    ]
    return '{"displayTimeUnit":"ms","traceEvents":[' + ",".join(meta + events) + "]}"


def to_chrome_trace(tracer: Tracer, *, label: str = "serve") -> dict:
    """The trace-event dict: :func:`chrome_trace_json`'s text, parsed."""
    return json.loads(chrome_trace_json(tracer, label=label))


def write_chrome_trace(tracer: Tracer, path: str | Path, *, label: str = "serve") -> Path:
    """Write the Perfetto-loadable trace JSON to ``path`` and return it."""
    out = Path(path)
    out.write_text(chrome_trace_json(tracer, label=label))
    return out


_PHASES = {"X", "i", "b", "e", "M", "C"}


def validate_chrome_trace(trace: dict) -> None:
    """Schema-check a trace dict; raises :class:`ObsError` on the first
    violation.  Covers the subset of the trace-event format the
    exporter emits (and Perfetto requires to render it)."""
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        raise ObsError("trace must be a dict with a 'traceEvents' list")
    if not isinstance(trace["traceEvents"], list):
        raise ObsError("'traceEvents' must be a list")
    for i, ev in enumerate(trace["traceEvents"]):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            raise ObsError(f"{where} is not an object")
        ph = ev.get("ph")
        if ph not in _PHASES:
            raise ObsError(f"{where} has unknown phase {ph!r}")
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            raise ObsError(f"{where} is missing a name")
        for field in ("pid", "tid"):
            if not isinstance(ev.get(field), int):
                raise ObsError(f"{where} is missing integer {field!r}")
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or not math.isfinite(ts) or ts < 0:
            raise ObsError(f"{where} has invalid ts {ts!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or not math.isfinite(dur) or dur < 0:
                raise ObsError(f"{where} has invalid dur {dur!r}")
        if ph in ("b", "e") and "id" not in ev:
            raise ObsError(f"{where} async event is missing an id")
        if ph == "i" and ev.get("s") not in ("t", "p", "g"):
            raise ObsError(f"{where} instant has invalid scope {ev.get('s')!r}")
        if ph == "C":
            args = ev.get("args")
            if not isinstance(args, dict) or not all(
                isinstance(v, (int, float)) for v in args.values()
            ):
                raise ObsError(f"{where} counter needs numeric args")
    try:
        json.dumps(trace)
    except (TypeError, ValueError) as exc:
        raise ObsError(f"trace is not JSON-serialisable: {exc}") from exc


def _fmt(value: float) -> str:
    value = float(value)  # a numpy scalar's repr is not a sample value
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def prometheus_text(registry: MetricsRegistry, *, ts: float | None = None) -> str:
    """Render ``registry`` in the Prometheus text exposition format.

    ``ts``, when given, stamps every sample with the (simulated)
    timestamp — truncated to an integer, as the format requires.
    """
    stamp = f" {int(ts)}" if ts is not None else ""
    lines: list[str] = []
    seen_header: set[str] = set()
    for metric in registry:
        if metric.name not in seen_header:
            seen_header.add(metric.name)
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, Histogram):
            base = metric.name
            labels = dict(metric.labels)
            cumulative = 0
            for bound, count in zip(metric.bounds, metric.counts, strict=False):
                cumulative += count
                le = {**labels, "le": _fmt(bound)}
                body = ",".join(f'{k}="{v}"' for k, v in sorted(le.items()))
                lines.append(f"{base}_bucket{{{body}}} {cumulative}{stamp}")
            body = ",".join(
                f'{k}="{v}"' for k, v in sorted({**labels, "le": "+Inf"}.items())
            )
            lines.append(f"{base}_bucket{{{body}}} {metric.count}{stamp}")
            suffix = (
                "{" + ",".join(f'{k}="{v}"' for k, v in sorted(labels.items())) + "}"
                if labels
                else ""
            )
            lines.append(f"{base}_sum{suffix} {_fmt(metric.sum)}{stamp}")
            lines.append(f"{base}_count{suffix} {metric.count}{stamp}")
        else:
            value = metric.value  # type: ignore[attr-defined]
            lines.append(f"{metric.full_name} {_fmt(value)}{stamp}")
    return "\n".join(lines) + "\n"
