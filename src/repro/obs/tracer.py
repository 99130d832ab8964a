"""The span tracer: request-scoped telemetry on the ledger clock.

A :class:`Tracer` is handed to :class:`~repro.serve.engine.ServingEngine`
(``tracer=`` keyword) and filled in during :meth:`serve`.  Every
timestamp it stores is read off the simulated clock — the ledger — so
the trace is a deterministic artifact of ``(workload seed, fault
seed)``: two replays produce byte-identical exports.  With
``tracer=None`` (the default) the engine takes the exact untraced code
path, bit-identical to previous revisions.

Hot-path design: emission methods append one small tuple per event
(levels, waits, instants…), and the costs scale with batches, not
requests: a completed batch is one :meth:`batch_done` call and one
tuple holding its last segment, its batch row and its requests (their
rows in the run's request table), and the :attr:`requests`,
:attr:`segments` and :attr:`batch_rows` rows are built only when read.
Nothing is formatted, no objects are built, and no clock is *computed*
— callers pass timestamps they already hold (the ``OBS001`` lint rule
enforces that those are names bound from the ledger clock, not
recomputed expressions).

Detail levels
-------------

``detail="auto"`` (default) records request lifecycle, execution
segments, batch accounting and fault events — everything needed to
reconcile against the ledger identity — and per-*level* spans whenever
the engine is already executing stepwise (preemption or active fault
injection).  ``detail="level"`` forces stepwise execution so level
spans (with their tensor-unit lanes) are always recorded; charges are
bit-identical either way (stepwise parity is a standing engine gate),
only the event granularity changes.

Serving metrics
---------------

:meth:`Tracer.begin_run` registers a served run's metrics: the gauges
``queue_depth``, ``in_flight_rows``, ``availability`` and
``cache_hit_rate``, the counters ``requests_completed``,
``requests_shed``, ``requests_abandoned``, ``preemptions``, ``faults``
and ``retries``, the ``request_latency`` histogram, and a class's
``slo_attainment`` gauge at its first SLO outcome.  The engine hands
:meth:`Tracer.sample` the run's state when the sampler is due and when
the run ends, and each metric is computed from it by one formula, with
or without a sampler; a counter adds the run's total to its value at
run start.  Completed requests are folded by mode: under a sampler each
one as its batch completes, in completion order, as the exported
samples pin; without one the whole run at its end, its latencies in one
``observe_many`` call.  SLO monitors see each outcome as its batch
completes.

Reconciliation
--------------

Segment durations are stored as the *exact* floats the engine adds to
its busy time, in the same order, so ``sum(tracer segment durs) ==
result.busy_time`` holds bit-exactly — and likewise per batch against
``BatchRecord.service``.  Batch rows carry the ledgered
``service``/``reload``/``wasted`` split, closing the loop with the
accounting identity ``total = useful + wasted + reload``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from .metrics import MetricsRegistry
from .sampler import Sampler, SloBurnMonitor
from .spans import ObsError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..core.ledger import CostLedger
    from ..serve.table import RequestRows

__all__ = ["Tracer"]

_DETAILS = ("auto", "level")

#: ledger charge categories mirrored into registry counters
_CHARGE_CATEGORIES = ("tensor", "cpu", "reload", "wasted")

#: a served run's gauges (name, help) and counters, in Tracer.sample's order
_GAUGES = (
    ("queue_depth", "requests waiting in class queues"),
    ("in_flight_rows", "rows of the running batch"),
    ("availability", "completed over completed + abandoned"),
    ("cache_hit_rate", "plan-cache hit fraction, this run"),
)
_COUNTERS = (
    "requests_completed", "requests_shed", "requests_abandoned", "preemptions", "faults",
    "retries",
)


def _assign(metric, value: float) -> None:
    """Set ``metric`` to ``value`` unless it holds that value already."""
    if value != metric.value:
        metric.value = value


class Tracer:
    """Collects spans, instants, metrics and alerts for one served run.

    Parameters
    ----------
    detail:
        ``"auto"`` (default) or ``"level"`` — see the module docstring.
    sample_every:
        Simulated-time pitch for registry snapshots (``None`` disables
        sampling).
    monitors:
        :class:`~repro.obs.sampler.SloBurnMonitor` instances fed every
        SLO outcome; their firing/resolved transitions land in
        :attr:`alerts` and as trace instants.
    registry:
        An existing :class:`MetricsRegistry` to write into (a fresh one
        by default).

    A tracer records one run; hand a fresh instance to each
    :meth:`~repro.serve.engine.ServingEngine.serve` call, which calls
    :meth:`begin_run` before any event method and :meth:`sample` last.
    """

    def __init__(
        self,
        *,
        detail: str = "auto",
        sample_every: float | None = None,
        monitors: tuple[SloBurnMonitor, ...] | list[SloBurnMonitor] = (),
        registry: MetricsRegistry | None = None,
    ) -> None:
        if detail not in _DETAILS:
            raise ObsError(f"unknown detail {detail!r}; choose one of {_DETAILS}")
        self.detail = detail
        self.registry = registry if registry is not None else MetricsRegistry()
        self.sampler = Sampler(sample_every) if sample_every is not None else None
        self.monitors = tuple(monitors)
        # columnar event stores — one tuple append per event.  The log
        # holds, in emission order, segment rows (5 fields), request rows
        # (9) and completed batches (12: batch, kind, prio, requests,
        # launch, finish, service, reload, wasted, faults, start, dur),
        # which the segments, requests and batch_rows views expand
        self._log: list[tuple] = []
        self.levels: list[tuple] = []  # (batch, level, units, start, end)
        self.waits: list[tuple] = []  # (batch, kind, prio, start, end)
        self.downs: list[tuple] = []  # (start, end)
        self.reloads: list[tuple] = []  # (batch, ts, amount)
        self.instants: list[tuple] = []  # (name, ts, batch, detail)
        self.alerts: list[tuple] = []  # (monitor, state, ts, burn, attainment)

    # -- row views (built on each read) ---------------------------------
    @property
    def requests(self) -> list[tuple]:
        """One row per request, in emission order: ``(rid, kind, prio,
        outcome, arrival, launch, finish, batch, met)``.  A completed
        batch's done rows are read off the request-table rows that
        :meth:`batch_done` holds, on every read (every request of a
        batch shares its class and launch; the engine does not write a
        row again once its request completes)."""
        rows: list[tuple] = []
        for entry in self._log:
            if len(entry) == 9:
                rows.append(entry)
            elif len(entry) == 12:
                batch, kind, prio, requests, launch, finish = entry[:6]
                rows += [
                    (
                        rid, kind, prio, "done", arrival, launch, finish, batch,
                        None if slo is None else finish - arrival <= slo,
                    )
                    for rid, arrival, slo in requests.slo_stamps()
                ]
        return rows

    @property
    def segments(self) -> list[tuple]:
        """One row per execution segment, in emission order: ``(batch,
        kind, prio, start, dur)``."""
        return [
            entry if len(entry) == 5 else (*entry[:3], entry[10], entry[11])
            for entry in self._log
            if len(entry) != 9
        ]

    @property
    def batch_rows(self) -> list[tuple]:
        """One row per completed batch: ``(batch, kind, prio, size,
        launch, finish, service, reload, wasted, faults)``."""
        return [
            (*entry[:3], len(entry[3]), *entry[4:10])
            for entry in self._log
            if len(entry) == 12
        ]

    # -- request lifecycle --------------------------------------------
    def request_shed(
        self, rid: int, kind: str, priority: int, arrival: float, *, ts: float
    ) -> None:
        self._log.append(
            (rid, kind, priority, "shed", arrival, math.nan, ts, -1, None)
        )

    def request_abandoned(
        self,
        rid: int,
        kind: str,
        priority: int,
        arrival: float,
        launch: float,
        batch: int,
        *,
        ts: float,
    ) -> None:
        self._log.append(
            (rid, kind, priority, "abandoned", arrival, launch, ts, batch, None)
        )

    # -- execution ----------------------------------------------------
    def segment(
        self, batch: int, kind: str, priority: int, *, start: float, dur: float
    ) -> None:
        self._log.append((batch, kind, priority, start, dur))

    def level_span(
        self,
        batch: int,
        level: int,
        units: tuple[int, ...],
        *,
        start: float,
        end: float,
    ) -> None:
        self.levels.append((batch, level, units, start, end))

    def batch_done(
        self,
        batch: int,
        kind: str,
        priority: int,
        requests: RequestRows,
        service: float,
        reload: float,
        wasted: float,
        faults: int,
        *,
        launch: float,
        start: float,
        dur: float,
        ts: float,
    ) -> None:
        """Record a completed batch as one entry: its last execution
        segment (``start``, ``dur``), its batch row and the done rows of
        its ``requests`` (finished at ``ts``).  ``requests`` are the
        batch's rows in the run's request table; the tracer reads their
        done rows off the table when :attr:`requests` is read.  Under a
        sampler each request's latency and SLO outcome are folded now, in
        row order, and the monitors see each outcome now."""
        self._log.append(
            (batch, kind, priority, requests, launch, ts, service, reload,
             wasted, faults, start, dur)
        )
        self._done += len(requests.index)
        if self.sampler is not None or self.monitors:
            self._judge(priority, requests, ts)

    # -- faults -------------------------------------------------------
    def wait(
        self, batch: int, kind: str, priority: int, *, start: float, end: float
    ) -> None:
        self.waits.append((batch, kind, priority, start, end))

    def down(self, *, start: float, end: float) -> None:
        self.downs.append((start, end))

    def reload_event(self, batch: int, amount: float, *, ts: float) -> None:
        self.reloads.append((batch, ts, amount))

    def instant(
        self, name: str, *, ts: float, batch: int = -1, detail: str = ""
    ) -> None:
        self.instants.append((name, ts, batch, detail))

    # -- SLO monitoring -----------------------------------------------
    def observe_slo(self, priority: int, met: bool, *, ts: float) -> None:
        for monitor in self.monitors:
            if monitor.priority is not None and monitor.priority != priority:
                continue
            fired = monitor.observe(met, ts=ts)
            if fired is not None:
                state, burn, attainment = fired
                self.alerts.append((monitor.name, state, ts, burn, attainment))
                self.instants.append(
                    (
                        f"alert:{monitor.name}:{state}",
                        ts,
                        -1,
                        f"burn={burn:.3f} attainment={attainment:.3f}",
                    )
                )

    # -- ledger hook --------------------------------------------------
    def bind_ledger(self, ledger: CostLedger) -> None:
        """Mirror the ledger's charge stream into registry counters
        (``ledger_tensor_time``, ``ledger_cpu_time``, …).  The hook only
        observes — charges and clock are untouched.

        Each counter adds its charges one by one, left to right, as one
        ``on_charge`` call per charge would; a replayed plan hands its
        whole charge sequence over in one ``on_charges`` call, folded in
        one loop.  Never fold with ``sum()``: Python 3.12 compensates
        it, so its last bits differ from left-to-right addition."""
        if ledger.on_charge is not None or ledger.on_charges is not None:
            raise ObsError("ledger already carries a charge hook")
        counters = {
            cat: self.registry.counter(
                f"ledger_{cat}_time", f"cumulative ledger {cat} charges"
            )
            for cat in _CHARGE_CATEGORIES
        }

        def hook(category: str, amount: float, _c=counters) -> None:
            _c[category].value += amount

        def bulk(charges: Sequence[tuple[str, float]], _c=counters) -> None:
            for category, amount in charges:
                _c[category].value += amount

        ledger.on_charge = hook
        ledger.on_charges = bulk

    def unbind_ledger(self, ledger: CostLedger) -> None:
        ledger.on_charge = ledger.on_charges = None

    # -- serving metrics ----------------------------------------------
    def begin_run(self, ledger: CostLedger, cache=None) -> None:
        """Start observing a served run: mirror ``ledger``'s charges
        (:meth:`bind_ledger`) and register the run's metrics (see the
        module docstring); ``cache_hit_rate`` counts ``cache``'s lookups
        from now on."""
        self.bind_ledger(ledger)
        registry = self.registry
        self._gauges = [registry.gauge(name, text) for name, text in _GAUGES]
        self._counters = [registry.counter(name) for name in _COUNTERS]
        self._bases = [counter.value for counter in self._counters]
        bounds = tuple(10.0**k for k in range(-3, 10))
        self._latency = registry.histogram(
            "request_latency", bounds, "end-to-end request latency (model time)"
        )
        self._cache = cache
        self._cache_base = (cache.hits, cache.misses) if cache is not None else (0, 0)
        # the run as last read: lookups, queued requests, the running
        # batch's rows, completed requests and the other counters' totals
        self._lookups, self._depth, self._rows = sum(self._cache_base), -1, ()
        self._done = self._counted = 0  # requests completed (batch_done), read
        self._totals = (0,) * (len(_COUNTERS) - 1)
        self._logged = len(self._log)  # log entries folded, or from earlier runs
        self._slo: dict[int, list] = {}  # priority -> [met, judged, gauge]

    def sample(self, state: tuple, *, ts: float) -> None:
        """Bring the run's metrics up to its ``state`` and, with a
        sampler, record a sample at ``ts``.  The engine calls it when the
        sampler is due and when the run ends; without a sampler, that is
        the one call, and it folds the run's completed requests.

        ``state`` is ``(queues, rows, totals)``: the class queues (sized
        containers of queued requests), the running batch's rows (empty
        while the machine is idle) and the run's shed, abandoned,
        preemption, fault and retry totals.  A metric is assigned only
        when its value changed, so a sample repeats the float object the
        exporter has already formatted."""
        if self.sampler is None:
            self._fold()
        queues, rows, totals = state
        depth = sum(map(len, queues))
        if depth != self._depth:
            self._depth = depth
            self._gauges[0].value = float(depth)
        if rows is not self._rows:
            self._rows = rows
            _assign(self._gauges[1], float(sum(rows)))
        if self._done != self._counted:
            self._complete()
        if totals != self._totals:
            self._count(totals)
        cache = self._cache
        if cache is not None and cache.hits + cache.misses != self._lookups:
            self._lookups = cache.hits + cache.misses
            hits, misses = self._cache_base
            _assign(self._gauges[3], (cache.hits - hits) / (self._lookups - hits - misses))
        if self.sampler is not None:
            self.sampler.sample(self.registry, ts=ts, force=True)

    def _complete(self) -> None:
        """``requests_completed``, ``availability`` and SLO attainment."""
        done = self._counted = self._done
        self._counters[0].value = self._bases[0] + done
        _assign(self._gauges[2], done / (done + self._totals[1]))
        for met, judged, gauge in self._slo.values():
            _assign(gauge, met / judged)

    def _count(self, totals: tuple) -> None:
        """The other counters, and ``availability`` after abandonments."""
        for counter, base, total, seen in zip(
            self._counters[1:], self._bases[1:], totals, self._totals, strict=True
        ):
            if total != seen:
                counter.value = base + total
        if totals[1] != self._totals[1]:  # abandoned
            _assign(self._gauges[2], self._done / (self._done + totals[1]))
        self._totals = totals

    def _judge(self, priority: int, requests: RequestRows, finish: float) -> None:
        """Each request of a completed batch, in row order: the monitors see
        its SLO outcome; under a sampler, the histogram and tally fold it."""
        sampled = self.sampler is not None
        table, rows = requests.table, requests.index
        for arrival, slo in zip(
            table.arrival[rows].tolist(), table.slo[rows].tolist(), strict=True
        ):
            latency = finish - arrival
            if sampled:
                self._latency.observe(latency)
            if slo == slo:  # NaN: no objective
                met = latency <= slo
                self.observe_slo(priority, met, ts=finish)
                if sampled:
                    self._tally(priority, met, 1)

    def _fold(self) -> None:
        """A samplerless run's completed requests, at its end: one
        ``observe_many`` call in completion order, then each class's tally."""
        done = [entry[3] for entry in self._log[self._logged :] if len(entry) == 12]
        self._logged = len(self._log)
        if not done:
            return
        table = done[0].table
        rows = np.concatenate([requests.index for requests in done])
        latency = table.completion[rows] - table.arrival[rows]
        self._latency.observe_many(latency)
        objectives = table.slo[rows]
        judged = objectives == objectives  # NaN: no objective
        met, classes = latency[judged] <= objectives[judged], table.priority[rows][judged]
        for priority in dict.fromkeys(classes.tolist()):
            mine = classes == priority
            self._tally(priority, np.count_nonzero(met[mine]), np.count_nonzero(mine))

    def _tally(self, priority: int, met: int, judged: int) -> None:
        """Count SLO outcomes; a class's gauge registers at its first."""
        tally = self._slo.get(priority)
        if tally is None:
            gauge = self.registry.gauge("slo_attainment", labels={"class": str(priority)})
            tally = self._slo[priority] = [0, 0, gauge]
        tally[0] += int(met)
        tally[1] += int(judged)

    # -- reconciliation -----------------------------------------------
    def exec_time(self) -> float:
        """Sum of segment durations, in emission order — bit-identical
        to the engine's ``busy_time`` left-fold."""
        total = 0.0
        for row in self.segments:
            total += row[4]
        return total

    def exec_time_by_batch(self) -> dict[int, float]:
        """Per-batch segment-duration sums (same fold order as the
        engine's ``run.service`` accumulation — bit-exact per batch)."""
        out: dict[int, float] = {}
        for batch, _, _, _, dur in self.segments:
            out[batch] = out.get(batch, 0.0) + dur
        return out

    def span_totals(self) -> dict[str, float]:
        """Run-level totals from the *completed-batch* rows:
        ``exec`` (all segments, including abandoned batches'),
        ``service``/``reload``/``wasted`` (completed batches), and
        ``useful`` per the ledger identity."""
        service = reload = wasted = 0.0
        for row in self.batch_rows:
            service += row[6]
            reload += row[7]
            wasted += row[8]
        return {
            "exec": self.exec_time(),
            "service": service,
            "reload": reload,
            "wasted": wasted,
            "useful": service - reload - wasted,
        }

    def events_total(self) -> int:
        """Total stored events across every category (overhead gauge)."""
        return (
            len(self.requests)
            + len(self.segments)
            + len(self.levels)
            + len(self.batch_rows)
            + len(self.waits)
            + len(self.downs)
            + len(self.reloads)
            + len(self.instants)
            + len(self.alerts)
        )
