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
recomputed expressions).  The structured :class:`~repro.obs.spans.Span`
view is materialised only on demand (:meth:`spans`, exporters).

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

from .metrics import MetricsRegistry
from .sampler import Sampler, SloBurnMonitor
from .spans import Instant, ObsError, Span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..core.ledger import CostLedger
    from ..serve.table import RequestRows

__all__ = ["Tracer"]

_DETAILS = ("auto", "level")

#: ledger charge categories mirrored into registry counters
_CHARGE_CATEGORIES = ("tensor", "cpu", "reload", "wasted")


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
    :meth:`~repro.serve.engine.ServingEngine.serve` call.
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
    def request_done(
        self,
        rid: int,
        kind: str,
        priority: int,
        arrival: float,
        launch: float,
        batch: int,
        *,
        ts: float,
        met: bool | None = None,
    ) -> None:
        self._log.append(
            (rid, kind, priority, "done", arrival, launch, ts, batch, met)
        )

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
        done rows off the table when :attr:`requests` is read."""
        self._log.append(
            (batch, kind, priority, requests, launch, ts, service, reload,
             wasted, faults, start, dur)
        )

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

    # -- materialised views -------------------------------------------
    def spans(self) -> list[Span]:
        """Structured :class:`Span` view of every stored interval."""
        out: list[Span] = []
        for rid, kind, prio, outcome, arrival, launch, finish, batch, met in (
            self.requests
        ):
            if outcome == "shed" or math.isnan(launch):
                continue
            out.append(
                Span(
                    name=f"{kind}#r{rid}",
                    cat="queue",
                    start=arrival,
                    dur=launch - arrival,
                    lane=f"class p{prio}",
                    args={"outcome": outcome, "batch": batch, "met": met},
                )
            )
        for batch, kind, prio, start, dur in self.segments:
            out.append(
                Span(
                    name=f"{kind}#b{batch}",
                    cat="exec",
                    start=start,
                    dur=dur,
                    lane=f"class p{prio}",
                    args={"batch": batch},
                )
            )
        for batch, level, units, start, end in self.levels:
            lanes = units if units else (-1,)
            for unit in lanes:
                out.append(
                    Span(
                        name=f"b{batch}/L{level}",
                        cat="level",
                        start=start,
                        dur=end - start,
                        lane="serial" if unit < 0 else f"unit {unit}",
                        args={"batch": batch, "level": level},
                    )
                )
        for batch, kind, prio, start, end in self.waits:
            out.append(
                Span(
                    name=f"{kind}#b{batch} backoff",
                    cat="backoff",
                    start=start,
                    dur=end - start,
                    lane=f"class p{prio}",
                    args={"batch": batch},
                )
            )
        for start, end in self.downs:
            out.append(
                Span(
                    name="unit down",
                    cat="down",
                    start=start,
                    dur=end - start,
                    lane="faults",
                )
            )
        return out

    def instant_events(self) -> list[Instant]:
        """Structured :class:`Instant` view (fault/preempt/retry/alert)."""
        out = [
            Instant(name=name, ts=ts, lane="faults", args={"batch": batch, "detail": d})
            for name, ts, batch, d in self.instants
        ]
        for monitor, state, ts, burn, attainment in self.alerts:
            out.append(
                Instant(
                    name=f"slo:{monitor}",
                    ts=ts,
                    lane="alerts",
                    args={"state": state, "burn": burn, "attainment": attainment},
                )
            )
        return out
