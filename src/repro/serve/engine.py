"""The serving engine: a preemptible event kernel over the ledger clock.

:class:`ServingEngine` turns the repo's offline machinery into an
online simulator: requests arrive (from a :class:`~repro.serve.workload.Workload`),
pass an :class:`~repro.serve.admission.AdmissionPolicy` (or are shed),
queue per *class* — a ``(priority, kind)`` pair — are grouped by a
:class:`~repro.serve.batcher.BatchPolicy`, and each released batch is
lowered through its request type's :meth:`~repro.serve.workload.RequestType.plan`
and executed **level by level** on an
:class:`~repro.core.program.ExecutionCursor`.  The simulated clock is
the model clock: every segment of a batch's execution advances the
engine clock by exactly the span of
:attr:`~repro.core.ledger.CostLedger.clock` it charges, so on a
:class:`~repro.core.parallel.ParallelTCUMachine` the clock advances by
scheduled makespans while the call trace keeps the true per-call
hardware work — the PR3 invariant, now driven by live traffic.

The loop is a discrete-event kernel over three event kinds, processed
in deterministic order (level-complete before arrival before release at
equal times, matching the run-to-completion engine's tie-breaks):

* **arrival** — the next request of the merged open-loop/injected
  stream joins its class queue, or is shed by the admission policy.
  While a batch runs, every arrival due before its next boundary is
  admitted in one pass, one policy call per run of consecutive arrivals
  bound for the same class queue (an arrival that is NaN, infinite or
  earlier than the one before it raises :class:`ServeError`; a streamed
  chunk is checked when it is read, a follow-up when it is injected and
  when it arrives);
* **release** — a class queue whose batching policy fires becomes a
  running batch (earliest release first, higher class on ties; see
  :func:`~repro.serve.batcher.priority_release`);
* **level-complete** — the running cursor finished a level.  If the
  plan is exhausted the batch completes; otherwise, with preemption
  enabled, a strictly-higher-priority release due *now* checkpoints the
  batch at this boundary (its op values persist; nothing is charged)
  and the suspended cursor rejoins the scheduler.  Resuming later
  re-loads the remaining levels' resident blocks through the ledger's
  ``reload`` category (:meth:`~repro.core.program.ExecutionCursor.charge_reload`)
  — checkpoint/restore is never free.

Three conservation properties pin the engine to the offline model (see
:meth:`ServeResult.check_conservation` and the replay tests):

* **Clock conservation.**  Each request's completion equals its batch's
  finish; for unpreempted batches ``finish = launch + service`` holds
  bit-exactly; the engine's busy time is the ledger-clock span of the
  whole run; and the final clock is the last completion.
* **Work conservation.**  A request type's model cost depends only on
  the batch's shapes, so replaying the recorded :class:`BatchRecord`
  stream through :func:`replay_batches` on *any* equivalently
  parameterised machine reproduces the served run's per-shape tensor
  and latency charges bit-identically.
* **Preemption conservation.**  A preempted run's charges equal the
  uninterrupted replay plus *exactly* the ledgered reload charges:
  suspension moves work in time, and the only extra cost is the
  explicitly priced resident-block re-load.

With preemption disabled and admission unbounded the kernel reproduces
the PR4 run-to-completion engine bit-identically (per-shape charges,
completions, clock) — pinned by ``tests/serve/test_preemption.py``.

Telemetry is the :class:`~repro.obs.tracer.Tracer`'s: a traced run
emits its events and hands the tracer the run's state (class queues,
the running batch's rows, shed/abandoned/preemption/fault/retry totals)
when its sampler is due and when the run ends.  The engine owns no
metric (the ``OBS002`` lint rule).

Quickstart::

    >>> from repro.core.machine import TCUMachine
    >>> from repro.serve import PoissonWorkload, ServingEngine
    >>> machine = TCUMachine(m=16, ell=64.0)
    >>> wl = PoissonWorkload(rate=1e-4, total=32, kind="matmul", rows=8, seed=1)
    >>> result = ServingEngine(machine, batcher="continuous").serve(wl)
    >>> result.completed, result.clock > 0
    (32, True)
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import count
from operator import attrgetter

import numpy as np

from ..core.ledger import CostLedger
from ..core.machine import TCUMachine
from ..core.plan_cache import PlanCache
from ..core.program import ExecutionCursor
from ..obs.tracer import Tracer
from .admission import AdmissionPolicy, get_admission
from .batcher import BatchPolicy, get_batcher, priority_release
from .faults import (
    Degrader,
    FaultEvent,
    FaultInjector,
    RetryPolicy,
    get_fault_injector,
    get_retry_policy,
)
from .table import Request, RequestRows, RequestTable, ServeError, as_rows
from .workload import Workload, get_request_type

__all__ = ["ServingEngine", "ServeResult", "BatchRecord", "ServeError", "replay_batches"]

_NO_ROWS = np.empty(0, dtype=np.int64)


def _unservable(rid: int, arrival: float, after: float) -> ServeError:
    """The error for request ``rid``'s arrival: not finite, or earlier
    than ``after``, the arrival before it."""
    if not -math.inf < arrival < math.inf:
        return ServeError(f"request {rid} arrives at {arrival}; arrivals must be finite")
    return ServeError(
        f"arrival stream is not time-ordered: request {rid} arrives at {arrival} after {after}"
    )


@dataclass(frozen=True, slots=True)
class BatchRecord:
    """One executed batch: its composition and its place on the clock.

    The ``(kind, rows)`` pair is a complete recipe for re-executing the
    batch — request types charge from shapes alone — so a list of these
    records is an exact replay script for the whole served run (the
    replay pays no ``reload``: it runs uninterrupted).

    ``service`` is the total model time the machine spent on the batch,
    including any reload overhead (broken out in ``reload_time``);
    ``finish`` is the absolute completion clock.  For an unpreempted
    batch ``finish == launch + service`` bit-exactly; a preempted batch
    additionally sat suspended for ``finish - launch - service``.

    Under fault injection a batch may take several *attempts*:
    ``attempt_spans`` records the model time each attempt charged (they
    sum to ``service`` — failed work is real work), ``wasted_time`` is
    the portion of ``service`` that produced no surviving results,
    ``faults`` counts the fault events the batch absorbed, ``retry_at``
    the clock times its retries started, and ``first_failure`` the time
    its first fault surfaced (``recovery_time`` measures failure to
    finish).  ``degraded`` names the cheaper variant the batch was
    re-planned onto (``None`` when served at full fidelity; degraded
    ``rows`` are the rows actually executed, which a degraded batch's
    requests did not originally ask for).
    """

    index: int
    kind: str
    rids: tuple[int, ...]
    rows: tuple[int, ...]
    launch: float
    service: float
    priority: int = 0
    preemptions: int = 0
    reload_time: float = 0.0
    resumes: tuple[float, ...] = ()
    finish: float = math.nan
    attempts: int = 1
    attempt_spans: tuple[float, ...] = ()
    wasted_time: float = 0.0
    faults: int = 0
    retry_at: tuple[float, ...] = ()
    first_failure: float = math.nan
    degraded: str | None = None

    @property
    def size(self) -> int:
        return len(self.rids)

    @property
    def completion(self) -> float:
        if math.isnan(self.finish):
            return self.launch + self.service
        return self.finish

    @property
    def suspended_time(self) -> float:
        """Model time the batch sat checkpointed between its segments."""
        return self.completion - self.launch - self.service

    @property
    def recovery_time(self) -> float:
        """Model time from the batch's first fault to its completion
        (0 for batches that never failed)."""
        if math.isnan(self.first_failure):
            return 0.0
        return self.completion - self.first_failure

    def to_dict(self) -> dict:
        """JSON-ready view: tuples become lists, NaN sentinels ``None``."""
        return {
            "index": self.index,
            "kind": self.kind,
            "rids": list(self.rids),
            "rows": list(self.rows),
            "launch": self.launch,
            "service": self.service,
            "priority": self.priority,
            "preemptions": self.preemptions,
            "reload_time": self.reload_time,
            "resumes": list(self.resumes),
            "finish": None if math.isnan(self.finish) else self.finish,
            "attempts": self.attempts,
            "attempt_spans": list(self.attempt_spans),
            "wasted_time": self.wasted_time,
            "faults": self.faults,
            "retry_at": list(self.retry_at),
            "first_failure": (
                None if math.isnan(self.first_failure) else self.first_failure
            ),
            "degraded": self.degraded,
        }


@dataclass
class ServeResult:
    """Everything a served run produced: per-request records, per-batch
    records, shed requests, and the run-level clock accounting.

    ``requests`` (completed, in completion order), ``shed`` and
    ``abandoned`` are read-only :class:`~repro.serve.table.RequestRows`
    sequences over the run's request table: their :class:`Request`
    records are built when read, and the checks and metrics read the
    table's columns.  A caller-built sequence of records is accepted and
    copied into a fresh table; an edited result is built with
    :func:`dataclasses.replace` from edited copies of its records.
    """

    requests: Sequence[Request]
    batches: list[BatchRecord]
    clock: float
    busy_time: float
    ledger_time: float
    policy: str
    machine: TCUMachine
    trace_start: int = 0
    trace_end: int = 0
    kind_time: dict[str, float] = field(default_factory=dict)
    shed: Sequence[Request] = ()
    preemptions: int = 0
    reload_time: float = 0.0
    admission: str = "unbounded"
    preempt: bool = False
    cache_hits: int = 0
    cache_misses: int = 0
    cache_size: int = 0
    abandoned: Sequence[Request] = ()
    wasted_time: float = 0.0
    faults: int = 0
    fault_events: list[FaultEvent] = field(default_factory=list)
    retries: int = 0
    degraded: int = 0
    injector: str = "none"
    recovery: str = "checkpoint"
    retry_policy: str = "no-retry"

    def __post_init__(self) -> None:
        self.requests = as_rows(self.requests)
        self.shed = as_rows(self.shed)
        self.abandoned = as_rows(self.abandoned)

    @property
    def completed(self) -> int:
        return len(self.requests)

    @property
    def useful_time(self) -> float:
        """Charged time that produced surviving results:
        ``ledger_time - wasted_time - reload_time``."""
        return self.ledger_time - self.wasted_time - self.reload_time

    @property
    def wasted_ratio(self) -> float:
        """Fraction of the run's charged time that was wasted work."""
        return self.wasted_time / self.ledger_time if self.ledger_time else 0.0

    @property
    def availability(self) -> float | None:
        """Completions over everything the engine committed to serve
        (completed + abandoned; shed requests never entered service).
        ``None`` when nothing entered service."""
        entered = len(self.requests) + len(self.abandoned)
        return len(self.requests) / entered if entered else None

    @property
    def cache_lookups(self) -> int:
        """Plan-cache lookups this run made (0 when caching is off)."""
        return self.cache_hits + self.cache_misses

    @property
    def cache_hit_rate(self) -> float | None:
        """Hit fraction of this run's plan-cache lookups (``None`` when
        the run made none — numeric machines, caching disabled)."""
        lookups = self.cache_lookups
        return self.cache_hits / lookups if lookups else None

    @property
    def offered(self) -> int:
        """Requests that arrived at the engine (completed + shed +
        abandoned)."""
        return len(self.requests) + len(self.shed) + len(self.abandoned)

    @property
    def shed_rate(self) -> float:
        """Fraction of offered requests the admission policy refused."""
        offered = self.offered
        return len(self.shed) / offered if offered else 0.0

    def to_dict(self) -> dict:
        """JSON-ready view of the whole run — requests, batches, shed and
        abandoned records, fault events and the run-level accounting —
        so results ship in one artifact bundle next to traces and
        metrics.  The machine is identified by its config fingerprint
        (:meth:`~repro.core.machine.TCUMachine.config_key`), not
        embedded; derived quantities (rates, ``useful_time``…) are
        properties and recompute from the stored fields.  Strict JSON:
        NaN sentinels serialise as ``null``.
        """
        return {
            "requests": [r.to_dict() for r in self.requests],
            "batches": [b.to_dict() for b in self.batches],
            "clock": self.clock,
            "busy_time": self.busy_time,
            "ledger_time": self.ledger_time,
            "policy": self.policy,
            "machine": list(self.machine.config_key()),
            "trace_start": self.trace_start,
            "trace_end": self.trace_end,
            "kind_time": dict(self.kind_time),
            "shed": [r.to_dict() for r in self.shed],
            "preemptions": self.preemptions,
            "reload_time": self.reload_time,
            "admission": self.admission,
            "preempt": self.preempt,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_size": self.cache_size,
            "abandoned": [r.to_dict() for r in self.abandoned],
            "wasted_time": self.wasted_time,
            "faults": self.faults,
            "fault_events": [
                {
                    "kind": e.kind,
                    "batch": e.batch,
                    "level": e.level,
                    "attempt": e.attempt,
                    "clock": e.clock,
                }
                for e in self.fault_events
            ],
            "retries": self.retries,
            "degraded": self.degraded,
            "injector": self.injector,
            "recovery": self.recovery,
            "retry_policy": self.retry_policy,
        }

    def check_conservation(self, rel_tol: float = 1e-9) -> None:
        """Verify the engine-clock invariants; raises :class:`ServeError`.

        Every equality is checked to ``rel_tol`` (``math.isclose`` with
        matching absolute tolerance), so externally post-processed
        results can be validated under float round-off:

        * every request completed, launched at/after its arrival, and
          its completion matches its batch's ``finish``; for an
          unpreempted batch ``finish = launch + service``, for a
          preempted one ``finish >= launch + service`` (the gap is the
          suspended time) and its reloads are non-negative;
        * shed requests were never launched, and completed + shed
          accounts for every offered request;
        * with zero preemptions batches are serial: each launch at/after
          the previous completion (the PR4 invariant);
        * the busy time (sum of segment spans) matches the ledger-clock
          span of the run, per-batch reloads sum to the run's ledgered
          reload time (abandoned batches may hold the remainder), and
          the final clock is the last completion;
        * the identity sum(latency) = sum(wait) + sum over batches of
          ``size * (finish - launch)`` holds (up to float accumulation);
        * fault accounting conserves: ``total = useful + wasted +
          reload`` (``useful_time`` is non-negative), every batch's
          attempt spans sum to its service span, batches that never
          faulted carry no waste, a zero-fault run carries none at all,
          per-batch waste sums to the run's (abandoned batches hold the
          remainder), and abandoned requests never completed.

        All fault invariants hold vacuously on degenerate runs (zero
        requests, all shed, all abandoned).
        """

        def close(a: float, b: float) -> bool:
            return math.isclose(a, b, rel_tol=rel_tol, abs_tol=rel_tol)

        def allclose(a: np.ndarray, b) -> np.ndarray:
            # element-wise math.isclose with matching absolute tolerance
            return np.isclose(a, b, rtol=rel_tol, atol=rel_tol)

        # the request table's columns and columnar views of the batch
        # records: the invariants below check whole arrays at once, and
        # only on a violation build the offending record
        requests = as_rows(self.requests)
        n = len(requests)
        arrivals = requests.column("arrival")
        launches = requests.column("launch")
        completions = requests.column("completion")
        k = len(self.batches)
        # each request's batch position (-1: no record), the last record
        # winning when indices repeat, by one search over sorted indices
        req_ids = requests.column("batch")
        req_batch = np.full(n, -1, np.int64)
        if k:
            b_index = np.fromiter(map(attrgetter("index"), self.batches), np.int64, k)
            order = np.argsort(b_index, kind="stable")
            sorted_index = b_index[order]
            slot = np.searchsorted(sorted_index, req_ids, side="right") - 1
            found = (slot >= 0) & (sorted_index[slot] == req_ids)
            req_batch[found] = order[slot[found]]
        b_launch = np.fromiter((b.launch for b in self.batches), float, k)
        b_service = np.fromiter((b.service for b in self.batches), float, k)
        b_finish = np.fromiter((b.completion for b in self.batches), float, k)
        b_reload = np.fromiter((b.reload_time for b in self.batches), float, k)
        b_size = np.fromiter((b.size for b in self.batches), np.int64, k)
        b_preempted = np.fromiter((b.preemptions for b in self.batches), np.int64, k)
        b_faults = np.fromiter((b.faults for b in self.batches), np.int64, k)
        b_wasted = np.fromiter((b.wasted_time for b in self.batches), float, k)

        if np.isnan(completions).any():
            bad = requests[int(np.isnan(completions).argmax())]
            raise ServeError(f"request {bad.rid} never completed")
        if (launches < arrivals).any():
            bad = requests[int((launches < arrivals).argmax())]
            raise ServeError(
                f"request {bad.rid} launched at {bad.launch} before its "
                f"arrival {bad.arrival}"
            )
        if (req_batch < 0).any():
            bad = requests[int((req_batch < 0).argmax())]
            raise ServeError(f"request {bad.rid} has no batch record")
        matched = allclose(completions, b_finish[req_batch]) if n else np.ones(0, bool)
        if not matched.all():
            at = int((~matched).argmax())
            bad = requests[at]
            raise ServeError(
                f"request {bad.rid} completion {bad.completion} != its "
                f"batch's finish {b_finish[req_batch[at]]}"
            )
        shed = as_rows(self.shed)
        served = ~(np.isnan(shed.column("launch")) & np.isnan(shed.column("completion")))
        if served.any():
            bad = shed[int(served.argmax())]
            raise ServeError(f"shed request {bad.rid} was served anyway")

        if (b_reload < 0).any():
            bad = self.batches[int((b_reload < 0).argmax())]
            raise ServeError(f"batch {bad.index} has negative reload time")
        serial_span = b_launch + b_service
        unpreempted_ok = (
            allclose(b_finish, serial_span) | (b_preempted > 0) | (b_faults > 0)
        )
        if not unpreempted_ok.all():
            bad = self.batches[int((~unpreempted_ok).argmax())]
            raise ServeError(
                f"unpreempted batch {bad.index} finish {bad.completion} "
                f"!= launch+service {bad.launch + bad.service}"
            )
        preempted_ok = (
            ((b_preempted == 0) & (b_faults == 0))
            | (b_finish >= serial_span)
            | allclose(b_finish, serial_span)
        )
        if not preempted_ok.all():
            bad = self.batches[int((~preempted_ok).argmax())]
            raise ServeError(
                f"preempted batch {bad.index} finished at {bad.completion}, "
                f"before its {bad.service} of service could fit"
            )
        if self.preemptions == 0 and self.faults == 0 and k:
            prev = np.concatenate(([0.0], b_finish[:-1]))
            serial_ok = (b_launch >= prev) | allclose(b_launch, prev)
            if not serial_ok.all():
                bad = self.batches[int((~serial_ok).argmax())]
                raise ServeError(
                    f"batch {bad.index} launched at {bad.launch} while the "
                    f"engine was busy until {prev[int((~serial_ok).argmax())]}"
                )
        if k:
            last = float(b_finish.max())
            if not close(self.clock, last):
                raise ServeError(
                    f"final clock {self.clock} != last completion {last}"
                )
        if not close(self.busy_time, self.ledger_time):
            raise ServeError(
                f"busy time {self.busy_time} diverged from the ledger-clock "
                f"span {self.ledger_time}"
            )
        total_reload = float(b_reload.sum())
        if self.abandoned:
            # abandoned batches left no record; their reloads stay on
            # the ledger, so the recorded batches can only hold a part
            if total_reload > self.reload_time * (1 + rel_tol) + rel_tol:
                raise ServeError(
                    f"per-batch reloads {total_reload} exceed the run's "
                    f"ledgered reload time {self.reload_time}"
                )
        elif not close(total_reload, self.reload_time):
            raise ServeError(
                f"per-batch reloads {total_reload} != the run's ledgered "
                f"reload time {self.reload_time}"
            )
        total_latency = float((completions - arrivals).sum())
        total_wait = float((launches - arrivals).sum())
        total_span = float((b_size * (b_finish - b_launch)).sum())
        if not close(total_latency, total_wait + total_span):
            raise ServeError(
                f"sum(latency)={total_latency} != sum(wait)+sum(size*span)="
                f"{total_wait + total_span}"
            )

        # fault accounting: total = useful + wasted + reload
        abandoned = as_rows(self.abandoned)
        done = ~np.isnan(abandoned.column("completion"))
        if done.any():
            bad = abandoned[int(done.argmax())]
            raise ServeError(f"abandoned request {bad.rid} completed anyway")
        if self.wasted_time < 0:
            raise ServeError(f"negative wasted time {self.wasted_time}")
        if self.useful_time < -rel_tol * max(1.0, self.ledger_time):
            raise ServeError(
                f"useful time {self.useful_time} is negative: wasted "
                f"{self.wasted_time} + reload {self.reload_time} exceed "
                f"the ledger span {self.ledger_time}"
            )
        if self.faults == 0 and not close(self.wasted_time, 0.0):
            raise ServeError(
                f"zero-fault run carries {self.wasted_time} of wasted time"
            )
        if (b_wasted < 0).any():
            bad = self.batches[int((b_wasted < 0).argmax())]
            raise ServeError(f"batch {bad.index} has negative wasted time")
        faultless_waste = (b_faults == 0) & ~allclose(b_wasted, 0.0)
        if faultless_waste.any():
            bad = self.batches[int(faultless_waste.argmax())]
            raise ServeError(
                f"batch {bad.index} never faulted but wasted {bad.wasted_time}"
            )
        total_wasted = float(b_wasted.sum())
        if self.abandoned:
            if total_wasted > self.wasted_time * (1 + rel_tol) + rel_tol:
                raise ServeError(
                    f"per-batch waste {total_wasted} exceeds the run's "
                    f"wasted time {self.wasted_time}"
                )
        elif not close(total_wasted, self.wasted_time):
            raise ServeError(
                f"per-batch waste {total_wasted} != the run's wasted "
                f"time {self.wasted_time}"
            )
        for batch in self.batches:
            if not batch.attempt_spans:
                continue
            if len(batch.attempt_spans) != batch.attempts:
                raise ServeError(
                    f"batch {batch.index} records {batch.attempts} attempts "
                    f"but {len(batch.attempt_spans)} attempt spans"
                )
            attempt_sum = float(sum(batch.attempt_spans))
            if not close(attempt_sum, batch.service):
                raise ServeError(
                    f"batch {batch.index} attempt spans sum to {attempt_sum} "
                    f"!= its service {batch.service}"
                )


class _Run:
    """An in-flight batch: its requests (their rows in the run's request
    table), cursor and clock bookkeeping.

    ``cursor`` is set by the engine's ``build_cursor`` at launch (and
    again at a degraded retry), before anything reads it.

    ``section`` is the ledger section its charges are attributed to,
    ``serve:<kind>``, named once per run.

    ``seg_clock``/``seg_base`` anchor the current execution segment on
    the engine and ledger clocks; ``boundary`` is the absolute engine
    time of the last executed level's completion.  A batch's completion
    is always computed as ``seg_clock + (ledger now - seg_base)``: for
    a single-segment batch, its launch plus the ledger time its
    execution charged.
    """

    __slots__ = (
        "index",
        "kind",
        "section",
        "priority",
        "requests",
        "cursor",
        "launch",
        "seg_clock",
        "seg_base",
        "boundary",
        "service",
        "reload",
        "preemptions",
        "resumes",
        "rows",
        "rtype",
        "exec_machine",
        "pending_fail",
        "last_span",
        "ready_at",
        "retry_pending",
        "degrade_pending",
        "degraded",
        "attempt_span",
        "attempt_reload",
        "attempt_spans",
        "retry_at",
        "wasted",
        "faults",
        "first_failure",
        "trace_mark",
    )

    def __init__(
        self, index: int, kind: str, priority: int, requests: RequestRows, launch: float
    ) -> None:
        self.index = index
        self.kind = kind
        self.section = f"serve:{kind}"
        self.priority = priority
        self.requests = requests
        self.launch = launch
        self.seg_clock = launch
        self.seg_base = 0.0
        self.boundary = launch
        self.service = 0.0
        self.reload = 0.0
        self.preemptions = 0
        self.resumes: list[float] = []
        # fault-tolerance bookkeeping (inert on a zero-fault run)
        self.rows: list[int] = []
        self.rtype = None
        self.exec_machine: TCUMachine | None = None
        self.pending_fail: str | None = None
        self.last_span = 0.0
        self.ready_at = 0.0
        self.retry_pending = False
        self.degrade_pending = False
        self.degraded: str | None = None
        self.attempt_span = 0.0
        self.attempt_reload = 0.0
        self.attempt_spans: list[float] = []
        self.retry_at: list[float] = []
        self.wasted = 0.0
        self.faults = 0
        self.first_failure = math.nan
        self.trace_mark = 0  # call-trace cursor for per-level unit lanes


class ServingEngine:
    """One machine, one batching policy, one admission policy.

    Parameters
    ----------
    machine:
        The (m, l)-TCU (or parallel machine) that executes batches.
    batcher:
        A :class:`~repro.serve.batcher.BatchPolicy` (or registered
        name) deciding when a class queue becomes a batch.
    admission:
        An :class:`~repro.serve.admission.AdmissionPolicy` (or name)
        consulted for every arrival, a same-queue run of arrivals per
        call; refusals are shed, not queued.
    preempt:
        Enable priority preemption: a strictly-higher-class release due
        at a running batch's level boundary checkpoints the batch there
        and resumes it later, paying the ledgered ``reload`` charge.
        Off by default — the engine is then bit-identical to the PR4
        run-to-completion loop.
    faults:
        A :class:`~repro.serve.faults.FaultInjector` (or registered
        name) drawing per-level faults and unit crashes from its own
        seeded streams.  ``None`` (default) or an inactive injector
        (``"none"``, or ``"seeded"`` with all rates zero) keeps the
        exact zero-fault code path — bit-identical to no injector.
    retry:
        A :class:`~repro.serve.faults.RetryPolicy` (or name) governing
        how many attempts a failed batch gets and the backoff between
        them.  Default ``"no-retry"``: any failure abandons the batch.
    recovery:
        ``"checkpoint"`` (default) resumes a failed cursor from its
        last completed level, paying the ledgered reload and wasting
        only the failed level; ``"restart"`` rewinds to level 0 and
        wastes the whole attempt.
    degrade:
        A :class:`~repro.serve.faults.Degrader`, or ``None`` (default).
        When set, a batch that keeps failing (or whose deadline the
        next backoff would blow) is re-planned onto the cheaper
        variant on its next retry.
    abandon:
        Abandon batches whose every request's deadline has already
        passed when they would launch or retry (their charges stay on
        the ledger as wasted work).  Off by default; retry-budget
        exhaustion abandons regardless.
    plan_cache:
        Plan caching for the execution hot path.  ``None`` (default)
        auto-enables a fresh :class:`~repro.core.plan_cache.PlanCache`
        on cost-only machines and disables it on numeric ones (replay
        charges costs but produces no values); ``False`` disables
        caching unconditionally; ``True`` requests a fresh cache; a
        :class:`PlanCache` instance is used as-is (and may be shared
        across engines — the config fingerprint in its key keeps
        differently parameterised machines apart).  Explicitly
        requesting a cache on a numeric machine is a :class:`ValueError`.
    tracer:
        A :class:`~repro.obs.tracer.Tracer`, or ``None`` (default).
        When set, :meth:`serve` emits request/segment/level/fault spans,
        all timestamped on the simulated clock, and hands the tracer the
        run's state for its metrics — charges, clock and results are
        bit-identical to an untraced run.  ``None`` keeps the exact
        untraced code path.  A tracer
        with ``detail="level"`` forces stepwise execution so per-level
        spans are always recorded (stepwise replay is charge-identical;
        only event granularity changes).

    With caching active, each batch's ``(kind, rows)`` is compiled once
    — priced from its shapes, never executed — into a
    :class:`~repro.core.plan_cache.CompiledPlan` and replayed thereafter
    through the same cursor as a live plan: one record per stepped
    level, or every remaining level in one pass when the cursor runs to
    exhaustion, each level advancing the clock by its recorded span, at
    a fraction of the Python cost.  Charges, clock and preemption
    behaviour are bit-identical to live execution under the condition
    :mod:`repro.core.plan_cache` states, which every serial machine with
    integer ``ell`` meets; a stencil plan's build on a parallel machine
    is the one known exception.
    """

    def __init__(
        self,
        machine: TCUMachine,
        batcher: str | BatchPolicy = "continuous",
        *,
        admission: str | AdmissionPolicy = "unbounded",
        preempt: bool = False,
        faults: str | FaultInjector | None = None,
        retry: str | RetryPolicy = "no-retry",
        recovery: str = "checkpoint",
        degrade: Degrader | None = None,
        abandon: bool = False,
        plan_cache: PlanCache | bool | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.machine = machine
        self.batcher = get_batcher(batcher)
        self.admission = get_admission(admission)
        self.preempt = bool(preempt)
        self.faults = None if faults is None else get_fault_injector(faults)
        self.retry = get_retry_policy(retry)
        if recovery not in ("checkpoint", "restart"):
            raise ValueError(
                f"unknown recovery policy {recovery!r}; "
                "choose 'checkpoint' or 'restart'"
            )
        self.recovery = recovery
        if degrade is not None and not isinstance(degrade, Degrader):
            raise ValueError(f"degrade must be a Degrader or None, got {degrade!r}")
        self.degrade = degrade
        self.abandon = bool(abandon)
        cost_only = machine.execute == "cost-only"
        if not (plan_cache is None or isinstance(plan_cache, (bool, PlanCache))):
            raise ValueError(
                f"plan_cache must be None, True, False or a PlanCache, got {plan_cache!r}"
            )
        if plan_cache is None:
            self.plan_cache = PlanCache() if cost_only else None
        elif plan_cache is False:
            self.plan_cache = None
        else:
            if not cost_only:
                raise ValueError(
                    "plan caching replays charges without producing values; "
                    'it requires a machine with execute="cost-only"'
                )
            self.plan_cache = PlanCache() if plan_cache is True else plan_cache
        if tracer is not None and not isinstance(tracer, Tracer):
            raise ValueError(f"tracer must be a Tracer or None, got {tracer!r}")
        self.tracer = tracer

    def serve(self, workload: Workload, *, seed: int | None = None) -> ServeResult:
        machine = self.machine
        ledger = machine.ledger
        policy = self.batcher
        admission = self.admission
        injector = self.faults
        retry = self.retry
        degrader = self.degrade
        # one top-level seed reproduces the whole faulty run: it splits
        # into independent workload and fault streams, so changing the
        # fault seed never shifts an arrival (and vice versa)
        if seed is not None:
            wl_state, fault_state = np.random.SeedSequence(int(seed)).generate_state(2)
            workload.reseed(int(wl_state))
            if injector is not None:
                injector.reseed(int(fault_state))
        if injector is not None:
            injector.begin_run()
        fault_active = injector is not None and injector.active
        tr = self.tracer
        tracing = tr is not None
        # an inactive injector must not perturb the event kernel at all:
        # stepwise execution is forced only when faults can actually
        # fire (or a tracer explicitly asks for per-level spans —
        # stepping a cursor charges what running it does)
        stepwise = self.preempt or fault_active or (tracing and tr.detail == "level")
        # the run's requests, one table row each: queues, batches and
        # results hold row indices, never per-request objects
        table = RequestTable()
        queues: dict[tuple[int, str], deque[int]] = {}
        queued = queues.values()  # a live view, for the tracer
        injected: list[tuple[float, int, Request]] = []
        seq = count()
        # the arrival stream, a chunk at a time: the loaded chunk's
        # arrivals as floats, the end of each of its same-queue runs and
        # that run's class queue, the table row of its first row, the
        # positions of the next arrival and of its run, and the next
        # arrival's time (inf once the stream is spent)
        chunks = iter(workload.chunks())
        s_arrival: list[float] = []
        s_ends: list[int] = []
        s_queues: list[deque[int]] = []
        s_base = 0
        s_pos = 0
        s_run = 0
        s_next = math.inf
        last_arrival = -math.inf
        # bound per run, not per engine: a wrapper installed on the
        # policy's class after the engine was built still sees every call
        admit = admission.admit
        on_complete = workload.on_complete
        if getattr(on_complete, "__func__", None) is Workload.on_complete:
            on_complete = None  # the base method injects nothing

        clock = 0.0
        completion_clock = 0.0
        running: _Run | None = None
        suspended: list[_Run] = []
        finished: list[np.ndarray] = []  # each completed batch's rows
        shed: list[int] = []
        abandoned: list[np.ndarray] = []
        abandoned_total = 0
        fault_events: list[FaultEvent] = []
        down_until = 0.0  # unit under repair until this model time
        retries_total = 0
        degraded_total = 0
        wasted_total = 0.0
        degraded_machine: TCUMachine | None = None  # lazy quantized twin
        batches: list[BatchRecord | None] = []
        full_trace = ledger.trace_calls is True
        trace_start = len(ledger.calls) if full_trace else 0
        ledger_start = ledger.clock
        reload_start = ledger.reload_time
        busy_time = 0.0
        preemptions_total = 0
        # per-run section baselines: ledger sections are cumulative over
        # the machine's lifetime, results report only this run's share
        kind_base: dict[str, float] = {}
        rtypes: dict[str, object] = {}  # per-run request-type memo
        cache = self.plan_cache
        cache_hits_start = cache.hits if cache is not None else 0
        cache_misses_start = cache.misses if cache is not None else 0

        # every emission below sits behind `if tracing`, so tracer=None
        # keeps the untraced hot path (one falsy branch per event)
        sampler = tr.sampler if tracing else None

        def run_state() -> tuple:
            """The run as the tracer's metrics read it
            (:meth:`~repro.obs.tracer.Tracer.sample`)."""
            rows = running.rows if running is not None else ()
            shed_total, faults_total = len(shed), len(fault_events)
            return queued, rows, (
                shed_total, abandoned_total, preemptions_total, faults_total, retries_total
            )

        def class_queue(key: tuple[int, str]) -> deque[int]:
            queue = queues.get(key)
            if queue is None:
                queue = queues[key] = deque()
            return queue

        def load() -> None:
            """Enter the stream's next non-empty chunk into the table, or
            mark the stream spent.  The chunk's arrivals are checked here,
            once: each must be finite and no earlier than the one before
            it (the last admitted, for its first row).  A one-class
            chunk is one same-queue run; any other is split where the
            class changes."""
            nonlocal s_arrival, s_ends, s_queues, s_base, s_pos, s_run, s_next
            for chunk in chunks:
                n = len(chunk)
                if not n:
                    continue
                arrival = chunk.arrival
                after = np.r_[last_arrival, arrival[:-1]]
                ok = np.isfinite(arrival) & (arrival >= after)
                if not ok.all():
                    at = int(ok.argmin())
                    raise _unservable(int(chunk.rid[at]), float(arrival[at]), float(after[at]))
                s_base = table.extend(chunk)
                s_arrival = arrival.tolist()
                if chunk.uniform:
                    s_ends = [n]
                    s_queues = [class_queue((int(chunk.priority[0]), chunk.kind[0]))]
                else:
                    priority, kind = chunk.priority, chunk.kind
                    cuts = (priority[1:] != priority[:-1]) | (kind[1:] != kind[:-1])
                    starts = [0, *(np.flatnonzero(cuts) + 1).tolist()]
                    s_ends = [*starts[1:], n]
                    keys = zip(priority[starts].tolist(), kind[starts].tolist(), strict=True)
                    s_queues = [class_queue(key) for key in keys]
                s_pos = s_run = 0
                s_next = s_arrival[0]
                return
            s_arrival, s_ends, s_queues, s_next = [], [], [], math.inf

        def enqueue(rows: range, queue: deque[int]) -> None:
            """Admit the run ``rows`` (consecutive table rows bound for
            ``queue``) with one policy call; shed the rows it refuses, in
            row order."""
            admitted = admit(table, rows, queue)
            queue.extend(admitted)
            if len(admitted) < len(rows):
                kept = set(admitted)
                for row in rows:
                    if row not in kept:
                        shed.append(row)
                        if tracing:
                            stamps = table.stamps(row)
                            tr.request_shed(*stamps, ts=stamps[3])

        def pump(limit: int, until: float = math.inf) -> float:
            """The arrival event: admit or shed, in time order, up to
            ``limit`` arrivals (all when negative) due strictly before
            ``until``; return the next arrival's time (``inf`` when none
            is left).  The stream goes before injected follow-ups at
            equal times.  With no limit, the stream arrivals due before
            ``until`` and no later than the next follow-up are found by
            bisection and admitted a same-queue run per policy call;
            with a limit, and for a follow-up, a run is one arrival.  A
            follow-up enters the table (its stamps checked) when it
            arrives, and must arrive no earlier than the last arrival
            admitted.  With nothing due it returns after two comparisons."""
            nonlocal s_pos, s_run, s_next, last_arrival, clock
            while True:
                follow = injected[0][0] if injected else math.inf
                if follow < s_next:
                    if follow < last_arrival:
                        raise _unservable(injected[0][2].rid, follow, last_arrival)
                    if not (limit and follow < until):
                        return follow
                    limit -= 1
                    req = heapq.heappop(injected)[2]
                    last_arrival = clock = follow
                    row = table.append(req)
                    enqueue(range(row, row + 1), class_queue((int(req.priority), req.kind)))
                    continue
                if not (limit and s_next < until):
                    return s_next
                pos = s_pos
                if limit > 0:
                    limit -= 1
                    stop = pos + 1
                else:
                    stop = bisect_left(s_arrival, until, pos + 1)
                    if follow < s_arrival[stop - 1]:
                        stop = bisect_right(s_arrival, follow, pos + 1, stop)
                run = s_run
                while pos < stop:
                    end = min(s_ends[run], stop)
                    enqueue(range(s_base + pos, s_base + end), s_queues[run])
                    if end == s_ends[run]:
                        run += 1
                    pos = end
                s_run = run
                last_arrival = clock = s_arrival[stop - 1]
                s_pos = stop
                if stop < len(s_arrival):
                    s_next = s_arrival[stop]
                else:
                    load()

        def set_boundary(run: _Run, now: float) -> None:
            """Anchor ``run``'s boundary at ledger time ``now``."""
            run.boundary = run.seg_clock + (now - run.seg_base)

        def up_time(t: float) -> float:
            """Earliest model time >= ``t`` the unit is up, consuming
            every crash window due by then.  Called only on *committed*
            action times — consuming windows while merely evaluating
            candidates would corrupt the renewal stream."""
            nonlocal down_until
            t = max(t, down_until)
            while injector.next_crash() <= t:
                crash_at, up = injector.take_crash()
                if tracing:
                    tr.down(start=crash_at, end=up)
                down_until = max(down_until, up)
                t = max(t, down_until)
            return t

        def add_wasted(run: _Run, span: float) -> None:
            nonlocal wasted_total
            if span <= 0.0:
                return
            ledger.attribute_wasted(span)
            run.wasted += span
            wasted_total += span

        def exec_unit(run: _Run) -> None:
            """Execute one unit of work — a level (stepwise) or the whole
            remaining plan — drawing this unit's fault before running it.

            With preemption off and no active injector nothing can
            interrupt a running batch (releases happen only at idle), so
            the cursor runs to exhaustion in one event — on a cached
            plan that is one pass over its level records and one trace
            append.  Stepwise execution keeps level boundaries visible
            to the kernel, for preemption and for faults alike.
            """
            nonlocal down_until
            factor, corrupt = (1.0, False)
            if fault_active:
                factor, corrupt = injector.draw_level()
            span_base = ledger.clock
            with ledger.section(run.section):
                if stepwise:
                    run.cursor.step()
                else:
                    run.cursor.run()
                if factor > 1.0:
                    # straggler: the level really ran factor-x slower;
                    # the surplus is charged (cpu) but the level still
                    # completes, so it is useful work, not waste
                    ledger.charge_cpu((factor - 1.0) * (ledger.clock - span_base))
            now = ledger.clock
            run.last_span = now - span_base
            set_boundary(run, now)
            if fault_active:
                crashed = False
                while injector.next_crash() <= run.boundary:
                    crash_at, up = injector.take_crash()
                    if tracing:
                        tr.down(start=crash_at, end=up)
                    down_until = max(down_until, up)
                    crashed = True
                run.pending_fail = (
                    "crash" if crashed else "transient" if corrupt else None
                )

        def build_cursor(run: _Run, exec_machine: TCUMachine, rows: list[int]) -> None:
            """(Re)plan the batch on ``exec_machine`` — at launch, or at
            a degraded retry (a re-plan can never checkpoint-resume)."""
            run.exec_machine = exec_machine
            run.rows = rows
            with ledger.section(run.section):
                plan = (
                    cache.get_or_compile(run.rtype, exec_machine, rows)
                    if cache is not None
                    else run.rtype.plan(exec_machine, rows)
                )
                run.cursor = ExecutionCursor(plan, exec_machine)
            if tracing and stepwise and not run.cursor.done:
                attach_level_observer(run)

        def attach_level_observer(run: _Run) -> None:
            """Wire the cursor's observer hook to per-level trace spans.

            Level endpoints are mapped through the segment anchor
            (``seg_clock + charged-so-far``), i.e. derived from the same
            ledger deltas the engine clock advances by; ``trace_mark``
            slices the call trace to tag the level with the tensor
            units that executed it (full-trace ledgers only).
            """
            cursor = run.cursor
            run.trace_mark = len(ledger.calls)

            def observe(level: int, elapsed: float) -> None:
                lvl_end = run.seg_clock + (ledger.clock - run.seg_base)
                lvl_start = lvl_end - elapsed
                units: tuple[int, ...] = ()
                if full_trace:
                    mark = len(ledger.calls)
                    units = ledger.calls.units_between(run.trace_mark, mark)
                    run.trace_mark = mark
                tr.level_span(run.index, level, units, start=lvl_start, end=lvl_end)

            cursor.observer = observe

        def launch(key: tuple[int, str], release: float) -> None:
            nonlocal clock, running, abandoned_total
            priority, kind = key
            clock = max(clock, release)
            taken = policy.take(queues[key], clock)
            if not taken:
                raise ServeError(f"policy {policy.name!r} released an empty batch")
            batch = np.array(taken, dtype=np.int64)
            if self.abandon:
                # a request without a deadline reads NaN: never expired
                expired = table.deadline[batch] <= clock
                if expired.any():
                    gone = batch[expired]
                    abandoned.append(gone)
                    abandoned_total += len(gone)
                    if tracing:
                        for row in gone.tolist():
                            rid, _, _, arrival = table.stamps(row)
                            tr.request_abandoned(
                                rid, kind, priority, arrival, math.nan, -1, ts=clock
                            )
                    batch = batch[~expired]
                    if not len(batch):
                        return
            rtype = rtypes.get(kind)
            if rtype is None:
                rtype = rtypes[kind] = get_request_type(kind)
                kind_base[kind] = ledger.section_time(f"serve:{kind}")
            run = _Run(len(batches), kind, priority, RequestRows(table, batch), clock)
            run.rtype = rtype
            batches.append(None)  # slot: filled by complete()
            table.launch[batch] = clock
            table.batch[batch] = run.index
            run.seg_base = ledger.clock
            build_cursor(run, machine, table.rows[batch].tolist())
            if not run.cursor.done:
                exec_unit(run)
            else:
                set_boundary(run, ledger.clock)  # empty plan: completes instantly
            running = run

        def charge_resume_reload(run: _Run) -> None:
            with ledger.section(run.section):
                reload = run.cursor.charge_reload()
                run.reload += reload
                run.attempt_reload += reload
            if tracing and reload:
                tr.reload_event(run.index, reload, ts=clock)

        def resume(run: _Run, at: float) -> None:
            nonlocal clock, running, degraded_machine, degraded_total
            clock = max(clock, at)
            run.seg_clock = clock
            run.seg_base = ledger.clock
            run.trace_mark = len(ledger.calls)  # other batches ran meanwhile
            if not run.retry_pending:
                # preemption resume: the PR5 path, bit-identical when
                # no fault machinery is configured
                run.resumes.append(clock)
                if tracing:
                    tr.instant("resume", ts=clock, batch=run.index)
                charge_resume_reload(run)
                exec_unit(run)
                running = run
                return
            run.retry_pending = False
            run.ready_at = 0.0
            run.retry_at.append(clock)
            if tracing:
                tr.instant(
                    "retry", ts=clock, batch=run.index,
                    detail=f"attempt {len(run.retry_at)}",
                )
            if run.degrade_pending:
                run.degrade_pending = False
                degraded_total += 1
                if degrader.mode == "quantize":
                    if degraded_machine is None:
                        degraded_machine = degrader.quantized_twin(machine)
                    run.degraded = f"quantize:{degrader.precision}"
                    build_cursor(run, degraded_machine, run.rows)
                else:
                    run.degraded = "rows"
                    build_cursor(run, machine, degrader.degraded_rows(run.rows))
                if tracing:
                    tr.instant(
                        f"degrade:{run.degraded}", ts=clock, batch=run.index
                    )
            elif self.recovery == "checkpoint" and run.cursor.next_level > 0:
                # resuming mid-plan re-loads the remaining resident
                # blocks, exactly as a preemption resume does; a restart
                # (or a failure on the very first level) has no resident
                # state to re-load and pays only the re-run levels
                charge_resume_reload(run)
            if not run.cursor.done:
                exec_unit(run)
            else:
                set_boundary(run, ledger.clock)
            running = run

        def advance(run: _Run) -> None:
            exec_unit(run)

        def close_segment(run: _Run) -> float:
            """End the running segment; returns its span.  A traced run
            records the span as the segment's duration — the exact float
            folded into busy_time here, in the same order, so trace
            segments sum to the run's busy time bit-exactly."""
            nonlocal busy_time
            span = ledger.clock - run.seg_base
            run.service += span
            run.attempt_span += span
            busy_time += span
            return span

        def suspend(run: _Run) -> None:
            nonlocal running, preemptions_total
            span = close_segment(run)
            run.preemptions += 1
            preemptions_total += 1
            suspended.append(run)
            running = None
            if tracing:
                tr.segment(
                    run.index, run.kind, run.priority, start=run.seg_clock, dur=span
                )
                tr.instant("preempt", ts=clock, batch=run.index)

        def abandon_run(run: _Run) -> None:
            # everything the batch charged, minus its separately
            # accounted reloads and what is already attributed, is waste:
            # an abandoned batch produced nothing
            nonlocal abandoned_total
            add_wasted(run, run.service - run.reload - run.wasted)
            rows = run.requests.index
            abandoned.append(rows)
            abandoned_total += len(rows)
            if tracing:
                for row in rows.tolist():
                    rid, _, _, arrival = table.stamps(row)
                    tr.request_abandoned(
                        rid, run.kind, run.priority, arrival, run.launch, run.index,
                        ts=clock,
                    )

        def park(run: _Run, ready_at: float) -> None:
            nonlocal retries_total
            run.retry_pending = True
            run.ready_at = ready_at
            retries_total += 1
            suspended.append(run)
            if tracing:
                tr.wait(
                    run.index, run.kind, run.priority, start=clock, end=ready_at
                )

        def fail(run: _Run) -> None:
            nonlocal running
            fkind = run.pending_fail
            run.pending_fail = None
            span = close_segment(run)
            run.faults += 1
            if math.isnan(run.first_failure):
                run.first_failure = clock
            level = run.cursor.next_level - 1
            run.attempt_spans.append(run.attempt_span)
            attempt = len(run.attempt_spans)
            fault_events.append(FaultEvent(fkind, run.index, level, attempt, clock))
            running = None
            if tracing:
                tr.segment(
                    run.index, run.kind, run.priority, start=run.seg_clock, dur=span
                )
                tr.instant(
                    f"fault:{fkind}",
                    ts=clock,
                    batch=run.index,
                    detail=f"level {level}, attempt {attempt}",
                )
            if attempt >= retry.max_attempts:
                abandon_run(run)
                return
            delay = retry.delay(attempt + 1)
            # a request without a deadline reads NaN: never expired
            if self.abandon and (run.requests.column("deadline") <= clock).all():
                abandon_run(run)
                return
            if degrader is not None and run.degraded is None and not run.degrade_pending:
                pressure = bool((clock + delay >= run.requests.column("deadline")).any())
                if degrader.wants(attempt, pressure):
                    run.degrade_pending = True
            if self.recovery == "checkpoint" and not run.degrade_pending:
                # only the failed level is lost; completed levels stand
                add_wasted(run, run.last_span)
                run.cursor.rewind(run.cursor.next_level - 1)
            else:
                # restart (or imminent re-plan): the whole attempt is
                # lost, except its reloads, which sit in their own bucket
                add_wasted(run, run.attempt_span - run.attempt_reload)
                run.cursor.rewind(0)
            run.attempt_span = 0.0
            run.attempt_reload = 0.0
            park(run, clock + delay)

        def complete(run: _Run) -> None:
            nonlocal running, completion_clock
            span = close_segment(run)
            finish = run.boundary
            completion_clock = max(completion_clock, finish)
            spans = (
                (*run.attempt_spans, run.attempt_span) if fault_active else ()
            )
            rows = run.requests.index
            batches[run.index] = BatchRecord(
                index=run.index,
                kind=run.kind,
                rids=tuple(table.rid[rows].tolist()),
                rows=tuple(run.rows),
                launch=run.launch,
                service=run.service,
                priority=run.priority,
                preemptions=run.preemptions,
                reload_time=run.reload,
                resumes=tuple(run.resumes),
                finish=finish,
                attempts=len(spans) if spans else 1,
                attempt_spans=spans,
                wasted_time=run.wasted,
                faults=run.faults,
                retry_at=tuple(run.retry_at),
                first_failure=run.first_failure,
                degraded=run.degraded,
            )
            table.completion[rows] = finish
            finished.append(rows)
            if on_complete is not None:
                for req in table.records(rows):
                    for new in on_complete(req, finish):
                        if not -math.inf < new.arrival < math.inf:
                            raise _unservable(new.rid, new.arrival, last_arrival)
                        heapq.heappush(injected, (new.arrival, next(seq), new))
            running = None
            if tracing:
                tr.batch_done(
                    run.index, run.kind, run.priority, run.requests,
                    run.service, run.reload, run.wasted, run.faults,
                    launch=run.launch, start=run.seg_clock, dur=span, ts=finish,
                )

        if tracing:
            tr.begin_run(ledger, cache)
        try:
            load()
            while True:
                if sampler is not None and sampler.due(clock):
                    tr.sample(run_state(), ts=clock)
                if running is not None:
                    # level-complete vs arrival, boundary first at equal
                    # times (the PR4 completion/arrival tie-break); every
                    # arrival due strictly before the boundary is admitted
                    # in one pump instead of a full event-loop turn each.
                    # The class queues only grow meanwhile, so admitting
                    # a same-queue run in one policy call decides what
                    # admitting its arrivals one by one would
                    boundary = running.boundary
                    pump(-1, boundary)
                    clock = boundary
                    run = running
                    if run.pending_fail is not None:
                        # the just-executed unit was lost: account, rewind,
                        # and (budget permitting) schedule the retry
                        fail(run)
                    elif run.cursor.done:
                        complete(run)
                    else:
                        contender = None
                        if self.preempt:
                            contender = priority_release(
                                queues, table.arrival, policy, clock, False,
                                above=run.priority,
                            )
                            if contender is not None and contender[0] > clock:
                                contender = None  # due later: keep running
                        if contender is not None:
                            suspend(run)
                        else:
                            advance(run)
                    continue

                # machine idle: resume / release selection.  Candidates are
                # ordered by (release, -priority, action rank, tie-break);
                # a suspended batch resumes at `clock` and outranks a fresh
                # launch of its own class at the same instant.  A retrying
                # batch is not ready before its backoff expires, and nothing
                # starts while the unit is down — both terms are 0 on a
                # zero-fault run, so the keys collapse to the PR5 ones.
                # Arrivals are admitted one per turn here, so the sampler
                # can read the queue between two same-instant arrivals.
                na = pump(0)
                draining = na == math.inf
                best: tuple | None = None
                if suspended:
                    bi = min(
                        range(len(suspended)),
                        key=lambda i: (
                            max(clock, suspended[i].ready_at, down_until),
                            -suspended[i].priority,
                            i,
                        ),
                    )
                    ready = max(clock, suspended[bi].ready_at, down_until)
                    best = (ready, -suspended[bi].priority, 0, bi, ("resume", bi))
                released = priority_release(queues, table.arrival, policy, clock, draining)
                if released is not None:
                    release, priority, head_arrival, key = released
                    candidate = (
                        max(release, down_until),
                        -priority,
                        1,
                        (head_arrival, key[1]),
                        ("launch", key),
                    )
                    if best is None or candidate[:4] < best[:4]:
                        best = candidate

                # strict <: an arrival at the release instant is admitted
                # first, so simultaneous arrivals batch together instead of
                # splitting into a size-1 batch plus a remainder
                if best is not None and best[0] < na:
                    when = best[0]
                    if fault_active:
                        # commit point: consume crash windows due by now; a
                        # repair may push the action past the next arrival,
                        # in which case the arrival goes first
                        when = up_time(when)
                        if na <= when and na < math.inf:
                            pump(1)
                            continue
                    action, payload = best[4]
                    if action == "resume":
                        resume(suspended.pop(payload), when)
                    else:
                        launch(payload, when)
                elif na < math.inf:
                    pump(1)
                else:
                    stranded = sum(len(q) for q in queues.values())
                    if stranded:
                        raise ServeError(
                            f"policy {policy.name!r} refused to drain "
                            f"{stranded} queued request(s)"
                        )
                    break
        finally:
            # the charge hook must never outlive the run: the
            # machine's ledger may be reused by later serves
            if tracing:
                tr.unbind_ledger(ledger)
        if tracing:
            tr.sample(run_state(), ts=clock)
        result = ServeResult(
            requests=RequestRows(
                table, np.concatenate(finished) if finished else _NO_ROWS
            ),
            batches=[b for b in batches if b is not None],
            clock=completion_clock if batches else 0.0,
            busy_time=busy_time,
            ledger_time=ledger.clock - ledger_start,
            policy=policy.name,
            machine=machine,
            trace_start=trace_start,
            trace_end=len(ledger.calls) if ledger.trace_calls is True else 0,
            kind_time={
                kind: ledger.section_time(f"serve:{kind}") - base_time
                for kind, base_time in kind_base.items()
            },
            shed=RequestRows(table, np.array(shed, dtype=np.int64)),
            preemptions=preemptions_total,
            reload_time=ledger.reload_time - reload_start,
            admission=admission.name,
            preempt=self.preempt,
            cache_hits=(cache.hits - cache_hits_start) if cache is not None else 0,
            cache_misses=(
                (cache.misses - cache_misses_start) if cache is not None else 0
            ),
            cache_size=len(cache) if cache is not None else 0,
            abandoned=RequestRows(
                table, np.concatenate(abandoned) if abandoned else _NO_ROWS
            ),
            wasted_time=wasted_total,
            faults=len(fault_events),
            fault_events=fault_events,
            retries=retries_total,
            degraded=degraded_total,
            injector=injector.name if injector is not None else "none",
            recovery=self.recovery,
            retry_policy=retry.name,
        )
        result.check_conservation()
        return result


def replay_batches(
    batches: list[BatchRecord], machine: TCUMachine
) -> CostLedger:
    """Re-execute a served run's batches, in order, on ``machine``.

    Because request types charge from shapes alone, the replayed
    ledger's *hardware work* — per-shape call totals, call count, and
    (on serial machines) the tensor/latency time columns — is
    bit-identical to the served run's, whatever mix of numeric,
    cost-only, serial or multi-unit machines the two sides use.  A
    replay runs every batch uninterrupted, so it never pays ``reload``:
    a preempted run's total charges exceed its replay by exactly the
    served run's ledgered reload time — the preemption-conservation
    gate.

    Returns the machine's ledger for inspection.
    """
    for batch in batches:
        get_request_type(batch.kind).serve(machine, batch.rows)
    return machine.ledger
