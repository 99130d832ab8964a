"""Compiled plans: price a plan's ledger charges once, replay them forever.

The paper's central observation (Section 3) is that a tensor call's cost
is a pure function of its shape and the machine parameters — values
never enter the clock.  A serving engine therefore re-derives exactly
the same ledger charges every time it executes a batch of a shape it
has already seen: the program lowering, the planner and the level walk
are all deterministic given ``(request kind, batch row counts, machine
configuration)``.  This module exploits that replayability:

* :func:`compile_plan` builds a request type's plan **once** on a forked
  probe machine and prices every level from its shapes
  (:func:`~repro.core.program.price_level`) against a scratch ledger —
  no cursor, no stepping, no op values — freezing what it charges into
  a :class:`CompiledPlan`: the build charges, then one record per level
  of from-zero counter deltas, the span its tensor work advances the
  clock by, and its trace columns (row counts, per-call times,
  latencies, unit ids), plus the per-level ``resident_words`` a cursor
  needs to price a preempted resume.
* A :class:`CompiledPlan` is a level source for the one
  :class:`~repro.core.program.ExecutionCursor`, like a live
  :class:`~repro.core.program.Plan`: the cursor charges the build
  charges when it is made, replays one record per step — or every
  remaining level in one pass on ``run()`` — and prices rewinds and
  reloads exactly as it does for a live plan.
* :class:`PlanCache` memoises compiled plans under
  ``(kind, rows tuple, machine.config_key())`` with LRU eviction, so the
  serving hot path never re-plans a shape it has seen.  Its
  :class:`PlanMemo` goes one level down: a level's split choice and
  its priced record are pure functions of ``config_key()`` and the
  level's shapes, so compiles of different request shapes that share
  a level plan and price it once.  The memo lives and dies with its
  cache — nothing is process-wide.

Replay adds each level's captured deltas to the ledger as one addend
per counter, where live execution adds a level's charges one by one,
and advances open sections by the level's recorded span: a parallel
level's makespan, as ``mm_batch`` charges it, or else its tensor plus
latency delta.  The two sums are bit-identical when each counter's live
addends within one record are a single float (a parallel level runs one
``mm_batch`` makespan) or all integer-valued (float addition of
integers below 2**53 is exact, which covers every serial charge with
integer ``ell`` and so every shipped preset).  The build charges are
one record too, and there the condition fails once: a stencil plan
compiled on a :class:`~repro.core.parallel.ParallelTCUMachine` builds
its kernel transform with four fractional ``mm_batch`` makespans, which
replay as one summed addend, so a cached stencil run's clock can differ
from a live one in the last bit.  The host-time benchmark's
``serve_parallel`` reference records the cached arithmetic.

Compilation runs on a **fork** of the target machine (fresh ledger), so
pricing never pollutes the live clock.  A compiled plan carries the
``config_key()`` of the machine it was compiled for and refuses to
start a cursor on a machine with any other key
(:class:`~repro.core.ledger.LedgerError`) instead of silently charging
the donor machine's schedule.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .ledger import CostLedger, LedgerError
from .machine import TCUMachine
from .program import LevelShape, Plan, PlanStats, level_shape, price_shape

__all__ = [
    "LevelCharges", "CompiledPlan", "PlanCache", "PlanMemo", "Plannable", "compile_plan",
]


class Plannable(Protocol):
    """What compilation needs from a request type — structural, so the
    serve-layer types satisfy it without a core -> serve import."""

    def plan(self, machine: TCUMachine, rows: Sequence[int]) -> Plan: ...


@dataclass(frozen=True, eq=False)
class LevelCharges:
    """The frozen ledger charges of one plan level (or of a plan's
    build): the counter deltas it charges from zero, the span its tensor
    calls advance open sections and ``on_charge`` by, and the trace
    columns of those calls."""

    tensor_time: float
    latency_time: float
    cpu_time: float
    span: float
    ns: np.ndarray
    times: np.ndarray
    lats: np.ndarray
    units: np.ndarray

    @property
    def total_time(self) -> float:
        return self.tensor_time + self.latency_time + self.cpu_time

    def charge(self, machine: TCUMachine) -> None:
        """Replay the record onto ``machine``'s ledger: one addend per
        counter, the span to open sections, the trace columns
        verbatim."""
        ledger = machine.ledger
        if self.ns.size:
            ledger.charge_tensor_totals(
                self.tensor_time, self.latency_time,
                self.ns, machine.sqrt_m, self.times, self.lats, self.units,
                span=self.span,
            )
        if self.cpu_time:
            ledger.charge_cpu(self.cpu_time)


@dataclass(frozen=True, eq=False)
class CompiledPlan:
    """A plan frozen to its ledger effects, ready for columnar replay.

    A level source for :class:`~repro.core.program.ExecutionCursor`,
    with the same interface as a live :class:`~repro.core.program.Plan`.
    Replay equals live execution bit for bit when each record's live
    addends per counter are one float or all integer-valued; a stencil
    plan's build on a parallel machine is the known exception (see the
    module docstring).

    Attributes
    ----------
    kind / rows:
        The request kind and per-request row counts the plan was
        compiled for (informational; the cache key carries them too).
    config_key:
        The compiling machine's :meth:`~repro.core.machine.TCUMachine.config_key`;
        :meth:`start` refuses any machine whose key differs.
    prelude:
        Charges the request type's ``plan()`` emitted while *building*
        the program (eager padding copies, Fourier-matrix loads).  A
        cursor pays them when it is made, where a live plan paid them
        while it was built, and never again.
    levels:
        One :class:`LevelCharges` per plan level, in execution order,
        priced from the level's shapes; each holds slices of
        :attr:`calls`.
    reload_words:
        ``reload_words[d]`` is the resident-block word count a cursor
        suspended before level ``d`` must re-load on resume — read from
        the plan's suffix table (:meth:`~repro.core.program.Plan.resident_words`).
    stats:
        The live plan's :class:`~repro.core.program.PlanStats`.
    calls:
        The plan's trace columns ``(ns, times, lats, units)``: every
        level's calls in order, held once.
    offsets:
        Level ``d``'s calls are rows ``offsets[d]:offsets[d + 1]`` of
        :attr:`calls`.
    deltas:
        The levels' tensor, latency and CPU deltas as three per-level
        columns, for the one-pass replay (:meth:`run_levels`).
    charges / charge_offsets:
        The ``on_charge`` sequence of stepping every level — a level's
        ``("tensor", span)`` when it has calls, then its ``("cpu",
        cpu_time)`` when it has CPU work — whose level ``d`` starts at
        ``charges[charge_offsets[d]]``; open sections add the same
        amounts in the one-pass replay.
    """

    kind: str
    rows: tuple[int, ...]
    config_key: tuple
    prelude: LevelCharges
    levels: tuple[LevelCharges, ...]
    reload_words: tuple[int, ...]
    stats: PlanStats
    calls: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    offsets: tuple[int, ...]
    deltas: tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]
    charges: tuple[tuple[str, float], ...]
    charge_offsets: tuple[int, ...]

    def start(self, machine: TCUMachine) -> None:
        """Check ``machine``'s fingerprint, then charge the build charges."""
        key = machine.config_key()
        if key != self.config_key:
            raise LedgerError(
                f"plan compiled for {self.config_key} cannot replay on {key}; "
                "replaying a plan compiled for a different machine configuration?"
            )
        self.prelude.charge(machine)

    def run_level(self, level: int, machine: TCUMachine) -> None:
        """Replay level ``level``'s frozen charges onto ``machine``."""
        self.levels[level].charge(machine)

    def run_levels(self, start: int, machine: TCUMachine) -> None:
        """Replay levels ``start..`` onto ``machine`` in one pass.

        The ledger sees what :meth:`run_level` on each level in turn
        gives it (:meth:`~repro.core.ledger.CostLedger.charge_levels`),
        and the trace gets every remaining call in one append — on an
        aggregating ledger, one per level, so its bucket sums add level
        by level as stepping adds them.
        """
        ledger = machine.ledger
        lo = self.offsets[start]
        tensor, latency, cpu = self.deltas
        ledger.charge_levels(
            tensor[start:], latency[start:], cpu[start:],
            self.charges[self.charge_offsets[start]:], self.offsets[-1] - lo,
        )
        if ledger.trace_calls is True:
            if lo < self.offsets[-1]:
                ns, times, lats, units = self.calls
                ledger.record_calls_bulk(
                    ns[lo:], machine.sqrt_m, times[lo:], lats[lo:], units[lo:]
                )
        elif ledger.trace_calls == "aggregate":
            for lv in self.levels[start:]:
                if lv.ns.size:
                    ledger.record_calls_bulk(
                        lv.ns, machine.sqrt_m, lv.times, lv.lats, lv.units
                    )

    def resident_words(self, from_level: int = 0) -> int:
        if from_level >= len(self.reload_words):
            return 0
        return self.reload_words[from_level]


def _capture(scratch: CostLedger, span: float | None = None) -> LevelCharges:
    """Freeze a zeroed scratch ledger's accumulated charges — the exact
    from-zero deltas charging them adds to a running ledger — with
    ``span`` (default: the tensor plus latency delta)."""
    ns, _, times, lats = scratch.calls.as_arrays()
    tensor, latency = scratch.tensor_time, scratch.latency_time
    return LevelCharges(
        tensor_time=tensor,
        latency_time=latency,
        cpu_time=scratch.cpu_time,
        span=tensor + latency if span is None else span,
        ns=np.array(ns, dtype=np.int64, copy=True),
        times=np.array(times, dtype=np.float64, copy=True),
        lats=np.array(lats, dtype=np.float64, copy=True),
        units=np.array(scratch.calls.unit_ids(), dtype=np.int64, copy=True),
    )


def _price(shape: LevelShape, probe: TCUMachine, level: int) -> LevelCharges:
    """Price one level's shape on ``probe`` against a fresh full-trace
    ledger and freeze it; raises :class:`~repro.core.ledger.LedgerError`
    unless its charges are finite and non-negative."""
    scratch = probe.ledger = CostLedger(trace_calls=True)
    record = _capture(scratch, price_shape(shape, probe))
    values = (record.tensor_time, record.latency_time, record.cpu_time, record.span)
    if not all(0.0 <= x < math.inf for x in values):
        raise LedgerError(
            f"level {level} charges must be finite and >= 0, got "
            f"{values[0]!r}, {values[1]!r}, {values[2]!r}, span {values[3]!r}"
        )
    return record


class PlanMemo:
    """Pure planning results shared by the compiles of one
    :class:`PlanCache`.

    The paper prices a tensor call from its shape alone (§3), so two
    tables key on the machine's ``config_key()`` plus shapes:

    * ``splits`` — the planner's ``"auto"`` split choice and modelled
      makespan of a level, under ``(config_key(), ordered group
      shapes)``; :func:`~repro.core.program.plan_program` reads it on a
      machine whose ``plan_memo`` is set.  The shapes stay ordered
      because the chooser breaks ties by group order.
    * ``levels`` — a level's priced :class:`LevelCharges`, under
      ``(config_key(), LevelShape)``: the exact input of the level
      pricer (:func:`~repro.core.program.level_shape`), so the key
      cannot drift from what is priced.

    A hit is the record a miss computes, bit for bit.  The memo grows
    only with its cache's compiles and is emptied whenever the cache
    is cleared or evicts.
    """

    __slots__ = ("splits", "levels")

    def __init__(self) -> None:
        self.splits: dict[tuple, tuple[tuple[int, ...], float]] = {}
        self.levels: dict[tuple, LevelCharges] = {}

    def clear(self) -> None:
        self.splits.clear()
        self.levels.clear()


def compile_plan(
    rtype: Plannable,
    machine: TCUMachine,
    rows: Sequence[int],
    memo: PlanMemo | None = None,
) -> CompiledPlan:
    """Build ``rtype``'s plan for ``rows`` once and price its charges.

    Builds on ``machine.fork()`` with a fresh full-trace scratch ledger
    — the live ledger is never touched — and freezes the build charges;
    then prices each level from its shapes
    (:func:`~repro.core.program.level_shape`,
    :func:`~repro.core.program.price_shape`) on a zeroed ledger, so each
    record's deltas are the exact from-zero amounts that level charges,
    and concatenates the levels' trace columns.  Nothing is executed
    and no op gets a value.  Raises
    :class:`~repro.core.ledger.LedgerError` if a level's charges are
    not finite and non-negative.

    With a ``memo`` the probe carries it (``plan_memo``), so every plan
    built on the probe — the request's own and any a kernel builds
    inside it — reads its split choices from the memo, and each level
    is priced only if the memo has no record of its shape; the result
    is the one a memo-less compile gives, bit for bit.

    On a numeric machine the records follow cost-only execution: they
    equal the numeric run's deltas when its charges are integer-valued,
    and a level's trace rows may be ordered differently (the numeric
    executor batches shared streams first; per-shape totals agree).
    """
    probe = machine.fork()
    probe.plan_memo = memo
    scratch = CostLedger(trace_calls=True)
    probe.ledger = scratch
    plan = rtype.plan(probe, rows)
    prelude = _capture(scratch)

    config_key = probe.config_key()
    records: list[LevelCharges] = []
    offsets = [0]
    charges: list[tuple[str, float]] = []
    charge_offsets = [0]
    for d, (groups, others) in enumerate(plan.levels):
        shape = level_shape(groups, others, probe, plan.splits[d])
        key = (config_key, shape)
        record = None if memo is None else memo.levels.get(key)
        if record is None:
            record = _price(shape, probe, d)
            if memo is not None:
                memo.levels[key] = record
        records.append(record)
        offsets.append(offsets[-1] + record.ns.size)
        if record.ns.size:
            charges.append(("tensor", record.span))
        if record.cpu_time:
            charges.append(("cpu", record.cpu_time))
        charge_offsets.append(len(charges))

    calls = (
        _concat([r.ns for r in records], np.int64),
        _concat([r.times for r in records], np.float64),
        _concat([r.lats for r in records], np.float64),
        _concat([r.units for r in records], np.int64),
    )
    levels = tuple(
        LevelCharges(
            r.tensor_time, r.latency_time, r.cpu_time, r.span, *(col[lo:hi] for col in calls)
        )
        for r, lo, hi in zip(records, offsets[:-1], offsets[1:], strict=True)
    )
    return CompiledPlan(
        kind=getattr(rtype, "name", type(rtype).__name__),
        rows=tuple(map(int, rows)),
        config_key=config_key,
        prelude=prelude,
        levels=levels,
        reload_words=tuple(plan.resident_words(d) for d in range(len(levels))),
        stats=plan.stats,
        calls=calls,
        offsets=tuple(offsets),
        deltas=(
            tuple(r.tensor_time for r in records),
            tuple(r.latency_time for r in records),
            tuple(r.cpu_time for r in records),
        ),
        charges=tuple(charges),
        charge_offsets=tuple(charge_offsets),
    )


def _concat(columns: list[np.ndarray], dtype: type) -> np.ndarray:
    """One column of the plan-wide trace: the levels' columns joined
    (a fresh array, never a memo record's)."""
    return np.concatenate(columns) if columns else np.empty(0, dtype=dtype)


class PlanCache:
    """An LRU cache of :class:`CompiledPlan` keyed on
    ``(kind, rows tuple, machine.config_key())``.

    Hit/miss/eviction counters are cumulative over the cache's lifetime;
    consumers (e.g. :class:`~repro.serve.engine.ServingEngine`) report
    per-run deltas.  One cache may safely serve many machines — the
    config fingerprint in the key keeps their plans apart, and the same
    fingerprint stored in each plan makes a mis-keyed replay an error
    rather than silent corruption.

    Its compiles share one :class:`PlanMemo` (:attr:`memo`), which
    :meth:`clear` and every eviction empty, so the memo is bounded by
    what the cached plans planned.  ``capacity`` is an integer >= 1.
    """

    def __init__(self, capacity: int = 256) -> None:
        if (
            isinstance(capacity, bool)
            or not isinstance(capacity, (int, np.integer))
            or capacity < 1
        ):
            raise ValueError(f"capacity must be an integer >= 1, got {capacity!r}")
        self.capacity = int(capacity)
        self._entries: OrderedDict[tuple, CompiledPlan] = OrderedDict()
        self.memo = PlanMemo()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def key(kind: str, rows: Sequence[int], machine: TCUMachine) -> tuple:
        return (str(kind), tuple(rows), machine.config_key())

    def get(self, key: tuple) -> CompiledPlan | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: tuple, compiled: CompiledPlan) -> None:
        self._entries[key] = compiled
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.memo.clear()
            self.evictions += 1

    def get_or_compile(
        self, rtype: Plannable, machine: TCUMachine, rows: Sequence[int]
    ) -> CompiledPlan:
        """The hot-path entry point: one dict probe on a hit, one
        compile + insert on a miss."""
        key = self.key(getattr(rtype, "name", type(rtype).__name__), rows, machine)
        compiled = self.get(key)
        if compiled is None:
            compiled = compile_plan(rtype, machine, rows, memo=self.memo)
            self.put(key, compiled)
        return compiled

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def clear(self) -> None:
        self._entries.clear()
        self.memo.clear()

    def stats(self) -> dict[str, float]:
        lookups = self.hits + self.misses
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PlanCache(size={len(self._entries)}/{self.capacity}, "
            f"hits={self.hits}, misses={self.misses})"
        )
