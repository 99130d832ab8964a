"""Compiled plans: freeze a plan's ledger charges once, replay them forever.

The paper's central observation (Section 3) is that a tensor call's cost
is a pure function of its shape and the machine parameters — values
never enter the clock.  A serving engine therefore re-derives exactly
the same ledger charges every time it executes a batch of a shape it
has already seen: the program lowering, the planner and the level walk
are all deterministic given ``(request kind, batch row counts, machine
configuration)``.  This module exploits that replayability:

* :func:`compile_plan` executes a request type's plan **once** against a
  scratch ledger on a forked probe machine and freezes what it charged
  into a :class:`CompiledPlan` — per-level columnar charge records
  (row counts, per-call times, latency spans, unit ids — the
  ``charge_tensor_bulk`` / ``record_calls_bulk`` column format) plus the
  per-level ``resident_words`` an :class:`~repro.core.program.ExecutionCursor`
  would need to price a preempted resume.
* :class:`~repro.core.program.CompiledCursor` replays a frozen plan
  level-at-a-time with one bulk ledger charge per level — bit-identical
  counters, clock, snapshot, trace shape totals and preemption/reload
  behaviour to live execution (see the cursor's docstring for the exact
  bit-identity conditions).
* :class:`PlanCache` memoises compiled plans under
  ``(kind, rows tuple, machine.config_key())`` with LRU eviction, so the
  serving hot path never re-plans a shape it has seen.

Compilation runs on a **fork** of the target machine (fresh ledger), so
probing never pollutes the live clock.  A compiled plan carries the
``config_key()`` of the machine it was compiled for, and
:class:`~repro.core.program.CompiledCursor` refuses to replay it onto a
machine with any other key (:class:`~repro.core.ledger.LedgerError`)
instead of silently charging the donor machine's schedule.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .ledger import CostLedger
from .machine import TCUMachine
from .program import ExecutionCursor, Plan, PlanStats

__all__ = ["LevelCharges", "CompiledPlan", "PlanCache", "Plannable", "compile_plan"]


class Plannable(Protocol):
    """What compilation needs from a request type — structural, so the
    serve-layer types satisfy it without a core -> serve import."""

    def plan(self, machine: TCUMachine, rows: Sequence[int]) -> Plan: ...


@dataclass(frozen=True, eq=False)
class LevelCharges:
    """The frozen ledger charges of one executed plan level.

    ``simple`` marks levels whose charges are exactly what one public
    :meth:`~repro.core.ledger.CostLedger.charge_tensor_bulk` with the
    machine's own ``(sqrt_m, ell)`` would produce (uniform latency,
    serial unit ids, per-call times on the ``n*sqrt_m + l`` formula) —
    those replay through the validated public path.  Everything else
    (parallel makespan-scaled levels, whose counters carry one scaled
    addend each) replays its captured counter deltas and trace columns
    verbatim, mirroring ``mm_batch``'s own accounting.
    """

    tensor_time: float
    latency_time: float
    cpu_time: float
    tensor_calls: int
    ns: np.ndarray
    times: np.ndarray
    lats: np.ndarray
    units: np.ndarray
    simple: bool

    @property
    def total_time(self) -> float:
        return self.tensor_time + self.latency_time + self.cpu_time


@dataclass(frozen=True, eq=False)
class CompiledPlan:
    """A plan frozen to its ledger effects, ready for columnar replay.

    Attributes
    ----------
    kind / rows:
        The request kind and per-request row counts the plan was
        compiled for (informational; the cache key carries them too).
    config_key:
        The compiling machine's :meth:`~repro.core.machine.TCUMachine.config_key`;
        a cursor refuses to replay the plan onto a machine whose key
        differs.
    sqrt_m / ell:
        The probe machine's call parameters, which every replayed bulk
        charge uses.
    prelude:
        Charges the request type's ``plan()`` emitted while *building*
        the program (eager padding copies, Fourier-matrix loads).  The
        live engine pays these at launch, before the first level, so
        replay applies them together with level 0.
    levels:
        One :class:`LevelCharges` per plan level, in execution order.
    reload_words:
        ``reload_words[d]`` is the resident-block word count a cursor
        suspended before level ``d`` must re-load on resume — read from
        the plan's suffix table (:meth:`~repro.core.program.Plan.resident_words`),
        the one live :meth:`ExecutionCursor.resident_words` reads.
    coalesced:
        When every level is ``simple`` and all deltas are integer-valued
        floats (so float addition re-associates exactly), the whole
        plan — prelude included — collapsed into one record; a
        run-to-exhaustion replay then costs a single bulk charge.
        ``None`` when per-level replay is required for bit-identity.
    stats:
        The live plan's :class:`~repro.core.program.PlanStats`.
    """

    kind: str
    rows: tuple[int, ...]
    config_key: tuple
    sqrt_m: int
    ell: float
    prelude: LevelCharges | None
    levels: tuple[LevelCharges, ...]
    reload_words: tuple[int, ...]
    coalesced: LevelCharges | None
    stats: PlanStats

    @property
    def total_levels(self) -> int:
        return len(self.levels)


def _capture(scratch: CostLedger, sqrt_m: int, ell: float) -> LevelCharges:
    """Freeze a zeroed scratch ledger's accumulated charges.

    The scratch starts from zero for every level, so counter values ARE
    the exact per-level float deltas live execution adds to a running
    ledger.  The ``simple`` classification is verified against the bulk
    formula bit-for-bit, never assumed.
    """
    ns_v, _, times_v, lats_v = scratch.calls.as_arrays()
    ns = np.array(ns_v, dtype=np.int64, copy=True)
    times = np.array(times_v, dtype=np.float64, copy=True)
    lats = np.array(lats_v, dtype=np.float64, copy=True)
    units = np.array(scratch.calls.unit_ids(), dtype=np.int64, copy=True)
    k = scratch.tensor_calls
    simple = (
        k == int(ns.size)
        and bool(np.all(units == -1))
        and bool(np.all(lats == float(ell)))
        and bool(np.array_equal(times, ns * float(sqrt_m) + float(ell)))
        and scratch.tensor_time == float(int(ns.sum()) * sqrt_m)
        and scratch.latency_time == float(ell) * k
    )
    return LevelCharges(
        tensor_time=scratch.tensor_time,
        latency_time=scratch.latency_time,
        cpu_time=scratch.cpu_time,
        tensor_calls=k,
        ns=ns,
        times=times,
        lats=lats,
        units=units,
        simple=simple,
    )


def _coalesce(
    prelude: LevelCharges | None,
    levels: tuple[LevelCharges, ...],
    ell: float,
) -> LevelCharges | None:
    """Collapse a whole plan into one charge record when exact.

    Valid only when every part replays through the public bulk path
    (``simple``) and every per-level float delta is integer-valued, so
    ``base + (d1 + d2 + ...)`` bit-equals ``((base + d1) + d2) + ...``
    — integer-valued doubles below 2**53 add associatively.  Fractional
    ``ell`` (no shipped preset has one) falls back to per-level replay.
    """
    parts = ([] if prelude is None else [prelude]) + list(levels)
    if not parts or not all(p.simple for p in parts):
        return None
    calls = sum(p.tensor_calls for p in parts)
    if calls and not float(ell).is_integer():
        return None
    if not all(float(p.cpu_time).is_integer() for p in parts):
        return None
    return LevelCharges(
        tensor_time=sum(p.tensor_time for p in parts),
        latency_time=sum(p.latency_time for p in parts),
        cpu_time=sum(p.cpu_time for p in parts),
        tensor_calls=calls,
        ns=np.concatenate([p.ns for p in parts]) if calls else np.empty(0, np.int64),
        times=np.concatenate([p.times for p in parts]) if calls else np.empty(0),
        lats=np.concatenate([p.lats for p in parts]) if calls else np.empty(0),
        units=np.concatenate([p.units for p in parts]) if calls else np.empty(0, np.int64),
        simple=True,
    )


def compile_plan(rtype: Plannable, machine: TCUMachine, rows: Sequence[int]) -> CompiledPlan:
    """Execute ``rtype``'s plan for ``rows`` once and freeze its charges.

    Runs on ``machine.fork()`` with a fresh full-trace scratch ledger —
    the live ledger is never touched — resetting the scratch before
    every level so each captured record is the exact from-zero delta
    that level charges.
    """
    rows = [int(r) for r in rows]
    probe = machine.fork()
    scratch = CostLedger(trace_calls=True)
    s, ell = probe.sqrt_m, probe.ell
    probe.ledger = scratch
    plan = rtype.plan(probe, rows)
    prelude: LevelCharges | None = _capture(scratch, s, ell)

    levels: list[LevelCharges] = []
    reloads: list[int] = []
    cursor = ExecutionCursor(plan, probe)
    while not cursor.done:
        reloads.append(plan.resident_words(cursor.next_level))
        scratch.reset()
        cursor.step()
        levels.append(_capture(scratch, s, ell))
    if not levels:
        # a plan with no levels still owes its build charges; keep one
        # empty level so a cursor has a step to apply them on
        scratch.reset()
        levels.append(_capture(scratch, s, ell))
        reloads.append(0)

    if prelude.tensor_calls == 0 and prelude.total_time == 0.0:
        prelude = None
    level_tuple = tuple(levels)
    return CompiledPlan(
        kind=getattr(rtype, "name", type(rtype).__name__),
        rows=tuple(rows),
        config_key=probe.config_key(),
        sqrt_m=s,
        ell=ell,
        prelude=prelude,
        levels=level_tuple,
        reload_words=tuple(reloads),
        coalesced=_coalesce(prelude, level_tuple, ell),
        stats=plan.stats,
    )


class PlanCache:
    """An LRU cache of :class:`CompiledPlan` keyed on
    ``(kind, rows tuple, machine.config_key())``.

    Hit/miss/eviction counters are cumulative over the cache's lifetime;
    consumers (e.g. :class:`~repro.serve.engine.ServingEngine`) report
    per-run deltas.  One cache may safely serve many machines — the
    config fingerprint in the key keeps their plans apart, and the same
    fingerprint stored in each plan makes a mis-keyed replay an error
    rather than silent corruption.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: OrderedDict[tuple, CompiledPlan] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def key(kind: str, rows: Sequence[int], machine: TCUMachine) -> tuple:
        return (str(kind), tuple(map(int, rows)), machine.config_key())

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
            self.evictions += 1

    def get_or_compile(
        self, rtype: Plannable, machine: TCUMachine, rows: Sequence[int]
    ) -> CompiledPlan:
        """The hot-path entry point: one dict probe on a hit, one
        compile + insert on a miss."""
        key = self.key(getattr(rtype, "name", type(rtype).__name__), rows, machine)
        compiled = self.get(key)
        if compiled is None:
            compiled = compile_plan(rtype, machine, rows)
            self.put(key, compiled)
        return compiled

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def clear(self) -> None:
        self._entries.clear()

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
