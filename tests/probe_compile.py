"""The probe compile: learn a plan's charges by executing it, kept as a
test oracle for :func:`repro.core.plan_cache.compile_plan`.

``compile_plan`` prices every level from its shapes
(:func:`repro.core.program.price_level`).  It used to execute the plan
instead: build it on a forked probe machine, then step it level by level
against a scratch ledger reset before each level, capturing the counter
deltas and trace columns each step charged.  :func:`probe_compile` keeps
that path.  On a cost-only machine it steps the level executor the
pricer replaced — placeholder operands through the machine's own
``mm``, ``mm_grid`` and ``mm_batch``, call groups assembled and bucketed
here, the CPU ops charged here — so it shares no level logic with the
pricer; on a numeric machine it steps the live plan through
:class:`~repro.core.program.ExecutionCursor`.

A level's span is what its tensor work advanced open sections by: the
one tensor charge a batch level makes (its makespan), otherwise the
level's tensor plus latency delta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ledger import CostLedger
from repro.core.machine import placeholder
from repro.core.parallel import ParallelTCUMachine
from repro.core.program import ExecutionCursor, PlanStats


@dataclass(frozen=True)
class ProbeRecord:
    """One captured record: from-zero deltas, span and trace columns."""

    tensor_time: float
    latency_time: float
    cpu_time: float
    span: float
    ns: np.ndarray
    times: np.ndarray
    lats: np.ndarray
    units: np.ndarray


@dataclass(frozen=True)
class ProbeCompile:
    prelude: ProbeRecord
    levels: tuple[ProbeRecord, ...]
    reload_words: tuple[int, ...]
    stats: PlanStats


def _capture(scratch: CostLedger, spans: list[float]) -> ProbeRecord:
    ns, _, times, lats = scratch.calls.as_arrays()
    tensor, latency = scratch.tensor_time, scratch.latency_time
    return ProbeRecord(
        tensor_time=tensor,
        latency_time=latency,
        cpu_time=scratch.cpu_time,
        span=spans[0] if len(spans) == 1 else tensor + latency,
        ns=np.array(ns, copy=True),
        times=np.array(times, copy=True),
        lats=np.array(lats, copy=True),
        units=np.array(scratch.calls.unit_ids(), copy=True),
    )


def _bounds(rows: int, pieces: int) -> list[tuple[int, int]]:
    base, extra = divmod(rows, pieces)
    out, start = [], 0
    for i in range(pieces):
        stop = start + base + (1 if i < extra else 0)
        out.append((start, stop))
        start = stop
    return out


def _rows(group: list) -> int:
    return sum(op.shape[0] for op in group)


def _probe_batch(parts: list, machine: ParallelTCUMachine, splits) -> None:
    """A batch level: one ``mm_batch`` of placeholder pairs — a split
    group as its row-balanced chunks, an unsplit grid as one stacked
    pair, a grid with a split call call by call."""
    s = machine.sqrt_m
    pairs = []
    index = 0
    for part in parts:
        if isinstance(part, list):
            members = [(_rows(part), part[0].dtype, splits[index])]
            index += 1
        else:
            kq, kr, p, _ = part.shape
            factors = splits[index : index + kq * kr]
            index += kq * kr
            if max(factors) == 1:
                pairs.append(
                    (
                        placeholder((1, kq, p, s), part.dtype),
                        placeholder((kr, kq, s, s), part.dtype),
                    )
                )
                continue
            members = [(p, part.dtype, f) for f in factors]
        for rows, dtype, pieces in members:
            A = placeholder((rows, s), dtype)
            B = placeholder((s, s), dtype)
            pairs.extend((A[lo:hi], B) for lo, hi in _bounds(rows, pieces))
    machine.mm_batch(pairs)


def _probe_sequential(parts: list, machine) -> None:
    """A sequential level: whole grids one ``mm_grid`` per grid shape,
    then merge groups — a stream the row bound splits as one ``mm``,
    the rest one ``mm_grid`` per ``(rows, dtype)`` bucket."""
    s = machine.sqrt_m
    grids: dict[tuple, list] = {}
    for part in parts:
        if not isinstance(part, list):
            grids.setdefault((part.shape, np.dtype(part.dtype).str), []).append(part)
    for (shape, _), bucket in grids.items():
        kq, kr, p, _ = shape
        dtype = bucket[0].dtype
        machine.mm_grid(
            placeholder((len(bucket), kq, 1, p, s), dtype),
            placeholder((len(bucket), kq, kr, s, s), dtype),
        )
    streams: dict[tuple, list] = {}
    for part in parts:
        if not isinstance(part, list):
            continue
        n = _rows(part)
        dtype = np.dtype(part[0].dtype)
        if machine.max_rows is not None and n > machine.max_rows:
            machine.mm(placeholder((n, s), dtype), placeholder((s, s), dtype))
            continue
        streams.setdefault((n, dtype.str), []).append(dtype)
    for (n, _), bucket in streams.items():
        machine.mm_grid(
            placeholder((len(bucket), n, s), bucket[0]),
            placeholder((len(bucket), s, s), bucket[0]),
        )


def _probe_level(groups, others, machine, splits) -> None:
    parts = list(groups.parts)
    if len(groups):
        if isinstance(machine, ParallelTCUMachine) and (
            len(groups) > 1 or (splits is not None and any(f > 1 for f in splits))
        ):
            _probe_batch(parts, machine, splits or [1] * len(groups))
        else:
            _probe_sequential(parts, machine)
    for op in others:
        words = int(np.prod(op.shape, dtype=np.int64))
        if op.kind == "add":
            machine.charge_cpu(words * len(op.terms))
        elif op.kind == "copy":
            machine.charge_cpu(words)
        elif op.kind == "apply" and op.cpu:
            machine.charge_cpu(op.cpu)
        elif op.kind == "stripsum":
            kq, kr, p, s = op.a.shape
            machine.charge_cpu(kq * kr * p * s)


def probe_compile(rtype, machine, rows) -> ProbeCompile:
    """Build ``rtype``'s plan for ``rows`` on a fork of ``machine`` and
    capture each level's charges by executing it."""
    probe = machine.fork()
    scratch = CostLedger(trace_calls=True)
    probe.ledger = scratch
    plan = rtype.plan(probe, [int(r) for r in rows])
    prelude = _capture(scratch, [])

    spans: list[float] = []
    scratch.on_charge = lambda category, amount: (
        spans.append(amount) if category == "tensor" else None
    )
    cursor = ExecutionCursor(plan, probe)
    levels = []
    for d, (groups, others) in enumerate(plan.levels):
        scratch.reset()
        spans.clear()
        if probe.execute == "cost-only":
            _probe_level(groups, others, probe, plan.splits[d])
        else:
            cursor.step()
        levels.append(_capture(scratch, spans))
    return ProbeCompile(
        prelude=prelude,
        levels=tuple(levels),
        reload_words=tuple(plan.resident_words(d) for d in range(len(levels))),
        stats=plan.stats,
    )
