"""Model-time accounting for the (m, l)-TCU machine.

The paper's running time is "the total cost of all operations performed
by the CPU, including all calls to the tensor unit" (Section 3), with no
concurrency between CPU, memory and tensor unit.  The :class:`CostLedger`
is that clock: algorithms charge model-time units to it and the total is
the TCU-model running time of the execution.

Four charge categories are tracked separately so experiments can
decompose the totals the way the theorems do:

* ``tensor`` -- the ``n * sqrt(m)`` throughput term of each tensor call,
* ``latency`` -- the ``l`` term of each tensor call,
* ``cpu``    -- every other RAM-model operation (one unit per word op),
* ``reload`` -- words re-loaded into the unit when a preempted execution
  resumes (one unit per word of the resumed plan's resident blocks; see
  :meth:`~repro.core.program.ExecutionCursor.charge_reload`).  Offline
  runs never pay it — it exists so preemptive schedulers (e.g.
  :mod:`repro.serve`) charge checkpoint/restore through the ledger
  instead of treating it as free.

On top of the four charge categories the ledger keeps one
*attribution*: :meth:`CostLedger.attribute_wasted` marks a span of
already-charged time as **wasted work** — model time the machine really
spent (a failed attempt under fault injection) that produced no result.
Attribution never advances the clock: ``wasted_time`` partitions
``total_time`` (``total = useful + wasted + reload``, see
:attr:`CostLedger.useful_time`) instead of adding to it, so a faulty
run's clock stays exactly the time the machine was busy.

The ledger also keeps an optional trace of tensor calls; the external
memory simulation of Theorem 12 replays that trace.  Three trace modes
are supported through ``trace_calls``:

* ``True`` (default) -- every call is recorded in :attr:`calls`, an
  array-backed columnar :class:`CallTrace` (four primitive columns, not
  one object per call, so million-call programs stay cheap);
* ``"aggregate"`` -- only a histogram keyed by ``(n, sqrt_m)`` is kept:
  O(distinct shapes) memory instead of O(calls), still enough for
  :func:`repro.extmem.simulate.simulate_ledger_io` and
  :meth:`CostLedger.calls_summary`;
* ``False`` -- totals only.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from collections import deque
from collections.abc import Callable, Iterator, Sequence
from itertools import starmap
from types import TracebackType

import numpy as np

__all__ = ["TensorCall", "CallTrace", "CostLedger", "LedgerError"]

_I64 = np.dtype(np.int64)
_F64 = np.dtype(np.float64)


def _column(values: object, dtype: np.dtype) -> np.ndarray:
    """``values`` as a C-contiguous array of ``dtype``: the array
    itself when it already is one, else a converted copy."""
    if (
        type(values) is np.ndarray
        and values.dtype is dtype
        and values.flags.c_contiguous
    ):
        return values
    return np.ascontiguousarray(values, dtype=dtype)


class LedgerError(RuntimeError):
    """Raised on invalid accounting operations (e.g. negative charges)."""


@dataclass(frozen=True, slots=True)
class TensorCall:
    """One invocation of the tensor unit.

    A lightweight (``slots``) view materialised on demand from the
    columnar :class:`CallTrace`; traces do not hold these objects.

    Attributes
    ----------
    n:
        Number of rows of the (tall) left operand streamed through the
        unit.  The model requires ``n >= sqrt(m)``.
    sqrt_m:
        Side of the right operand (and width of the left operand).
    time:
        Model time charged for the call, ``n * sqrt_m + latency``.
    latency:
        The ``l`` component included in ``time``.
    section:
        Name of the innermost ledger section active at call time
        (empty string when none), useful for attributing cost.
    unit:
        Tensor unit the call ran on when it was issued through a
        scheduled :meth:`~repro.core.parallel.ParallelTCUMachine.mm_batch`
        (``-1`` for serial calls, which all run on the single unit).
    """

    n: int
    sqrt_m: int
    time: float
    latency: float
    section: str = ""
    unit: int = -1

    @property
    def words_moved(self) -> int:
        """Words read+written by the call: both operands and the output.

        The external-memory simulation (Theorem 12) charges Theta(m)
        I/Os per sqrt(m) x sqrt(m) call; for a tall call the left
        operand and output dominate with ``n * sqrt_m`` words each.
        """
        return self.n * self.sqrt_m * 2 + self.sqrt_m * self.sqrt_m


class CallTrace:
    """Columnar, array-backed record of tensor calls.

    Stores one primitive per column (``array`` module buffers) instead
    of a :class:`TensorCall` object per call; indexing and iteration
    materialise the dataclass view on demand, so existing consumers that
    read ``ledger.calls[i].n`` keep working while long benches stop
    holding O(calls) Python objects.  Section names are interned once
    and referenced by index.
    """

    __slots__ = (
        "_n",
        "_sqrt_m",
        "_time",
        "_latency",
        "_section_ids",
        "_units",
        "_sections",
        "_section_index",
    )

    def __init__(self) -> None:
        self._n = array("q")
        self._sqrt_m = array("q")
        self._time = array("d")
        self._latency = array("d")
        self._section_ids = array("l")
        self._units = array("q")
        self._sections: list[str] = [""]
        self._section_index: dict[str, int] = {"": 0}

    # ------------------------------------------------------------------
    def _intern(self, section: str) -> int:
        """O(1) section-name interning (a dict, not a list scan)."""
        sid = self._section_index.get(section)
        if sid is None:
            sid = len(self._sections)
            self._sections.append(section)
            self._section_index[section] = sid
        return sid

    def record(
        self,
        n: int,
        sqrt_m: int,
        time: float,
        latency: float,
        section: str = "",
        unit: int = -1,
    ) -> None:
        """Append one call from its primitive fields (no object built)."""
        sid = self._intern(section)
        self._n.append(int(n))
        self._sqrt_m.append(int(sqrt_m))
        self._time.append(float(time))
        self._latency.append(float(latency))
        self._section_ids.append(sid)
        self._units.append(int(unit))

    def record_bulk(
        self,
        ns: np.ndarray,
        sqrt_m: int,
        times: np.ndarray,
        latency: float | np.ndarray,
        section: str = "",
        units: np.ndarray | None = None,
    ) -> None:
        """Append many calls that share ``sqrt_m``/``section`` in one
        columnar write (a handful of buffer copies, not k Python calls)
        — the trace counterpart of
        :meth:`CostLedger.charge_tensor_bulk`.  ``latency`` is a shared
        scalar or a per-call column (batch executors replay captured
        traces whose rows may carry differing latencies).  ``units``
        optionally carries the per-call tensor-unit assignment of a
        scheduled batch (``-1``, the default, marks serial calls).
        """
        ns = _column(ns, _I64)
        times = _column(times, _F64)
        if ns.ndim != 1 or times.shape != ns.shape:
            raise LedgerError(
                f"record_bulk expects matching 1-D columns, got {ns.shape} and {times.shape}"
            )
        k = ns.size
        if k == 0:
            return
        # constant columns repeat one item in the trace's own buffer
        # type; per-call columns are copied from numpy as raw bytes
        lat_col: np.ndarray | None = None
        unit_col: np.ndarray | None = None
        if not (isinstance(latency, float) or np.ndim(latency) == 0):
            lat_col = _column(latency, _F64)
            if lat_col.shape != ns.shape:
                raise LedgerError(
                    f"record_bulk latency column has shape {lat_col.shape}, expected {ns.shape}"
                )
        if units is not None:
            unit_col = _column(units, _I64)
            if unit_col.shape != ns.shape:
                raise LedgerError(
                    f"record_bulk units column has shape {unit_col.shape}, expected {ns.shape}"
                )
        sid = self._intern(section)
        self._n.frombytes(ns.tobytes())
        self._sqrt_m += array("q", (int(sqrt_m),)) * k
        self._time.frombytes(times.tobytes())
        if lat_col is None:
            self._latency += array("d", (float(latency),)) * k
        else:
            self._latency.frombytes(lat_col.tobytes())
        self._section_ids += array("l", (sid,)) * k
        if unit_col is None:
            self._units += array("q", (-1,)) * k
        else:
            self._units.frombytes(unit_col.tobytes())

    def append(self, call: TensorCall) -> None:
        """List-style append of a materialised :class:`TensorCall`."""
        self.record(call.n, call.sqrt_m, call.time, call.latency, call.section, call.unit)

    def extend(self, calls: "CallTrace | list[TensorCall]") -> None:
        if isinstance(calls, CallTrace):
            # bulk column copy (no per-call object churn); section ids
            # are remapped through the interned-name tables
            self._n.extend(calls._n)
            self._sqrt_m.extend(calls._sqrt_m)
            self._time.extend(calls._time)
            self._latency.extend(calls._latency)
            self._units.extend(calls._units)
            remap = [self._intern(name) for name in calls._sections]
            self._section_ids.extend(remap[sid] for sid in calls._section_ids)
            return
        for call in calls:
            self.append(call)

    def clear(self) -> None:
        for col in (
            self._n,
            self._sqrt_m,
            self._time,
            self._latency,
            self._section_ids,
            self._units,
        ):
            del col[:]
        del self._sections[1:]
        self._section_index.clear()
        self._section_index[""] = 0

    # ------------------------------------------------------------------
    def columns(self) -> tuple[array, array, array, array]:
        """The raw ``(n, sqrt_m, time, latency)`` columns (zero-copy
        buffers for vectorised consumers such as the Theorem 12 replay)."""
        return self._n, self._sqrt_m, self._time, self._latency

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Zero-copy numpy views of ``(n, sqrt_m, time, latency)``.

        Views alias the live buffers and are only valid until the next
        append (the ``array`` module may reallocate); consumers should
        treat them as a snapshot.
        """
        if not self._n:
            empty_i = np.empty(0, dtype=np.int64)
            empty_f = np.empty(0, dtype=np.float64)
            return empty_i, empty_i, empty_f, empty_f
        return (
            np.frombuffer(self._n, dtype=np.int64),
            np.frombuffer(self._sqrt_m, dtype=np.int64),
            np.frombuffer(self._time, dtype=np.float64),
            np.frombuffer(self._latency, dtype=np.float64),
        )

    def unit_ids(self) -> np.ndarray:
        """Zero-copy view of the per-call tensor-unit assignments.

        ``-1`` marks calls issued serially; a scheduled batch records
        the unit each call ran on.  Same snapshot caveat as
        :meth:`as_arrays`.
        """
        if not self._units:
            return np.empty(0, dtype=np.int64)
        return np.frombuffer(self._units, dtype=np.int64)

    def units_between(self, start: int, stop: int) -> tuple[int, ...]:
        """The distinct tensor units of calls ``start..stop``, sorted
        (``-1`` for serial calls; empty for an empty range)."""
        return tuple(sorted(set(self._units[start:stop])))

    def histogram_by_n(self) -> dict[int, int]:
        """Call count per left-operand height ``n`` (one ``np.unique``
        over the columnar buffer, not a Python loop)."""
        ns = self.as_arrays()[0]
        if ns.size == 0:
            return {}
        values, counts = np.unique(ns, return_counts=True)
        return dict(zip(values.tolist(), counts.tolist(), strict=True))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._n)

    def _materialise(self, i: int) -> TensorCall:
        return TensorCall(
            n=self._n[i],
            sqrt_m=self._sqrt_m[i],
            time=self._time[i],
            latency=self._latency[i],
            section=self._sections[self._section_ids[i]],
            unit=self._units[i],
        )

    def __getitem__(self, index: int | slice) -> TensorCall | list[TensorCall]:
        if isinstance(index, slice):
            return [self._materialise(i) for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("call index out of range")
        return self._materialise(index)

    def __iter__(self) -> Iterator[TensorCall]:
        for i in range(len(self)):
            yield self._materialise(i)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (CallTrace, list, tuple)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other, strict=True)
            )
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CallTrace({len(self)} calls)"


class _Section:
    """The context manager :meth:`CostLedger.section` returns: it pushes
    its name onto the ledger's section stack on entry and pops it on
    exit, an exception inside the block included."""

    __slots__ = ("_stack", "_name")

    def __init__(self, stack: list[str], name: str) -> None:
        self._stack = stack
        self._name = name

    def __enter__(self) -> None:
        self._stack.append(self._name)

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self._stack.pop()


@dataclass
class CostLedger:
    """Accumulates TCU-model time.

    Parameters
    ----------
    trace_calls:
        ``True`` (default) records every tensor call in :attr:`calls` so
        it can be replayed, e.g. by :mod:`repro.extmem.simulate`;
        ``"aggregate"`` keeps only a per-shape histogram (constant memory
        per distinct call shape — use for very long runs that still want
        :meth:`calls_summary` or an aggregate Theorem 12 replay);
        ``False`` keeps totals only.

    ``on_charge``, when set, is called as ``on_charge(category, amount)``
    after every successful charge or attribution (categories
    ``"tensor"`` — throughput *plus* latency, ``"cpu"``, ``"reload"``,
    ``"wasted"``).  It is a pure observer for telemetry
    (:meth:`repro.obs.tracer.Tracer.bind_ledger`): totals, the clock and
    the trace are byte-identical with or without it.  ``on_charges``,
    when set too, takes :meth:`charge_levels`' pairs in one call — the
    sequence ``on_charge`` would otherwise see one pair at a time.
    """

    trace_calls: bool | str = True
    tensor_time: float = 0.0
    latency_time: float = 0.0
    cpu_time: float = 0.0
    reload_time: float = 0.0
    wasted_time: float = 0.0
    tensor_calls: int = 0
    calls: CallTrace = field(default_factory=CallTrace)
    _agg: dict[tuple[int, int], list[float]] = field(default_factory=dict)
    _section_stack: list[str] = field(default_factory=list)
    _section_totals: dict[str, float] = field(default_factory=dict)
    on_charge: Callable[[str, float], None] | None = field(
        default=None, repr=False, compare=False
    )
    on_charges: Callable[[Sequence[tuple[str, float]]], None] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # identity checks: the int 1 equals True but would silently
        # trace nothing, since every mode test below uses `is True`
        if not any(self.trace_calls is mode for mode in (True, False)) and (
            self.trace_calls != "aggregate"
        ):
            raise ValueError(
                f"trace_calls must be True, False or 'aggregate', got {self.trace_calls!r}"
            )

    # ------------------------------------------------------------------
    # charging
    # ------------------------------------------------------------------
    def charge_tensor(self, n: int, sqrt_m: int, latency: float) -> float:
        """Charge one tensor call on an ``n x sqrt_m @ sqrt_m x sqrt_m`` product.

        Returns the model time charged (``n * sqrt_m + latency``).
        """
        if n < sqrt_m:
            raise LedgerError(
                f"tensor call requires n >= sqrt(m); got n={n}, sqrt(m)={sqrt_m}"
            )
        if latency < 0:
            raise LedgerError(f"negative latency {latency!r}")
        throughput = float(n) * float(sqrt_m)
        self.tensor_time += throughput
        self.latency_time += float(latency)
        self.tensor_calls += 1
        total = throughput + float(latency)
        self._bump_sections(total)
        self.record_call(n, sqrt_m, total, float(latency))
        if self.on_charge is not None:
            self.on_charge("tensor", total)
        return total

    def charge_tensor_bulk(self, ns: np.ndarray, sqrt_m: int, latency: float) -> float:
        """Charge many tensor calls at once: the vectorised counterpart of
        :meth:`charge_tensor`.

        ``ns`` holds the per-call row counts; every call shares
        ``sqrt_m`` and ``latency``.  Counters advance by the same totals
        a loop of :meth:`charge_tensor` would produce and the trace gets
        the same k rows, but via one columnar append instead of k Python
        calls.  Totals are bit-identical to the sequential loop whenever
        the charges are integer-valued floats (every call cost in the
        model is ``n*sqrt_m + l`` with integer ``n*sqrt_m``), which the
        path-equivalence tests pin down.

        Returns the total model time charged.
        """
        ns = np.asarray(ns, dtype=np.int64)
        if ns.ndim != 1:
            raise LedgerError(f"charge_tensor_bulk expects a 1-D row-count array, got {ns.shape}")
        k = int(ns.size)
        if k == 0:
            return 0.0
        s = int(sqrt_m)
        if int(ns.min()) < s:
            raise LedgerError(
                f"tensor call requires n >= sqrt(m); got min n={int(ns.min())}, sqrt(m)={s}"
            )
        if latency < 0:
            raise LedgerError(f"negative latency {latency!r}")
        throughput = float(int(ns.sum()) * s)
        latency_total = float(latency) * k
        self.tensor_time += throughput
        self.latency_time += latency_total
        self.tensor_calls += k
        total = throughput + latency_total
        self._bump_sections(total)
        self.record_calls_bulk(ns, s, ns * float(s) + float(latency), float(latency))
        if self.on_charge is not None:
            self.on_charge("tensor", total)
        return total

    def charge_tensor_totals(
        self,
        tensor_time: float,
        latency_time: float,
        ns: np.ndarray,
        sqrt_m: int,
        times: np.ndarray,
        latency: float | np.ndarray,
        units: np.ndarray | None = None,
        *,
        span: float | None = None,
    ) -> float:
        """Charge ``ns.size`` tensor calls whose totals were computed
        elsewhere: a parallel batch's makespan
        (:meth:`~repro.core.parallel.ParallelTCUMachine.mm_batch`) or a
        compiled plan's frozen level
        (:class:`~repro.core.plan_cache.CompiledPlan`).

        The throughput and latency columns advance by ``tensor_time`` and
        ``latency_time``, one addend each; open sections and ``on_charge``
        see ``span`` (default: their sum); the trace gets the calls'
        per-call columns verbatim.  Returns the span.
        """
        if not (0.0 <= tensor_time < math.inf and 0.0 <= latency_time < math.inf):
            raise LedgerError(
                f"tensor totals must be finite and >= 0, got {tensor_time!r}, {latency_time!r}"
            )
        total = tensor_time + latency_time if span is None else span
        self.tensor_time += tensor_time
        self.latency_time += latency_time
        self.tensor_calls += int(ns.size)
        self._bump_sections(total)
        self.record_calls_bulk(ns, sqrt_m, times, latency, units=units)
        if self.on_charge is not None:
            self.on_charge("tensor", total)
        return total

    def charge_levels(
        self,
        tensor: Sequence[float],
        latency: Sequence[float],
        cpu: Sequence[float],
        charges: Sequence[tuple[str, float]],
        calls: int,
    ) -> None:
        """Charge a compiled plan's levels in one pass.

        ``tensor[i]``, ``latency[i]`` and ``cpu[i]`` are level ``i``'s
        from-zero counter deltas (zero where it charges nothing of a
        kind), ``charges`` is the levels' ``on_charge`` sequence — a
        level's tensor span, when it has calls, then its CPU delta, when
        it has CPU work — and ``calls`` their tensor call count.  The
        counters, open sections and ``on_charge`` see exactly what
        charging the levels one by one through
        :meth:`charge_tensor_totals` and :meth:`charge_cpu` gives them:
        each adds its addends left to right (adding a zero leaves a
        non-negative float unchanged); an ``on_charges`` hook gets the
        whole ``charges`` sequence in one call instead.  The trace is
        left to the caller, which appends all the levels' calls in one
        :meth:`record_calls_bulk`.  The deltas must already be checked
        finite and non-negative.
        """
        tensor_time, latency_time, cpu_time = self.tensor_time, self.latency_time, self.cpu_time
        for amount in tensor:
            tensor_time += amount
        for amount in latency:
            latency_time += amount
        for amount in cpu:
            cpu_time += amount
        self.tensor_time, self.latency_time, self.cpu_time = tensor_time, latency_time, cpu_time
        self.tensor_calls += calls
        totals = self._section_totals
        for name in self._section_stack:
            total = totals.get(name, 0.0)
            for _, amount in charges:
                total += amount
            totals[name] = total
        if self.on_charges is not None:
            self.on_charges(charges)
        elif self.on_charge is not None:
            # consume the calls at C speed: a deep plan feeds the hook
            # once per level and category, as stepping it would
            deque(starmap(self.on_charge, charges), maxlen=0)

    def record_call(
        self, n: int, sqrt_m: int, time: float, latency: float, unit: int = -1
    ) -> None:
        """Trace one call under the active mode (no counters touched).

        Used internally by :meth:`charge_tensor`.
        """
        if self.trace_calls is True:
            section = self._section_stack[-1] if self._section_stack else ""
            self.calls.record(int(n), int(sqrt_m), time, latency, section, unit)
        elif self.trace_calls == "aggregate":
            bucket = self._agg.setdefault((int(n), int(sqrt_m)), [0, 0.0, 0.0])
            bucket[0] += 1
            bucket[1] += time
            bucket[2] += latency

    def record_calls_bulk(
        self,
        ns: np.ndarray,
        sqrt_m: int,
        times: np.ndarray,
        latency: float | np.ndarray,
        units: np.ndarray | None = None,
    ) -> None:
        """Bulk trace append under the active mode (no counters touched):
        the vectorised counterpart of :meth:`record_call`, used by
        :meth:`charge_tensor_bulk` and :meth:`charge_tensor_totals`.
        ``latency`` is a shared scalar or a per-call column; ``units``
        optionally records per-call unit assignments (ignored by the
        aggregate histogram, which is keyed on shape alone)."""
        if self.trace_calls is True:
            section = self._section_stack[-1] if self._section_stack else ""
            self.calls.record_bulk(ns, int(sqrt_m), times, latency, section, units)
        elif self.trace_calls == "aggregate":
            ns = np.asarray(ns, dtype=np.int64)
            times = np.asarray(times, dtype=np.float64)
            lats = np.broadcast_to(np.asarray(latency, dtype=np.float64), ns.shape)
            values, inverse, counts = np.unique(
                ns, return_inverse=True, return_counts=True
            )
            time_sums = np.bincount(inverse, weights=times)
            lat_sums = np.bincount(inverse, weights=lats)
            for v, c, t, lat in zip(
                values.tolist(), counts.tolist(), time_sums.tolist(), lat_sums.tolist(),
                strict=True,
            ):
                bucket = self._agg.setdefault((v, int(sqrt_m)), [0, 0.0, 0.0])
                bucket[0] += c
                bucket[1] += t
                bucket[2] += lat

    def charge_cpu(self, ops: float) -> float:
        """Charge ``ops`` units of RAM-model work (one unit per word op)."""
        if ops < 0:
            raise LedgerError(f"negative cpu charge {ops!r}")
        if not math.isfinite(ops):
            raise LedgerError(f"non-finite cpu charge {ops!r}")
        self.cpu_time += float(ops)
        self._bump_sections(float(ops))
        if self.on_charge is not None:
            self.on_charge("cpu", float(ops))
        return float(ops)

    def charge_reload(self, words: float) -> float:
        """Charge ``words`` units of resident-state re-load time.

        The resume cost of a preempted execution: every word of the
        plan's remaining resident blocks must travel back into the
        tensor unit, one model-time unit per word — the same rate as
        any other RAM-model data movement, but accounted in its own
        column so a preempted run can be reconciled against its
        uninterrupted replay (``preempted = replay + reload``).
        """
        if words < 0:
            raise LedgerError(f"negative reload charge {words!r}")
        if not math.isfinite(words):
            raise LedgerError(f"non-finite reload charge {words!r}")
        self.reload_time += float(words)
        self._bump_sections(float(words))
        if self.on_charge is not None:
            self.on_charge("reload", float(words))
        return float(words)

    def attribute_wasted(self, span: float) -> float:
        """Mark ``span`` units of *already-charged* time as wasted work.

        A fault-tolerant scheduler charges a failed attempt through the
        ordinary categories (the machine really ran), then attributes
        the lost portion here so ``total = useful + wasted + reload``
        stays checkable.  Attribution is bookkeeping, not a charge: the
        clock does not advance, and the wasted total can never exceed
        the time actually charged so far (minus the reload column,
        which is accounted separately and never double-counted).
        """
        if span < 0:
            raise LedgerError(f"negative wasted attribution {span!r}")
        if not math.isfinite(span):
            raise LedgerError(f"non-finite wasted attribution {span!r}")
        new_total = self.wasted_time + float(span)
        budget = self.total_time - self.reload_time
        # float accumulation headroom: a whole failed run attributed in
        # many pieces may overshoot the charged total by round-off only
        if new_total > budget * (1 + 1e-9) + 1e-9:
            raise LedgerError(
                f"cannot attribute {span} as wasted: total wasted {new_total} "
                f"would exceed the {budget} of non-reload time charged"
            )
        self.wasted_time = new_total
        if self.on_charge is not None:
            self.on_charge("wasted", float(span))
        return float(span)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def total_time(self) -> float:
        """Model running time: the paper's single sequential clock."""
        return self.tensor_time + self.latency_time + self.cpu_time + self.reload_time

    @property
    def useful_time(self) -> float:
        """Charged time that produced results: ``total - wasted - reload``."""
        return self.total_time - self.wasted_time - self.reload_time

    @property
    def clock(self) -> float:
        """The model clock, as online consumers read it.

        An alias of :attr:`total_time` named for its role: discrete-event
        layers (e.g. :mod:`repro.serve`) advance *their* simulated clock
        by deltas of this one, so "the time the machine has charged" and
        "the time the serving clock shows" are the same quantity.
        """
        return self.total_time

    @property
    def tensor_total(self) -> float:
        """Tensor-unit time including latency (sum of all call costs)."""
        return self.tensor_time + self.latency_time

    def section_time(self, name: str) -> float:
        """Total model time charged while section ``name`` was open."""
        return self._section_totals.get(name, 0.0)

    def snapshot(self) -> dict[str, float]:
        """Totals as a plain dict (stable keys, for tables and tests)."""
        return {
            "tensor_time": self.tensor_time,
            "latency_time": self.latency_time,
            "cpu_time": self.cpu_time,
            "reload_time": self.reload_time,
            "wasted_time": self.wasted_time,
            "tensor_calls": float(self.tensor_calls),
            "total_time": self.total_time,
        }

    def call_shape_totals(self) -> dict[tuple[int, int], tuple[int, float, float]]:
        """Per ``(n, sqrt_m)`` shape: ``(count, total_time, total_latency)``.

        Available in both full-trace and aggregate modes (the Theorem 12
        replay consumes this when per-call order is not needed); raises
        :class:`LedgerError` when tracing is disabled.
        """
        if self.trace_calls == "aggregate":
            return {k: (int(v[0]), v[1], v[2]) for k, v in self._agg.items()}
        if self.trace_calls is True:
            n, s, t, lat = self.calls.as_arrays()
            if n.size == 0:
                return {}
            # vectorised group-by over the columnar buffers: unique
            # (n, sqrt_m) pairs, then bincount-reduced time and latency
            keys = np.stack([n, s], axis=1)
            uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
            inverse = inverse.reshape(-1)
            counts = np.bincount(inverse)
            time_sums = np.bincount(inverse, weights=t)
            lat_sums = np.bincount(inverse, weights=lat)
            return {
                (int(un), int(us)): (int(c), float(ts), float(ls))
                for (un, us), c, ts, ls in zip(
                    uniq.tolist(), counts.tolist(), time_sums.tolist(), lat_sums.tolist(),
                    strict=True,
                )
            }
        raise LedgerError(
            "ledger was created with trace_calls=False; no per-shape totals"
        )

    def calls_summary(self) -> dict[str, object]:
        """Compact trace digest: call count, total tensor time and a
        histogram of call heights.

        Works in every trace mode; the histogram is ``None`` when
        ``trace_calls=False`` (the scalar counters are always exact).
        """
        if self.trace_calls is False:
            hist = None
        elif self.trace_calls == "aggregate":
            hist = {}
            for (n, _), (count, _, _) in self._agg.items():
                hist[n] = hist.get(n, 0) + count
        else:
            hist = self.calls.histogram_by_n()
        return {
            "count": self.tensor_calls,
            "total_time": self.tensor_total,
            "histogram": hist,
        }

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def section(self, name: str) -> _Section:
        """Attribute all charges inside the ``with`` block to ``name``
        (nestable: each charge adds to every open section)."""
        return _Section(self._section_stack, name)

    def _bump_sections(self, amount: float) -> None:
        for name in self._section_stack:
            self._section_totals[name] = self._section_totals.get(name, 0.0) + amount

    def reset(self) -> None:
        """Zero every counter and drop the trace (sections stay closed)."""
        if self._section_stack:
            raise LedgerError("cannot reset a ledger while sections are open")
        self.tensor_time = 0.0
        self.latency_time = 0.0
        self.cpu_time = 0.0
        self.reload_time = 0.0
        self.wasted_time = 0.0
        self.tensor_calls = 0
        self.calls.clear()
        self._agg.clear()
        self._section_totals.clear()

    def merged_with(self, other: "CostLedger") -> "CostLedger":
        """Return a new ledger whose totals are the sum of both.

        Full traces concatenate when both sides kept them; if either
        side aggregated, the merge degrades to aggregate (histograms
        add); if either side disabled tracing, so does the merge.
        """
        if self.trace_calls is False or other.trace_calls is False:
            mode: bool | str = False
        elif self.trace_calls is True and other.trace_calls is True:
            mode = True
        else:
            mode = "aggregate"
        out = CostLedger(trace_calls=mode)
        out.tensor_time = self.tensor_time + other.tensor_time
        out.latency_time = self.latency_time + other.latency_time
        out.cpu_time = self.cpu_time + other.cpu_time
        out.reload_time = self.reload_time + other.reload_time
        out.wasted_time = self.wasted_time + other.wasted_time
        out.tensor_calls = self.tensor_calls + other.tensor_calls
        if mode is True:
            out.calls.extend(self.calls)
            out.calls.extend(other.calls)
        elif mode == "aggregate":
            for src in (self, other):
                for key, (count, time, lat) in src.call_shape_totals().items():
                    bucket = out._agg.setdefault(key, [0, 0.0, 0.0])
                    bucket[0] += count
                    bucket[1] += time
                    bucket[2] += lat
        for src_totals in (self._section_totals, other._section_totals):
            for key, val in src_totals.items():
                out._section_totals[key] = out._section_totals.get(key, 0.0) + val
        return out
