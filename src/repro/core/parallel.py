"""Parallel tensor units — the paper's first §6 open question.

Section 3.1 concedes that modelling a *single* tensor unit is the
model's major simplification (a Titan RTX carries >500 tensor cores).
:class:`ParallelTCUMachine` extends the (m, l)-TCU with ``p`` identical
units: *independent* tensor calls issued through :meth:`mm_batch` may
run concurrently, and the model time charged for the batch is the
**makespan** of a scheduled assignment of calls to units rather than
the serial sum.  Everything else — the CPU, memory, the cost of one
call — is unchanged, so every single-unit algorithm still runs and the
p = 1 machine is exactly the paper's model.

Two invariants pin the batch semantics to the scalar model:

* **True per-call costs.**  A batched call is priced exactly as the
  scalar :meth:`~repro.core.machine.TCUMachine.mm` path prices it —
  max-rows stream splitting, complex cost factors, overflow checking,
  the systolic backend and any subclass per-call semantics included.
  Machines whose calls are plain ``n*sqrt(m) + l`` products take a
  vectorised fast path; every other configuration routes each call
  through the machine's own primitive against a scratch ledger, so the
  numerics stay bit-correct and the measured costs *are* the serial
  costs.  Cost-only batches are charged from their shapes alone
  (:meth:`ParallelTCUMachine.charge_mm_batch`), each non-plain call
  through the shape-only :meth:`~repro.core.machine.TCUMachine.charge_mm`.
* **Trace = hardware work, clock = wall time.**  The call trace records
  every hardware call at its true cost with a ``unit_id`` (so per-shape
  totals and the Theorem 12 I/O replay are identical to a serial run),
  while the ledger's time counters advance by the makespan — the wall
  clock of the p-unit machine.  CPU-side work captured during the batch
  (padding copies, the extra adds of a 4-product complex multiply,
  reassembly) stays serial: there is still one CPU.

Scheduling is delegated to :mod:`repro.core.scheduling`: the default
LPT policy is a classical (4/3 - 1/(3p))-approximation of the optimal
makespan; round-robin, greedy-online and an exact oracle are available
by name, and :attr:`ParallelTCUMachine.last_schedule` exposes the
per-unit timelines for utilisation reporting.

The obvious consequences the benches measure:

* a batch of k equal calls speeds up by ``min(p, k)``;
* latency does not parallelise away *within* a call, so
  latency-dominated workloads gain little;
* Theorem 2's schedule parallelises perfectly across its independent
  ``C_{i,j}`` products, giving ``~ n^{3/2}/(p sqrt(m))`` throughput time
  until the call count drops below p.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .ledger import CostLedger
from .machine import TCUMachine, TensorShapeError, placeholder
from .scheduling import Schedule, SchedulerPolicy, get_scheduler, schedule_batch

__all__ = ["ParallelTCUMachine", "BatchStats"]


@dataclass(frozen=True)
class BatchStats:
    """Accounting record of one :meth:`ParallelTCUMachine.mm_batch`.

    Attributes
    ----------
    calls:
        Number of logical tensor calls in the batch (batch elements).
    serial_time:
        Sum of the individual true call costs — exactly what the serial
        ledger would charge for the same calls on a single unit.
    makespan:
        The batch's charged model time under the scheduled assignment.
    units_used:
        Distinct units that received at least one call.
    policy:
        Name of the scheduling policy that produced the assignment.
    hardware_calls:
        Tensor-unit invocations actually issued (max-rows splitting and
        complex cost factors make this exceed ``calls``).
    cpu_time:
        Serial CPU work charged alongside the batch (padding copies,
        complex-multiply adds, reassembly).
    utilization:
        Busy fraction of the whole pool, ``serial / (p * makespan)``.
    gap_bound:
        The policy's worst-case makespan / optimum ratio (``None`` when
        the policy carries no guarantee).
    """

    calls: int
    serial_time: float
    makespan: float
    units_used: int
    policy: str = ""
    hardware_calls: int = 0
    cpu_time: float = 0.0
    utilization: float = 1.0
    gap_bound: float | None = None

    @property
    def speedup(self) -> float:
        return self.serial_time / self.makespan if self.makespan else 1.0


def _stack_lead(A: np.ndarray, B: np.ndarray) -> tuple[int, ...]:
    """The broadcast leading shape of a stacked ``mm_batch`` pair."""
    try:
        lead = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    except ValueError as exc:
        raise TensorShapeError(
            f"batch operand shapes {A.shape} and {B.shape} do not broadcast"
        ) from exc
    if 0 in lead:
        raise TensorShapeError(f"batch pair {A.shape} @ {B.shape} holds no calls")
    return lead


def _stacked(outs: list[np.ndarray], lead: tuple[int, ...]) -> np.ndarray:
    """Per-call products of a stacked pair, in C order, as one
    ``lead + (n, sqrt(m))`` array."""
    first = outs[0]
    out = np.empty(lead + first.shape, dtype=first.dtype)
    out.reshape((-1,) + first.shape)[:] = outs
    return out


class ParallelTCUMachine(TCUMachine):
    """An (m, l)-TCU with ``units`` identical tensor units.

    Single calls through :meth:`mm` behave exactly like the sequential
    model (one unit active, full cost).  Independent calls batched
    through :meth:`mm_batch` are scheduled across the units by
    ``scheduler`` (a :mod:`repro.core.scheduling` policy name or
    instance; LPT by default) and the ledger clock advances by the
    makespan, while the call trace keeps every hardware call at its
    true serial cost tagged with its ``unit_id``.
    """

    def __init__(
        self,
        m: int,
        ell: float = 0.0,
        *,
        units: int = 2,
        scheduler: str | SchedulerPolicy = "lpt",
        **kwargs,
    ) -> None:
        if units < 1:
            raise ValueError(f"units must be >= 1, got {units}")
        super().__init__(m, ell, **kwargs)
        self.units = int(units)
        self.scheduler = get_scheduler(scheduler)
        self.last_batch: BatchStats | None = None
        self.last_schedule: Schedule | None = None

    # ------------------------------------------------------------------
    def mm_batch(
        self,
        pairs: list[tuple[np.ndarray, np.ndarray]],
        *,
        policy: str | SchedulerPolicy | None = None,
    ) -> list[np.ndarray]:
        """Execute independent products concurrently; returns their results.

        Each pair must satisfy the single-call interface (``n x sqrt(m)``
        by ``sqrt(m) x sqrt(m)``, ``n >= sqrt(m)``).  The caller asserts
        independence (no result feeds another operand) — exactly the
        guarantee the Theorem 2 grid and the DFT levels provide.  A call
        whose stream exceeds ``max_rows`` is one *logical* job: its
        hardware chunks run back-to-back on the unit it is assigned to,
        exactly as the scalar splitting primitive issues them.

        A pair may also be stacked like :meth:`mm_grid`'s operands —
        ``A`` of shape ``(..., n, sqrt(m))`` and ``B`` of shape
        ``(..., sqrt(m), sqrt(m))`` whose leading dimensions broadcast —
        standing for one call per broadcast element, in C order; its
        result is the stacked ``(..., n, sqrt(m))`` product.  The plain
        path multiplies such a pair in one ``np.matmul`` (a grid's
        strips broadcast against its blocks, never copied per call).

        ``policy`` overrides the machine's scheduler for this batch.
        """
        sched_policy = self.scheduler if policy is None else get_scheduler(policy)
        if not pairs:
            self.last_batch = BatchStats(
                0,
                0.0,
                0.0,
                0,
                policy=sched_policy.name,
                gap_bound=sched_policy.gap_bound(self.units),
            )
            self.last_schedule = None
            return []
        s = self.sqrt_m
        pairs = [(np.asarray(A), np.asarray(B)) for A, B in pairs]
        ns = np.empty(len(pairs), dtype=np.int64)
        leads: list[tuple[int, ...]] = []
        pair_dtypes: list[np.dtype] = []
        for i, (A, B) in enumerate(pairs):
            if A.ndim < 2 or A.shape[-1] != s or B.shape[-2:] != (s, s):
                raise TensorShapeError(
                    f"batch operand shapes {A.shape} @ {B.shape} violate the "
                    f"(n x {s}) @ ({s} x {s}) interface"
                )
            if A.shape[-2] < s:
                raise TensorShapeError(
                    f"batch left operand has {A.shape[-2]} rows < sqrt(m)={s}"
                )
            ns[i] = A.shape[-2]
            leads.append(_stack_lead(A, B) if A.ndim > 2 or B.ndim > 2 else ())
            pair_dtypes.append(np.result_type(A.dtype, B.dtype))
        dtypes = pair_dtypes
        if any(leads):
            counts = [math.prod(lead) for lead in leads]
            ns = np.repeat(ns, counts)
            dtypes = [dt for dt, c in zip(pair_dtypes, counts, strict=True) for _ in range(c)]

        if self.execute == "cost-only":
            self.charge_mm_batch(ns, dtypes, sched_policy)
            return [
                placeholder(lead + (A.shape[-2], s), dt)
                for (A, _), lead, dt in zip(pairs, leads, pair_dtypes, strict=True)
            ]
        if self._plain(dtypes):
            self.charge_mm_batch(ns, dtypes, sched_policy)
            return [A @ B for A, B in pairs]

        # Route every call through the machine's own primitive: the
        # results are bit-identical to a serial run, and the measured
        # charges are the true serial costs.
        calls: list[tuple[np.ndarray, np.ndarray]] = []
        for (A, B), lead in zip(pairs, leads, strict=True):
            if not lead:
                calls.append((A, B))
                continue
            Ab = np.broadcast_to(A, lead + A.shape[-2:])
            Bb = np.broadcast_to(B, lead + (s, s))
            calls.extend((Ab[idx], Bb[idx]) for idx in np.ndindex(*lead))
        outs: list[np.ndarray] = []
        self._charge_measured(
            (outs.append(self.mm(A, B)) for A, B in calls), len(calls), sched_policy
        )
        results: list[np.ndarray] = []
        index = 0
        for lead in leads:
            if not lead:
                results.append(outs[index])
                index += 1
                continue
            count = math.prod(lead)
            results.append(_stacked(outs[index : index + count], lead))
            index += count
        return results

    def _plain(self, dtypes: Sequence[np.dtype]) -> bool:
        """Whether a batch's calls of these dtypes are plain
        ``n*sqrt(m) + l`` numpy products.  Anything that changes per-call
        cost or numerics — hardware row bounds, complex cost factors,
        overflow checks, the systolic backend, subclass overrides — is
        measured call by call instead."""
        return (
            self.fusable
            and self.max_rows is None
            and not self.check_overflow
            and (
                # at factor 1 complex calls price and execute exactly
                # like real ones, so the fast path stays valid
                self.complex_cost_factor == 1
                or not any(np.issubdtype(dt, np.complexfloating) for dt in set(dtypes))
            )
        )

    def charge_mm_batch(
        self,
        ns: np.ndarray,
        dtypes: Sequence[np.dtype],
        policy: SchedulerPolicy | None = None,
    ) -> float:
        """Charge a batch of independent calls from their shapes alone:
        call ``i`` streams ``ns[i]`` rows of ``dtypes[i]``.  Returns the
        makespan.

        The charges :meth:`mm_batch` issues for such calls: per-call
        costs from the plain formula, or — on row-bounded, complex-cost
        or non-plain machines — each call's :meth:`charge_mm` measured
        on a scratch ledger; one schedule by ``policy`` (default: the
        machine's); the clock advanced by the makespan, split between
        the throughput and latency columns in proportion; captured CPU
        work charged serially after it.  Sets :attr:`last_batch` and
        :attr:`last_schedule` as ``mm_batch`` does.  Cost-only
        ``mm_batch`` charges through here, and so does the shape-only
        level pricer (:func:`repro.core.program.price_level`).
        """
        policy = self.scheduler if policy is None else policy
        s = self.sqrt_m
        ns = np.asarray(ns, dtype=np.int64)
        k = int(ns.size)
        if k and int(ns.min()) < s:
            raise TensorShapeError(
                f"batch left operand has {int(ns.min())} rows < sqrt(m)={s}"
            )
        if not self._plain(dtypes):
            return self._charge_measured(
                (self.charge_mm(n, dt) for n, dt in zip(ns.tolist(), dtypes, strict=True)),
                k,
                policy,
            )
        costs = ns * float(s) + self.ell
        return self._charge_schedule(
            costs, float(int(ns.sum()) * s), self.ell * k, k,
            ns, costs, self.ell, None, 0.0, policy,
        )

    def _charge_measured(self, calls: Iterator[None], k: int, policy: SchedulerPolicy) -> float:
        """Charge a batch whose ``k`` calls are issued one by one by
        ``next(calls)`` against a scratch ledger: the per-call deltas
        are the true serial costs (chunk latencies, complex factors,
        subclass semantics included)."""
        scratch = CostLedger(trace_calls=True)
        saved = self.ledger
        self.ledger = scratch
        costs = np.empty(k)
        call_rows = np.zeros(k + 1, dtype=np.int64)
        prev = 0.0
        try:
            for i, _ in enumerate(calls):
                cum = scratch.tensor_time + scratch.latency_time
                costs[i] = cum - prev
                prev = cum
                call_rows[i + 1] = len(scratch.calls)
        finally:
            self.ledger = saved
        row_ns, _, row_times, row_lats = scratch.calls.as_arrays()
        return self._charge_schedule(
            costs, scratch.tensor_time, scratch.latency_time, scratch.tensor_calls,
            row_ns, row_times, row_lats, np.diff(call_rows), scratch.cpu_time, policy,
        )

    def _charge_schedule(
        self,
        costs: np.ndarray,
        serial_throughput: float,
        serial_latency: float,
        hardware_calls: int,
        row_ns: np.ndarray,
        row_times: np.ndarray,
        row_lats: float | np.ndarray,
        rows_per_call: np.ndarray | None,
        cpu_total: float,
        policy: SchedulerPolicy,
    ) -> float:
        """Schedule a batch's per-call ``costs`` and charge it.

        The ledger clock advances by the makespan, split between the
        throughput and latency columns in the same proportion as the
        serial costs; the trace keeps every hardware call (``row_*``;
        ``rows_per_call`` hardware rows per logical call, or one each)
        at its true cost with its unit id, so per-shape totals and the
        Theorem 12 replay match a serial run exactly.  Captured CPU work
        stays serial (one CPU).
        """
        schedule = schedule_batch(costs, self.units, policy)
        makespan = schedule.makespan
        serial = serial_throughput + serial_latency
        scale = makespan / serial if serial else 0.0
        if rows_per_call is None:
            row_units = schedule.assignment
        else:
            row_units = np.repeat(schedule.assignment, rows_per_call)
        self.ledger.charge_tensor_totals(
            serial_throughput * scale, serial_latency * scale,
            row_ns, self.sqrt_m, row_times, row_lats, row_units, span=makespan,
        )
        if cpu_total:
            self.ledger.charge_cpu(cpu_total)

        self.last_schedule = schedule
        self.last_batch = BatchStats(
            calls=int(costs.size),
            serial_time=serial,
            makespan=makespan,
            units_used=schedule.units_used,
            policy=schedule.policy,
            hardware_calls=hardware_calls,
            cpu_time=cpu_total,
            utilization=schedule.utilization,
            gap_bound=schedule.gap_bound,
        )
        return makespan

    def config_key(self) -> tuple:
        """Extends the base fingerprint with the unit count and the
        scheduling policy (both change makespans, hence charges)."""
        return super().config_key() + (self.units, self.scheduler.name)

    def fork(self) -> "ParallelTCUMachine":
        """A machine with identical parameters (including the unit
        count and scheduling policy) and a fresh ledger."""
        return type(self)(
            self.m,
            self.ell,
            units=self.units,
            scheduler=self.scheduler,
            kappa=self.kappa,
            max_rows=self.max_rows,
            complex_cost_factor=self.complex_cost_factor,
            backend=self.backend,
            execute=self.execute,
            check_overflow=self.check_overflow,
            trace_calls=self.ledger.trace_calls,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ParallelTCUMachine(m={self.m}, ell={self.ell}, "
            f"units={self.units}, scheduler={self.scheduler.name!r})"
        )
