"""Deterministic multi-unit scheduling — the batching pillar behind
:class:`~repro.core.parallel.ParallelTCUMachine`.

The §6 open question extends the (m, l)-TCU with ``p`` identical tensor
units.  Charging a batch of independent calls then needs a *schedule*:
an assignment of calls to units whose makespan is the batch's wall-clock
model time.  This module owns that concern, decoupled from the machine:
policies consume a vector of per-call costs (obtained from the machine
itself, so max-rows chunking, complex-cost factors and subclass
semantics are already folded in) and produce a :class:`Schedule` with
per-unit timelines, makespan, utilisation and the policy's worst-case
optimality gap.

Policies
--------
``lpt``
    Longest processing time first: sort decreasing, place each job on
    the earliest-free unit.  The classical Graham bound guarantees a
    makespan within ``4/3 - 1/(3p)`` of optimal (:func:`lpt_bound`).
``round-robin``
    Job ``i`` to unit ``i mod p``.  Optimal for equal costs; no
    constant-factor guarantee for skewed batches.
``greedy``
    Online list scheduling in arrival order: each job to the currently
    least-loaded unit, within ``2 - 1/p`` of optimal without needing
    the whole batch up front.
``exact``
    Brute-force minimal makespan (branch and bound with symmetry
    pruning).  Exponential — gated to small batches and used as the
    test oracle the approximation bounds are checked against.

Policies register by name (:func:`register_scheduler`) so machines,
benches and experiments select them with a string; custom policies are
ordinary subclasses of :class:`SchedulerPolicy`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Schedule",
    "SchedulerPolicy",
    "LPTScheduler",
    "RoundRobinScheduler",
    "GreedyOnlineScheduler",
    "BruteForceScheduler",
    "schedule_batch",
    "get_scheduler",
    "register_scheduler",
    "available_schedulers",
    "lpt_bound",
]


def lpt_bound(units: int) -> float:
    """Graham's LPT guarantee: makespan <= (4/3 - 1/(3p)) * optimum."""
    if units < 1:
        raise ValueError(f"units must be >= 1, got {units}")
    return 4.0 / 3.0 - 1.0 / (3.0 * units)


@dataclass(frozen=True)
class Schedule:
    """One scheduled batch: the assignment and its derived accounting.

    Attributes
    ----------
    policy:
        Name of the policy that produced the assignment.
    units:
        Number of identical units scheduled over.
    costs:
        Per-job costs the schedule was computed from.
    assignment:
        ``assignment[i]`` is the unit job ``i`` runs on.
    unit_times:
        Busy time per unit (length ``units``); the per-unit timeline
        totals, accumulated in job-index order.
    gap_bound:
        The policy's worst-case makespan / optimum ratio for this unit
        count (``1.0`` for the exact policy, ``None`` when the policy
        carries no constant-factor guarantee).
    """

    policy: str
    units: int
    costs: np.ndarray
    assignment: np.ndarray
    unit_times: np.ndarray
    gap_bound: float | None

    @property
    def makespan(self) -> float:
        """Wall-clock model time of the batch: the fullest unit."""
        return float(self.unit_times.max()) if self.unit_times.size else 0.0

    @property
    def serial_time(self) -> float:
        """What one unit would pay: the sum of all job costs."""
        return float(self.unit_times.sum())

    @property
    def units_used(self) -> int:
        """Distinct units that received at least one job."""
        return int(np.unique(self.assignment).size)

    @property
    def utilization(self) -> float:
        """Busy fraction of the whole pool: serial / (p * makespan)."""
        span = self.makespan
        return self.serial_time / (self.units * span) if span else 1.0

    @property
    def speedup(self) -> float:
        span = self.makespan
        return self.serial_time / span if span else 1.0

    @property
    def lower_bound(self) -> float:
        """The trivial makespan lower bound max(max job, serial / p)."""
        if self.costs.size == 0:
            return 0.0
        return max(float(self.costs.max()), self.serial_time / self.units)


class SchedulerPolicy:
    """Base class: map per-job costs to a unit assignment.

    Subclasses implement :meth:`assign`; everything derived (timelines,
    makespan, utilisation) is computed uniformly by
    :func:`schedule_batch` so policies stay tiny and comparable.

    ``order_free`` declares that the makespan depends only on the
    multiset of job costs, not on their order, whenever float sums of
    the costs are exact (integer-valued costs below ``2**53``).  The
    auto-splitter then memoises makespans by multiset.  It is false by
    default, and a subclass of an order-free policy that changes
    :meth:`assign` must re-declare it.
    """

    name = "abstract"
    order_free = False

    def assign(self, costs: np.ndarray, units: int) -> np.ndarray:
        raise NotImplementedError

    def gap_bound(self, units: int) -> float | None:
        """Worst-case makespan / optimum ratio, or None if unbounded."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class RoundRobinScheduler(SchedulerPolicy):
    """Job ``i`` to unit ``i mod p`` — optimal for equal-cost batches."""

    name = "round-robin"

    def assign(self, costs: np.ndarray, units: int) -> np.ndarray:
        return np.arange(costs.size, dtype=np.int64) % units


class GreedyOnlineScheduler(SchedulerPolicy):
    """List scheduling in arrival order: each job to the least-loaded
    unit at its arrival.  Graham's online bound: within ``2 - 1/p``."""

    name = "greedy"

    def assign(self, costs: np.ndarray, units: int) -> np.ndarray:
        k = costs.size
        assignment = np.empty(k, dtype=np.int64)
        heap = [(0.0, u) for u in range(units)]
        for i in range(k):
            load, unit = heapq.heappop(heap)
            assignment[i] = unit
            heapq.heappush(heap, (load + float(costs[i]), unit))
        return assignment

    def gap_bound(self, units: int) -> float:
        return 2.0 - 1.0 / units


class LPTScheduler(SchedulerPolicy):
    """Longest processing time first — the default offline policy."""

    name = "lpt"
    # sorting by cost erases the input order (equal costs are
    # interchangeable), so only the per-unit sums could see it
    order_free = True

    def assign(self, costs: np.ndarray, units: int) -> np.ndarray:
        k = costs.size
        if k <= units or np.all(costs == costs[0]):
            # every job its own unit / equal costs: LPT degenerates to
            # round-robin (sorting equal keys is the identity)
            return np.arange(k, dtype=np.int64) % units
        order = np.argsort(-costs, kind="stable")
        assignment = np.empty(k, dtype=np.int64)
        heap = [(0.0, u) for u in range(units)]
        for idx in order:
            load, unit = heapq.heappop(heap)
            assignment[idx] = unit
            heapq.heappush(heap, (load + float(costs[idx]), unit))
        return assignment

    def gap_bound(self, units: int) -> float:
        return lpt_bound(units)


class BruteForceScheduler(SchedulerPolicy):
    """Exact minimal-makespan assignment by branch and bound.

    Exponential in the job count — refuses batches above ``limit`` jobs
    so it cannot be reached from production paths by accident.  Its role
    is the oracle: policy tests compare LPT/greedy makespans against it
    to verify the advertised approximation bounds.
    """

    name = "exact"
    # the optimum is a function of the cost multiset
    order_free = True

    def __init__(self, limit: int = 12) -> None:
        self.limit = int(limit)

    def assign(self, costs: np.ndarray, units: int) -> np.ndarray:
        k = costs.size
        if k > self.limit:
            raise ValueError(
                f"exact scheduling is exponential; batch of {k} exceeds "
                f"the limit of {self.limit} jobs"
            )
        order = np.argsort(-costs, kind="stable")
        loads = [0.0] * units
        current = np.empty(k, dtype=np.int64)
        best_assignment = np.arange(k, dtype=np.int64) % units
        best = float(
            np.bincount(best_assignment, weights=costs, minlength=units).max()
        )

        def dfs(i: int, partial: float) -> None:
            nonlocal best, best_assignment
            if i == k:
                if partial < best:
                    best = partial
                    best_assignment = current.copy()
                return
            cost = float(costs[order[i]])
            seen: set[float] = set()
            for u in range(units):
                # units with equal load are interchangeable: try one
                if loads[u] in seen:
                    continue
                seen.add(loads[u])
                finish = loads[u] + cost
                if max(partial, finish) >= best:
                    continue
                loads[u] = finish
                current[order[i]] = u
                dfs(i + 1, max(partial, finish))
                loads[u] = finish - cost
            return

        dfs(0, 0.0)
        return best_assignment

    def gap_bound(self, units: int) -> float:
        return 1.0


_REGISTRY: dict[str, SchedulerPolicy] = {}


def register_scheduler(policy: SchedulerPolicy) -> SchedulerPolicy:
    """Add a policy instance to the name registry (last write wins)."""
    _REGISTRY[policy.name] = policy
    return policy


for _policy in (
    LPTScheduler(),
    RoundRobinScheduler(),
    GreedyOnlineScheduler(),
    BruteForceScheduler(),
):
    register_scheduler(_policy)


def available_schedulers() -> tuple[str, ...]:
    """Registered policy names, in registration order."""
    return tuple(_REGISTRY)


def get_scheduler(policy: str | SchedulerPolicy) -> SchedulerPolicy:
    """Resolve a policy by name (or pass an instance through)."""
    if isinstance(policy, SchedulerPolicy):
        return policy
    try:
        return _REGISTRY[policy]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {policy!r}; available: {available_schedulers()}"
        ) from None


def schedule_batch(
    costs: np.ndarray, units: int, policy: str | SchedulerPolicy = "lpt"
) -> Schedule:
    """Schedule a batch of per-call costs over ``units`` identical units.

    ``costs`` must be the *true* per-call model costs — the caller (the
    machine) is responsible for folding in latency, max-rows chunking
    and complex-cost factors before scheduling, so every policy prices
    the hardware it actually models.

    The per-unit timelines are accumulated in job-index order, which
    keeps the makespan a plain sequential float sum — the same
    accumulation discipline the serial ledger uses.
    """
    if units < 1:
        raise ValueError(f"units must be >= 1, got {units}")
    costs = np.ascontiguousarray(costs, dtype=np.float64)
    if costs.ndim != 1:
        raise ValueError(f"costs must be a 1-D vector, got shape {costs.shape}")
    resolved = get_scheduler(policy)
    if costs.size == 0:
        return Schedule(
            policy=resolved.name,
            units=units,
            costs=costs,
            assignment=np.empty(0, dtype=np.int64),
            unit_times=np.zeros(units),
            gap_bound=resolved.gap_bound(units),
        )
    if np.any(costs < 0):
        raise ValueError("job costs must be non-negative")
    assignment = np.asarray(resolved.assign(costs, units), dtype=np.int64)
    if assignment.shape != costs.shape or (
        assignment.size and (assignment.min() < 0 or assignment.max() >= units)
    ):
        raise ValueError(
            f"policy {resolved.name!r} returned an invalid assignment"
        )
    unit_times = np.bincount(assignment, weights=costs, minlength=units)
    return Schedule(
        policy=resolved.name,
        units=units,
        costs=costs,
        assignment=assignment,
        unit_times=unit_times,
        gap_bound=resolved.gap_bound(units),
    )
