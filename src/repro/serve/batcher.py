"""Dynamic-batching policies — when does a queue become a batch?

The paper's cost model makes the trade-off exact: a tensor call costs
``n*sqrt(m) + l``, so serving requests one-by-one pays the invocation
latency ``l`` per request while a batch of k pays it once per call —
but every queued request *waits* for the batch to form.  A batching
policy is the rule that resolves this tension; this module owns it,
decoupled from the engine, behind the same name registry idiom as
:mod:`repro.core.scheduling`.

Policies
--------
``continuous``
    Release whenever the engine is free and the queue is non-empty,
    taking everything queued (up to ``max_size``) — continuous batching
    as modern serving stacks practice it.  ``max_size=1`` degenerates
    to no batching at all (the size-1 baseline the benches compare
    against).
``size``
    Size-triggered: hold the queue until ``size`` requests are waiting,
    then release exactly that many.  Maximises amortisation, unbounded
    wait at low load (the engine's drain flag flushes the remainder
    when the arrival stream ends).
``timeout``
    Deadline-triggered: release when the *oldest* queued request has
    waited ``timeout`` model-time units, or earlier if ``max_size``
    requests accumulate.  The classic bounded-wait compromise.

The engine calls :meth:`BatchPolicy.release_time` with the current
model clock whenever the machine is idle; the returned time is the
earliest the policy would release a batch from that queue *assuming no
further arrivals* (``inf`` for "not without more requests").  New
arrivals re-trigger the question, so policies stay pure functions of
the queue state.

A queue is a FIFO of *rows* of the run's
:class:`~repro.serve.table.RequestTable`, oldest first, and the policy
sees it together with the arrival time of its head request:
``release_time(queue, head_arrival, now, draining)``.
:meth:`BatchPolicy.take` pops the rows of the batch to launch.

Queues are keyed per *class* — a ``(priority, kind)`` pair — and
:func:`priority_release` is the engine's selection rule over them:
earliest release first, priority breaking ties (so a single-class run
reduces exactly to the PR4 FIFO selection), restrictable to classes
above a priority floor (how the preemption check asks "would a
strictly more urgent batch release right now?").
"""

from __future__ import annotations

import math
from collections import deque
from itertools import repeat, starmap

import numpy as np
import numpy.typing as npt

__all__ = [
    "BatchPolicy",
    "ContinuousBatcher",
    "SizeBatcher",
    "TimeoutBatcher",
    "register_batcher",
    "get_batcher",
    "available_batchers",
    "priority_release",
]


class BatchPolicy:
    """Base class: decide when a kind's FIFO queue releases a batch.

    Policies are stateless (configuration only); all queue state lives
    in the engine, so one policy instance can drive many engines.
    """

    name = "abstract"
    max_size: int = 2**31

    def release_time(
        self, queue: deque[int], head_arrival: float, now: float, draining: bool
    ) -> float:
        """Earliest model time a batch should launch from ``queue``,
        assuming no further arrivals; ``math.inf`` for "not yet".
        ``head_arrival`` is the arrival time of the oldest queued
        request (``queue[0]``; ``inf`` for an empty queue).

        ``draining`` is set by the engine once the arrival stream is
        exhausted and nothing is in flight — every policy must release
        a non-empty queue then, or the simulation could not terminate.
        """
        raise NotImplementedError

    def take(self, queue: deque[int], now: float) -> list[int]:
        """Pop and return the rows of the batch to launch now (FIFO
        prefix)."""
        if len(queue) <= self.max_size:
            batch = list(queue)
            queue.clear()
            return batch
        return list(starmap(queue.popleft, repeat((), self.max_size)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class ContinuousBatcher(BatchPolicy):
    """Serve whatever is queued the moment the engine is free."""

    name = "continuous"

    def __init__(self, max_size: int = 64) -> None:
        if max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {max_size}")
        self.max_size = int(max_size)

    def release_time(
        self, queue: deque[int], head_arrival: float, now: float, draining: bool
    ) -> float:
        return now if queue else math.inf


class SizeBatcher(BatchPolicy):
    """Hold the queue until ``size`` requests are waiting."""

    name = "size"

    def __init__(self, size: int = 16) -> None:
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        self.size = int(size)
        self.max_size = int(size)

    def release_time(
        self, queue: deque[int], head_arrival: float, now: float, draining: bool
    ) -> float:
        if not queue:
            return math.inf
        if len(queue) >= self.size or draining:
            return now
        return math.inf


class TimeoutBatcher(BatchPolicy):
    """Bounded wait: release when the head request has aged ``timeout``
    (or ``max_size`` requests accumulate, whichever happens first)."""

    name = "timeout"

    def __init__(self, timeout: float = 1024.0, max_size: int = 64) -> None:
        if timeout < 0:
            raise ValueError(f"timeout must be >= 0, got {timeout}")
        if max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {max_size}")
        self.timeout = float(timeout)
        self.max_size = int(max_size)

    def release_time(
        self, queue: deque[int], head_arrival: float, now: float, draining: bool
    ) -> float:
        if not queue:
            return math.inf
        if len(queue) >= self.max_size or draining:
            return now
        return max(now, head_arrival + self.timeout)


def priority_release(
    queues: dict[tuple[int, str], deque[int]],
    arrival: npt.NDArray[np.float64],
    policy: BatchPolicy,
    now: float,
    draining: bool,
    *,
    above: int | None = None,
) -> tuple[float, int, float, tuple[int, str]] | None:
    """The engine's priority-aware release selection over class queues.

    ``queues`` maps ``(priority, kind)`` to that class's FIFO of table
    rows, and ``arrival`` is the table's arrival column.  Returns the
    best candidate as ``(release, priority, head_arrival, key)`` —
    minimal by ``(release, -priority, head_arrival, kind)``, i.e.
    earliest release first, higher class winning ties, oldest head
    request then kind name as the final tie-breaks (exactly the PR4
    rule when every request shares one priority) — or ``None`` when no
    queue would ever release.  With ``above`` set, only classes of
    strictly higher priority are considered (the preemption question).
    """
    best: tuple[float, int, float, str] | None = None
    best_key: tuple[int, str] | None = None
    for key, queue in queues.items():
        priority, kind = key
        if not queue:
            continue
        if above is not None and priority <= above:
            continue
        head_arrival = float(arrival[queue[0]])
        release = policy.release_time(queue, head_arrival, now, draining)
        if release == math.inf:
            continue
        candidate = (release, -priority, head_arrival, kind)
        if best is None or candidate < best:
            best = candidate
            best_key = key
    if best is None or best_key is None:
        return None
    return best[0], -best[1], best[2], best_key


_REGISTRY: dict[str, BatchPolicy] = {}


def register_batcher(policy: BatchPolicy) -> BatchPolicy:
    """Add a policy instance to the name registry (last write wins)."""
    _REGISTRY[policy.name] = policy
    return policy


for _policy in (ContinuousBatcher(), SizeBatcher(), TimeoutBatcher()):
    register_batcher(_policy)


def available_batchers() -> tuple[str, ...]:
    """Registered policy names, in registration order."""
    return tuple(_REGISTRY)


def get_batcher(policy: str | BatchPolicy) -> BatchPolicy:
    """Resolve a policy by name (or pass an instance through)."""
    if isinstance(policy, BatchPolicy):
        return policy
    try:
        return _REGISTRY[policy]
    except KeyError:
        raise ValueError(
            f"unknown batching policy {policy!r}; available: {available_batchers()}"
        ) from None
