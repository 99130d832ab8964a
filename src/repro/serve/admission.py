"""Admission control — who gets to queue at all?

At overload an unbounded engine queues without limit: every latency
percentile diverges and nothing useful is measured.  Admission policies
are the engine's front door: each arriving request is offered to the
policy *before* it joins its class queue, and a refusal sheds it (the
request never launches, is reported in
:attr:`~repro.serve.engine.ServeResult.shed`, and counts into the shed
rate next to goodput — ROADMAP's "admission control / load shedding").

Policies follow the same name-registry idiom as
:mod:`repro.serve.batcher` and :mod:`repro.core.scheduling`:

``unbounded``
    Admit everything (the PR4 behaviour, and the default).
``queue-cap``
    Admit while the request's class queue holds fewer than ``cap``
    requests — the classic bounded-buffer drop-tail.
``deadline``
    Deadline-aware reject: admit only requests whose absolute
    :attr:`~repro.serve.table.Request.deadline` is still feasible
    under a per-request service estimate — the predicted completion is
    ``arrival + est_service * (queued_ahead + 1)``.  Requests without a
    deadline are always admitted.

The engine calls ``admit(table, rows, queue)`` once per *run*: a
``range`` of consecutive rows of the run's
:class:`~repro.serve.table.RequestTable` that arrive, in order, for one
class queue before anything leaves it — every arrival due while a batch
executes, split where the class changes, or a single arrival when the
machine is idle.  A request's stamps are the table's columns at its row
(``table.arrival[row]``, ``table.deadline[row]``, NaN for none), and
``queue`` is its class queue, a FIFO of the rows already admitted.  The
policy returns the rows it admits, in order, and leaves ``queue`` alone;
the engine appends them and sheds the rest.  Each row is judged at its
own arrival, as if every row admitted before it had already joined
``queue`` — so a run's decisions are the ones a per-arrival call would
make.  No :class:`~repro.serve.table.Request` is built for the call.

Policies are pure functions of (the rows' stamps, queue), so a served
run replays bit-identically.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Sequence

from .table import RequestTable

__all__ = [
    "AdmissionPolicy",
    "UnboundedAdmission",
    "QueueCapAdmission",
    "DeadlineAdmission",
    "register_admission",
    "get_admission",
    "available_admissions",
]


class AdmissionPolicy:
    """Base class: decide whether an arriving request may queue.

    Policies are stateless (configuration only); all queue state lives
    in the engine, so one policy instance can drive many engines.
    """

    name = "abstract"

    def admit(self, table: RequestTable, rows: range, queue: deque[int]) -> Sequence[int]:
        """The rows of ``rows`` to enqueue, in order; the engine sheds
        the rest.  ``rows`` is a run of consecutive rows of ``table``
        bound for ``queue``, their class queue as it stands before the
        first of them arrives.  Judge each row at ``table.arrival[row]``
        with the rows admitted before it counted as queued; do not
        modify ``queue``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class UnboundedAdmission(AdmissionPolicy):
    """Admit everything (the queue may grow without bound)."""

    name = "unbounded"

    def admit(self, table: RequestTable, rows: range, queue: deque[int]) -> Sequence[int]:
        return rows


class QueueCapAdmission(AdmissionPolicy):
    """Drop-tail at a per-class queue depth of ``cap``."""

    name = "queue-cap"

    def __init__(self, cap: int = 64) -> None:
        if cap < 1:
            raise ValueError(f"cap must be >= 1, got {cap}")
        self.cap = int(cap)

    def admit(self, table: RequestTable, rows: range, queue: deque[int]) -> Sequence[int]:
        return rows[: max(0, self.cap - len(queue))]


class DeadlineAdmission(AdmissionPolicy):
    """Reject requests whose deadline is already infeasible at arrival.

    ``est_service`` is the policy's per-request service estimate (model
    time); the predicted completion of a request arriving at ``arrival``
    behind ``ahead`` queued peers is ``arrival + est_service * (ahead +
    1)``.  Admit when that meets the request's absolute deadline, or
    when the request carries none.  A measured estimate (e.g.
    :func:`repro.serve.scenarios.size1_capacity`) keeps the policy
    honest as charging rules evolve.
    """

    name = "deadline"

    def __init__(self, est_service: float = 0.0) -> None:
        if est_service < 0:
            raise ValueError(f"est_service must be >= 0, got {est_service}")
        self.est_service = float(est_service)

    def admit(self, table: RequestTable, rows: range, queue: deque[int]) -> Sequence[int]:
        lo, hi = rows.start, rows.stop
        ahead = len(queue)  # grows with each admitted row
        admitted: list[int] = []
        for row, arrival, deadline in zip(
            rows, table.arrival[lo:hi].tolist(), table.deadline[lo:hi].tolist(), strict=True
        ):
            # no deadline (NaN) is always met
            if math.isnan(deadline) or arrival + self.est_service * (ahead + 1) <= deadline:
                admitted.append(row)
                ahead += 1
        return admitted


_REGISTRY: dict[str, AdmissionPolicy] = {}


def register_admission(policy: AdmissionPolicy) -> AdmissionPolicy:
    """Add a policy instance to the name registry (last write wins)."""
    _REGISTRY[policy.name] = policy
    return policy


for _policy in (UnboundedAdmission(), QueueCapAdmission(), DeadlineAdmission()):
    register_admission(_policy)


def available_admissions() -> tuple[str, ...]:
    """Registered policy names, in registration order."""
    return tuple(_REGISTRY)


def get_admission(policy: str | AdmissionPolicy) -> AdmissionPolicy:
    """Resolve a policy by name (or pass an instance through)."""
    if isinstance(policy, AdmissionPolicy):
        return policy
    try:
        return _REGISTRY[policy]
    except KeyError:
        raise ValueError(
            f"unknown admission policy {policy!r}; available: {available_admissions()}"
        ) from None
