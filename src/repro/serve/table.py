"""The request store: one served run's requests as columns.

A workload hands the engine its arrivals as :class:`RequestChunk`
columns (:meth:`~repro.serve.workload.Workload.chunks`), and
:meth:`~repro.serve.engine.ServingEngine.serve` keeps one
:class:`RequestTable` per run — a struct of arrays holding each
request's stamps (rid, kind, arrival, rows, priority, slo, deadline)
and the batch, launch and completion the engine fills in.  Class
queues, admission and batch policies, in-flight batches, the tracer and
the result all hold *row indices* into that table, so serving a stock
workload builds no per-request object.

:class:`Request` stays the public record type.  It is built only at the
API edges: :meth:`~repro.serve.workload.Workload.requests`, the
read-only :class:`RequestRows` sequences a
:class:`~repro.serve.engine.ServeResult` exposes (materialised on read),
and the completion callbacks of closed-loop workloads.  A ``Request``
that enters a table — from a custom ``requests()`` stream or a
completion follow-up — has its stamps checked there: a NaN ``slo`` or
``deadline``, or a ``rows`` that is not an integer >= 0, raises
:class:`ServeError` naming the request and the field.

Inside the store ``None`` stamps are NaN: an ``slo`` or ``deadline``
column reads NaN exactly where the request carried none.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Request", "RequestChunk", "RequestRows", "RequestTable", "ServeError"]


class ServeError(RuntimeError):
    """Raised on invalid serving states (non-finite or non-monotone
    arrivals, unservable request stamps, a policy refusing to drain, a
    violated conservation invariant)."""


@dataclass(frozen=True, slots=True)
class Request:
    """One inference request: its stamps, and where the engine put it.

    ``arrival`` is set by the workload; ``launch``, ``completion`` and
    ``batch`` are the engine's (NaN / -1 until the request is dispatched
    and finished).  All times are model time (the ledger clock).

    ``priority`` is the request's class: higher values are more urgent,
    and (with preemption enabled) a release of a strictly higher class
    preempts a running lower-class batch at its next level boundary.
    ``deadline`` is an *absolute* model time by which the request wants
    to complete; deadline-aware admission policies may reject requests
    whose deadline is already infeasible at arrival.

    Records are immutable: a served result's records are read from its
    request table, and an edited copy is made with
    :func:`dataclasses.replace`.
    """

    rid: int
    kind: str
    arrival: float
    rows: int
    slo: float | None = None
    priority: int = 0
    deadline: float | None = None
    launch: float = math.nan
    completion: float = math.nan
    batch: int = -1

    @property
    def wait(self) -> float:
        """Queueing delay: dispatch time minus arrival time."""
        return self.launch - self.arrival

    @property
    def service(self) -> float:
        """Time in the machine: completion minus dispatch."""
        return self.completion - self.launch

    @property
    def latency(self) -> float:
        """End-to-end latency: completion minus arrival (wait + service)."""
        return self.completion - self.arrival

    @property
    def done(self) -> bool:
        return not math.isnan(self.completion)

    def to_dict(self) -> dict:
        """JSON-ready view (NaN sentinels become ``None`` so the output
        is strict JSON; see :meth:`ServeResult.to_dict
        <repro.serve.engine.ServeResult.to_dict>`)."""

        def opt(value: float) -> float | None:
            return None if math.isnan(value) else value

        return {
            "rid": self.rid,
            "kind": self.kind,
            "arrival": self.arrival,
            "rows": self.rows,
            "slo": self.slo,
            "priority": self.priority,
            "deadline": self.deadline,
            "launch": opt(self.launch),
            "completion": opt(self.completion),
            "batch": self.batch,
        }


def _opt(value: float | None) -> float:
    return math.nan if value is None else float(value)


def _stamps(req: Request) -> tuple:
    """``req``'s stamps as one table row; raises :class:`ServeError` on
    a stamp the store cannot hold (the arrival is the engine's to check,
    in stream order)."""
    for name in ("slo", "deadline"):
        value = getattr(req, name)
        if value is not None and value != value:
            raise ServeError(
                f"request {req.rid} has {name} nan; {name} must be a number or None"
            )
    rows = req.rows
    if not (0 <= rows < math.inf and rows == int(rows)):
        raise ServeError(
            f"request {req.rid} has rows {rows!r}; rows must be an integer >= 0"
        )
    return (
        int(req.rid), req.kind, float(req.arrival), int(rows),
        int(req.priority), _opt(req.slo), _opt(req.deadline),
    )  # fmt: skip


@dataclass(slots=True, eq=False)
class RequestChunk:
    """Consecutive arrivals of one stream, as columns.

    ``rid``, ``rows`` and ``priority`` are int64 arrays, ``arrival``,
    ``slo`` and ``deadline`` float64 arrays (NaN: no objective, no
    deadline; ``deadline`` is absolute), ``kind`` an object array of
    kind names.  ``uniform`` is True only on a :meth:`stamped` chunk,
    whose rows share one ``(priority, kind)`` class; the engine reads
    any other chunk's classes row by row.
    """

    rid: np.ndarray
    kind: np.ndarray
    arrival: np.ndarray
    rows: np.ndarray
    priority: np.ndarray
    slo: np.ndarray
    deadline: np.ndarray
    uniform: bool = field(default=False, init=False)

    @classmethod
    def stamped(
        cls,
        rid: int,
        arrival: np.ndarray,
        rows: np.ndarray,
        *,
        kind: str,
        priority: int,
        slo: float | None,
        deadline: float | None,
    ) -> RequestChunk:
        """A one-class chunk: requests ``rid, rid+1, ...`` at ``arrival``
        with per-request ``rows`` and shared stamps; each absolute
        deadline is ``arrival + deadline``."""
        n = len(arrival)
        kinds = np.empty(n, dtype=object)
        kinds.fill(kind)  # one shared str (np.full would copy it per row)
        chunk = cls(
            np.arange(rid, rid + n, dtype=np.int64),
            kinds,
            arrival,
            rows,
            np.full(n, priority, dtype=np.int64),
            np.full(n, _opt(slo)),
            np.full(n, math.nan) if deadline is None else arrival + deadline,
        )
        chunk.uniform = True
        return chunk

    @classmethod
    def of(cls, requests: Sequence[Request]) -> RequestChunk:
        """Columns of ``requests`` (each checked as it would enter a table)."""
        cols = list(zip(*map(_stamps, requests), strict=True)) or [()] * 7
        rid, kind, arrival, rows, priority, slo, deadline = cols
        return cls(
            np.array(rid, dtype=np.int64),
            np.array(kind, dtype=object),
            np.array(arrival, dtype=np.float64),
            np.array(rows, dtype=np.int64),
            np.array(priority, dtype=np.int64),
            np.array(slo, dtype=np.float64),
            np.array(deadline, dtype=np.float64),
        )

    @classmethod
    def concat(cls, chunks: Sequence[RequestChunk]) -> RequestChunk:
        """The rows of ``chunks``, one after another."""
        return cls(*(np.concatenate([getattr(c, name) for c in chunks]) for name in _STAMPS))

    def __len__(self) -> int:
        return len(self.arrival)

    def take(self, index: np.ndarray | slice, rid: np.ndarray | None = None) -> RequestChunk:
        """The rows at ``index``, in that order (renumbered to ``rid``
        when given)."""
        cols = [getattr(self, name)[index] for name in _STAMPS]
        if rid is not None:
            cols[0] = rid
        return RequestChunk(*cols)

    def records(self) -> list[Request]:
        """The chunk's rows as :class:`Request` records."""
        return _records(self, slice(None), placed=False)


def _records(source: RequestChunk | RequestTable, index, *, placed: bool) -> list[Request]:
    """Records of rows ``index`` of ``source``'s columns, as Python
    scalars (NaN stamps read ``None``); ``placed`` adds the engine's
    launch, completion and batch."""

    def col(name: str) -> list:
        return getattr(source, name)[index].tolist()

    def opt(name: str) -> list:
        return [None if v != v else v for v in col(name)]

    fields = [
        col("rid"), col("kind"), col("arrival"), col("rows"),
        opt("slo"), col("priority"), opt("deadline"),
    ]  # fmt: skip
    if placed:
        fields += [col("launch"), col("completion"), col("batch")]
    return list(map(Request, *fields))


_STAMPS = ("rid", "kind", "arrival", "rows", "priority", "slo", "deadline")


class RequestTable:
    """One served run's requests as a struct of arrays.

    Rows are appended as requests enter the run — a stream chunk at a
    time, a completion follow-up at a time — and never move.  The
    columns are capacity-sized arrays; rows ``0 .. size-1`` are live.
    ``batch``, ``launch`` and ``completion`` start at -1, NaN and NaN
    and are written by the engine.
    """

    __slots__ = (*_STAMPS, "batch", "launch", "completion", "size")

    def __init__(self) -> None:
        self.size = 0
        self.rid = np.empty(0, dtype=np.int64)
        self.kind = np.empty(0, dtype=object)
        self.arrival = np.empty(0)
        self.rows = np.empty(0, dtype=np.int64)
        self.priority = np.empty(0, dtype=np.int64)
        self.slo = np.empty(0)
        self.deadline = np.empty(0)
        self.batch = np.empty(0, dtype=np.int64)
        self.launch = np.empty(0)
        self.completion = np.empty(0)

    def _reserve(self, n: int) -> int:
        """Make room for ``n`` more rows; returns the first new row."""
        first = self.size
        need = first + n
        if need > len(self.arrival):
            # a chunk grows the columns to fit; one-row appends grow them
            # geometrically
            capacity = max(need, len(self.arrival) * 3 // 2, 16)
            for name, fill in (
                *((s, None) for s in _STAMPS),
                ("batch", -1),
                ("launch", math.nan),
                ("completion", math.nan),
            ):
                old = getattr(self, name)
                new = np.empty(capacity, dtype=old.dtype)
                new[:first] = old[:first]
                if fill is not None:
                    new[first:] = fill
                setattr(self, name, new)
        self.size = need
        return first

    def extend(self, chunk: RequestChunk) -> int:
        """Append a chunk's rows; returns the table row of its first."""
        first = self._reserve(len(chunk))
        end = self.size
        for name in _STAMPS:
            getattr(self, name)[first:end] = getattr(chunk, name)
        return first

    def append(self, request: Request) -> int:
        """Append one request (its stamps checked); returns its row."""
        row = self._reserve(1)
        for name, value in zip(_STAMPS, _stamps(request), strict=True):
            getattr(self, name)[row] = value
        return row

    def stamps(self, row: int) -> tuple[int, str, int, float]:
        """``(rid, kind, priority, arrival)`` of ``row``, as Python scalars."""
        return (
            int(self.rid[row]),
            self.kind[row],
            int(self.priority[row]),
            float(self.arrival[row]),
        )

    def records(self, index: np.ndarray) -> list[Request]:
        """The requests at rows ``index`` as :class:`Request` records."""
        return _records(self, index, placed=True)


class RequestRows(Sequence[Request]):
    """A read-only sequence of requests: rows ``index`` of a
    :class:`RequestTable`, materialised as :class:`Request` records on
    read.  :meth:`column` reads one field of every row as an array
    without building any record."""

    __slots__ = ("table", "index")

    def __init__(self, table: RequestTable, index: np.ndarray) -> None:
        self.table = table
        self.index = index

    def column(self, name: str) -> np.ndarray:
        """Field ``name`` of every row, in order (``slo`` and ``deadline``
        read NaN where a request carried none)."""
        return getattr(self.table, name)[self.index]

    def slo_stamps(self) -> list[tuple[int, float, float | None]]:
        """``(rid, arrival, slo)`` of every row, in order, as Python
        scalars (``slo`` None where a request carried none)."""
        table, index = self.table, self.index
        return [
            (rid, arrival, None if slo != slo else slo)
            for rid, arrival, slo in zip(
                table.rid[index].tolist(),
                table.arrival[index].tolist(),
                table.slo[index].tolist(),
                strict=True,
            )
        ]

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, i):
        """One record for an int; a view of those rows for a slice."""
        if isinstance(i, slice):
            return RequestRows(self.table, self.index[i])
        return self.table.records(self.index[[i]])[0]

    def __iter__(self) -> Iterator[Request]:
        return iter(self.table.records(self.index))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (RequestRows, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"RequestRows({list(self)!r})"


def as_rows(requests: Iterable[Request]) -> RequestRows:
    """``requests`` as :class:`RequestRows`: a view passes through, any
    other iterable of records (stamps and placement) is copied into a
    fresh table."""
    if isinstance(requests, RequestRows):
        return requests
    records = list(requests)
    table = RequestTable()
    table.extend(RequestChunk.of(records))
    n = table.size
    table.launch[:n] = [r.launch for r in records]
    table.completion[:n] = [r.completion for r in records]
    table.batch[:n] = [r.batch for r in records]
    return RequestRows(table, np.arange(n, dtype=np.int64))
