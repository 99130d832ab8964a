"""Serving workloads: requests, request types and arrival processes.

An online workload is a stream of requests — handed to the engine as
column chunks (:meth:`Workload.chunks`), readable as :class:`Request`
records (:meth:`Workload.requests`) — each naming
a *request type* — a kernel family drawn from the repo's existing
algorithms (an MLP forward pass, a dense product against resident
weights, a batched DFT, a stencil sweep).  A request type knows how to
*plan* a batch of requests: :meth:`RequestType.plan` lowers the whole
batch into one explicit :class:`~repro.core.program.TensorProgram`
(Theorem 2 schedules per product, ``apply`` bridges for twiddle and
activation passes) and returns the planned
:class:`~repro.core.program.Plan`, so the batch's rows ride the tall
operand of each tensor call — the §3 asymmetric call pattern that
amortises the invocation latency ``l`` across the batch — *and* the
engine can execute the plan level by level through an
:class:`~repro.core.program.ExecutionCursor`, checkpointing at any
level boundary.  :meth:`RequestType.serve` remains as the one-shot
convenience (plan + run to exhaustion).  Serving cost is priced by the
same planner, executor and ledger as every offline experiment in the
repo.

Request types register by name (:func:`register_request_type`), the same
registry idiom as :mod:`repro.core.scheduling`, so workloads, engines
and benches select them with a string.

The per-request ``rows`` field is the request's size knob; its meaning
is per-kind:

* ``matmul`` / ``mlp`` — activation rows streamed through the resident
  weights (tokens / samples in the batch dimension);
* ``dft`` — independent signals to transform;
* ``stencil`` — the side of the request's square grid.

Five seeded arrival processes cover the open/closed spectrum plus
trace realism:

* :class:`PoissonWorkload` — memoryless arrivals at a fixed rate;
* :class:`BurstyWorkload` — a 2-state Markov-modulated Poisson process
  (high/low rate with exponential dwell times), the standard bursty
  traffic model;
* :class:`ClosedLoopWorkload` — a fixed client population, each
  thinking for a fixed time after a completion before issuing its next
  request (arrivals are generated by the engine's completion events via
  :meth:`Workload.on_complete`);
* :class:`TraceWorkload` — replay a recorded timestamp array or file
  as the arrival process;
* :class:`DiurnalWorkload` — an inhomogeneous Poisson process under a
  sinusoidal (diurnal) rate envelope, sampled exactly by thinning.

:class:`MixedWorkload` merges several open-loop streams into one
time-ordered stream — the way multi-class (priority) scenarios are
built.  All randomness is drawn from a seeded generator, so a
(workload, machine, policy) triple replays bit-identically; every
stock workload draws in chunks of ``_CHUNK`` requests, the same
numbers in the same order whatever consumes them.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from itertools import islice
from pathlib import Path

import numpy as np

from ..core.machine import TCUMachine, placeholder
from ..core.program import (
    Plan,
    TensorOp,
    TensorProgram,
    execute_plan,
    plan_program,
)
from ..matmul.schedule import ceil_to_multiple, pad_matrix, padded_copy_cost
from ..transform.convolution import dft2, reversed_embedded_kernel_2d
from ..transform.dft import dft_matrix
from ..transform.stencil import (
    assemble_tiles,
    extract_windows,
    heat_equation_weights,
    unrolled_weights,
    window_geometry,
)
from .table import Request, RequestChunk, ServeError

__all__ = [
    "Request",
    "RequestType",
    "MatmulRequestType",
    "MLPRequestType",
    "DFTRequestType",
    "StencilRequestType",
    "register_request_type",
    "get_request_type",
    "available_request_types",
    "Workload",
    "PoissonWorkload",
    "BurstyWorkload",
    "ClosedLoopWorkload",
    "TraceWorkload",
    "DiurnalWorkload",
    "MixedWorkload",
]


# ----------------------------------------------------------------------
# plan emitters
# ----------------------------------------------------------------------
def _concrete_padded(machine: TCUMachine, M: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Pad a concrete operand to the unit grid at build time, charging
    the materialised copy (``matmul``'s ``padded_copy_cost`` rule); on
    cost-only machines a placeholder of the padded shape stands in so
    placeholder payloads are never materialised."""
    M = np.asarray(M)
    cost = padded_copy_cost(M, rows, cols)
    if not cost:
        return M
    machine.charge_cpu(cost)
    if machine.execute == "cost-only":
        return placeholder((rows, cols), M.dtype)
    return pad_matrix(M, rows, cols)


def _emit_product(
    program: TensorProgram,
    machine: TCUMachine,
    X: np.ndarray | TensorOp,
    W: np.ndarray,
) -> TensorOp:
    """Append a Theorem 2 product ``X @ W`` to ``program``; returns the
    exact ``(p, r)`` result op.

    ``X`` may be a concrete array (padded and charged at build time) or
    an earlier op (padded, when needed, through a charged ``apply``
    bridge at execution time — same cost, paid when the level runs).
    ``W`` is always concrete (resident weights, Fourier matrices).
    Charges are identical to :func:`repro.matmul.dense.matmul` on the
    same shapes: padding copies, one ``mm`` per strip-by-block grid
    cell, one RAM unit per word per partial accumulation.
    """
    p, q = X.shape
    r = np.asarray(W).shape[1]
    s = machine.sqrt_m
    p_pad = max(p, s)
    q_pad = ceil_to_multiple(q, s)
    r_pad = ceil_to_multiple(r, s)
    Wp = _concrete_padded(machine, W, q_pad, r_pad)

    if isinstance(X, TensorOp):
        if (p, q) != (p_pad, q_pad):
            pad_cost = p_pad * q_pad
            Xp: np.ndarray | TensorOp = program.apply(
                lambda v: pad_matrix(v, p_pad, q_pad),
                [X],
                (p_pad, q_pad),
                X.dtype,
                cpu=pad_cost,
            )
        else:
            Xp = X
        if q_pad == s:
            strips: list[np.ndarray | TensorOp] = [Xp]
        else:
            strips = [
                program.view(Xp, (slice(None), slice(k * s, (k + 1) * s)))
                for k in range(q_pad // s)
            ]
    else:
        Xc = _concrete_padded(machine, X, p_pad, q_pad)
        strips = [Xc[:, k * s : (k + 1) * s] for k in range(q_pad // s)]

    kq, kr = q_pad // s, r_pad // s
    columns = []
    for j in range(kr):
        partials = [
            program.mm(strips[i], Wp[i * s : (i + 1) * s, j * s : (j + 1) * s])
            for i in range(kq)
        ]
        columns.append(program.add(partials))

    if kr == 1:
        out = columns[0]
        if (p_pad, r_pad) != (p, r):
            out = program.view(out, (slice(0, p), slice(0, r)))
        return out
    return program.apply(
        lambda *cols: np.hstack(cols)[:p, :r],
        columns,
        (p, r),
        columns[0].dtype,
    )


def _emit_dft(
    program: TensorProgram,
    machine: TCUMachine,
    X: np.ndarray | TensorOp,
    batch: int,
    size: int,
    *,
    fresh: bool = False,
) -> TensorOp:
    """Append the Theorem 7 batched-DFT recursion to ``program``.

    Mirrors :func:`repro.transform.dft.batched_dft` charge for charge —
    the base Fourier-matrix loads at build time, the per-level twiddle
    pass as a charged ``apply`` bridge — but as one explicit program,
    so every recursion level is a checkpointable plan level.

    ``fresh=True`` gives every emitted product its own private copy of
    the Fourier matrix.  The planner merges same-level calls that share
    a resident buffer, and :func:`~repro.transform.dft.dft_matrix` is
    lru-cached, so *independent* transforms emitted side by side into
    one program (the stencil lowering's per-request pipelines) would
    otherwise fuse across requests and charge fewer latencies than the
    one-call-at-a-time legacy path.  The copy itself is uncharged — the
    per-call ``size^2`` matrix load is already charged here, exactly as
    ``batched_dft`` charges it on every call despite its cache.
    """
    s = machine.sqrt_m
    cdtype = np.complex128

    def fourier(n: int) -> np.ndarray:
        W = dft_matrix(n)
        return W.copy() if fresh else W  # repro-lint: disable=LED001 -- defeats lru_cache merging only; the per-call size^2 matrix load is charged at every emit site, exactly as batched_dft charges it

    if size <= s:
        machine.charge_cpu(size * size)  # load the base Fourier matrix
        return _emit_product(program, machine, X, fourier(size))
    if size % s:
        raise ValueError(
            f"DFT size {size} is not sqrt(m)={s}-smooth; Theorem 7 requires "
            "sqrt(m) | size at every recursion level (use power-of-two sizes)"
        )
    n1, n2 = s, size // s

    # column gather: each row viewed as an n1 x n2 matrix, its columns
    # stacked into a (batch*n2, n1) tall operand — index arithmetic,
    # uncharged (the same convention batched_dft uses)
    if isinstance(X, TensorOp):
        cols: np.ndarray | TensorOp = program.apply(
            lambda v: v.reshape(batch, n1, n2).transpose(0, 2, 1).reshape(batch * n2, n1),
            [X],
            (batch * n2, n1),
            cdtype,
        )
    elif machine.execute == "cost-only":
        cols = placeholder((batch * n2, n1), cdtype)
    else:
        cols = np.asarray(X, dtype=cdtype).reshape(batch, n1, n2).transpose(0, 2, 1).reshape(
            batch * n2, n1
        )
    machine.charge_cpu(n1 * n1)  # load this level's Fourier matrix
    G = _emit_product(program, machine, cols, fourier(n1))

    def twiddle(v: np.ndarray) -> np.ndarray:
        c_idx = np.tile(np.arange(n2), batch)[:, None]
        p_idx = np.arange(n1)[None, :]
        v = v * np.exp(-2j * np.pi * (c_idx * p_idx) / size)
        return v.reshape(batch, n2, n1).transpose(0, 2, 1).reshape(batch * n1, n2)

    rows_op = program.apply(twiddle, [G], (batch * n1, n2), cdtype, cpu=batch * size)
    F = _emit_dft(program, machine, rows_op, batch * n1, n2, fresh=fresh)
    return program.apply(
        lambda v: v.reshape(batch, n1, n2).transpose(0, 2, 1).reshape(batch, size),
        [F],
        (batch, size),
        cdtype,
    )


def _emit_idft(
    program: TensorProgram,
    machine: TCUMachine,
    X: TensorOp,
    batch: int,
    size: int,
    *,
    fresh: bool = False,
) -> TensorOp:
    """Append an inverse batched DFT (the conjugation trick), mirroring
    :func:`repro.transform.dft.batched_idft` charge for charge: the
    conjugations are free index/sign arithmetic, the forward transform
    carries the tensor cost, and the final ``1/size`` scaling pass is
    one RAM unit per element."""
    cdtype = np.complex128
    conj_in = program.apply(np.conj, [X], (batch, size), cdtype)
    F = _emit_dft(program, machine, conj_in, batch, size, fresh=fresh)
    return program.apply(
        lambda v: np.conj(v) / size,
        [F],
        (batch, size),
        cdtype,
        cpu=batch * size,
    )


def _emit_dft2(
    program: TensorProgram,
    machine: TCUMachine,
    X: TensorOp,
    tiles: int,
    size: int,
    *,
    inverse: bool = False,
    fresh: bool = False,
) -> TensorOp:
    """Append a 2-D (inverse) DFT of a ``(tiles, size, size)`` stack:
    row transforms then column transforms, each one batched 1-D pass —
    the exact decomposition (and charges) of
    :func:`repro.transform.convolution.dft2` / ``idft2``.  The axis
    re-arrangements between passes are index arithmetic (free)."""
    cdtype = np.complex128
    emit = _emit_idft if inverse else _emit_dft
    flat = program.apply(
        lambda v: np.asarray(v, dtype=np.complex128).reshape(tiles * size, size),
        [X],
        (tiles * size, size),
        cdtype,
    )
    rows_out = emit(program, machine, flat, tiles * size, size, fresh=fresh)
    cols_in = program.apply(
        lambda v: v.reshape(tiles, size, size).transpose(0, 2, 1).reshape(
            tiles * size, size
        ),
        [rows_out],
        (tiles * size, size),
        cdtype,
    )
    cols_out = emit(program, machine, cols_in, tiles * size, size, fresh=fresh)
    return program.apply(
        lambda v: v.reshape(tiles, size, size).transpose(0, 2, 1),
        [cols_out],
        (tiles, size, size),
        cdtype,
    )


def _emit_stencil(
    program: TensorProgram,
    machine: TCUMachine,
    A: np.ndarray,
    kernel: np.ndarray,
    k: int,
) -> TensorOp:
    """Append one Theorem 8 stencil evolution (k sweeps of one grid) to
    ``program``; returns the evolved-grid op.

    Mirrors :func:`repro.transform.stencil.stencil_tcu` charge for
    charge on the same machine: Lemma 2's kernel unrolling and the
    kernel-side forward transform run eagerly at build time (they are
    request-independent scalars, sequential squarings), while the
    grid-side pipeline — window gather, two forward DFT passes, the
    pointwise spectral product, two inverse passes, the real cast and
    the tile scatter — becomes explicit program levels, so stencil
    batches are preemptible and plan-cacheable like every other kind.
    Every emitted transform uses ``fresh`` Fourier-matrix copies so
    independent requests' same-level calls never fuse (which would
    charge fewer latencies than the legacy one-request-at-a-time path).
    """
    rows, cols = A.shape
    # Lemma 2 at build time (charges the machine directly, like the
    # concrete padding in _emit_product).
    W = unrolled_weights(machine, kernel, k)
    S, t, rb, cb = window_geometry(rows, cols, k, machine.sqrt_m)
    rpad, cpad = rb * t, cb * t
    T = rb * cb

    # Kernel side, eager: the embedding charge and the kernel's own 2-D
    # transform (batch of one) — exactly batched_circular_convolve2d's
    # kernel path, paid at launch.
    reversed_ker = reversed_embedded_kernel_2d(W, S)
    machine.charge_cpu(2 * S * S)
    f_ker = dft2(machine, reversed_ker[None, :, :])[0]

    def gather(v: np.ndarray) -> np.ndarray:
        grid = np.zeros((rpad, cpad))
        grid[:rows, :cols] = v
        return extract_windows(grid, S, t, k, rb, cb)

    windows = program.apply(
        gather, [A], (T, S, S), np.float64, cpu=rpad * cpad + T * S * S
    )
    f_tiles = _emit_dft2(program, machine, windows, T, S, fresh=True)
    prod = program.apply(
        lambda v: v * f_ker[None, :, :],
        [f_tiles],
        (T, S, S),
        np.complex128,
        cpu=T * S * S,
    )
    conv = _emit_dft2(program, machine, prod, T, S, inverse=True, fresh=True)
    real = program.apply(
        lambda v: v.real, [conv], (T, S, S), np.float64, cpu=T * S * S
    )
    return program.apply(
        lambda v: assemble_tiles(v, t, k, rb, cb)[:rows, :cols],
        [real],
        (rows, cols),
        np.float64,
        cpu=rpad * cpad,
    )


# ----------------------------------------------------------------------
# request types
# ----------------------------------------------------------------------
class RequestType:
    """A kernel family requests can ask for.

    Subclasses implement :meth:`plan`: lower one *batch* of requests of
    this kind (given the per-request ``rows``) into an executable
    :class:`~repro.core.program.Plan` for a machine.  The model cost
    charged — at build time for concrete padding, at execution time for
    everything else — must depend only on the batch's shapes (and the
    machine), never on data values: that is what makes a served run
    exactly replayable from its :class:`~repro.serve.engine.BatchRecord`
    stream and lets cost-only machines serve placeholder payloads.
    """

    name = "abstract"
    default_rows = 16

    def plan(
        self, machine: TCUMachine, rows: Sequence[int], *, split: str | int = "auto"
    ) -> Plan:
        """Lower a batch of ``len(rows)`` requests to an executable plan.

        Build-time charges (concrete padding copies, Fourier-matrix
        loads) hit the machine's ledger immediately; everything else is
        charged when the plan's levels execute.
        """
        raise NotImplementedError(
            f"request type {self.name!r} ({type(self).__name__}) does not implement plan()"
        )

    def serve(self, machine: TCUMachine, rows: Sequence[int]) -> None:
        """Execute a batch of ``len(rows)`` requests, charging ``machine``
        (the one-shot path: plan, then run the plan to exhaustion)."""
        execute_plan(self.plan(machine, rows), machine)

    # ------------------------------------------------------------------
    @staticmethod
    def _payload(machine: TCUMachine, shape, dtype=np.float64) -> np.ndarray:
        """A batch input array: O(1) placeholder on cost-only machines,
        zeros otherwise (model cost never depends on values)."""
        if machine.execute == "cost-only":
            return placeholder(shape, dtype)
        return np.zeros(shape, dtype=dtype)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class MatmulRequestType(RequestType):
    """A dense product against one resident ``width x width`` weight
    matrix (Theorem 2): the whole batch's rows stream through the
    resident blocks, paying the per-block latency once per batch."""

    def __init__(self, name: str = "matmul", width: int = 64, default_rows: int = 64) -> None:
        self.name = name
        self.width = int(width)
        self.default_rows = int(default_rows)
        self._weights: np.ndarray | None = None

    def _resident(self, machine: TCUMachine) -> np.ndarray:
        if machine.execute == "cost-only":
            return placeholder((self.width, self.width))
        if self._weights is None:
            # order-sensitive digest: the byte *sequence* seeds the
            # stream, so anagram-named types never share weights
            rng = np.random.default_rng(
                np.random.SeedSequence([0xC0FFEE, *self.name.encode()])
            )
            self._weights = rng.standard_normal((self.width, self.width))
        return self._weights

    def plan(
        self, machine: TCUMachine, rows: Sequence[int], *, split: str | int = "auto"
    ) -> Plan:
        program = TensorProgram()
        total = sum(_batch_rows(rows))
        if total:
            X = self._payload(machine, (total, self.width))
            _emit_product(program, machine, X, self._resident(machine))
        return plan_program(program, machine, split=split)


class MLPRequestType(RequestType):
    """A multi-layer perceptron forward pass — the §2.2 TPU serving
    workload: each layer is one resident weight matrix, the batch's
    stacked activations stream through it, and the elementwise ReLU
    between layers is charged as RAM work (one unit per word)."""

    def __init__(
        self,
        name: str = "mlp",
        dims: Sequence[int] = (64, 32, 16),
        default_rows: int = 32,
        relu: bool = True,
    ) -> None:
        if len(dims) < 2:
            raise ValueError(f"an MLP needs >= 2 dims (in, out), got {dims!r}")
        self.name = name
        self.dims = tuple(int(d) for d in dims)
        self.default_rows = int(default_rows)
        self.relu = bool(relu)
        self._weights: list[np.ndarray] | None = None

    def _layers(self, machine: TCUMachine) -> list[np.ndarray]:
        if machine.execute == "cost-only":
            return [
                placeholder((d_in, d_out))
                for d_in, d_out in zip(self.dims, self.dims[1:], strict=False)
            ]
        if self._weights is None:
            # order-sensitive digest (see MatmulRequestType._resident)
            rng = np.random.default_rng(
                np.random.SeedSequence([0x11F, *self.name.encode()])
            )
            self._weights = [
                rng.standard_normal((d_in, d_out)) / np.sqrt(d_in)
                for d_in, d_out in zip(self.dims, self.dims[1:], strict=False)
            ]
        return self._weights

    def plan(
        self, machine: TCUMachine, rows: Sequence[int], *, split: str | int = "auto"
    ) -> Plan:
        program = TensorProgram()
        total = sum(_batch_rows(rows))
        if total:
            cur: np.ndarray | TensorOp = self._payload(machine, (total, self.dims[0]))
            layers = self._layers(machine)
            for i, W in enumerate(layers):
                cur = _emit_product(program, machine, cur, W)
                if self.relu and i < len(layers) - 1:
                    cur = program.apply(
                        lambda v: np.maximum(v, 0.0),
                        [cur],
                        cur.shape,
                        cur.dtype,
                        cpu=total * self.dims[i + 1],
                    )
        return plan_program(program, machine, split=split)


class DFTRequestType(RequestType):
    """A batched discrete Fourier transform (Theorem 7): every request
    contributes ``rows`` signals of a fixed length, and the whole
    batch's signals ride the tall operand of each recursion level."""

    def __init__(self, name: str = "dft", size: int = 64, default_rows: int = 4) -> None:
        self.name = name
        self.size = int(size)
        self.default_rows = int(default_rows)

    def plan(
        self, machine: TCUMachine, rows: Sequence[int], *, split: str | int = "auto"
    ) -> Plan:
        program = TensorProgram()
        total = sum(_batch_rows(rows))
        if total:
            X = self._payload(machine, (total, self.size), np.complex128)
            _emit_dft(program, machine, X, total, self.size)
        return plan_program(program, machine, split=split)


class StencilRequestType(RequestType):
    """A ``k``-sweep stencil evolution (Theorem 8) of one square grid
    per request; ``rows`` is the grid side.  Grids are value-dependent
    and independent, so batching buys no latency amortisation here —
    the engine still batches them (one queue drain), and each request
    emits its own transform pipeline into the shared program
    (:func:`_emit_stencil`, charge-identical to
    :func:`~repro.transform.stencil.stencil_tcu`), making stencil
    batches preemptible and plan-cacheable like every other kind."""

    def __init__(self, name: str = "stencil", steps: int = 2, default_rows: int = 16) -> None:
        self.name = name
        self.steps = int(steps)
        self.default_rows = int(default_rows)
        self._kernel = heat_equation_weights()

    def plan(
        self, machine: TCUMachine, rows: Sequence[int], *, split: str | int = "auto"
    ) -> Plan:
        program = TensorProgram()
        for side in _batch_rows(rows):
            if side == 0:  # an empty grid is an empty request
                continue
            A = self._payload(machine, (side, side))
            _emit_stencil(program, machine, A, self._kernel, self.steps)
        return plan_program(program, machine, split=split)


_REQUEST_TYPES: dict[str, RequestType] = {}


def register_request_type(rtype: RequestType) -> RequestType:
    """Add a request type to the name registry (last write wins)."""
    _REQUEST_TYPES[rtype.name] = rtype
    return rtype


for _rtype in (
    MatmulRequestType(),
    MLPRequestType(),
    DFTRequestType(),
    StencilRequestType(),
):
    register_request_type(_rtype)


def available_request_types() -> tuple[str, ...]:
    """Registered request-type names, in registration order."""
    return tuple(_REQUEST_TYPES)


def get_request_type(kind: str | RequestType) -> RequestType:
    """Resolve a request type by name (or pass an instance through)."""
    if isinstance(kind, RequestType):
        return kind
    try:
        return _REQUEST_TYPES[kind]
    except KeyError:
        raise ValueError(
            f"unknown request type {kind!r}; available: {available_request_types()}"
        ) from None


# ----------------------------------------------------------------------
# arrival processes
# ----------------------------------------------------------------------
def _rows_column(rng: np.random.Generator, rows, kind: str, total: int) -> np.ndarray:
    """Per-request row counts: a fixed value, a seeded draw from a set
    of choices, or the kind's default when unspecified."""
    if rows is None:
        rows = get_request_type(kind).default_rows
    if np.ndim(rows) == 0:
        return np.full(total, int(rows), dtype=np.int64)
    return rng.choice(np.asarray(rows, dtype=np.int64), size=total)


# random draws are generated in fixed-size chunks so million-request
# streams honour the lazy Workload contract (no O(total) buffers)
_CHUNK = 1 << 16


def _chunk(wl, rid: int, arrivals: np.ndarray, rows: np.ndarray) -> RequestChunk:
    """A stock workload's chunk: requests ``rid, rid+1, ...`` at
    ``arrivals`` with the workload's shared stamps (absolute deadlines
    are ``arrival + deadline``, one float sum per request)."""
    return RequestChunk.stamped(
        rid, arrivals, rows,
        kind=wl.kind, priority=wl.priority, slo=wl.slo, deadline=wl.deadline,
    )  # fmt: skip


# parameter rules for _check: what the message says, and the test
_FINITE = ("finite", np.isfinite)
_POSITIVE = ("finite and > 0", lambda v: np.isfinite(v) & (v > 0))
_NON_NEGATIVE = ("finite and >= 0", lambda v: np.isfinite(v) & (v >= 0))
_NOT_NAN = ("a number, not NaN", lambda v: ~np.isnan(v))
_ROW_COUNT = (
    "an integer >= 0",
    lambda v: np.isfinite(v) & (v >= 0) & (v == np.floor(v)),
)


def _check(name: str, value, rule=_FINITE) -> None:
    """Raise a ValueError naming ``name`` and the first offending value
    unless every element of ``value`` satisfies ``rule``; ``None``
    (an unset optional parameter) always passes."""
    if value is None:
        return
    text, test = rule
    ok = test(np.asarray(value, dtype=np.float64)).ravel()
    if not ok.all():
        bad = np.ravel(value).tolist()[int(ok.argmin())]
        raise ValueError(f"{name} must be {text}, got {bad!r}")


def _check_stamps(slo, deadline, rows) -> None:
    """The per-request stamps every stock workload shares."""
    _check("slo", slo, _NOT_NAN)
    _check("deadline", deadline, _NOT_NAN)
    _check("rows", rows, _ROW_COUNT)


def _batch_rows(rows: Sequence[int]) -> list[int]:
    """A batch's per-request row counts as ints, each checked to be an
    integer >= 0: truncating 2.5 or summing in a negative count would
    plan a different batch than the one asked for."""
    _check("rows", rows, _ROW_COUNT)
    return [int(r) for r in rows]


class Workload:
    """A request stream plus an optional completion feedback loop.

    :meth:`chunks` yields the open-loop arrivals as
    :class:`~repro.serve.table.RequestChunk` columns, in non-decreasing
    arrival order and lazily (million-request streams never
    materialise); the engine reads only these.  :meth:`requests` yields
    the same arrivals as :class:`Request` records.  A workload defines
    one of the two: every stock workload defines :meth:`chunks`, and a
    subclass that defines only :meth:`requests` has its chunks read from
    that stream, ``_CHUNK`` records at a time, each record's stamps
    checked as it enters the engine's table.  Such a ``requests()`` may
    wrap ``super().requests()`` of a stock workload: that reads the
    stock workload's :meth:`chunks`.

    :meth:`on_complete` is called by the engine at every request
    completion and may inject new requests (the closed-loop mechanism);
    the default is an open loop that injects nothing, and the engine
    skips the call for workloads that do not override it.  Every
    arrival, streamed or injected, must be finite and no earlier than
    the one admitted before it, or the engine raises
    :class:`~repro.serve.engine.ServeError`.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "requests" in vars(cls) and "chunks" not in vars(cls):
            cls.chunks = Workload._chunks_of_requests  # type: ignore[method-assign]

    def chunks(self) -> Iterator[RequestChunk]:
        raise NotImplementedError(
            f"{type(self).__name__} defines neither chunks() nor requests()"
        )

    def _chunks_of_requests(self) -> Iterator[RequestChunk]:
        stream = iter(self.requests())
        while batch := list(islice(stream, _CHUNK)):
            yield RequestChunk.of(batch)

    def requests(self) -> Iterator[Request]:
        # the nearest chunks() not read from a requests() override, so
        # an override that wraps super().requests() reads its base's
        # stream instead of calling itself
        chunks = next(
            c
            for c in (vars(k).get("chunks") for k in type(self).__mro__)
            if c is not None and c is not Workload._chunks_of_requests
        )
        for chunk in chunks(self):
            yield from chunk.records()

    def on_complete(self, request: Request, now: float) -> list[Request]:
        return []

    def reseed(self, seed: int) -> None:
        """Replace the workload's seed in place (used by the engine's
        top-level ``seed`` splitting).  Takes effect at the next
        :meth:`chunks` (or :meth:`requests`) call — every stock workload
        re-arms its RNG streams from ``self.seed`` there.  Deterministic
        workloads without a seed attribute ignore the call."""
        if hasattr(self, "seed"):
            self.seed = int(seed)


class PoissonWorkload(Workload):
    """Memoryless arrivals: i.i.d. exponential gaps at ``rate`` requests
    per unit of model time.

    ``priority`` stamps every request with a class (higher = more
    urgent); ``deadline`` is a *relative* completion budget — each
    request's absolute deadline is ``arrival + deadline``.
    """

    def __init__(
        self,
        rate: float,
        total: int,
        *,
        kind: str = "matmul",
        rows=None,
        slo: float | None = None,
        priority: int = 0,
        deadline: float | None = None,
        seed: int = 0,
        start: float = 0.0,
    ) -> None:
        _check("rate", rate, _POSITIVE)
        if total < 0:
            raise ValueError(f"total must be >= 0, got {total}")
        _check("start", start)
        _check_stamps(slo, deadline, rows)
        self.rate = float(rate)
        self.total = int(total)
        self.kind = kind
        self.rows = rows
        self.slo = slo
        self.priority = int(priority)
        self.deadline = None if deadline is None else float(deadline)
        self.seed = int(seed)
        self.start = float(start)

    def chunks(self) -> Iterator[RequestChunk]:
        rng = np.random.default_rng(self.seed)
        t = self.start
        for rid in range(0, self.total, _CHUNK):
            n = min(_CHUNK, self.total - rid)
            gaps = rng.exponential(1.0 / self.rate, size=n)
            # cumsum accumulates sequentially, so seeding the first gap
            # with t reproduces the scalar `t += gap` loop bit for bit
            gaps[0] += t
            arrivals = np.cumsum(gaps)
            t = float(arrivals[-1])
            rows = _rows_column(rng, self.rows, self.kind, n)
            yield _chunk(self, rid, arrivals, rows)


class BurstyWorkload(Workload):
    """A 2-state Markov-modulated Poisson process: the arrival rate
    alternates between ``rate_high`` and ``rate_low``, staying in each
    state for an exponential dwell time of mean ``dwell``.  The
    memorylessness of the exponential lets the generator simply redraw
    the gap after each state switch."""

    def __init__(
        self,
        rate_high: float,
        rate_low: float,
        total: int,
        *,
        dwell: float,
        kind: str = "matmul",
        rows=None,
        slo: float | None = None,
        priority: int = 0,
        deadline: float | None = None,
        seed: int = 0,
        start: float = 0.0,
    ) -> None:
        _check("rate_high", rate_high, _POSITIVE)
        _check("rate_low", rate_low, _POSITIVE)
        _check("dwell", dwell, _POSITIVE)
        _check("start", start)
        _check_stamps(slo, deadline, rows)
        self.rates = (float(rate_high), float(rate_low))
        self.total = int(total)
        self.dwell = float(dwell)
        self.kind = kind
        self.rows = rows
        self.slo = slo
        self.priority = int(priority)
        self.deadline = None if deadline is None else float(deadline)
        self.seed = int(seed)
        self.start = float(start)

    def chunks(self) -> Iterator[RequestChunk]:
        rng = np.random.default_rng(self.seed)
        t = self.start
        state = 0
        switch = t + rng.exponential(self.dwell)
        for rid in range(0, self.total, _CHUNK):
            n = min(_CHUNK, self.total - rid)
            # a chunk's row counts are drawn before its gaps
            rows = _rows_column(rng, self.rows, self.kind, n)
            arrivals = np.empty(n)
            for i in range(n):
                while True:
                    gap = rng.exponential(1.0 / self.rates[state])
                    if t + gap <= switch:
                        t += gap
                        break
                    t = switch
                    state ^= 1
                    switch = t + rng.exponential(self.dwell)
                arrivals[i] = t
            yield _chunk(self, rid, arrivals, rows)


class ClosedLoopWorkload(Workload):
    """A fixed population of ``clients``, each issuing its next request
    ``think`` model-time units after its previous one completes, until
    ``total`` requests have been issued.  At most ``clients`` requests
    are ever in flight — the classic closed-loop (interactive) model.

    The initial ``clients`` requests arrive at ``start``; follow-ups are
    injected by :meth:`on_complete` from the engine's completion events.
    A workload instance drives one :meth:`~repro.serve.engine.ServingEngine.serve`
    at a time (calling :meth:`chunks` or :meth:`requests` re-arms the
    issue counter).
    """

    def __init__(
        self,
        clients: int,
        total: int,
        *,
        think: float = 0.0,
        kind: str = "matmul",
        rows=None,
        slo: float | None = None,
        priority: int = 0,
        deadline: float | None = None,
        seed: int = 0,
        start: float = 0.0,
    ) -> None:
        if clients < 1:
            raise ValueError(f"clients must be >= 1, got {clients}")
        _check("think", think, _NON_NEGATIVE)
        _check("start", start)
        _check_stamps(slo, deadline, rows)
        self.clients = int(clients)
        self.total = int(total)
        self.think = float(think)
        self.kind = kind
        self.rows = rows
        self.slo = slo
        self.priority = int(priority)
        self.deadline = None if deadline is None else float(deadline)
        self.seed = int(seed)
        self.start = float(start)
        self._issued = 0
        self._rng = np.random.default_rng(self.seed)

    def chunks(self) -> Iterator[RequestChunk]:
        # re-armed at the call, not at the first next(): completion
        # follow-ups draw from the same generator
        self._rng = np.random.default_rng(self.seed)
        first = min(self.clients, self.total)
        self._issued = first
        rows = _rows_column(self._rng, self.rows, self.kind, first)
        chunk = _chunk(self, 0, np.full(first, self.start), rows)
        return iter([chunk] if first else [])

    def on_complete(self, request: Request, now: float) -> list[Request]:
        if self._issued >= self.total:
            return []
        rid = self._issued
        self._issued += 1
        rows = _rows_column(self._rng, self.rows, self.kind, 1)
        arrival = now + self.think
        return [
            Request(
                rid=rid,
                kind=self.kind,
                arrival=arrival,
                rows=int(rows[0]),
                slo=self.slo,
                priority=self.priority,
                deadline=None if self.deadline is None else arrival + self.deadline,
            )
        ]


class TraceWorkload(Workload):
    """Replay a recorded arrival trace: timestamps from an array or file.

    ``times`` is an array-like of non-decreasing model-time arrival
    stamps, or a path to one — ``.npy`` files load through
    :func:`numpy.load`, anything else through :func:`numpy.loadtxt`
    (one timestamp per line).  ``scale`` rescales the stamps (e.g. a
    wall-clock trace into model time) and ``start`` shifts them; row
    counts are drawn from the seeded generator exactly as the synthetic
    processes draw theirs, so a trace replays bit-identically.
    """

    def __init__(
        self,
        times,
        *,
        kind: str = "matmul",
        rows=None,
        slo: float | None = None,
        priority: int = 0,
        deadline: float | None = None,
        seed: int = 0,
        start: float = 0.0,
        scale: float = 1.0,
    ) -> None:
        if isinstance(times, (str, Path)):
            path = Path(times)
            times = np.load(path) if path.suffix == ".npy" else np.loadtxt(path)
        times = np.asarray(times, dtype=np.float64).ravel()
        _check("scale", scale, _POSITIVE)
        _check("start", start)
        _check_stamps(slo, deadline, rows)
        times = float(start) + float(scale) * times
        _check("times", times)
        if times.size > 1 and np.any(np.diff(times) < 0):
            raise ValueError("trace timestamps must be non-decreasing")
        self.times = times
        self.total = int(times.size)
        self.kind = kind
        self.rows = rows
        self.slo = slo
        self.priority = int(priority)
        self.deadline = None if deadline is None else float(deadline)
        self.seed = int(seed)

    def chunks(self) -> Iterator[RequestChunk]:
        rng = np.random.default_rng(self.seed)
        for rid in range(0, self.total, _CHUNK):
            n = min(_CHUNK, self.total - rid)
            rows = _rows_column(rng, self.rows, self.kind, n)
            yield _chunk(self, rid, self.times[rid : rid + n], rows)


class DiurnalWorkload(Workload):
    """A Poisson process under a sinusoidal (diurnal) rate envelope.

    The instantaneous rate is ``rate * (1 + amplitude * sin(2*pi*(t -
    phase) / period))`` — ``rate`` is the mean, ``amplitude`` in [0, 1]
    the peak-to-mean swing, ``period`` the cycle length (a model-time
    "day").  Sampling is exact via thinning: candidate arrivals are
    drawn at the peak rate and accepted with probability
    ``rate(t)/rate_max``, which realises the inhomogeneous Poisson
    process with no discretisation error.
    """

    def __init__(
        self,
        rate: float,
        total: int,
        *,
        period: float,
        amplitude: float = 0.5,
        phase: float = 0.0,
        kind: str = "matmul",
        rows=None,
        slo: float | None = None,
        priority: int = 0,
        deadline: float | None = None,
        seed: int = 0,
        start: float = 0.0,
    ) -> None:
        _check("rate", rate, _POSITIVE)
        if total < 0:
            raise ValueError(f"total must be >= 0, got {total}")
        _check("period", period, _POSITIVE)
        _check("phase", phase)
        _check("start", start)
        _check_stamps(slo, deadline, rows)
        if not 0.0 <= amplitude <= 1.0:
            raise ValueError(f"amplitude must be in [0, 1], got {amplitude}")
        self.rate = float(rate)
        self.total = int(total)
        self.period = float(period)
        self.amplitude = float(amplitude)
        self.phase = float(phase)
        self.kind = kind
        self.rows = rows
        self.slo = slo
        self.priority = int(priority)
        self.deadline = None if deadline is None else float(deadline)
        self.seed = int(seed)
        self.start = float(start)

    def rate_at(self, t: float) -> float:
        """The instantaneous arrival rate of the envelope at time ``t``."""
        return self.rate * (
            1.0 + self.amplitude * math.sin(2.0 * math.pi * (t - self.phase) / self.period)
        )

    def chunks(self) -> Iterator[RequestChunk]:
        rng = np.random.default_rng(self.seed)
        rate_max = self.rate * (1.0 + self.amplitude)
        t = self.start
        for rid in range(0, self.total, _CHUNK):
            n = min(_CHUNK, self.total - rid)
            # a chunk's row counts are drawn before its arrivals
            rows = _rows_column(rng, self.rows, self.kind, n)
            arrivals = np.empty(n)
            for i in range(n):
                while True:  # thinning: accept with prob rate(t)/rate_max
                    t += rng.exponential(1.0 / rate_max)
                    if rng.random() * rate_max <= self.rate_at(t):
                        break
                arrivals[i] = t
            yield _chunk(self, rid, arrivals, rows)


class MixedWorkload(Workload):
    """Merge several *open-loop* workloads into one time-ordered stream.

    The way multi-class scenarios are built: an interactive
    high-priority stream and a bulk low-priority stream, each with its
    own kind, rows, SLO and priority, merged lazily by arrival time
    (ties keep the constituent order) and re-numbered with fresh rids.
    Completion feedback is not forwarded, so closed-loop constituents
    degrade to their initial population — use open-loop children.

    The merge is column by column: rows strictly before the *horizon*
    (the earliest last buffered arrival over the constituents that may
    still yield more) are final and are emitted in one stable sort, so
    a row at the horizon waits until every earlier constituent has
    shown whether more rows share its stamp.
    """

    def __init__(self, *workloads: Workload) -> None:
        if len(workloads) == 1 and not isinstance(workloads[0], Workload):
            workloads = tuple(workloads[0])  # accept a single iterable too
        if not workloads:
            raise ValueError("MixedWorkload needs at least one constituent")
        self.workloads = tuple(workloads)

    def reseed(self, seed: int) -> None:
        """Split ``seed`` into one independent substream per constituent
        (so reseeding the mix never correlates its streams)."""
        states = np.random.SeedSequence(int(seed)).generate_state(len(self.workloads))
        for wl, state in zip(self.workloads, states, strict=True):
            wl.reseed(int(state))

    def chunks(self) -> Iterator[RequestChunk]:
        streams = [iter(wl.chunks()) for wl in self.workloads]
        buffered = [RequestChunk.of([]) for _ in streams]
        live = [True] * len(streams)
        last = [-math.inf] * len(streams)  # each constituent's last arrival

        def load(i: int) -> None:
            chunk = next(streams[i], None)
            if chunk is None:
                live[i] = False
                return
            arrival = chunk.arrival
            ordered = np.isfinite(arrival) & (arrival >= np.r_[last[i], arrival[:-1]])
            if not ordered.all():
                at = int(ordered.argmin())
                raise ServeError(
                    f"constituent {i} of a mixed workload is not a finite, "
                    f"time-ordered stream: request {int(chunk.rid[at])} arrives "
                    f"at {float(arrival[at])}"
                )
            if len(chunk):
                last[i] = float(arrival[-1])
            buffered[i] = RequestChunk.concat([buffered[i], chunk])

        rid = 0
        while True:
            for i in range(len(streams)):
                while live[i] and not len(buffered[i]):
                    load(i)
            horizon = min((t for t, more in zip(last, live, strict=True) if more), default=math.inf)
            cuts = [int(np.searchsorted(held.arrival, horizon)) for held in buffered]
            if not any(cuts):
                if horizon == math.inf:
                    return
                # every row before the horizon is out: the constituents
                # whose buffers end at it show their next rows
                for i in range(len(streams)):
                    if live[i] and last[i] == horizon:
                        load(i)
                continue
            split = list(zip(buffered, cuts, strict=True))
            merged = RequestChunk.concat([held.take(slice(cut)) for held, cut in split])
            buffered = [held.take(slice(cut, None)) for held, cut in split]
            # stable: equal stamps keep constituent order, then stream order
            order = np.argsort(merged.arrival, kind="stable")
            n = len(order)
            yield merged.take(order, rid=np.arange(rid, rid + n, dtype=np.int64))
            rid += n
