"""Lazy tensor programs: a plan/execute split for TCU algorithms.

The paper's cost model makes latency ``l`` a first-class term — every
tensor call costs ``n*sqrt(m) + l`` — and its algorithms win exactly by
amortising ``l`` over fewer, taller calls (Theorem 2, Lemma 1).  The
eager :meth:`~repro.core.machine.TCUMachine.mm` interface cannot see
past the single call it is handed, so no layer above it can batch,
reorder or fuse.  This module introduces the missing seam:

1. **Build**: algorithms record their tensor work as data — a
   :class:`TensorProgram` of :class:`TensorOp` nodes (``mm``, ``add``,
   ``copy``) with dependency edges — instead of executing it.
2. **Plan**: :func:`plan_program` topologically levels the DAG and,
   within each level, *merges* independent tall calls that share the
   same resident right-hand block into one taller call.  A merged call
   pays one latency ``l`` instead of k — exactly the Theorem 2
   amortisation, discovered mechanically instead of by hand.  On a
   parallel machine the planner then prices the *reverse* trade per
   group (``split="auto"``): re-splitting a merged tall call into ``s``
   row-balanced chunks costs ``(s-1)*l`` extra latency but divides the
   stream across up to ``p`` units, so a fully merged level — one tall
   call, one busy unit — scales with the unit count whenever the
   modelled makespan wins (:func:`modelled_call_cost`,
   :func:`_choose_level_splits`).
3. **Execute**: :func:`execute_plan` replays the schedule against a
   machine, charging the existing :class:`~repro.core.ledger.CostLedger`
   through the ordinary :meth:`mm` / :meth:`mm_batch` entry points, so
   traces still feed :func:`repro.extmem.simulate.simulate_ledger_io`
   unchanged.  On a :class:`~repro.core.parallel.ParallelTCUMachine`
   each level's calls are issued as one scheduled batch (LPT by
   default; see :mod:`repro.core.scheduling`) on every machine
   configuration — the batch prices calls from the machine's own
   primitive, so row bounds, complex cost factors and overflow checks
   parallelise instead of silently serialising.

Gathering the row streams of a merged call is index arithmetic in the
RAM model (the unit consumes rows wherever they live — the same
convention :mod:`repro.transform.dft` uses for its strided
re-arrangements), so a planned execution never charges more than the
eager one: merging strictly reduces latency time and leaves throughput
and CPU charges untouched.

Merging recognises a shared resident block *by buffer identity* (same
data pointer, shape, strides and dtype — or the same producing op), not
by content: pre-pad a shared right operand once if you want cross-call
merging, because two distinct padded copies of equal content are not
recognised as the same block.

A whole Theorem 2 product is one ``grid`` node (:meth:`TensorProgram.grid`)
plus the ``stripsum`` node that reduces it.  The planner expands a grid
into its ``kq * kr`` logical calls arithmetically — block identities from
the right operand's data pointer and strides — so levels, merges, splits
and charges are those of the per-call ``mm``/``add`` emission, while
dispatch multiplies whole grids in stacked products.

Quickstart — five products against one resident weight matrix pay one
latency instead of five::

    >>> import numpy as np
    >>> from repro.core.machine import TCUMachine
    >>> from repro.core.program import TensorProgram, run_program
    >>> tcu = TCUMachine(m=16, ell=100.0)
    >>> W = np.eye(4)
    >>> prog = TensorProgram()
    >>> outs = [prog.mm(np.ones((8, 4)) * i, W) for i in range(5)]
    >>> plan = run_program(prog, tcu)
    >>> plan.stats.tensor_calls_planned, tcu.ledger.latency_time
    (1, 100.0)
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple, TypeAlias

import numpy as np

from .machine import TCUMachine, TensorShapeError, placeholder
from .parallel import ParallelTCUMachine
from .scheduling import schedule_batch

if TYPE_CHECKING:
    from .plan_cache import CompiledPlan

__all__ = [
    "TensorOp",
    "TensorProgram",
    "GridCall",
    "CallGroups",
    "Plan",
    "PlanStats",
    "ProgramError",
    "Lazy",
    "ExecutionCursor",
    "check_split",
    "modelled_call_cost",
    "plan_program",
    "LevelShape",
    "level_shape",
    "price_shape",
    "price_level",
    "execute_plan",
    "run_grid",
    "run_program",
]

Source: TypeAlias = "np.ndarray | TensorOp"


class ProgramError(RuntimeError):
    """Invalid program construction or use (e.g. reading an unexecuted op)."""


def _source_shape(src: Source) -> tuple[int, ...]:
    return src.shape


def _source_dtype(src: Source) -> np.dtype:
    return np.dtype(src.dtype)


class TensorOp:
    """One node of a :class:`TensorProgram` DAG.

    Kinds
    -----
    ``mm``
        ``value = a @ b`` where ``a`` is the (tall) streamed operand and
        ``b`` the resident square block; exactly the machine primitive.
    ``add``
        ``value = sum(coef * src for coef, src in terms)`` — the
        elementwise accumulations of the Theorem 2 schedule, charged one
        RAM unit per word per term.
    ``copy``
        ``value = src.copy()`` — a charged materialisation (one RAM unit
        per word written), used when a resident block must not alias
        memory that later ops update.
    ``apply``
        ``value = fn(*term values)`` — an opaque CPU-side bridge charged
        ``cpu`` RAM units, used by multi-stage pipelines (twiddle passes,
        activation functions, padded re-materialisations) whose work is
        not a linear combination.  The charge is declared at build time
        so cost-only execution never needs the callable.
    ``view``
        ``value = src[key]`` — an uncharged strided view (index
        arithmetic in the RAM model, the same convention the merged-call
        row gathering uses), so later ops can consume slices of a value
        produced earlier in the program.
    ``grid``
        The Theorem 2 products of padded operands ``a`` (``p x kq*s``)
        and ``b`` (``kq*s x kr*s``): ``value[i, j] = a_i @ b_ij`` for
        every ``sqrt(m)``-wide strip ``a_i`` and block ``b_ij``, shape
        ``(kq, kr, p, s)``.  Planned as ``kq * kr`` logical calls
        (:class:`GridCall`).
    ``stripsum``
        ``value[:, j-th block column] = sum_i a.value[i, j]`` for the
        grid op ``a``, each column summed from zeros in strip order and
        charged one RAM unit per word per partial — the per-column
        ``add`` nodes of the Theorem 2 schedule as one node.

    Operands are either concrete ``ndarray`` inputs or other ops
    (dependency edges).  ``value`` is ``None`` until the owning program
    has been executed.
    """

    __slots__ = (
        "op_id",
        "kind",
        "a",
        "b",
        "terms",
        "shape",
        "dtype",
        "value",
        "level",
        "fn",
        "cpu",
        "key",
    )

    def __init__(
        self,
        op_id: int,
        kind: str,
        *,
        a: Source | None = None,
        b: Source | None = None,
        terms: tuple[tuple[float, Source], ...] = (),
        shape: tuple[int, ...] = (),
        dtype: np.dtype | None = None,
        fn: Callable[..., np.ndarray] | None = None,
        cpu: float = 0.0,
        key: tuple | None = None,
    ) -> None:
        self.op_id = op_id
        self.kind = kind
        self.a = a
        self.b = b
        self.terms = terms
        self.shape = shape
        self.dtype = dtype
        self.value: np.ndarray | None = None
        self.level = 0
        self.fn = fn
        self.cpu = cpu
        self.key = key

    def deps(self) -> Iterable["TensorOp"]:
        """The op-valued operands (dependency edges) of this node."""
        if self.kind == "mm":
            if isinstance(self.a, TensorOp):
                yield self.a
            if isinstance(self.b, TensorOp):
                yield self.b
        elif self.kind in ("add", "apply"):
            for _, src in self.terms:
                if isinstance(src, TensorOp):
                    yield src
        elif self.kind in ("copy", "view", "stripsum"):
            if isinstance(self.a, TensorOp):
                yield self.a

    def result(self) -> np.ndarray:
        """The computed value; raises until the program has executed."""
        if self.value is None:
            raise ProgramError(
                f"op {self.op_id} ({self.kind}) has no value yet; "
                "run the program through run_program()/execute_plan() first"
            )
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TensorOp(#{self.op_id} {self.kind} {self.shape})"


class Lazy:
    """A deferred result assembled from op values after execution.

    Algorithms that append to a shared program return one of these; call
    :meth:`result` once the program has run.  The assembly function runs
    at most once (results are cached), so RAM charges it performs are
    not double-billed.
    """

    __slots__ = ("_fn", "_value")

    def __init__(self, fn: Callable[[], np.ndarray]) -> None:
        self._fn = fn
        self._value: np.ndarray | None = None

    def result(self) -> np.ndarray:
        if self._value is None:
            self._value = self._fn()
        return self._value


class GridCall:
    """One logical call of a ``grid`` op: strip ``i`` against block ``(i, j)``.

    Duck-types the ``mm`` op fields the planner and executors read
    (``a``, ``b``, ``shape``, ``dtype``).  Built only where a call must
    stand alone — a merge group it shares with other calls, or a group
    read off :class:`CallGroups` — so planning and dispatching an
    unmerged grid never creates one per call.
    """

    __slots__ = ("grid", "i", "j")

    def __init__(self, grid: TensorOp, i: int, j: int) -> None:
        self.grid = grid
        self.i = i
        self.j = j

    @property
    def shape(self) -> tuple[int, int]:
        return self.grid.shape[2], self.grid.shape[3]

    @property
    def dtype(self) -> np.dtype:
        return self.grid.dtype

    @property
    def a(self) -> np.ndarray:
        s = self.grid.shape[3]
        return self.grid.a[:, self.i * s : (self.i + 1) * s]

    @property
    def b(self) -> np.ndarray:
        s = self.grid.shape[3]
        i, j = self.i, self.j
        return self.grid.b[i * s : (i + 1) * s, j * s : (j + 1) * s]

    def store(self, value: np.ndarray) -> None:
        """Write this call's product into the grid's products array."""
        grid = self.grid
        if grid.value is None or not grid.value.flags.writeable:
            grid.value = np.empty(grid.shape, dtype=value.dtype)
        grid.value[self.i, self.j] = value


def _grid_calls(grid: TensorOp) -> Iterable[GridCall]:
    """A grid's calls in the per-op emission's order: block column
    ``j`` outer, strip ``i`` inner."""
    kq, kr = grid.shape[:2]
    for j in range(kr):
        for i in range(kq):
            yield GridCall(grid, i, j)


class TensorProgram:
    """An append-only DAG of tensor-unit work, built lazily and executed
    through :func:`run_program`.

    Ops reference their operands directly (arrays or earlier ops), so a
    program is topologically ordered by construction and cannot contain
    cycles.
    """

    def __init__(self) -> None:
        self.ops: list[TensorOp] = []

    # ------------------------------------------------------------------
    # builders
    # ------------------------------------------------------------------
    def mm(self, a: Source, b: Source) -> TensorOp:
        """Record a tensor-unit product ``a @ b`` (validated at plan time
        against the executing machine's ``sqrt(m)``)."""
        a_shape = _source_shape(a)
        b_shape = _source_shape(b)
        if len(a_shape) != 2 or len(b_shape) != 2:
            raise TensorShapeError(
                f"mm operands must be 2-D, got shapes {a_shape} and {b_shape}"
            )
        if b_shape[0] != b_shape[1]:
            raise TensorShapeError(f"right operand must be square, got {b_shape}")
        if a_shape[1] != b_shape[0]:
            raise TensorShapeError(
                f"inner dimensions disagree: {a_shape} @ {b_shape}"
            )
        op = TensorOp(
            len(self.ops),
            "mm",
            a=a,
            b=b,
            shape=(a_shape[0], b_shape[1]),
            dtype=np.result_type(_source_dtype(a), _source_dtype(b)),
        )
        self._append(op)
        return op

    def grid(self, a: np.ndarray, b: np.ndarray, sqrt_m: int) -> TensorOp:
        """Record the Theorem 2 product ``a @ b`` of padded operands.

        ``a`` is ``p x q`` and ``b`` is ``q x r`` (concrete arrays or
        placeholders) with ``q`` and ``r`` multiples of ``sqrt_m`` and
        ``p >= sqrt_m``.  Appends a ``grid`` op — the ``kq * kr``
        strip-by-block calls, at level 0 — and the ``stripsum`` op that
        reduces them at level 1, and returns the latter, whose value is
        the ``p x r`` product.  Planned, charged and levelled exactly
        like one ``mm`` per ``(strip, block)`` pair plus one ``add`` per
        output block column; ``sqrt_m`` must match the executing
        machine.
        """
        a = np.asarray(a)
        b = np.asarray(b)
        s = int(sqrt_m)
        if a.ndim != 2 or b.ndim != 2:
            raise TensorShapeError(
                f"grid operands must be 2-D, got shapes {a.shape} and {b.shape}"
            )
        p, q = a.shape
        r = b.shape[1]
        if b.shape[0] != q or q == 0 or r == 0 or q % s or r % s or p < s:
            raise TensorShapeError(
                f"grid operands {a.shape} @ {b.shape} are not padded to the "
                f"sqrt(m)={s} grid"
            )
        dtype = np.result_type(a.dtype, b.dtype)
        products = TensorOp(
            len(self.ops), "grid", a=a, b=b, shape=(q // s, r // s, p, s), dtype=dtype
        )
        total = TensorOp(len(self.ops) + 1, "stripsum", a=products, shape=(p, r), dtype=dtype)
        total.level = 1  # array operands put the products at level 0
        self.ops += (products, total)
        return total

    def add(self, terms: Sequence[tuple[float, Source] | Source]) -> TensorOp:
        """Record an elementwise linear combination of equal-shape sources.

        Terms are ``(coefficient, source)`` pairs; a bare source means
        coefficient 1.  Charged one RAM unit per word per term when
        executed — the same discipline as the eager accumulation loops.
        """
        if not terms:
            raise ProgramError("add requires at least one term")
        normal: list[tuple[float, Source]] = []
        for term in terms:
            if isinstance(term, tuple):
                coef, src = term
                normal.append((float(coef), src))
            else:
                normal.append((1.0, term))
        shape = _source_shape(normal[0][1])
        for _, src in normal[1:]:
            if _source_shape(src) != shape:
                raise TensorShapeError(
                    f"add terms must share a shape; got {shape} and {_source_shape(src)}"
                )
        dtype = np.result_type(*[_source_dtype(src) for _, src in normal])
        op = TensorOp(
            len(self.ops), "add", terms=tuple(normal), shape=shape, dtype=dtype
        )
        self._append(op)
        return op

    def copy(self, src: Source) -> TensorOp:
        """Record a charged materialisation of ``src`` (one unit/word)."""
        op = TensorOp(
            len(self.ops),
            "copy",
            a=src,
            shape=_source_shape(src),
            dtype=_source_dtype(src),
        )
        self._append(op)
        return op

    def apply(
        self,
        fn: Callable[..., np.ndarray],
        sources: Sequence[Source],
        shape: tuple[int, ...],
        dtype,
        *,
        cpu: float = 0.0,
    ) -> TensorOp:
        """Record a CPU-side bridge ``value = fn(*sources)``.

        ``shape``/``dtype`` describe the result (they cannot be inferred
        from an opaque callable) and ``cpu`` is the RAM-model charge the
        bridge pays when executed — declared here, at build time, so a
        cost-only execution charges identically without ever calling
        ``fn``.  Use for the non-linear or rearranging stages of a
        pipeline (activations, twiddle passes, padded
        re-materialisations); linear combinations should stay ``add``
        nodes, which the planner understands.
        """
        if cpu < 0:
            raise ProgramError(f"apply cpu charge must be >= 0, got {cpu}")
        op = TensorOp(
            len(self.ops),
            "apply",
            terms=tuple((1.0, src) for src in sources),
            shape=tuple(shape),
            dtype=np.dtype(dtype),
            fn=fn,
            cpu=float(cpu),
        )
        self._append(op)
        return op

    def view(self, src: Source, key: tuple) -> TensorOp:
        """Record an uncharged strided view ``value = src[key]``.

        ``key`` must be a tuple of slices / integers whose application
        to ``src``'s shape is computable at build time; the view costs
        nothing (index arithmetic in the RAM model) and lets later ops
        consume slices of values produced earlier in the program.
        """
        shape = placeholder(_source_shape(src), np.bool_)[key].shape
        op = TensorOp(
            len(self.ops),
            "view",
            a=src,
            shape=shape,
            dtype=_source_dtype(src),
            key=key,
        )
        self._append(op)
        return op

    # ------------------------------------------------------------------
    def _append(self, op: TensorOp) -> None:
        level = 0
        for dep in op.deps():
            if dep.op_id >= len(self.ops) or self.ops[dep.op_id] is not dep:
                raise ProgramError("operand op belongs to a different program")
            level = max(level, dep.level + 1)
        op.level = level
        self.ops.append(op)

    def __len__(self) -> int:
        return len(self.ops)


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlanStats:
    """What the planner did to a program.

    Counts are logical: a ``grid`` op counts as its ``kq * kr`` ``mm``
    calls and a ``stripsum`` op as its ``kr`` column ``add`` nodes, so
    a grid plans to the stats of the per-call emission it stands for.

    Attributes
    ----------
    ops:
        Total IR nodes in the program.
    mm_ops:
        ``mm`` nodes before merging.
    tensor_calls_planned:
        Tensor calls the schedule will issue (merged groups).
    merged_away:
        Calls eliminated by resident-block merging
        (``mm_ops - tensor_calls_planned``); each saves one latency.
    levels:
        Depth of the levelled DAG (batching opportunities per level).
    """

    ops: int
    mm_ops: int
    tensor_calls_planned: int
    merged_away: int
    levels: int


class CallGroups(Sequence):
    """A plan level's merged call groups, in dispatch order.

    ``parts`` holds merge groups — lists of ``mm`` ops and
    :class:`GridCall` s sharing one resident block, issued as one merged
    call — and ``grid`` ops, each standing for its ``kq * kr`` unmerged
    calls, one group per call in :func:`_grid_calls` order.  ``len()``
    counts groups; iterating or indexing yields member lists, building
    grid calls on demand.
    """

    __slots__ = ("parts", "_count")

    def __init__(self, parts: list) -> None:
        self.parts = parts
        self._count = sum(
            1 if isinstance(part, list) else part.shape[0] * part.shape[1]
            for part in parts
        )

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        for part in self.parts:
            if isinstance(part, list):
                yield part
            else:
                yield from ([call] for call in _grid_calls(part))

    def __getitem__(self, index):
        return list(self)[index]

    def shapes(self) -> list[tuple[int, np.dtype]]:
        """``(rows, dtype)`` of every group, in order: what the split
        search and the cost model read."""
        out: list[tuple[int, np.dtype]] = []
        for part in self.parts:
            if isinstance(part, list):
                out.append((_group_rows(part), np.dtype(part[0].dtype)))
            else:
                kq, kr, p, _ = part.shape
                out.extend([(p, np.dtype(part.dtype))] * (kq * kr))
        return out


def _group_shapes(groups) -> list[tuple[int, np.dtype]]:
    if isinstance(groups, CallGroups):
        return groups.shapes()
    return [(_group_rows(g), np.dtype(g[0].dtype)) for g in groups]


def _parts(groups) -> list:
    return groups.parts if isinstance(groups, CallGroups) else list(groups)


@dataclass
class Plan:
    """An executable schedule: levelled call groups plus CPU-side ops.

    ``levels[d]`` is a pair ``(groups, others)`` where ``groups`` is the
    level's :class:`CallGroups` — each group a list of ``mm`` ops or
    grid calls sharing one resident right-hand block (issued as a
    single merged call), unmerged grids held whole — and ``others`` are
    the level's add/copy/apply/view/stripsum ops.

    ``splits[d][i]`` is the split factor chosen for group ``i`` of level
    ``d``: a factor ``f > 1`` dispatches the group's merged stream as
    ``f`` row-balanced sibling chunks in the level's ``mm_batch`` (each
    chunk pays its own latency but the chunks spread across parallel
    units), ``f = 1`` issues the single merged call of the legacy
    schedule.  ``modelled_makespans[d]`` is the level's tensor-batch
    makespan under the machine's cost model and scheduling policy with
    those splits — what the ledger clock should advance by for the
    level's tensor work (exact on plain machines; see
    :func:`modelled_call_cost`).

    ``stats.tensor_calls_planned`` keeps counting *logical* merged
    calls; splitting expands a group into sibling chunk calls only at
    dispatch.

    A plan is one of the two level sources an :class:`ExecutionCursor`
    steps; the other is :class:`~repro.core.plan_cache.CompiledPlan`.
    """

    levels: list[tuple[CallGroups, list[TensorOp]]]
    stats: PlanStats
    splits: list[list[int]]
    modelled_makespans: list[float]
    _suffix_words: tuple[int, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def start(self, machine: TCUMachine) -> None:
        """Charge what a cursor owes before level 0: nothing, because
        building the plan already charged its build work."""

    def run_level(self, level: int, machine: TCUMachine) -> None:
        """Execute level ``level`` on ``machine``: its merged call
        groups, then its CPU-side ops."""
        groups, others = self.levels[level]
        _execute_level(groups, others, machine, self.splits[level])

    def resident_words(self, from_level: int = 0) -> int:
        """Words of distinct resident blocks that levels at/after
        ``from_level`` stream against (0 past the last level).

        Read from a per-plan suffix table built once, on first use, in
        one backward pass over the levels (a suffix union of resident
        keys, grid blocks included), so pricing a resume at every level
        is linear in plan size.
        """
        if self._suffix_words is None:
            self._suffix_words = _suffix_resident_words(self.levels)
        if from_level >= len(self._suffix_words):
            return 0
        return self._suffix_words[from_level]


def _suffix_resident_words(levels) -> tuple[int, ...]:
    """``words[d]``: resident-block words of levels ``d..``, plus a
    final 0; distinctness follows :func:`_resident_key`."""
    seen: set[tuple] = set()
    words = [0] * (len(levels) + 1)
    for d in range(len(levels) - 1, -1, -1):
        words[d] = words[d + 1]
        for g in levels[d][0]:
            key = _resident_key(g[0])
            if key not in seen:
                seen.add(key)
                rows, cols = _source_shape(g[0].b)
                words[d] += rows * cols
    return tuple(words)


def _buffer_key(arr: np.ndarray) -> tuple:
    """Identity of an ndarray's memory (data pointer, shape, strides,
    typestr): two arrays with equal keys alias the same elements."""
    iface = arr.__array_interface__
    return (iface["data"][0], arr.shape, iface["strides"], iface["typestr"])


def _grid_family(grid: TensorOp) -> tuple[tuple, int] | None:
    """What a grid's block keys share, and the operand's data pointer.

    Every block view ``b[i*s:(i+1)*s, j*s:(j+1)*s]`` has the
    :func:`_resident_key` ``("arr", ptr) + family`` with ``family =
    ((s, s), strides, typestr, dtype)`` and ``ptr = data + s*(i*st0 +
    j*st1)`` — ``strides`` is ``None`` when the view is C-contiguous, as
    numpy reports it — so keys need no views.  ``None`` for a fully
    zero-strided operand (a placeholder), whose blocks are keyed by
    identity and never merge.
    """
    b = grid.b
    s = grid.shape[3]
    st0, st1 = b.strides
    if st0 == 0 and st1 == 0:
        return None
    iface = b.__array_interface__
    contiguous = s == 1 or (st1 == b.itemsize and st0 == s * b.itemsize)
    strides = None if contiguous else (st0, st1)
    family = ((s, s), strides, iface["typestr"], np.dtype(grid.dtype).str)
    return family, iface["data"][0]


def _grid_pointers(grid: TensorOp, base: int) -> list[int]:
    """Data pointers of a grid's blocks, in :func:`_grid_calls` order."""
    kq, kr, _, s = grid.shape
    st0, st1 = grid.b.strides
    rows = [s * st0 * i for i in range(kq)]
    return [base + s * st1 * j + row for j in range(kr) for row in rows]


def _resident_key(op: TensorOp | GridCall) -> tuple:
    """Identity of an mm op's resident block plus cost-relevant dtype
    information, used to decide merge groups.

    Two ops merge only when their right operands are the *same* buffer
    (or the same producing op) and their operands promote to the same
    result dtype — so a merged call is charged exactly as the separate
    calls would be (complex-cost factors included).

    A fully zero-strided view of a scalar — what
    :func:`~repro.core.machine.placeholder` returns for cost-only runs —
    is keyed by *object* identity instead: every placeholder of a shape
    aliases the same zero scalar, so merging by buffer would fuse
    resident blocks that stand for different hypothetical data and
    charge fewer latencies than the numeric run.  Passing the *same*
    view object to several ops (the documented way to request shared
    residency) still merges; distinct placeholder objects never do.
    Partially broadcast numeric views keep the buffer key: equal
    pointer/strides/shape still implies equal elements there.  A grid
    call's key is computed from its grid's operand
    (:func:`_grid_family`), equal to the key of its block view.
    """
    if isinstance(op, GridCall):
        grid = op.grid
        known = _grid_family(grid)
        if known is None:
            return ("broadcast", id(grid), op.i, op.j, np.dtype(grid.dtype).str)
        family, base = known
        st0, st1 = grid.b.strides
        return ("arr", base + grid.shape[3] * (op.i * st0 + op.j * st1)) + family
    b = op.b
    if isinstance(b, TensorOp):
        b_key: tuple = ("op", id(b))
    elif b.size and all(stride == 0 for stride in b.strides):
        b_key = ("broadcast", id(b))
    else:
        b_key = ("arr",) + _buffer_key(b)
    return b_key + (np.dtype(op.dtype).str,)


def _cap_group(group: list[TensorOp], max_rows: int | None) -> list[list[TensorOp]]:
    """Split a merge group so no merged call exceeds the hardware row
    bound.

    A merged stream longer than ``max_rows`` would be re-split by
    :meth:`TCUMachine._mm_split` — re-paying latency per chunk and
    charging reassembly copies, i.e. costing *more* than the calls it
    replaced.  Greedily packing ops up to the bound keeps every merged
    call a single hardware call; an op that alone exceeds the bound
    stays a singleton (the eager path would split it identically).
    """
    if max_rows is None or len(group) == 1:
        return [group]
    out: list[list[TensorOp]] = []
    current: list[TensorOp] = []
    rows = 0
    for op in group:
        n = op.shape[0]
        if current and rows + n > max_rows:
            out.append(current)
            current, rows = [], 0
        current.append(op)
        rows += n
        if n > max_rows:  # oversized op: isolate, eager splits it too
            out.append(current)
            current, rows = [], 0
    if current:
        out.append(current)
    return out


# ----------------------------------------------------------------------
# the latency-vs-parallelism auto-splitter
# ----------------------------------------------------------------------
# exhaustive split search is used while the candidate space (product of
# per-group feasible factors) stays below this; larger levels fall back
# to coordinate descent.  Both searches only ever *accept* a candidate
# on a strict makespan improvement (or equal makespan with fewer
# chunks), so the all-ones legacy schedule survives every tie.
_SPLIT_SEARCH_LIMIT = 512
_SPLIT_DESCENT_PASSES = 4


def modelled_call_cost(machine: TCUMachine, rows: int, dtype=np.float64) -> float:
    """The (tensor + latency) model cost of one logical call of ``rows``
    rows, priced from the machine's own parameters.

    Matches what :meth:`~repro.core.machine.TCUMachine.mm` charges to
    the tensor/latency columns exactly: ``f * (rows*sqrt(m) + l)`` with
    the complex cost factor ``f``, and under a hardware row bound the
    sum over the stream's chunks with a short final chunk padded up to
    ``sqrt(m)`` rows.  CPU-side charges (padding copies, reassembly,
    complex-multiply adds) are excluded — they stay serial and do not
    enter the batch schedule, mirroring
    :meth:`~repro.core.parallel.ParallelTCUMachine.mm_batch`'s per-call
    cost measurement.
    """
    s = machine.sqrt_m
    ell = machine.ell
    factor = (
        machine.complex_cost_factor
        if np.issubdtype(np.dtype(dtype), np.complexfloating)
        else 1
    )
    bound = machine.max_rows
    if bound is None or rows <= bound:
        return factor * (rows * s + ell)
    total = 0.0
    for start in range(0, rows, bound):
        chunk = min(bound, rows - start)
        total += factor * (max(chunk, s) * s + ell)
    return total


def _split_bounds(rows: int, pieces: int) -> list[tuple[int, int]]:
    """Row-balanced chunk boundaries of a ``rows``-row stream: the first
    ``rows % pieces`` chunks carry one extra row."""
    base, extra = divmod(rows, pieces)
    bounds: list[tuple[int, int]] = []
    start = 0
    for i in range(pieces):
        stop = start + base + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def _split_cap(group: list[TensorOp], machine: TCUMachine, units: int) -> int:
    """The largest feasible split factor for a merge group: no more
    chunks than units, and every chunk at least ``sqrt(m)`` rows (the
    single-call interface floor)."""
    return _rows_cap(_group_rows(group), machine, units)


def _rows_cap(rows: int, machine: TCUMachine, units: int) -> int:
    return max(1, min(units, rows // machine.sqrt_m))


def _chunk_costs(
    machine: TCUMachine, rows: int, dtype, pieces: int
) -> tuple[float, ...]:
    """Modelled costs of a ``rows``-row stream's row-balanced chunks
    when it is split ``pieces`` ways, in dispatch order."""
    return tuple(
        modelled_call_cost(machine, hi - lo, dtype)
        for lo, hi in _split_bounds(rows, pieces)
    )


def _level_cost_vector(
    groups: list[list[TensorOp]], splits: Sequence[int], machine: TCUMachine
) -> np.ndarray:
    """Per-chunk modelled costs of one level under the given splits, in
    the exact order :func:`_dispatch_parallel` issues the chunks."""
    costs: list[float] = []
    tables: dict[tuple, tuple[float, ...]] = {}
    for shape, pieces in zip(_group_shapes(groups), splits, strict=True):
        chunks = tables.get((shape, pieces))
        if chunks is None:
            chunks = tables[shape, pieces] = _chunk_costs(machine, *shape, pieces)
        costs.extend(chunks)
    return np.asarray(costs, dtype=np.float64)


def _level_makespan(
    groups: list[list[TensorOp]], splits: Sequence[int], machine: TCUMachine
) -> float:
    """Modelled tensor makespan of one level under the given splits.

    Uses the machine's own scheduling policy over its unit count, so the
    prediction is the same schedule ``mm_batch`` will compute at
    dispatch; returns ``inf`` for configurations the policy refuses
    (the exact oracle's job-count limit), which the chooser treats as
    infeasible.
    """
    if not len(groups):
        return 0.0
    units = int(getattr(machine, "units", 1))
    costs = _level_cost_vector(groups, splits, machine)
    if units <= 1:
        return float(costs.sum())
    try:
        return schedule_batch(costs, units, machine.scheduler).makespan
    except ValueError:
        return float("inf")


def _exact_sums(tables: list[tuple[tuple[float, ...], ...]], shapes: list[int]) -> bool:
    """Whether every sum of a level's chunk costs is exact in floats.

    Holds when every tabulated cost is integer-valued and the level's
    largest possible total (every group at its costliest factor) is
    below ``2**53``: each partial per-unit sum is then an exactly
    representable integer, whatever order it is accumulated in.
    """
    if not all(
        float(c).is_integer() for table in tables for chunks in table for c in chunks
    ):
        return False
    widest = [max(sum(int(c) for c in chunks) for chunks in table) for table in tables]
    return sum(widest[s] for s in shapes) < 2**53


def _choose_level_splits(
    shapes: Sequence[tuple[int, np.dtype]], machine: TCUMachine
) -> tuple[list[int], float]:
    """Pick the split factor per merge group minimising the level's
    modelled makespan (ties break toward fewer calls); returns the
    splits and their makespan, which equals :func:`_level_makespan` of
    them bit for bit, so the planner never schedules a chosen level
    twice.

    The level is read only through its groups' ordered ``(rows,
    dtype)`` shapes (:meth:`CallGroups.shapes`), and the machine only
    through parameters its :meth:`~repro.core.machine.TCUMachine.config_key`
    fingerprints, so ``(config_key(), shapes)`` determines the result —
    the key of a plan memo's split table (:func:`plan_program`).  The
    order matters: ties break by group order.

    Small candidate spaces are searched exhaustively — there the chosen
    configuration *is* the optimum over row-balanced splits under the
    machine's policy, which is what the exact-oracle pinning tests
    assert.  Larger levels run coordinate descent from the all-ones
    legacy schedule, accepting only strict improvements, so the result
    is never worse than not splitting.

    Each distinct candidate is priced once.  Chunk costs are tabulated
    once per group shape ``(rows, dtype)`` and factor, and a candidate's
    cost vector is assembled from the tables — the same floats, in the
    same order, as :func:`_level_cost_vector`.  Makespans are memoised
    by the ``splits`` tuple; when the policy is
    :attr:`~repro.core.scheduling.SchedulerPolicy.order_free` and every
    sum is exact (:func:`_exact_sums`), permuting the cost vector cannot
    change the makespan, so they are memoised by the multiset of
    ``(shape, factor)`` pairs instead and a level of identical groups
    prices each split *count* once.
    """
    units = int(getattr(machine, "units", 1))
    best = [1] * len(shapes)
    if not shapes:
        return best, 0.0
    # one unit: no group splits, so the level is priced unsplit
    caps = [_rows_cap(rows, machine, units) for rows, _ in shapes] if units > 1 else best[:]

    # tables[ids[i]][f - 1] holds the chunk costs of group i split f ways
    shape_ids: dict[tuple[int, np.dtype], int] = {}
    tables: list[tuple[tuple[float, ...], ...]] = []
    ids: list[int] = []
    for (rows, dtype), cap in zip(shapes, caps, strict=True):
        if (rows, dtype) not in shape_ids:
            shape_ids[rows, dtype] = len(tables)
            tables.append(
                tuple(_chunk_costs(machine, rows, dtype, f) for f in range(1, cap + 1))
            )
        ids.append(shape_ids[rows, dtype])

    def cost_vector(splits: list[int]) -> np.ndarray:
        chunks = (tables[s][f - 1] for s, f in zip(ids, splits, strict=True))
        return np.fromiter(itertools.chain.from_iterable(chunks), dtype=np.float64)

    if units <= 1:
        return best, float(cost_vector(best).sum())
    policy = machine.scheduler
    multiset = policy.order_free and _exact_sums(tables, ids)
    spans: dict[tuple, float] = {}

    def price(splits: list[int]) -> float:
        key = tuple(sorted(zip(ids, splits, strict=True))) if multiset else tuple(splits)
        span = spans.get(key)
        if span is None:
            try:
                span = schedule_batch(cost_vector(splits), units, policy).makespan
            except ValueError:  # the policy refuses this batch size
                span = float("inf")
            spans[key] = span
        return span

    best_span = price(best)
    if best_span <= 0.0 or all(cap == 1 for cap in caps):
        return best, best_span
    # a perfectly balanced unsplit schedule is already optimal:
    # splitting only adds latency, and serial/p lower-bounds every split
    serial = float(cost_vector(best).sum())
    if best_span == serial / units:
        return best, best_span
    best_chunks = len(best)

    def better(span: float, chunks: int) -> bool:
        return span < best_span or (span == best_span and chunks < best_chunks)

    space = 1
    for cap in caps:
        space *= cap
        if space > _SPLIT_SEARCH_LIMIT:
            break
    if space <= _SPLIT_SEARCH_LIMIT:
        for cand in itertools.product(*(range(1, cap + 1) for cap in caps)):
            splits = list(cand)
            if splits == best:
                continue
            span = price(splits)
            if better(span, sum(splits)):
                best, best_span, best_chunks = splits, span, sum(splits)
        return best, best_span
    # a move's makespan keyed by (moves accepted so far, moved group's
    # slot, old factor, new factor): every accept strictly improves, so
    # the count names the current best and the key names the trial
    moves: dict[tuple[int, int, int, int], float] = {}
    accepted = 0
    for _ in range(_SPLIT_DESCENT_PASSES):
        changed = False
        for gi, cap in enumerate(caps):
            for factor in range(1, cap + 1):
                old = best[gi]
                if factor == old:
                    continue
                key = (accepted, ids[gi] if multiset else gi, old, factor)
                span = moves.get(key)
                if span is None:
                    trial = list(best)
                    trial[gi] = factor
                    span = moves[key] = price(trial)
                chunks = best_chunks - old + factor
                if better(span, chunks):
                    best[gi] = factor
                    best_span, best_chunks = span, chunks
                    accepted += 1
                    changed = True
        if not changed:
            break
    return best, best_span


def check_split(split: str | int) -> None:
    """Reject a ``split`` that is neither ``"auto"`` nor an integer >= 1."""
    if split != "auto" and (
        isinstance(split, bool)
        or not isinstance(split, (int, np.integer))
        or split < 1
    ):
        raise ProgramError(
            f"split must be 'auto' or an integer >= 1, got {split!r}"
        )


def _level_parts(ops: list[TensorOp], expand: bool) -> list:
    """A level's call parts in first-appearance order: merge groups of
    calls sharing a resident key, and (unless ``expand``) grid ops kept
    whole.  With ``expand`` every grid call joins the keyed merge as a
    :class:`GridCall`."""
    parts: list = []
    keyed: dict[tuple, list] = {}
    for op in ops:
        if op.kind == "grid" and not expand:
            parts.append(op)
            continue
        for member in (op,) if op.kind == "mm" else _grid_calls(op):
            key = _resident_key(member)
            group = keyed.get(key)
            if group is None:
                keyed[key] = group = []
                parts.append(group)
            group.append(member)
    return parts


def _grid_blocks_shared(parts: list) -> bool:
    """Whether any whole grid among ``parts`` has a block key equal to
    another block of its own, of another grid, or of a merge group —
    checked per key family on the blocks' data pointers."""
    seen: dict[tuple, set[int]] = {}
    for part in parts:
        if isinstance(part, list):
            continue
        known = _grid_family(part)
        if known is None:
            continue
        family, base = known
        pointers = seen.setdefault(family, set())
        count = len(pointers)
        pointers.update(_grid_pointers(part, base))
        if len(pointers) != count + part.shape[0] * part.shape[1]:
            return True
    if seen:
        for part in parts:
            if isinstance(part, list):
                key = _resident_key(part[0])
                if key[0] == "arr" and key[1] in seen.get(key[2:], ()):
                    return True
    return False


def plan_program(
    program: TensorProgram,
    machine: TCUMachine,
    *,
    split: str | int = "auto",
) -> Plan:
    """Level the program's DAG and merge same-resident-block calls.

    Parameters
    ----------
    program:
        The recorded DAG.
    machine:
        The machine that will execute the plan; its ``sqrt(m)`` is used
        to validate every ``mm`` node now, so shape errors surface at
        plan time rather than mid-execution.
    split:
        ``"auto"`` (default) prices, for each merged call group on a
        parallel machine, the modelled makespan of dispatching the
        group's stream as ``s ∈ {1..p}`` row-balanced sibling chunks —
        splitting pays ``(s-1)·l`` extra latency but divides stream
        time across up to ``p`` units — and keeps the ``s`` minimising
        the level's makespan under the machine's
        ``(sqrt_m, l, p, max_rows, complex_cost_factor)`` cost model
        and its own scheduling policy (ties break toward fewer calls,
        so the legacy schedule survives whenever splitting does not
        strictly win).  ``1`` is the legacy no-split schedule;
        an explicit integer ``s`` forces that factor on every group
        (capped per group by feasibility: at most ``p`` chunks, each at
        least ``sqrt(m)`` rows).  On single-unit machines every mode
        degenerates to the legacy schedule.

    A ``grid`` op is expanded into its ``kq * kr`` logical calls
    arithmetically: its block keys come from the right operand's data
    pointer and strides (:func:`_grid_family`), so it merges, caps,
    splits and prices exactly like the per-call ``mm`` ops it stands
    for, in their order.  A level whose grid blocks all have distinct
    keys keeps each grid whole in its :class:`CallGroups`; only a level
    where a grid block is shared materialises :class:`GridCall` s.

    On a machine carrying a plan memo (``machine.plan_memo``, set only
    on :func:`~repro.core.plan_cache.compile_plan`'s probe fork) the
    ``"auto"`` choice of a level with call groups is read from the
    memo's split table under ``(config_key(), ordered group shapes)``
    — the chooser's whole input — and chosen only on a miss; every
    plan gets its own fresh ``splits`` lists.
    """
    check_split(split)
    s = machine.sqrt_m
    n_levels = 0
    mm_ops = 0
    nodes = 0
    for op in program.ops:
        n_levels = max(n_levels, op.level + 1)
        nodes += 1
        if op.kind == "mm":
            mm_ops += 1
            n, w = op.shape[0], _source_shape(op.a)[1]
            if w != s:
                raise TensorShapeError(
                    f"op #{op.op_id}: left operand must have sqrt(m)={s} "
                    f"columns, got {w}"
                )
            if n < s:
                raise TensorShapeError(
                    f"op #{op.op_id}: left operand must have n >= sqrt(m)={s} "
                    f"rows, got {n}"
                )
        elif op.kind == "grid":
            if op.shape[3] != s:
                raise TensorShapeError(
                    f"op #{op.op_id}: grid is padded to sqrt(m)={op.shape[3]}, "
                    f"the machine has sqrt(m)={s}"
                )
            mm_ops += op.shape[0] * op.shape[1]
            nodes += op.shape[0] * op.shape[1] - 1
        elif op.kind == "stripsum":
            nodes += op.a.shape[1] - 1

    by_level: list[list[TensorOp]] = [[] for _ in range(n_levels)]
    for op in program.ops:
        by_level[op.level].append(op)

    levels: list[tuple[CallGroups, list[TensorOp]]] = []
    calls = 0
    for level_ops in by_level:
        calls_ops = [op for op in level_ops if op.kind in ("mm", "grid")]
        parts = _level_parts(calls_ops, expand=False)
        if _grid_blocks_shared(parts):
            parts = _level_parts(calls_ops, expand=True)
        level_groups = CallGroups(
            [
                capped
                for part in parts
                for capped in (
                    _cap_group(part, machine.max_rows) if isinstance(part, list) else (part,)
                )
            ]
        )
        calls += len(level_groups)
        others = [op for op in level_ops if op.kind not in ("mm", "grid")]
        levels.append((level_groups, others))

    units = int(getattr(machine, "units", 1))
    memo = machine.plan_memo
    config = machine.config_key() if memo is not None else None
    splits: list[list[int]] = []
    modelled: list[float] = []
    for level_groups, _ in levels:
        if split == "auto":
            shapes = tuple(level_groups.shapes())
            if memo is None or not shapes:
                chosen, span = _choose_level_splits(shapes, machine)
            else:
                key = (config, shapes)
                known = memo.splits.get(key)
                if known is None:
                    chosen, span = _choose_level_splits(shapes, machine)
                    memo.splits[key] = (tuple(chosen), span)
                else:
                    chosen, span = list(known[0]), known[1]
        else:
            if split == 1 or units <= 1:
                chosen = [1] * len(level_groups)
            else:
                chosen = [
                    min(int(split), _rows_cap(rows, machine, units))
                    for rows, _ in level_groups.shapes()
                ]
            span = _level_makespan(level_groups, chosen, machine)
        splits.append(chosen)
        modelled.append(span)

    stats = PlanStats(
        ops=nodes,
        mm_ops=mm_ops,
        tensor_calls_planned=calls,
        merged_away=mm_ops - calls,
        levels=n_levels,
    )
    return Plan(
        levels=levels, stats=stats, splits=splits, modelled_makespans=modelled
    )


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def _resolve(src: Source) -> np.ndarray:
    if isinstance(src, TensorOp):
        return src.result()
    return src


def _group_operands(group: list[TensorOp]) -> np.ndarray:
    """The merged left operand of a call group.

    Stacking the streams is row bookkeeping (index arithmetic in the
    RAM model — the unit consumes rows wherever they live), so it is
    not charged; see the module docstring.
    """
    if len(group) == 1:
        return _resolve(group[0].a)
    return np.vstack([_resolve(op.a) for op in group])  # repro-lint: disable=LED001 -- stacking merged streams is row bookkeeping (index arithmetic), uncharged by the module-docstring convention


def _scatter_group(group: list, out: np.ndarray) -> None:
    offset = 0
    for op in group:
        rows = op.shape[0]
        if isinstance(op, GridCall):
            op.store(out[offset : offset + rows])
        else:
            op.value = out[offset : offset + rows]
        offset += rows


def _scatter_placeholders(group: list) -> None:
    for op in group:
        if isinstance(op, GridCall):
            op.grid.value = placeholder(op.grid.shape, op.grid.dtype)
        else:
            op.value = placeholder(op.shape, op.dtype)


def _group_rows(group: list) -> int:
    return sum(op.shape[0] for op in group)


def _grid_strips(grid: TensorOp) -> np.ndarray:
    """A grid's strips ``a_i`` as a ``(kq, p, s)`` view."""
    kq, _, p, s = grid.shape
    return grid.a.reshape(p, kq, s).swapaxes(0, 1)


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _dispatch_parallel(
    groups: CallGroups, machine: ParallelTCUMachine, splits: Sequence[int]
) -> None:
    """One numeric level on a parallel machine: always a single
    scheduled batch.

    :meth:`~repro.core.parallel.ParallelTCUMachine.mm_batch` obtains
    true per-call costs from the machine itself (max-rows chunking,
    complex cost factors, overflow checks, the systolic backend), so
    every level parallelises on every machine configuration — there is
    no serialising guard here any more.

    A group with split factor ``f > 1`` issues its merged stream as
    ``f`` row-balanced sibling chunks in the same batch: the chunk
    slices are uncharged views of the gathered stream and the chunk
    outputs reassemble by row concatenation (the inverse of the merge
    gather — index arithmetic in the RAM model, like the gather
    itself), so the numerics are bit-identical to the unsplit call
    while each chunk lands on its own unit with its own trace
    ``unit_id``.

    A whole grid none of whose calls is split rides the batch as one
    stacked pair — its strips broadcast against its blocks, calls in
    :func:`_grid_calls` order — which ``mm_batch``'s plain path
    multiplies in one ``np.matmul``; a grid with a split call is
    issued call by call.
    """
    s = machine.sqrt_m
    pairs: list[tuple[np.ndarray, np.ndarray]] = []
    issued: list[tuple] = []  # (group, pieces), or (grid, None) for a stacked grid
    index = 0
    for part in _parts(groups):
        if isinstance(part, list):
            members = [(part, splits[index])]
            index += 1
        else:
            kq, kr, p, _ = part.shape
            factors = splits[index : index + kq * kr]
            index += kq * kr
            if max(factors) == 1:
                A = _grid_strips(part)[None]
                B = part.b.reshape(kq, s, kr, s).transpose(2, 0, 1, 3)
                pairs.append((A, B))
                issued.append((part, None))
                continue
            members = list(zip(([c] for c in _grid_calls(part)), factors, strict=True))
        for g, pieces in members:
            A = _group_operands(g)
            B = _resolve(g[0].b)
            if pieces == 1:
                pairs.append((A, B))
            else:
                pairs.extend(
                    (A[lo:hi], B) for lo, hi in _split_bounds(A.shape[0], pieces)
                )
            issued.append((g, pieces))
    results = machine.mm_batch(pairs)
    index = 0
    for target, pieces in issued:
        if pieces is None:
            target.value = results[index].swapaxes(0, 1)
            index += 1
            continue
        outs = results[index : index + pieces]
        index += pieces
        if pieces == 1:
            _scatter_group(target, outs[0])
        else:
            _scatter_group(target, np.vstack(outs))  # repro-lint: disable=LED001 -- reassembling sibling chunk outputs is the inverse of the uncharged merge gather (row bookkeeping)


def _grid_per_call(grid: TensorOp, machine: TCUMachine) -> None:
    """Issue a grid's calls one by one through ``machine.mm``, in
    :func:`_grid_calls` order — for numeric machines whose calls cannot
    be stacked."""
    value = None
    for call in _grid_calls(grid):
        out = machine.mm(call.a, call.b)
        if value is None:
            value = np.empty(grid.shape, dtype=out.dtype)
        value[call.i, call.j] = out
    grid.value = value


def _run_grids(grids: list[TensorOp], machine: TCUMachine) -> None:
    """Whole grids on a sequential numeric machine: one stacked
    :meth:`TCUMachine.mm_grid` per grid shape.

    Each strip is stacked once and broadcast against its row of blocks
    (never repeated), so ``mm_grid`` runs one GEMM per strip against
    its concatenated block row — the numerics the per-call emission's
    shared-stream grids had.  Charges are one bulk append per bucket.
    Machines whose calls cannot be stacked (non-fusable kernels,
    streams the row bound splits) issue each call through ``mm``
    instead.
    """
    s = machine.sqrt_m
    buckets: dict[tuple, list[TensorOp]] = {}
    for grid in grids:
        if not machine.fusable or (
            machine.max_rows is not None and grid.shape[2] > machine.max_rows
        ):
            _grid_per_call(grid, machine)
            continue
        buckets.setdefault((grid.shape, np.dtype(grid.dtype).str), []).append(grid)
    for (shape, _), bucket in buckets.items():
        kq, kr, p, _ = shape
        k = len(bucket)
        strips = _stack([_grid_strips(grid) for grid in bucket])
        rows = _stack([grid.b.reshape(kq, s, kr * s) for grid in bucket])
        out = machine.mm_grid(strips[:, :, None], rows.reshape(k, kq, s, kr, s).swapaxes(2, 3))
        for grid, value in zip(bucket, out, strict=True):
            grid.value = value


def _strip_sum(op: TensorOp) -> np.ndarray:
    """A ``stripsum`` op's value: each block column of the product
    summed from zeros over the grid's strips in order."""
    products = op.a.result()
    kq, kr, p, s = products.shape
    blocks = np.zeros((kr, p, s), dtype=op.dtype)
    for i in range(kq):
        blocks += products[i]
    return np.ascontiguousarray(blocks.swapaxes(0, 1)).reshape(p, kr * s)


def _dispatch_grid(groups: CallGroups, machine: TCUMachine) -> None:
    """One numeric level on a sequential machine, fused: whole grids
    through :func:`_run_grids`, then the merge groups bucketed into
    :meth:`TCUMachine.mm_grid` calls.

    Merge groups sharing a left operand buffer (e.g. one stream against
    many resident blocks) become one broadcast grid — their stacked
    right operands ride a single ``np.matmul`` without duplicating the
    stream — and the remaining equal-height groups are stacked into one
    grid per ``(rows, dtype)`` bucket.  Charges equal the per-call loop
    exactly; trace rows may land in a different order within the level
    (the per-shape totals are unchanged).
    """
    parts = _parts(groups)
    grids = [part for part in parts if not isinstance(part, list)]
    if grids:
        _run_grids(grids, machine)
    by_a: dict[tuple, list[tuple[list, np.ndarray, np.ndarray]]] = {}
    for g in parts:
        if not isinstance(g, list):
            continue
        A = _group_operands(g)
        B = _resolve(g[0].b)
        if not machine.fusable or (
            machine.max_rows is not None and A.shape[0] > machine.max_rows
        ):
            _scatter_group(g, machine.mm(A, B))
            continue
        key = _buffer_key(A) + (np.result_type(A, B).str,)
        by_a.setdefault(key, []).append((g, A, B))

    singles: dict[tuple, list[tuple[list, np.ndarray, np.ndarray]]] = {}
    for items in by_a.values():
        if len(items) == 1:
            g, A, B = items[0]
            singles.setdefault((A.shape[0], np.result_type(A, B).str), []).append(
                items[0]
            )
            continue
        # shared stream: broadcast it against the stacked resident blocks
        A = items[0][1]
        out = machine.mm_grid(A, np.stack([B for _, _, B in items]))
        for (g, _, _), C in zip(items, out, strict=True):
            _scatter_group(g, C)
    for items in singles.values():
        if len(items) == 1:
            g, A, B = items[0]
            _scatter_group(g, machine.mm_grid(A, B))
            continue
        out = machine.mm_grid(
            np.stack([A for _, A, _ in items]), np.stack([B for _, _, B in items])
        )
        for (g, _, _), C in zip(items, out, strict=True):
            _scatter_group(g, C)


# ----------------------------------------------------------------------
# pricing: a level's cost-only charges from its shapes
# ----------------------------------------------------------------------
def _batch_level(groups: CallGroups, machine: TCUMachine, splits: Sequence[int]) -> bool:
    """Whether a level dispatches as one scheduled batch: more than one
    call group, or any split chunk, on a parallel machine."""
    return isinstance(machine, ParallelTCUMachine) and (
        len(groups) > 1 or any(f > 1 for f in splits)
    )


def _batch_calls(
    groups: CallGroups, splits: Sequence[int]
) -> tuple[tuple[int, ...], tuple[np.dtype, ...]]:
    """Row counts and dtypes of the calls a batch level issues, in
    :func:`_dispatch_parallel` order: a group split ``f`` ways as its
    :func:`_split_bounds` chunks, a grid as its ``kq * kr`` calls."""
    ns: list[int] = []
    dtypes: list[np.dtype] = []
    factors = iter(splits)
    for part in _parts(groups):
        if isinstance(part, list):
            streams = [_group_rows(part)]
            dtype = np.dtype(part[0].dtype)
        else:
            kq, kr, p, _ = part.shape
            streams = [p] * (kq * kr)
            dtype = np.dtype(part.dtype)
        for rows in streams:
            pieces = next(factors)
            if pieces == 1:
                ns.append(rows)
            else:
                ns.extend(hi - lo for lo, hi in _split_bounds(rows, pieces))
        dtypes.extend([dtype] * (len(ns) - len(dtypes)))
    return tuple(ns), tuple(dtypes)


def _sequential_calls(groups: CallGroups, machine: TCUMachine) -> tuple[tuple, tuple, tuple]:
    """A sequential level's charges, in the fused executor's order:
    whole grids one :meth:`~TCUMachine.charge_mm_grid` ``(n, k, dtype)``
    per grid shape, then merge groups — a stream the row bound splits
    one :meth:`~TCUMachine.charge_mm` ``(n, dtype)`` where ``mm``
    charges it, the rest one ``charge_mm_grid`` per ``(rows, dtype)``
    bucket — buckets in first-appearance order."""
    parts = _parts(groups)
    grids: dict[tuple, list] = {}
    for part in parts:
        if not isinstance(part, list):
            kq, kr, p, _ = part.shape
            dtype = np.dtype(part.dtype)
            grids.setdefault((part.shape, dtype.str), [p, 0, dtype])[1] += kq * kr
    bound = machine.max_rows
    bounded: list[tuple[int, np.dtype]] = []
    streams: dict[tuple, list] = {}
    for part in parts:
        if isinstance(part, list):
            n = _group_rows(part)
            dtype = np.dtype(part[0].dtype)
            if bound is not None and n > bound:
                bounded.append((n, dtype))
                continue
            streams.setdefault((n, dtype.str), [n, 0, dtype])[1] += 1
    return (
        tuple(map(tuple, grids.values())),
        tuple(bounded),
        tuple(map(tuple, streams.values())),
    )


def _cpu_charges(others: list[TensorOp]) -> tuple[float, ...]:
    """A level's CPU-side charges, in op order: an add one unit per word
    per term, a copy one per word, an apply its declared ``cpu`` (none
    when it declares none), a strip sum one per word per partial; views
    are free."""
    out: list[float] = []
    for op in others:
        kind = op.kind
        if kind == "add":
            out.append(math.prod(op.shape) * len(op.terms))
        elif kind == "copy":
            out.append(math.prod(op.shape))
        elif kind == "apply":
            if op.cpu:
                out.append(op.cpu)
        elif kind == "stripsum":
            out.append(math.prod(op.a.shape))
        elif kind != "view":  # pragma: no cover - defensive
            raise ProgramError(f"unknown op kind {kind!r}")
    return tuple(out)


class LevelShape(NamedTuple):
    """Everything :func:`price_level` charges for one level, as
    hashable data: the level's shapes, never its values.

    ``batch`` is ``(ns, dtypes)``, the calls of a batch level's one
    :meth:`~repro.core.parallel.ParallelTCUMachine.charge_mm_batch`, or
    ``None``; otherwise a sequential level's ``grids`` and ``streams``
    are :meth:`~repro.core.machine.TCUMachine.charge_mm_grid` arguments
    ``(n, k, dtype)`` and ``bounded`` its row-bound-split streams'
    :meth:`~repro.core.machine.TCUMachine.charge_mm` arguments ``(n,
    dtype)``, charged grids, bounded, streams.  ``cpu`` holds the
    level's ``charge_cpu`` amounts in op order.  With the machine's
    :meth:`~repro.core.machine.TCUMachine.config_key` it determines the
    level's charges (:func:`price_shape`).
    """

    batch: tuple[tuple[int, ...], tuple[np.dtype, ...]] | None
    grids: tuple[tuple[int, int, np.dtype], ...]
    bounded: tuple[tuple[int, np.dtype], ...]
    streams: tuple[tuple[int, int, np.dtype], ...]
    cpu: tuple[float, ...]


def level_shape(
    groups: CallGroups, others: list[TensorOp], machine: TCUMachine, splits: Sequence[int]
) -> LevelShape:
    """What :func:`price_level` charges for a planned level: a batch
    level's (:func:`_batch_level`) calls in :func:`_dispatch_parallel`
    order, or a sequential level's charges in the fused executor's
    order (:func:`_sequential_calls`), then its CPU charges.  Pure: it
    reads the level's shapes and the machine's type and row bound."""
    cpu = _cpu_charges(others)
    if not len(groups):
        return LevelShape(None, (), (), (), cpu)
    if _batch_level(groups, machine, splits):
        return LevelShape(_batch_calls(groups, splits), (), (), (), cpu)
    return LevelShape(None, *_sequential_calls(groups, machine), cpu)


def price_shape(shape: LevelShape, machine: TCUMachine) -> float | None:
    """Charge a :class:`LevelShape` to ``machine`` through its
    shape-only entries; returns a batch level's makespan — the span its
    tensor work advances the clock by — else ``None``."""
    span = None
    if shape.batch is not None:
        span = machine.charge_mm_batch(*shape.batch)
    for n, k, dtype in shape.grids:
        machine.charge_mm_grid(n, k, dtype)
    for n, dtype in shape.bounded:
        machine.charge_mm(n, dtype)
    for n, k, dtype in shape.streams:
        machine.charge_mm_grid(n, k, dtype)
    for ops in shape.cpu:
        machine.charge_cpu(ops)
    return span


def price_level(
    groups: CallGroups,
    others: list[TensorOp],
    machine: TCUMachine,
    splits: Sequence[int],
) -> float | None:
    """Charge one planned level to ``machine`` from its shapes alone.

    The paper prices every tensor call from its shape (§3), so a level's
    cost-only charges follow from its call groups, ``splits`` and CPU
    ops: a batch level (:func:`_batch_level`) is one
    :meth:`~repro.core.parallel.ParallelTCUMachine.charge_mm_batch` of
    the calls :func:`_dispatch_parallel` issues; a sequential level is
    one ``charge_mm_grid`` per grid shape and stream bucket and one
    ``charge_mm`` per stream the row bound splits; then each CPU op's
    charge in op order.  No operand is built and no op gets a value.
    Returns the batch's makespan — the span its tensor work advances
    the clock by — on a batch level, else ``None``.

    It is :func:`price_shape` of :func:`level_shape`, so a memo keyed
    on the shape (:func:`~repro.core.plan_cache.compile_plan`) keys
    exactly what gets priced.  Cost-only execution of a level is this
    pricer plus placeholder values.
    """
    return price_shape(level_shape(groups, others, machine, splits), machine)


def _execute_level(
    groups: CallGroups,
    others: list[TensorOp],
    machine: TCUMachine,
    splits: Sequence[int],
) -> None:
    """Execute one planned level: its merged call groups, then its
    CPU-side ops — the unit of work :class:`ExecutionCursor` steps by.

    On a cost-only machine the level is priced from its shapes
    (:func:`price_level`) and every op gets a placeholder value.  A
    numeric batch level is one scheduled ``mm_batch``
    (:func:`_dispatch_parallel`); any other level runs fused
    (:func:`_dispatch_grid`).
    """
    if machine.execute == "cost-only":
        price_level(groups, others, machine, splits)
        for part in _parts(groups):
            if isinstance(part, list):
                _scatter_placeholders(part)
            else:
                part.value = placeholder(part.shape, part.dtype)
        for op in others:
            op.value = placeholder(op.shape, op.dtype)
        return
    if _batch_level(groups, machine, splits):
        _dispatch_parallel(groups, machine, splits)
    else:
        _dispatch_grid(groups, machine)
    for op in others:
        if op.kind == "add":
            words = math.prod(op.shape)
            out = np.zeros(op.shape, dtype=op.dtype)
            for coef, src in op.terms:
                val = _resolve(src)
                if coef == 1.0:
                    out += val
                elif coef == -1.0:
                    out -= val
                else:
                    out += coef * val
                machine.charge_cpu(words)
            op.value = out
        elif op.kind == "copy":
            val = _resolve(op.a)
            op.value = np.array(val, copy=True)
            machine.charge_cpu(op.value.size)
        elif op.kind == "apply":
            if op.cpu:
                machine.charge_cpu(op.cpu)
            op.value = op.fn(*[_resolve(src) for _, src in op.terms])
            if op.value.shape != op.shape:  # declared shape is a contract
                raise ProgramError(
                    f"apply op #{op.op_id} declared shape {op.shape} but "
                    f"produced {op.value.shape}"
                )
        elif op.kind == "view":
            op.value = _resolve(op.a)[op.key]
        elif op.kind == "stripsum":
            machine.charge_cpu(math.prod(op.a.shape))
            op.value = _strip_sum(op)
        else:  # pragma: no cover - defensive
            raise ProgramError(f"unknown op kind {op.kind!r}")


class ExecutionCursor:
    """A resumable executor: one plan level per :meth:`step`.

    The cursor is the seam preemptive schedulers need: a plan's levels
    are its natural checkpoint boundaries (every level's inputs are op
    values already materialised by earlier levels), so an online engine
    can run a level, look at the clock, and decide to keep going or to
    suspend.  :func:`execute_plan` is a thin wrapper that runs one to
    exhaustion.

    The cursor steps a *level source*: a live :class:`Plan`, whose
    levels execute their ops through the machine's ordinary primitives,
    or a :class:`~repro.core.plan_cache.CompiledPlan`, whose levels
    replay the charges priced when it was compiled.  Both expose the
    same interface — ``levels``, ``start(machine)`` (charged when the
    cursor is made), ``run_level(level, machine)`` and
    ``resident_words(level)`` — so stepping, rewinding and reload
    pricing exist once; :meth:`run` replays a compiled plan's remaining
    levels in one pass.  A compiled plan refuses a machine
    whose :meth:`~repro.core.machine.TCUMachine.config_key` differs from
    the one it was compiled for, raising
    :class:`~repro.core.ledger.LedgerError` before anything is charged.

    Suspending costs nothing at the boundary itself (op values stay in
    memory), but *resuming* must re-load the remaining levels' resident
    blocks into the tensor unit; :meth:`charge_reload` prices that
    through the ledger's ``reload`` category at one unit per word of
    :meth:`resident_words` — never free.

    Attributes
    ----------
    level_times:
        Model time charged by each executed level, the ledger's
        ``total_time`` after it minus before it, in step order (the
        per-level ledger spans an engine turns into event boundaries);
        a compiled plan's one-pass :meth:`run` adds one entry for all
        the levels it replays.
    observer:
        Optional ``observer(level, elapsed)`` callback fired after each
        executed level, with the level index just run and the ledger
        span it charged.  A pure telemetry hook
        (:mod:`repro.obs` level spans): execution and charges are
        bit-identical with or without it.
    """

    def __init__(self, plan: Plan | CompiledPlan, machine: TCUMachine) -> None:
        self.plan = plan
        self.machine = machine
        self.next_level = 0
        self.level_times: list[float] = []
        self.observer: Callable[[int, float], None] | None = None
        plan.start(machine)

    @property
    def total_levels(self) -> int:
        return len(self.plan.levels)

    @property
    def remaining_levels(self) -> int:
        return len(self.plan.levels) - self.next_level

    @property
    def done(self) -> bool:
        return self.next_level >= len(self.plan.levels)

    def step(self) -> float:
        """Execute the next level; returns the model time it charged."""
        if self.done:
            raise ProgramError("cursor is exhausted; no levels left to execute")
        ledger = self.machine.ledger
        before = ledger.total_time
        level = self.next_level
        self.plan.run_level(level, self.machine)
        elapsed = ledger.total_time - before
        self.next_level = level + 1
        self.level_times.append(elapsed)
        if self.observer is not None:
            self.observer(level, elapsed)
        return elapsed

    def run(self) -> None:
        """Execute every remaining level (run to exhaustion).

        A live plan steps level by level.  A compiled plan replays
        levels ``next_level..`` in one pass
        (:meth:`~repro.core.plan_cache.CompiledPlan.run_levels`): the
        counters, open sections, ``on_charge`` sequence and trace equal
        stepping them bit for bit, and the pass is one
        :attr:`level_times` entry and one observer call, reported as the
        first level it replays.
        """
        if isinstance(self.plan, Plan):
            while not self.done:
                self.step()
            return
        if self.done:
            return
        ledger = self.machine.ledger
        before = ledger.total_time
        start = self.next_level
        self.plan.run_levels(start, self.machine)
        elapsed = ledger.total_time - before
        self.next_level = self.total_levels
        self.level_times.append(elapsed)
        if self.observer is not None:
            self.observer(start, elapsed)

    def rewind(self, to_level: int) -> None:
        """Roll the cursor back so levels at/after ``to_level`` re-execute.

        The resume-after-abort path for fault-tolerant schedulers: when
        a level's execution is lost (a transient call failure, a unit
        crash), the scheduler rewinds to the failed level — or to 0 for
        restart-from-scratch recovery — and steps again.  Rewinding is
        free (op values of completed levels persist in host memory; a
        checkpoint resume additionally pays :meth:`charge_reload`; build
        charges are never re-paid), and re-executed levels append to
        :attr:`level_times` again: the history records every step taken,
        not just the surviving ones.
        """
        to_level = int(to_level)
        if not 0 <= to_level <= self.next_level:
            raise ProgramError(
                f"cannot rewind to level {to_level}: cursor has executed "
                f"{self.next_level} of {self.total_levels} levels"
            )
        self.next_level = to_level

    def resident_words(self, from_level: int | None = None) -> int:
        """Words of distinct resident blocks the remaining levels consume.

        This is the state a preempted execution loses when the unit is
        given away: every ``sqrt(m) x sqrt(m)`` right-hand block that a
        level at/after ``from_level`` (default: the next unexecuted
        level) still has to stream against.  Distinctness follows the
        planner's own resident identity (:func:`_resident_key`), so a
        block shared by many calls is counted once — exactly the set a
        resume must re-load.  Read from the plan's suffix table
        (:meth:`Plan.resident_words`), which a compiled plan freezes.
        """
        start = self.next_level if from_level is None else from_level
        return self.plan.resident_words(start)

    def charge_reload(self) -> float:
        """Charge the resume cost of a suspended cursor and return it.

        One model-time unit per word of :meth:`resident_words`, paid
        into the ledger's ``reload`` column.  Call exactly once per
        resume, before stepping again; a cursor with no tensor work left
        charges nothing.
        """
        return self.machine.ledger.charge_reload(self.resident_words())


# kept for hostbench/layers.py, which looks the cursor up under this name
CompiledCursor = ExecutionCursor


def run_grid(total: TensorOp, machine: TCUMachine) -> np.ndarray:
    """Execute one grid product — the op :meth:`TensorProgram.grid`
    returned — without planning it, and return its value.

    A lone grid has nothing to merge, so a sequential machine runs it
    through the level executor directly, charging exactly what its
    planned execution charges.  On a machine that can fuse it —
    fusable numerics, no overflow check, a stream the row bound does
    not split — its products and strip sums are one GEMM
    ``np.dot(a, b)`` (the strip sums are the contraction over strips),
    charged as the grid's calls plus its strip sums.
    """
    grid = total.a
    kq, kr, p, s = grid.shape
    if (
        machine.execute != "cost-only"
        and machine.fusable
        and not machine.check_overflow
        and (machine.max_rows is None or p <= machine.max_rows)
    ):
        machine.charge_mm_grid(p, kq * kr, grid.dtype)
        machine.charge_cpu(kq * kr * p * s)
        total.value = np.dot(grid.a, grid.b)
    else:
        groups = CallGroups([grid])
        _execute_level(groups, [total], machine, [1] * len(groups))
    return total.value


def execute_plan(plan: Plan, machine: TCUMachine) -> None:
    """Run a plan to exhaustion, charging the machine's ledger, and
    populate ``op.value`` on every node.

    A thin wrapper over :class:`ExecutionCursor` (construct + ``run()``),
    kept as the one-shot entry point every offline kernel uses.

    Each level's merged call groups are bucketed and issued through the
    bulk :meth:`TCUMachine.mm_grid` primitive — one stacked numpy
    product and one vectorised ledger charge per bucket instead of a
    Python-level call per op; whole grids (Theorem 2 products) are
    stacked one ``mm_grid`` per grid shape.  On a
    :class:`~repro.core.parallel.ParallelTCUMachine`, each level's
    merged calls are issued as one :meth:`mm_batch` (scheduled over the
    units by the machine's policy) on every machine configuration,
    including row-bounded, complex-cost, systolic and overflow-checked
    machines; an unsplit grid joins that batch as one stacked pair.
    Strip sums run with the level's CPU-side ops.

    On a machine with ``execute="cost-only"`` all numeric work is
    skipped: each level is charged from its shapes alone
    (:func:`price_level`) and every op's value becomes an O(1)-storage
    placeholder, so programs whose arrays would not fit in memory still
    charge exact ledger totals.
    """
    ExecutionCursor(plan, machine).run()


def run_program(
    program: TensorProgram,
    machine: TCUMachine,
    *,
    split: str | int = "auto",
) -> Plan:
    """Plan then execute a program; returns the plan (for its stats).

    ``split`` is forwarded to :func:`plan_program`: ``"auto"`` (default)
    lets the planner split merged tall calls across parallel units when
    the modelled makespan wins, ``1`` keeps the legacy one-call-per-group
    schedule, an integer forces that factor.
    """
    plan = plan_program(program, machine, split=split)
    execute_plan(plan, machine)
    return plan
