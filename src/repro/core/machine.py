"""The (m, l)-TCU machine.

Section 3 of the paper defines the model: a standard RAM whose CPU
contains a *tensor unit* that multiplies an ``n x sqrt(m)`` matrix A by
a ``sqrt(m) x sqrt(m)`` matrix B in time ``O(n*sqrt(m) + l)``, where
``n >= sqrt(m)`` is chosen by the algorithm.  :class:`TCUMachine`
realises the model in software: :meth:`TCUMachine.mm` executes the
product numerically (so algorithms can be verified end to end) and
charges the model cost, with the constant fixed to 1, to a
:class:`~repro.core.ledger.CostLedger`.

:class:`WeakTCUMachine` is the restricted model of Section 5 (only
``sqrt(m) x sqrt(m)`` products; no tall left operands), used by the
external-memory lower-bound machinery of Theorem 12.

:meth:`TCUMachine.mm` is the *eager* entry point: it executes and
charges immediately.  Algorithms that want calls batched, merged or
reordered build a lazy :class:`~repro.core.program.TensorProgram`
instead and execute it through :func:`~repro.core.program.run_program`,
which ultimately funnels every call back through this primitive (the
charging path is identical either way).
"""

from __future__ import annotations

import math
from typing import Literal

import numpy as np

from .ledger import CostLedger
from .systolic import SystolicArray
from .words import WordSpec, check_no_overflow

__all__ = ["TCUMachine", "WeakTCUMachine", "TensorShapeError", "placeholder"]


class TensorShapeError(ValueError):
    """Operand shapes violate the tensor-unit interface of Section 3."""


def placeholder(shape, dtype=np.float64) -> np.ndarray:
    """A read-only, O(1)-storage stand-in array for ``execute="cost-only"`` runs.

    A zero-strided broadcast view of a single zero scalar: it carries a
    real ``shape``/``dtype`` (so shape validation, dtype promotion and
    complex-cost detection behave exactly as with data) and reads as all
    zeros, but occupies constant memory no matter how large the shape —
    cost studies can therefore be driven at sizes where numeric operands
    would no longer fit.  Writes fail (the view is read-only); reshapes
    that cannot be expressed as views fall back to (cheap, data-sized)
    copies of zeros.
    """
    return np.broadcast_to(np.zeros((), dtype=np.dtype(dtype)), tuple(shape))


class TCUMachine:
    """A simulated (m, l)-TCU.

    Parameters
    ----------
    m:
        Tensor-unit capacity; the unit multiplies ``sqrt(m) x sqrt(m)``
        matrices.  Must be a perfect square (m = sqrt(m)**2 >= 1).
    ell:
        Per-call latency ``l >= 0`` (Section 3, property 2).
    kappa:
        Word size in bits (Section 3).  Integer algorithms use it for
        overflow discipline via :class:`~repro.core.words.WordSpec`.
    max_rows:
        Optional hardware bound on the streamed row count ``n`` (the
        Google TPUv1 caps it at 96K, Section 3.1).  Longer streams are
        split into ceil(n / max_rows) calls, each paying latency.
    complex_cost_factor:
        Tensor calls on complex operands are charged this many real
        calls.  The paper assumes 1 ("can be easily removed with a
        constant slow down"); 4 models the four real products of a
        complex multiply.
    backend:
        ``"numpy"`` executes tensor calls with ``@``; ``"systolic"``
        executes them cycle-by-cycle on :class:`SystolicArray` (slow,
        used to validate that the primitive matches Figure 1).
    execute:
        ``"numeric"`` (default) computes every tensor-call product;
        ``"cost-only"`` charges the identical model time and call trace
        but skips all numeric tensor work, returning O(1)-storage
        :func:`placeholder` arrays instead of products.  Cost/latency
        studies then run at ledger speed and scale to sizes where the
        numeric arrays would no longer fit; outputs are meaningless (all
        zeros), only the accounting is preserved.
    check_overflow:
        When true, integer tensor-call outputs are checked against the
        kappa-bit accumulator bound.
    ledger:
        Attach an existing ledger (e.g. shared across machines);
        otherwise a fresh one is created.
    """

    def __init__(
        self,
        m: int,
        ell: float = 0.0,
        *,
        kappa: int = 64,
        max_rows: int | None = None,
        complex_cost_factor: int = 1,
        backend: Literal["numpy", "systolic"] = "numpy",
        execute: Literal["numeric", "cost-only"] = "numeric",
        check_overflow: bool = False,
        ledger: CostLedger | None = None,
        trace_calls: bool = True,
    ) -> None:
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        sqrt_m = math.isqrt(m)
        if sqrt_m * sqrt_m != m:
            raise ValueError(f"m must be a perfect square, got {m}")
        if ell < 0:
            raise ValueError(f"ell must be >= 0, got {ell}")
        if max_rows is not None and max_rows < sqrt_m:
            raise ValueError(
                f"max_rows must be >= sqrt(m)={sqrt_m}, got {max_rows}"
            )
        if complex_cost_factor < 1:
            raise ValueError("complex_cost_factor must be >= 1")
        if backend not in ("numpy", "systolic"):
            raise ValueError(f"unknown backend {backend!r}")
        if execute not in ("numeric", "cost-only"):
            raise ValueError(f"unknown execute mode {execute!r}")
        self.m = int(m)
        self.sqrt_m = sqrt_m
        self.ell = float(ell)
        self.kappa = int(kappa)
        self.max_rows = max_rows
        self.complex_cost_factor = int(complex_cost_factor)
        self.backend = backend
        self.execute = execute
        self.check_overflow = bool(check_overflow)
        self.ledger = ledger if ledger is not None else CostLedger(trace_calls=trace_calls)
        self._words: WordSpec | None = None
        self._systolic: SystolicArray | None = None

    @property
    def words(self) -> WordSpec:
        """kappa-bit word spec for the Section 4.7 integer algorithms.

        Computed lazily: some hardware points (e.g. TPUv1's kappa=8
        with sqrt(m)=256) have no safe limb width — the real chip uses
        a wider accumulator — and only the integer algorithms need one,
        so the error surfaces there, not at machine construction.
        """
        if self._words is None:
            self._words = WordSpec.for_machine(self.kappa, self.m)
        return self._words

    # ------------------------------------------------------------------
    # the model primitive
    # ------------------------------------------------------------------
    def mm(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """One tensor-unit invocation: ``C = A @ B``.

        ``A`` must be ``n x sqrt(m)`` with ``n >= sqrt(m)``; ``B`` must
        be ``sqrt(m) x sqrt(m)``.  Charges ``n*sqrt(m) + l`` model time
        (times :attr:`complex_cost_factor` for complex operands, plus
        the two real additions a 4-product complex multiply needs).
        Use :func:`repro.matmul.dense.matmul` for arbitrary shapes.
        """
        A = np.asarray(A)
        B = np.asarray(B)
        s = self.sqrt_m
        if A.ndim != 2 or B.ndim != 2:
            raise TensorShapeError(
                f"operands must be 2-D, got {A.ndim}-D and {B.ndim}-D"
            )
        n = A.shape[0]
        if A.shape[1] != s:
            raise TensorShapeError(
                f"left operand must have sqrt(m)={s} columns, got {A.shape[1]}"
            )
        if B.shape != (s, s):
            raise TensorShapeError(
                f"right operand must be {s}x{s}, got {B.shape[0]}x{B.shape[1]}"
            )
        if n < s:
            raise TensorShapeError(
                f"left operand must have n >= sqrt(m)={s} rows, got {n}"
            )
        if self.execute == "cost-only":
            dtype = np.result_type(A.dtype, B.dtype)
            self.charge_mm(n, dtype)
            return placeholder((n, s), dtype)
        if self.max_rows is not None and n > self.max_rows:
            return self._mm_split(A, B)
        return self._mm_single(A, B)

    def charge_mm(self, n: int, dtype) -> None:
        """Charge one :meth:`mm` call on an ``n``-row stream of ``dtype``
        from its shape alone: the charges ``mm`` issues, in its order.

        Under a hardware row bound a longer stream is split as
        :meth:`_mm_split` splits it: each chunk is one call, a short
        final chunk first pays its padding copy (``sqrt(m) x sqrt(m)``
        words), and the reassembled output (``n x sqrt(m)`` words) is
        charged last.  Cost-only ``mm`` charges through here, and so do
        the shape-only level pricer and batch entries
        (:func:`repro.core.program.price_level`).
        """
        bound = self.max_rows
        if bound is None or n <= bound:
            self._charge_call(n, dtype)
            return
        s = self.sqrt_m
        for start in range(0, n, bound):
            rows = min(bound, n - start)
            if rows < s:
                self.ledger.charge_cpu(s * s)
                rows = s
            self._charge_call(rows, dtype)
        self.ledger.charge_cpu(n * s)

    def _charge_call(self, n: int, dtype) -> None:
        """One hardware call's charges: the complex cost factor's real
        calls, then the two extra real additions of ``n x sqrt(m)``
        partial products a 4-product complex multiply needs."""
        s = self.sqrt_m
        is_complex = np.issubdtype(np.dtype(dtype), np.complexfloating)
        calls = self.complex_cost_factor if is_complex else 1
        for _ in range(calls):
            self.ledger.charge_tensor(n, s, self.ell)
        if is_complex and calls >= 4:
            self.ledger.charge_cpu(2 * n * s)

    def _mm_single(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        self._charge_call(A.shape[0], np.result_type(A.dtype, B.dtype))
        if self.backend == "systolic":
            C = self._systolic_mm(A, B)
        else:
            C = A @ B
        if self.check_overflow and np.issubdtype(C.dtype, np.integer):
            check_no_overflow(C, self.words)
        return C

    def _mm_split(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Split a stream longer than the hardware row bound (TPU-style).

        The materialised copies are RAM-model work and charged like any
        other padded copy (`matmul`'s ``padded_copy_cost`` discipline):
        ``sqrt(m) x sqrt(m)`` words when a short final chunk is padded,
        plus the reassembled ``n x sqrt(m)`` output when the stream was
        actually split.
        """
        assert self.max_rows is not None
        n = A.shape[0]
        s = self.sqrt_m
        pieces = []
        for start in range(0, n, self.max_rows):
            chunk = A[start : start + self.max_rows]
            if chunk.shape[0] < s:
                # pad the final short chunk up to the sqrt(m) minimum
                self.ledger.charge_cpu(s * s)
                pad = np.zeros((s - chunk.shape[0], s), dtype=chunk.dtype)
                out = self._mm_single(np.vstack([chunk, pad]), B)
                pieces.append(out[: chunk.shape[0]])
            else:
                pieces.append(self._mm_single(chunk, B))
        if len(pieces) > 1:
            self.ledger.charge_cpu(n * s)
        return np.vstack(pieces)

    @property
    def fusable(self) -> bool:
        """True when stacked grid products are exactly equivalent to a
        loop of single calls on this machine: the numpy backend with an
        unmodified call entry point and kernel.  Subclasses that
        customise either the interface (the weak model's square-only
        ``mm``) or the per-call numerics (quantisation) are
        automatically excluded, so the fused executors fall back to the
        scalar primitive for them.
        """
        return (
            self.backend == "numpy"
            and type(self).mm is TCUMachine.mm
            and type(self)._mm_single is TCUMachine._mm_single
        )

    def charge_mm_grid(self, n: int, k: int, dtype) -> None:
        """Charge ``k`` tensor calls of ``n`` rows each in one vectorised
        ledger append — the bulk-charging rule of :meth:`mm_grid`,
        shared with fused kernels (e.g. the Theorem 2 contraction in
        :func:`repro.matmul.dense.matmul`) that compute the same grid by
        other numeric means.  Applies the complex-cost factor exactly as
        the scalar :meth:`mm` does, including the two extra real
        additions per 4-product complex call.  Streams longer than
        ``max_rows`` are split by the hardware, so each of the ``k``
        calls is then charged as :meth:`charge_mm` charges it.
        """
        if self.max_rows is not None and n > self.max_rows:
            for _ in range(k):
                self.charge_mm(n, dtype)
            return
        s = self.sqrt_m
        is_complex = np.issubdtype(np.dtype(dtype), np.complexfloating)
        factor = self.complex_cost_factor if is_complex else 1
        self.ledger.charge_tensor_bulk(
            np.full(k * factor, n, dtype=np.int64), s, self.ell
        )
        if is_complex and factor >= 4:
            # two extra real additions of n x sqrt(m) partials per call
            self.ledger.charge_cpu(2 * n * s * k)

    def mm_grid(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """A whole grid of independent tensor calls as one stacked product.

        ``A`` is ``(..., n, sqrt(m))`` and ``B`` is
        ``(..., sqrt(m), sqrt(m))``; the leading dimensions broadcast
        under numpy rules and every broadcast element is one tensor-unit
        invocation of ``n`` rows.  The entire grid is charged through a
        single vectorised
        :meth:`~repro.core.ledger.CostLedger.charge_tensor_bulk` (one
        columnar trace append, not k Python-level charges) and executed
        as one ``np.matmul`` — this is how the Theorem 2 strip-by-block
        grid and the planned-program levels run at hardware speed.
        Charges, traces and results are identical to looping
        :meth:`mm` over the grid elements.

        Grids the fast path cannot express exactly — streams longer than
        ``max_rows`` (the hardware splits them), the systolic backend,
        or a subclass with custom call numerics — fall back to that loop
        transparently.  In ``execute="cost-only"`` mode the product is
        skipped and an O(1)-storage :func:`placeholder` is returned.
        """
        A = np.asarray(A)
        B = np.asarray(B)
        s = self.sqrt_m
        if A.ndim < 2 or B.ndim < 2:
            raise TensorShapeError(
                f"grid operands must be at least 2-D, got {A.ndim}-D and {B.ndim}-D"
            )
        n = A.shape[-2]
        if A.shape[-1] != s:
            raise TensorShapeError(
                f"left operands must have sqrt(m)={s} columns, got {A.shape[-1]}"
            )
        if B.shape[-2:] != (s, s):
            raise TensorShapeError(
                f"right operands must be {s}x{s}, got {B.shape[-2]}x{B.shape[-1]}"
            )
        if n < s:
            raise TensorShapeError(
                f"left operands must have n >= sqrt(m)={s} rows, got {n}"
            )
        try:
            lead = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
        except ValueError as exc:
            raise TensorShapeError(
                f"grid shapes {A.shape} and {B.shape} do not broadcast"
            ) from exc
        dtype = np.result_type(A.dtype, B.dtype)
        out_shape = lead + (n, s)
        k = 1
        for dim in lead:
            k *= dim
        if k == 0:
            return np.zeros(out_shape, dtype=dtype)

        # cost-only charging never depends on the numeric kernel
        if self.execute == "cost-only":
            self.charge_mm_grid(n, k, dtype)
            return placeholder(out_shape, dtype)
        if (self.max_rows is not None and n > self.max_rows) or not self.fusable:
            # element-by-element through the scalar primitive: identical
            # charges (including per-chunk stream splits) and semantics
            # for streams the row bound splits and non-fusable kernels
            # (systolic, quantised, ...)
            Ab = np.broadcast_to(A, lead + (n, s))
            Bb = np.broadcast_to(B, lead + (s, s))
            out = np.empty(out_shape, dtype=dtype)
            for idx in np.ndindex(*lead):
                out[idx] = self.mm(Ab[idx], Bb[idx])
            return out

        self.charge_mm_grid(n, k, dtype)
        if B.ndim >= 3 and B.shape[-3] > 1 and (A.ndim == 2 or A.shape[-3] == 1):
            # shared streams, each against its own row of kb resident
            # blocks: one GEMM per stream against the horizontally
            # concatenated blocks beats kb tiny batched products by an
            # order of magnitude
            kb = B.shape[-3]
            stream = A if A.ndim == 2 else A[..., 0, :, :]
            rows = np.swapaxes(B, -3, -2).reshape(B.shape[:-3] + (s, kb * s))
            C2 = np.matmul(stream, rows)
            C = np.swapaxes(C2.reshape(C2.shape[:-1] + (kb, s)), -3, -2)
        else:
            C = np.matmul(A, B)
        if self.check_overflow and np.issubdtype(C.dtype, np.integer):
            # call by call in grid order: the error names the first
            # offending call, exactly as the :meth:`mm` loop would
            for idx in np.ndindex(*lead):
                check_no_overflow(C[idx], self.words)
        return C

    def _systolic_mm(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        if self._systolic is None or self._systolic.sqrt_m != self.sqrt_m:
            self._systolic = SystolicArray(self.sqrt_m)
        self._systolic.load_weights(B)
        C, _ = self._systolic.multiply(A)
        return C

    # ------------------------------------------------------------------
    # RAM-side accounting helpers
    # ------------------------------------------------------------------
    def charge_cpu(self, ops: float) -> float:
        """Charge RAM-model work (one unit per word operation)."""
        return self.ledger.charge_cpu(ops)

    def section(self, name: str):
        """Attribute charges to a named section (see :class:`CostLedger`)."""
        return self.ledger.section(name)

    @property
    def time(self) -> float:
        """Total model time accumulated so far."""
        return self.ledger.total_time

    def reset(self) -> None:
        """Zero the ledger (the machine parameters are untouched)."""
        self.ledger.reset()

    def config_key(self) -> tuple:
        """A stable fingerprint of every parameter that shapes charges.

        Two machines with equal keys charge bit-identical ledgers for
        the same sequence of calls, so the key is safe to memoise
        compiled plans under (:mod:`repro.core.plan_cache`).  Subclasses
        with extra cost-bearing parameters (units, scheduler, precision)
        must extend the tuple.  ``trace_calls`` is deliberately absent:
        trace mode changes what is recorded, never what is charged.
        """
        return (
            type(self).__name__,
            self.m,
            self.ell,
            self.kappa,
            self.max_rows,
            self.complex_cost_factor,
            self.backend,
            self.execute,
            self.check_overflow,
        )

    def fork(self) -> "TCUMachine":
        """A machine with identical parameters and a fresh ledger."""
        return type(self)(
            self.m,
            self.ell,
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
            f"{type(self).__name__}(m={self.m}, ell={self.ell}, "
            f"kappa={self.kappa}, backend={self.backend!r})"
        )


class WeakTCUMachine(TCUMachine):
    """The weak TCU model of Section 5: only square ``sqrt(m) x sqrt(m)``
    products are allowed, so tall left operands must be split by the
    caller (costing one latency per square call).

    Any (m, l)-TCU algorithm runs on the weak model with constant
    slowdown when ``l = O(m)`` (Section 5); :meth:`mm` enforces the
    restriction so that violation is an error rather than silent.
    """

    def _square_only(self, n: int, what: str) -> None:
        if n != self.sqrt_m:
            raise TensorShapeError(
                "weak TCU model multiplies only sqrt(m) x sqrt(m) matrices; "
                f"got {what} with {n} rows (sqrt(m)={self.sqrt_m}); "
                "split the stream explicitly"
            )

    def mm(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        A = np.asarray(A)
        if A.ndim == 2:
            self._square_only(A.shape[0], "a left operand")
        return super().mm(A, B)

    def mm_grid(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        A = np.asarray(A)
        if A.ndim >= 2:
            self._square_only(A.shape[-2], "grid left operands")
        return super().mm_grid(A, B)

    def charge_mm(self, n: int, dtype) -> None:
        self._square_only(n, "a left operand")
        super().charge_mm(n, dtype)

    def charge_mm_grid(self, n: int, k: int, dtype) -> None:
        self._square_only(n, "grid left operands")
        super().charge_mm_grid(n, k, dtype)

    def mm_tall(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """The Section 5 simulation of a tall call: split ``A`` into
        ``n / sqrt(m)`` square blocks and issue one square call each.

        The padded copy of a ragged final block (``sqrt(m) x sqrt(m)``
        words) and the reassembly of the split output (``n x sqrt(m)``
        words) are materialised copies and charged as RAM work, matching
        ``matmul``'s ``padded_copy_cost`` discipline.
        """
        A = np.asarray(A)
        s = self.sqrt_m
        n = A.shape[0]
        pieces = []
        for start in range(0, n, s):
            chunk = A[start : start + s]
            if chunk.shape[0] < s:
                self.ledger.charge_cpu(s * s)
                pad = np.zeros((s - chunk.shape[0], s), dtype=chunk.dtype)
                out = self.mm(np.vstack([chunk, pad]), B)
                pieces.append(out[: chunk.shape[0]])
            else:
                pieces.append(self.mm(chunk, B))
        if len(pieces) > 1:
            self.ledger.charge_cpu(n * s)
        return np.vstack(pieces)
