"""Limited numerical precision — the paper's third §6 open question.

Real tensor units compute in low precision: the TPUv1 multiplies 8-bit
integers into 32-bit accumulators, Volta tensor cores multiply fp16
with optional fp32 accumulation (§2.1).  The model deliberately ignores
this; :class:`QuantizedTCUMachine` adds it back so its effect on the
paper's algorithms can be *measured*: operands are rounded to the
chosen format before every tensor call (the accumulator stays wide,
as in both hardware designs), while cost accounting is unchanged.

Formats
-------
``fp16`` / ``bf16``
    IEEE half / bfloat16-style rounding (bf16 is emulated by truncating
    the float32 mantissa to 8 bits, since NumPy has no native bfloat16).
``int8``
    Symmetric per-operand quantisation: each operand is scaled by
    ``127 / max|x|``, rounded to integers in [-127, 127], multiplied
    exactly, and rescaled — the TPU recipe.

The quantisation error of each call is measured against the exact
product and accumulated in :attr:`error_stats`, giving experiments like
"how fast does DFT error grow with n at fp16?" (the question behind the
mixed-precision FFT work the paper cites).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .machine import TCUMachine

__all__ = ["QuantizedTCUMachine", "QuantizationErrorStats", "quantize_array"]

_FORMATS = ("fp16", "bf16", "int8")


def _truncate_to_bf16(x: np.ndarray) -> np.ndarray:
    """Truncate float32 mantissas to 8 bits (bfloat16 emulation)."""
    as32 = np.asarray(x, dtype=np.float32)
    bits = as32.view(np.uint32)
    return (bits & np.uint32(0xFFFF0000)).view(np.float32).astype(np.float64)


def quantize_array(x: np.ndarray, fmt: str) -> np.ndarray:
    """Round an array to the given low-precision format (returns float64)."""
    x = np.asarray(x, dtype=np.float64)
    if fmt == "fp16":
        return x.astype(np.float16).astype(np.float64)
    if fmt == "bf16":
        return _truncate_to_bf16(x)
    if fmt == "int8":
        scale = np.abs(x).max()
        if scale == 0:
            return x.copy()
        q = np.clip(np.rint(x / scale * 127.0), -127, 127)
        return q * (scale / 127.0)
    raise ValueError(f"unknown format {fmt!r}; choose from {_FORMATS}")


@dataclass
class QuantizationErrorStats:
    """Per-call relative errors ||C_q - C|| / ||C|| (Frobenius)."""

    errors: list[float] = field(default_factory=list)

    def observe(self, exact: np.ndarray, quantized: np.ndarray) -> None:
        denom = float(np.linalg.norm(exact))
        if denom == 0.0:
            self.errors.append(0.0)
        else:
            self.errors.append(float(np.linalg.norm(quantized - exact)) / denom)

    @property
    def max_error(self) -> float:
        return max(self.errors, default=0.0)

    @property
    def mean_error(self) -> float:
        return sum(self.errors) / len(self.errors) if self.errors else 0.0


class QuantizedTCUMachine(TCUMachine):
    """A TCU whose tensor unit rounds operands to ``precision``.

    Complex operands are quantised on their real and imaginary parts
    separately (four real products on real hardware).  The model cost
    is identical to the exact machine — precision changes *answers*,
    not time — which is precisely why the paper's algorithms need the
    error measurement this class provides.
    """

    def __init__(self, m: int, ell: float = 0.0, *, precision: str = "fp16", **kwargs) -> None:
        if precision not in _FORMATS:
            raise ValueError(f"unknown precision {precision!r}; choose from {_FORMATS}")
        super().__init__(m, ell, **kwargs)
        self.precision = precision
        self.error_stats = QuantizationErrorStats()

    def config_key(self) -> tuple:
        """Extends the base fingerprint with the precision format.

        Charges are precision-independent today, but the key keeps
        quantised machines from sharing cache entries with exact ones
        should a format ever grow its own cost rule.
        """
        return super().config_key() + (self.precision,)

    def fork(self) -> QuantizedTCUMachine:
        """A machine with identical parameters (including the precision
        format) and a fresh ledger."""
        twin = super().fork()
        twin.precision = self.precision
        return twin

    def _quantize(self, x: np.ndarray) -> np.ndarray:
        if np.iscomplexobj(x):
            return quantize_array(x.real, self.precision) + 1j * quantize_array(
                x.imag, self.precision
            )
        return quantize_array(x, self.precision)

    def _mm_single(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        if self.execute == "cost-only":
            # quantisation changes answers, not time: charge the exact
            # machine's cost and skip both the rounding and the exact
            # reference product (no meaningful error to observe)
            return super()._mm_single(A, B)
        if np.issubdtype(np.asarray(A).dtype, np.integer) and np.issubdtype(
            np.asarray(B).dtype, np.integer
        ):
            # exact integer path (the TPU's own int8 -> int32 regime is
            # exact as long as the word discipline holds)
            return super()._mm_single(A, B)
        Aq = self._quantize(np.asarray(A))
        Bq = self._quantize(np.asarray(B))
        out = super()._mm_single(Aq, Bq)
        exact = np.asarray(A) @ np.asarray(B)
        self.error_stats.observe(exact, out)
        return out
