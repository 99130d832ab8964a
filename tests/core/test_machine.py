"""Unit tests for the (m, l)-TCU machine primitive."""

from functools import partial

import numpy as np
import pytest

from repro import ParallelTCUMachine, TCUMachine, TensorShapeError, WeakTCUMachine
from repro.core.presets import PRESETS
from repro.core.quantize import QuantizedTCUMachine
from repro.core.words import OverflowError_


class TestConstruction:
    def test_requires_perfect_square_m(self):
        with pytest.raises(ValueError, match="perfect square"):
            TCUMachine(m=15)

    @pytest.mark.parametrize("m", [1, 4, 16, 256, 65536])
    def test_valid_m(self, m):
        machine = TCUMachine(m=m)
        assert machine.sqrt_m**2 == m

    def test_rejects_negative_ell(self):
        with pytest.raises(ValueError, match="ell"):
            TCUMachine(m=16, ell=-1.0)

    def test_rejects_small_max_rows(self):
        with pytest.raises(ValueError, match="max_rows"):
            TCUMachine(m=16, max_rows=3)

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            TCUMachine(m=16, backend="quantum")

    def test_fork_copies_parameters_fresh_ledger(self):
        machine = TCUMachine(m=16, ell=7.0, kappa=32, max_rows=64)
        machine.charge_cpu(5)
        child = machine.fork()
        assert (child.m, child.ell, child.kappa, child.max_rows) == (16, 7.0, 32, 64)
        assert child.time == 0


FORK_CASES = {
    "serial": lambda: TCUMachine(m=16, ell=8.0, max_rows=32, complex_cost_factor=4),
    "weak": lambda: WeakTCUMachine(m=16, ell=8.0),
    "systolic": lambda: TCUMachine(m=16, ell=8.0, backend="systolic"),
    "overflow-checked": lambda: TCUMachine(m=16, ell=8.0, check_overflow=True),
    "parallel": lambda: ParallelTCUMachine(m=16, ell=8.0, units=3, scheduler="greedy"),
    **{
        f"quantized-{fmt}": partial(QuantizedTCUMachine, m=16, ell=8.0, precision=fmt)
        for fmt in ("fp16", "bf16", "int8")
    },
    **{f"preset-{name}": spec.create for name, spec in PRESETS.items()},
}


@pytest.mark.parametrize("kind", sorted(FORK_CASES))
def test_fork_keeps_every_cost_and_value_parameter(kind):
    """A fork is the same machine with a fresh ledger: equal fingerprint
    (so a plan compiled on it replays on the original) and equal
    tensor-unit outputs, quantised formats included."""
    machine = FORK_CASES[kind]()
    child = machine.fork()
    assert type(child) is type(machine)
    assert child.config_key() == machine.config_key()
    assert child.ledger is not machine.ledger
    rng = np.random.default_rng(7)
    A, B = rng.random((2, machine.sqrt_m, machine.sqrt_m))
    assert np.array_equal(child.mm(A, B), machine.mm(A, B))
    assert child.ledger.snapshot() == machine.ledger.snapshot()


class TestMMInterface:
    def test_correct_product(self, tcu, rng):
        A = rng.random((8, 4))
        B = rng.random((4, 4))
        assert np.allclose(tcu.mm(A, B), A @ B)

    def test_charges_model_cost(self, tcu, rng):
        A = rng.random((8, 4))
        B = rng.random((4, 4))
        tcu.mm(A, B)
        assert tcu.time == 8 * 4 + 4.0

    def test_rejects_wrong_left_width(self, tcu, rng):
        with pytest.raises(TensorShapeError, match="columns"):
            tcu.mm(rng.random((8, 5)), rng.random((4, 4)))

    def test_rejects_wrong_right_shape(self, tcu, rng):
        with pytest.raises(TensorShapeError, match="right operand"):
            tcu.mm(rng.random((8, 4)), rng.random((4, 5)))

    def test_rejects_short_stream(self, tcu, rng):
        with pytest.raises(TensorShapeError, match="n >= sqrt"):
            tcu.mm(rng.random((3, 4)), rng.random((4, 4)))

    def test_rejects_1d_operands(self, tcu, rng):
        with pytest.raises(TensorShapeError, match="2-D"):
            tcu.mm(rng.random(4), rng.random((4, 4)))

    def test_integer_dtype_preserved(self, tcu, rng):
        A = rng.integers(0, 5, (4, 4))
        B = rng.integers(0, 5, (4, 4))
        C = tcu.mm(A, B)
        assert np.issubdtype(C.dtype, np.integer)
        assert np.array_equal(C, A @ B)


class TestMaxRows:
    def test_long_stream_split(self, rng):
        machine = TCUMachine(m=16, ell=1.0, max_rows=8)
        A = rng.random((20, 4))
        B = rng.random((4, 4))
        C = machine.mm(A, B)
        assert np.allclose(C, A @ B)
        # 8 + 8 + 4 rows -> 3 calls, each paying latency
        assert machine.ledger.tensor_calls == 3
        assert machine.ledger.latency_time == 3.0

    def test_short_tail_padded(self, rng):
        machine = TCUMachine(m=16, max_rows=16)
        A = rng.random((18, 4))  # 16 + 2: the 2-row tail pads to 4
        B = rng.random((4, 4))
        assert np.allclose(machine.mm(A, B), A @ B)

    def test_exact_fit_single_call(self, rng):
        machine = TCUMachine(m=16, ell=1.0, max_rows=32)
        machine.mm(rng.random((32, 4)), rng.random((4, 4)))
        assert machine.ledger.tensor_calls == 1


class TestComplexCost:
    def test_complex_costs_factor_calls(self, rng):
        machine = TCUMachine(m=16, ell=2.0, complex_cost_factor=4)
        A = rng.random((4, 4)) + 1j * rng.random((4, 4))
        B = rng.random((4, 4))
        C = machine.mm(A, B)
        assert np.allclose(C, A @ B)
        assert machine.ledger.tensor_calls == 4
        assert machine.ledger.latency_time == 8.0

    def test_real_unaffected_by_factor(self, rng):
        machine = TCUMachine(m=16, complex_cost_factor=4)
        machine.mm(rng.random((4, 4)), rng.random((4, 4)))
        assert machine.ledger.tensor_calls == 1

    def test_default_complex_is_one_call(self, tcu, rng):
        A = rng.random((4, 4)).astype(np.complex128)
        tcu.mm(A, rng.random((4, 4)))
        assert tcu.ledger.tensor_calls == 1


class TestOverflowChecks:
    def test_integer_overflow_detected(self):
        machine = TCUMachine(m=16, kappa=16, check_overflow=True)
        big = np.full((4, 4), 255, dtype=np.int64)
        with pytest.raises(OverflowError_):
            machine.mm(big * 300, big)

    def test_within_word_passes(self):
        machine = TCUMachine(m=16, kappa=32, check_overflow=True)
        A = np.full((4, 4), 255, dtype=np.int64)
        machine.mm(A, A)  # 255*255*4 < 2^32


class TestSystolicBackend:
    def test_matches_numpy_backend(self, rng):
        fast = TCUMachine(m=16)
        slow = TCUMachine(m=16, backend="systolic")
        A = rng.random((8, 4))
        B = rng.random((4, 4))
        assert np.allclose(slow.mm(A, B), fast.mm(A, B))

    def test_charges_identically(self, rng):
        fast = TCUMachine(m=16, ell=3.0)
        slow = TCUMachine(m=16, ell=3.0, backend="systolic")
        A = rng.random((8, 4))
        B = rng.random((4, 4))
        fast.mm(A, B)
        slow.mm(A, B)
        assert fast.time == slow.time


class TestWeakModel:
    def test_rejects_tall_call(self, rng):
        weak = WeakTCUMachine(m=16)
        with pytest.raises(TensorShapeError, match="weak TCU"):
            weak.mm(rng.random((8, 4)), rng.random((4, 4)))

    def test_square_call_allowed(self, rng):
        weak = WeakTCUMachine(m=16)
        A = rng.random((4, 4))
        B = rng.random((4, 4))
        assert np.allclose(weak.mm(A, B), A @ B)

    def test_mm_tall_splits(self, rng):
        weak = WeakTCUMachine(m=16, ell=1.0)
        A = rng.random((12, 4))
        B = rng.random((4, 4))
        assert np.allclose(weak.mm_tall(A, B), A @ B)
        assert weak.ledger.tensor_calls == 3

    def test_mm_tall_pads_ragged(self, rng):
        weak = WeakTCUMachine(m=16)
        A = rng.random((10, 4))
        B = rng.random((4, 4))
        assert np.allclose(weak.mm_tall(A, B), A @ B)

    def test_weak_slowdown_constant_when_ell_order_m(self, rng):
        """Section 5: with l = O(m) the weak simulation costs only a
        constant factor more than the tall call."""
        tall = TCUMachine(m=16, ell=16.0)
        weak = WeakTCUMachine(m=16, ell=16.0)
        A = rng.random((64, 4))
        B = rng.random((4, 4))
        tall.mm(A, B)
        weak.mm_tall(A, B)
        assert weak.time <= 3 * tall.time
