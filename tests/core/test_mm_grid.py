"""The bulk grid primitive: TCUMachine.mm_grid must charge and compute
exactly what a loop of TCUMachine.mm over the grid elements would."""

import numpy as np
import pytest

from repro.core.machine import TCUMachine, TensorShapeError, WeakTCUMachine, placeholder
from repro.core.quantize import QuantizedTCUMachine


def loop_reference(machine, A, B):
    lead = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    Ab = np.broadcast_to(A, lead + A.shape[-2:])
    Bb = np.broadcast_to(B, lead + B.shape[-2:])
    out = np.empty(lead + (A.shape[-2], B.shape[-1]), dtype=np.result_type(A, B))
    for idx in np.ndindex(*lead):
        out[idx] = machine.mm(Ab[idx], Bb[idx])
    return out


def test_stacked_grid_matches_mm_loop():
    rng = np.random.default_rng(0)
    A = rng.random((5, 12, 4))
    B = rng.random((5, 4, 4))
    grid = TCUMachine(m=16, ell=50.0)
    loop = TCUMachine(m=16, ell=50.0)
    C = grid.mm_grid(A, B)
    R = loop_reference(loop, A, B)
    assert np.allclose(C, R)
    assert grid.ledger.snapshot() == loop.ledger.snapshot()
    assert list(grid.ledger.calls) == list(loop.ledger.calls)


def test_shared_stream_broadcasts_against_block_stack():
    rng = np.random.default_rng(1)
    A = rng.random((20, 4))
    B = rng.random((7, 4, 4))
    grid = TCUMachine(m=16, ell=3.0)
    loop = TCUMachine(m=16, ell=3.0)
    C = grid.mm_grid(A, B)
    assert C.shape == (7, 20, 4)
    assert np.allclose(C, loop_reference(loop, A, B))
    assert grid.ledger.snapshot() == loop.ledger.snapshot()


def test_two_dimensional_grid_is_one_call():
    tcu = TCUMachine(m=16, ell=5.0)
    A = np.ones((8, 4))
    B = np.eye(4)
    C = tcu.mm_grid(A, B)
    assert np.array_equal(C, A)
    assert tcu.ledger.tensor_calls == 1
    assert tcu.ledger.latency_time == 5.0


def test_complex_grid_charges_cost_factor():
    rng = np.random.default_rng(2)
    A = rng.random((3, 8, 4)) + 1j * rng.random((3, 8, 4))
    B = rng.random((3, 4, 4))
    grid = TCUMachine(m=16, ell=10.0, complex_cost_factor=4)
    loop = TCUMachine(m=16, ell=10.0, complex_cost_factor=4)
    C = grid.mm_grid(A, B)
    R = loop_reference(loop, A, B)
    assert np.allclose(C, R)
    assert grid.ledger.snapshot() == loop.ledger.snapshot()
    assert grid.ledger.tensor_calls == 3 * 4


def test_max_rows_overflow_falls_back_to_split_calls():
    rng = np.random.default_rng(3)
    A = rng.random((2, 300, 4))
    B = rng.random((2, 4, 4))
    grid = TCUMachine(m=16, ell=2.0, max_rows=128)
    loop = TCUMachine(m=16, ell=2.0, max_rows=128)
    C = grid.mm_grid(A, B)
    assert np.allclose(C, loop_reference(loop, A, B))
    assert grid.ledger.snapshot() == loop.ledger.snapshot()


def test_systolic_backend_falls_back_per_element():
    rng = np.random.default_rng(4)
    A = rng.integers(0, 5, size=(2, 4, 4)).astype(np.int64)
    B = rng.integers(0, 5, size=(4, 4)).astype(np.int64)
    grid = TCUMachine(m=16, backend="systolic")
    assert not grid.fusable
    C = grid.mm_grid(A, B)
    assert np.array_equal(C, A @ B)
    assert grid.ledger.tensor_calls == 2


def test_quantized_machine_is_not_fusable_but_grid_works():
    rng = np.random.default_rng(5)
    q = QuantizedTCUMachine(m=16, precision="fp16")
    assert not q.fusable
    A = rng.random((3, 6, 4))
    B = rng.random((4, 4))
    C = q.mm_grid(A, B)
    ref = QuantizedTCUMachine(m=16, precision="fp16")
    R = loop_reference(ref, A, B)
    assert np.allclose(C, R)
    assert q.ledger.snapshot() == ref.ledger.snapshot()
    assert q.error_stats.errors == ref.error_stats.errors


def test_cost_only_grid_charges_without_computing():
    A = placeholder((100, 64, 4))
    B = placeholder((100, 4, 4))
    tcu = TCUMachine(m=16, ell=9.0, execute="cost-only")
    C = tcu.mm_grid(A, B)
    assert C.shape == (100, 64, 4)
    assert not C.any() and C.strides == (0, 0, 0)
    ref = TCUMachine(m=16, ell=9.0)
    ref.ledger.charge_tensor_bulk(np.full(100, 64), 4, 9.0)
    assert tcu.ledger.snapshot() == ref.ledger.snapshot()


def test_grid_validation_errors():
    tcu = TCUMachine(m=16)
    with pytest.raises(TensorShapeError):
        tcu.mm_grid(np.ones((4,)), np.ones((4, 4)))
    with pytest.raises(TensorShapeError):
        tcu.mm_grid(np.ones((8, 5)), np.ones((4, 4)))  # wrong width
    with pytest.raises(TensorShapeError):
        tcu.mm_grid(np.ones((8, 4)), np.ones((4, 5)))  # non-square block
    with pytest.raises(TensorShapeError):
        tcu.mm_grid(np.ones((2, 4)), np.ones((4, 4)))  # n < sqrt(m)
    with pytest.raises(TensorShapeError):
        tcu.mm_grid(np.ones((3, 8, 4)), np.ones((2, 4, 4)))  # bad broadcast


def test_empty_grid_charges_nothing():
    tcu = TCUMachine(m=16, ell=4.0)
    C = tcu.mm_grid(np.ones((0, 8, 4)), np.ones((0, 4, 4)))
    assert C.shape == (0, 8, 4)
    assert tcu.ledger.tensor_calls == 0


def test_weak_machine_grid_rejects_tall_streams():
    weak = WeakTCUMachine(m=16)
    with pytest.raises(TensorShapeError):
        weak.mm_grid(np.ones((2, 8, 4)), np.ones((2, 4, 4)))
    C = weak.mm_grid(np.ones((2, 4, 4)), np.ones((2, 4, 4)))
    assert C.shape == (2, 4, 4)
    assert weak.ledger.tensor_calls == 2


def test_integer_overflow_checked_on_the_stack():
    from repro.core.words import OverflowError_

    tcu = TCUMachine(m=4, kappa=8, check_overflow=True)
    big = np.full((2, 2, 2), 120, dtype=np.int64)
    with pytest.raises(OverflowError_):
        tcu.mm_grid(big, np.full((2, 2), 120, dtype=np.int64))


def test_overflow_error_names_the_first_offending_call():
    """A stacked grid reports the same offending call the ``mm`` loop
    stops at, not the worst value anywhere in the stack."""
    from repro.core.words import OverflowError_

    A = np.ones((3, 2, 2), dtype=np.int64)
    B = np.ones((3, 2, 2), dtype=np.int64)
    B[1, 0, 0] = -3  # call 1: minimum accumulator -2
    B[2, 0, 0] = -9  # call 2: minimum accumulator -8
    with pytest.raises(OverflowError_) as grid:
        TCUMachine(m=4, kappa=8, check_overflow=True).mm_grid(A, B)
    with pytest.raises(OverflowError_) as loop:
        loop_reference(TCUMachine(m=4, kappa=8, check_overflow=True), A, B)
    assert str(grid.value) == str(loop.value) == "negative accumulator value -2"


def test_fork_preserves_execute_mode():
    tcu = TCUMachine(m=16, execute="cost-only")
    assert tcu.fork().execute == "cost-only"


@pytest.mark.parametrize("execute", ["numeric", "cost-only"])
def test_weak_machine_matmul_still_rejects_tall_calls(execute):
    # the fused matmul shortcut must not bypass the weak model's
    # square-only call interface
    from repro.matmul.dense import matmul

    weak = WeakTCUMachine(m=16, execute=execute)
    with pytest.raises(TensorShapeError):
        matmul(weak, np.ones((16, 16)), np.ones((16, 16)))
