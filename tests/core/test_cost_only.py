"""Cost-only execution mode: charges identical to numeric runs, O(1)
storage results, and clear failures where values would be required."""

import numpy as np
import pytest

from repro.core.machine import TCUMachine, WeakTCUMachine, placeholder
from repro.core.program import TensorProgram, run_program


def test_placeholder_is_readonly_zero_strided():
    ph = placeholder((1000, 1000), np.complex128)
    assert ph.shape == (1000, 1000)
    assert ph.dtype == np.complex128
    assert ph.strides == (0, 0)
    assert ph.base.nbytes == 16  # one scalar backs the whole view
    assert not ph.any()
    with pytest.raises(ValueError):
        ph[0, 0] = 1.0


def test_invalid_execute_mode_rejected():
    with pytest.raises(ValueError):
        TCUMachine(m=16, execute="fast")


def test_mm_cost_only_charges_like_numeric():
    rng = np.random.default_rng(0)
    A = rng.random((12, 4))
    B = rng.random((4, 4))
    num = TCUMachine(m=16, ell=7.0)
    cost = TCUMachine(m=16, ell=7.0, execute="cost-only")
    num.mm(A, B)
    out = cost.mm(A, B)
    assert out.shape == (12, 4) and out.strides == (0, 0)
    assert num.ledger.snapshot() == cost.ledger.snapshot()
    assert list(num.ledger.calls) == list(cost.ledger.calls)


def test_mm_cost_only_split_stream():
    A = placeholder((300, 4))
    B = placeholder((4, 4))
    num = TCUMachine(m=16, ell=7.0, max_rows=128)
    cost = TCUMachine(m=16, ell=7.0, max_rows=128, execute="cost-only")
    num.mm(np.zeros((300, 4)), np.zeros((4, 4)))
    out = cost.mm(A, B)
    assert out.shape == (300, 4)
    assert num.ledger.snapshot() == cost.ledger.snapshot()


def test_weak_machine_mm_tall_cost_only():
    num = WeakTCUMachine(m=16, ell=3.0)
    cost = WeakTCUMachine(m=16, ell=3.0, execute="cost-only")
    A = np.ones((10, 4))
    B = np.eye(4)
    num.mm_tall(A, B)
    out = cost.mm_tall(A, B)
    assert out.shape == (10, 4)
    assert num.ledger.snapshot() == cost.ledger.snapshot()


def test_program_cost_only_propagates_placeholders():
    tcu = TCUMachine(m=16, ell=5.0, execute="cost-only")
    program = TensorProgram()
    a = placeholder((8, 4))
    b = placeholder((4, 4))
    mm = program.mm(a, b)
    cp = program.copy(mm)
    add = program.add([(2.0, mm), (1.0, cp)])
    run_program(program, tcu)
    for op in (mm, cp, add):
        assert op.result().shape == (8, 4)
        assert op.result().strides == (0, 0)
    # charges: one call (32 + 5) + copy 32 words + add 2 * 32 words
    assert tcu.ledger.tensor_calls == 1
    assert tcu.ledger.cpu_time == 32 + 2 * 32
    assert tcu.ledger.total_time == 8 * 4 + 5.0 + 96


def test_seidel_rejects_cost_only():
    from repro.graph.apsd import seidel

    tcu = TCUMachine(m=16, execute="cost-only")
    adj = np.array([[0, 1], [1, 0]], dtype=np.int64)
    with pytest.raises(ValueError, match="cost-only"):
        seidel(tcu, adj)


def test_gaussian_elimination_rejects_cost_only():
    from repro.linalg.gaussian import ge_forward, ge_solve

    tcu = TCUMachine(m=16, execute="cost-only")
    M = np.eye(8)
    with pytest.raises(ValueError, match="cost-only"):
        ge_forward(tcu, M)
    with pytest.raises(ValueError, match="cost-only"):
        ge_solve(tcu, M, np.ones(8))


def test_quantized_cost_only_charges_without_observing():
    from repro.core.quantize import QuantizedTCUMachine

    rng = np.random.default_rng(3)
    A = rng.random((12, 4))
    B = rng.random((4, 4))
    num = QuantizedTCUMachine(m=16, ell=7.0, precision="fp16")
    cost = QuantizedTCUMachine(m=16, ell=7.0, precision="fp16", execute="cost-only")
    num.mm(A, B)
    out = cost.mm(A, B)
    assert out.strides == (0, 0)
    assert num.ledger.snapshot() == cost.ledger.snapshot()
    assert cost.error_stats.errors == []  # no bogus 1.0 observations


def test_overflow_checked_machines_keep_checking_on_the_fused_path():
    from eager_oracles import per_call_matmul

    from repro.core.words import OverflowError_
    from repro.matmul.dense import matmul

    big = np.full((16, 16), 120, dtype=np.int64)
    tcu = TCUMachine(m=4, kappa=8, check_overflow=True)
    with pytest.raises(OverflowError_):
        matmul(tcu, big, big)
    eager = TCUMachine(m=4, kappa=8, check_overflow=True)
    with pytest.raises(OverflowError_):
        per_call_matmul(eager, big, big)


def test_dft_cost_only_keeps_placeholders_lazy():
    from repro.transform.convolution import dft2, idft2
    from repro.transform.dft import batched_dft, batched_idft

    tcu = TCUMachine(m=16, ell=5.0, execute="cost-only")
    X = placeholder((4, 64))  # float64 on purpose: must not be cast/copied
    F = batched_dft(tcu, X)
    assert F.strides == (0, 0) and F.dtype == np.complex128
    G = batched_idft(tcu, placeholder((4, 64)))
    assert G.strides == (0, 0)
    stack = placeholder((3, 16, 16))
    assert dft2(tcu, stack).strides == (0, 0, 0)
    assert idft2(tcu, stack).strides == (0, 0, 0)


def test_convolution_cost_only_charges_match():
    from repro.transform.convolution import batched_circular_convolve2d

    rng = np.random.default_rng(1)
    tiles = rng.random((3, 16, 16))
    kernel = rng.random((3, 3))
    num = TCUMachine(m=16, ell=12.0)
    cost = TCUMachine(m=16, ell=12.0, execute="cost-only")
    batched_circular_convolve2d(num, tiles, kernel)
    out = batched_circular_convolve2d(cost, tiles, kernel)
    assert out.shape == tiles.shape
    assert out.strides == (0, 0, 0)  # the whole pipeline stayed lazy
    assert num.ledger.snapshot() == cost.ledger.snapshot()
    assert num.ledger.call_shape_totals() == cost.ledger.call_shape_totals()


def test_cost_only_wall_clock_beats_numeric():
    # not a strict benchmark, just a sanity ratio on a size where the
    # numeric path must do real GEMM work
    import time

    from repro.matmul.dense import matmul

    rng = np.random.default_rng(2)
    A = rng.random((512, 512))
    B = rng.random((512, 512))
    num = TCUMachine(m=256, ell=100.0)
    t0 = time.perf_counter()
    matmul(num, A, B)
    dt_num = time.perf_counter() - t0
    cost = TCUMachine(m=256, ell=100.0, execute="cost-only")
    t0 = time.perf_counter()
    matmul(cost, A, B)
    dt_cost = time.perf_counter() - t0
    assert num.ledger.snapshot() == cost.ledger.snapshot()
    assert dt_cost < dt_num
