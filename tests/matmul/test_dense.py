"""Theorem 2 / Corollary 1 dense multiplication tests."""

import numpy as np
import pytest

from repro import TCUMachine
from repro.analysis.formulas import thm2_dense_mm
from repro.extmem.bounds import dense_mm_semiring_lower_bound
from repro.matmul.dense import matmul, rectangular_mm, square_mm, tensor_call_count
from repro.matmul.strassen import STRASSEN_2X2


class TestCorrectness:
    @pytest.mark.parametrize(
        "p,q,r", [(4, 4, 4), (8, 8, 8), (3, 5, 7), (1, 9, 2), (13, 4, 4), (6, 17, 11)]
    )
    def test_arbitrary_shapes(self, tcu, rng, p, q, r):
        A = rng.random((p, q))
        B = rng.random((q, r))
        assert np.allclose(matmul(tcu, A, B), A @ B)

    def test_integer_product_exact(self, tcu, rng):
        A = rng.integers(-9, 9, (7, 6))
        B = rng.integers(-9, 9, (6, 5))
        C = matmul(tcu, A, B)
        assert np.array_equal(C, A @ B)
        assert np.issubdtype(C.dtype, np.integer)

    def test_complex_product(self, tcu, rng):
        A = rng.random((5, 5)) + 1j * rng.random((5, 5))
        B = rng.random((5, 5)) + 1j * rng.random((5, 5))
        assert np.allclose(matmul(tcu, A, B), A @ B)

    def test_empty_dimensions(self, tcu):
        A = np.zeros((0, 4))
        B = np.zeros((4, 3))
        assert matmul(tcu, A, B).shape == (0, 3)
        assert tcu.ledger.tensor_calls == 0

    def test_incompatible_shapes_rejected(self, tcu, rng):
        with pytest.raises(ValueError, match="inner dimensions"):
            matmul(tcu, rng.random((3, 4)), rng.random((5, 3)))

    def test_identity(self, tcu, rng):
        A = rng.random((9, 9))
        assert np.allclose(matmul(tcu, A, np.eye(9)), A)

    def test_square_mm_validates(self, tcu, rng):
        with pytest.raises(ValueError, match="square"):
            square_mm(tcu, rng.random((4, 5)), rng.random((5, 4)))


class TestAccounting:
    def test_call_count_matches_schedule(self, rng):
        tcu = TCUMachine(m=16)
        A = rng.random((16, 16))
        B = rng.random((16, 16))
        matmul(tcu, A, B)
        assert tcu.ledger.tensor_calls == tensor_call_count(16, 16, 16, 4) == 16

    def test_latency_paid_once_per_call(self, rng):
        tcu = TCUMachine(m=16, ell=100.0)
        matmul(tcu, rng.random((16, 16)), rng.random((16, 16)))
        assert tcu.ledger.latency_time == 100.0 * 16

    def test_theorem2_square_cost_shape(self, rng):
        """Model time tracks n^{3/2}/sqrt(m) + (n/m) l within a small
        constant across sizes (padding/additions are lower order)."""
        tcu = TCUMachine(m=16, ell=50.0)
        for side in (8, 16, 32, 64):
            tcu.reset()
            matmul(tcu, rng.random((side, side)), rng.random((side, side)))
            n = side * side
            predicted = thm2_dense_mm(n, tcu.m, tcu.ell)
            assert predicted <= tcu.time <= 5 * predicted

    def test_never_beats_semiring_lower_bound(self, rng):
        """Theorem 2's matching lower bound: the *tensor+latency* time
        of the schedule cannot go below n^{3/2}/sqrt(m) + l n/m."""
        for m, ell in ((16, 0.0), (16, 64.0), (64, 16.0)):
            tcu = TCUMachine(m=m, ell=ell)
            side = 32
            matmul(tcu, rng.random((side, side)), rng.random((side, side)))
            bound = dense_mm_semiring_lower_bound(side * side, m, ell)
            assert tcu.ledger.tensor_total >= bound * 0.999

    def test_tall_streaming_cheaper_than_square_calls(self, rng):
        """The Section 3 asymmetry: one tall call beats n/sqrt(m)
        square calls whenever l > 0."""
        tall = TCUMachine(m=16, ell=10.0)
        square = TCUMachine(m=16, ell=10.0)
        A = rng.random((64, 4))
        B = rng.random((4, 4))
        tall.mm(A, B)
        for i in range(16):
            square.mm(A[4 * i : 4 * (i + 1)], B)
        assert tall.time < square.time

    def test_padding_charged_when_needed(self, rng):
        tcu = TCUMachine(m=16)
        matmul(tcu, rng.random((4, 3)), rng.random((3, 4)))
        assert tcu.ledger.cpu_time > 0


class TestRectangular:
    @pytest.mark.parametrize("r", [2, 4, 8, 32])
    def test_corollary1_shapes(self, tcu, rng, r):
        """sqrt(n) x r by r x sqrt(n) products for r both sides of sqrt(n)."""
        sqrt_n = 8
        A = rng.random((sqrt_n, r))
        B = rng.random((r, sqrt_n))
        assert np.allclose(rectangular_mm(tcu, A, B), A @ B)

    def test_with_strassen_decomposition(self, tcu, rng):
        A = rng.random((8, 16))
        B = rng.random((16, 8))
        C = rectangular_mm(tcu, A, B, algorithm=STRASSEN_2X2)
        assert np.allclose(C, A @ B)

    def test_strassen_square_decomposition_ragged(self, tcu, rng):
        A = rng.random((6, 15))
        B = rng.random((15, 6))
        C = rectangular_mm(tcu, A, B, algorithm=STRASSEN_2X2)
        assert np.allclose(C, A @ B)

    def test_cost_linear_in_r(self, rng):
        """Corollary 1: at l = 0 model time grows ~linearly with r."""
        times = []
        for r in (8, 16, 32, 64):
            tcu = TCUMachine(m=16)
            rectangular_mm(tcu, rng.random((16, r)), rng.random((r, 16)))
            times.append(tcu.time)
        ratios = [times[i + 1] / times[i] for i in range(3)]
        for ratio in ratios:
            assert 1.7 < ratio < 2.3

    def test_incompatible_rejected(self, tcu, rng):
        with pytest.raises(ValueError):
            rectangular_mm(tcu, rng.random((4, 5)), rng.random((4, 5)))
