"""Theorem 4 Gaussian elimination tests."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from repro import TCUMachine
from repro.analysis.fitting import loglog_slope
from repro.baselines.ram import RAMMachine, ram_ge_forward
from repro.linalg.gaussian import back_substitute, ge_forward, ge_solve


def diag_dominant(rng, n):
    """GE without pivoting is well-defined on diagonally dominant inputs."""
    return rng.random((n, n)) + n * np.eye(n)


class TestForwardPhase:
    @pytest.mark.parametrize("n", [4, 8, 12, 16, 17, 23, 32])
    def test_upper_triangle_matches_unblocked(self, tcu, rng, n):
        X = diag_dominant(rng, n)
        ram = RAMMachine()
        want = ram_ge_forward(ram, X)
        got = ge_forward(tcu, X)
        assert np.allclose(np.triu(got), np.triu(want))

    def test_input_not_mutated_by_default(self, tcu, rng):
        X = diag_dominant(rng, 8)
        copy = X.copy()
        ge_forward(tcu, X)
        assert np.array_equal(X, copy)

    def test_overwrite_mutates(self, tcu, rng):
        """``overwrite=True`` eliminates in ``X`` itself when its side
        divides by ``sqrt(m)``; a padded input is copied, so it stays."""
        X = diag_dominant(rng, 8)
        copy = X.copy()
        out = ge_forward(tcu, X, overwrite=True)
        assert np.shares_memory(out, X)
        assert not np.array_equal(X, copy)
        X = diag_dominant(rng, 7)
        copy = X.copy()
        ge_forward(tcu, X, overwrite=True)
        assert np.array_equal(X, copy)

    def test_non_square_rejected(self, tcu, rng):
        with pytest.raises(ValueError, match="square"):
            ge_forward(tcu, rng.random((4, 6)))

    def test_zero_pivot_detected(self, tcu):
        X = np.zeros((8, 8))
        with pytest.raises(ZeroDivisionError):
            ge_forward(tcu, X)

    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_zero_pivot_on_a_block_corner_detected(self, m):
        """The leading 2x2 minor is singular, so the second pivot is 0:
        the last pivot of a 2x2 block (m=4), which the pivot-row and
        pivot-column kernels divide by, or an inner one (m=16, 64)."""
        X = 4.0 * np.eye(4)
        X[0, 1] = X[1, 0] = 4.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ZeroDivisionError, match="zero pivot"):
                ge_forward(TCUMachine(m=m), X)

    @pytest.mark.parametrize("m, side", [(4, 4), (16, 4), (4, 3), (16, 3), (4, 5)])
    def test_last_pivot_of_the_matrix_unchecked(self, m, side):
        """Nothing divides by the matrix's last pivot (Figure 2 stops at
        n - 2), so a zero there is no error, on a padded side too (3 and
        5 pad to 4 and 6), where the elimination step at that pivot
        touches only padding."""
        X = np.diag([1.0] * (side - 1) + [0.0])
        X[0, side - 1] = 2.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ge_forward(TCUMachine(m=m), X)
        assert np.isfinite(out).all()
        assert np.array_equal(np.triu(out), X)

    def test_triangular_input_fixed_point(self, tcu, rng):
        """An already upper-triangular matrix passes through unchanged."""
        U = np.triu(diag_dominant(rng, 8))
        got = ge_forward(tcu, U)
        assert np.allclose(np.triu(got), U)

    def test_lu_consistency(self, tcu, rng):
        """triu(GE result) equals the U of an LU factorisation (no pivoting)."""
        X = diag_dominant(rng, 16)
        got = np.triu(ge_forward(tcu, X))
        _, _, U = scipy.linalg.lu(X, permute_l=False)
        # scipy pivots; on strongly diagonally dominant matrices the
        # permutation is identity, making U directly comparable.
        assert np.allclose(got, U, atol=1e-8)


class TestSolve:
    @pytest.mark.parametrize("n", [3, 7, 8, 15, 20])
    def test_solution_satisfies_system(self, tcu, rng, n):
        A = diag_dominant(rng, n)
        b = rng.random(n)
        x = ge_solve(tcu, A, b)
        assert np.allclose(A @ x, b, atol=1e-8)

    def test_matches_numpy_solve(self, tcu, rng):
        A = diag_dominant(rng, 12)
        b = rng.random(12)
        assert np.allclose(ge_solve(tcu, A, b), np.linalg.solve(A, b), atol=1e-8)

    def test_identity_system(self, tcu, rng):
        b = rng.random(6)
        assert np.allclose(ge_solve(tcu, np.eye(6), b), b)

    def test_shape_mismatch_rejected(self, tcu, rng):
        with pytest.raises(ValueError):
            ge_solve(tcu, rng.random((4, 4)), rng.random(5))

    def test_back_substitute_exact(self, tcu, rng):
        U = np.triu(diag_dominant(rng, 9))
        x = rng.random(9)
        y = U @ x
        assert np.allclose(back_substitute(tcu, U, y), x, atol=1e-9)

    def test_back_substitute_zero_diag_rejected(self, tcu):
        U = np.eye(4)
        U[2, 2] = 0.0
        with pytest.raises(ZeroDivisionError):
            back_substitute(tcu, U, np.ones(4))


class TestCostShape:
    def test_cubic_scaling_in_side(self, rng):
        """Theorem 4 dominant term: (side^2)^{3/2} / sqrt(m) = side^3.
        The tensor-time component is purely cubic; the total also
        carries the lower-order n*sqrt(m) kernel work, so its slope sits
        between 2 and 3 at small sizes."""
        sides = [16, 32, 64, 128]
        tensor_times, totals = [], []
        for side in sides:
            tcu = TCUMachine(m=16)
            ge_forward(tcu, diag_dominant(rng, side))
            tensor_times.append(tcu.ledger.tensor_time)
            totals.append(tcu.time)
        assert 2.8 < loglog_slope(sides, tensor_times) < 3.2
        assert 2.3 < loglog_slope(sides, totals) < 3.2

    def test_reduces_to_mm_cost_when_sqrt_n_ge_m(self, rng):
        """For sqrt(n) >= m the GE cost matches dense MM up to a constant."""
        from repro.matmul.dense import matmul

        side = 64  # sqrt(n) = 64 >= m = 16
        ge = TCUMachine(m=16, ell=4.0)
        mm = TCUMachine(m=16, ell=4.0)
        ge_forward(ge, diag_dominant(rng, side))
        matmul(mm, rng.random((side, side)), rng.random((side, side)))
        assert ge.time <= 4 * mm.time

    def test_latency_term_scales_with_block_count(self, rng):
        """Latency contributes ~ (n/m) l: doubling l doubles latency time."""
        side = 32
        t1 = TCUMachine(m=16, ell=10.0)
        t2 = TCUMachine(m=16, ell=20.0)
        ge_forward(t1, diag_dominant(rng, side))
        ge_forward(t2, diag_dominant(rng, side))
        assert np.isclose(t2.ledger.latency_time, 2 * t1.ledger.latency_time)
        assert t1.ledger.tensor_time == t2.ledger.tensor_time

    def test_faster_than_ram_ge(self, rng):
        """The sqrt(m) advantage over the Theta(n^{3/2}) RAM elimination."""
        side = 64
        tcu = TCUMachine(m=64)
        ram = RAMMachine()
        X = diag_dominant(rng, side)
        ge_forward(tcu, X)
        ram_ge_forward(ram, X)
        assert tcu.time < ram.time
