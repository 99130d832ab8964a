"""The paper's cost bounds as callables (leading constants set to 1).

Every theorem's running-time expression is available as a plain
function of the instance parameters and the machine parameters (m, l).
Benches fit a single leading constant per experiment
(:func:`repro.analysis.fitting.fit_constant`) and then check the
*shape*: relative error of the fit across a sweep, log-log slopes, and
crossover positions.

Conventions follow the paper: ``n`` is the *problem size* used in each
theorem statement (matrix area for MM/GE — the matrices are
``sqrt(n) x sqrt(n)`` — vertex count for graphs, vector length for DFT,
bit length for integers), ``omega0`` is the Strassen-like exponent
``log_{n0} p0``.
"""

from __future__ import annotations

import math

__all__ = [
    "thm1_strassen_like_mm",
    "thm2_dense_mm",
    "cor1_rectangular_mm",
    "thm3_sparse_mm",
    "thm4_gaussian_elimination",
    "thm5_transitive_closure",
    "thm6_apsd",
    "thm7_dft",
    "thm8_stencil",
    "thm9_integer_mul",
    "thm10_karatsuba",
    "thm11_polyeval",
    "predicted_parallel_time",
    "THEOREM_FORMULAS",
    "OMEGA0_CLASSICAL",
    "OMEGA0_STRASSEN",
]

OMEGA0_CLASSICAL = 1.5
OMEGA0_STRASSEN = math.log(7) / math.log(4)  # ~1.4037


def thm1_strassen_like_mm(n: float, m: float, ell: float, omega0: float) -> float:
    """Theorem 1: ``(n/m)^{omega0} (m + l)`` for a sqrt(n) x sqrt(n) product."""
    return (n / m) ** omega0 * (m + ell)


def thm2_dense_mm(n: float, m: float, ell: float) -> float:
    """Theorem 2: ``n^{3/2}/sqrt(m) + (n/m) l`` (semiring-optimal)."""
    return n**1.5 / math.sqrt(m) + (n / m) * ell


def cor1_rectangular_mm(n: float, r: float, m: float, ell: float) -> float:
    """Corollary 1: ``rn/sqrt(m) + (r sqrt(n)/m) l`` for sqrt(n) x r by r x sqrt(n)."""
    return r * n / math.sqrt(m) + (r * math.sqrt(n) / m) * ell


def thm3_sparse_mm(
    n: float, Z: float, I: float, m: float, ell: float, omega0: float
) -> float:
    """Theorem 3: ``sqrt(n/Z) (Z/m)^{omega0} (m + l) + I`` (balanced output)."""
    return math.sqrt(n / Z) * (Z / m) ** omega0 * (m + ell) + I


def thm4_gaussian_elimination(n: float, m: float, ell: float) -> float:
    """Theorem 4: ``n^{3/2}/sqrt(m) + (n/m) l + n sqrt(m)``."""
    return n**1.5 / math.sqrt(m) + (n / m) * ell + n * math.sqrt(m)


def thm5_transitive_closure(n: float, m: float, ell: float) -> float:
    """Theorem 5 (n = vertex count): ``n^3/sqrt(m) + (n^2/m) l + n^2 sqrt(m)``."""
    return n**3 / math.sqrt(m) + (n * n / m) * ell + n * n * math.sqrt(m)


def thm6_apsd(n: float, m: float, ell: float, omega0: float) -> float:
    """Theorem 6 (n = vertex count): ``(n^2/m)^{omega0} (m + l) log2 n``."""
    return (n * n / m) ** omega0 * (m + ell) * math.log2(max(n, 2))


def thm7_dft(n: float, m: float, ell: float) -> float:
    """Theorem 7: ``(n + l) log_m n`` (the log is at least one level)."""
    depth = max(1.0, math.log(max(n, 2)) / math.log(max(m, 2)))
    return (n + ell) * depth


def thm8_stencil(n: float, k: float, m: float, ell: float) -> float:
    """Theorem 8: ``n log_m k + l log k`` (logs clamped to >= 1)."""
    logm_k = max(1.0, math.log(max(k, 2)) / math.log(max(m, 2)))
    return n * logm_k + ell * max(1.0, math.log2(max(k, 2)))


def thm9_integer_mul(n_bits: float, m: float, ell: float, kappa: float) -> float:
    """Theorem 9: ``n^2/(kappa^2 sqrt(m)) + (n/(kappa m)) l``."""
    return n_bits**2 / (kappa**2 * math.sqrt(m)) + (n_bits / (kappa * m)) * ell


def thm10_karatsuba(n_bits: float, m: float, ell: float, kappa: float) -> float:
    """Theorem 10: ``(n/(kappa sqrt(m)))^{log2 3} (sqrt(m) + l/sqrt(m))``."""
    base = max(1.0, n_bits / (kappa * math.sqrt(m)))
    return base ** math.log2(3) * (math.sqrt(m) + ell / math.sqrt(m))


def thm11_polyeval(n: float, p: float, m: float, ell: float) -> float:
    """Theorem 11: ``pn/sqrt(m) + p sqrt(m) + (n/m) l``."""
    return p * n / math.sqrt(m) + p * math.sqrt(m) + (n / m) * ell


def predicted_parallel_time(n: float, m: float, ell: float, p: int) -> float:
    """Theorem 2 on ``p`` tensor units (the §6 extension): the ``n/m``
    independent grid calls run in waves of ``p``, each wave costing one
    ``sqrt(n) sqrt(m) + l`` call; calls floor at 1 per unit."""
    calls = max(n / m, 1.0)
    waves = max(calls / p, 1.0)
    return waves * (math.sqrt(n) * math.sqrt(m) + ell)


THEOREM_FORMULAS = {
    "thm1": thm1_strassen_like_mm,
    "thm2": thm2_dense_mm,
    "cor1": cor1_rectangular_mm,
    "thm3": thm3_sparse_mm,
    "thm4": thm4_gaussian_elimination,
    "thm5": thm5_transitive_closure,
    "thm6": thm6_apsd,
    "thm7": thm7_dft,
    "thm8": thm8_stencil,
    "thm9": thm9_integer_mul,
    "thm10": thm10_karatsuba,
    "thm11": thm11_polyeval,
}
