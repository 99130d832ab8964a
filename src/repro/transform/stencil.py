"""Linear stencil computations on the TCU (Theorem 8, Lemmas 1-2).

A linear (n, k)-stencil evolves a ``sqrt(n) x sqrt(n)`` matrix for k
sweeps, each cell becoming a fixed linear combination of its 3x3
neighbourhood (e.g. the discretised 2-D heat equation).  The evolution
is over the zero-extended plane: cells outside the input grid start at
zero and evolve too (that is the semantics under which the paper's
unrolled identity ``A_k[i,j] = sum_{|a|,|b|<=k} W[k+a, k+b] A[i+a, j+b]``
holds); the output is read back on the original grid.

The TCU algorithm (Lemma 1):

1. unroll the k sweeps into one ``(2k+1) x (2k+1)`` weight matrix W —
   computed by Lemma 2 as the k-th power of the one-step kernel
   polynomial via squaring, each squaring a TCU convolution, in
   ``O(k^2 log_m k + l log k)`` time;
2. split the input into ``k x k`` tiles; the 3x3 block of neighbouring
   tiles (a ``3k x 3k`` window) determines each output tile;
3. correlate every window with W by one *batched* FFT convolution —
   all ``Theta(n/k^2)`` tile transforms ride in the same tall tensor
   operands, so the whole stencil costs

       T(n, k) = O( n log_m k + l log k ).

The direct baseline (:func:`stencil_direct`) performs the k sweeps
explicitly in ``Theta(n k)`` RAM time and is the correctness oracle.
"""

from __future__ import annotations

import numpy as np

from ..core.machine import TCUMachine
from ..core.program import check_split
from .convolution import batched_circular_convolve2d, dft2, idft2

__all__ = [
    "stencil_direct",
    "stencil_tcu",
    "unrolled_weights",
    "unrolled_weights_direct",
    "heat_equation_weights",
    "window_geometry",
    "extract_windows",
    "assemble_tiles",
    "HEAT_3X3",
]


def heat_equation_weights(
    alpha: float = 0.1, dt: float = 1.0, dx: float = 1.0, dy: float = 1.0
) -> np.ndarray:
    """The 3x3 kernel of the discretised 2-D heat equation (Section 4.6)."""
    rx = alpha * dt / (dx * dx)
    ry = alpha * dt / (dy * dy)
    W = np.zeros((3, 3))
    W[1, 1] = 1.0 - 2.0 * rx - 2.0 * ry
    W[0, 1] = rx  # A[x-1, y]
    W[2, 1] = rx  # A[x+1, y]
    W[1, 0] = ry  # A[x, y-1]
    W[1, 2] = ry  # A[x, y+1]
    return W


HEAT_3X3 = heat_equation_weights()


def _check_kernel(weights: np.ndarray) -> np.ndarray:
    W = np.asarray(weights, dtype=np.float64)
    if W.shape != (3, 3):
        raise ValueError(f"one-step stencil kernel must be 3x3, got {W.shape}")
    return W


def stencil_direct(
    tcu: TCUMachine, A: np.ndarray, weights: np.ndarray, k: int
) -> np.ndarray:
    """k explicit sweeps over the zero-extended plane; Theta(n*k) RAM time.

    The working array is padded by k on each side so the evolving halo
    never reaches the boundary (influence spreads one cell per sweep).
    """
    W = _check_kernel(weights)
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError(f"stencil input must be 2-D, got {A.ndim}-D")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k == 0:
        return A.copy()
    rows, cols = A.shape
    cur = np.zeros((rows + 2 * k, cols + 2 * k))
    cur[k : k + rows, k : k + cols] = A
    tcu.charge_cpu(cur.size)
    for _ in range(k):
        nxt = np.zeros_like(cur)
        # update function f: sum of the 9 shifted neighbourhood terms
        for a in (-1, 0, 1):
            for b in (-1, 0, 1):
                w = W[1 + a, 1 + b]
                if w == 0.0:
                    continue
                src = cur[
                    max(0, a) : cur.shape[0] + min(0, a),
                    max(0, b) : cur.shape[1] + min(0, b),
                ]
                nxt[
                    max(0, -a) : cur.shape[0] + min(0, -a),
                    max(0, -b) : cur.shape[1] + min(0, -b),
                ] += w * src
        tcu.charge_cpu(9 * cur.size)
        cur = nxt
    return cur[k : k + rows, k : k + cols]


def unrolled_weights_direct(
    tcu: TCUMachine, weights: np.ndarray, k: int
) -> np.ndarray:
    """Lemma 2's trivial O(k^3) unrolling: k successive 3x3 correlations."""
    W = _check_kernel(weights)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    out = np.zeros((1, 1))
    out[0, 0] = 1.0
    for _step in range(k):
        side = out.shape[0] + 2
        nxt = np.zeros((side, side))
        for a in (-1, 0, 1):
            for b in (-1, 0, 1):
                nxt[
                    1 + a : 1 + a + out.shape[0], 1 + b : 1 + b + out.shape[1]
                ] += W[1 + a, 1 + b] * out
        tcu.charge_cpu(9 * side * side)
        out = nxt
    return out


def _next_fft_size(minimum: int, sqrt_m: int) -> int:
    """Smallest power of two >= minimum that the TCU DFT accepts.

    When sqrt(m) is a power of two every power of two works; otherwise
    sizes <= sqrt(m) always work, and larger sizes must be sqrt(m)-smooth
    — we multiply by sqrt(m) until past the minimum in that case.
    """
    if sqrt_m & (sqrt_m - 1) == 0:
        size = 1
        while size < minimum:
            size *= 2
        return size
    size = 1
    while size < minimum:
        size *= sqrt_m
    return size


def _convolve_squares(
    tcu: TCUMachine,
    P: np.ndarray,
    Q: np.ndarray,
    *,
    split: str | int = "auto",
) -> np.ndarray:
    """Full linear 2-D convolution of two centred odd-side coefficient
    arrays (a bivariate polynomial product).

    Both operands are treated as coefficient arrays with the origin at
    index [0, 0]; the product is their linear convolution, of side
    ``p + q - 1``, which is again the centred array of the product
    polynomial.  Computed via one circular TCU convolution at
    ``S = next_fft_size(p + q - 1)`` — no wraparound since both factors
    fit strictly inside S — or directly in ``O(p^2 q^2)`` RAM work when
    the operands are small enough that the transform constant loses.
    """
    p, q = P.shape[0], Q.shape[0]
    side = p + q - 1
    # Direct convolution wins below the transform's constant overhead.
    if p * p * q * q <= 32 * side * side:
        out = np.zeros((side, side))
        for a in range(p):
            for b in range(p):
                if P[a, b] != 0.0:
                    out[a : a + q, b : b + q] += P[a, b] * Q
        tcu.charge_cpu(p * p * q * q)
        return out
    S = _next_fft_size(side, tcu.sqrt_m)
    Pg = np.zeros((1, S, S))
    Qg = np.zeros((1, S, S))
    Pg[0, :p, :p] = P
    Qg[0, :q, :q] = Q
    tcu.charge_cpu(2 * S * S)
    prod = dft2(tcu, Pg, split=split) * dft2(tcu, Qg, split=split)
    tcu.charge_cpu(S * S)
    out = idft2(tcu, prod, split=split)[0].real
    tcu.charge_cpu(S * S)
    return np.ascontiguousarray(out[:side, :side])


def unrolled_weights(
    tcu: TCUMachine,
    weights: np.ndarray,
    k: int,
    *,
    split: str | int = "auto",
) -> np.ndarray:
    """Lemma 2: the (2k+1) x (2k+1) unrolled weight matrix W = P^k.

    The one-step kernel is a bivariate polynomial P(x, y); W collects
    the coefficients of P^k, computed by repeated squaring where each
    polynomial product is a TCU convolution of geometrically growing
    size — ``O(k^2 log_m k + l log k)`` model time.  The squarings are
    inherently sequential (each feeds the next), so the plan/execute
    layer works within one convolution at a time.
    """
    check_split(split)
    W = _check_kernel(weights)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    # Exponentiation by squaring over centred 2-D coefficient arrays.
    result: np.ndarray | None = None
    base = W
    e = k
    while e > 0:
        if e & 1:
            result = (
                base.copy()
                if result is None
                else _convolve_squares(tcu, result, base, split=split)
            )
        e >>= 1
        if e:
            base = _convolve_squares(tcu, base, base, split=split)
    assert result is not None
    expected = 2 * k + 1
    if result.shape[0] != expected:  # pragma: no cover - defensive
        raise AssertionError(
            f"unrolled kernel has side {result.shape[0]}, expected {expected}"
        )
    return result


def window_geometry(
    rows: int, cols: int, k: int, sqrt_m: int
) -> tuple[int, int, int, int]:
    """Tile/window geometry of the Theorem 8 decomposition.

    The paper uses k x k tiles inside 3k x 3k windows (overlap factor
    9); we keep the same asymptotics but take the FFT size S first and
    let the output tile fill everything the k-halo leaves free,
    ``t = S - 2k``, shrinking the overlap factor to ``(S/t)^2`` (< 2 for
    S >= 6k).  S is also capped near the input size so small grids get a
    single window.  Returns ``(S, t, rb, cb)``: the FFT side, the output
    tile side, and the tile-block counts per grid dimension.  Shared by
    :func:`stencil_tcu` and the serving layer's planned lowering, so the
    two decompose (hence charge) identically.
    """
    cap = _next_fft_size(max(rows, cols) + 2 * k, sqrt_m)
    best = None
    S = _next_fft_size(2 * k + 1, sqrt_m)
    while True:
        t_cand = S - 2 * k
        if t_cand >= 1:
            area = (-(-rows // t_cand)) * (-(-cols // t_cand)) * S * S
            if best is None or area < best[0]:
                best = (area, S, t_cand)
        if S >= cap:
            break
        S = _next_fft_size(S + 1, sqrt_m)
    assert best is not None
    _, S, t = best
    return S, t, -(-rows // t), -(-cols // t)


def extract_windows(
    grid: np.ndarray, S: int, t: int, k: int, rb: int, cb: int
) -> np.ndarray:
    """Gather the (rb*cb, S, S) halo windows of a padded grid.

    Window (r, c) covers grid rows ``[r*t - k, r*t + t + k)`` — exactly
    S rows — so output cell x of the tile sits at window index ``k + x``
    and its k-halo never wraps.  Pure data movement; the caller charges.
    """
    rpad, cpad = grid.shape
    windows = np.zeros((rb * cb, S, S))
    for r in range(rb):
        for c in range(cb):
            r0 = max(0, r * t - k)
            r1 = min(rpad, r * t + t + k)
            c0 = max(0, c * t - k)
            c1 = min(cpad, c * t + t + k)
            dst_r = r0 - (r * t - k)
            dst_c = c0 - (c * t - k)
            windows[
                r * cb + c, dst_r : dst_r + (r1 - r0), dst_c : dst_c + (c1 - c0)
            ] = grid[r0:r1, c0:c1]
    return windows


def assemble_tiles(
    conv: np.ndarray, t: int, k: int, rb: int, cb: int
) -> np.ndarray:
    """Scatter the convolved windows' interior tiles back to a grid
    (the inverse of :func:`extract_windows`, dropping the halos)."""
    out = np.zeros((rb * t, cb * t))
    for r in range(rb):
        for c in range(cb):
            tile = conv[r * cb + c, k : k + t, k : k + t]
            out[r * t : (r + 1) * t, c * t : (c + 1) * t] = tile
    return out


def stencil_tcu(
    tcu: TCUMachine,
    A: np.ndarray,
    weights: np.ndarray,
    k: int,
    *,
    precomputed_W: np.ndarray | None = None,
    split: str | int = "auto",
) -> np.ndarray:
    """Theorem 8: evolve a linear stencil k sweeps in ``O(n log_m k + l log k)``.

    Parameters
    ----------
    A:
        The ``sqrt(n) x sqrt(n)`` initial grid (any rectangle works; it
        is padded to a multiple of k per side).
    weights:
        The 3x3 one-step kernel.
    k:
        Number of sweeps (>= 1).
    precomputed_W:
        Skip Lemma 2 and use this unrolled ``(2k+1) x (2k+1)`` kernel
        (the ablation benches use it to separate the two phases).
    split:
        Planner split policy, threaded down through the convolution and
        DFT layers (``"auto"`` scales merged transform streams across
        parallel units; ``1`` pins the legacy one-call-per-group
        schedule).
    """
    check_split(split)
    Wstep = _check_kernel(weights)
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError(f"stencil input must be 2-D, got {A.ndim}-D")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    if precomputed_W is not None:
        W = precomputed_W
    else:
        W = unrolled_weights(tcu, Wstep, k, split=split)
    if W.shape != (2 * k + 1, 2 * k + 1):
        raise ValueError(
            f"unrolled kernel must be {(2*k+1, 2*k+1)}, got {W.shape}"
        )

    rows, cols = A.shape
    S, t, rb, cb = window_geometry(rows, cols, k, tcu.sqrt_m)
    rpad, cpad = rb * t, cb * t
    grid = np.zeros((rpad, cpad))
    grid[:rows, :cols] = A
    tcu.charge_cpu(rpad * cpad)

    T = rb * cb
    windows = extract_windows(grid, S, t, k, rb, cb)
    tcu.charge_cpu(T * S * S)

    # One batched correlation of all windows against W (Lemma 1).
    conv = batched_circular_convolve2d(tcu, windows, W, split=split)

    out = assemble_tiles(conv, t, k, rb, cb)
    tcu.charge_cpu(rpad * cpad)
    return out[:rows, :cols]
