"""All-pairs shortest distances via Seidel's algorithm (Theorem 6).

Seidel's algorithm for an unweighted undirected graph G: square the
graph (``G2`` connects u, v iff they are adjacent or share a
neighbour), recursively compute the distance matrix ``D2`` of ``G2``,
then decide the parity of every distance with one more product
``C = D2 @ A``: ``d(u,v) = 2*d2(u,v)`` if ``C[u,v] >= deg(v) * D2[u,v]``
and ``2*d2(u,v) - 1`` otherwise.  The recursion bottoms out when the
squared graph is complete.

There are ``O(log n)`` levels, each performing two ``n x n`` products,
executed here with the Strassen-like TCU algorithm of Theorem 1, so

    T(n) = O( (n^2 / m)^{omega0} (m + l) log n ).

The algorithm requires a *connected* graph; :func:`apsd` therefore
splits the input into connected components (an O(n^2) RAM-model
sweep), runs Seidel per component, and reports cross-component
distances as ``inf``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.machine import TCUMachine
from ..matmul.strassen import STRASSEN_2X2, BilinearAlgorithm, strassen_like_mm

__all__ = ["apsd", "seidel", "SeidelStats"]


@dataclass
class SeidelStats:
    """Diagnostics: recursion depth and tensor products per level."""

    depth: int = 0
    products: int = 0
    component_sizes: list[int] = field(default_factory=list)


def _square_graph(
    tcu: TCUMachine, A: np.ndarray, algorithm: BilinearAlgorithm
) -> np.ndarray:
    """Adjacency matrix of G^2 (paths of length <= 2, no self loops)."""
    n = A.shape[0]
    B = strassen_like_mm(tcu, A, A, algorithm=algorithm)
    A2 = ((B > 0) | (A > 0)).astype(np.int64)
    np.fill_diagonal(A2, 0)
    tcu.charge_cpu(3 * n * n)
    return A2


def seidel(
    tcu: TCUMachine,
    adjacency: np.ndarray,
    *,
    algorithm: BilinearAlgorithm = STRASSEN_2X2,
    stats: SeidelStats | None = None,
) -> np.ndarray:
    """Distance matrix of a *connected* unweighted undirected graph.

    The iterated-squaring levels are inherently sequential (each
    squared graph feeds the next recursion), so each level's two
    products go through the plan/execute layer one at a time — their
    Strassen leaves are planned and batched together.

    Raises ``ValueError`` if the graph is disconnected (detected when
    the recursion exceeds the ceil(log2 n) + 1 levels a connected graph
    can need) or the adjacency matrix is not symmetric 0/1.
    """
    if tcu.execute == "cost-only":
        raise ValueError(
            "Seidel's recursion depth depends on the squared-graph values, "
            "so execute='cost-only' cannot reproduce its charges; use a "
            "numeric machine (the fused executor still batches its leaves)"
        )
    A = np.asarray(adjacency)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"adjacency must be square, got {A.shape}")
    if not np.array_equal(A, A.T):
        raise ValueError("Seidel's algorithm requires an undirected (symmetric) graph")
    if not np.isin(np.unique(A), (0, 1)).all():
        raise ValueError("adjacency entries must be 0/1")
    A = A.astype(np.int64)
    np.fill_diagonal(A, 0)
    n = A.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    if n == 1:
        return np.zeros((1, 1))
    max_depth = int(np.ceil(np.log2(n))) + 1
    return _seidel_rec(tcu, A, algorithm, stats, 0, max_depth)


def _seidel_rec(
    tcu: TCUMachine,
    A: np.ndarray,
    algorithm: BilinearAlgorithm,
    stats: SeidelStats | None,
    depth: int,
    max_depth: int,
) -> np.ndarray:
    n = A.shape[0]
    if stats is not None:
        stats.depth = max(stats.depth, depth)
    # Base case: the squared graph chain reached the complete graph.
    off_diag_complete = A.sum() == n * (n - 1)
    tcu.charge_cpu(n * n)
    if off_diag_complete:
        D = np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)
        tcu.charge_cpu(n * n)
        return D
    if depth >= max_depth:
        raise ValueError(
            "recursion exceeded the connected-graph bound: "
            "the input graph is disconnected (use apsd() for components)"
        )
    A2 = _square_graph(tcu, A, algorithm)
    if stats is not None:
        stats.products += 1
    D2 = _seidel_rec(tcu, A2, algorithm, stats, depth + 1, max_depth)
    C = strassen_like_mm(tcu, D2.astype(np.int64), A, algorithm=algorithm)
    if stats is not None:
        stats.products += 1
    deg = A.sum(axis=0)
    tcu.charge_cpu(n * n)
    # d(u,v) = 2 d2(u,v) - [ C[u,v] < deg(v) * d2(u,v) ]
    odd = C < D2 * deg[None, :]
    D = 2 * D2 - odd.astype(np.int64)
    np.fill_diagonal(D, 0)
    tcu.charge_cpu(4 * n * n)
    return D


def apsd(
    tcu: TCUMachine,
    adjacency: np.ndarray,
    *,
    algorithm: BilinearAlgorithm = STRASSEN_2X2,
    stats: SeidelStats | None = None,
) -> np.ndarray:
    """All-pairs shortest distances of an unweighted undirected graph.

    Disconnected inputs are handled by running Seidel on each connected
    component; unreachable pairs get ``inf`` in the returned float64
    matrix.
    """
    A = np.asarray(adjacency)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"adjacency must be square, got {A.shape}")
    n = A.shape[0]
    if n == 0:
        return np.zeros((0, 0))

    # Connected components by BFS over the adjacency matrix: O(n^2) RAM work.
    labels = np.full(n, -1, dtype=np.int64)
    comp = 0
    for start in range(n):
        if labels[start] != -1:
            continue
        frontier = [start]
        labels[start] = comp
        while frontier:
            u = frontier.pop()
            for v in np.nonzero(A[u])[0]:  # repro-lint: disable=COST001 -- component discovery is value-dependent by design; seidel() below rejects cost-only machines for exactly this reason
                if labels[v] == -1:
                    labels[v] = comp
                    frontier.append(int(v))
        comp += 1
    tcu.charge_cpu(n * n)

    D = np.full((n, n), np.inf)
    for c in range(comp):
        idx = np.nonzero(labels == c)[0]  # repro-lint: disable=COST001 -- value-dependent by design; seidel() below rejects cost-only machines
        if stats is not None:
            stats.component_sizes.append(len(idx))
        sub = A[np.ix_(idx, idx)]
        tcu.charge_cpu(len(idx) * len(idx))
        Dsub = seidel(tcu, sub, algorithm=algorithm, stats=stats)
        D[np.ix_(idx, idx)] = Dsub
        tcu.charge_cpu(len(idx) * len(idx))
    return D
