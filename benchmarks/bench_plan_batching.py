"""E20 (extension) — planner call-merging on latency-bound workloads.

The plan/execute split (:mod:`repro.core.program`) exists to amortise
the per-call latency ``l``: k independent tall products that share one
resident right-hand block cost ``k (n sqrt(m) + l)`` eagerly but
``k n sqrt(m) + l`` once the planner merges them — the Theorem 2
amortisation applied *across* products.  This bench measures that gap
on an inference-style workload (many request batches against one weight
block) for machines with small ``sqrt(m)`` and large ``l`` (the
latency-bound corner, e.g. a tiny unit behind a slow bus), checks the
planned run stays cost-equivalent when ``l = 0``, and records the
planner's own wall-clock overhead per operation so the model-time win
can be weighed against real scheduling cost.

Sequential-machine model-time identity is asserted exactly:

* merged tensor throughput  == eager tensor throughput,
* merged latency            == latency of one call per resident block,
* speedup                   -> (2 n sqrt(m) + l) / (2 n sqrt(m) + l / k)
  (throughput + accumulation per product; latency amortised k ways).
"""

import time

import numpy as np

from repro import TCUMachine, TensorProgram, matmul, matmul_lazy, run_program
from repro.analysis.tables import render_table


def _workload(rng, k: int, n: int, s: int):
    """k request batches (n x s) against one resident s x s weight block."""
    W = rng.random((s, s))
    return [rng.random((n, s)) for _ in range(k)], W


def _eager_time(streams, W, m, ell) -> float:
    """One product per stream: a lone product has nothing to merge, so
    each pays its own latency, as an eager per-call schedule does."""
    tcu = TCUMachine(m=m, ell=ell)
    for X in streams:
        matmul(tcu, X, W)
    return tcu.time


def _planned(streams, W, m, ell):
    """Planned model time plus the planner's wall-clock overhead."""
    tcu = TCUMachine(m=m, ell=ell)
    program = TensorProgram()
    t0 = time.perf_counter()
    outs = [matmul_lazy(tcu, program, X, W) for X in streams]
    plan = run_program(program, tcu)
    results = [lazy.result() for lazy in outs]
    wall = time.perf_counter() - t0
    return tcu, plan, results, wall


def test_plan_batching_latency_bound(benchmark, rng, record):
    m, s = 16, 4
    n, k = 64, 32
    streams, W = _workload(rng, k, n, s)
    benchmark(lambda: _planned(streams, W, m, 1e4)[0])

    rows = []
    for ell in (0.0, 1e2, 1e4, 1e6):
        eager_time = _eager_time(streams, W, m, ell)
        tcu, plan, results, wall = _planned(streams, W, m, ell)
        for X, C in zip(streams, results):
            assert np.allclose(C, X @ W)
        # cost-equivalent or cheaper, exactly one latency for the block
        assert tcu.time <= eager_time
        assert tcu.ledger.latency_time == ell
        assert tcu.ledger.tensor_time == k * n * s
        assert plan.stats.merged_away == k - 1
        speedup = eager_time / tcu.time
        # per product: n*s throughput + n*s accumulation + its latency
        # share (l eagerly, l/k planned)
        predicted = (2 * n * s + ell) / (2 * n * s + ell / k)
        assert 0.8 * predicted <= speedup <= 1.25 * predicted
        rows.append(
            [
                f"{ell:g}",
                plan.stats.mm_ops,
                plan.stats.tensor_calls_planned,
                f"{eager_time:g}",
                f"{tcu.time:g}",
                f"{speedup:.2f}x",
                f"{1e6 * wall / plan.stats.ops:.1f}",
            ]
        )

    # the latency-bound corner is where merging matters: at l = 1e6 the
    # planned run is ~k times faster, at l = 0 it is exactly break-even
    assert rows[0][5] == "1.00x"
    record(
        "e20_plan_batching",
        render_table(
            [
                "l",
                "mm ops",
                "planned calls",
                "eager time",
                "planned time",
                "speedup",
                "plan overhead (us/op)",
            ],
            rows,
            title=(
                f"E20 (extension): planner call-merging, k={k} batches of "
                f"{n} rows sharing one weight block, m={m}"
            ),
        ),
    )


def test_plan_overhead_scales_linearly(rng, record):
    """Planner + executor wall clock stays O(ops): growing the program
    10x grows the per-op overhead by far less than 10x."""
    m, s, n = 16, 4, 16
    per_op = []
    for k in (32, 320):
        streams, W = _workload(rng, k, n, s)
        best = min(_planned(streams, W, m, 1.0)[3] for _ in range(3))
        per_op.append(best / (2 * k))  # k mm nodes + k add nodes
    assert per_op[1] < per_op[0] * 5
    record(
        "e20_plan_overhead",
        render_table(
            ["program ops", "wall us/op"],
            [[2 * k, f"{1e6 * t:.2f}"] for k, t in zip((32, 320), per_op)],
            title="E20b: planner overhead scaling (sequential machine)",
        ),
    )
