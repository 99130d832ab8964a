"""Execution-path equivalence: planned-unfused, planned-fused and
cost-only runs of every algorithm must charge bit-identical ledger
totals, call counts, per-shape traces and section times.

Two invariants are pinned down, matching the planner's documented
semantics:

* the executor variant never changes a charge: ``fused=True`` ==
  ``fused=False`` == ``execute="cost-only"``;
* the eager per-call schedule (the oracles of ``eager_oracles``) equals
  the planned path whenever the planner has nothing to merge (a lone
  Theorem 2 product, Strassen, DFT); the closure's planned path
  intentionally merges two segment calls per pivot column (fewer
  latencies), and there cost-only must track the numeric run.

All machine parameters that alter the charge structure are swept:
latency, complex-cost factors, hardware row bounds and sections.
"""

import numpy as np
import pytest
from eager_oracles import eager_batched_dft, eager_strassen, per_call_matmul

from repro.core.ledger import CostLedger
from repro.core.machine import TCUMachine, placeholder
from repro.core.parallel import ParallelTCUMachine
from repro.core.program import TensorProgram, run_program
from repro.extmem.simulate import simulate_ledger_io
from repro.graph.closure import transitive_closure
from repro.matmul.dense import matmul, matmul_lazy
from repro.matmul.strassen import strassen_like_mm
from repro.transform.dft import batched_dft


def ledger_fingerprint(tcu, sections=()):
    led = tcu.ledger
    return (
        led.snapshot(),
        led.call_shape_totals(),
        {name: led.section_time(name) for name in sections},
    )


MACHINES = {
    "base": dict(m=16, ell=100.0),
    "zero-latency": dict(m=64, ell=0.0),
    "split-stream": dict(m=16, ell=32.0, max_rows=64),
    "complex-cost": dict(m=16, ell=16.0, complex_cost_factor=4),
}


def make(kind, **extra):
    return TCUMachine(**MACHINES[kind], **extra)


@pytest.mark.parametrize("kind", list(MACHINES))
@pytest.mark.parametrize("shape", [(40, 40, 40), (96, 32, 17), (9, 50, 23)])
def test_dense_paths_agree(kind, shape):
    rng = np.random.default_rng(hash((kind, shape)) % 2**32)
    p, q, r = shape
    A = rng.random((p, q))
    B = rng.random((q, r))
    if kind == "complex-cost":
        A = A + 1j * rng.random((p, q))
    eager = make(kind)
    with eager.section("mm"):
        C_eager = per_call_matmul(eager, A, B)
    fused = make(kind)
    with fused.section("mm"):
        C_fused = matmul(fused, A, B)
    cost = make(kind, execute="cost-only")
    with cost.section("mm"):
        C_cost = matmul(cost, A, B)
    assert np.allclose(C_eager, A @ B) and np.allclose(C_fused, A @ B)
    assert C_cost.shape == (p, r)
    fp = ledger_fingerprint(eager, ["mm"])
    assert ledger_fingerprint(fused, ["mm"]) == fp
    assert ledger_fingerprint(cost, ["mm"]) == fp


@pytest.mark.parametrize("n", [256, 512])
def test_exec_path_bench_shapes_match_the_per_call_oracle(n):
    """The shapes ``bench_exec_paths`` and ``run_all.exec_path_comparison``
    time (m = 256, l = 32): the fused and cost-only products charge the
    per-call schedule's ledger, which those benches no longer run."""
    rng = np.random.default_rng(n)
    A = rng.random((n, n))
    B = rng.random((n, n))
    eager = TCUMachine(m=256, ell=32.0)
    C_eager = per_call_matmul(eager, A, B)
    fused = TCUMachine(m=256, ell=32.0)
    C_fused = matmul(fused, A, B)
    cost = TCUMachine(m=256, ell=32.0, execute="cost-only")
    matmul(cost, A, B)
    assert np.allclose(C_fused, C_eager)
    fp = ledger_fingerprint(eager)
    assert ledger_fingerprint(fused) == fp
    assert ledger_fingerprint(cost) == fp


@pytest.mark.parametrize("kind", ["base", "split-stream"])
def test_dense_unfused_program_agrees(kind):
    rng = np.random.default_rng(11)
    A = rng.random((48, 32))
    B = rng.random((32, 48))
    reference = make(kind)
    per_call_matmul(reference, A, B)

    for fused in (True, False):
        tcu = make(kind)
        program = TensorProgram()
        lazy = matmul_lazy(tcu, program, A, B)
        run_program(program, tcu, fused=fused)
        assert np.allclose(lazy.result(), A @ B)
        assert ledger_fingerprint(tcu) == ledger_fingerprint(reference)


@pytest.mark.parametrize("kind", ["base", "zero-latency"])
def test_strassen_paths_agree(kind):
    rng = np.random.default_rng(5)
    A = rng.random((40, 40))
    B = rng.random((40, 40))
    eager = make(kind)
    C_eager = eager_strassen(eager, A, B)
    fused = make(kind)
    C_fused = strassen_like_mm(fused, A, B)
    cost = make(kind, execute="cost-only")
    C_cost = strassen_like_mm(cost, A, B)
    assert np.allclose(C_eager, A @ B) and np.allclose(C_fused, A @ B)
    assert C_cost.shape == (40, 40)
    fp = ledger_fingerprint(eager)
    assert ledger_fingerprint(fused) == fp
    assert ledger_fingerprint(cost) == fp


@pytest.mark.parametrize("kind", ["base", "complex-cost", "split-stream"])
def test_dft_paths_agree(kind):
    rng = np.random.default_rng(9)
    X = rng.random((4, 64)) + 1j * rng.random((4, 64))
    eager = make(kind)
    F_eager = eager_batched_dft(eager, X)
    fused = make(kind)
    F_fused = batched_dft(fused, X)
    cost = make(kind, execute="cost-only")
    F_cost = batched_dft(cost, X)
    assert np.allclose(F_eager, np.fft.fft(X))
    assert np.allclose(F_fused, np.fft.fft(X))
    assert F_cost.shape == X.shape
    fp = ledger_fingerprint(eager)
    assert ledger_fingerprint(fused) == fp
    assert ledger_fingerprint(cost) == fp


def test_closure_cost_only_tracks_numeric():
    rng = np.random.default_rng(3)
    n = 37
    adj = (rng.random((n, n)) < 0.1).astype(np.int64)
    np.fill_diagonal(adj, 0)
    numeric = TCUMachine(m=16, ell=50.0)
    closure = transitive_closure(numeric, adj)
    cost = TCUMachine(m=16, ell=50.0, execute="cost-only")
    transitive_closure(cost, adj)
    assert ledger_fingerprint(cost) == ledger_fingerprint(numeric)
    # reachability sanity on the numeric result
    assert np.array_equal(closure, closure | (closure @ closure > 0))


def test_closure_fused_matches_unfused_executor(monkeypatch):
    import repro.graph.closure as closure_mod

    rng = np.random.default_rng(4)
    n = 29
    adj = (rng.random((n, n)) < 0.15).astype(np.int64)
    np.fill_diagonal(adj, 0)
    fused = TCUMachine(m=16, ell=25.0)
    R_fused = transitive_closure(fused, adj)

    orig = run_program
    monkeypatch.setattr(
        closure_mod,
        "run_program",
        lambda program, machine, **kw: orig(program, machine, fused=False, **kw),
    )
    unfused = TCUMachine(m=16, ell=25.0)
    R_unfused = transitive_closure(unfused, adj)
    assert np.array_equal(R_fused, R_unfused)
    assert ledger_fingerprint(fused) == ledger_fingerprint(unfused)


def test_parallel_fused_and_cost_only_agree():
    rng = np.random.default_rng(6)
    W = rng.random((4, 4))
    streams = [rng.random((16, 4)) for _ in range(9)]

    def build(machine):
        program = TensorProgram()
        # distinct resident blocks so nothing merges and the level
        # batches across units
        blocks = [W + i for i in range(len(streams))]
        ops = [program.mm(Xi, Bi) for Xi, Bi in zip(streams, blocks)]
        return program, ops

    numeric = ParallelTCUMachine(m=16, ell=40.0, units=3)
    prog, ops = build(numeric)
    run_program(prog, numeric)
    cost = ParallelTCUMachine(m=16, ell=40.0, units=3, execute="cost-only")
    prog_c, ops_c = build(cost)
    run_program(prog_c, cost)
    assert ledger_fingerprint(cost) == ledger_fingerprint(numeric)
    assert numeric.last_batch.makespan == cost.last_batch.makespan
    assert all(op.result().shape == (16, 4) for op in ops_c)
    assert np.allclose(ops[0].result(), streams[0] @ (W + 0))


def test_parallel_equal_cost_fast_path_matches_heap():
    # make the costs unequal to force the heap, then compare with an
    # equal-cost batch computed by the round-robin fast path
    rng = np.random.default_rng(8)
    mixed = ParallelTCUMachine(m=16, ell=10.0, units=3)
    pairs = [(rng.random((16 + 4 * i, 4)), rng.random((4, 4))) for i in range(7)]
    mixed.mm_batch(pairs)
    serial = sum(A.shape[0] * 4 + 10.0 for A, _ in pairs)
    assert mixed.last_batch.serial_time == serial
    assert mixed.last_batch.makespan <= serial

    equal = ParallelTCUMachine(m=16, ell=10.0, units=3)
    equal.mm_batch([(rng.random((16, 4)), rng.random((4, 4))) for _ in range(7)])
    # 7 equal calls on 3 units -> ceil(7/3) = 3 rounds on the fullest unit
    assert equal.last_batch.makespan == 3 * (16 * 4 + 10.0)
    assert equal.last_batch.units_used == 3


def test_theorem12_replay_identical_across_paths():
    rng = np.random.default_rng(12)
    A = rng.random((64, 48))
    B = rng.random((48, 32))
    numeric = TCUMachine(m=16, ell=8.0)
    matmul(numeric, A, B)
    cost = TCUMachine(m=16, ell=8.0, execute="cost-only")
    matmul(cost, A, B)
    aggregate = TCUMachine(m=16, ell=8.0, execute="cost-only", trace_calls="aggregate")
    matmul(aggregate, A, B)
    io = simulate_ledger_io(numeric.ledger)
    assert simulate_ledger_io(cost.ledger) == io
    assert simulate_ledger_io(aggregate.ledger) == io
    assert io.tensor_ios > 0 and io.io_per_time > 0


def test_cost_only_scales_past_numeric_memory():
    # a sweep point whose numeric operands would need ~200 GB: the
    # cost-only path charges it from placeholders in O(#calls) work
    n = 160_000
    tcu = TCUMachine(m=65536, ell=1e5, execute="cost-only")
    A = placeholder((n, n))
    B = placeholder((n, n))
    C = matmul(tcu, A, B)
    assert C.shape == (n, n) and C.strides == (0, 0)
    s = tcu.sqrt_m
    calls = (n // s) ** 2
    assert tcu.ledger.tensor_calls == calls
    assert tcu.ledger.latency_time == calls * 1e5
    assert tcu.ledger.tensor_time == float(calls) * n * s


def test_aggregate_trace_mode_matches_full_under_fusion():
    rng = np.random.default_rng(13)
    A = rng.random((32, 32))
    B = rng.random((32, 32))
    full = TCUMachine(m=16, ell=4.0, trace_calls=True)
    matmul(full, A, B)
    agg_ledger = CostLedger(trace_calls="aggregate")
    agg = TCUMachine(m=16, ell=4.0, ledger=agg_ledger)
    matmul(agg, A, B)
    assert full.ledger.snapshot() == agg.ledger.snapshot()
    assert full.ledger.call_shape_totals() == agg.ledger.call_shape_totals()
