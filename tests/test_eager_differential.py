"""Generated-input differential test: the planned kernels against the
eager per-call oracles of ``eager_oracles``.

Shapes, cutoffs, batch sizes, transform lengths, graphs and split
policies are drawn by Hypothesis; machines are the four
``test_path_equivalence`` configurations and ``ParallelTCUMachine``
with 2 to 4 units.  Outputs must agree with the oracle on every run.
Charges are compared exactly:

* sequential machines, Strassen and the DFT (nothing merges): the
  ledger snapshot, per-shape call totals and section time equal the
  oracle's;
* the closure merges the above and below segment calls of every
  interior pivot ``0 < k < nb - 1`` and column ``j != k``: per such pair
  one tensor call and one latency fewer, every other counter equal;
* parallel machines advance the clock by scheduled makespans, so the
  per-call trace is compared instead: Strassen's calls carry the
  oracle's throughput (the auto-splitter may cut a call into row
  chunks, each paying its own latency) and its CPU charges equal the
  oracle's; a ``split=1`` DFT's whole ledger equals the oracle's (one
  call per level runs alone); ``split=1`` closure calls carry the same
  throughput and one latency fewer per merged pair.  The clock never
  exceeds the oracle's serial total.

Gaussian elimination sweeps kernels B and C over the whole pivot row
and column; it must equal the block-at-a-time oracle bit for bit, with
the same snapshot, per-shape totals and section time, on every machine
above and on a 2x2-block (``m=4``) one.  The closure's sweeps charge
from shapes on both execution modes, so its cost-only run must charge
the numeric run's ledger on every machine.
"""

import numpy as np
import pytest
from eager_oracles import (
    eager_batched_dft,
    eager_batched_idft,
    eager_strassen,
    per_block_ge_forward,
    per_segment_closure,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.machine import TCUMachine
from repro.core.parallel import ParallelTCUMachine
from repro.graph.closure import transitive_closure
from repro.linalg.gaussian import ge_forward
from repro.matmul.schedule import ceil_to_multiple
from repro.matmul.strassen import CLASSICAL_2X2, STRASSEN_2X2, strassen_like_mm
from repro.transform.dft import batched_dft, batched_idft

SERIAL = {
    "base": dict(m=16, ell=100.0),
    "zero-latency": dict(m=64, ell=0.0),
    "split-stream": dict(m=16, ell=32.0, max_rows=64),
    "complex-cost": dict(m=16, ell=16.0, complex_cost_factor=4),
}
PARALLEL = {f"parallel-{units}": dict(m=16, ell=24.0, units=units) for units in (2, 3, 4)}
MACHINES = sorted(SERIAL) + sorted(PARALLEL)
# 2x2 blocks: each block's last pivot is one that only kernels B and C
# of Gaussian elimination divide by
M4 = dict(m=4, ell=8.0)


def make(kind, **kwargs):
    if kind in PARALLEL:
        return ParallelTCUMachine(**PARALLEL[kind], **kwargs)
    return TCUMachine(**(M4 if kind == "m4" else SERIAL[kind]), **kwargs)


def run(machine, kernel, *args, **kwargs):
    with machine.section("kernel"):
        return kernel(machine, *args, **kwargs)


def fingerprint(machine):
    led = machine.ledger
    return led.snapshot(), led.call_shape_totals(), led.section_time("kernel")


def trace_sums(machine):
    """Per-call trace totals: calls, throughput (time minus latency) and
    latency, summed over every recorded call."""
    _, _, times, lats = machine.ledger.calls.as_arrays()
    return len(times), float(np.sum(times - lats)), float(np.sum(lats))


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(MACHINES),
    side=st.integers(1, 32),
    cutoff=st.sampled_from([None, 1, 3]),
    algorithm=st.sampled_from([STRASSEN_2X2, CLASSICAL_2X2]),
    seed=st.integers(0, 2**16),
)
def test_strassen_matches_eager_recursion(kind, side, cutoff, algorithm, seed):
    rng = np.random.default_rng(seed)
    A = rng.random((side, side))
    B = rng.random((side, side))
    if kind == "complex-cost":
        A = A + 1j * rng.random((side, side))
    planned, eager = make(kind), make(kind)
    if cutoff is not None:
        cutoff *= planned.sqrt_m
    C = run(planned, strassen_like_mm, A, B, algorithm=algorithm, cutoff=cutoff)
    C_ref = run(eager, eager_strassen, A, B, algorithm=algorithm, cutoff=cutoff)
    assert np.allclose(C, A @ B) and np.allclose(C, C_ref)
    if kind in SERIAL:
        assert fingerprint(planned) == fingerprint(eager)
        return
    # the auto-splitter may cut a leaf's tall call into row chunks to
    # balance the units: rows (hence throughput) are conserved, and
    # every extra chunk pays its own latency
    calls, throughput, latency = trace_sums(planned)
    calls_ref, throughput_ref, _ = trace_sums(eager)
    assert throughput == throughput_ref
    assert calls >= calls_ref and latency == calls * planned.ell
    assert planned.ledger.cpu_time == eager.ledger.cpu_time
    assert planned.time <= eager.time


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(MACHINES),
    batch=st.integers(1, 6),
    radix=st.integers(1, 8),
    depth=st.integers(0, 2),
    inverse=st.booleans(),
    split=st.sampled_from(["auto", 1]),
    seed=st.integers(0, 2**16),
)
def test_dft_matches_eager_recursion(kind, batch, radix, depth, inverse, split, seed):
    planned, eager = make(kind), make(kind)
    s = planned.sqrt_m
    size = min(radix, s) * s**depth  # sqrt(m)-smooth, as Theorem 7 needs
    rng = np.random.default_rng(seed)
    X = rng.random((batch, size)) + 1j * rng.random((batch, size))
    if inverse:
        kernel, oracle, want = batched_idft, eager_batched_idft, np.fft.ifft
    else:
        kernel, oracle, want = batched_dft, eager_batched_dft, np.fft.fft
    F = run(planned, kernel, X, split=split)
    F_ref = run(eager, oracle, X)
    assert np.allclose(F, want(X)) and np.allclose(F, F_ref)
    if kind in SERIAL or split == 1:
        assert fingerprint(planned) == fingerprint(eager)
    else:
        assert planned.time <= eager.time


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(MACHINES),
    n=st.integers(0, 40),
    density=st.sampled_from([0.02, 0.1, 0.3]),
    split=st.sampled_from(["auto", 1]),
    seed=st.integers(0, 2**16),
)
def test_closure_merges_exactly_the_interior_segment_pairs(kind, n, density, split, seed):
    rng = np.random.default_rng(seed)
    adj = (rng.random((n, n)) < density).astype(np.int64)
    planned, eager = make(kind), make(kind)
    R = run(planned, transitive_closure, adj, split=split)
    R_ref = run(eager, per_segment_closure, adj)
    assert np.array_equal(R, R_ref)
    # pivot k's two segments merge for every column j != k when both
    # exist, i.e. for every interior pivot 0 < k < nb - 1
    nb = ceil_to_multiple(n, planned.sqrt_m) // planned.sqrt_m
    pairs = max(nb - 2, 0) * (nb - 1)
    ell = planned.ell
    got, want = planned.ledger.snapshot(), eager.ledger.snapshot()
    assert got["cpu_time"] == want["cpu_time"]
    assert got["reload_time"] == want["reload_time"] == 0.0
    assert got["wasted_time"] == want["wasted_time"] == 0.0
    if kind in SERIAL:
        assert got["tensor_calls"] == want["tensor_calls"] - pairs
        assert got["latency_time"] == want["latency_time"] - pairs * ell
        assert got["tensor_time"] == want["tensor_time"]
        saved = eager.ledger.section_time("kernel") - planned.ledger.section_time("kernel")
        assert saved == pairs * ell
        return
    if split == 1:
        calls, throughput, latency = trace_sums(planned)
        calls_ref, throughput_ref, latency_ref = trace_sums(eager)
        assert calls == calls_ref - pairs
        assert throughput == throughput_ref
        assert latency == latency_ref - pairs * ell
    assert planned.time <= eager.time


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from([*MACHINES, "m4"]),
    side=st.integers(1, 40),
    seed=st.integers(0, 2**16),
)
def test_gaussian_sweeps_match_the_per_block_kernels(kind, side, seed):
    rng = np.random.default_rng(seed)
    X = rng.random((side, side)) + side * np.eye(side)  # diagonally dominant
    swept, per_block = make(kind), make(kind)
    U = run(swept, ge_forward, X)
    U_ref = run(per_block, per_block_ge_forward, X)
    assert np.array_equal(U, U_ref)
    assert fingerprint(swept) == fingerprint(per_block)


@pytest.mark.parametrize("kind", MACHINES)
@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(0, 40),
    density=st.sampled_from([0.02, 0.1, 0.3]),
    split=st.sampled_from(["auto", 1]),
    seed=st.integers(0, 2**16),
)
def test_closure_cost_only_charges_the_numeric_ledger(kind, n, density, split, seed):
    rng = np.random.default_rng(seed)
    adj = (rng.random((n, n)) < density).astype(np.int64)
    numeric, cost = make(kind), make(kind, execute="cost-only")
    run(numeric, transitive_closure, adj, split=split)
    run(cost, transitive_closure, adj, split=split)
    assert fingerprint(cost) == fingerprint(numeric)
    assert trace_sums(cost) == trace_sums(numeric)
