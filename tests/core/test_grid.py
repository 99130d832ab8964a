"""Grid nodes: one IR node per Theorem 2 product.

A grid node (``TensorProgram.grid``, emitted by ``matmul_lazy``) must
plan, charge and compute exactly like the per-call emission it replaced
— one ``mm`` per (strip, block) pair and one ``add`` per output block
column — and serial ``matmul``, which runs its one grid unplanned, must
equal the single-contraction fused product it replaced.  Both
predecessors live on here as test-local oracles:

* :func:`emit_per_call` — the Theorem 2 ``mm``/``add`` loop;
* :func:`fused_oracle` — the padded operands' strip-by-block grid as one
  ``tensordot``, charged as the grid's calls plus its strip sums.

Planned runs are compared on the ledger snapshot, per-shape trace
totals, the unit-id trace column, section times, ``plan.splits``,
``plan.modelled_makespans`` and ``PlanStats``, and on output bits.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ParallelTCUMachine, TCUMachine, matmul
from repro.core.machine import WeakTCUMachine, placeholder
from repro.core.program import (
    TensorProgram,
    _resident_key,
    _source_shape,
    plan_program,
    run_program,
)
from repro.matmul.dense import matmul_lazy
from repro.matmul.schedule import (
    ceil_to_multiple,
    pad_matrix,
    padded_copy_cost,
    theorem2_tasks,
)

SERIAL = {
    "base": dict(m=16, ell=100.0),
    "zero-latency": dict(m=64, ell=0.0),
    "split-stream": dict(m=16, ell=32.0, max_rows=64),
    "complex-cost": dict(m=16, ell=16.0, complex_cost_factor=4),
    "tight-rows": dict(m=16, ell=8.0, max_rows=8),
    "overflow-checked": dict(m=16, ell=8.0, check_overflow=True),
}
PARALLEL = [
    f"parallel-{units}-{policy}"
    for units in (2, 3, 4)
    for policy in ("lpt", "round-robin", "greedy")
]
MACHINES = sorted(SERIAL) + ["weak"] + PARALLEL
DTYPES = (np.float64, np.complex128, np.int64)


def make(kind, cost_only=False):
    execute = "cost-only" if cost_only else "numeric"
    if kind == "weak":
        return WeakTCUMachine(m=16, ell=8.0, execute=execute)
    if kind.startswith("parallel"):
        _, units, policy = kind.split("-", 2)
        return ParallelTCUMachine(
            m=16, ell=24.0, units=int(units), scheduler=policy, execute=execute
        )
    return TCUMachine(**SERIAL[kind], execute=execute)


def emit_per_call(program, Ap, Bp, s):
    """The per-call emission grid nodes replaced: one ``mm`` per
    (strip, block) pair in column-major task order, one ``add`` per
    output block column; returns the padded-result assembler."""
    partials = {}
    for j, _, strip, block in theorem2_tasks(Ap, Bp, s):
        partials.setdefault(j, []).append(program.mm(strip, block))
    columns = [program.add(partials[j]) for j in range(Bp.shape[1] // s)]

    def assemble():
        C = np.zeros((Ap.shape[0], Bp.shape[1]), dtype=np.result_type(Ap.dtype, Bp.dtype))
        for j, col in enumerate(columns):
            C[:, j * s : (j + 1) * s] = col.result()
        return C

    return assemble


def fused_oracle(tcu, A, B):
    """The serial fused product ``matmul`` ran before grid nodes: padded
    copies charged, the grid's calls and strip sums charged in bulk, the
    product one ``tensordot`` over strips and blocks."""
    s = tcu.sqrt_m
    p, q = A.shape
    r = B.shape[1]
    p_pad, q_pad, r_pad = max(p, s), ceil_to_multiple(q, s), ceil_to_multiple(r, s)
    tcu.charge_cpu(padded_copy_cost(A, p_pad, q_pad) + padded_copy_cost(B, q_pad, r_pad))
    Ap, Bp = pad_matrix(A, p_pad, q_pad), pad_matrix(B, q_pad, r_pad)
    kq, kr = q_pad // s, r_pad // s
    dtype = np.result_type(Ap.dtype, Bp.dtype)
    tcu.charge_mm_grid(p_pad, kq * kr, dtype)
    tcu.charge_cpu(kq * kr * p_pad * s)
    strips = Ap.reshape(p_pad, kq, s).transpose(1, 0, 2)
    blocks = Bp.reshape(kq, s, kr, s).transpose(0, 2, 1, 3)
    C = np.tensordot(strips, blocks, axes=((0, 2), (0, 2)))
    return C.reshape(p_pad, r_pad)[:p, :r]


def rescan_resident_words(plan, start):
    """The cursor's per-call rescan before the suffix table: distinct
    resident keys of every group at/after ``start``."""
    seen = set()
    words = 0
    for groups, _ in plan.levels[start:]:
        for g in groups:
            key = _resident_key(g[0])
            if key in seen:
                continue
            seen.add(key)
            shape = _source_shape(g[0].b)
            words += shape[0] * shape[1]
    return words


def operand(rng, shape, dtype):
    if dtype == np.int64:
        return rng.integers(-4, 5, size=shape).astype(np.int64)
    out = rng.random(shape)
    if dtype == np.complex128:
        out = out + 1j * rng.random(shape)
    return out


def padded(rng, p, q, r, dtype, s, products):
    """``products`` left operands and one shared right operand, padded."""
    p_pad, q_pad, r_pad = max(p, s), ceil_to_multiple(q, s), ceil_to_multiple(r, s)
    As = [
        pad_matrix(operand(rng, (p + k, q), dtype), p_pad + k, q_pad)
        for k in range(products)
    ]
    return As, pad_matrix(operand(rng, (q, r), dtype), q_pad, r_pad)


def build(machine, layout, As, Bp, X, *, grids):
    """One program in the given layout: its products as grid nodes
    (``grids``) or as the per-call emission; returns (program, outputs)."""
    s = machine.sqrt_m
    prog = TensorProgram()
    outs = []
    for Ap in As:
        if grids:
            lazy = matmul_lazy(machine, prog, Ap, Bp, charge_padding=False)
            outs.append(lazy.result)
        else:
            outs.append(emit_per_call(prog, Ap, Bp, s))
    if layout == "block-mm":
        # a plain call on one of the grids' resident blocks merges with
        # it: the last strip's block of the first column, whose place in
        # the level's group order is the per-call emission's
        op = prog.mm(X, Bp[-s:, :s])
        outs.append(op.result)
    return prog, outs


def fingerprint(machine):
    led = machine.ledger
    return (
        led.snapshot(),
        led.call_shape_totals(),
        led.calls.unit_ids().tolist(),
        led.section_time("prog"),
    )


def run(machine, prog, split, fused=True):
    with machine.section("prog"):
        plan = run_program(prog, machine, split=split, fused=fused)
    return plan


def outcome(kind, cost_only, layout, As, Bp, X, split, *, grids, fused=True):
    machine = make(kind, cost_only)
    prog, outs = build(machine, layout, As, Bp, X, grids=grids)
    try:
        plan = run(machine, prog, split, fused)
    except Exception as exc:  # the weak model refuses tall calls
        return ("raised", type(exc), str(exc)), None, None
    plan_record = (plan.splits, plan.modelled_makespans, plan.stats)
    values = None if cost_only else [out() for out in outs]
    return fingerprint(machine), plan_record, values


cases = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(MACHINES),
        "cost_only": st.booleans(),
        "dtype": st.sampled_from(DTYPES),
        "split": st.sampled_from(["auto", 1, 3]),
        "layout": st.sampled_from(["single", "shared-b", "block-mm"]),
        "p": st.integers(1, 24),
        "q": st.integers(1, 20),
        "r": st.integers(1, 20),
        "seed": st.integers(0, 2**16),
    }
)


@settings(max_examples=1000, deadline=None)
@given(case=cases)
def test_grid_equals_per_call_emission(case):
    rng = np.random.default_rng(case["seed"])
    s = make(case["kind"]).sqrt_m
    dtype = case["dtype"]
    products = 3 if case["layout"] == "shared-b" else 1
    As, Bp = padded(rng, case["p"], case["q"], case["r"], dtype, s, products)
    X = operand(rng, (s + 2, s), dtype)
    args = (case["kind"], case["cost_only"], case["layout"], As, Bp, X, case["split"])
    fp, plan, values = outcome(*args, grids=True)
    fp_ref, plan_ref, values_ref = outcome(*args, grids=False)
    assert fp == fp_ref
    assert plan == plan_ref
    if values is not None:
        for got, want in zip(values, values_ref, strict=True):
            assert got.dtype == want.dtype
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()


@settings(max_examples=300, deadline=None)
@given(case=cases)
def test_unfused_executor_charges_like_fused(case):
    rng = np.random.default_rng(case["seed"])
    s = make(case["kind"]).sqrt_m
    products = 3 if case["layout"] == "shared-b" else 1
    As, Bp = padded(rng, case["p"], case["q"], case["r"], case["dtype"], s, products)
    X = operand(rng, (s + 2, s), case["dtype"])
    args = (case["kind"], case["cost_only"], case["layout"], As, Bp, X, case["split"])
    fused = outcome(*args, grids=True)
    unfused = outcome(*args, grids=True, fused=False)
    if fused[0][0] == "raised":
        # the same refusal, from the scalar rather than the grid primitive
        assert unfused[0][:2] == fused[0][:2]
        return
    assert unfused[:2] == fused[:2]
    if fused[2] is not None:
        for got, want in zip(unfused[2], fused[2], strict=True):
            np.testing.assert_allclose(got, want)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["base", "zero-latency", "complex-cost", "split-stream"]),
    dtype=st.sampled_from(DTYPES),
    p=st.integers(1, 40),
    q=st.integers(1, 40),
    r=st.integers(1, 40),
    seed=st.integers(0, 2**16),
)
def test_serial_matmul_equals_fused_contraction(kind, dtype, p, q, r, seed):
    rng = np.random.default_rng(seed)
    A = operand(rng, (p, q), dtype)
    B = operand(rng, (q, r), dtype)
    machine = make(kind)
    oracle = make(kind)
    C = matmul(machine, A, B)
    C_ref = fused_oracle(oracle, A, B)
    assert C.dtype == C_ref.dtype
    assert np.ascontiguousarray(C).tobytes() == np.ascontiguousarray(C_ref).tobytes()
    assert fingerprint(machine)[:3] == fingerprint(oracle)[:3]


@pytest.mark.parametrize("kind", ["base", "parallel-2-lpt"])
def test_cost_only_grid_never_materialises_padded_operands(kind):
    # both operands need padding: a materialised copy of the left one
    # alone would take 32 MB
    if kind == "base":
        machine = TCUMachine(m=256, ell=64.0, execute="cost-only")
    else:
        machine = ParallelTCUMachine(m=256, ell=64.0, units=2, execute="cost-only")
    A = placeholder((2001, 2001))
    B = placeholder((2001, 1999))
    tracemalloc.start()
    try:
        C = matmul(machine, A, B)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert C.shape == (2001, 1999) and C.strides == (0, 0)
    assert machine.ledger.tensor_calls == 126 * 125
    assert peak < 4 * 2**20


@settings(max_examples=200, deadline=None)
@given(
    placeholders=st.booleans(),
    shared=st.booleans(),
    p=st.integers(4, 12),
    q=st.integers(1, 12),
    r=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
def test_suffix_table_equals_rescan(placeholders, shared, p, q, r, seed):
    """A plan's resident-words table against the per-level rescan it
    replaced, on plans mixing grids, shared blocks, later-level plain
    calls on a grid's block, and placeholder operands."""
    rng = np.random.default_rng(seed)
    machine = TCUMachine(m=16, ell=8.0, execute="cost-only" if placeholders else "numeric")
    s = machine.sqrt_m
    As, Bp = padded(rng, p, q, r, np.float64, s, 2)
    if placeholders:
        As = [placeholder(A.shape) for A in As]
        Bp = placeholder(Bp.shape)
    prog = TensorProgram()
    first = prog.grid(As[0], Bp, s)
    prog.grid(As[1], Bp if shared else Bp.copy(), s)
    stripe = prog.view(first, (slice(None), slice(0, s)))
    prog.mm(stripe, Bp[:s, :s])  # level 2: the grid's first block again
    prog.mm(prog.mm(stripe, np.eye(s)), Bp[-s:, -s:])
    plan = plan_program(prog, machine)
    for level in range(len(plan.levels) + 2):
        assert plan.resident_words(level) == rescan_resident_words(plan, level)


def test_grid_is_one_node_per_product_with_per_call_stats():
    machine = ParallelTCUMachine(m=16, ell=8.0, units=2)
    rng = np.random.default_rng(0)
    prog = TensorProgram()
    out = matmul_lazy(machine, prog, rng.random((12, 10)), rng.random((10, 9)))
    assert [op.kind for op in prog.ops] == ["grid", "stripsum"]
    plan = run_program(prog, machine)
    kq, kr = 3, 3
    assert plan.stats.mm_ops == kq * kr
    assert plan.stats.ops == kq * kr + kr
    assert [len(groups) for groups, _ in plan.levels] == [kq * kr, 0]
    assert len(plan.splits[0]) == kq * kr
    assert out.result().shape == (12, 9)
