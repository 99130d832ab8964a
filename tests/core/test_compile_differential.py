"""Differential: ``compile_plan`` prices levels from shapes exactly as
executing them charges.

The oracle is the probe compile (``tests/probe_compile.py``): build the
plan on a fork, step it level by level on a scratch ledger, capture.
Hypothesis draws every registered request kind, row counts (zero
included) and machines — cost-only serial machines with integer and
fractional ``ell``, a row bound, a complex cost factor of 4, the TPUv1
preset and a quantised machine; 2–4-unit cost-only parallel machines
with and without a row bound under three schedulers; and numeric
machines at integer ``ell``.  The 256-wide TPU MLP kinds are sized for
the TPUv1's ``sqrt(m) = 256`` and run on TPUv1-sized machines only.
Both compiles must agree on the build prelude, every level's deltas,
span and trace columns, the reload words and the plan stats.

The request kinds lower to ``mm``, ``add`` and ``apply`` nodes only, so
a second differential draws small generated programs on the same
``m = 16`` machines: calls sharing resident blocks (merges), complex
calls, Theorem 2 grids (some sharing their right operand, which expands
them into merged grid calls), every CPU op kind, and a second level fed
by the first.

On numeric machines the oracle executes the numeric dispatch; its
deltas equal the priced ones because every charge there is
integer-valued, and since that dispatch batches shared streams first
(:func:`repro.core.program._dispatch_grid`), a level's trace rows are
compared there as a multiset.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from probe_compile import probe_compile
from repro import ParallelTCUMachine, TCUMachine, TensorProgram, compile_plan
from repro.core.program import plan_program
from repro.core.presets import TPU_V1
from repro.core.quantize import QuantizedTCUMachine
from repro.serve import available_request_types, get_request_type
from repro.serve.scenarios import TPU_BULK_MLP_NAME, TPU_MLP_NAME

SERIAL = {
    "ell-8": lambda: TCUMachine(m=16, ell=8.0, execute="cost-only"),
    "ell-2.5": lambda: TCUMachine(m=16, ell=2.5, execute="cost-only"),
    "max-rows": lambda: TCUMachine(m=16, ell=3.25, max_rows=16, execute="cost-only"),
    "complex-4": lambda: TCUMachine(
        m=16, ell=8.0, complex_cost_factor=4, execute="cost-only"
    ),
    "tpu-v1": lambda: TPU_V1.create(execute="cost-only"),
    "fp16": lambda: QuantizedTCUMachine(m=16, ell=7.5, execute="cost-only"),
}
NUMERIC = {
    "serial": lambda: TCUMachine(m=16, ell=64.0),
    "parallel": lambda: ParallelTCUMachine(m=16, ell=64.0, units=3),
}


@st.composite
def parallel_machines(draw):
    units = draw(st.integers(2, 4))
    scheduler = draw(st.sampled_from(["lpt", "greedy", "round-robin"]))
    max_rows = draw(st.sampled_from([None, 16]))
    ell = draw(st.sampled_from([8.0, 2.5, 512.0]))
    return lambda: ParallelTCUMachine(
        m=16, ell=ell, units=units, scheduler=scheduler, max_rows=max_rows,
        execute="cost-only",
    )


TPU_SIZED = {
    "tpu-v1": SERIAL["tpu-v1"],
    "tpu-v1-x3": lambda: ParallelTCUMachine(
        m=256 * 256, ell=131072.0, units=3, max_rows=96 * 1024, execute="cost-only"
    ),
}
WIDE_KINDS = {TPU_MLP_NAME, TPU_BULK_MLP_NAME}


def one_of(machines: dict) -> st.SearchStrategy:
    return st.sampled_from(sorted(machines)).map(machines.__getitem__)


MACHINES = st.one_of(one_of(SERIAL), parallel_machines(), one_of(NUMERIC))
ROWS = st.lists(st.integers(0, 12), min_size=1, max_size=3)


@st.composite
def cases(draw):
    kind = draw(st.sampled_from(sorted(available_request_types())))
    make_machine = draw(one_of(TPU_SIZED) if kind in WIDE_KINDS else MACHINES)
    return kind, make_machine, draw(ROWS)


def columns(record):
    return [record.ns, record.times, record.lats, record.units]


def assert_same_record(priced, probed, ordered=True):
    assert (priced.tensor_time, priced.latency_time, priced.cpu_time, priced.span) == (
        probed.tensor_time, probed.latency_time, probed.cpu_time, probed.span,
    )
    ours, theirs = columns(priced), columns(probed)
    for a, b in zip(ours, theirs, strict=True):
        assert a.dtype == b.dtype
    if ordered:
        for a, b in zip(ours, theirs, strict=True):
            assert np.array_equal(a, b)
    else:
        rows = sorted(zip(*(c.tolist() for c in ours)))
        assert rows == sorted(zip(*(c.tolist() for c in theirs)))


@settings(max_examples=300, deadline=None)
@given(case=cases())
def test_priced_compile_equals_probe_compile(case):
    kind, make_machine, rows = case
    machine = make_machine()
    rtype = get_request_type(kind)
    priced = compile_plan(rtype, machine, rows)
    probed = probe_compile(rtype, machine, rows)
    ordered = machine.execute == "cost-only"
    assert_same_record(priced.prelude, probed.prelude)
    assert len(priced.levels) == len(probed.levels)
    for ours, theirs in zip(priced.levels, probed.levels, strict=True):
        assert_same_record(ours, theirs, ordered)
    assert priced.reload_words == probed.reload_words
    assert priced.stats == probed.stats
    # the live ledger is never touched
    assert machine.ledger.total_time == 0.0 and machine.ledger.tensor_calls == 0


SMALL_MACHINES = st.one_of(
    one_of({k: v for k, v in SERIAL.items() if k != "tpu-v1"}),
    parallel_machines(),
    one_of(NUMERIC),
)


@st.composite
def programs(draw):
    """A two-level program spec for ``sqrt(m) = 4``: ``(rows, block,
    complex)`` calls against a pool of resident blocks, ``(p, kq, kr,
    shared)`` grids, and whether a level-1 call consumes a level-0 op."""
    blocks = draw(st.integers(1, 3))
    calls = draw(
        st.lists(
            st.tuples(st.integers(4, 40), st.integers(0, blocks - 1), st.booleans()),
            max_size=6,
        )
    )
    grids = draw(
        st.lists(
            st.tuples(st.integers(4, 24), st.integers(1, 3), st.integers(1, 3), st.booleans()),
            max_size=3,
        )
    )
    return blocks, calls, grids, draw(st.booleans())


class GeneratedType:
    """A request type whose plan is a generated program (rows unused)."""

    name = "generated"

    def __init__(self, spec):
        self.spec = spec

    def plan(self, machine, rows):
        blocks, calls, grids, chain = self.spec
        s = machine.sqrt_m
        pool = [np.eye(s) * (i + 1) for i in range(blocks)]
        shared_b = np.ones((3 * s, 3 * s))
        program = TensorProgram()
        outs = []
        for n, block, cplx in calls:
            A = np.ones((n, s), dtype=np.complex128 if cplx else np.float64)
            outs.append(program.mm(A, pool[block]))
        for p, kq, kr, shared in grids:
            b = shared_b[: kq * s, : kr * s] if shared else np.ones((kq * s, kr * s))
            outs.append(program.grid(np.ones((p, kq * s)), b, s))
        for i, op in enumerate(outs):
            kind = i % 4
            if kind == 0:
                program.add([op, (2.0, op)])
            elif kind == 1:
                program.copy(op)
            elif kind == 2:
                program.apply(lambda v: v, [op], op.shape, op.dtype, cpu=float(op.shape[0]))
            else:
                program.view(op, (slice(0, 4),))
        if chain and calls:
            program.mm(outs[0], pool[0])
        return plan_program(program, machine)


@settings(max_examples=300, deadline=None)
@given(spec=programs(), make_machine=SMALL_MACHINES)
def test_priced_compile_equals_probe_compile_on_generated_programs(spec, make_machine):
    machine = make_machine()
    rtype = GeneratedType(spec)
    priced = compile_plan(rtype, machine, [])
    probed = probe_compile(rtype, machine, [])
    ordered = machine.execute == "cost-only"
    assert len(priced.levels) == len(probed.levels)
    for ours, theirs in zip(priced.levels, probed.levels, strict=True):
        assert_same_record(ours, theirs, ordered)
    assert priced.reload_words == probed.reload_words
    assert priced.stats == probed.stats
