"""Differential: ``compile_plan`` prices levels from shapes exactly as
executing them charges.

The oracle is the probe compile (``tests/probe_compile.py``): build the
plan on a fork, step it level by level on a scratch ledger, capture.
Hypothesis draws every registered request kind, row counts (zero
included) and machines — cost-only serial machines with integer and
fractional ``ell``, a row bound, a complex cost factor of 4, the TPUv1
preset and a quantised machine; 2–4-unit cost-only parallel machines
with and without a row bound and a complex cost factor of 4 under
three schedulers; and numeric machines at integer ``ell``.  The 256-wide TPU MLP kinds are sized for
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

A third differential checks the plan memo (:class:`PlanMemo`): a
compile through a memo warmed by other shapes, in shuffled order, must
equal a memo-less compile bit for bit — every field of the compiled
plan, and the ``splits`` and ``modelled_makespans`` of every plan the
compile built, the stencil build's inner plans included.
"""

import random
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.program as program_module
import repro.serve.workload as workload_module
from probe_compile import probe_compile
from repro import ParallelTCUMachine, PlanCache, TCUMachine, TensorProgram, compile_plan
from repro.core.plan_cache import PlanMemo
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
    factor = draw(st.sampled_from([1, 4]))
    return lambda: ParallelTCUMachine(
        m=16, ell=ell, units=units, scheduler=scheduler, max_rows=max_rows,
        complex_cost_factor=factor, execute="cost-only",
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


# ----------------------------------------------------------------------
# memo-on against memo-off
# ----------------------------------------------------------------------
COST_ONLY_MACHINES = st.one_of(
    one_of({k: v for k, v in SERIAL.items() if k != "tpu-v1"}), parallel_machines()
)


@contextmanager
def recorded_plans():
    """Every plan :func:`plan_program` builds inside the block, in order
    — through the serving emitters and through kernels alike."""
    plans = []
    real = program_module.plan_program

    def recording(*args, **kwargs):
        plan = real(*args, **kwargs)
        plans.append(plan)
        return plan

    program_module.plan_program = workload_module.plan_program = recording
    try:
        yield plans
    finally:
        program_module.plan_program = workload_module.plan_program = real


def bits(values):
    return [float(x).hex() for x in values]


def assert_identical_record(ours, theirs):
    assert bits((ours.tensor_time, ours.latency_time, ours.cpu_time, ours.span)) == bits(
        (theirs.tensor_time, theirs.latency_time, theirs.cpu_time, theirs.span)
    )
    for a, b in zip(columns(ours), columns(theirs), strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_identical_compile(ours, theirs):
    assert (ours.kind, ours.rows, ours.config_key) == (theirs.kind, theirs.rows, theirs.config_key)
    assert_identical_record(ours.prelude, theirs.prelude)
    assert len(ours.levels) == len(theirs.levels)
    for a, b in zip(ours.levels, theirs.levels, strict=True):
        assert_identical_record(a, b)
    for a, b in zip(ours.calls, theirs.calls, strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert ours.offsets == theirs.offsets
    for a, b in zip(ours.deltas, theirs.deltas, strict=True):
        assert bits(a) == bits(b)
    assert [(k, float(v).hex()) for k, v in ours.charges] == [
        (k, float(v).hex()) for k, v in theirs.charges
    ]
    assert ours.charge_offsets == theirs.charge_offsets
    assert ours.reload_words == theirs.reload_words
    assert ours.stats == theirs.stats


def assert_identical_plans(ours, theirs):
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs, strict=True):
        assert a.splits == b.splits
        assert bits(a.modelled_makespans) == bits(b.modelled_makespans)


def memo_differential(rtype, machine, rows, memo):
    """Compile through ``memo`` and without a memo; both must agree
    bit for bit.  Returns the memo compile's plans."""
    with recorded_plans() as cached_plans:
        cached = compile_plan(rtype, machine, rows, memo=memo)
    with recorded_plans() as fresh_plans:
        fresh = compile_plan(rtype, machine, rows)
    assert_identical_compile(cached, fresh)
    assert_identical_plans(cached_plans, fresh_plans)
    # the live ledger is never touched, and no machine keeps the memo
    assert machine.ledger.total_time == 0.0 and machine.plan_memo is None
    return cached_plans


@st.composite
def memo_cases(draw):
    """A kind, rows and a machine, plus warm-up compiles of other
    shapes (same kind or not) in shuffled order."""
    wide = draw(st.booleans())
    kinds = sorted(WIDE_KINDS) if wide else sorted(set(available_request_types()) - WIDE_KINDS)
    make_machine = draw(one_of(TPU_SIZED) if wide else COST_ONLY_MACHINES)
    kind = draw(st.sampled_from(kinds))
    warm = draw(st.lists(st.tuples(st.sampled_from(kinds), ROWS), max_size=4))
    return kind, make_machine, draw(ROWS), draw(st.permutations(warm))


@settings(max_examples=120, deadline=None)
@given(case=memo_cases())
def test_memo_compile_equals_memoless_compile(case):
    kind, make_machine, rows, warm = case
    machine = make_machine()
    memo = PlanMemo()
    for other, other_rows in warm:
        compile_plan(get_request_type(other), machine, other_rows, memo=memo)
    memo_differential(get_request_type(kind), machine, rows, memo)


@settings(max_examples=120, deadline=None)
@given(
    spec=programs(),
    warm=st.lists(programs(), max_size=3),
    make_machine=COST_ONLY_MACHINES,
)
def test_memo_compile_equals_memoless_compile_on_generated_programs(spec, warm, make_machine):
    machine = make_machine()
    memo = PlanMemo()
    for other in warm:
        compile_plan(GeneratedType(other), machine, [], memo=memo)
    memo_differential(GeneratedType(spec), machine, [], memo)


EVERY_SHAPE_MACHINES = {
    "serial-ell-2.5": SERIAL["ell-2.5"],
    "serial-max-rows": SERIAL["max-rows"],
    "p3-lpt-max-rows": lambda: ParallelTCUMachine(
        m=16, ell=2.5, units=3, max_rows=16, execute="cost-only"
    ),
    "p2-round-robin-complex-4": lambda: ParallelTCUMachine(
        m=16, ell=8.0, units=2, scheduler="round-robin", complex_cost_factor=4,
        execute="cost-only",
    ),
    "p4-greedy": lambda: ParallelTCUMachine(
        m=16, ell=512.0, units=4, scheduler="greedy", execute="cost-only"
    ),
}


@pytest.mark.parametrize("config", sorted(EVERY_SHAPE_MACHINES))
def test_every_kind_and_row_count_through_one_memo(config):
    """Every registered kind sized for ``m = 16`` at rows 0-12, single
    and paired, in a shuffled order through one memo: each compile
    meets the memo warmed by all the shapes before it."""
    machine = EVERY_SHAPE_MACHINES[config]()
    kinds = sorted(set(available_request_types()) - WIDE_KINDS)
    shapes = [(kind, [r]) for kind in kinds for r in range(13)]
    shapes += [(kind, [r, 12 - r]) for kind in kinds for r in range(0, 13, 4)]
    random.Random(config).shuffle(shapes)
    memo = PlanMemo()
    for kind, rows in shapes:
        memo_differential(get_request_type(kind), machine, rows, memo)
    assert memo.splits and memo.levels


def memo_size(memo):
    return len(memo.splits) + len(memo.levels)


def one_level_program(machine, rows, blocks):
    """One level of ``mm`` calls: ``rows[i]`` rows against resident
    block ``blocks[i]``."""
    s = machine.sqrt_m
    pool = {b: np.eye(s) * (b + 1) for b in set(blocks)}
    program = TensorProgram()
    for n, b in zip(rows, blocks, strict=True):
        program.mm(np.ones((n, s)), pool[b])
    return program


class TestPlanMemo:
    def test_one_cache_serves_machines_differing_in_units_or_scheduler(self):
        """The config fingerprint in both tables' keys keeps machines
        whose levels have equal shapes but unequal schedules apart."""
        cache = PlanCache()
        machines = [
            ParallelTCUMachine(m=16, ell=2.5, units=units, scheduler=scheduler,
                               execute="cost-only")
            for units, scheduler in ((2, "lpt"), (3, "lpt"), (3, "greedy"), (3, "round-robin"))
        ] + [TCUMachine(m=16, ell=2.5, execute="cost-only")]
        for kind, rows in (("matmul", [4, 4]), ("mlp", [4, 8]), ("dft", [8]), ("stencil", [8])):
            rtype = get_request_type(kind)
            for machine in machines:
                cached = cache.get_or_compile(rtype, machine, rows)
                assert_identical_compile(cached, compile_plan(rtype, machine, rows))
        keys = {key[0] for key in cache.memo.levels} | {key[0] for key in cache.memo.splits}
        assert keys == {machine.config_key() for machine in machines}

    def test_permuted_level_gets_its_own_order(self):
        """The chooser breaks ties by group order, so the split key is
        the *ordered* shapes: a permuted level is its own entry, and its
        splits come back in its own order."""
        machine = ParallelTCUMachine(m=16, ell=8.0, units=2, execute="cost-only")
        memo = machine.plan_memo = PlanMemo()
        first = plan_program(one_level_program(machine, [32, 4], [0, 1]), machine)
        permuted = plan_program(one_level_program(machine, [4, 32], [1, 0]), machine)
        assert first.splits == [[2, 1]] and permuted.splits == [[1, 2]]
        assert len(memo.splits) == 2
        machine.plan_memo = None
        fresh = plan_program(one_level_program(machine, [4, 32], [1, 0]), machine)
        assert permuted.splits == fresh.splits
        assert bits(permuted.modelled_makespans) == bits(fresh.modelled_makespans)

    def test_mutating_returned_splits_cannot_poison_the_memo(self):
        machine = ParallelTCUMachine(m=16, ell=8.0, units=2, execute="cost-only")
        machine.plan_memo = PlanMemo()
        program = lambda: one_level_program(machine, [32, 4], [0, 1])  # noqa: E731
        first = plan_program(program(), machine)
        first.splits[0][0] = 1
        first.splits[0].append(5)
        second = plan_program(program(), machine)
        third = plan_program(program(), machine)
        assert second.splits == third.splits == [[2, 1]]
        assert second.splits[0] is not third.splits[0]
        second.splits[0][0] = 7
        assert plan_program(program(), machine).splits == [[2, 1]]

    def test_levels_with_equal_calls_but_unequal_cpu_charges_are_distinct(self):
        """A level's CPU charges are part of its priced shape."""
        machine = TCUMachine(m=16, ell=8.0, execute="cost-only")
        memo = PlanMemo()

        class Followed:
            name = "followed"

            def __init__(self, consumer):
                self.consumer = consumer

            def plan(self, machine, rows):
                program = TensorProgram()
                out = program.mm(np.ones((8, 4)), np.eye(4))
                self.consumer(program, out)
                return plan_program(program, machine)

        added = Followed(lambda program, out: program.add([out, (2.0, out)]))
        copied = Followed(lambda program, out: program.copy(out))
        for rtype in (added, copied, added):
            memo_differential(rtype, machine, [], memo)
        cpu = {compile_plan(rtype, machine, [], memo=memo).levels[1].cpu_time
               for rtype in (added, copied)}
        assert cpu == {64.0, 32.0}

    def test_evicting_cache_empties_its_memo(self):
        cache = PlanCache(capacity=2)
        machine = ParallelTCUMachine(m=16, ell=2.5, units=3, execute="cost-only")
        rtype = get_request_type("matmul")
        cache.get_or_compile(rtype, machine, [4])
        cache.get_or_compile(rtype, machine, [8])
        assert memo_size(cache.memo) > 0 and cache.evictions == 0
        cache.get_or_compile(rtype, machine, [12])  # evicts [4]
        assert cache.evictions == 1 and memo_size(cache.memo) == 0
        for rows in ([4], [8], [12], [4]):
            compiled = cache.get_or_compile(rtype, machine, rows)
            assert_identical_compile(compiled, compile_plan(rtype, machine, rows))
        assert cache.evictions >= 2 and memo_size(cache.memo) == 0
        cache.clear()
        cache.get_or_compile(rtype, machine, [16])
        assert memo_size(cache.memo) > 0
        cache.clear()
        assert len(cache) == 0 and memo_size(cache.memo) == 0

    def test_failed_level_never_enters_the_memo(self):
        """The finite, non-negative check runs on every miss, before a
        record can be memoised."""
        from repro.core.ledger import LedgerError

        memo = PlanMemo()
        machine = TCUMachine(m=16, ell=float("inf"), execute="cost-only")
        with pytest.raises(LedgerError, match="finite"):
            compile_plan(get_request_type("matmul"), machine, [8], memo=memo)
        assert not memo.levels

    def test_probe_forks_never_carry_the_memo(self):
        machine = ParallelTCUMachine(m=16, ell=2.5, units=3, execute="cost-only")
        probe = machine.fork()
        probe.plan_memo = PlanMemo()
        assert probe.fork().plan_memo is None
        assert TCUMachine.plan_memo is None and machine.plan_memo is None
