"""Admission control: shedding, conservation with sheds, registry,
run-at-a-time admission against the per-row oracle, and the rel_tol
plumbing of ServeResult.check_conservation."""

import math
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from eager_oracles import per_row_admit
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PoissonWorkload, TCUMachine
from repro.serve import (
    DeadlineAdmission,
    QueueCapAdmission,
    ServeError,
    ServingEngine,
    UnboundedAdmission,
    available_admissions,
    get_admission,
)
from repro.serve.table import RequestChunk, RequestTable

ELL = 32.0


def overload(total=120, seed=1, **kwargs):
    """An offered load far past the unit's capacity (rate >> 1/service)."""
    return PoissonWorkload(rate=5e-3, total=total, kind="matmul", rows=8, seed=seed, **kwargs)


class TestRegistry:
    def test_builtin_policies_registered(self):
        names = available_admissions()
        for name in ("unbounded", "queue-cap", "deadline"):
            assert name in names

    def test_get_by_name_and_instance(self):
        policy = get_admission("queue-cap")
        assert policy.name == "queue-cap"
        assert get_admission(policy) is policy

    def test_unknown_policy_fails_loudly(self):
        with pytest.raises(ValueError, match="unknown admission policy"):
            get_admission("nope")
        machine = TCUMachine(m=16, ell=ELL)
        with pytest.raises(ValueError, match="unknown admission policy"):
            ServingEngine(machine, admission="nope")

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            QueueCapAdmission(cap=0)
        with pytest.raises(ValueError):
            DeadlineAdmission(est_service=-1.0)


class TestQueueCap:
    def test_overload_sheds_and_conserves(self):
        machine = TCUMachine(m=16, ell=ELL)
        engine = ServingEngine(machine, "size", admission=QueueCapAdmission(cap=4))
        result = engine.serve(overload())
        result.check_conservation()  # sheds included in the invariants
        assert result.shed, "queue cap never tripped at overload"
        assert result.completed + len(result.shed) == 120
        assert 0.0 < result.shed_rate < 1.0
        for req in result.shed:
            assert math.isnan(req.launch) and not req.done

    def test_light_load_sheds_nothing(self):
        machine = TCUMachine(m=16, ell=ELL)
        engine = ServingEngine(machine, "continuous", admission=QueueCapAdmission(cap=4))
        workload = PoissonWorkload(rate=2e-5, total=40, kind="matmul", rows=8, seed=2)
        result = engine.serve(workload)
        assert result.shed == [] and result.shed_rate == 0.0
        assert result.completed == 40

    def test_unbounded_is_the_default_and_sheds_nothing(self):
        machine = TCUMachine(m=16, ell=ELL)
        engine = ServingEngine(machine, "continuous")
        assert isinstance(engine.admission, UnboundedAdmission)
        result = engine.serve(overload(total=60))
        assert result.shed == [] and result.completed == 60
        assert result.admission == "unbounded"


class TestDeadlineAdmission:
    def test_infeasible_deadlines_rejected_feasible_kept(self):
        machine = TCUMachine(m=16, ell=ELL)
        # measure one request's service to calibrate the estimate
        probe = machine.fork()
        ServingEngine(probe, "continuous").serve(
            PoissonWorkload(rate=1e-3, total=1, kind="matmul", rows=8, seed=3)
        )
        est = probe.ledger.total_time
        engine = ServingEngine(
            machine, "continuous", admission=DeadlineAdmission(est_service=est)
        )
        # a deadline budget shorter than one service is hopeless: all shed
        hopeless = engine.serve(overload(total=30, deadline=est / 2, seed=4))
        assert hopeless.completed + len(hopeless.shed) == 30
        assert hopeless.shed, "impossible deadlines were admitted"
        # roomy deadlines at light load: everything admitted
        machine2 = TCUMachine(m=16, ell=ELL)
        engine2 = ServingEngine(
            machine2, "continuous", admission=DeadlineAdmission(est_service=est)
        )
        easy = engine2.serve(
            PoissonWorkload(
                rate=1e-5, total=20, kind="matmul", rows=8, seed=5, deadline=est * 50
            )
        )
        assert easy.shed == [] and easy.completed == 20

    def test_requests_without_deadlines_always_admitted(self):
        machine = TCUMachine(m=16, ell=ELL)
        engine = ServingEngine(
            machine, "continuous", admission=DeadlineAdmission(est_service=1e12)
        )
        result = engine.serve(overload(total=25, seed=6))
        assert result.shed == [] and result.completed == 25


def _table(arrival, deadline=None) -> RequestTable:
    """A run's table: one-class rows at ``arrival`` with absolute
    ``deadline`` stamps (NaN, or ``None`` for all: no deadline)."""
    arrival = np.asarray(arrival, dtype=np.float64)
    chunk = RequestChunk.stamped(
        0, arrival, np.full(len(arrival), 4), kind="matmul", priority=0, slo=None, deadline=None
    )
    if deadline is not None:
        chunk.deadline = np.asarray(deadline, dtype=np.float64)
    table = RequestTable()
    table.extend(chunk)
    return table


_DEADLINES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0]),
    st.floats(-20.0, 120.0, allow_nan=False),
)
_EST_SERVICE = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 4.0]), st.floats(0.0, 30.0))


@st.composite
def admission_runs(draw):
    """``(cap, est_service, table, rows, queue)``: a class queue of
    ``depth`` admitted rows (0 .. cap+3) followed in the table by a run
    of up to 12 rows with non-decreasing arrivals and deadlines that may
    be NaN (none) or infinite."""
    cap = draw(st.integers(1, 8))
    depth = draw(st.integers(0, cap + 3))
    n = draw(st.integers(0, 12))
    gaps = draw(
        st.lists(
            st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 25.0)),
            min_size=n,
            max_size=n,
        )
    )
    start = draw(st.floats(-10.0, 10.0))
    arrival = np.r_[np.full(depth, start), start + np.cumsum(gaps)]
    deadline = np.array(
        [*[math.nan] * depth, *draw(st.lists(_DEADLINES, min_size=n, max_size=n))]
    )
    table = _table(arrival, deadline)
    return cap, draw(_EST_SERVICE), table, range(depth, depth + n), deque(range(depth))


class TestRunAdmission:
    """A run's admitted rows equal the per-row oracle's, in order."""

    @staticmethod
    def _check(policy, table, rows, queue):
        before = list(queue)
        admitted = policy.admit(table, rows, queue)
        assert not isinstance(admitted, np.ndarray)
        assert list(admitted) == per_row_admit(policy, table, rows, queue)
        assert list(queue) == before  # the engine appends, not the policy
        return list(admitted)

    @settings(max_examples=300, deadline=None)
    @given(admission_runs())
    def test_every_stock_policy_matches_per_row(self, case):
        cap, est, table, rows, queue = case
        for policy in (
            UnboundedAdmission(),
            QueueCapAdmission(cap=cap),
            DeadlineAdmission(est_service=est),
        ):
            self._check(policy, table, rows, queue)

    @pytest.mark.parametrize("depth", [0, 3, 4, 7])
    def test_runs_at_the_edges(self, depth):
        # runs that start below, at and above a cap of 4, and empty runs
        table = _table(np.arange(depth + 6.0))
        queue = deque(range(depth))
        for rows in (range(depth, depth + 6), range(depth, depth)):
            admitted = self._check(QueueCapAdmission(cap=4), table, rows, queue)
            assert admitted == list(rows)[: max(0, 4 - depth)]
        for policy in (UnboundedAdmission(), DeadlineAdmission()):
            assert self._check(policy, table, range(depth, depth), queue) == []


class TestConservationTolerance:
    """The satellite fix: every equality check honours rel_tol."""

    def _served(self):
        machine = TCUMachine(m=16, ell=ELL)
        return ServingEngine(machine, "continuous").serve(
            PoissonWorkload(rate=1e-4, total=12, kind="matmul", rows=8, seed=7)
        )

    def test_tiny_completion_perturbation_passes_loose_fails_tight(self):
        result = self._served()
        req = result.requests[0]
        # sub-rel_tol float round-off
        req = replace(req, completion=req.completion * (1.0 + 1e-12))
        result = replace(result, requests=[req, *result.requests[1:]])
        result.check_conservation()  # default 1e-9: fine
        with pytest.raises(ServeError):
            result.check_conservation(rel_tol=1e-15)

    def test_busy_time_perturbation_respects_rel_tol(self):
        result = self._served()
        result.busy_time *= 1.0 + 1e-12
        result.check_conservation(rel_tol=1e-9)
        with pytest.raises(ServeError, match="busy time"):
            result.check_conservation(rel_tol=1e-15)

    def test_clock_perturbation_respects_rel_tol(self):
        result = self._served()
        result.clock *= 1.0 + 1e-12
        result.check_conservation(rel_tol=1e-9)
        with pytest.raises(ServeError, match="final clock"):
            result.check_conservation(rel_tol=1e-15)

    def test_real_corruption_still_detected_at_default_tolerance(self):
        result = self._served()
        req = result.requests[0]
        req = replace(req, completion=req.completion + 1.0)
        result = replace(result, requests=[req, *result.requests[1:]])
        with pytest.raises(ServeError):
            result.check_conservation()

    def test_served_shed_request_detected(self):
        result = self._served()
        result = replace(result, shed=[*result.shed, result.requests[0]])
        with pytest.raises(ServeError, match="shed"):
            result.check_conservation()
