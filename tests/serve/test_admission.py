"""Admission control: shedding, conservation with sheds, registry, and
the rel_tol plumbing of ServeResult.check_conservation."""

import math
from dataclasses import replace

import pytest

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
