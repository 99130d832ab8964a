"""The multi-unit scheduler subsystem (repro.core.scheduling)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduling import (
    BruteForceScheduler,
    GreedyOnlineScheduler,
    LPTScheduler,
    SchedulerPolicy,
    available_schedulers,
    get_scheduler,
    lpt_bound,
    register_scheduler,
    schedule_batch,
)


class TestRegistry:
    def test_builtins_registered(self):
        names = available_schedulers()
        for name in ("lpt", "round-robin", "greedy", "exact"):
            assert name in names

    def test_get_by_name_and_instance(self):
        assert get_scheduler("lpt").name == "lpt"
        inst = LPTScheduler()
        assert get_scheduler(inst) is inst

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            get_scheduler("fifo")

    def test_custom_policy_registers(self):
        class AllOnUnitZero(SchedulerPolicy):
            name = "unit-zero"

            def assign(self, costs, units):
                return np.zeros(costs.size, dtype=np.int64)

        register_scheduler(AllOnUnitZero())
        sched = schedule_batch(np.array([3.0, 4.0]), 4, "unit-zero")
        assert sched.makespan == 7.0
        assert sched.units_used == 1


class TestScheduleInvariants:
    """The BatchStats/Schedule invariants of the ISSUE 3 checklist."""

    @pytest.mark.parametrize("policy", ["lpt", "round-robin", "greedy"])
    @pytest.mark.parametrize("units", [1, 2, 3, 7])
    def test_makespan_bracketed_by_serial(self, policy, units):
        rng = np.random.default_rng(units)
        costs = rng.integers(1, 50, size=17).astype(float)
        sched = schedule_batch(costs, units, policy)
        assert sched.makespan <= sched.serial_time + 1e-9
        assert sched.serial_time <= units * sched.makespan + 1e-9
        assert sched.makespan >= costs.max() - 1e-9
        assert sched.serial_time == pytest.approx(costs.sum())

    @pytest.mark.parametrize("policy", ["lpt", "round-robin", "greedy", "exact"])
    def test_units_used_accuracy(self, policy):
        costs = np.array([5.0, 3.0, 2.0])
        sched = schedule_batch(costs, 8, policy)
        # every policy places 3 jobs on at most 3 of the 8 units
        assert sched.units_used == len(set(sched.assignment.tolist()))
        assert sched.units_used <= 3
        assert np.isclose(sched.unit_times.sum(), costs.sum())

    def test_utilization_and_speedup(self):
        sched = schedule_batch(np.array([4.0, 4.0, 4.0, 4.0]), 2, "lpt")
        assert sched.makespan == 8.0
        assert sched.utilization == 1.0
        assert sched.speedup == 2.0

    def test_empty_batch(self):
        sched = schedule_batch(np.empty(0), 3, "lpt")
        assert sched.makespan == 0.0
        assert sched.serial_time == 0.0
        assert sched.units_used == 0
        assert sched.utilization == 1.0

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            schedule_batch(np.array([1.0, -2.0]), 2)

    def test_invalid_units_rejected(self):
        with pytest.raises(ValueError):
            schedule_batch(np.array([1.0]), 0)


class TestLPT:
    def test_equal_costs_degenerate_to_round_robin(self):
        costs = np.full(10, 7.0)
        lpt = schedule_batch(costs, 3, "lpt")
        rr = schedule_batch(costs, 3, "round-robin")
        assert np.array_equal(lpt.assignment, rr.assignment)
        assert lpt.makespan == rr.makespan == 4 * 7.0

    def test_fewer_jobs_than_units_one_each(self):
        sched = schedule_batch(np.array([9.0, 5.0, 2.0]), 8, "lpt")
        assert sched.units_used == 3
        assert sched.makespan == 9.0

    def test_isolates_giant_job(self):
        sched = schedule_batch(np.array([100.0, 10.0, 10.0, 10.0]), 2, "lpt")
        assert sched.makespan == 100.0

    def test_within_bound_of_exact_oracle(self):
        """LPT vs the brute-force oracle on random small batches: the
        Graham (4/3 - 1/(3p)) guarantee holds on every instance."""
        rng = np.random.default_rng(7)
        for _trial in range(40):
            units = int(rng.integers(2, 5))
            k = int(rng.integers(2, 9))
            costs = rng.integers(1, 40, size=k).astype(float)
            opt = schedule_batch(costs, units, "exact")
            lpt = schedule_batch(costs, units, "lpt")
            assert opt.makespan <= lpt.makespan + 1e-9
            assert lpt.makespan <= lpt_bound(units) * opt.makespan + 1e-9

    def test_lpt_bound_values(self):
        assert lpt_bound(1) == 1.0
        assert lpt_bound(2) == pytest.approx(4 / 3 - 1 / 6)
        with pytest.raises(ValueError):
            lpt_bound(0)


class TestGreedyOnline:
    def test_within_two_minus_one_over_p_of_exact(self):
        rng = np.random.default_rng(11)
        for _trial in range(25):
            units = int(rng.integers(2, 4))
            k = int(rng.integers(2, 8))
            costs = rng.integers(1, 30, size=k).astype(float)
            opt = schedule_batch(costs, units, "exact")
            greedy = schedule_batch(costs, units, "greedy")
            bound = GreedyOnlineScheduler().gap_bound(units)
            assert greedy.makespan <= bound * opt.makespan + 1e-9

    def test_arrival_order_matters(self):
        # giant job last: greedy commits the small jobs first
        costs = np.array([10.0, 10.0, 100.0])
        greedy = schedule_batch(costs, 2, "greedy")
        assert greedy.makespan == 110.0
        lpt = schedule_batch(costs, 2, "lpt")
        assert lpt.makespan == 100.0


class TestBruteForce:
    def test_exact_on_known_instance(self):
        # partition {8, 7, 6, 5, 4} over 2 units: optimum is 15
        sched = schedule_batch(np.array([8.0, 7.0, 6.0, 5.0, 4.0]), 2, "exact")
        assert sched.makespan == 15.0

    def test_never_beaten_by_heuristics(self):
        rng = np.random.default_rng(3)
        for _trial in range(20):
            costs = rng.integers(1, 25, size=7).astype(float)
            opt = schedule_batch(costs, 3, "exact")
            for policy in ("lpt", "greedy", "round-robin"):
                assert opt.makespan <= schedule_batch(costs, 3, policy).makespan + 1e-9

    def test_refuses_large_batches(self):
        with pytest.raises(ValueError, match="exponential"):
            BruteForceScheduler(limit=4).assign(np.ones(5), 2)

    def test_gap_bound_is_one(self):
        assert BruteForceScheduler().gap_bound(4) == 1.0


# integer-valued job costs: many small ones (ties), some large ones
INTEGER_COSTS = st.lists(
    st.one_of(st.integers(0, 6), st.integers(0, 2**40)).map(float),
    min_size=1,
    max_size=24,
)


class TestOrderFreedom:
    """Policies declaring ``order_free`` give one makespan for every
    order of an integer-valued cost vector, which is what lets the
    auto-splitter memoise makespans by cost multiset."""

    def test_declared_policies(self):
        declared = {name for name in available_schedulers() if get_scheduler(name).order_free}
        assert {"lpt", "exact"} <= declared
        assert not {"round-robin", "greedy"} & declared
        assert SchedulerPolicy.order_free is False

    @settings(deadline=None, max_examples=80)
    @given(costs=INTEGER_COSTS, units=st.integers(1, 5), data=st.data())
    def test_makespan_is_permutation_invariant(self, costs, units, data):
        permuted = data.draw(st.permutations(costs))
        for name in available_schedulers():
            policy = get_scheduler(name)
            if not policy.order_free:
                continue
            if isinstance(policy, BruteForceScheduler) and len(costs) > policy.limit:
                continue
            spans = {
                schedule_batch(np.array(order), units, policy).makespan
                for order in (costs, permuted)
            }
            assert len(spans) == 1, (name, costs, permuted, spans)

    def test_round_robin_is_not_order_free(self):
        a = schedule_batch(np.array([1.0, 1.0, 2.0, 2.0]), 2, "round-robin")
        b = schedule_batch(np.array([1.0, 2.0, 1.0, 2.0]), 2, "round-robin")
        assert (a.makespan, b.makespan) == (3.0, 4.0)

    def test_greedy_is_not_order_free(self):
        a = schedule_batch(np.array([10.0, 10.0, 100.0]), 2, "greedy")
        b = schedule_batch(np.array([100.0, 10.0, 10.0]), 2, "greedy")
        assert (a.makespan, b.makespan) == (110.0, 100.0)
