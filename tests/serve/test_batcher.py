"""Dynamic-batching policies: registry, triggers, and engine behaviour."""

import math
from collections import deque

import numpy as np
import pytest

from repro import TCUMachine, PoissonWorkload, ServingEngine
from repro.serve import (
    ContinuousBatcher,
    SizeBatcher,
    TimeoutBatcher,
    available_batchers,
    get_batcher,
    register_batcher,
)
from repro.serve.batcher import BatchPolicy, priority_release


class TestRegistry:
    def test_builtins_registered(self):
        names = available_batchers()
        for name in ("continuous", "size", "timeout"):
            assert name in names

    def test_get_by_name_and_instance(self):
        policy = get_batcher("timeout")
        assert policy.name == "timeout"
        custom = TimeoutBatcher(timeout=5.0, max_size=3)
        assert get_batcher(custom) is custom

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown batching policy"):
            get_batcher("no-such-policy")

    def test_custom_policy_registers(self):
        class Always(BatchPolicy):
            name = "always-one"
            max_size = 1

            def release_time(self, queue, head_arrival, now, draining):
                return now if queue else math.inf

        register_batcher(Always())
        assert get_batcher("always-one").name == "always-one"


class TestReleaseSemantics:
    """Queues are FIFOs of request-table rows; a policy sees the head
    request's arrival as an argument."""

    def test_continuous_releases_immediately(self):
        policy = ContinuousBatcher(max_size=4)
        q = deque([0, 1])
        assert policy.release_time(q, 1.0, 5.0, False) == 5.0
        assert policy.release_time(deque(), math.inf, 5.0, False) == math.inf
        assert policy.take(q, 5.0) == [0, 1]

    def test_continuous_respects_max_size(self):
        policy = ContinuousBatcher(max_size=2)
        q = deque(range(5))
        assert policy.take(q, 9.0) == [0, 1]
        assert list(q) == [2, 3, 4]

    def test_size_waits_for_quorum(self):
        policy = SizeBatcher(size=3)
        q = deque([0, 1])
        assert policy.release_time(q, 1.0, 9.0, draining=False) == math.inf
        q.append(2)
        assert policy.release_time(q, 1.0, 9.0, draining=False) == 9.0

    def test_size_flushes_when_draining(self):
        policy = SizeBatcher(size=8)
        q = deque([0])
        assert policy.release_time(q, 1.0, 9.0, draining=True) == 9.0

    def test_timeout_ages_the_head(self):
        policy = TimeoutBatcher(timeout=10.0, max_size=8)
        q = deque([0, 1])
        assert policy.release_time(q, 100.0, 101.0, False) == 110.0
        # an aged head releases now, not in the past
        assert policy.release_time(q, 100.0, 120.0, False) == 120.0

    def test_timeout_max_size_short_circuits(self):
        policy = TimeoutBatcher(timeout=1e9, max_size=2)
        q = deque([0, 1])
        assert policy.release_time(q, 1.0, 3.0, False) == 3.0

    def test_priority_release_reads_head_arrivals(self):
        # rows 0-3 arrive at 5, 1, 7, 2: the class whose head is oldest
        # wins a tie on release time and priority
        arrival = np.array([5.0, 1.0, 7.0, 2.0])
        queues = {(0, "matmul"): deque([0, 2]), (0, "dft"): deque([3, 1])}
        policy = TimeoutBatcher(timeout=0.0, max_size=8)
        assert priority_release(queues, arrival, policy, 9.0, False) == (
            9.0, 0, 2.0, (0, "dft"),
        )
        queues[(1, "mlp")] = deque([2])
        assert priority_release(queues, arrival, policy, 9.0, False, above=0) == (
            9.0, 1, 7.0, (1, "mlp"),
        )

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ContinuousBatcher(max_size=0)
        with pytest.raises(ValueError):
            SizeBatcher(size=0)
        with pytest.raises(ValueError):
            TimeoutBatcher(timeout=-1.0)
        with pytest.raises(ValueError):
            TimeoutBatcher(max_size=0)


class TestEngineIntegration:
    def _serve(self, policy, rate=2e-4, total=60, seed=9):
        machine = TCUMachine(m=16, ell=32.0)
        workload = PoissonWorkload(rate=rate, total=total, kind="matmul", rows=8, seed=seed)
        return ServingEngine(machine, policy).serve(workload)

    def test_size_trigger_produces_full_batches(self):
        result = self._serve(SizeBatcher(size=4))
        sizes = [b.size for b in result.batches]
        assert all(size == 4 for size in sizes[:-1])
        assert sizes[-1] <= 4  # drain flush

    def test_size_one_is_no_batching(self):
        result = self._serve(ContinuousBatcher(max_size=1))
        assert all(b.size == 1 for b in result.batches)
        assert len(result.batches) == 60

    def test_timeout_bounds_wait_at_low_load(self):
        """With the engine mostly idle, no request waits past its
        timeout before launch (modulo an in-flight batch's service)."""
        policy = TimeoutBatcher(timeout=500.0, max_size=8)
        result = self._serve(policy, rate=2e-5, total=40)
        max_service = max(b.service for b in result.batches)
        for request in result.requests:
            assert request.wait <= 500.0 + max_service + 1e-9

    def test_timeout_batches_under_load(self):
        """At overload, timeout batching actually groups requests."""
        result = self._serve(TimeoutBatcher(timeout=100.0, max_size=16), rate=5e-3)
        assert max(b.size for b in result.batches) > 1
