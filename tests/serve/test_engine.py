"""Engine conservation invariants and exact batch-replay parity.

These pin the PR's acceptance criteria: for any workload / policy /
machine, (1) per-request wait + service latencies are consistent with
the engine clock, and (2) the total tensor/latency charges of a served
run are bit-identical to the same batches replayed serially — through
``mm_batch`` on a one-unit parallel machine, through the fused serial
path, and through a cost-only machine.
"""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from repro import (
    ParallelTCUMachine,
    PoissonWorkload,
    TCUMachine,
    replay_batches,
)
from repro.obs import Tracer
from repro.serve import (
    BurstyWorkload,
    ClosedLoopWorkload,
    ContinuousBatcher,
    MixedWorkload,
    QueueCapAdmission,
    ServeError,
    ServingEngine,
    SizeBatcher,
    TimeoutBatcher,
    Workload,
)
from repro.serve.table import RequestChunk
from repro.serve.workload import _CHUNK, Request

ELL = 32.0


def poisson(kind="matmul", total=80, rate=1e-3, seed=1, rows=8, slo=None):
    return PoissonWorkload(rate=rate, total=total, kind=kind, rows=rows, seed=seed, slo=slo)


MACHINE_CONFIGS = {
    "serial-numeric": lambda: TCUMachine(m=16, ell=ELL),
    "serial-cost-only": lambda: TCUMachine(m=16, ell=ELL, execute="cost-only"),
    "serial-max-rows": lambda: TCUMachine(m=16, ell=ELL, max_rows=16),
    "parallel-3": lambda: ParallelTCUMachine(m=16, ell=ELL, units=3),
    "parallel-cost-only": lambda: ParallelTCUMachine(
        m=16, ell=ELL, units=2, execute="cost-only"
    ),
}


class TestConservation:
    @pytest.mark.parametrize("config", sorted(MACHINE_CONFIGS))
    @pytest.mark.parametrize("policy_name", ["continuous", "size", "timeout"])
    def test_clock_conservation_everywhere(self, config, policy_name):
        machine = MACHINE_CONFIGS[config]()
        result = ServingEngine(machine, policy_name).serve(poisson(seed=3))
        result.check_conservation()  # raises on violation
        assert result.completed == 80
        # busy time is exactly the ledger-clock span of the run
        assert result.busy_time == pytest.approx(result.ledger_time, rel=1e-12)
        # the engine never idles a ready machine past a release point
        assert result.clock >= result.busy_time

    def test_completion_is_launch_plus_service_bitwise(self):
        machine = TCUMachine(m=16, ell=ELL)
        result = ServingEngine(machine, "continuous").serve(poisson(seed=5))
        for request in result.requests:
            batch = result.batches[request.batch]
            assert request.completion == batch.launch + batch.service
            assert request.launch == batch.launch
            assert request.rid in batch.rids

    def test_latency_sum_matches_engine_clock_identity(self):
        machine = TCUMachine(m=16, ell=ELL)
        result = ServingEngine(machine, SizeBatcher(size=8)).serve(poisson(seed=7))
        total_latency = sum(r.latency for r in result.requests)
        total_wait = sum(r.wait for r in result.requests)
        total_service = sum(b.size * b.service for b in result.batches)
        assert total_latency == pytest.approx(total_wait + total_service, rel=1e-12)

    def test_batches_are_serial_on_the_engine(self):
        machine = TCUMachine(m=16, ell=ELL)
        result = ServingEngine(machine, "timeout").serve(poisson(seed=11, rate=5e-3))
        for prev, cur in zip(result.batches, result.batches[1:]):
            assert cur.launch >= prev.completion

    def test_final_clock_is_last_completion(self):
        machine = TCUMachine(m=16, ell=ELL)
        result = ServingEngine(machine, "continuous").serve(poisson(seed=13))
        assert result.clock == result.batches[-1].completion
        assert result.clock == max(r.completion for r in result.requests)

    def test_validation_detects_corruption(self):
        machine = TCUMachine(m=16, ell=ELL)
        result = ServingEngine(machine, "continuous").serve(poisson(seed=17, total=10))
        req = result.requests[0]
        req = replace(req, completion=req.completion + 1.0)
        result = replace(result, requests=[req, *result.requests[1:]])
        with pytest.raises(ServeError):
            result.check_conservation()

    def test_empty_workload(self):
        machine = TCUMachine(m=16, ell=ELL)
        result = ServingEngine(machine, "continuous").serve(
            PoissonWorkload(rate=1e-3, total=0)
        )
        result.check_conservation()
        assert result.completed == 0 and result.clock == 0.0


class TestReplayParity:
    """Served charges == the same batches replayed serially (acceptance)."""

    @pytest.mark.parametrize("config", sorted(MACHINE_CONFIGS))
    @pytest.mark.parametrize("kind", ["matmul", "mlp", "dft"])
    def test_served_equals_serial_replay(self, config, kind):
        machine = MACHINE_CONFIGS[config]()
        result = ServingEngine(machine, TimeoutBatcher(timeout=2e3, max_size=16)).serve(
            poisson(kind=kind, total=40, seed=19)
        )
        served = machine.ledger

        # (a) fused serial path, numeric
        serial = TCUMachine(m=16, ell=ELL, max_rows=machine.max_rows)
        replay_batches(result.batches, serial)
        # (b) mm_batch path: a one-unit parallel machine replays every
        #     level of every batch through the scheduled batch executor
        via_mm_batch = ParallelTCUMachine(m=16, ell=ELL, max_rows=machine.max_rows, units=1)
        replay_batches(result.batches, via_mm_batch)
        # (c) cost-only serial
        cost_only = TCUMachine(
            m=16, ell=ELL, max_rows=machine.max_rows, execute="cost-only"
        )
        replay_batches(result.batches, cost_only)

        reference = served.call_shape_totals()

        def streamed_rows(totals):
            return sum(n * count for (n, _), (count, _, _) in totals.items())

        if getattr(machine, "units", 1) > 1:
            # The auto-splitter reads ``p`` at plan time, so a multi-unit
            # serve may issue differently shaped sibling chunks than a
            # one-unit replay.  Exact call-shape parity holds against a
            # units-matched fork twin; the serial replays conserve the
            # streamed row totals.
            twin = machine.fork()
            replay_batches(result.batches, twin)
            assert twin.ledger.call_shape_totals() == reference
            assert twin.ledger.tensor_calls == served.tensor_calls
            for replayed in (serial.ledger, via_mm_batch.ledger, cost_only.ledger):
                assert streamed_rows(replayed.call_shape_totals()) == streamed_rows(
                    reference
                )
        else:
            for replayed in (serial.ledger, via_mm_batch.ledger, cost_only.ledger):
                assert replayed.call_shape_totals() == reference
                assert replayed.tensor_calls == served.tensor_calls
        # serial replays also agree on the raw tensor/latency columns
        assert serial.ledger.tensor_time == via_mm_batch.ledger.tensor_time
        assert serial.ledger.latency_time == via_mm_batch.ledger.latency_time
        assert serial.ledger.tensor_time == cost_only.ledger.tensor_time
        assert serial.ledger.latency_time == cost_only.ledger.latency_time

    def test_serial_served_run_is_bit_identical_to_replay(self):
        """On a serial machine the served ledger *is* the replay ledger."""
        machine = TCUMachine(m=16, ell=ELL)
        result = ServingEngine(machine, SizeBatcher(size=4)).serve(
            poisson(total=32, seed=23)
        )
        fork = machine.fork()
        replay_batches(result.batches, fork)
        assert fork.ledger.tensor_time == machine.ledger.tensor_time
        assert fork.ledger.latency_time == machine.ledger.latency_time
        assert fork.ledger.tensor_calls == machine.ledger.tensor_calls
        assert fork.ledger.call_shape_totals() == machine.ledger.call_shape_totals()

    def test_parallel_trace_records_true_hardware_work(self):
        """The parallel engine's clock advances by makespans, but the
        trace keeps serial-cost rows: summing them reproduces the
        serial replay's tensor+latency time exactly."""
        machine = ParallelTCUMachine(m=16, ell=ELL, units=4)
        result = ServingEngine(machine, SizeBatcher(size=8)).serve(
            poisson(kind="mlp", total=48, seed=29)
        )
        _, _, times, lats = machine.ledger.calls.as_arrays()
        serial = TCUMachine(m=16, ell=ELL)
        replay_batches(result.batches, serial)
        assert float(times.sum()) == serial.ledger.tensor_time + serial.ledger.latency_time
        assert float(lats.sum()) == serial.ledger.latency_time


class TestEngineBehaviour:
    def test_closed_loop_in_flight_bound(self):
        clients = 3
        workload = ClosedLoopWorkload(
            clients=clients, total=30, think=50.0, kind="matmul", rows=8, seed=31
        )
        machine = TCUMachine(m=16, ell=ELL)
        result = ServingEngine(machine, "continuous").serve(workload)
        assert result.completed == 30
        # sweep the timeline: never more than `clients` requests between
        # arrival and completion at once
        events = []
        for request in result.requests:
            events.append((request.arrival, 1))
            events.append((request.completion, -1))
        in_flight = peak = 0
        for _, delta in sorted(events, key=lambda e: (e[0], -e[1])):
            in_flight += delta
            peak = max(peak, in_flight)
        assert peak <= clients

    def test_simultaneous_arrivals_batch_together(self):
        """Arrivals at the exact release instant join the batch instead
        of being split into a size-1 batch plus a remainder."""

        class Burst(Workload):
            def requests(self):
                for rid in range(8):
                    yield Request(rid=rid, kind="matmul", arrival=100.0, rows=8)

        machine = TCUMachine(m=16, ell=ELL)
        result = ServingEngine(machine, "continuous").serve(Burst())
        assert len(result.batches) == 1
        assert result.batches[0].size == 8

    def test_zero_think_closed_loop_batches_whole_population(self):
        """think=0 re-arrivals land exactly at the completion instant
        and must re-batch as a full population, not 1 + (clients-1)."""
        clients = 4
        workload = ClosedLoopWorkload(
            clients=clients, total=20, think=0.0, kind="matmul", rows=8, seed=43
        )
        machine = TCUMachine(m=16, ell=ELL)
        result = ServingEngine(machine, "continuous").serve(workload)
        assert result.completed == 20
        assert all(b.size == clients for b in result.batches)

    def test_bursty_workload_serves_to_completion(self):
        workload = BurstyWorkload(
            5e-3, 5e-5, 120, dwell=2e4, kind="matmul", rows=8, seed=37
        )
        machine = TCUMachine(m=16, ell=ELL)
        result = ServingEngine(machine, "timeout").serve(workload)
        result.check_conservation()
        assert result.completed == 120

    def test_mixed_kind_queues_partition_batches(self):
        class Mixed(Workload):
            def requests(self):
                for rid in range(20):
                    kind = "matmul" if rid % 2 == 0 else "dft"
                    rows = 8 if kind == "matmul" else 4
                    yield Request(rid=rid, kind=kind, arrival=float(rid), rows=rows)

        machine = TCUMachine(m=16, ell=ELL)
        result = ServingEngine(machine, "continuous").serve(Mixed())
        assert result.completed == 20
        assert {b.kind for b in result.batches} == {"matmul", "dft"}
        by_rid = {r.rid: r for r in result.requests}
        for batch in result.batches:
            # no batch mixes kinds
            assert {by_rid[rid].kind for rid in batch.rids} == {batch.kind}

    def test_non_monotone_arrivals_rejected(self):
        class Broken(Workload):
            def requests(self):
                yield Request(rid=0, kind="matmul", arrival=10.0, rows=8)
                yield Request(rid=1, kind="matmul", arrival=5.0, rows=8)

        machine = TCUMachine(m=16, ell=ELL)
        with pytest.raises(ServeError, match="not time-ordered"):
            ServingEngine(machine, "continuous").serve(Broken())

    def test_draining_refusal_detected(self):
        class Stubborn(SizeBatcher):
            name = "stubborn"

            def release_time(self, queue, head_arrival, now, draining):
                if len(queue) >= self.size:
                    return now
                return math.inf  # ignores draining: cannot finish

        machine = TCUMachine(m=16, ell=ELL)
        with pytest.raises(ServeError, match="refused to drain"):
            ServingEngine(machine, Stubborn(size=64)).serve(poisson(total=10, seed=41))

    def test_unknown_policy_or_kind_fail_loudly(self):
        machine = TCUMachine(m=16, ell=ELL)
        with pytest.raises(ValueError, match="unknown batching policy"):
            ServingEngine(machine, "nope")

        class Bad(Workload):
            def requests(self):
                yield Request(rid=0, kind="unregistered-kind", arrival=0.0, rows=8)

        with pytest.raises(ValueError, match="unknown request type"):
            ServingEngine(machine, "continuous").serve(Bad())


class _Stamped(Workload):
    """Serves the given arrival stamps as-is (no constructor checks)."""

    def __init__(self, stamps):
        self.stamps = stamps

    def requests(self):
        for rid, arrival in enumerate(self.stamps):
            yield Request(rid=rid, kind="matmul", arrival=arrival, rows=4)


class _InjectsAt(_Stamped):
    """A closed loop whose follow-ups arrive at ``now + think``."""

    def __init__(self, stamps, think, total):
        super().__init__(stamps)
        self.think = think
        self.total = total

    def requests(self):
        self.issued = len(self.stamps)
        return super().requests()

    def on_complete(self, request, now):
        if self.issued >= self.total:
            return []
        self.issued += 1
        return [Request(rid=self.issued - 1, kind="matmul", arrival=now + self.think, rows=4)]


class TestUnservableArrivals:
    """A NaN or infinite arrival is an error, never the end of the stream."""

    @pytest.mark.parametrize(
        ("stamps", "rid", "value"),
        [
            ([0.0, 1.0, math.inf], 2, "inf"),
            ([math.nan] * 3, 0, "nan"),
            ([0.0, math.nan, 5.0], 1, "nan"),
            ([math.inf, math.inf], 0, "inf"),
            ([-math.inf, 1.0], 0, "-inf"),
            ([0.0, 1.0, -math.inf], 2, "-inf"),
        ],
        ids=[
            "trailing-inf", "all-nan", "nan-between", "all-inf", "first-minus-inf",
            "minus-inf-after-finite",
        ],
    )
    def test_streamed(self, stamps, rid, value):
        machine = TCUMachine(m=16, ell=64.0, execute="cost-only")
        with pytest.raises(ServeError, match=rf"^request {rid} arrives at {value}; .*finite"):
            ServingEngine(machine, "continuous").serve(_Stamped(stamps))

    @pytest.mark.parametrize("think", [math.nan, math.inf, -math.inf])
    def test_injected(self, think):
        machine = TCUMachine(m=16, ell=64.0, execute="cost-only")
        workload = _InjectsAt([0.0], think=think, total=3)
        with pytest.raises(ServeError, match=rf"^request 1 arrives at {think}; .*finite"):
            ServingEngine(machine, "continuous").serve(workload)


class _Chunked(Workload):
    """Serves each list of arrival stamps as one one-class chunk."""

    def __init__(self, *stamps):
        self.stamps = stamps

    def chunks(self):
        rid = 0
        for stamps in self.stamps:
            arrival = np.array(stamps, dtype=np.float64)
            rows = np.full(len(stamps), 4, dtype=np.int64)
            yield RequestChunk.stamped(
                rid, arrival, rows, kind="matmul", priority=0, slo=None, deadline=None
            )
            rid += len(stamps)


class _LateAfterChunk(PoissonWorkload):
    """A stock stream of ``_CHUNK`` requests, then one request stamped
    before the stream's last arrival: the first row of the second chunk
    the engine reads."""

    def requests(self):
        yield from super().requests()
        yield Request(rid=self.total, kind="matmul", arrival=1.0, rows=4)


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


class TestArrivalRuns:
    """Arrivals are checked a chunk at a time and admitted a same-queue
    run at a time; neither moves a decision or an error."""

    def test_out_of_order_first_row_of_a_later_chunk(self):
        machine = TCUMachine(m=16, ell=64.0, execute="cost-only")
        workload = _Chunked([0.0, 1.0, 2.0], [1.5, 3.0])
        with pytest.raises(
            ServeError,
            match=r"^arrival stream is not time-ordered: request 3 arrives at 1\.5 after 2\.0$",
        ):
            ServingEngine(machine, "continuous").serve(workload)

    def test_out_of_order_first_row_after_a_full_records_chunk(self):
        workload = _LateAfterChunk(rate=1 / 8.0, total=_CHUNK, kind="matmul", rows=4, seed=2)
        last = float(next(iter(PoissonWorkload.chunks(workload))).arrival[-1])
        machine = TCUMachine(m=16, ell=64.0, execute="cost-only", trace_calls=False)
        engine = ServingEngine(machine, ContinuousBatcher(max_size=512))
        with pytest.raises(
            ServeError,
            match=rf"^arrival stream is not time-ordered: request {_CHUNK} "
            rf"arrives at 1\.0 after {last!r}$",
        ):
            engine.serve(workload)

    def test_one_class_sheds_mid_run_while_the_other_admits(self):
        # a bulk class floods a queue capped at 3 while an interactive
        # class's arrivals land between its sheds; pinned from the
        # per-arrival engine
        tracer = Tracer()
        engine = ServingEngine(
            TCUMachine(m=16, ell=64.0, execute="cost-only"),
            ContinuousBatcher(max_size=2),
            admission=QueueCapAdmission(cap=3),
            tracer=tracer,
        )
        workload = MixedWorkload(
            PoissonWorkload(rate=1 / 8e3, total=48, kind="matmul", rows=8, seed=5),
            PoissonWorkload(rate=1 / 3e4, total=16, kind="dft", rows=2, priority=1, seed=6),
        )
        result = engine.serve(workload)
        shed = result.shed
        # while some batch ran, a bulk request was shed and an
        # interactive one was admitted (and later served)
        assert any(
            any(b.launch < r.arrival < b.completion and r.kind == "matmul" for r in shed)
            and any(
                b.launch < r.arrival < b.completion and r.kind == "dft"
                for r in result.requests
            )
            for b in result.batches
        )
        traced = [row for row in tracer.requests if row[3] == "shed"]
        batches = [(b.index, b.kind, b.priority, b.rids, b.rows) for b in result.batches]
        assert (
            _sha(json.dumps([r.to_dict() for r in shed])),
            _sha(traced),
            _sha(batches),
        ) == MIXED_RUN_DIGESTS


# sha256 of the shed records, the tracer's shed rows and the batches'
# requests, recorded from the engine that admitted one arrival per call
MIXED_RUN_DIGESTS = (
    "d3c7d7238ba6dda3af6fd22ddaec15ddf0324b1ef1cce647d176b72c799277c4",
    "b05327af25c4be85a5dbf28ea8989cf066a5323cac24abe0862b4cf71cbe4a76",
    "5ccb26413d1533d830231e8ba837a8bed9dd1eba69c3056d3995f00ebcab9c8f",
)


class TestConservationBatchLookup:
    """check_conservation finds each request's batch record by index,
    whatever the indices are."""

    @staticmethod
    def _served():
        machine = TCUMachine(m=16, ell=64.0, execute="cost-only")
        return ServingEngine(machine, SizeBatcher(size=3)).serve(poisson(total=12, seed=3))

    @pytest.mark.parametrize("offset", [7, -1000])
    def test_any_record_indices(self, offset):
        result = self._served()
        result = replace(
            result,
            batches=[replace(b, index=b.index + offset) for b in result.batches],
            requests=[replace(r, batch=r.batch + offset) for r in result.requests],
        )
        result.check_conservation()

    @pytest.mark.parametrize("batch", [-1, 10**6])
    def test_request_without_record(self, batch):
        result = self._served()
        result = replace(
            result,
            requests=[
                replace(r, batch=batch) if i == 4 else r
                for i, r in enumerate(result.requests)
            ],
        )
        with pytest.raises(ServeError, match=r"^request 4 has no batch record$"):
            result.check_conservation()

    def test_request_on_the_wrong_record(self):
        result = self._served()
        first, last = result.batches[0], result.batches[-1]
        req = next(r for r in result.requests if r.batch == first.index)
        result = replace(
            result,
            requests=[
                replace(r, batch=last.index) if r.rid == req.rid else r
                for r in result.requests
            ],
        )
        with pytest.raises(
            ServeError,
            match=rf"^request {req.rid} completion .* batch's finish {last.completion}$",
        ):
            result.check_conservation()
