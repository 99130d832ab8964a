"""The columnar request store: requests as table rows, records at the edges.

A served run keeps one request table; queues, policies, in-flight
batches, the tracer and the result hold row indices into it.  These
tests pin what that promises: a stock workload's untraced serve builds
no :class:`Request`; records read back from a result equal the
generated ones with their placement filled in; every value a result,
record, trace row or export carries is a plain Python scalar; and a
request whose stamps the table cannot hold fails where it enters.
"""

import dataclasses
import gc
import math

import numpy as np
import pytest

from repro.core.machine import TCUMachine
from repro.core.presets import TPU_V1
from repro.obs import SloBurnMonitor, Tracer
from repro.serve import (
    ClosedLoopWorkload,
    MixedWorkload,
    PoissonWorkload,
    QueueCapAdmission,
    ServeError,
    ServingEngine,
    TimeoutBatcher,
    TraceWorkload,
    Workload,
    chaos_injector,
    interactive_batch_mix,
)
from repro.serve.table import RequestChunk, RequestRows
from repro.serve.workload import Request


def _live_requests() -> int:
    gc.collect()
    return sum(isinstance(obj, Request) for obj in gc.get_objects())


class TestNoRequestObjects:
    def test_untraced_stock_serve_builds_none_until_read(self, monkeypatch):
        built = []
        init = Request.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        workload = PoissonWorkload(
            rate=1 / 900, total=20_000, kind="matmul", rows=(8, 16), slo=4e4,
            deadline=9e4, seed=11,
        )
        machine = TCUMachine(m=64, ell=256.0, execute="cost-only", trace_calls=False)
        engine = ServingEngine(machine, "continuous")
        before = _live_requests()
        monkeypatch.setattr(Request, "__init__", counting)
        result = engine.serve(workload)
        monkeypatch.setattr(Request, "__init__", init)
        assert built == []
        assert _live_requests() == before
        assert result.completed == 20_000

        records = list(result.requests)
        assert _live_requests() == before + 20_000
        # completion order is arrival order here: one class, FIFO batches
        generated = list(workload.requests())
        stamps = ("rid", "kind", "arrival", "rows", "slo", "priority", "deadline")
        for got, want in zip(records, generated, strict=True):
            assert [getattr(got, f) for f in stamps] == [getattr(want, f) for f in stamps]
        by_index = {b.index: b for b in result.batches}
        for req in records:
            batch = by_index[req.batch]
            assert req.rid in batch.rids
            assert req.launch == batch.launch
            assert req.completion == batch.completion

    def test_records_are_read_only_copies(self):
        machine = TCUMachine(m=16, ell=64.0, execute="cost-only")
        result = ServingEngine(machine, "continuous").serve(
            PoissonWorkload(rate=1e-3, total=12, rows=4, seed=2)
        )
        assert isinstance(result.requests, RequestRows)
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.requests[0].completion = 0.0
        assert not hasattr(result.requests, "append")
        assert result.requests[0] == result.requests[0]
        assert result.requests[2:5] == list(result.requests)[2:5]

    def test_caller_built_records_are_copied_into_a_table(self):
        machine = TCUMachine(m=16, ell=64.0, execute="cost-only")
        result = ServingEngine(machine, "continuous").serve(
            PoissonWorkload(rate=1e-3, total=12, rows=4, seed=2)
        )
        rebuilt = dataclasses.replace(result, requests=list(result.requests))
        assert isinstance(rebuilt.requests, RequestRows)
        assert rebuilt.requests.table is not result.requests.table
        assert rebuilt.to_dict() == result.to_dict()
        rebuilt.check_conservation()


# ----------------------------------------------------------------------
# custom streams: requests() over a stock workload, hand-built chunks
# ----------------------------------------------------------------------
class _Tightened(PoissonWorkload):
    """A stock workload whose ``requests()`` wraps ``super().requests()``."""

    def requests(self):
        for req in super().requests():
            yield dataclasses.replace(req, slo=1.0)


class _MixedChunks(Workload):
    """One hand-built chunk whose rows interleave two classes."""

    def __init__(self, chunk):
        self.chunk = chunk

    def chunks(self):
        yield self.chunk


_COLUMNS = ("rid", "kind", "arrival", "rows", "priority", "slo", "deadline")


def _two_class_chunk(n: int) -> RequestChunk:
    stream = MixedWorkload(
        PoissonWorkload(rate=1e-3, total=n, kind="matmul", rows=4, seed=5),
        PoissonWorkload(rate=1e-3, total=n, kind="dft", rows=2, priority=1, seed=6),
    )
    return RequestChunk.concat(list(stream.chunks()))


class TestCustomStreams:
    def test_requests_override_of_a_stock_workload(self):
        wl = _Tightened(rate=1e-3, total=40, rows=(4, 8), slo=5.0, seed=3)
        stock = PoissonWorkload(rate=1e-3, total=40, rows=(4, 8), slo=5.0, seed=3)
        expected = [dataclasses.replace(r, slo=1.0) for r in stock.requests()]
        assert list(wl.requests()) == expected
        assert [r for c in wl.chunks() for r in c.records()] == expected
        machine = TCUMachine(m=16, ell=64.0, execute="cost-only")
        result = ServingEngine(machine, "continuous").serve(wl)
        assert result.completed == 40
        assert {r.slo for r in result.requests} == {1.0}

    def test_hand_built_chunk_is_queued_by_each_rows_class(self):
        chunk = _two_class_chunk(24)
        assert not chunk.uniform
        assert len(set(chunk.kind.tolist())) == 2
        with pytest.raises(TypeError, match="uniform"):
            RequestChunk(*(getattr(chunk, name) for name in _COLUMNS), uniform=True)
        machine = TCUMachine(m=16, ell=64.0, execute="cost-only")
        engine = ServingEngine(machine, TimeoutBatcher(timeout=5e3, max_size=4))
        result = engine.serve(_MixedChunks(chunk))
        assert result.completed == 48
        kinds = {r.rid: (r.kind, r.priority) for r in chunk.records()}
        for batch in result.batches:
            assert {kinds[rid] for rid in batch.rids} == {(batch.kind, batch.priority)}
        result.check_conservation()


# ----------------------------------------------------------------------
# plain Python values everywhere
# ----------------------------------------------------------------------
_PLAIN = (int, float, str, type(None), bool)


def _assert_plain(value, where):
    if isinstance(value, (tuple, list)):
        for i, item in enumerate(value):
            _assert_plain(item, f"{where}[{i}]")
    elif isinstance(value, dict):
        for key, item in value.items():
            _assert_plain(key, f"{where} key")
            _assert_plain(item, f"{where}.{key}")
    else:
        assert type(value) in _PLAIN, f"{where} is {type(value).__name__}: {value!r}"


class _NumpyStamped(Workload):
    """A custom stream whose records carry numpy scalars."""

    def requests(self):
        for rid in range(24):
            yield Request(
                rid=np.int64(rid),
                kind="matmul",
                arrival=np.float64(40.0 * rid),
                rows=np.int64(4),
                slo=np.float64(3e3),
                priority=np.int64(rid % 2),
                deadline=np.float64(40.0 * rid + 2e3),
            )


def _chaos_traced():
    tracer = Tracer(
        detail="level",
        sample_every=2e5,
        monitors=[SloBurnMonitor("burn", target=0.99, window=5e6, priority=2, min_count=4)],
    )
    engine = ServingEngine(
        TPU_V1.create(execute="cost-only", trace_calls=True),
        "continuous",
        admission=QueueCapAdmission(cap=2),
        faults=chaos_injector(fail_rate=0.05, crash_every=9.0, repair_for=0.4, seed=3),
        retry="fixed",
        preempt=True,
        abandon=True,
        tracer=tracer,
    )
    workload = interactive_batch_mix(
        60, 3, interactive_load=0.6, batch_rows=2048, interactive_slo=5e5, seed=3
    )
    return engine.serve(workload), tracer


def _mixed_samplerless():
    tracer = Tracer()
    workload = MixedWorkload(
        PoissonWorkload(rate=1 / 3e3, total=30, rows=(4, 8), slo=2e4, deadline=3e4, seed=1),
        TraceWorkload(
            [0.0, 0.0, 500.0, 9e3], kind="dft", rows=2, priority=1, slo=1e4, seed=2
        ),
    )
    engine = ServingEngine(
        TCUMachine(m=16, ell=64.0, execute="cost-only"),
        TimeoutBatcher(timeout=2e3, max_size=4),
        tracer=tracer,
    )
    return engine.serve(workload), tracer


def _closed_loop():
    workload = ClosedLoopWorkload(clients=3, total=15, think=200.0, rows=(2, 4), seed=4)
    return ServingEngine(TCUMachine(m=16, ell=64.0), "continuous").serve(workload), None


def _numpy_stamps():
    tracer = Tracer(sample_every=1e3)
    engine = ServingEngine(
        TCUMachine(m=16, ell=64.0, execute="cost-only"), "continuous", tracer=tracer
    )
    return engine.serve(_NumpyStamped()), tracer


@pytest.mark.parametrize(
    "run", [_chaos_traced, _mixed_samplerless, _closed_loop, _numpy_stamps],
    ids=["chaos-traced", "mixed-samplerless", "closed-loop", "numpy-stamps"],
)
def test_results_records_and_rows_hold_plain_values(run):
    result, tracer = run()
    assert result.completed
    if run is _chaos_traced:
        assert result.shed and result.abandoned and result.faults
    for name in ("requests", "shed", "abandoned"):
        for i, req in enumerate(getattr(result, name)):
            for field in dataclasses.fields(Request):
                _assert_plain(getattr(req, field.name), f"{name}[{i}].{field.name}")
    for batch in result.batches:
        for field in dataclasses.fields(batch):
            _assert_plain(getattr(batch, field.name), f"batch {batch.index}.{field.name}")
    _assert_plain(result.to_dict(), "to_dict()")
    if tracer is not None:
        for view in ("requests", "segments", "batch_rows"):
            _assert_plain(getattr(tracer, view), f"tracer.{view}")


# ----------------------------------------------------------------------
# stamps the table cannot hold fail where they enter it
# ----------------------------------------------------------------------
class _Stamps(Workload):
    def __init__(self, **stamps):
        self.stamps = stamps

    def requests(self):
        for rid in range(3):
            fields = {"rows": 4, **(self.stamps if rid == 1 else {})}
            yield Request(rid=rid, kind="matmul", arrival=10.0 * rid, **fields)


class _FollowUp(Workload):
    """One request at 0; its completion injects one with ``stamps``."""

    def __init__(self, **stamps):
        self.stamps = stamps

    def requests(self):
        yield Request(rid=0, kind="matmul", arrival=0.0, rows=4)

    def on_complete(self, request, now):
        if request.rid:
            return []
        return [Request(rid=7, kind="matmul", arrival=now + 1.0, **{"rows": 4, **self.stamps})]


_BAD_STAMPS = [
    ({"slo": math.nan}, r"has slo nan; slo must be a number or None"),
    ({"deadline": math.nan}, r"has deadline nan; deadline must be a number or None"),
    ({"rows": 2.5}, r"has rows 2\.5; rows must be an integer >= 0"),
    ({"rows": -1}, r"has rows -1; rows must be an integer >= 0"),
]


class TestUnservableStamps:
    @pytest.mark.parametrize(("stamps", "message"), _BAD_STAMPS, ids=lambda v: str(v))
    def test_streamed(self, stamps, message):
        machine = TCUMachine(m=16, ell=64.0, execute="cost-only")
        with pytest.raises(ServeError, match=rf"^request 1 {message}$"):
            ServingEngine(machine, "continuous").serve(_Stamps(**stamps))

    @pytest.mark.parametrize(("stamps", "message"), _BAD_STAMPS, ids=lambda v: str(v))
    def test_injected(self, stamps, message):
        machine = TCUMachine(m=16, ell=64.0, execute="cost-only")
        with pytest.raises(ServeError, match=rf"^request 7 {message}$"):
            ServingEngine(machine, "continuous").serve(_FollowUp(**stamps))

    def test_infinite_stamps_still_serve(self):
        machine = TCUMachine(m=16, ell=64.0, execute="cost-only")
        result = ServingEngine(machine, "continuous").serve(
            _Stamps(slo=math.inf, deadline=-math.inf)
        )
        assert result.completed == 3
        assert result.requests[1].deadline == -math.inf

    def test_mixed_constituent_out_of_order(self):
        class Backwards(Workload):
            def requests(self):
                yield Request(rid=0, kind="matmul", arrival=5.0, rows=4)
                yield Request(rid=1, kind="matmul", arrival=1.0, rows=4)

        mix = MixedWorkload(PoissonWorkload(rate=1e-3, total=3, seed=1), Backwards())
        with pytest.raises(ServeError, match=r"^constituent 1 .* request 1 arrives at 1\.0$"):
            list(mix.requests())
