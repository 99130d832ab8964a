"""The benchmark's four workloads.

Each workload builds its inputs from the seed in :meth:`setup`, makes a
fresh machine and engine per operation in :meth:`prepare` (outside the
timed region), and runs the timed work in :meth:`execute`.  Everything
the simulator computes in model time is exact, so :meth:`model` turns an
operation into a dict of exact values -- the correctness record checked
against the stored references and between repeated operations -- and
:meth:`check` runs the checks that hold for every seed.

The program receives only the generated inputs; why each workload
exists is recorded in ``NOTES.md`` beside this file.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
from repro.obs import exporters
from repro.serve import ServeError
from repro.serve import metrics as serve_metrics

KERNEL_NAMES = (
    "thm1_strassen",
    "thm2_dense_mm",
    "thm3_sparse_mm",
    "thm4_gaussian",
    "thm5_closure",
    "thm6_apsd",
    "thm7_dft",
    "thm8_stencil",
    "thm9_intmul",
    "thm10_karatsuba",
    "thm11_polyeval",
    "thm12_extmem_replay",
    "thm2_dense_mm_p4",
    "thm5_closure_p4",
)


def sha256_json(value) -> str:
    """Digest of a JSON-able value (keys sorted, floats round-tripped)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _substreams(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


class _Serving:
    """Shared parts of the three serving workloads."""

    name = "abstract"
    kernel_suite = False  # True: results, outputs and spans per kernel entry

    def prepare(self):
        raise NotImplementedError

    def execute(self, prepared):
        """Serve the stream and compute its metrics (the timed work).

        Functions are looked up through their modules at call time, so
        the traced run's wrappers see these calls."""
        result = prepared[1].serve(self.workload)
        return result, serve_metrics.compute_metrics(result)

    def attempts(self) -> int:
        return 1  # one ServingEngine.serve call

    def requests(self, out) -> int:
        return out[0].completed

    def tensor_calls(self, prepared) -> int:
        return prepared[0].ledger.tensor_calls

    def model(self, prepared, out) -> dict:
        machine = prepared[0]
        result, metrics = out[:2]
        return {
            "snapshot": machine.ledger.snapshot(),
            "clock": result.clock,
            "completed": result.completed,
            "shed": len(result.shed),
            "abandoned": len(result.abandoned),
            "classes": {
                str(p): [c.latency_p50, c.latency_p99]
                for p, c in sorted(metrics.per_class.items())
            },
            "cache": [result.cache_hits, result.cache_misses],
        }

    def check(self, prepared, out) -> list[str]:
        result = out[0]
        failures = []
        try:
            result.check_conservation()
        except ServeError as exc:
            failures.append(f"conservation: {exc}")
        if result.offered != self.offered:
            failures.append(f"offered {result.offered} != generated {self.offered}")
        return failures


class ServeStream(_Serving):
    """The cost-only 100k-request replay of the serving benches: one
    long Poisson stream of 64-row matmul requests, continuous batching,
    default plan cache.  A longer stream gives fewer operations for the
    run's median."""

    name = "serve_stream"

    def setup(self, seed: int, scale: float = 1.0) -> None:
        from repro.serve import PoissonWorkload

        self.offered = max(1, int(100_000 * scale))
        self.workload = PoissonWorkload(
            rate=1.0 / 800.0, total=self.offered, kind="matmul", rows=64, seed=seed
        )
        self.prepare()

    def prepare(self):
        from repro.core.machine import TCUMachine
        from repro.serve import ContinuousBatcher, ServingEngine

        machine = TCUMachine(m=4096, ell=2048.0, execute="cost-only", trace_calls=False)
        return machine, ServingEngine(machine, ContinuousBatcher(max_size=256))

    def check(self, prepared, out) -> list[str]:
        failures = super().check(prepared, out)
        if out[0].completed != self.offered:
            failures.append(f"completed {out[0].completed} of {self.offered}")
        return failures


# (kind, row-count choices, share of requests) of the parallel mix
PARALLEL_CLASSES = (
    ("matmul", (4,), 0.1),
    ("mlp", (4,), 0.3),
    ("dft", (1, 2, 4), 0.3),
    ("stencil", (4, 8), 0.3),
)


def _parallel_machine():
    from repro.core.parallel import ParallelTCUMachine

    return ParallelTCUMachine(m=16, ell=512.0, units=3, execute="cost-only")


class ServeParallel(_Serving):
    """Four request kinds on a 3-unit cost-only machine, timeout
    batching, offered near 60% of the size-1 capacity.

    Batches hold at most two requests, so every class's batch shapes
    (its row counts and their ordered pairs) all occur in a run: the
    set of plan-cache misses, each planned with ``split="auto"``, is
    nearly the same for every seed, which keeps the planner-bound host
    time steady.
    The two-request ``matmul`` batch is about half the planning work,
    and with seeded arrivals some seeds never queued two ``matmul``
    requests at once, which cut the operation to a third.  So the
    ``matmul`` arrivals come from a fixed stream (seed 0's), and the
    seed draws the other classes'.
    """

    name = "serve_parallel"
    UTILISATION = 0.6
    TIMEOUT = 60_000.0

    def setup(self, seed: int, scale: float = 1.0) -> None:
        from repro.serve import MixedWorkload, PoissonWorkload
        from repro.serve.workload import get_request_type

        total = max(4, int(600 * scale))
        subs = _substreams(seed, len(PARALLEL_CLASSES))
        subs[0] = _substreams(0, len(PARALLEL_CLASSES))[0]  # matmul
        parts = []
        self.offered = 0
        for (kind, rows, share), sub in zip(PARALLEL_CLASSES, subs, strict=True):
            # size-1 service time of the class's smallest request on
            # this machine, measured rather than derived
            probe = _parallel_machine()
            get_request_type(kind).serve(probe, [min(rows)])
            rate = self.UTILISATION * share / probe.ledger.total_time
            count = max(1, int(total * share))
            self.offered += count
            parts.append(PoissonWorkload(rate=rate, total=count, kind=kind, rows=rows, seed=sub))
        self.workload = MixedWorkload(*parts)
        self.prepare()

    def prepare(self):
        from repro.serve import ServingEngine, TimeoutBatcher

        machine = _parallel_machine()
        batcher = TimeoutBatcher(timeout=self.TIMEOUT, max_size=2)
        return machine, ServingEngine(machine, batcher)


class ServeChaos(_Serving):
    """The two-class TPUv1 mix with preemption, injected faults,
    checkpoint recovery, fixed retry, level-detail tracing with a
    sampler and an SLO burn monitor, and the two telemetry exports."""

    name = "serve_chaos"

    def setup(self, seed: int, scale: float = 1.0) -> None:
        from repro.serve import interactive_batch_mix

        wl_seed, self.fault_seed = _substreams(seed, 2)
        interactive = max(8, int(600 * scale))
        self.workload = interactive_batch_mix(
            interactive,
            4,
            interactive_load=0.6,
            batch_rows=2048,
            interactive_slo=5e5,
            seed=wl_seed,
        )
        self.offered = interactive + 4
        self.prepare()

    def prepare(self):
        from repro.core.presets import TPU_V1
        from repro.obs import SloBurnMonitor, Tracer
        from repro.serve import ServingEngine, chaos_injector

        machine = TPU_V1.create(execute="cost-only", trace_calls=True)
        tracer = Tracer(
            detail="level",
            sample_every=2e5,
            monitors=[
                SloBurnMonitor(
                    "interactive-burn", target=0.99, window=5e6, priority=2, min_count=4
                )
            ],
        )
        engine = ServingEngine(
            machine,
            "continuous",
            faults=chaos_injector(
                fail_rate=0.05,
                crash_every=9.0,
                repair_for=0.4,
                straggle_rate=0.1,
                straggle_factor=2.5,
                seed=self.fault_seed,
            ),
            retry="fixed",
            recovery="checkpoint",
            preempt=True,
            tracer=tracer,
        )
        return machine, engine, tracer

    def execute(self, prepared):
        result, metrics = super().execute(prepared)
        tracer = prepared[2]
        trace = exporters.chrome_trace_json(tracer, label="chaos")
        prom = exporters.prometheus_text(tracer.registry)
        return result, metrics, trace, prom

    def model(self, prepared, out) -> dict:
        model = super().model(prepared, out)
        result, _, trace, prom = out
        model["faults"] = [result.faults, result.retries, result.preemptions]
        model["perfetto_sha256"] = hashlib.sha256(trace.encode()).hexdigest()
        model["prometheus_sha256"] = hashlib.sha256(prom.encode()).hexdigest()
        return model

    def check(self, prepared, out) -> list[str]:
        from repro.obs import ObsError, validate_chrome_trace

        failures = super().check(prepared, out)
        result, _, trace, _ = out
        tracer = prepared[2]
        if tracer.exec_time() != result.busy_time:
            failures.append(
                f"trace exec time {tracer.exec_time()} != busy time {result.busy_time}"
            )
        try:
            validate_chrome_trace(json.loads(trace))
        except (ObsError, ValueError) as exc:
            failures.append(f"perfetto export: {exc}")
        return failures


class Kernels:
    """The paper's algorithms on numeric machines: Theorems 1-11 on
    serial machines, the Theorem 12 replay, and Theorems 2 and 5 on a
    4-unit machine.  One operation is one kernel invocation; a timed
    pass runs all fourteen."""

    name = "kernels"
    kernel_suite = True

    def setup(self, seed: int, scale: float = 1.0) -> None:
        """Inputs from ``seed``; sizes are fixed (``scale`` is unused)."""
        from repro import matmul
        from repro.arith.intmul import int_multiply
        from repro.arith.karatsuba import karatsuba_multiply
        from repro.arith.polyeval import batch_polyeval
        from repro.extmem.simulate import simulate_ledger_io
        from repro.graph.apsd import apsd
        from repro.graph.closure import transitive_closure
        from repro.linalg.gaussian import ge_solve
        from repro.matmul.sparse import sparse_mm
        from repro.matmul.strassen import strassen_like_mm
        from repro.transform.dft import batched_dft
        from repro.transform.stencil import heat_equation_weights, stencil_tcu

        # Sizes balance the fourteen entries at a few to ~80 ms each.
        # The seed draws every value; the sparsity pattern and the graph
        # shape, which set how much work the two data-dependent kernels
        # do, come from a fixed stream (the graph relabelled by a seeded
        # permutation), so the work per pass is the same for every seed.
        rng = np.random.default_rng(seed)
        shape_rng = np.random.default_rng(0)
        A = rng.random((48, 48))
        B = rng.random((48, 48))
        D = rng.random((256, 256))
        E = rng.random((256, 256))
        S = (shape_rng.random((32, 32)) < 0.1) * rng.random((32, 32))
        M = rng.random((96, 96)) + 96 * np.eye(96)
        b = rng.random(96)
        adj = (rng.random((64, 64)) < 0.05).astype(np.int64)
        np.fill_diagonal(adj, 0)
        sym = np.triu(shape_rng.random((32, 32)) < 0.2, 1).astype(np.int64)
        order = rng.permutation(32)
        sym = (sym | sym.T)[np.ix_(order, order)]
        X = rng.random((64, 256)) + 1j * rng.random((64, 256))
        grid = rng.random((64, 64))
        W = heat_equation_weights()
        a_int = int(rng.integers(1, 2**62)) << 8192
        b_int = int(rng.integers(1, 2**62)) << 8192
        coeffs = rng.random(1024)
        points = rng.random(256)
        self.inputs = {
            "A": A, "B": B, "D": D, "E": E, "S": S, "M": M, "b": b, "adj": adj, "sym": sym,
            "X": X, "grid": grid, "W": W, "a_int": a_int, "b_int": b_int,
            "coeffs": coeffs, "points": points,
        }  # fmt: skip
        # (name, machine as (units, m, ell), call) in execution order;
        # the replay has no machine of its own: it reads the ledger the
        # serial Theorem 2 run just charged
        serial16 = (1, 16, 8.0)
        self.entries = (
            ("thm1_strassen", (1, 16, 32.0), lambda t: strassen_like_mm(t, A, B)),
            ("thm2_dense_mm", (1, 64, 32.0), lambda t: matmul(t, D, E)),
            ("thm3_sparse_mm", serial16, lambda t: sparse_mm(t, S, S.T)),
            ("thm4_gaussian", serial16, lambda t: ge_solve(t, M, b)),
            ("thm5_closure", serial16, lambda t: transitive_closure(t, adj)),
            ("thm6_apsd", serial16, lambda t: apsd(t, sym)),
            ("thm7_dft", serial16, lambda t: batched_dft(t, X)),
            ("thm8_stencil", serial16, lambda t: stencil_tcu(t, grid, W, 8)),
            ("thm9_intmul", serial16, lambda t: int_multiply(t, a_int, b_int)),
            ("thm10_karatsuba", serial16, lambda t: karatsuba_multiply(t, a_int, b_int)),
            ("thm11_polyeval", serial16, lambda t: batch_polyeval(t, coeffs, points)),
            ("thm12_extmem_replay", None, lambda t: simulate_ledger_io(t.ledger)),
            ("thm2_dense_mm_p4", (4, 64, 32.0), lambda t: matmul(t, D, E)),
            ("thm5_closure_p4", (4, 16, 8.0), lambda t: transitive_closure(t, adj)),
        )
        self.prepare()

    def prepare(self):
        from repro import ParallelTCUMachine, TCUMachine

        machines = {}
        for name, spec, _ in self.entries:
            if spec is None:
                machines[name] = machines["thm2_dense_mm"]
                continue
            units, m, ell = spec
            if units == 1:
                machines[name] = TCUMachine(m=m, ell=ell)
            else:
                machines[name] = ParallelTCUMachine(m=m, ell=ell, units=units)
        return machines

    def execute(self, prepared, timed_call=None):
        outputs = {}
        for name, _, fn in self.entries:
            machine = prepared[name]
            if timed_call is None:
                outputs[name] = fn(machine)
            else:
                outputs[name] = timed_call(f"kernel.{name}", fn, machine)
        return outputs

    def attempts(self) -> int:
        return len(self.entries)

    def requests(self, out) -> int:
        return len(out)  # kernel invocations

    def tensor_calls(self, prepared) -> int:
        return sum(
            m.ledger.tensor_calls for name, m in prepared.items()
            if name != "thm12_extmem_replay"
        )  # fmt: skip

    def model(self, prepared, out) -> dict:
        model = {
            name: machine.ledger.snapshot()
            for name, machine in prepared.items()
            if name != "thm12_extmem_replay"
        }
        io = out["thm12_extmem_replay"]
        model["thm12_extmem_replay"] = {
            "tensor_ios": io.tensor_ios,
            "cpu_ios": io.cpu_ios,
            "tensor_calls": io.tensor_calls,
            "model_time": io.model_time,
        }
        return model

    def check(self, prepared, out) -> list[str]:
        """Each output against numpy or the RAM-model baselines."""
        from repro.baselines.ram import (
            RAMMachine,
            ram_apsd_bfs,
            ram_horner,
            ram_stencil_sweeps,
            ram_transitive_closure,
        )

        x = self.inputs
        product = x["A"] @ x["B"]
        dense = x["D"] @ x["E"]
        closure = ram_transitive_closure(RAMMachine(), x["adj"])
        sparse = _dense(out["thm3_sparse_mm"])
        ok = {
            "thm1_strassen": np.allclose(out["thm1_strassen"], product),
            "thm2_dense_mm": np.allclose(out["thm2_dense_mm"], dense),
            "thm3_sparse_mm": np.allclose(sparse, x["S"] @ x["S"].T),
            "thm4_gaussian": np.allclose(out["thm4_gaussian"], np.linalg.solve(x["M"], x["b"])),
            "thm5_closure": np.array_equal(out["thm5_closure"] != 0, closure != 0),
            "thm6_apsd": np.array_equal(out["thm6_apsd"], ram_apsd_bfs(RAMMachine(), x["sym"])),
            "thm7_dft": np.allclose(out["thm7_dft"], np.fft.fft(x["X"], axis=1)),
            "thm8_stencil": np.allclose(
                out["thm8_stencil"], ram_stencil_sweeps(RAMMachine(), x["grid"], x["W"], 8)
            ),
            "thm9_intmul": out["thm9_intmul"] == x["a_int"] * x["b_int"],
            "thm10_karatsuba": out["thm10_karatsuba"] == x["a_int"] * x["b_int"],
            "thm11_polyeval": np.allclose(
                out["thm11_polyeval"], ram_horner(RAMMachine(), x["coeffs"], x["points"])
            ),
            "thm12_extmem_replay": self._replay_ok(prepared, out),
            "thm2_dense_mm_p4": np.allclose(out["thm2_dense_mm_p4"], dense),
            "thm5_closure_p4": np.array_equal(out["thm5_closure_p4"] != 0, closure != 0),
        }
        return [f"{name}: output differs from the reference" for name, good in ok.items() if not good]

    @staticmethod
    def _replay_ok(prepared, out) -> bool:
        """Theorem 12's weak accounting recomputed from the call trace."""
        ledger = prepared["thm2_dense_mm"].ledger
        io = out["thm12_extmem_replay"]
        n, s, _, _ = ledger.calls.as_arrays()
        tensor_ios = int((-(-n // s) * 3 * s * s).sum())
        return (
            io.tensor_ios == tensor_ios
            and io.cpu_ios == int(ledger.cpu_time)
            and io.tensor_calls == ledger.tensor_calls
            and io.model_time == ledger.total_time
        )

    def same_outputs(self, a: dict, b: dict) -> bool:
        """Bitwise equality of two passes' outputs."""
        return all(np.array_equal(_dense(a[name]), _dense(b[name])) for name in a)


def _dense(value):
    """A SciPy sparse result as a dense array; anything else as is."""
    return value.toarray() if hasattr(value, "toarray") else value


WORKLOADS = {
    cls.name: cls for cls in (ServeStream, ServeParallel, Kernels, ServeChaos)
}
