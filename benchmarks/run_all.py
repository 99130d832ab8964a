#!/usr/bin/env python
"""Run every benchmark at smoke sizes and write a machine-readable
``BENCH_PR2.json`` tracking the simulator's performance trajectory.

Three sections are produced:

* ``theorems`` — one direct smoke scenario per theorem: wall-clock
  seconds, charged model time and tensor-call count, so regressions in
  either real speed or accounting show up side by side.
* ``exec_paths`` — the Theorem 2 product timed through both execution
  paths (fused, cost-only) and raw numpy, with the cost-only speedup
  over the fused path and the fused path's overhead over numpy.
* ``benches`` — every ``benchmarks/bench_*.py`` file run through pytest
  with ``--benchmark-disable`` (each timed body executes once): per-file
  wall clock and pass/fail.
* ``serving`` — the headline numbers from ``BENCH_PR4.json`` (written by
  ``bench_serving.py`` during the bench pass): cost-only replay rate
  over a 100k-request stream, the timeout-vs-size-1 p99 gate on the
  latency-bound preset, and the served-vs-replayed parity gate.
* ``preemption`` — the headline numbers from ``BENCH_PR5.json``
  (written by ``bench_preemption.py``): the zero-preemption parity
  gate, the preemption-beats-FIFO high-priority p99 gate on the
  two-class TPUv1 scenario, and the shed-rate-vs-load curve under
  queue-cap admission.
* ``plan_cache`` — the headline numbers from ``BENCH_PR6.json``
  (written by ``bench_plan_cache.py``): the cached-vs-uncached
  hot-path speedup on the deep bulk-MLP TPUv1 scenario, the
  bit-identity parity gate, and the cache hit rate.
* ``autosplit`` — the headline numbers from ``BENCH_PR10.json``
  (written by ``bench_autosplit.py``): the tensor-stream speedup of
  ``split="auto"`` vs ``split=1`` at p=4 on the DFT and stencil
  merged-level scenarios, the exact-oracle agreement gate, and the
  split=1 PR 9 parity gate.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py [--full] [--skip-benches]
        [--out BENCH_PR2.json]

``--full`` sizes the exec-path comparison at n=1024 (the ISSUE 2
acceptance size); the default smoke size is n=256 so CI stays fast.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro import ParallelTCUMachine, TCUMachine, matmul, matmul_lazy  # noqa: E402
from repro.arith.intmul import int_multiply  # noqa: E402
from repro.arith.karatsuba import karatsuba_multiply  # noqa: E402
from repro.arith.polyeval import batch_polyeval  # noqa: E402
from repro.core.program import TensorProgram, run_program  # noqa: E402
from repro.extmem.simulate import simulate_ledger_io  # noqa: E402
from repro.graph.apsd import apsd  # noqa: E402
from repro.graph.closure import transitive_closure  # noqa: E402
from repro.linalg.gaussian import ge_solve  # noqa: E402
from repro.matmul.sparse import sparse_mm  # noqa: E402
from repro.matmul.strassen import strassen_like_mm  # noqa: E402
from repro.transform.dft import batched_dft  # noqa: E402
from repro.transform.stencil import heat_equation_weights, stencil_tcu  # noqa: E402

RNG = np.random.default_rng(190_806_649)


def timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def theorem_scenarios() -> dict[str, dict]:
    """One smoke run per theorem: wall seconds + charged model time."""
    out: dict[str, dict] = {}

    def record(name, machine, fn):
        wall, _ = timed(fn)
        out[name] = {
            "wall_s": round(wall, 6),
            "model_time": machine.ledger.total_time,
            "tensor_calls": machine.ledger.tensor_calls,
        }
        return machine

    A = RNG.random((96, 96))
    B = RNG.random((96, 96))
    t = TCUMachine(m=16, ell=32.0)
    record("thm1_strassen", t, lambda: strassen_like_mm(t, A, B))

    t2 = TCUMachine(m=64, ell=32.0)
    record("thm2_dense_mm", t2, lambda: matmul(t2, A, B))

    t3 = TCUMachine(m=16, ell=8.0)
    S = (RNG.random((64, 64)) < 0.05) * RNG.random((64, 64))
    record("thm3_sparse_mm", t3, lambda: sparse_mm(t3, S, S.T))

    t4 = TCUMachine(m=16, ell=8.0)
    M = RNG.random((48, 48)) + 48 * np.eye(48)
    b = RNG.random(48)
    record("thm4_gaussian", t4, lambda: ge_solve(t4, M, b))

    t5 = TCUMachine(m=16, ell=8.0)
    adj = (RNG.random((48, 48)) < 0.08).astype(np.int64)
    np.fill_diagonal(adj, 0)
    record("thm5_closure", t5, lambda: transitive_closure(t5, adj))

    t6 = TCUMachine(m=16, ell=8.0)
    sym = np.triu(RNG.random((32, 32)) < 0.2, 1).astype(np.int64)
    sym = sym | sym.T
    record("thm6_apsd", t6, lambda: apsd(t6, sym))

    t7 = TCUMachine(m=16, ell=8.0)
    X = RNG.random((8, 256)) + 1j * RNG.random((8, 256))
    record("thm7_dft", t7, lambda: batched_dft(t7, X))

    t8 = TCUMachine(m=16, ell=8.0)
    grid = RNG.random((32, 32))
    W = heat_equation_weights()
    record("thm8_stencil", t8, lambda: stencil_tcu(t8, grid, W, 4))

    t9 = TCUMachine(m=16, ell=8.0)
    a_int = int(RNG.integers(1, 2**62)) << 512
    b_int = int(RNG.integers(1, 2**62)) << 512
    record("thm9_intmul", t9, lambda: int_multiply(t9, a_int, b_int))

    t10 = TCUMachine(m=16, ell=8.0)
    record("thm10_karatsuba", t10, lambda: karatsuba_multiply(t10, a_int, b_int))

    t11 = TCUMachine(m=16, ell=8.0)
    coeffs = RNG.random(64)
    points = RNG.random(32)
    record("thm11_polyeval", t11, lambda: batch_polyeval(t11, coeffs, points))

    t12 = TCUMachine(m=16, ell=8.0)
    matmul(t12, A, B)
    wall, io = timed(lambda: simulate_ledger_io(t12.ledger))
    out["thm12_extmem_replay"] = {
        "wall_s": round(wall, 6),
        "model_time": io.model_time,
        "tensor_calls": io.tensor_calls,
        "total_ios": io.total_ios,
    }

    tp = ParallelTCUMachine(m=64, ell=32.0, units=4)
    record("parallel_batch", tp, lambda: _planned_product(tp, A, B))
    return out


def _planned_product(machine, A, B):
    program = TensorProgram()
    lazy = matmul_lazy(machine, program, A, B)
    run_program(program, machine)
    return lazy.result()


def exec_path_comparison(n: int, m: int = 256, ell: float = 32.0) -> dict:
    """The Theorem 2 product through both execution paths."""
    A = RNG.random((n, n))
    B = RNG.random((n, n))

    fused = TCUMachine(m=m, ell=ell)
    wall_fused, _ = timed(lambda: matmul(fused, A, B))

    cost = TCUMachine(m=m, ell=ell, execute="cost-only")
    wall_cost, _ = timed(lambda: matmul(cost, A, B))

    wall_numpy, _ = timed(lambda: A @ B)

    ledgers_equal = fused.ledger.snapshot() == cost.ledger.snapshot()
    return {
        "n": n,
        "m": m,
        "ell": ell,
        "tensor_calls": fused.ledger.tensor_calls,
        "model_time": fused.ledger.total_time,
        "ledgers_identical": ledgers_equal,
        "wall_s": {
            "numpy_raw": round(wall_numpy, 6),
            "fused": round(wall_fused, 6),
            "cost_only": round(wall_cost, 6),
        },
        "speedup_vs_fused": {
            "cost_only": round(wall_fused / wall_cost, 2),
        },
        "overhead_vs_numpy": {
            "fused": round(wall_fused / wall_numpy, 2),
        },
    }


def run_bench_files() -> dict[str, dict]:
    """Each bench_*.py once through pytest with benchmarking disabled."""
    out: dict[str, dict] = {}
    for bench in sorted(REPO.glob("benchmarks/bench_*.py")):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "pytest",
                str(bench),
                "-q",
                "--benchmark-disable",
                "-p",
                "no:cacheprovider",
            ],
            cwd=REPO,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
            capture_output=True,
            text=True,
        )
        out[bench.stem] = {
            "wall_s": round(time.perf_counter() - t0, 3),
            "ok": proc.returncode == 0,
        }
        if proc.returncode != 0:
            out[bench.stem]["tail"] = proc.stdout[-2000:]
    return out


def serving_summary() -> dict | None:
    """Headline serving numbers from the BENCH_PR4.json the bench pass
    just wrote (None when the file is missing, e.g. --skip-benches)."""
    path = REPO / "BENCH_PR4.json"
    if not path.is_file():
        return None
    data = json.loads(path.read_text())
    replay = data.get("replay", {})
    ablation = data.get("policy_ablation", {})
    parity = data.get("parity", {})
    parity_flags = [value for value in parity.values() if isinstance(value, bool)]
    return {
        "replay_requests": replay.get("requests"),
        "replay_requests_per_s": replay.get("requests_per_s"),
        "timeout_beats_size1": ablation.get("timeout_beats_size1"),
        # no recorded parity evidence counts as a failure, not a pass
        "parity_ok": bool(parity_flags) and all(parity_flags),
    }


def preemption_summary() -> dict | None:
    """Headline preemption numbers from the BENCH_PR5.json the bench
    pass just wrote (None when the file is missing, e.g. --skip-benches)."""
    path = REPO / "BENCH_PR5.json"
    if not path.is_file():
        return None
    data = json.loads(path.read_text())
    parity = data.get("parity", {})
    preemption = data.get("preemption", {})
    shedding = data.get("shedding", {})
    parity_flags = [value for value in parity.values() if isinstance(value, bool)]
    return {
        # no recorded parity evidence counts as a failure, not a pass
        "zero_preemption_parity": bool(parity_flags) and all(parity_flags),
        "preemption_beats_fifo": preemption.get("preemption_beats_fifo"),
        "hi_p99_speedup": preemption.get("hi_p99_speedup"),
        "reload_time": preemption.get("reload_time"),
        "shed_rate_at_overload": (
            shedding.get("curve", [{}])[-1].get("shed_rate")
            if shedding.get("curve")
            else None
        ),
        "clean_at_light_load": shedding.get("clean_at_light_load"),
    }


def plan_cache_summary() -> dict | None:
    """Headline plan-cache numbers from the BENCH_PR6.json the bench
    pass just wrote (None when the file is missing, e.g. --skip-benches)."""
    path = REPO / "BENCH_PR6.json"
    if not path.is_file():
        return None
    data = json.loads(path.read_text())
    hot = data.get("hot_path", {})
    parity = data.get("parity", {})
    cache = data.get("cache", {})
    parity_flags = [value for value in parity.values() if isinstance(value, bool)]
    return {
        "speedup": hot.get("speedup"),
        "speedup_gate": hot.get("gate"),
        "cached_requests_per_s": hot.get("cached_requests_per_s"),
        "uncached_requests_per_s": hot.get("uncached_requests_per_s"),
        "hit_rate": cache.get("hit_rate"),
        "hit_rate_ok": cache.get("hit_rate_ok"),
        # no recorded parity evidence counts as a failure, not a pass
        "parity_ok": bool(parity_flags) and all(parity_flags),
    }


def autosplit_summary() -> dict | None:
    """Headline auto-splitter numbers from the BENCH_PR10.json the
    bench pass just wrote (None when the file is missing)."""
    path = REPO / "BENCH_PR10.json"
    if not path.is_file():
        return None
    data = json.loads(path.read_text())
    curves = data.get("speedup", {}).get("curves", {})

    def at_p4(kind):
        for point in curves.get(kind, []):
            if point.get("units") == 4:
                return point.get("stream_speedup")
        return None

    return {
        "dft_stream_speedup_p4": at_p4("dft"),
        "stencil_stream_speedup_p4": at_p4("stencil"),
        "deep_mlp_stream_speedup_p4": at_p4("deep-mlp"),
        "speedup_gate": data.get("speedup", {}).get("gate"),
        "oracle_agrees": data.get("oracle", {}).get("all_agree"),
        # no recorded parity evidence counts as a failure, not a pass
        "split1_parity_ok": bool(data.get("parity", {}).get("all_match")),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full",
        action="store_true",
        help="size the exec-path comparison at n=1024 (acceptance size)",
    )
    parser.add_argument(
        "--skip-benches",
        action="store_true",
        help="skip the pytest bench files (theorem + path sections only)",
    )
    parser.add_argument("--out", default=str(REPO / "BENCH_PR2.json"))
    args = parser.parse_args(argv)

    report = {
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "mode": "full" if args.full else "smoke",
        },
        "exec_paths": exec_path_comparison(1024 if args.full else 256),
        "theorems": theorem_scenarios(),
    }
    if not args.skip_benches:
        report["benches"] = run_bench_files()
        serving = serving_summary()
        if serving is not None:
            report["serving"] = serving
        preemption = preemption_summary()
        if preemption is not None:
            report["preemption"] = preemption
        plan_cache = plan_cache_summary()
        if plan_cache is not None:
            report["plan_cache"] = plan_cache
        autosplit = autosplit_summary()
        if autosplit is not None:
            report["autosplit"] = autosplit

    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    paths = report["exec_paths"]
    print(f"wrote {args.out}")
    print(
        "exec paths @ n={n}: fused {fused}s, cost-only {cost_only}s, "
        "numpy {numpy_raw}s".format(n=paths["n"], **paths["wall_s"])
    )
    print(
        "speedup vs fused: cost-only {cost_only}x; "
        "ledgers identical: {ok}".format(
            ok=paths["ledgers_identical"], **paths["speedup_vs_fused"]
        )
    )
    serving = report.get("serving")
    if serving is not None:
        print(
            "serving: {replay_requests} cost-only requests at "
            "{replay_requests_per_s}/s; timeout beats size-1: "
            "{timeout_beats_size1}; replay parity: {parity_ok}".format(**serving)
        )
    preemption = report.get("preemption")
    if preemption is not None:
        speedup = preemption["hi_p99_speedup"]
        print(
            "preemption: zero-preemption parity {zero_preemption_parity}; "
            "beats FIFO on hi-p99: {preemption_beats_fifo} ({speedup}x); "
            "shed at overload: {shed_rate_at_overload}".format(
                speedup="n/a" if speedup is None else f"{speedup:.3g}",
                **preemption,
            )
        )
    plan_cache = report.get("plan_cache")
    if plan_cache is not None:
        speedup = plan_cache["speedup"]
        print(
            "plan cache: {cached_requests_per_s} req/s cached vs "
            "{uncached_requests_per_s} uncached ({speedup}x, gate "
            "{speedup_gate}x); hit rate {hit_rate}; parity: {parity_ok}".format(
                speedup="n/a" if speedup is None else f"{speedup:.3g}",
                **{k: v for k, v in plan_cache.items() if k != "speedup"},
            )
        )
    autosplit = report.get("autosplit")
    if autosplit is not None:
        print(
            "autosplit: stream speedup @ p=4 — dft "
            "{dft_stream_speedup_p4}x, stencil {stencil_stream_speedup_p4}x "
            "(gate {speedup_gate}x); oracle agrees: {oracle_agrees}; "
            "split=1 parity: {split1_parity_ok}".format(**autosplit)
        )
    failures = [
        name
        for name, entry in report.get("benches", {}).items()
        if not entry["ok"]
    ]
    if failures:
        print("FAILED benches:", ", ".join(failures))
        return 1
    if not paths["ledgers_identical"]:
        print("FAILED: execution paths charged divergent ledgers")
        return 1
    if serving is not None and not (
        serving["timeout_beats_size1"] and serving["parity_ok"]
    ):
        print("FAILED: serving gates (policy ablation / replay parity)")
        return 1
    if preemption is not None and not (
        preemption["zero_preemption_parity"]
        and preemption["preemption_beats_fifo"]
        and preemption["clean_at_light_load"]
    ):
        print("FAILED: preemption gates (parity / hi-p99 / shedding)")
        return 1
    if plan_cache is not None and not (
        plan_cache["parity_ok"]
        and plan_cache["hit_rate_ok"]
        and plan_cache["speedup"] is not None
        and plan_cache["speedup_gate"] is not None
        and plan_cache["speedup"] >= plan_cache["speedup_gate"]
    ):
        print("FAILED: plan-cache gates (parity / hit rate / speedup)")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
