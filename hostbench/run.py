"""Host-time benchmark of the (m, l)-TCU simulator.

Run from the repository root::

    python3 hostbench/run.py --workload serve_stream --seed 1 --seconds 10 --trace 0

It builds the workload's inputs from ``--seed``, runs one untimed
checking operation, then repeats the timed operation for ``--seconds``
seconds on one thread (BLAS and OpenMP pinned to one thread).  With
``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` untraced and traced operations alternate and it reports
the per-layer metrics (see ``layers.py``).  ``wall_s`` is the median
timed operation and ``setup_s`` the median set-up, each normalised to
the reference host's speed by the calibration loops timed around it
(see :func:`run_benchmark` and ``calibration.py``).  Model-time results
are exact, so they are correctness checks: an operation fails when they
differ from the stored reference of a recorded seed (``reference.json``)
or from the run's first operation, or when a check that holds for
every seed fails.  The full result, with the commit, Python and numpy
versions, ``nproc`` and the seed, is also written to ``hostbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up is timed in this process and in fresh interpreters spread
# over the timed phase, so one slow phase of the host moves at most a
# minority of the samples the median is taken over
SETUP_SAMPLES = 9
MIN_OPS = 3
WORKLOAD_NAMES = ("serve_stream", "serve_parallel", "kernels", "serve_chaos")
# set to 1 before numpy is first imported, here and in every child
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _import_paths() -> None:
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def timed_setup(name: str, seed: int, scale: float = 1.0):
    """Imports, request-type registration, input generation and one
    machine/engine construction; returns ``(workload, seconds)``."""
    start = time.perf_counter()
    _import_paths()
    import repro
    import repro.serve  # registers the request types and scenarios

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        raise ImportError(f"repro imported from {repro.__file__}, not this checkout")
    from hostbench.workloads import WORKLOADS

    workload = WORKLOADS[name]()
    workload.setup(seed, scale)
    return workload, time.perf_counter() - start


def calibrated_setup(name: str, seed: int):
    """``timed_setup`` between two calibration blocks; returns
    ``(workload, seconds)`` with the seconds normalised."""
    from hostbench import calibration

    before = calibration.timed()
    workload, seconds = timed_setup(name, seed)
    return workload, calibration.normalised(seconds, before + calibration.timed())


def _child_setup(name: str, seed: int) -> float:
    """Normalised setup time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--setup-only"],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
        cwd=ROOT,
    )  # fmt: skip
    return float(proc.stdout.strip().splitlines()[-1])


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _mismatched(workload, got: dict, want: dict) -> set[str]:
    """Operations whose model-time results differ; kernel results are
    compared per kernel, a serving result as one operation."""
    if not workload.kernel_suite:
        return set() if _canonical(got) == _canonical(want) else {workload.name}
    keys = set(got) | set(want)
    return {k for k in keys if _canonical(got.get(k)) != _canonical(want.get(k))}


def load_references() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def checking_operation(workload, references: dict, seed: int):
    """Run one untimed operation with every plan's split factors
    recorded, then its seed-independent checks and, for a recorded
    seed, the comparison with the stored reference.

    Returns ``(prepared, out, record, failed_units, messages)``; the
    record is the exact model-time result plus a digest of the splits.
    """
    from hostbench.layers import recorded_plans
    from hostbench.workloads import sha256_json

    prepared = workload.prepare()
    with recorded_plans() as splits:
        out = workload.execute(prepared)
    record = dict(workload.model(prepared, out), splits=sha256_json(splits))
    messages = workload.check(prepared, out)
    units = {f.split(":", 1)[0] for f in messages}
    if not workload.kernel_suite:
        units = {workload.name} if messages else set()
    reference = references.get(workload.name, {}).get(str(seed))
    if reference is not None:
        bad = _mismatched(workload, record, reference)
        if bad:
            messages.append(f"model-time results differ from the reference: {sorted(bad)}")
        units |= bad
    return prepared, out, record, units, messages


def run_benchmark(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    scale: float = 1.0,
    references: dict | None = None,
    setup: tuple | None = None,
    child_setups: int = SETUP_SAMPLES - 1,
    spans_path: Path | None = None,
) -> dict:
    """One benchmark run; returns the result record (see module doc).

    On shared hosts the CPU's speed drifts by up to ~2x in phases
    lasting from under a second to minutes (process CPU time tracks
    wall time through them, so it is not descheduling).  A calibration
    block is timed before every operation and after the last one, and
    each operation's time is divided by the blocks just before and
    after it (``calibration.normalised_ops``); ``wall_s`` is the median
    of the normalised operations.  Every operation's and calibration's
    raw time is kept in the result record.
    """
    workload, setup_s = setup if setup is not None else timed_setup(name, seed, scale)
    setup_samples = [setup_s]
    from hostbench import calibration, layers
    from hostbench.workloads import KERNEL_NAMES

    references = load_references() if references is None else references
    prepared, base_out, record, units, messages = checking_operation(
        workload, references, seed
    )
    base_model = {k: v for k, v in record.items() if k != "splits"}
    attempted = workload.attempts()
    failed = len(units)
    requests = workload.requests(base_out)
    calls = workload.tensor_calls(prepared)
    # kernel outputs are compared bitwise between operations; a served
    # run is fully described by its model-time record
    base_outputs = base_out if workload.kernel_suite else None
    del base_out, prepared

    def repeat_failures(prepared, out) -> int:
        bad = _mismatched(workload, workload.model(prepared, out), base_model)
        if base_outputs is not None and not workload.same_outputs(out, base_outputs):
            bad.add("outputs")
        if bad:
            messages.append(f"results differ from the checking operation: {sorted(bad)}")
        return min(len(bad), workload.attempts())

    recorder = None
    if trace:
        kernel_layers = tuple(f"kernel.{k}" for k in KERNEL_NAMES)
        recorder = layers.Recorder(layers.LAYERS + kernel_layers)

        def timed_call(layer, fn, machine):
            """A kernel entry as one span of its ``kernel.<name>`` layer."""
            return recorder.call(recorder.ids[layer], fn, (machine,), {})

    walls: list[float] = []
    traced: list[float] = []
    calibrations: list[float] = []
    figures: list[dict] = []
    start_loop = time.perf_counter()
    deadline = start_loop + seconds
    while len(walls) < MIN_OPS or time.perf_counter() < deadline:
        done = (time.perf_counter() - start_loop) / seconds if seconds else 1.0
        if len(setup_samples) - 1 < min(child_setups, int(done * child_setups)):
            setup_samples.append(_child_setup(name, seed))
        gc.collect()
        calibrations += calibration.timed()
        prepared = workload.prepare()
        start = time.perf_counter()
        out = workload.execute(prepared)
        walls.append(time.perf_counter() - start)
        attempted += workload.attempts()
        failed += repeat_failures(prepared, out)
        del out
        if recorder is None:
            continue
        gc.collect()
        prepared = workload.prepare()
        recorder.reset()
        patches = layers.install(recorder)
        try:
            start = time.perf_counter()
            if workload.kernel_suite:
                out = workload.execute(prepared, timed_call)
            else:
                out = workload.execute(prepared)
            wall = time.perf_counter() - start
        finally:
            layers.uninstall(patches)
        traced.append(wall)
        figures.append(layers.op_figures(recorder, KERNEL_NAMES))
        attempted += workload.attempts()
        failed += repeat_failures(prepared, out)
        del out

    gc.collect()
    calibrations += calibration.timed()
    while len(setup_samples) - 1 < child_setups:
        setup_samples.append(_child_setup(name, seed))
    wall_s = statistics.median(calibration.normalised_ops(walls, calibrations))
    if recorder is None:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "wall_s": (wall_s, "s"),
            "sim_requests_per_s": (requests / wall_s, "1/s"),
            "sim_calls_per_s": (calls / wall_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        per_layer = layers.layer_metrics(figures)
        traced_wall = sum(traced) / len(traced)
        attributed = sum(per_layer[k] for k in layers.SELF_TIMES) + sum(
            per_layer[f"kernel.{k}.s"] for k in KERNEL_NAMES
        )
        per_layer["bench.traced_wall_s"] = traced_wall
        per_layer["bench.unattributed_s"] = traced_wall - attributed
        per_layer["bench.trace_overhead"] = statistics.median(
            t / w for t, w in zip(traced, walls, strict=True)
        )
        units = layers.metric_units()
        metrics = {k: (v, units[k]) for k, v in per_layer.items()}
        if spans_path is not None:
            recorder.write_spans(spans_path)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "messages": messages,
        "walls": walls,
        "traced_walls": traced,
        "setup_samples": setup_samples,
        "calibrations": calibrations,
    }


def _commit() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def pin_threads() -> None:
    """One BLAS/OpenMP thread; call before numpy is first imported."""
    for var in _THREAD_VARS:
        os.environ[var] = "1"


def main(argv=None) -> int:
    pin_threads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_paths()
    setup = calibrated_setup(args.workload, args.seed)
    if args.setup_only:
        print(repr(setup[1]))
        return 0
    out_dir = HERE / "out"
    result = run_benchmark(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        setup=setup,
        spans_path=out_dir / f"{args.workload}-seed{args.seed}.spans.json",
    )
    import numpy

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "threads_pinned": {var: os.environ[var] for var in _THREAD_VARS},
    }
    out_dir.mkdir(exist_ok=True)
    record = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, **result}, indent=1) + "\n")
    for message in result["messages"]:
        print(message, file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
