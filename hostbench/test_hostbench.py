"""The benchmark's own tests: reference checks, wrapper transparency,
attribution, and agreement with ``BENCHMARK.json``.  Small inputs and
no child interpreters keep them fast."""

from __future__ import annotations

import copy
import gc
import json
import math
import statistics
from pathlib import Path

import pytest

from hostbench import calibration, layers
from hostbench.run import WORKLOAD_NAMES, checking_operation, run_benchmark, timed_setup
from hostbench.workloads import KERNEL_NAMES

ROOT = Path(__file__).resolve().parent.parent
SCALE = 0.02  # serve_stream: 2000 requests; serve_chaos: 12 interactive


def _run(name, trace, references, seed=3):
    return run_benchmark(
        name,
        seed,
        0.0,
        trace,
        references=references,
        setup=timed_setup(name, seed, SCALE),
        child_setups=0,
    )


@pytest.fixture(scope="module")
def stream_reference():
    workload, _ = timed_setup("serve_stream", 3, SCALE)
    _, _, record, failed, messages = checking_operation(workload, {}, 3)
    assert not failed, messages
    return {"serve_stream": {"3": record}}


def test_matching_reference_passes(stream_reference):
    result = _run("serve_stream", False, stream_reference)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 4


def test_perturbed_reference_counts_as_failed(stream_reference):
    perturbed = copy.deepcopy(stream_reference)
    perturbed["serve_stream"]["3"]["clock"] += 1.0
    result = _run("serve_stream", False, perturbed)
    error_rate = result["failed"] / result["attempted"]
    assert error_rate > 0 and not result["correct"]


def test_times_are_normalised_by_the_calibration(stream_reference):
    result = _run("serve_stream", False, stream_reference)
    walls, calibrations = result["walls"], result["calibrations"]
    # one block before every operation and one after the last
    assert len(calibrations) == (len(walls) + 1) * calibration.REPEATS
    wall = statistics.median(calibration.normalised_ops(walls, calibrations))
    assert result["metrics"]["wall_s"]["value"] == wall
    assert gc.isenabled()  # calibration.timed turns the collector back on
    # an operation is divided by the blocks just before and after it
    ref = calibration.REFERENCE_S
    ops = calibration.normalised_ops([1.0, 1.0], [ref] * 2 + [3 * ref] * 2 + [5 * ref] * 2)
    assert ops == [pytest.approx(1 / 2), pytest.approx(1 / 4)]


def test_perturbed_split_digest_counts_as_failed(stream_reference):
    perturbed = copy.deepcopy(stream_reference)
    perturbed["serve_stream"]["3"]["splits"] = "0" * 64
    assert _run("serve_stream", False, perturbed)["failed"] > 0


def test_wrappers_are_transparent_and_restored():
    workload, _ = timed_setup("serve_chaos", 5, SCALE)
    prepared = workload.prepare()
    plain = workload.model(prepared, workload.execute(prepared))
    rec = layers.Recorder(layers.LAYERS)
    prepared = workload.prepare()
    patches = layers.install(rec)
    installed = list(patches)
    try:
        out = workload.execute(prepared)
    finally:
        layers.uninstall(patches)
    assert workload.model(prepared, out) == plain
    assert len(installed) > 40
    for owner, name, original in installed:
        assert vars(owner)[name] is original, f"{owner}.{name} left wrapped"
    # every layer the chaos workload is built to stress recorded time
    for layer in ("serve.engine", "serve.faults", "obs.tracer", "obs.exporters"):
        assert rec.self_s[rec.ids[layer]] > 0, layer


def test_plan_recorder_is_restored():
    import repro.core.program as program
    import repro.serve.workload as workload_module

    originals = (program.plan_program, workload_module.plan_program)
    workload, _ = timed_setup("serve_stream", 5, SCALE)
    with layers.recorded_plans() as splits:
        assert program.plan_program is not originals[0]
        workload.execute(workload.prepare())
    # a serial machine never splits a merged call
    assert splits and all(f == 1 for plan in splits for level in plan for f in level)
    assert (program.plan_program, workload_module.plan_program) == originals


@pytest.mark.parametrize("name", ["serve_stream", "serve_chaos", "kernels"])
def test_attribution_closes(name):
    result = _run(name, True, {})
    assert result["correct"], result["messages"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    self_times = [metrics[k] for k in layers.SELF_TIMES]
    self_times += [metrics[f"kernel.{k}.s"] for k in KERNEL_NAMES]
    assert math.isclose(
        sum(self_times) + metrics["bench.unattributed_s"], metrics["bench.traced_wall_s"]
    )
    assert metrics["bench.unattributed_s"] >= 0
    # serving on serial machines never runs the split search
    assert (metrics["core.program.sched_evals"] == 0) == (name != "kernels")


def test_benchmark_json_matches_what_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOAD_NAMES)
    untraced = _run("serve_chaos", False, {})["metrics"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in untraced.items()
    }
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
