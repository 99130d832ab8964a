"""Host-time layer attribution for the traced run.

The repository keeps wall-clock reads out of ``repro.core`` and
``repro.serve`` (lint rule DET001), so the traced run times the
simulator from the outside: :func:`install` replaces each public
function of the layer table with a wrapper, at every place a caller
looks that function up (a module global, a package re-export, or a
class attribute), and :func:`uninstall` puts the originals back.

Each timed call records one span ``(layer, start, end, parent)`` into
columnar arrays and adds its *self* time -- its duration minus the
durations of the wrapped calls nested inside it -- to its layer.
Leaves called millions of times (``modelled_call_cost`` and the
planner's ``schedule_batch``) are counted, not timed, so their time
stays in the planning span that calls them.  Wrappers only observe:
they pass arguments and results through unchanged, which the
benchmark checks by comparing traced and untraced model-time results.
"""

from __future__ import annotations

import json
import time
from array import array
from collections.abc import Iterator
from contextlib import contextmanager
from importlib import import_module
from pathlib import Path

_clock = time.perf_counter

# Layers in report order.  ``kernel.<name>`` layers are appended by the
# kernels workload, which times each kernel entry around its own call.
LAYERS = (
    "serve.workload.gen",
    "serve.workload.lower",
    "serve.admission",
    "serve.batcher",
    "serve.engine",
    "serve.faults",
    "serve.metrics",
    "core.plan_cache",
    "core.program.plan",
    "core.program.exec",
    "core.parallel",
    "core.scheduling",
    "core.machine",
    "core.ledger",
    "obs.tracer",
    "obs.exporters",
)

# Where each layer's public functions are looked up.  A target is
# ``(layer, owner, attributes, mode)``: ``owner`` is ``"module"`` (plus
# re-exporting packages) or ``"module:Class"`` (the class and every
# subclass that defines the attribute itself).  Modes: ``timed`` records
# a span per call, ``iter`` records a span per ``next()`` of the
# returned iterator, ``count:<counter>`` only counts calls.
TARGETS = (
    ("serve.workload.gen", "repro.serve.workload:Workload", ("requests",), "iter"),
    ("serve.workload.lower", "repro.serve.workload:RequestType", ("plan",), "timed"),
    ("serve.admission", "repro.serve.admission:AdmissionPolicy", ("admit",), "timed"),
    ("serve.batcher", "repro.serve.batcher:BatchPolicy", ("take",), "timed"),
    ("serve.batcher", "repro.serve.batcher", ("priority_release",), "timed"),
    ("serve.batcher", "repro.serve.engine", ("priority_release",), "timed"),
    ("serve.engine", "repro.serve.engine:ServingEngine", ("serve",), "timed"),
    (
        "serve.faults",
        "repro.serve.faults:FaultInjector",
        ("draw_level", "next_crash", "take_crash"),
        "timed",
    ),
    ("serve.faults", "repro.serve.faults:RetryPolicy", ("delay",), "timed"),
    ("serve.metrics", "repro.serve.metrics", ("compute_metrics",), "timed"),
    ("serve.metrics", "repro.serve.engine:ServeResult", ("check_conservation",), "timed"),
    ("core.plan_cache", "repro.core.plan_cache:PlanCache", ("get_or_compile",), "timed"),
    ("core.plan_cache", "repro.core.plan_cache", ("compile_plan",), "timed"),
    ("core.program.plan", "repro.core.program", ("plan_program",), "timed"),
    ("core.program.plan", "repro.serve.workload", ("plan_program",), "timed"),
    (
        "core.program.plan",
        "repro.core.program",
        ("modelled_call_cost",),
        "count:core.program.cost_evals",
    ),
    (
        "core.program.plan",
        "repro.core.program",
        ("schedule_batch",),
        "count:core.program.sched_evals",
    ),
    ("core.program.exec", "repro.core.program:ExecutionCursor", ("step", "run"), "timed"),
    ("core.program.exec", "repro.core.program:CompiledCursor", ("step", "run"), "timed"),
    ("core.program.exec", "repro.core.program", ("execute_plan", "run_program"), "timed"),
    ("core.program.exec", "repro.serve.workload", ("execute_plan",), "timed"),
    ("core.program.exec", "repro.matmul.dense", ("run_program",), "timed"),
    ("core.program.exec", "repro.matmul.strassen", ("run_program",), "timed"),
    ("core.program.exec", "repro.graph.closure", ("run_program",), "timed"),
    ("core.parallel", "repro.core.parallel:ParallelTCUMachine", ("mm_batch",), "timed"),
    ("core.scheduling", "repro.core.parallel", ("schedule_batch",), "timed"),
    ("core.machine", "repro.core.machine:TCUMachine", ("mm", "mm_grid"), "timed"),
    (
        "core.ledger",
        "repro.core.ledger:CostLedger",
        ("charge_tensor", "charge_tensor_bulk", "charge_cpu", "charge_reload"),
        "timed",
    ),
    (
        "obs.tracer",
        "repro.obs.tracer:Tracer",
        (
            "request_done",
            "request_shed",
            "request_abandoned",
            "segment",
            "level_span",
            "batch_done",
            "wait",
            "down",
            "reload_event",
            "instant",
            "observe_slo",
            "bind_ledger",
            "unbind_ledger",
        ),
        "timed",
    ),
    ("obs.tracer", "repro.obs.sampler:Sampler", ("sample",), "timed"),
    ("obs.exporters", "repro.obs.exporters", ("chrome_trace_json", "prometheus_text"), "timed"),
)

# packages that re-export module-level functions of the table
_REEXPORTS = ("repro", "repro.core", "repro.serve", "repro.obs")


class Recorder:
    """Spans, self times and counters of the wrapped calls.

    :meth:`reset` starts a new operation; the spans of the latest one
    stay in memory until :meth:`write_spans` or the next reset.
    """

    def __init__(self, layers: tuple[str, ...]) -> None:
        self.layers = tuple(layers)
        self.ids = {name: i for i, name in enumerate(self.layers)}
        # cleared, never replaced: counting wrappers hold a reference
        self.counts: dict[str, float] = {}
        self.reset()

    def reset(self) -> None:
        n = len(self.layers)
        self.self_s = [0.0] * n
        self.calls = [0] * n
        self.counts.clear()
        self.stack: list[list] = []  # frames: [child time, span index]
        self.span_layer = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def call(self, layer_id: int, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` as one span of ``layer_id``."""
        stack = self.stack
        parent = stack[-1] if stack else None
        index = len(self.span_layer)
        self.span_layer.append(layer_id)
        self.span_parent.append(parent[1] if parent is not None else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [0.0, index]
        stack.append(frame)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            duration = end - start
            self.span_start[index] = start
            self.span_end[index] = end
            self.self_s[layer_id] += duration - frame[0]
            self.calls[layer_id] += 1
            if parent is not None:
                parent[0] += duration

    def parent_layer(self) -> int:
        """Layer id of the innermost open span (-1 at top level)."""
        if not self.stack:
            return -1
        return self.span_layer[self.stack[-1][1]]

    def write_spans(self, path: Path) -> None:
        """Write the latest operation's spans as JSON columns, times in
        seconds from the first span's start."""
        t0 = self.span_start[0] if self.span_start else 0.0
        payload = {
            "layers": list(self.layers),
            "layer": self.span_layer.tolist(),
            "parent": self.span_parent.tolist(),
            "start_s": [round(t - t0, 7) for t in self.span_start],
            "end_s": [round(t - t0, 7) for t in self.span_end],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")))


class _TimedIterator:
    """Times every ``next()`` of a wrapped ``Workload.requests()``."""

    __slots__ = ("_it", "_rec", "_layer")

    def __init__(self, it, rec: Recorder, layer: int) -> None:
        self._it = it
        self._rec = rec
        self._layer = layer

    def __iter__(self):
        return self

    def __next__(self):
        rec = self._rec
        top = rec.parent_layer() != self._layer
        item = rec.call(self._layer, next, (self._it,), {})
        if top:  # nested merges (MixedWorkload) yield the same request
            rec.count("serve.workload.requests")
        return item


def _after_hooks(rec: Recorder) -> dict[str, object]:
    """Counters read from a wrapped call's arguments and result."""

    def admit(args, result):
        if not result:
            rec.count("serve.admission.shed")

    def take(args, result):
        rec.count("serve.batcher.taken", len(result))
        rec.count("serve.batcher.takes")

    def serve(args, result):
        rec.count("serve.engine.batches", len(result.batches))
        rec.count("serve.faults.retries", result.retries)
        rec.count("serve.faults.wasted_time", result.wasted_time)
        rec.count("serve.faults.ledger_time", result.ledger_time)

    def plan_program(args, plan):
        rec.count("core.program.plans")
        for splits in plan.splits or ():
            rec.count("core.program.groups", len(splits))
            rec.count("core.program.split_groups", sum(1 for f in splits if f > 1))

    def mm_batch(args, result):
        rec.count("core.parallel.hw_calls", args[0].last_batch.hardware_calls)

    def exported(args, text):
        rec.count("obs.exporters.bytes", len(text))

    return {
        "step": lambda args, result: rec.count("core.program.steps"),
        "get_or_compile": lambda args, result: rec.count("core.plan_cache.lookups"),
        "compile_plan": lambda args, result: rec.count("core.plan_cache.compiles"),
        "admit": admit,
        "take": take,
        "serve": serve,
        "plan_program": plan_program,
        "mm_batch": mm_batch,
        "chrome_trace_json": exported,
        "prometheus_text": exported,
    }


def _engine_step_hook(rec: Recorder, engine_id: int, fn):
    """Cursor ``step``/``run`` calls the engine issues directly."""

    def wrapper(*args, **kwargs):
        if rec.parent_layer() == engine_id:
            rec.count("serve.engine.steps")
        return fn(*args, **kwargs)

    return wrapper


def _wrap(rec: Recorder, layer: str, name: str, fn, mode: str, hooks: dict):
    if mode.startswith("count:"):
        counter = mode.split(":", 1)[1]
        counts = rec.counts

        def counted(*args, **kwargs):
            counts[counter] = counts.get(counter, 0) + 1
            return fn(*args, **kwargs)

        return counted
    layer_id = rec.ids[layer]
    if mode == "iter":

        def iterated(*args, **kwargs):
            return _TimedIterator(fn(*args, **kwargs), rec, layer_id)

        return iterated
    after = hooks.get(name)
    if after is None:

        def timed(*args, **kwargs):
            return rec.call(layer_id, fn, args, kwargs)

    else:

        def timed(*args, **kwargs):
            result = rec.call(layer_id, fn, args, kwargs)
            after(args, result)
            return result

    if layer == "core.program.exec" and name in ("step", "run"):
        return _engine_step_hook(rec, rec.ids["serve.engine"], timed)
    return timed


def _class_tree(cls: type) -> list[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _sites(owner: str, attr: str) -> list[tuple[object, str]]:
    """Every (object, attribute) where callers look ``attr`` up."""
    if ":" in owner:
        module, cls_name = owner.split(":")
        base = getattr(import_module(module), cls_name)
        return [(c, attr) for c in _class_tree(base) if attr in vars(c)]
    module = import_module(owner)
    sites: list[tuple[object, str]] = [(module, attr)]
    original = getattr(module, attr)
    if getattr(original, "__module__", None) == owner:
        # the function's home module: its package re-exports are the
        # same public entry point (a function imported into another
        # module is a different caller's lookup site and stays apart)
        for pkg_name in _REEXPORTS:
            pkg = import_module(pkg_name)
            if getattr(pkg, attr, None) is original:
                sites.append((pkg, attr))
    return sites


Patches = list[tuple[object, str, object]]


def install(rec: Recorder) -> Patches:
    """Wrap every target of :data:`TARGETS`, recording into ``rec``.

    Returns the ``(owner, attribute, original)`` triples replaced, for
    :func:`uninstall`.
    """
    hooks = _after_hooks(rec)
    patches: Patches = []
    done: set[tuple[int, str]] = set()
    try:
        for layer, owner, attrs, mode in TARGETS:
            for attr in attrs:
                for obj, name in _sites(owner, attr):
                    if (id(obj), name) in done:
                        continue
                    done.add((id(obj), name))
                    original = vars(obj)[name]
                    patches.append((obj, name, original))
                    setattr(obj, name, _wrap(rec, layer, name, original, mode, hooks))
    except BaseException:
        uninstall(patches)
        raise
    return patches


def uninstall(patches: Patches) -> None:
    """Restore every original, newest patch first."""
    while patches:
        obj, name, original = patches.pop()
        setattr(obj, name, original)


@contextmanager
def recorded_plans() -> Iterator[list]:
    """Collect ``plan.splits`` of every plan built inside the block."""
    splits: list = []

    def wrap(fn):
        def recording(*args, **kwargs):
            plan = fn(*args, **kwargs)
            splits.append(plan.splits)
            return plan

        return recording

    patches: Patches = []
    try:
        for owner in ("repro.core.program", "repro.serve.workload"):
            for obj, name in _sites(owner, "plan_program"):
                original = vars(obj)[name]
                patches.append((obj, name, original))
                setattr(obj, name, wrap(original))
        yield splits
    finally:
        uninstall(patches)


# the self-time figures of op_figures: with bench.unattributed_s they
# sum to the traced operation's wall time
SELF_TIMES = (
    "serve.workload.gen_s",
    "serve.workload.lower_s",
    "serve.admission.self_s",
    "serve.batcher.self_s",
    "serve.engine.self_s",
    "serve.faults.self_s",
    "serve.metrics.self_s",
    "core.plan_cache.compile_s",
    "core.program.plan_s",
    "core.program.exec_s",
    "core.parallel.self_s",
    "core.scheduling.self_s",
    "core.machine.self_s",
    "core.ledger.self_s",
    "obs.tracer.self_s",
    "obs.exporters.self_s",
)


def layer_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Mean over traced operations of each per-operation figure."""
    keys = per_op[0].keys()
    return {k: sum(op[k] for op in per_op) / len(per_op) for k in keys}


def op_figures(rec: Recorder, kernel_names: tuple[str, ...]) -> dict[str, float]:
    """One traced operation's per-layer figures, every layer present."""
    ids = rec.ids
    s = rec.self_s
    n = rec.calls
    c = rec.counts.get

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    lookups = c("core.plan_cache.lookups", 0)
    compiles = c("core.plan_cache.compiles", 0)
    out = {
        "serve.workload.gen_s": s[ids["serve.workload.gen"]],
        "serve.workload.requests": c("serve.workload.requests", 0),
        "serve.workload.lower_s": s[ids["serve.workload.lower"]],
        "serve.workload.lowered": n[ids["serve.workload.lower"]],
        "serve.admission.self_s": s[ids["serve.admission"]],
        "serve.admission.calls": n[ids["serve.admission"]],
        "serve.admission.shed": c("serve.admission.shed", 0),
        "serve.batcher.self_s": s[ids["serve.batcher"]],
        "serve.batcher.calls": n[ids["serve.batcher"]],
        "serve.batcher.batch_size_mean": ratio(
            c("serve.batcher.taken", 0), c("serve.batcher.takes", 0)
        ),
        "serve.engine.self_s": s[ids["serve.engine"]],
        "serve.engine.batches": c("serve.engine.batches", 0),
        "serve.engine.steps": c("serve.engine.steps", 0),
        "serve.faults.self_s": s[ids["serve.faults"]],
        "serve.faults.calls": n[ids["serve.faults"]],
        "serve.faults.retries": c("serve.faults.retries", 0),
        "serve.faults.wasted_ratio": ratio(
            c("serve.faults.wasted_time", 0), c("serve.faults.ledger_time", 0)
        ),
        "serve.metrics.self_s": s[ids["serve.metrics"]],
        "core.plan_cache.lookups": lookups,
        "core.plan_cache.hit_ratio": ratio(lookups - compiles, lookups),
        "core.plan_cache.compile_s": s[ids["core.plan_cache"]],
        "core.program.plan_s": s[ids["core.program.plan"]],
        "core.program.plans": c("core.program.plans", 0),
        "core.program.groups": c("core.program.groups", 0),
        "core.program.split_ratio": ratio(
            c("core.program.split_groups", 0), c("core.program.groups", 0)
        ),
        "core.program.cost_evals": c("core.program.cost_evals", 0),
        "core.program.sched_evals": c("core.program.sched_evals", 0),
        "core.program.exec_s": s[ids["core.program.exec"]],
        "core.program.steps": c("core.program.steps", 0),
        "core.parallel.self_s": s[ids["core.parallel"]],
        "core.parallel.batches": n[ids["core.parallel"]],
        "core.parallel.hw_calls": c("core.parallel.hw_calls", 0),
        "core.scheduling.self_s": s[ids["core.scheduling"]],
        "core.scheduling.calls": n[ids["core.scheduling"]],
        "core.machine.self_s": s[ids["core.machine"]],
        "core.machine.calls": n[ids["core.machine"]],
        "core.ledger.self_s": s[ids["core.ledger"]],
        "core.ledger.charges": n[ids["core.ledger"]],
        "obs.tracer.self_s": s[ids["obs.tracer"]],
        "obs.tracer.events": n[ids["obs.tracer"]],
        "obs.exporters.self_s": s[ids["obs.exporters"]],
        "obs.exporters.bytes": c("obs.exporters.bytes", 0),
    }
    for name in kernel_names:
        layer = f"kernel.{name}"
        out[f"{layer}.s"] = s[ids[layer]] if layer in ids else 0.0
        out[f"{layer}.calls"] = n[ids[layer]] if layer in ids else 0
    return out


def metric_units() -> dict[str, str]:
    """Unit of every per-layer metric the traced run reports."""
    from hostbench.workloads import KERNEL_NAMES

    rec = Recorder(LAYERS)
    names = list(op_figures(rec, KERNEL_NAMES)) + [
        "bench.traced_wall_s",
        "bench.unattributed_s",
        "bench.trace_overhead",
    ]
    ratios = ("_ratio", ".trace_overhead")
    return {
        name: "s" if name.endswith(("_s", ".s"))
        else "ratio" if name.endswith(ratios)
        else "bytes" if name.endswith(".bytes")
        else "count"
        for name in names
    }  # fmt: skip

