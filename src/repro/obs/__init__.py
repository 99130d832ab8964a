"""``repro.obs`` — deterministic telemetry on the ledger clock.

Span tracing, a metrics registry with simulated-time sampling and SLO
burn-rate monitors, and exporters (Perfetto/Chrome trace JSON,
Prometheus text exposition).  Because every timestamp is the ledger
clock, a traced run is bit-replayable: same seeds, byte-identical
trace.  See :class:`~repro.obs.tracer.Tracer` for the entry point and
:class:`~repro.serve.engine.ServingEngine` (``tracer=`` keyword) for
the wiring.
"""

from .exporters import (
    chrome_trace_json,
    prometheus_text,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .sampler import Sampler, SloBurnMonitor
from .spans import ObsError
from .tracer import Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsError",
    "Sampler",
    "SloBurnMonitor",
    "Tracer",
    "chrome_trace_json",
    "prometheus_text",
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
]
