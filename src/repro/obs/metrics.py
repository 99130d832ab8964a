"""Name-registered counters, gauges and histograms.

A :class:`MetricsRegistry` is the single mutable store the serving
engine (and any other instrumented layer) writes into; the
:class:`~repro.obs.sampler.Sampler` snapshots it on the simulated clock
and :func:`~repro.obs.exporters.prometheus_text` renders it in the
Prometheus text exposition format.  All updates are plain attribute
arithmetic — no wall clock, no locks, no background threads — so a
metrics stream is as deterministic as the ledger that drives it.

Metrics follow Prometheus semantics: counters only go up, gauges go
anywhere, histograms bucket observations under fixed upper bounds.
Labels are a frozen ``dict[str, str]`` fixed at registration; a metric
is keyed by its full name (``name{k="v",...}``), so the same base name
may carry several label sets (e.g. per-priority SLO attainment).
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

from .spans import ObsError

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


def _full_name(name: str, labels: dict[str, str] | None) -> str:
    if not labels:
        return name
    body = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{body}}}"


class _Metric:
    """Common identity: base name, rendered full name, help text."""

    __slots__ = ("name", "full_name", "help", "labels")

    kind = "untyped"

    def __init__(
        self, name: str, help: str = "", labels: dict[str, str] | None = None
    ) -> None:
        if not name or not name.replace("_", "").replace(":", "").isalnum():
            raise ObsError(f"invalid metric name {name!r}")
        self.name = name
        self.labels = dict(labels) if labels else {}
        self.full_name = _full_name(name, labels)
        self.help = help


class Counter(_Metric):
    """A monotonically non-decreasing accumulator."""

    __slots__ = ("value",)

    kind = "counter"

    def __init__(
        self, name: str, help: str = "", labels: dict[str, str] | None = None
    ) -> None:
        super().__init__(name, help, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not amount >= 0:
            if amount < 0:
                raise ObsError(f"counter {self.full_name} cannot decrease by {amount}")
            # NaN: a monotonic counter would read NaN from here on
            raise ObsError(f"counter {self.full_name} cannot add {amount!r}")
        self.value += float(amount)


class Gauge(_Metric):
    """A value that can be set to anything at any time."""

    __slots__ = ("value",)

    kind = "gauge"

    def __init__(
        self, name: str, help: str = "", labels: dict[str, str] | None = None
    ) -> None:
        super().__init__(name, help, labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += float(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.value -= float(amount)


class Histogram(_Metric):
    """Fixed-bucket histogram (Prometheus ``le`` semantics: cumulative
    on export, stored per-bucket here; the ``+Inf`` bucket is implicit).
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        bounds: tuple[float, ...],
        help: str = "",
        labels: dict[str, str] | None = None,
    ) -> None:
        super().__init__(name, help, labels)
        for bound in bounds:
            if not math.isfinite(bound):
                raise ObsError(
                    f"histogram {name!r} bucket bound {bound!r} is not finite "
                    "(the +Inf bucket is implicit)"
                )
        if not bounds or list(bounds) != sorted(bounds):
            raise ObsError(
                f"histogram {name!r} needs sorted, non-empty bucket bounds"
            )
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)  # last = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        if value != value:
            self._reject_nan(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def observe_many(self, values) -> None:
        """Vectorised bulk observation: same buckets and count as one
        :meth:`observe` per value (``sum`` may differ in the last float
        bits — numpy reduces in a different association order)."""
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            return
        total = float(arr.sum())
        if total != total and np.isnan(arr).any():  # a NaN sum: NaN, or inf - inf
            self._reject_nan(arr[np.isnan(arr)][0])
        bins = np.bincount(
            np.searchsorted(self.bounds, arr, side="left"),
            minlength=len(self.counts),
        )
        self.counts = [c + int(b) for c, b in zip(self.counts, bins, strict=True)]
        self.sum += total
        self.count += arr.size

    def _reject_nan(self, value: float) -> None:
        # NaN has no bucket (bisect and searchsorted disagree on where it
        # goes) and would poison ``sum`` for good
        raise ObsError(f"histogram {self.full_name} cannot observe {float(value)!r}")

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile (the upper bound of the bucket the
        q-th observation falls in; ``inf`` for the overflow bucket)."""
        if not 0.0 <= q <= 1.0:
            raise ObsError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return float("nan")
        rank = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank and c:
                return self.bounds[i] if i < len(self.bounds) else float("inf")
        return float("inf")


class MetricsRegistry:
    """The name → metric table telemetry writes into.

    ``counter``/``gauge``/``histogram`` are get-or-create: re-requesting
    an existing full name returns the live instance (so instrumented
    code never needs to thread metric handles around), but re-requesting
    it as a *different* type is an :class:`ObsError`.

    The scrape order (:meth:`scrape`) is computed once per set of
    registered metrics and reused until the next registration.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        # (sorted metrics, scrape keys, the metrics read by value, and
        # each histogram with the position of its count among the keys);
        # None after a registration
        self._order: tuple | None = None

    # -- registration --------------------------------------------------
    def _get_or_create(self, cls: type, key: str, factory) -> _Metric:
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = factory()
            self._order = None
        elif not isinstance(metric, cls):
            raise ObsError(
                f"metric {key!r} already registered as {metric.kind}, "
                f"not {cls.kind}"
            )
        return metric

    def counter(
        self, name: str, help: str = "", labels: dict[str, str] | None = None
    ) -> Counter:
        key = _full_name(name, labels)
        metric = self._get_or_create(Counter, key, lambda: Counter(name, help, labels))
        assert isinstance(metric, Counter)
        return metric

    def gauge(
        self, name: str, help: str = "", labels: dict[str, str] | None = None
    ) -> Gauge:
        key = _full_name(name, labels)
        metric = self._get_or_create(Gauge, key, lambda: Gauge(name, help, labels))
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self,
        name: str,
        bounds: tuple[float, ...],
        help: str = "",
        labels: dict[str, str] | None = None,
    ) -> Histogram:
        key = _full_name(name, labels)
        metric = self._get_or_create(
            Histogram, key, lambda: Histogram(name, bounds, help, labels)
        )
        assert isinstance(metric, Histogram)
        return metric

    # -- access --------------------------------------------------------
    def get(self, full_name: str) -> _Metric:
        try:
            return self._metrics[full_name]
        except KeyError:
            raise ValueError(
                f"unknown metric {full_name!r}; registered: {self.names()}"
            ) from None

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._metrics))

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(self._scrape_order()[0])

    def _scrape_order(self) -> tuple:
        order = self._order
        if order is None:
            metrics = tuple(self._metrics[key] for key in sorted(self._metrics))
            keys: list[str] = []
            plain: list[_Metric] = []
            histograms: list[tuple[int, Histogram]] = []
            for metric in metrics:
                if isinstance(metric, Histogram):
                    histograms.append((len(keys), metric))
                    keys += (metric.full_name + "_count", metric.full_name + "_sum")
                else:
                    plain.append(metric)
                    keys.append(metric.full_name)
            order = self._order = (metrics, tuple(keys), tuple(plain), tuple(histograms))
        return order

    def scrape(self) -> tuple[tuple[str, ...], tuple[float, ...]]:
        """Every metric's scalar value, as ``(keys, values)`` in
        :meth:`snapshot` order.  ``keys`` is the same tuple object on
        every scrape until a metric is registered, so a stream of
        scrapes shares one key tuple per set of registered metrics."""
        _, keys, plain, histograms = self._scrape_order()
        values = [metric.value for metric in plain]  # type: ignore[attr-defined]
        for at, histogram in histograms:
            values[at:at] = (float(histogram.count), histogram.sum)
        return keys, tuple(values)

    def snapshot(self) -> dict[str, float]:
        """Scalar view of every metric, keyed by full name (histograms
        contribute ``_count`` and ``_sum``).  Key order is sorted, so a
        snapshot stream serialises deterministically."""
        return dict(zip(*self.scrape(), strict=True))

