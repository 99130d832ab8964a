"""Simulated-clock time-series sampling and SLO burn-rate monitoring.

Real metric pipelines scrape on a wall-clock interval, which makes two
runs of the same workload produce different time series.  Here the
clock is the ledger, so the :class:`Sampler` grid is part of the model:
the engine offers the sampler every event timestamp and the sampler
records a registry snapshot at the first event on or after each grid
point — a pure function of the run, bit-identical across replays.

:class:`SloBurnMonitor` is the alerting half: it watches per-request
SLO outcomes over a sliding window of simulated time and fires a
``firing``/``resolved`` transition when the error-budget burn rate
crosses its threshold — the standard SRE burn-rate alert, made
deterministic.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from .metrics import MetricsRegistry
from .spans import ObsError

__all__ = ["Sampler", "SloBurnMonitor"]


class Sampler:
    """Snapshot a :class:`MetricsRegistry` on a fixed simulated-time grid.

    ``every`` is the grid pitch (positive and finite); the grid points
    are ``k * every`` for ``k = 0, 1, 2, ...``.  The engine calls
    :meth:`due` (cheap) on every event and :meth:`sample` when it
    returns true; sampling at clock ``t`` records a registry scrape and
    moves the next grid point to the first one after ``t``, in O(1)
    however far the clock jumped.  Event-driven scraping means sample
    times land *on events*, never between them — there is nothing to
    observe while the model clock is not advancing.

    Samples are stored as columns: :attr:`stamps`, :attr:`keys` (one
    key tuple per row, the *same* tuple object for every row scraped
    from the same set of registered metrics) and :attr:`values` (one
    value tuple per row, aligned with its keys).  :attr:`rows` and
    :meth:`series` read them back as ``(ts, {name: value})`` rows.
    """

    def __init__(self, every: float) -> None:
        if not math.isfinite(every):
            raise ObsError(f"sample interval must be finite, got {every!r}")
        if every <= 0:
            raise ObsError(f"sample interval must be positive, got {every}")
        self.every = float(every)
        self.stamps: list[float] = []
        self.keys: list[tuple[str, ...]] = []
        self.values: list[tuple[float, ...]] = []
        self._k = 0  # the next grid point is self._k * every
        self._next = 0.0

    def due(self, clock: float) -> bool:
        return clock >= self._next

    def sample(
        self, registry: MetricsRegistry, *, ts: float, force: bool = False
    ) -> None:
        if not force and ts < self._next:
            return
        keys, values = registry.scrape()
        self.stamps.append(ts)
        self.keys.append(keys)
        self.values.append(values)
        if ts >= self._next:
            # the first grid point after ts: usually the next one; after a
            # clock jump, ts / every rounded, so its floor may be one off
            # near a grid point and one step each way corrects it.  For an
            # integer-valued pitch every grid point below 2**53 is exact,
            # as repeated addition of the pitch would give it
            every = self.every
            k = self._k + 1
            if k * every <= ts:
                k = math.floor(ts / every) + 1
                if (k - 1) * every > ts:
                    k -= 1
                elif k * every <= ts:
                    k += 1
            self._k = k
            self._next = k * every

    # -- analysis ------------------------------------------------------
    @property
    def rows(self) -> list[tuple[float, dict[str, float]]]:
        """The samples as ``(ts, {full name: value})`` rows, built on
        each read."""
        return [
            (ts, dict(zip(keys, values, strict=True)))
            for ts, keys, values in zip(self.stamps, self.keys, self.values, strict=True)
        ]

    def series(self, full_name: str) -> tuple[np.ndarray, np.ndarray]:
        """``(times, values)`` columns for one metric (missing samples —
        before the metric existed — read 0)."""
        times = np.fromiter(self.stamps, float, len(self.stamps))
        values = np.zeros(len(self.stamps))
        keys: tuple[str, ...] | None = None
        at = None
        for j, (row_keys, row) in enumerate(zip(self.keys, self.values, strict=True)):
            if row_keys is not keys:  # the key tuple changes only on registration
                keys = row_keys
                at = keys.index(full_name) if full_name in keys else None
            if at is not None:
                values[j] = row[at]
        return times, values

    def windowed_rate(
        self, full_name: str, window: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-sample increase of a cumulative metric over the trailing
        ``window`` of simulated time, divided by the window — the
        sliding-window rate a dashboard would plot for a counter."""
        if window <= 0:
            raise ObsError(f"window must be positive, got {window}")
        times, values = self.series(full_name)
        if times.size == 0:
            return times, values
        # value at the window's left edge: the last sample at or before
        # t - window (0 before the first sample)
        left = np.searchsorted(times, times - window, side="right") - 1
        base = np.where(left >= 0, values[np.maximum(left, 0)], 0.0)
        return times, (values - base) / window


class SloBurnMonitor:
    """Deterministic error-budget burn-rate alerting.

    With an SLO target of ``target`` (e.g. 0.95 attainment), the error
    budget is ``1 - target``.  Over a sliding window of simulated time
    the observed miss fraction divided by the budget is the *burn rate*
    (1.0 = exactly spending budget, >1 = burning it down).  The monitor
    fires when the rate sits at or above ``threshold`` once at least
    ``min_count`` requests are in the window, and resolves when it
    drops back below — each transition is returned (and traced by the
    :class:`~repro.obs.tracer.Tracer` as an alert instant).

    ``priority``, when set, restricts the monitor to one request class.
    """

    def __init__(
        self,
        name: str,
        *,
        target: float,
        window: float,
        threshold: float = 1.0,
        priority: int | None = None,
        min_count: int = 8,
    ) -> None:
        if not 0.0 < target < 1.0:
            raise ObsError(f"SLO target must be in (0, 1), got {target}")
        if window <= 0:
            raise ObsError(f"window must be positive, got {window}")
        if threshold <= 0:
            raise ObsError(f"threshold must be positive, got {threshold}")
        self.name = name
        self.target = float(target)
        self.window = float(window)
        self.threshold = float(threshold)
        self.priority = priority
        self.min_count = int(min_count)
        self.firing = False
        self._events: deque[tuple[float, bool]] = deque()
        self._misses = 0

    def observe(self, met: bool, *, ts: float) -> tuple[str, float, float] | None:
        """Record one SLO outcome at simulated time ``ts``; returns
        ``(state, burn_rate, attainment)`` on a firing/resolved
        transition, ``None`` otherwise."""
        events = self._events
        horizon = ts - self.window
        while events and events[0][0] <= horizon:
            _, old_met = events.popleft()
            if not old_met:
                self._misses -= 1
        events.append((ts, met))
        if not met:
            self._misses += 1
        count = len(events)
        if count < self.min_count:
            return None
        miss_rate = self._misses / count
        burn = miss_rate / (1.0 - self.target)
        now_firing = burn >= self.threshold
        if now_firing == self.firing:
            return None
        self.firing = now_firing
        state = "firing" if now_firing else "resolved"
        return (state, burn, 1.0 - miss_rate)
