"""Unit tests for the metrics registry, sampler and burn-rate monitor."""

import math
import signal
from contextlib import contextmanager

import numpy as np
import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ObsError,
    Sampler,
    SloBurnMonitor,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("requests_total")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative_increment(self):
        c = Counter("requests_total")
        with pytest.raises(ObsError, match="cannot decrease"):
            c.inc(-1.0)

    def test_invalid_name_rejected(self):
        with pytest.raises(ObsError, match="invalid metric name"):
            Counter("bad name!")

    def test_rejects_nan_increment(self):
        c = Counter("requests_total")
        c.inc(2.0)
        with pytest.raises(ObsError, match=r"requests_total cannot add nan"):
            c.inc(math.nan)
        assert c.value == 2.0


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("queue_depth")
        g.set(5)
        g.inc(2)
        g.dec(3)
        assert g.value == 4.0

    def test_may_hold_nan(self):
        g = Gauge("cache_hit_rate")
        g.set(math.nan)
        assert math.isnan(g.value)


class TestHistogram:
    def test_bucketing_and_quantiles(self):
        h = Histogram("latency", bounds=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 5.0, 50.0, 500.0):
            h.observe(v)
        assert h.count == 5
        assert h.sum == pytest.approx(560.5)
        assert h.counts == [1, 2, 1, 1]
        assert h.quantile(0.5) == 10.0
        assert h.quantile(1.0) == math.inf

    def test_empty_quantile_is_nan(self):
        h = Histogram("latency", bounds=(1.0,))
        assert math.isnan(h.quantile(0.5))

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ObsError, match="sorted"):
            Histogram("latency", bounds=(10.0, 1.0))

    def test_quantile_range_checked(self):
        h = Histogram("latency", bounds=(1.0,))
        with pytest.raises(ObsError, match="outside"):
            h.quantile(1.5)

    def test_rejects_nan_observations(self):
        """NaN has no bucket: observe() filed it under the smallest and
        observe_many() under +Inf, and both poisoned ``sum``."""
        h = Histogram("latency", bounds=(1.0, 10.0), labels={"class": "2"})
        h.observe(5.0)
        with pytest.raises(ObsError, match=r'latency\{class="2"\} cannot observe nan'):
            h.observe(math.nan)
        with pytest.raises(ObsError, match="cannot observe nan"):
            h.observe_many([0.5, math.nan, 50.0])
        with pytest.raises(ObsError, match="cannot observe nan"):
            h.observe_many(np.array([math.nan]))
        assert (h.counts, h.count, h.sum) == ([0, 1, 0], 1, 5.0)

    def test_observe_many_matches_observe(self):
        values = [0.5, 1.0, 5.0, 10.0, 11.0, math.inf]
        one, many = Histogram("a", bounds=(1.0, 10.0)), Histogram("a", bounds=(1.0, 10.0))
        for v in values:
            one.observe(v)
        many.observe_many(values)
        assert (one.counts, one.count, one.sum) == (many.counts, many.count, many.sum)


class TestRegistry:
    def test_get_or_create_returns_live_instance(self):
        reg = MetricsRegistry()
        a = reg.counter("hits")
        b = reg.counter("hits")
        assert a is b
        a.inc()
        assert b.value == 1.0

    def test_labels_key_distinct_metrics(self):
        reg = MetricsRegistry()
        a = reg.gauge("slo", labels={"class": "0"})
        b = reg.gauge("slo", labels={"class": "2"})
        assert a is not b
        assert a.full_name == 'slo{class="0"}'

    def test_type_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ObsError, match="already registered as counter"):
            reg.gauge("x")

    def test_get_unknown_lists_names(self):
        reg = MetricsRegistry()
        reg.counter("known")
        with pytest.raises(ValueError, match="registered:.*known"):
            reg.get("unknown")

    def test_snapshot_is_sorted_and_scalar(self):
        reg = MetricsRegistry()
        reg.counter("b").inc(2)
        reg.gauge("a").set(1)
        h = reg.histogram("c", bounds=(1.0,))
        h.observe(0.5)
        snap = reg.snapshot()
        assert list(snap) == ["a", "b", "c_count", "c_sum"]
        assert snap["c_count"] == 1.0 and snap["c_sum"] == 0.5

    def test_scrape_order_is_cached_until_a_registration(self):
        reg = MetricsRegistry()
        c = reg.counter("b")
        keys, values = reg.scrape()
        c.inc(3)
        again, values_again = reg.scrape()
        assert again is keys and values == (0.0,) and values_again == (3.0,)
        reg.counter("b")  # an existing metric registers nothing
        assert reg.scrape()[0] is keys
        reg.histogram("a", bounds=(1.0,)).observe(2.0)
        keys, values = reg.scrape()
        assert keys == ("a_count", "a_sum", "b") and values == (1.0, 2.0, 3.0)
        assert [m.full_name for m in reg] == ["a", "b"]
        assert reg.snapshot() == {"a_count": 1.0, "a_sum": 2.0, "b": 3.0}


@contextmanager
def _deadline(seconds: float):
    """Fail the block with TimeoutError after ``seconds`` of wall time."""
    if not hasattr(signal, "setitimer"):
        pytest.skip("needs SIGALRM")

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _added_grid(every: float, stamps) -> list[float]:
    """The grid a sampler walks by adding its pitch one step at a time."""
    out, nxt = [], 0.0
    for ts in stamps:
        if ts >= nxt:
            out.append(ts)
            while nxt <= ts:
                nxt += every
    return out


class TestSampler:
    def test_event_driven_grid(self):
        reg = MetricsRegistry()
        c = reg.counter("n")
        s = Sampler(10.0)
        for t in (0.0, 3.0, 12.0, 13.0, 47.0):
            c.inc()
            if s.due(t):
                s.sample(reg, ts=t)
        # samples land on the first event at/after each grid point
        assert [t for t, _ in s.rows] == [0.0, 12.0, 47.0]
        times, values = s.series("n")
        assert list(values) == [1.0, 3.0, 5.0]

    def test_force_flush_records_off_grid(self):
        reg = MetricsRegistry()
        reg.counter("n").inc()
        s = Sampler(100.0)
        s.sample(reg, ts=1.0)  # grid point 0 -> records
        s.sample(reg, ts=2.0)  # before next grid point -> skipped
        s.sample(reg, ts=2.0, force=True)
        assert [t for t, _ in s.rows] == [1.0, 2.0]

    def test_windowed_rate(self):
        reg = MetricsRegistry()
        c = reg.counter("n")
        s = Sampler(1.0)
        for t in range(5):
            c.inc(2)
            s.sample(reg, ts=float(t))
        times, rate = s.windowed_rate("n", window=2.0)
        # steady 2/sec counter: trailing-2s increase / 2 converges to 2
        assert rate[-1] == pytest.approx(2.0)

    def test_invalid_pitch_and_window(self):
        with pytest.raises(ObsError, match="positive"):
            Sampler(0.0)
        s = Sampler(1.0)
        with pytest.raises(ObsError, match="positive"):
            s.windowed_rate("x", window=0.0)

    @pytest.mark.parametrize("every", [math.nan, math.inf, -math.inf])
    def test_non_finite_pitch_rejected(self, every):
        # Sampler(nan) sampled once and never again; Sampler(inf) was taken
        with pytest.raises(ObsError, match=f"finite, got {every!r}"):
            Sampler(every)

    def test_clock_jump_advances_the_grid_in_constant_time(self):
        reg = MetricsRegistry()
        s = Sampler(1.0)
        with _deadline(2.0):
            s.sample(reg, ts=0.0)
            s.sample(reg, ts=1e12)
        assert s.stamps == [0.0, 1e12]
        assert not s.due(1e12) and s.due(1e12 + 1.0)

    @pytest.mark.parametrize("every", [2e5, 5e4, 100.0, 10.0, 1.0, 3.0])
    def test_integer_pitch_grid_is_unchanged(self, every):
        rng = np.random.default_rng(int(every))
        stamps = np.cumsum(rng.exponential(every * 0.7, 400)).tolist()
        stamps += [stamps[-1] + every * k for k in (1, 2, 2.5, 1e6)]
        reg = MetricsRegistry()
        s = Sampler(every)
        for ts in stamps:
            if s.due(ts):
                s.sample(reg, ts=ts)
        assert [t for t, _ in s.rows] == _added_grid(every, stamps)

    def test_fractional_pitch_grid_is_multiples_of_the_pitch(self):
        # ten additions of 0.1 give 0.9999999999999999; the grid point
        # is 10 * 0.1 == 1.0, rounded once
        reg = MetricsRegistry()
        s = Sampler(0.1)
        s.sample(reg, ts=0.95)
        assert not s.due(0.9999999999999999)
        assert s.due(1.0)

    def test_rows_and_series_read_the_columns(self):
        reg = MetricsRegistry()
        c = reg.counter("n")
        s = Sampler(1.0)
        c.inc()
        s.sample(reg, ts=0.0)
        reg.gauge("a").set(7)
        c.inc()
        s.sample(reg, ts=1.0)
        assert s.rows == [(0.0, {"n": 1.0}), (1.0, {"a": 7.0, "n": 2.0})]
        times, values = s.series("a")
        assert times.tolist() == [0.0, 1.0] and values.tolist() == [0.0, 7.0]
        # "n" moves from index 0 to 1 when "a" is registered
        assert s.series("n")[1].tolist() == [1.0, 2.0]


class TestSloBurnMonitor:
    def test_fires_and_resolves_on_transitions_only(self):
        mon = SloBurnMonitor("m", target=0.5, window=100.0, min_count=4)
        out = []
        ts = 0.0
        for met in [True, True, False, False, False, False, True, True, True, True]:
            ts += 1.0
            got = mon.observe(met, ts=ts)
            if got is not None:
                out.append(got[0])
        assert out == ["firing", "resolved"]

    def test_min_count_gates_alerting(self):
        mon = SloBurnMonitor("m", target=0.9, window=10.0, min_count=8)
        for i in range(7):
            assert mon.observe(False, ts=float(i)) is None

    def test_window_expiry_forgets_old_misses(self):
        mon = SloBurnMonitor("m", target=0.5, window=5.0, min_count=1)
        state = mon.observe(False, ts=0.0)
        assert state is not None and state[0] == "firing"
        # the miss ages out of the window; fresh successes resolve
        got = mon.observe(True, ts=10.0)
        assert got is not None and got[0] == "resolved"

    def test_parameter_validation(self):
        with pytest.raises(ObsError, match="target"):
            SloBurnMonitor("m", target=1.5, window=1.0)
        with pytest.raises(ObsError, match="window"):
            SloBurnMonitor("m", target=0.5, window=0.0)
        with pytest.raises(ObsError, match="threshold"):
            SloBurnMonitor("m", target=0.5, window=1.0, threshold=0.0)
