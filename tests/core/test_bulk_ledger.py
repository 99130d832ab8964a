"""Vectorised ledger primitives: charge_tensor_bulk, record_bulk and the
np.unique-based trace summaries must match their per-call loops exactly."""

import numpy as np
import pytest

from repro.core.ledger import CallTrace, CostLedger, LedgerError


def loop_ledger(ns, s, ell, mode=True, section=None):
    led = CostLedger(trace_calls=mode)
    if section:
        with led.section(section):
            for n in ns:
                led.charge_tensor(int(n), s, ell)
    else:
        for n in ns:
            led.charge_tensor(int(n), s, ell)
    return led


def bulk_ledger(ns, s, ell, mode=True, section=None):
    led = CostLedger(trace_calls=mode)
    if section:
        with led.section(section):
            led.charge_tensor_bulk(np.asarray(ns), s, ell)
    else:
        led.charge_tensor_bulk(np.asarray(ns), s, ell)
    return led


@pytest.mark.parametrize("mode", [True, "aggregate", False])
@pytest.mark.parametrize("ell", [0.0, 7.0, 1000.0])
def test_charge_tensor_bulk_matches_loop(mode, ell):
    rng = np.random.default_rng(3)
    ns = rng.integers(4, 100, size=57)
    a = loop_ledger(ns, 4, ell, mode)
    b = bulk_ledger(ns, 4, ell, mode)
    assert a.snapshot() == b.snapshot()
    if mode is not False:
        assert a.call_shape_totals() == b.call_shape_totals()
    if mode is True:
        assert list(a.calls) == list(b.calls)


def test_charge_tensor_bulk_sections():
    ns = [8, 8, 16, 32]
    a = loop_ledger(ns, 4, 5.0, section="grid")
    b = bulk_ledger(ns, 4, 5.0, section="grid")
    assert a.section_time("grid") == b.section_time("grid")
    assert [c.section for c in b.calls] == ["grid"] * len(ns)


def test_charge_tensor_bulk_empty_and_return_value():
    led = CostLedger()
    assert led.charge_tensor_bulk(np.empty(0, dtype=np.int64), 4, 9.0) == 0.0
    assert led.tensor_calls == 0
    total = led.charge_tensor_bulk(np.array([4, 8]), 4, 9.0)
    assert total == (4 * 4 + 9.0) + (8 * 4 + 9.0)


def test_charge_tensor_bulk_validation():
    led = CostLedger()
    with pytest.raises(LedgerError):
        led.charge_tensor_bulk(np.array([4, 2]), 4, 0.0)  # n < sqrt(m)
    with pytest.raises(LedgerError):
        led.charge_tensor_bulk(np.array([4]), 4, -1.0)
    with pytest.raises(LedgerError):
        led.charge_tensor_bulk(np.array([[4, 4]]), 4, 0.0)  # not 1-D


def test_unbound_ledger_accepts_any_bulk_charge():
    led = CostLedger()
    led.charge_tensor_bulk(np.array([4]), 4, 8.0)
    led.charge_tensor_bulk(np.array([8]), 8, 16.0)
    assert led.tensor_calls == 2


def test_record_bulk_matches_record():
    a, b = CallTrace(), CallTrace()
    ns = np.array([4, 6, 8])
    times = ns * 4.0 + 3.0
    for n, t in zip(ns, times):
        a.record(int(n), 4, float(t), 3.0, "sec")
    b.record_bulk(ns, 4, times, 3.0, "sec")
    assert list(a) == list(b)
    # mixing bulk and scalar appends keeps one columnar trace
    b.record(10, 4, 43.0, 3.0, "other")
    assert b[-1].section == "other" and len(b) == 4


def test_section_interning_is_constant_time_dict():
    trace = CallTrace()
    for i in range(50):
        trace.record(4, 2, 8.0, 0.0, f"s{i % 7}")
    assert trace._section_index[""] == 0
    assert len(trace._sections) == 8  # "" plus 7 distinct names
    assert [trace[i].section for i in (0, 7, 14)] == ["s0"] * 3


def test_histogram_by_n_vectorised():
    trace = CallTrace()
    assert trace.histogram_by_n() == {}
    for n in [4, 8, 4, 16, 8, 4]:
        trace.record(n, 4, n * 4.0, 0.0)
    assert trace.histogram_by_n() == {4: 3, 8: 2, 16: 1}


def test_as_arrays_zero_copy_views():
    trace = CallTrace()
    n, s, t, lat = trace.as_arrays()
    assert n.size == s.size == t.size == lat.size == 0
    trace.record(8, 4, 32.0, 0.0)
    n, s, t, lat = trace.as_arrays()
    assert (n[0], s[0], t[0], lat[0]) == (8, 4, 32.0, 0.0)


def test_call_shape_totals_vectorised_full_trace():
    led = CostLedger()
    for n in [4, 4, 8, 16, 8]:
        led.charge_tensor(n, 4, 2.0)
    led2 = CostLedger(trace_calls="aggregate")
    for n in [4, 4, 8, 16, 8]:
        led2.charge_tensor(n, 4, 2.0)
    assert led.call_shape_totals() == led2.call_shape_totals()
    assert led.call_shape_totals()[(4, 4)] == (2, 2 * (16 + 2.0), 4.0)
    assert CostLedger().call_shape_totals() == {}


def test_calls_summary_across_modes_after_bulk():
    ns = np.array([4, 8, 4, 4])
    full = bulk_ledger(ns, 4, 1.0, True)
    agg = bulk_ledger(ns, 4, 1.0, "aggregate")
    off = bulk_ledger(ns, 4, 1.0, False)
    assert full.calls_summary() == agg.calls_summary() == {
        "count": 4,
        "total_time": float((ns * 4).sum() + 4),
        "histogram": {4: 3, 8: 1},
    }
    assert off.calls_summary()["histogram"] is None


def test_extend_and_clear_preserve_interning():
    a, b = CallTrace(), CallTrace()
    a.record(4, 2, 8.0, 0.0, "x")
    b.record(8, 2, 16.0, 0.0, "y")
    b.record(8, 2, 16.0, 0.0, "x")
    a.extend(b)
    assert [c.section for c in a] == ["x", "y", "x"]
    a.clear()
    assert len(a) == 0
    a.record(4, 2, 8.0, 0.0, "z")
    assert a[0].section == "z"


def test_merged_with_after_bulk_charges():
    a = bulk_ledger(np.array([4, 8]), 4, 2.0, True)
    b = bulk_ledger(np.array([16]), 4, 2.0, "aggregate")
    merged = a.merged_with(b)
    assert merged.tensor_calls == 3
    assert merged.call_shape_totals() == {
        (4, 4): (1, 18.0, 2.0),
        (8, 4): (1, 34.0, 2.0),
        (16, 4): (1, 66.0, 2.0),
    }
