"""Unit tests for the model-time ledger."""

import pytest

from repro.core.ledger import CostLedger, LedgerError, TensorCall


class TestTensorCharges:
    def test_tensor_charge_returns_total(self):
        led = CostLedger()
        assert led.charge_tensor(8, 4, 5.0) == 8 * 4 + 5.0

    def test_tensor_charge_accumulates_split_counters(self):
        led = CostLedger()
        led.charge_tensor(8, 4, 5.0)
        led.charge_tensor(4, 4, 5.0)
        assert led.tensor_time == 8 * 4 + 4 * 4
        assert led.latency_time == 10.0
        assert led.tensor_calls == 2

    def test_total_time_sums_all_components(self):
        led = CostLedger()
        led.charge_tensor(4, 4, 2.0)
        led.charge_cpu(7)
        assert led.total_time == 16 + 2 + 7

    def test_square_call_allowed(self):
        led = CostLedger()
        assert led.charge_tensor(4, 4, 0.0) == 16

    def test_rejects_short_left_operand(self):
        led = CostLedger()
        with pytest.raises(LedgerError, match="n >= sqrt"):
            led.charge_tensor(3, 4, 0.0)

    def test_rejects_negative_latency(self):
        led = CostLedger()
        with pytest.raises(LedgerError, match="latency"):
            led.charge_tensor(4, 4, -1.0)

    def test_zero_latency_ok(self):
        led = CostLedger()
        led.charge_tensor(4, 4, 0.0)
        assert led.latency_time == 0.0


class TestCpuCharges:
    def test_cpu_charge(self):
        led = CostLedger()
        led.charge_cpu(100)
        assert led.cpu_time == 100

    def test_rejects_negative(self):
        led = CostLedger()
        with pytest.raises(LedgerError):
            led.charge_cpu(-1)

    def test_rejects_non_finite(self):
        led = CostLedger()
        with pytest.raises(LedgerError):
            led.charge_cpu(float("inf"))

    def test_zero_charge_is_noop(self):
        led = CostLedger()
        led.charge_cpu(0)
        assert led.total_time == 0


class TestReloadCharges:
    def test_reload_charge_tracked_separately(self):
        led = CostLedger()
        led.charge_cpu(3)
        assert led.charge_reload(16) == 16.0
        assert led.reload_time == 16.0
        assert led.cpu_time == 3.0
        assert led.total_time == 19.0

    def test_reload_rejects_negative_and_non_finite(self):
        led = CostLedger()
        with pytest.raises(LedgerError):
            led.charge_reload(-1)
        with pytest.raises(LedgerError):
            led.charge_reload(float("nan"))

    def test_reload_credits_open_sections(self):
        led = CostLedger()
        with led.section("resume"):
            led.charge_reload(8)
        assert led.section_time("resume") == 8.0

    def test_reload_survives_merge_and_reset(self):
        a, b = CostLedger(), CostLedger()
        a.charge_reload(4)
        b.charge_reload(6)
        assert a.merged_with(b).reload_time == 10.0
        a.reset()
        assert a.reload_time == 0.0 and a.total_time == 0.0


class TestTrace:
    def test_calls_recorded(self):
        led = CostLedger()
        led.charge_tensor(8, 4, 3.0)
        assert led.calls == [TensorCall(n=8, sqrt_m=4, time=35.0, latency=3.0)]

    def test_trace_disabled(self):
        led = CostLedger(trace_calls=False)
        led.charge_tensor(8, 4, 3.0)
        assert led.calls == []
        assert led.tensor_calls == 1

    def test_words_moved(self):
        call = TensorCall(n=8, sqrt_m=4, time=35.0, latency=3.0)
        assert call.words_moved == 2 * 8 * 4 + 16

    def test_call_records_active_section(self):
        led = CostLedger()
        with led.section("phase-a"):
            led.charge_tensor(4, 4, 0.0)
        assert led.calls[0].section == "phase-a"


class TestSections:
    def test_section_attribution(self):
        led = CostLedger()
        with led.section("a"):
            led.charge_cpu(5)
        led.charge_cpu(7)
        assert led.section_time("a") == 5
        assert led.total_time == 12

    def test_nested_sections_both_credited(self):
        led = CostLedger()
        with led.section("outer"):
            with led.section("inner"):
                led.charge_tensor(4, 4, 1.0)
        assert led.section_time("outer") == 17.0
        assert led.section_time("inner") == 17.0

    def test_sections_close_when_their_block_raises(self):
        led = CostLedger()
        with led.section("outer"):
            led.charge_cpu(1)
            with pytest.raises(ValueError), led.section("inner"):
                led.charge_cpu(2)
                raise ValueError("level lost")
            led.charge_cpu(4)  # "inner" is closed, "outer" still open
        with pytest.raises(KeyError), led.section("a"), led.section("b"):
            led.charge_tensor(4, 4, 0.0)
            raise KeyError("b")
        led.charge_tensor(4, 4, 0.0)
        assert [led.section_time(name) for name in ("outer", "inner", "a", "b")] == [
            7, 2, 16, 16,
        ]
        # every section closed: later calls carry no section, and reset
        # (which refuses while a section is open) goes through
        assert [call.section for call in led.calls] == ["b", ""]
        led.reset()

    def test_unknown_section_is_zero(self):
        led = CostLedger()
        assert led.section_time("nope") == 0.0

    def test_reset_inside_section_rejected(self):
        led = CostLedger()
        with led.section("a"):
            with pytest.raises(LedgerError):
                led.reset()


class TestResetAndMerge:
    def test_reset_clears_everything(self):
        led = CostLedger()
        led.charge_tensor(4, 4, 1.0)
        led.charge_cpu(3)
        led.reset()
        assert led.total_time == 0
        assert led.calls == []
        assert led.tensor_calls == 0

    def test_merge_sums_counters(self):
        a, b = CostLedger(), CostLedger()
        a.charge_tensor(4, 4, 1.0)
        b.charge_cpu(9)
        merged = a.merged_with(b)
        assert merged.total_time == a.total_time + b.total_time
        assert merged.tensor_calls == 1
        assert len(merged.calls) == 1

    def test_merge_combines_sections(self):
        a, b = CostLedger(), CostLedger()
        with a.section("x"):
            a.charge_cpu(2)
        with b.section("x"):
            b.charge_cpu(3)
        assert a.merged_with(b).section_time("x") == 5

    def test_snapshot_keys(self):
        led = CostLedger()
        led.charge_tensor(4, 4, 1.0)
        snap = led.snapshot()
        assert set(snap) == {
            "tensor_time",
            "latency_time",
            "cpu_time",
            "reload_time",
            "wasted_time",
            "tensor_calls",
            "total_time",
        }
        assert snap["total_time"] == led.total_time
