"""Fixture-based self-tests: every rule fires on its violating fixture,
stays silent on the fixed idiom, and honours reasoned suppressions."""

from pathlib import Path

import pytest

from repro.lint import lint_source
from repro.lint.engine import SUP001
from repro.lint.rules import available_rules, get_rule

FIXTURES = Path(__file__).parent / "fixtures"


def lint_fixture(name: str, module: str, select=None):
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return lint_source(
        source, path=name, module=module, select=select
    )


def active(findings, code=None):
    return [
        f
        for f in findings
        if not f.suppressed and (code is None or f.code == code)
    ]


def suppressed(findings, code):
    return [f for f in findings if f.suppressed and f.code == code]


# ----------------------------------------------------------------------
# LED001
# ----------------------------------------------------------------------
class TestLED001:
    def test_fires_on_every_uncharged_hardware_op(self):
        findings = lint_fixture(
            "led001_fires.py", "repro.core.fixture", select=["LED001"]
        )
        fired = active(findings, "LED001")
        # vstack, matmul, tensordot, einsum, pad, copy — one each
        assert len(fired) == 6
        ops = " ".join(f.message for f in fired)
        for op in ("np.vstack", "np.matmul", "np.tensordot", "np.einsum", "np.pad"):
            assert op in ops
        assert ".copy" in ops

    def test_clean_on_charged_idioms(self):
        findings = lint_fixture(
            "led001_clean.py", "repro.core.fixture", select=["LED001"]
        )
        assert active(findings, "LED001") == []

    def test_transitive_helper_charge_counts(self):
        findings = lint_fixture(
            "led001_clean.py", "repro.core.fixture", select=["LED001"]
        )
        # pad_via_helper charges only through _charged_helper
        assert all("pad_via_helper" not in f.message for f in findings)

    def test_suppression_with_reason_suppresses(self):
        findings = lint_fixture(
            "led001_suppressed.py", "repro.core.fixture", select=["LED001"]
        )
        assert len(suppressed(findings, "LED001")) == 1
        assert "row bookkeeping" in suppressed(findings, "LED001")[0].reason
        # the reasonless suppression does NOT suppress, and adds SUP001
        assert len(active(findings, "LED001")) == 1
        assert len(active(findings, SUP001)) == 1

    def test_out_of_scope_module_is_skipped(self):
        findings = lint_fixture(
            "led001_fires.py", "somepkg.module", select=["LED001"]
        )
        assert findings == []

    def test_non_ledger_module_is_skipped(self):
        # same ops, but the module never charges a ledger -> not in scope
        source = "import numpy as np\n\ndef f(A):\n    return A.copy()\n"
        findings = lint_source(
            source, module="repro.core.fixture", select=["LED001"]
        )
        assert findings == []


# ----------------------------------------------------------------------
# DET001
# ----------------------------------------------------------------------
class TestDET001:
    def test_fires_on_unseeded_global_and_wall_clock(self):
        findings = lint_fixture(
            "det001_fires.py", "repro.core.fixture", select=["DET001"]
        )
        fired = active(findings, "DET001")
        assert len(fired) == 4
        msgs = " ".join(f.message for f in fired)
        assert "without a seed" in msgs
        assert "global RNG state" in msgs
        assert "stdlib global RNG" in msgs
        assert "wall clock" in msgs

    def test_clean_on_seeded_streams(self):
        findings = lint_fixture(
            "det001_clean.py", "repro.serve.fixture", select=["DET001"]
        )
        assert active(findings, "DET001") == []

    def test_scope_is_core_and_serve_only(self):
        findings = lint_fixture(
            "det001_fires.py", "repro.analysis.fixture", select=["DET001"]
        )
        assert findings == []


# ----------------------------------------------------------------------
# DET002
# ----------------------------------------------------------------------
class TestDET002:
    def test_fires_on_the_real_prefix_workload_code(self):
        """The fixture is the verbatim pre-fix _resident/_layers code."""
        findings = lint_fixture(
            "det002_prefix_workload.py", "repro.serve.workload", select=["DET002"]
        )
        fired = active(findings, "DET002")
        assert len(fired) == 2  # MatmulRequestType._resident and MLPRequestType._layers
        assert all("anagram" in f.message for f in fired)

    def test_clean_on_order_sensitive_derivation(self):
        findings = lint_fixture(
            "det002_clean.py", "repro.serve.workload", select=["DET002"]
        )
        assert active(findings, "DET002") == []

    def test_anagram_collision_is_real_in_the_prefix_code(self):
        """Pin the *semantics* the rule encodes: the pre-fix derivation
        collides on anagram names, the fixed one does not."""
        assert sum("ab".encode()) == sum("ba".encode())
        import numpy as np

        pre_a = np.random.default_rng(0xC0FFEE + sum(b"ab")).standard_normal(4)
        pre_b = np.random.default_rng(0xC0FFEE + sum(b"ba")).standard_normal(4)
        assert np.array_equal(pre_a, pre_b)  # the bug
        post_a = np.random.default_rng(
            np.random.SeedSequence([0xC0FFEE, *b"ab"])
        ).standard_normal(4)
        post_b = np.random.default_rng(
            np.random.SeedSequence([0xC0FFEE, *b"ba"])
        ).standard_normal(4)
        assert not np.array_equal(post_a, post_b)  # the fix


# ----------------------------------------------------------------------
# REG001
# ----------------------------------------------------------------------
class TestREG001:
    def test_fires_on_foreign_subscript_and_leaky_lookup(self):
        findings = lint_fixture(
            "reg001_fires.py", "repro.serve.fixture", select=["REG001"]
        )
        fired = active(findings, "REG001")
        assert len(fired) == 3
        msgs = " ".join(f.message for f in fired)
        assert "foreign private registry" in msgs
        assert "known names" in msgs

    def test_clean_on_canonical_idiom(self):
        findings = lint_fixture(
            "reg001_clean.py", "repro.serve.fixture", select=["REG001"]
        )
        assert active(findings, "REG001") == []


# ----------------------------------------------------------------------
# COST001
# ----------------------------------------------------------------------
class TestCOST001:
    def test_fires_on_unguarded_value_reads(self):
        findings = lint_fixture(
            "cost001_fires.py", "repro.linalg.fixture", select=["COST001"]
        )
        fired = active(findings, "COST001")
        assert len(fired) == 2
        msgs = " ".join(f.message for f in fired)
        assert "np.argmax" in msgs and "np.allclose" in msgs

    def test_clean_on_guarded_functions(self):
        findings = lint_fixture(
            "cost001_clean.py", "repro.linalg.fixture", select=["COST001"]
        )
        assert active(findings, "COST001") == []


# ----------------------------------------------------------------------
# COST002
# ----------------------------------------------------------------------
class TestCOST002:
    def test_fires_on_hardcoded_cost_parameters(self):
        findings = lint_fixture(
            "cost002_fires.py", "repro.core.fixture", select=["COST002"]
        )
        fired = active(findings, "COST002")
        # ell, sqrt_m, units= default, max_rows, annotated s — one each
        assert len(fired) == 5
        msgs = " ".join(f.message for f in fired)
        for param in ("ell", "sqrt_m", "units", "max_rows"):
            assert param in msgs
        # each message points at the machine-object idiom
        assert all("machine." in f.message for f in fired)
        assert "machine.sqrt_m" in msgs  # the s -> sqrt_m mapping

    def test_reasoned_suppression_honoured(self):
        findings = lint_fixture(
            "cost002_fires.py", "repro.core.fixture", select=["COST002"]
        )
        assert len(suppressed(findings, "COST002")) == 1

    def test_clean_on_machine_sourced_parameters(self):
        findings = lint_fixture(
            "cost002_clean.py", "repro.core.fixture", select=["COST002"]
        )
        assert active(findings, "COST002") == []

    def test_out_of_scope_module_ignored(self):
        """The rule only polices repro.core — serving/analysis literals
        are someone else's business."""
        findings = lint_fixture(
            "cost002_fires.py", "repro.serve.fixture", select=["COST002"]
        )
        assert active(findings, "COST002") == []


# ----------------------------------------------------------------------
# EXC001
# ----------------------------------------------------------------------
class TestEXC001:
    def test_fires_on_bare_and_broad_excepts(self):
        findings = lint_fixture(
            "exc001_fires.py", "repro.core.fixture", select=["EXC001"]
        )
        fired = active(findings, "EXC001")
        assert len(fired) == 3
        msgs = " ".join(f.message for f in fired)
        assert "bare 'except:'" in msgs and "broad 'except" in msgs

    def test_clean_and_suppressed(self):
        findings = lint_fixture(
            "exc001_clean.py", "repro.serve.fixture", select=["EXC001"]
        )
        assert active(findings, "EXC001") == []
        assert len(suppressed(findings, "EXC001")) == 1
        assert "CLI boundary" in suppressed(findings, "EXC001")[0].reason

    def test_scope_excludes_other_packages(self):
        findings = lint_fixture(
            "exc001_fires.py", "repro.extmem.fixture", select=["EXC001"]
        )
        assert findings == []


# ----------------------------------------------------------------------
# OBS001
# ----------------------------------------------------------------------
class TestOBS001:
    def test_fires_on_recomputed_timestamps(self):
        findings = lint_fixture(
            "obs001_fires.py", "repro.serve.fixture", select=["OBS001"]
        )
        fired = active(findings, "OBS001")
        # literal ts, inline BinOp start, fresh float() call, UnaryOp start
        assert len(fired) == 4
        msgs = " ".join(f.message for f in fired)
        assert "numeric literal" in msgs
        assert "inline arithmetic" in msgs
        assert "a fresh call" in msgs

    def test_clean_on_clock_reads(self):
        findings = lint_fixture(
            "obs001_clean.py", "repro.serve.fixture", select=["OBS001"]
        )
        assert active(findings, "OBS001") == []

    def test_scope_is_core_and_serve_only(self):
        findings = lint_fixture(
            "obs001_fires.py", "repro.obs.fixture", select=["OBS001"]
        )
        assert findings == []

    def test_fires_on_the_per_batch_emission(self):
        """A completed batch's request rows are recorded by one
        ``batch_done`` call whose ``ts`` the rule must see."""
        findings = lint_fixture(
            "obs001_batch_done.py", "repro.serve.fixture", select=["OBS001"]
        )
        fired = active(findings, "OBS001")
        assert len(fired) == 1
        assert "tr.batch_done(ts=...)" in fired[0].message
        assert "inline arithmetic" in fired[0].message


# ----------------------------------------------------------------------
# OBS002
# ----------------------------------------------------------------------
class TestOBS002:
    def test_fires_on_metric_access(self):
        findings = lint_fixture(
            "obs002_fires.py", "repro.serve.fixture", select=["OBS002"]
        )
        fired = active(findings, "OBS002")
        # two .registry reads, one counter, one gauge, one histogram
        assert len(fired) == 5
        msgs = " ".join(f.message for f in fired)
        for what in ("tracer.registry", ".counter(", ".gauge(", ".histogram("):
            assert what in msgs
        assert "owns no metric" in fired[0].message

    def test_clean_on_state_handoff(self):
        findings = lint_fixture(
            "obs002_clean.py", "repro.serve.fixture", select=["OBS002"]
        )
        assert active(findings, "OBS002") == []

    def test_scope_is_core_and_serve_only(self):
        findings = lint_fixture(
            "obs002_fires.py", "repro.obs.fixture", select=["OBS002"]
        )
        assert findings == []
        findings = lint_fixture(
            "obs002_fires.py", "repro.core.fixture", select=["OBS002"]
        )
        assert len(active(findings, "OBS002")) == 5


# ----------------------------------------------------------------------
# registry idiom of the lint package itself
# ----------------------------------------------------------------------
class TestRuleRegistry:
    def test_all_rules_registered(self):
        codes = available_rules()
        for code in (
            "LED001",
            "DET001",
            "DET002",
            "REG001",
            "COST001",
            "COST002",
            "EXC001",
            "OBS001",
            "OBS002",
        ):
            assert code in codes

    def test_get_rule_unknown_lists_names(self):
        with pytest.raises(ValueError, match="available"):
            get_rule("NOPE999")

    def test_get_rule_case_insensitive_and_passthrough(self):
        rule = get_rule("led001")
        assert rule.code == "LED001"
        assert get_rule(rule) is rule

    def test_every_rule_has_code_name_description(self):
        for code in available_rules():
            rule = get_rule(code)
            assert rule.code == code
            assert rule.name and rule.description
