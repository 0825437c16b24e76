"""Tests for wdlint — the fault-hypothesis static analyzer.

One seeded-defect test per diagnostic code (asserting code *and*
severity), plus the renderers, the construction-time ``lint=`` knob on
the watchdog / ECU / HIL layers, and the tool-chain lint step.
"""

import json

import pytest

from repro.core import (
    ErrorType,
    FaultHypothesis,
    RunnableHypothesis,
    SoftwareWatchdog,
    ThresholdPolicy,
)
from repro.kernel import ms
from repro.lint import (
    CODES,
    LintError,
    LintWarning,
    Severity,
    lint_builtin,
    lint_hypothesis,
)
from repro.platform import TaskMapping, TaskSpec

from testutil import make_safespeed_mapping


def two_task_hypothesis():
    """A healthy two-task hypothesis the defect tests perturb."""
    hyp = FaultHypothesis()
    hyp.add_runnable(RunnableHypothesis(
        "A", task="T1", aliveness_period=2, min_heartbeats=1,
        arrival_period=2, max_heartbeats=3))
    hyp.add_runnable(RunnableHypothesis(
        "B", task="T1", aliveness_period=2, min_heartbeats=1,
        arrival_period=2, max_heartbeats=3))
    hyp.add_runnable(RunnableHypothesis(
        "C", task="T2", aliveness_period=2, min_heartbeats=1,
        arrival_period=2, max_heartbeats=3))
    hyp.allow_sequence(["A", "B"])
    hyp.allow_sequence(["C"])
    return hyp


def codes(report):
    """The distinct codes of a report, sorted."""
    return sorted({d.code for d in report.diagnostics})


def by_code(report, code):
    return [d for d in report.diagnostics if d.code == code]


def only(report, code):
    """The diagnostics of one code, asserting the registry severity."""
    found = by_code(report, code)
    assert found, f"expected {code} in {codes(report)}"
    for diag in found:
        assert diag.severity is CODES[code][1]
    return found


class TestCleanBaseline:
    def test_healthy_hypothesis_is_clean(self):
        report = lint_hypothesis(two_task_hypothesis())
        assert report.clean and report.ok and codes(report) == []

    @pytest.mark.parametrize("name", ["safespeed", "safelane", "steer-by-wire"])
    def test_shipped_app_hypotheses_lint_clean(self, name):
        report = lint_builtin(name)
        assert report.clean, report.render_text()


class TestFlowGraphCodes:
    def test_wd101_unreachable_runnable(self):
        hyp = two_task_hypothesis()
        hyp.add_runnable(RunnableHypothesis(
            "Orphan", task="T1", aliveness_period=2, arrival_period=2,
            max_heartbeats=3))
        hyp.allow_flow("Orphan", "B")  # participates, but nothing leads to it
        diag = only(lint_hypothesis(hyp), "WD101")[0]
        assert diag.severity is Severity.ERROR
        assert diag.subject == "Orphan"

    def test_wd102_dead_transition(self):
        hyp = two_task_hypothesis()
        hyp.allow_flow("A", "ghost")
        diag = only(lint_hypothesis(hyp), "WD102")[0]
        assert diag.severity is Severity.ERROR
        assert diag.subject == "ghost"
        assert ["A", "ghost"] in diag.context["pairs"]

    def test_wd103_missing_entry_point(self):
        hyp = FaultHypothesis()
        hyp.add_runnable(RunnableHypothesis("A", task="T1", max_heartbeats=2))
        hyp.add_runnable(RunnableHypothesis("B", task="T1", max_heartbeats=2))
        hyp.allow_flow("A", "B")  # adjacency only, no (None, A) entry
        report = lint_hypothesis(hyp)
        diag = only(report, "WD103")[0]
        assert diag.severity is Severity.ERROR
        assert diag.subject == "T1"
        # ... and with no entries at all, everything is also unreachable.
        assert by_code(report, "WD101")

    def test_wd104_cross_task_transition(self):
        hyp = two_task_hypothesis()
        hyp.allow_flow("B", "C")  # T1 -> T2: stream keying never sees it
        diag = only(lint_hypothesis(hyp), "WD104")[0]
        assert diag.severity is Severity.WARNING
        assert diag.context["predecessor_task"] == "T1"
        assert diag.context["successor_task"] == "T2"

    def test_wd104_edge_grants_no_reachability(self):
        """A runnable reachable only over a cross-task edge is flagged
        unreachable too: the edge can never fire."""
        hyp = two_task_hypothesis()
        hyp.flow_pairs = [p for p in hyp.flow_pairs if p != (None, "C")]
        hyp.allow_flow("B", "C")
        report = lint_hypothesis(hyp)
        assert by_code(report, "WD104")
        assert [d.subject for d in by_code(report, "WD101")] == ["C"]

    def test_wd105_unreachable_flow_threshold(self):
        hyp = FaultHypothesis(
            thresholds=ThresholdPolicy(per_type={ErrorType.PROGRAM_FLOW: 3}))
        hyp.add_runnable(RunnableHypothesis("A", task="T", max_heartbeats=2))
        diag = only(lint_hypothesis(hyp), "WD105")[0]
        assert diag.severity is Severity.WARNING

    def test_empty_flow_table_is_not_an_error(self):
        hyp = FaultHypothesis()
        hyp.add_runnable(RunnableHypothesis("A", task="T", max_heartbeats=2))
        assert lint_hypothesis(hyp).clean


class TestCounterBoundCodes:
    def test_wd201_contradictory_bounds(self):
        hyp = FaultHypothesis()
        # Aliveness demands >= 3 per 2 cycles; arrival tolerates <= 2 per
        # 2 cycles: every conforming rate alarms one of the two checks.
        hyp.add_runnable(RunnableHypothesis(
            "A", task="T", aliveness_period=2, min_heartbeats=3,
            arrival_period=2, max_heartbeats=2))
        diag = only(lint_hypothesis(hyp), "WD201")[0]
        assert diag.severity is Severity.ERROR
        assert diag.subject == "A"

    def test_wd201_respects_differing_periods(self):
        hyp = FaultHypothesis()
        # >= 1 per 4 cycles vs <= 1 per 2 cycles: feasible (rate 1/4).
        hyp.add_runnable(RunnableHypothesis(
            "A", task="T", aliveness_period=4, min_heartbeats=1,
            arrival_period=2, max_heartbeats=1))
        assert not by_code(lint_hypothesis(hyp), "WD201")

    def test_wd202_vacuous_aliveness(self):
        hyp = FaultHypothesis()
        hyp.add_runnable(RunnableHypothesis(
            "A", task="T", min_heartbeats=0, max_heartbeats=2))
        diag = only(lint_hypothesis(hyp), "WD202")[0]
        assert diag.severity is Severity.WARNING

    def test_wd203_vacuous_arrival(self):
        hyp = FaultHypothesis()
        hyp.add_runnable(RunnableHypothesis(
            "A", task="T", min_heartbeats=0, max_heartbeats=0))
        report = lint_hypothesis(hyp)
        diag = only(report, "WD203")[0]
        assert diag.severity is Severity.WARNING
        assert by_code(report, "WD202")  # both halves are vacuous/defective

    def test_inactive_runnables_skip_bound_checks(self):
        hyp = FaultHypothesis()
        hyp.add_runnable(RunnableHypothesis(
            "A", task="T", min_heartbeats=3, max_heartbeats=0, active=False))
        assert lint_hypothesis(hyp).clean

    def test_wd204_invalid_threshold(self):
        hyp = FaultHypothesis(
            thresholds=ThresholdPolicy(
                default=0, per_type={ErrorType.ALIVENESS: -1}))
        hyp.add_runnable(RunnableHypothesis("A", task="T", max_heartbeats=2))
        found = only(lint_hypothesis(hyp), "WD204")
        assert len(found) == 2  # the default and the per-type entry
        assert all(d.severity is Severity.ERROR for d in found)


class TestSystemCrossChecks:
    def test_wd301_schedule_rate_mismatch_aliveness(self, safespeed_mapping):
        hyp = FaultHypothesis()
        # 10 ms window over a 10 ms task: at most 1 completion; 2 demanded.
        hyp.add_runnable(RunnableHypothesis(
            "GetSensorValue", task="SafeSpeedTask", aliveness_period=1,
            min_heartbeats=2, arrival_period=2, max_heartbeats=5))
        report = lint_hypothesis(
            hyp, mapping=safespeed_mapping, watchdog_period=ms(10))
        diag = only(report, "WD301")[0]
        assert diag.severity is Severity.ERROR
        assert diag.context["bound"] == "min_heartbeats"

    def test_wd301_schedule_rate_mismatch_arrival(self, safespeed_mapping):
        hyp = FaultHypothesis()
        # 40 ms arrival window nominally delivers 4 runs; 2 tolerated.
        hyp.add_runnable(RunnableHypothesis(
            "GetSensorValue", task="SafeSpeedTask", aliveness_period=8,
            min_heartbeats=1, arrival_period=4, max_heartbeats=2))
        report = lint_hypothesis(
            hyp, mapping=safespeed_mapping, watchdog_period=ms(10))
        diag = only(report, "WD301")[0]
        assert diag.context["bound"] == "max_heartbeats"

    def test_wd302_task_attribution_mismatch(self, safespeed_mapping):
        hyp = FaultHypothesis()
        hyp.add_runnable(RunnableHypothesis(
            "GetSensorValue", task="WrongTask", aliveness_period=2,
            arrival_period=2, max_heartbeats=3))
        diag = only(lint_hypothesis(
            hyp, mapping=safespeed_mapping, watchdog_period=ms(10)),
            "WD302")[0]
        assert diag.severity is Severity.ERROR
        assert diag.context["mapped_task"] == "SafeSpeedTask"

    def test_wd303_unplaced_runnable(self, safespeed_mapping):
        hyp = FaultHypothesis()
        hyp.add_runnable(RunnableHypothesis("ghost", task="SafeSpeedTask"))
        diag = only(lint_hypothesis(
            hyp, mapping=safespeed_mapping, watchdog_period=ms(10)),
            "WD303")[0]
        assert diag.severity is Severity.ERROR

    @pytest.mark.parametrize("wcet, clean", [(2000, True), (2001, False)])
    def test_wd301_aliveness_bound_boundary(self, wcet, clean):
        """A 12 ms window over a 10 ms task holds ⌊(W − R)/P⌋
        completions: with R = 2 ms that is W − R = P, one completion,
        clean; one tick more response leaves W − R = P − 1, none."""
        from repro.platform import Application, RunnableSpec, SoftwareComponent

        swc = SoftwareComponent("Swc")
        swc.add(RunnableSpec("R", wcet=wcet))
        app = Application("App")
        app.add_component(swc)
        mapping = TaskMapping([app])
        mapping.add_task(TaskSpec("T", priority=1, period=ms(10)))
        mapping.map_sequence("T", ["R"])
        hyp = FaultHypothesis()
        hyp.add_runnable(RunnableHypothesis(
            "R", task="T", aliveness_period=2, min_heartbeats=1,
            arrival_period=2, max_heartbeats=3))
        report = lint_hypothesis(hyp, mapping=mapping, watchdog_period=ms(6))
        if clean:
            assert report.clean, report.render_text()
        else:
            diag = only(report, "WD301")[0]
            assert diag.context["guaranteed"] == 0
            assert diag.context["response_time"] == wcet

    def test_wd304_unschedulable_task(self):
        mapping = make_safespeed_mapping(period=ms(3))  # 4 ms work / 3 ms
        hyp = FaultHypothesis()
        hyp.add_runnable(RunnableHypothesis(
            "GetSensorValue", task="SafeSpeedTask", aliveness_period=2,
            arrival_period=2, max_heartbeats=5))
        report = lint_hypothesis(hyp, mapping=mapping, watchdog_period=ms(10))
        diag = only(report, "WD304")[0]
        assert diag.context["task"] == "SafeSpeedTask"
        # No response-time bound: the rate checks are skipped.
        assert codes(report) == ["WD304"]

    def test_wd305_loose_aliveness_window(self, safespeed_mapping):
        hyp = FaultHypothesis()
        # 500 ms window over a 10 ms task: only starvation is detected.
        hyp.add_runnable(RunnableHypothesis(
            "GetSensorValue", task="SafeSpeedTask", aliveness_period=50,
            min_heartbeats=1, arrival_period=2, max_heartbeats=3))
        report = lint_hypothesis(
            hyp, mapping=safespeed_mapping, watchdog_period=ms(10))
        assert codes(report) == ["WD305"]
        assert report.ok  # warnings do not block deployment

    def test_wd306_loose_arrival_bound(self, safespeed_mapping):
        hyp = FaultHypothesis()
        # 20 ms arrival window nominally delivers 2 runs; 9 tolerated.
        hyp.add_runnable(RunnableHypothesis(
            "GetSensorValue", task="SafeSpeedTask", aliveness_period=2,
            min_heartbeats=1, arrival_period=2, max_heartbeats=9))
        report = lint_hypothesis(
            hyp, mapping=safespeed_mapping, watchdog_period=ms(10))
        diag = only(report, "WD306")[0]
        assert diag.context["nominal"] == 2
        assert codes(report) == ["WD306"]
        assert report.ok

    def test_inactive_runnables_skip_rate_checks(self, safespeed_mapping):
        hyp = FaultHypothesis()
        hyp.add_runnable(RunnableHypothesis(
            "GetSensorValue", task="SafeSpeedTask", aliveness_period=1,
            min_heartbeats=2, arrival_period=50, max_heartbeats=1,
            active=False))
        report = lint_hypothesis(
            hyp, mapping=safespeed_mapping, watchdog_period=ms(10))
        assert report.clean, report.render_text()

    def test_generated_hypothesis_cross_checks_clean(self, safespeed_mapping):
        from repro.platform import SystemBuilder

        builder = SystemBuilder(safespeed_mapping, watchdog_period=ms(10))
        report = lint_hypothesis(
            builder.derive_hypothesis(), mapping=safespeed_mapping,
            watchdog_period=ms(10))
        assert report.clean, report.render_text()

    def test_mapping_requires_watchdog_period(self, safespeed_mapping):
        with pytest.raises(ValueError):
            lint_hypothesis(two_task_hypothesis(), mapping=safespeed_mapping)


class TestRenderers:
    def test_text_rendering(self):
        hyp = two_task_hypothesis()
        hyp.allow_flow("A", "ghost")
        report = lint_hypothesis(hyp, source="unit")
        text = report.render_text()
        assert text.startswith("unit:")
        assert "WD102" in text and "error" in text

    def test_json_rendering(self):
        hyp = two_task_hypothesis()
        hyp.allow_flow("A", "ghost")
        report = lint_hypothesis(hyp, source="unit")
        data = json.loads(json.dumps(report.to_dict()))
        assert data["source"] == "unit"
        assert data["ok"] is False
        assert data["summary"]["errors"] >= 1
        codes = [d["code"] for d in data["diagnostics"]]
        assert "WD102" in codes
        entry = data["diagnostics"][codes.index("WD102")]
        assert entry["slug"] == "dead-transition"
        assert entry["severity"] == "error"

    def test_clean_report_renders_ok(self):
        report = lint_hypothesis(two_task_hypothesis(), source="unit")
        assert report.render_text() == "unit: ok"

    def test_source_stamped_on_diagnostics(self):
        hyp = two_task_hypothesis()
        hyp.allow_flow("A", "ghost")
        report = lint_hypothesis(hyp, source="stamped")
        assert all(d.source == "stamped" for d in report.diagnostics)


class TestConstructionTimeKnob:
    def contradictory(self):
        # Passes FaultHypothesis.validate() but cannot be satisfied.
        hyp = FaultHypothesis()
        hyp.add_runnable(RunnableHypothesis(
            "A", task="T", aliveness_period=2, min_heartbeats=3,
            arrival_period=2, max_heartbeats=2))
        hyp.allow_sequence(["A"])
        return hyp

    def test_lint_error_refuses_construction(self):
        with pytest.raises(LintError) as excinfo:
            SoftwareWatchdog(self.contradictory(), lint="error")
        assert "WD201" in str(excinfo.value)
        assert by_code(excinfo.value.report, "WD201")

    def test_lint_warn_default_warns_and_builds(self):
        with pytest.warns(LintWarning, match="WD201"):
            wd = SoftwareWatchdog(self.contradictory())
        assert wd.hypothesis.runnables

    def test_lint_off_is_silent(self, recwarn):
        SoftwareWatchdog(self.contradictory(), lint="off")
        assert not [w for w in recwarn.list
                    if issubclass(w.category, LintWarning)]

    def test_clean_hypothesis_never_warns(self, recwarn):
        SoftwareWatchdog(two_task_hypothesis())
        assert not [w for w in recwarn.list
                    if issubclass(w.category, LintWarning)]

    def test_unknown_lint_mode_rejected(self):
        with pytest.raises(ValueError, match="lint mode"):
            SoftwareWatchdog(two_task_hypothesis(), lint="loud")

    def test_ecu_threads_lint_knob(self, recwarn):
        from repro.platform import Ecu

        # The generated hypothesis is clean, so even "error" constructs.
        ecu = Ecu("node", make_safespeed_mapping(), watchdog_period=ms(10),
                  lint="error")
        assert ecu.watchdog.detection_count() == 0
        assert not [w for w in recwarn.list
                    if issubclass(w.category, LintWarning)]

    def test_hil_validator_threads_lint_knob(self):
        from repro.validator import HilValidator

        rig = HilValidator(lint="error", include_steering=True)
        assert rig.ecu.watchdog.hypothesis.runnables


class TestToolchainLintStep:
    def test_pipeline_lints_generated_hypothesis(self):
        from repro.experiments import run_toolchain
        from repro.kernel import seconds

        report = run_toolchain(horizon=seconds(0.1))
        assert report.lint_ok
        assert report.lint_diagnostics == []
