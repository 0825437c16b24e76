"""Executable documentation: the tutorial's snippets must keep working.

Each test mirrors one section of docs/supervising_your_application.md;
if the API drifts, these fail before the documentation rots.
"""

import json
import re
from pathlib import Path

import pytest

from repro.baselines import HardwareWatchdog
from repro.core import (
    FaultHypothesis,
    RunnableHypothesis,
    attach_hardware_watchdog_kick,
    hypothesis_from_dict,
    hypothesis_to_dict,
)
from repro.faults import (
    BlockedRunnableFault,
    Campaign,
    CampaignSystem,
    FaultTarget,
    watchdog_detector,
)
from repro.kernel import ms
from repro.platform import (
    Application,
    Ecu,
    FmfPolicy,
    RunnableSpec,
    SoftwareComponent,
    TaskMapping,
    TaskSpec,
    is_schedulable,
)
from repro.analysis import S12XF, project_cpu_load
from repro.lint import CODES, lint_hypothesis

TUTORIAL = (Path(__file__).resolve().parent.parent
            / "docs" / "supervising_your_application.md")


def brake_mapping():
    app = Application("BrakeAssist", restartable=True, ecu_reset_allowed=False)
    swc = SoftwareComponent("BrakeLogic")
    swc.add(RunnableSpec("ReadPedal", wcet=ms(0.5)))
    swc.add(RunnableSpec("ComputeForce", wcet=ms(1.5)))
    swc.add(RunnableSpec("DriveValve", wcet=ms(0.5)))
    app.add_component(swc)
    mapping = TaskMapping([app])
    mapping.add_task(TaskSpec("BrakeTask", priority=6, period=ms(5)))
    mapping.map_sequence("BrakeTask", ["ReadPedal", "ComputeForce", "DriveValve"])
    return mapping


class TestTutorialSections:
    def test_section_2_schedulability(self):
        assert is_schedulable(brake_mapping().task_timings())

    def test_section_3_supervised_system(self):
        ecu = Ecu("brake-node", brake_mapping(), watchdog_period=ms(5))
        ecu.run_until(ms(1000))
        assert ecu.watchdog.detection_count() == 0

    def test_section_4_author_and_validate(self, tmp_path):
        mapping = brake_mapping()
        hyp = FaultHypothesis()
        hyp.add_runnable(RunnableHypothesis(
            "ComputeForce", task="BrakeTask",
            aliveness_period=2, min_heartbeats=1,
            arrival_period=2, max_heartbeats=3,
        ))
        hyp.allow_sequence(["ComputeForce"])
        report = lint_hypothesis(hyp, mapping=mapping, watchdog_period=ms(5))
        assert report.render_text() == "<hypothesis>: ok"
        assert report.ok

        path = tmp_path / "brake_hypothesis.json"
        path.write_text(json.dumps(hypothesis_to_dict(hyp)))
        restored = hypothesis_from_dict(json.loads(path.read_text()))
        assert "ComputeForce" in restored.runnables

    def test_section_4_code_table_mirrors_registry(self):
        """The tutorial's WD table lists exactly the registry's codes,
        each with its registry severity."""
        rows = re.findall(r"^\| (WD\d{3}) \| (\w+) +\|",
                          TUTORIAL.read_text(), flags=re.MULTILINE)
        assert dict(rows) == {
            code: severity.value for code, (_, severity, _) in CODES.items()
        }
        assert len(rows) == len(CODES)

    def test_section_5_linting(self):
        from repro.core import SoftwareWatchdog
        from repro.lint import LintError

        hyp = FaultHypothesis()
        hyp.add_runnable(RunnableHypothesis(
            "ComputeForce", task="BrakeTask",
            aliveness_period=2, min_heartbeats=1,
            arrival_period=2, max_heartbeats=3,
        ))
        hyp.allow_sequence(["ComputeForce"])

        wd = SoftwareWatchdog(hyp, lint="error")    # clean: constructs
        assert wd.hypothesis is hyp

        defective = FaultHypothesis()
        defective.add_runnable(RunnableHypothesis(
            "ComputeForce", task="BrakeTask",
            aliveness_period=2, min_heartbeats=3,
            arrival_period=2, max_heartbeats=2,
        ))
        defective.allow_sequence(["ComputeForce"])
        with pytest.raises(LintError, match="WD201"):
            SoftwareWatchdog(defective, lint="error")

    def test_section_5_cli_lint(self, capsys, tmp_path):
        from repro.__main__ import main

        assert main(["lint"]) == 0
        assert "safespeed: ok" in capsys.readouterr().out

        hyp = FaultHypothesis()
        hyp.add_runnable(RunnableHypothesis(
            "ComputeForce", task="BrakeTask",
            aliveness_period=2, min_heartbeats=1,
            arrival_period=2, max_heartbeats=3,
        ))
        hyp.allow_sequence(["ComputeForce"])
        path = tmp_path / "brake_hypothesis.json"
        path.write_text(json.dumps(hypothesis_to_dict(hyp)))
        assert main(["lint", str(path), "--format", "json"]) == 0
        [report] = json.loads(capsys.readouterr().out)["reports"]
        assert report["source"] == str(path) and report["ok"]

    def test_section_7_fault_injection_proof(self):
        def system_factory():
            ecu = Ecu("brake-node", brake_mapping(), watchdog_period=ms(5),
                      fmf_policy=FmfPolicy(ecu_faulty_task_threshold=10**6,
                                           max_app_restarts=10**6),
                      fmf_auto_treatment=False)
            return CampaignSystem(
                target=FaultTarget.from_ecu(ecu),
                detectors=[watchdog_detector(ecu.watchdog)],
                run_until=ecu.run_until,
                now=lambda: ecu.now,
            )

        campaign = Campaign(system_factory, warmup=ms(200), observation=ms(2000))
        result = campaign.execute(
            [lambda: BlockedRunnableFault("ComputeForce")]
        )
        assert result.coverage("SoftwareWatchdog") == 1.0

    def test_section_8_layered_hardware_stage(self):
        ecu = Ecu("brake-node", brake_mapping(), watchdog_period=ms(5))
        hw = HardwareWatchdog(ecu.kernel, timeout=ms(50))
        attach_hardware_watchdog_kick(ecu.binding, hw)
        hw.start()
        ecu.run_until(ms(1000))
        assert not hw.expired
        assert hw.kick_count >= 195

    def test_section_9_check_cycle_scaling(self):
        """The tutorial's one-line construction runs a healthy stream
        without detections, and the wheel visits only due checks."""
        from repro.core import SoftwareWatchdog

        hyp = FaultHypothesis()
        hyp.add_runnable(RunnableHypothesis(
            "ComputeForce", task="BrakeTask",
            aliveness_period=2, min_heartbeats=1,
            arrival_period=2, max_heartbeats=3,
        ))
        hyp.allow_sequence(["ComputeForce"])
        wd = SoftwareWatchdog(hyp)
        for t in range(20):
            wd.notify_task_start("BrakeTask")
            wd.heartbeat_indication("ComputeForce", t, task="BrakeTask")
            wd.check_cycle(t)
        assert wd.detection_count() == 0
        assert wd.hbm.slots_visited == 10  # one visit per 2-cycle period

    def test_section_9_sharp_edges(self):
        ecu = Ecu("brake-node", brake_mapping(), watchdog_period=ms(5))
        ecu.watchdog.hbm.heartbeat("TypoRunnable", 0)  # tolerated
        assert ecu.watchdog.hbm.unknown_heartbeats == 1
        with pytest.raises(ValueError, match="TypoRunnable"):
            ecu.watchdog.set_activation_status("TypoRunnable", False)

    def test_section_9_scaling_campaigns(self):
        from functools import partial

        from repro.experiments.coverage import build_coverage_system

        campaign = Campaign(build_coverage_system, warmup=ms(300),
                            observation=ms(500))
        faults = [partial(BlockedRunnableFault, "SAFE_CC_process")] * 2
        result = campaign.execute(faults, workers=2)
        assert result.runs == campaign.execute(faults).runs
        assert result.coverage("SoftwareWatchdog") == 1.0
        with pytest.raises(ValueError, match="<lambda>"):
            campaign.execute(
                [lambda: BlockedRunnableFault("SAFE_CC_process")], workers=2)

    def test_section_10_mcu_sizing(self):
        load = project_cpu_load(S12XF, monitored_runnables=3,
                                heartbeats_per_second=600,
                                check_period_s=0.005)
        assert 0.0 < load["cpu_fraction"] < 0.01


class TestObservability:
    def test_section_11_observing_the_watchdog(self):
        from repro.kernel import seconds
        from repro.telemetry import InMemorySink, MetricsRegistry

        registry = MetricsRegistry()
        sink = InMemorySink()
        ecu = Ecu("brake-node", brake_mapping(), watchdog_period=ms(5),
                  telemetry=registry, event_sink=sink)
        ecu.run_until(seconds(10))
        text = registry.render_prometheus()
        assert "# TYPE wd_hbm_check_cycles_total counter" in text
        assert registry.value("wd_hbm_check_cycles_total") > 0
        # A healthy drive produces no detection narrative; a blocked
        # runnable does.
        assert sink.filter(kind="detection") == []
        BlockedRunnableFault("ComputeForce").inject(FaultTarget.from_ecu(ecu))
        ecu.run_until(seconds(11))
        assert sink.filter(kind="detection")
        assert sink.filter(kind="task_fault")

    def test_section_11_instrument_table_mirrors_registry(self):
        """The tutorial's instrument table names exactly the metric
        families an ECU, its FMF and a campaign register; a cell such
        as `a` / `b` names several families."""
        from repro.kernel import seconds
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        ecu = Ecu("brake-node", brake_mapping(), watchdog_period=ms(5),
                  telemetry=registry)
        # A fault makes the labelled detection and FMF families appear.
        BlockedRunnableFault("ComputeForce").inject(FaultTarget.from_ecu(ecu))
        ecu.run_until(seconds(1))

        def system_factory():
            fresh = Ecu("brake-node", brake_mapping(), watchdog_period=ms(5))
            return CampaignSystem(
                target=FaultTarget.from_ecu(fresh),
                detectors=[watchdog_detector(fresh.watchdog)],
                run_until=fresh.run_until,
                now=lambda: fresh.now,
            )

        Campaign(system_factory, warmup=ms(100), observation=ms(500),
                 telemetry=registry).execute(
            [lambda: BlockedRunnableFault("ComputeForce")])

        text = TUTORIAL.read_text()
        table = text[text.index("### The instruments"):
                     text.index("### The event stream")]
        names = {
            re.match(r"`(\w+)", cell.strip()).group(1)
            for row in re.findall(r"^\| (`.+?) \| \w", table,
                                  flags=re.MULTILINE)
            for cell in row.split(" / ")
        }
        assert names == set(registry.families())
