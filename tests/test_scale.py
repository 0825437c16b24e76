"""Scale tests: the stack at one order of magnitude above the rig.

The paper motivates the service with "increasing density of application
software components" — these tests put a dense configuration on one ECU
(10 tasks / 50 runnables) and a wider network (6 supervised nodes) and
check that correctness properties survive the density.
"""

import pytest

from repro.core import ErrorType, MonitorState
from repro.faults import BlockedRunnableFault, FaultTarget
from repro.kernel import ms, seconds
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
from repro.validator import MultiEcuValidator

from testutil import observed_periods

OBSERVE = FmfPolicy(ecu_faulty_task_threshold=10**6, max_app_restarts=10**6)


def dense_mapping(tasks=10, runnables_per_task=5):
    """10 applications x 1 task x 5 runnables, periods 10-55 ms."""
    applications = []
    mapping_apps = []
    for t in range(tasks):
        app = Application(f"App{t}")
        swc = SoftwareComponent(f"Swc{t}")
        for r in range(runnables_per_task):
            swc.add(RunnableSpec(f"t{t}.r{r}", wcet=ms(0.2)))
        app.add_component(swc)
        mapping_apps.append(app)
    mapping = TaskMapping(mapping_apps)
    for t, app in enumerate(mapping_apps):
        period = ms(10 + 5 * t)
        mapping.add_task(TaskSpec(f"Task{t}", priority=tasks - t, period=period))
        mapping.map_sequence(f"Task{t}", app.runnable_names())
    return mapping


@pytest.fixture(scope="module")
def dense_ecu():
    mapping = dense_mapping()
    assert is_schedulable(mapping.task_timings())
    ecu = Ecu("dense", mapping, watchdog_period=ms(10),
              fmf_policy=OBSERVE, fmf_auto_treatment=False)
    ecu.run_until(seconds(5))
    return ecu


class TestDenseEcu:
    def test_fifty_runnables_supervised_cleanly(self, dense_ecu):
        assert len(dense_ecu.system.runnables) == 50
        assert dense_ecu.watchdog.detection_count() == 0
        assert dense_ecu.ecu_monitor_state() is MonitorState.OK

    def test_all_tasks_run_at_their_periods(self, dense_ecu):
        for t in range(10):
            periods = observed_periods(dense_ecu.kernel.trace, f"Task{t}")
            assert periods, f"Task{t} never ran"
            assert all(p == ms(10 + 5 * t) for p in periods)

    def test_single_fault_attributed_among_fifty(self, dense_ecu):
        """Blocking one runnable of fifty produces detections for exactly
        that runnable (attribution does not smear under density)."""
        fault = BlockedRunnableFault("t7.r2")
        fault.inject(FaultTarget.from_ecu(dense_ecu))
        dense_ecu.run_until(dense_ecu.now + seconds(2))
        fault.restore(FaultTarget.from_ecu(dense_ecu))
        detected = dense_ecu.watchdog.detected_per_runnable
        aliveness_victims = [
            name for name, counts in detected.items()
            if counts.get(ErrorType.ALIVENESS, 0) > 0
        ]
        assert aliveness_victims == ["t7.r2"]
        # Flow errors attribute to the hosting task's stream.
        assert dense_ecu.watchdog.tsi.error_vectors.get("Task7")
        assert not dense_ecu.watchdog.tsi.error_vectors.get("Task3")

    def test_utilization_accounting_sane(self, dense_ecu):
        # 50 x 0.2 ms across periods 10-55 ms: well under full load.
        assert 0.02 < dense_ecu.kernel.utilization() < 0.5


class TestWideNetwork:
    def test_six_node_supervision(self):
        names = [f"node{i}" for i in range(6)]
        # 6 nodes x 2 ms on the shared CPU: a 30 ms period keeps U < 1.
        rig = MultiEcuValidator(names, node_period=ms(30))
        rig.run_for(seconds(1))
        assert rig.supervisor.network_state() is MonitorState.OK
        for name in names:
            assert rig.supervisor.peers[name].frames_received >= 95

    def test_overloaded_shared_cpu_is_reported_not_hidden(self):
        """With six 10 ms nodes the shared CPU saturates (U = 1.2): the
        starved lowest-priority node's own watchdog reports it and the
        supervisor mirrors the degradation — overload is visible, never
        silent."""
        names = [f"node{i}" for i in range(6)]
        rig = MultiEcuValidator(names)  # default 10 ms periods: U > 1
        rig.run_for(seconds(1))
        assert rig.node_state("node0") is MonitorState.FAULTY
        assert rig.supervisor.peers["node0"].reported_errors["aliveness"] > 0

    def test_two_simultaneous_crashes_isolated(self):
        names = [f"node{i}" for i in range(6)]
        rig = MultiEcuValidator(names, node_period=ms(30))
        rig.run_for(seconds(1))
        rig.crash_node("node1")
        rig.crash_node("node4")
        rig.run_for(ms(200))
        faulty = {name for name in names
                  if rig.node_state(name) is MonitorState.FAULTY}
        assert faulty == {"node1", "node4"}
