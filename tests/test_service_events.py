"""The daemon's event stream: one subscriber on the supervision table.

``SupervisionServer(event_sink=)`` attaches
:class:`~repro.telemetry.WatchdogEvents` once to its fleet's
``(registration, event)`` listeners, so every record names the
registration that raised it, even when registrations share runnable
and task names.  The tests drive the server's fleet directly; the
server is never started.
"""

from repro.core import FaultHypothesis, RunnableHypothesis
from repro.core.config_io import hypothesis_to_dict
from repro.service import SupervisionServer
from repro.service.fleet import Fleet
from repro.telemetry import InMemorySink


def shared_hypothesis():
    """What every registration submits: runnables ``r0`` → ``r1`` on
    task ``T``."""
    hyp = FaultHypothesis()
    for runnable in ("r0", "r1"):
        hyp.add_runnable(RunnableHypothesis(
            runnable, task="T", aliveness_period=2, min_heartbeats=1,
            arrival_period=2, max_heartbeats=8))
    hyp.allow_sequence(["r0", "r1"])
    return hypothesis_to_dict(hyp)


def drive(fleet, cycles=20):
    """``healthy`` runs its sequence every cycle; ``silent`` never
    sends an indication."""
    for name in ("healthy", "silent"):
        fleet.register(name, shared_hypothesis())
    for cycle in range(1, cycles + 1):
        fleet.task_start("healthy", "T")
        for runnable in ("r0", "r1"):
            fleet.heartbeat("healthy", runnable, cycle, "T")
        fleet.tick(cycle)


def test_every_record_names_the_registration_that_raised_it():
    sink = InMemorySink()
    server = SupervisionServer(port=0, tick_interval=None, event_sink=sink)
    drive(server.fleet)
    detections = sink.filter(kind="detection")
    faults = sink.filter(kind="task_fault")
    changes = sink.filter(kind="ecu_state_change")
    assert detections and faults and changes
    assert {e.subject for e in detections} == {"r0", "r1"}
    assert {e.subject for e in faults} == {"T"}
    for event in detections + faults + changes:
        assert event.data["registration"] == "silent", event.to_dict()
    assert {e.subject for e in changes} == {"silent"}


def test_a_detection_is_heard_before_the_task_fault_it_causes():
    fleet = Fleet()
    heard = []
    fleet.add_detection_listener(
        lambda name, error: heard.append(("detection", error.runnable)))
    fleet.add_task_fault_listener(
        lambda name, event: heard.append(("task_fault",
                                          event.trigger_runnable)))
    drive(fleet)
    first = heard.index(next(h for h in heard if h[0] == "task_fault"))
    assert heard[first - 1] == ("detection", heard[first][1])
