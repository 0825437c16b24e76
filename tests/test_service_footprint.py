"""Import footprint of the daemon and of the ``repro`` argument parser.

``python -m repro serve`` keeps OpenSSL out of its process (it never
speaks TLS; asyncio would otherwise map libssl and libcrypto), defines
no dataclass, and never loads the client SDK or the simulator.  Argument parsing, which every
subcommand does, must not load the daemon at all.  In-process callers
of :func:`repro.__main__.main` keep ``ssl``.

Each probe runs in a fresh interpreter: this test process has long since
imported asyncio and ``ssl``.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
import repro.service
from repro.core import (
    ErrorType,
    FaultHypothesis,
    HypothesisError,
    RunnableError,
    RunnableHypothesis,
    ThresholdPolicy,
)
from repro.lint import Diagnostic, LintReport, Severity
from repro.service.persistence import RestoredState
from repro.service.protocol import T_HELLO, Frame
from repro.telemetry import TelemetryEvent

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

_SERVE_ARGV = ["serve", "--port", "0", "--http-port", "0",
               "--run-seconds", "0.2"]

#: Runs the real entry point, exactly as ``python -m repro serve`` does,
#: and lists the modules actually loaded (the excluded ``ssl`` sits in
#: ``sys.modules`` as ``None``).
_ENTRY_POINT_PROBE = r"""
import json, runpy, sys
sys.argv = ["repro"] + json.loads(sys.argv[1])
try:
    runpy.run_module("repro", run_name="__main__")
except SystemExit as stop:
    assert not stop.code, stop.code
print(json.dumps(sorted(n for n, m in sys.modules.items() if m is not None)))
"""

_PARSER_PROBE = r"""
import json, sys
from repro.__main__ import build_parser
build_parser().parse_args(["serve", "--port", "0"])
print(json.dumps(sorted(sys.modules)))
"""

#: ``sys.argv`` names ``serve`` too, so only main()'s own code decides.
_IN_PROCESS_PROBE = r"""
import json, sys
sys.argv = ["repro"] + json.loads(sys.argv[1])
from repro.__main__ import main
code = main(sys.argv[1:])
ssl = sys.modules.get("ssl")
print(json.dumps({"code": code, "ssl": getattr(ssl, "__name__", None)}))
"""


#: Serves one REGISTER (linted without a mapping) over a raw socket, so
#: only the daemon's own imports are listed.
_REGISTER_PROBE = r"""
import asyncio, json, socket, sys
from repro.core import FaultHypothesis, RunnableHypothesis, hypothesis_to_dict
from repro.service.protocol import FrameDecoder, T_REGISTER, encode_frame
from repro.service.server import SupervisionServer

hyp = FaultHypothesis()
hyp.add_runnable(RunnableHypothesis("sense", task="T", min_heartbeats=1))

def register(address):
    with socket.create_connection(address) as sock:
        sock.sendall(encode_frame(T_REGISTER, name="p",
                                  hypothesis=hypothesis_to_dict(hyp)))
        decoder = FrameDecoder()
        while True:
            frames = decoder.feed(sock.recv(65536))
            if frames:
                return frames[0].get("ok")

async def serve():
    server = SupervisionServer(port=0, tick_interval=None)
    await server.start()
    ok = await asyncio.get_running_loop().run_in_executor(
        None, register, (server.host, server.port))
    await server.stop()
    return ok

ok = asyncio.run(serve())
print(json.dumps({"ok": ok, "modules": sorted(
    n for n, m in sys.modules.items() if m is not None)}))
"""


#: Defining a dataclass execs generated methods, a fixed cost on every
#: spawn and restart; the daemon's records are plain classes instead
#: (``copy`` comes only with ``dataclasses``).
_GENERATED_CODE = {"dataclasses", "copy"}


def _probe(source, *args):
    result = subprocess.run(
        [sys.executable, "-c", source, *args],
        env=dict(os.environ, PYTHONPATH=_SRC), capture_output=True,
        text=True, timeout=60, check=True)
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_serve_entry_point_loads_neither_tls_nor_simulator():
    loaded = set(_probe(_ENTRY_POINT_PROBE, json.dumps(_SERVE_ARGV)))
    assert {"asyncio", "repro.service.server"} <= loaded
    assert loaded.isdisjoint({
        "ssl", "_ssl", "_hashlib", "repro.service.client", "repro.kernel",
        "repro.platform", "repro.apps", "repro.network", *_GENERATED_CODE})


def test_register_loads_no_simulator():
    """A REGISTER lints without a mapping, so the schedule checks'
    response-time analysis (in ``repro.platform``) stays unloaded."""
    report = _probe(_REGISTER_PROBE)
    assert report["ok"] is True
    loaded = set(report["modules"])
    assert "repro.lint.analyzer" in loaded
    assert loaded.isdisjoint({
        "repro.kernel", "repro.platform", "repro.platform.schedulability",
        "repro.apps", "repro.network", *_GENERATED_CODE})


def test_parsing_arguments_does_not_load_the_daemon():
    loaded = set(_probe(_PARSER_PROBE))
    assert "repro.service.cli" in loaded
    assert loaded.isdisjoint({"asyncio", "repro.service.server", "ssl"})


def test_in_process_serve_keeps_ssl():
    report = _probe(_IN_PROCESS_PROBE, json.dumps(_SERVE_ARGV))
    assert report == {"code": 0, "ssl": "ssl"}


def test_lazy_service_names_still_resolve():
    from repro.service import (  # noqa: F401
        StateStore,
        SupervisionServer,
        WatchdogClient,
        encode_frame,
    )

    for name in repro.service.__all__:
        assert getattr(repro.service, name) is not None
        assert name in dir(repro.service)
    assert "encode_frame" in dir(repro.service)
    with pytest.raises(AttributeError):
        repro.service.NoSuchName  # noqa: B018


# ----------------------------------------------------------------------
# The records on the serve path are plain classes; they keep the
# contract their dataclass versions had.

#: A record built with only its required arguments, and each container
#: field that must be fresh per instance.
_FRESH_DEFAULTS = [
    (lambda: RunnableError(0, "r", None, ErrorType.ALIVENESS), "details"),
    (lambda: TelemetryEvent(0, "kind", "subject"), "data"),
    (lambda: Diagnostic("WD101", Severity.ERROR, "message"), "context"),
    (lambda: Frame(T_HELLO), "data"),
    (ThresholdPolicy, "per_type"),
    (FaultHypothesis, "runnables"),
    (FaultHypothesis, "flow_pairs"),
    (FaultHypothesis, "thresholds"),
    (LintReport, "diagnostics"),
    (RestoredState, "entries"),
]


@pytest.mark.parametrize("build, name", _FRESH_DEFAULTS,
                         ids=[name for _, name in _FRESH_DEFAULTS])
def test_default_containers_are_fresh_per_instance(build, name):
    first, second = build(), build()
    assert getattr(first, name) is not getattr(second, name)
    assert getattr(first, name) == getattr(second, name)


def _hypothesis(max_heartbeats=1):
    hyp = FaultHypothesis(thresholds=ThresholdPolicy(
        default=2, per_type={ErrorType.PROGRAM_FLOW: 3}))
    hyp.add_runnable(RunnableHypothesis("a", task="T",
                                        max_heartbeats=max_heartbeats))
    hyp.allow_sequence(["a"])
    return hyp


#: Records compared by value: a builder taking one varied field.
_VALUE_EQUALITY = {
    "RunnableError": lambda n: RunnableError(
        5, "r", "T", ErrorType.ALIVENESS, {"count": n}),
    "RunnableHypothesis": lambda n: RunnableHypothesis(
        "r", task="T", aliveness_period=n),
    "ThresholdPolicy": lambda n: ThresholdPolicy(
        default=2, per_type={ErrorType.ALIVENESS: n}),
    "FaultHypothesis": _hypothesis,
    "TelemetryEvent": lambda n: TelemetryEvent(5, "kind", "s", {"n": n}),
    "Frame": lambda n: Frame(T_HELLO, {"n": n}),
}


@pytest.mark.parametrize("name", sorted(_VALUE_EQUALITY))
def test_equal_fields_compare_equal(name):
    build = _VALUE_EQUALITY[name]
    assert build(1) == build(1)
    assert build(1) != build(2)
    assert build(1) != object()


def test_hypothesis_equality_ignores_its_table_memo():
    derived, fresh = _hypothesis(), _hypothesis()
    derived.static_tables()
    assert derived == fresh


def test_runnable_hypothesis_validates_on_construction():
    with pytest.raises(HypothesisError, match="aliveness_period"):
        RunnableHypothesis("r", aliveness_period=0)
