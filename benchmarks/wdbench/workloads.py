"""The four wdbench workloads and their seeded schedules.

A workload fixes the *shape* of the traffic (how many registrations and
runnables, how often each heartbeats, how indications are framed, how
much churn); :func:`build_schedule` turns a workload plus a seed into
the complete schedule of one run: heartbeat phase offsets (and so every
due time), the silences, the churn order and the frame bytes.  The seed
is an argument of the benchmark only — the daemon receives nothing but
the generated frames — and the same seed always gives byte-identical
schedules (:meth:`Schedule.to_bytes`).

Timing constants mirror the daemon's production defaults: 10 ms check
cycles and a 50-cycle (0.5 s) aliveness window, which is at least three
heartbeat periods on every workload so a healthy runnable never misses
a window.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core import FaultHypothesis, RunnableHypothesis
from repro.core.config_io import hypothesis_to_dict
from repro.service.protocol import T_HEARTBEAT, encode_frame

#: The daemon's default check-cycle period (``repro serve --tick-ms``).
TICK_S = 0.01
#: Aliveness window in check cycles, and in seconds.
WINDOW_CYCLES = 50
WINDOW_S = WINDOW_CYCLES * TICK_S
#: A silence covers three aliveness windows plus a margin.  The daemon
#: skips the check cycles it could not run on time, which stretches a
#: 50-cycle window in wall time; on a stalled host (a third of the
#: cycles missed) one window must still fall wholly inside the silence.
SILENCE_S = 3 * WINDOW_S + 0.1
#: Quiet time after a silence before the same runnable may fall silent
#: again: its last legitimate detection lands within one window of the
#: silence's end, so detections are never ambiguous between silences.
COOLDOWN_S = WINDOW_S + 0.1
#: No silence starts in the first moments of the phase ...
SILENCE_FIRST_S = 0.2
#: ... or later than four windows before its end, so each can still be
#: detected inside the measured phase, even through stretched windows.
SILENCE_TAIL_S = 4 * WINDOW_S
#: Silences scheduled per second of usable phase (≥400 in a 20 s phase).
SILENCE_RATE = 23.0
#: Upper arrival-rate bound: far above any workload's heartbeat rate,
#: so only aliveness faults are ever detected.
MAX_HEARTBEATS = 10 ** 6
#: Every runnable of a registration runs in this task.
TASK = "T"


@dataclass(frozen=True)
class Workload:
    """The traffic shape of one workload (README.md says why each)."""

    name: str
    registrations: int
    runnables: int
    #: Heartbeat period of each registration's stream, in seconds.
    period_s: float
    #: ``"sdk"``: indications go through ``WatchdogClient.heartbeat()``;
    #: ``"raw"``: one pre-encoded HEARTBEAT frame per registration per
    #: period, carrying one indication per non-silent runnable.
    sender: str
    churn_rate: float = 0.0
    churn_pool: int = 0
    durable: bool = False

    def serve_args(self, state_dir: Optional[str]) -> List[str]:
        """Extra ``repro serve`` flags (all else stays at defaults)."""
        if not self.durable:
            return []
        return ["--state-dir", state_dir, "--snapshot-interval", "1"]


#: Sizes keep the daemon at or below ~0.5 CPU on a 2-vCPU host: past
#: that, a loaded daemon drops indications and raises false detections,
#: and the benchmark would measure the collapse, not the service.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # ~25k indications/s actually sent (more than half of the
        # runnables are silent at any time): the 10k-indication shard
        # queue then rides out a 400 ms stall of the daemon's CPU.  At
        # 50k/s a stalled host overflowed it (7280 indications dropped).
        Workload("hot_ingest", registrations=1, runnables=64,
                 period_s=1 / 925, sender="sdk"),
        # ~11k one-indication frames/s (more than half of the
        # registrations are silent at any time).
        Workload("chatty_ingest", registrations=64, runnables=1,
                 period_s=1 / 350, sender="raw"),
        # ~12k indications/s in 3k frames/s; 1200 runnables to check.
        Workload("wide_fleet", registrations=300, runnables=4,
                 period_s=0.1, sender="raw"),
        # A 100-name churn pool: the first pass creates registrations,
        # the three after it rebind, so REGISTER latency is dominated by
        # one path rather than split between two.
        Workload("durable_restart", registrations=160, runnables=4,
                 period_s=0.1, sender="raw", churn_rate=20.0,
                 churn_pool=100, durable=True),
    )
}


def registration_name(index: int) -> str:
    return f"app{index:03d}"


def runnable_name(index: int) -> str:
    return f"r{index}"


def churn_name(index: int) -> str:
    return f"churn{index:03d}"


def hypothesis_dict(runnables: int) -> Dict[str, object]:
    """The fault hypothesis every registration of a workload submits."""
    hyp = FaultHypothesis()
    for index in range(runnables):
        hyp.add_runnable(RunnableHypothesis(
            runnable_name(index), task=TASK,
            aliveness_period=WINDOW_CYCLES, min_heartbeats=1,
            arrival_period=WINDOW_CYCLES, max_heartbeats=MAX_HEARTBEATS,
        ))
    return hypothesis_to_dict(hyp)


@dataclass(frozen=True)
class Silence:
    """One runnable stops heartbeating over ``[start, end)`` (seconds
    after the start of the measured phase)."""

    registration: int
    runnable: int
    start: float
    end: float


@dataclass
class Schedule:
    """Everything one run sends, derived from (workload, seed, seconds).

    Registration ``i`` heartbeats at ``offsets[i] + k * period_s``; a
    raw registration sends ``frames[i][j]`` while runnable ``j`` is
    silent and ``frames[i][-1]`` otherwise.
    """

    workload: Workload
    seed: int
    seconds: float
    offsets: List[float]
    silences: List[Silence]
    #: ``(due, registration name)`` of each churn op, in order.
    churn: List[Tuple[float, str]]
    frames: List[List[bytes]] = field(default_factory=list)

    def to_bytes(self) -> bytes:
        """Canonical serialization (the determinism contract)."""
        body = {
            "workload": self.workload.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "period_s": self.workload.period_s,
            "offsets": self.offsets,
            "silences": [
                [s.registration, s.runnable, s.start, s.end]
                for s in self.silences
            ],
            "churn": self.churn,
            "frames": [[f.hex() for f in variants] for variants in self.frames],
        }
        return json.dumps(body, sort_keys=True).encode("utf-8")


def _schedule_silences(
    rng: random.Random, workload: Workload, seconds: float
) -> List[Silence]:
    """Spread silences evenly (with seeded jitter) over the usable part
    of the phase, each on a randomly chosen eligible runnable.

    Raw workloads pre-encode one frame variant per silent runnable, so
    at most one runnable of a registration is silent at a time.
    """
    usable = seconds - SILENCE_TAIL_S - SILENCE_FIRST_S
    count = max(0, math.ceil(SILENCE_RATE * usable))
    units = [(reg, run) for reg in range(workload.registrations)
             for run in range(workload.runnables)]
    free_at = [0.0] * len(units)
    reg_free_at = [0.0] * workload.registrations
    one_per_reg = workload.sender == "raw"
    silences: List[Silence] = []
    for index in range(count):
        start = round(
            SILENCE_FIRST_S + (index + rng.random()) * usable / count, 6)
        eligible = [
            u for u, (reg, _) in enumerate(units)
            if free_at[u] <= start
            and not (one_per_reg and reg_free_at[reg] > start)
        ]
        if not eligible:
            continue
        unit = rng.choice(eligible)
        reg, run = units[unit]
        end = round(start + SILENCE_S, 6)
        free_at[unit] = end + COOLDOWN_S
        reg_free_at[reg] = end
        silences.append(Silence(reg, run, start, end))
    return silences


def _schedule_churn(
    rng: random.Random, workload: Workload, seconds: float
) -> List[Tuple[float, str]]:
    """Open-loop churn ops at a fixed rate; each pass over the name pool
    is a fresh seeded permutation (the first pass creates registrations,
    later passes rebind them)."""
    if not workload.churn_rate:
        return []
    count = int(workload.churn_rate * (seconds - SILENCE_FIRST_S))
    names: List[str] = []
    while len(names) < count:
        names.extend(rng.sample(
            [churn_name(i) for i in range(workload.churn_pool)],
            workload.churn_pool,
        ))
    return [
        (round((index + 0.5) / workload.churn_rate, 6), names[index])
        for index in range(count)
    ]


def _encode_frames(workload: Workload) -> List[List[bytes]]:
    """Per registration: one frame per silent-runnable variant, then the
    full frame.  The server stamps ``time`` on receipt (``None``)."""
    frames = []
    for reg in range(workload.registrations):
        name = registration_name(reg)
        live = [runnable_name(j) for j in range(workload.runnables)]

        def frame(runnables: List[str]) -> bytes:
            return encode_frame(
                T_HEARTBEAT, name=name,
                batch=[[r, None, TASK] for r in runnables],
            )

        variants = [frame(live[:j] + live[j + 1:]) for j in range(len(live))]
        variants.append(frame(live))
        frames.append(variants)
    return frames


def build_schedule(workload: Workload, seed: int, seconds: float) -> Schedule:
    """The complete, seeded schedule of one run of ``workload``."""
    rng = random.Random(f"wdbench:{workload.name}:{seed}")
    if workload.sender == "sdk":
        offsets = [0.0] * workload.registrations
    else:
        offsets = [round(rng.random() * workload.period_s, 9)
                   for _ in range(workload.registrations)]
    silences = _schedule_silences(rng, workload, seconds)
    churn = _schedule_churn(rng, workload, seconds)
    frames = _encode_frames(workload) if workload.sender == "raw" else []
    return Schedule(workload, seed, seconds, offsets, silences, churn, frames)
