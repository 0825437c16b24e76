"""Durable state for the supervision daemon — snapshots plus a journal.

A dependability service must itself be dependable (De Florio's
"recovery language" critique): a daemon restart that forgets every
registration turns the watchdog into the least reliable component of
the system it guards.  This module gives ``repro serve`` a crash-safe
memory built from two complementary pieces:

* **point-in-time snapshots** — the full fleet state
  (:meth:`repro.service.fleet.Fleet.snapshot`: registrations, Activation
  Status, HBM/ARC/TSI counter blocks, wheel deadlines, rollup history)
  written atomically (temp file + ``os.replace``) so a crash mid-write
  can never corrupt the previous good snapshot;
* **an append-only journal** of *state-changing* control frames —
  REGISTER, BYE, and activation rebinds.  Heartbeats are deliberately
  not journaled: the hot path stays untouched, and a lost heartbeat is
  exactly a missed heartbeat, which the watchdog detects by design.
  Journal records are ordinary versioned
  :class:`~repro.telemetry.TelemetryEvent` lines (the ``time`` field
  carries the monotonic journal sequence number), so replay reuses the
  crash-truncation-tolerant :func:`repro.telemetry.read_jsonl` — a
  daemon killed mid-append leaves at most one partial trailing line,
  which is silently discarded.

Recovery is ``snapshot + journal``: load the newest snapshot, then
re-apply every journal record with a sequence number beyond it.  After
each successful snapshot the journal is truncated (records the snapshot
already covers are dead weight); sequence numbers stay monotonic across
truncations so a record is never applied twice.

:class:`JournalFollower` is the warm-standby side of the same files: a
second daemon points it at the primary's state directory, adopts new
snapshots and tails new journal records as they appear, and uses the
:meth:`StateStore.primary_alive` lock-file check to decide when the
primary died and promotion is due.
"""

from __future__ import annotations

import json
import os
import time as _time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..telemetry import JsonlFileSink, TelemetryEvent, read_jsonl

__all__ = [
    "JOURNAL_ACTIVATION",
    "JOURNAL_BYE",
    "JOURNAL_REGISTER",
    "JournalFollower",
    "RestoredState",
    "SNAPSHOT_SCHEMA_VERSION",
    "StateStore",
]

#: Version stamped into every snapshot; bump on incompatible changes.
#: Schema 2 holds one registration table; schema 1 held one per shard.
SNAPSHOT_SCHEMA_VERSION = 2
#: Snapshot schemas a daemon restores (:meth:`Fleet.restore` merges a
#: schema-1 capture's shards).
_READABLE_SCHEMAS = (1, SNAPSHOT_SCHEMA_VERSION)

#: Journal record kinds (the state-changing control-plane frames).
JOURNAL_REGISTER = "journal.register"
JOURNAL_BYE = "journal.bye"
JOURNAL_ACTIVATION = "journal.activation"

_SNAPSHOT_FILE = "snapshot.json"
_SNAPSHOT_TMP = "snapshot.json.tmp"
_JOURNAL_FILE = "journal.jsonl"
_LOCK_FILE = "primary.json"
_LOCK_TMP = "primary.json.tmp"

#: A lock advertising a refresh cadence that has not been re-stamped
#: for this many intervals is stale regardless of PID liveness — the OS
#: may have recycled the dead primary's PID for an unrelated process.
_LOCK_STALE_REFRESHES = 4.0


@dataclass
class RestoredState:
    """What :meth:`StateStore.load` found on disk.

    ``snapshot`` is the newest snapshot payload (``None`` when the
    daemon never snapshotted), ``entries`` the journal records *beyond*
    it, in sequence order — apply the snapshot first, then the entries.
    """

    snapshot: Optional[Dict[str, Any]] = None
    entries: List[TelemetryEvent] = field(default_factory=list)
    #: Highest sequence number seen on disk (snapshot or journal).
    seq: int = 0

    @property
    def empty(self) -> bool:
        return self.snapshot is None and not self.entries


class StateStore:
    """Snapshot + journal management for one state directory."""

    def __init__(self, state_dir: str, *, fsync: bool = False) -> None:
        self.state_dir = str(state_dir)
        os.makedirs(self.state_dir, exist_ok=True)
        self.fsync = fsync
        self.snapshot_path = os.path.join(self.state_dir, _SNAPSHOT_FILE)
        self.journal_path = os.path.join(self.state_dir, _JOURNAL_FILE)
        self.lock_path = os.path.join(self.state_dir, _LOCK_FILE)
        #: Last journal sequence number written (monotonic across
        #: snapshots and daemon restarts).
        self.seq = 0
        self.snapshots_written = 0
        self.entries_appended = 0
        self._journal: Optional[JsonlFileSink] = None
        self._lock_payload: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    # recovery side
    # ------------------------------------------------------------------
    def load(self) -> RestoredState:
        """Read the newest snapshot and the journal tail beyond it.

        Also advances :attr:`seq` past everything on disk, so records
        appended after a restore continue the sequence.
        """
        snapshot: Optional[Dict[str, Any]] = None
        snap_seq = 0
        if os.path.exists(self.snapshot_path):
            with open(self.snapshot_path, "r", encoding="utf-8") as handle:
                snapshot = json.load(handle)
            schema = snapshot.get("schema")
            if schema not in _READABLE_SCHEMAS:
                raise ValueError(
                    f"unsupported snapshot schema {schema!r} in "
                    f"{self.snapshot_path}"
                )
            snap_seq = int(snapshot.get("seq", 0))
        entries: List[TelemetryEvent] = []
        if os.path.exists(self.journal_path):
            with open(self.journal_path, "r", encoding="utf-8") as handle:
                events = read_jsonl(handle)
            entries = [event for event in events if event.time > snap_seq]
            entries.sort(key=lambda event: event.time)
        self.seq = max(
            snap_seq, max((event.time for event in entries), default=0),
            self.seq,
        )
        return RestoredState(snapshot=snapshot, entries=entries, seq=self.seq)

    # ------------------------------------------------------------------
    # journal side
    # ------------------------------------------------------------------
    def append(self, kind: str, subject: str, **data: Any) -> TelemetryEvent:
        """Durably append one journal record; returns the written event.

        Every append is flushed immediately (the journal is the crash
        memory — a buffered record is a forgotten registration); with
        ``fsync=True`` it is also forced to stable storage.
        """
        self.seq += 1
        event = TelemetryEvent(
            time=self.seq, kind=kind, subject=subject, data=dict(data)
        )
        if self._journal is None:
            self._journal = JsonlFileSink(
                self.journal_path, mode="a", fsync=self.fsync
            )
        self._journal.emit(event)
        self._journal.flush()
        self.entries_appended += 1
        return event

    # ------------------------------------------------------------------
    # snapshot side
    # ------------------------------------------------------------------
    def write_snapshot(self, fleet_state: Dict[str, Any],
                       **extra: Any) -> Dict[str, Any]:
        """Atomically write a point-in-time snapshot, then truncate the
        journal (records the snapshot covers are dead weight).

        A crash between the two steps is safe: the snapshot carries the
        sequence number it covers, and recovery skips journal records at
        or below it.

        This is the synchronous composition of the three phases below;
        an event-loop caller captures the payload on-loop with
        :meth:`build_snapshot_payload`, offloads the blocking
        :meth:`write_snapshot_payload` to a thread, then truncates with
        :meth:`truncate_journal_through` back on-loop.
        """
        payload = self.build_snapshot_payload(fleet_state, **extra)
        self.write_snapshot_payload(payload)
        self.truncate_journal_through(int(payload["seq"]))
        return payload

    def build_snapshot_payload(self, fleet_state: Dict[str, Any],
                               **extra: Any) -> Dict[str, Any]:
        """Capture the snapshot payload (cheap, in-memory): the fleet
        state plus the sequence number this snapshot covers."""
        payload: Dict[str, Any] = {
            "schema": SNAPSHOT_SCHEMA_VERSION,
            "seq": self.seq,
            "written_unix": _time.time(),
            "fleet": fleet_state,
        }
        payload.update(extra)
        return payload

    def write_snapshot_payload(self, payload: Dict[str, Any]) -> None:
        """The blocking half: serialize to a temp file, fsync, and
        atomically rename over the previous snapshot (a crash mid-write
        can never corrupt the last good one); with ``fsync=True`` the
        directory is fsynced too, so the rename itself is durable.
        Thread-safe with respect to concurrent :meth:`append` calls — it
        touches only the snapshot files.

        The file is byte-identical to ``json.dumps(payload,
        sort_keys=True)``, written as one C-encoded fragment per
        registration (:func:`_snapshot_fragments`): ``json.dump`` would
        run the pure-Python encoder, several times slower, holding the
        GIL against the event loop the whole time."""
        tmp_path = os.path.join(self.state_dir, _SNAPSHOT_TMP)
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.writelines(_snapshot_fragments(payload))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.snapshot_path)
        if self.fsync:
            self._fsync_dir()
        self.snapshots_written += 1

    def truncate_journal_through(self, covered_seq: int) -> None:
        """Drop journal records at or below ``covered_seq``, keeping any
        appended after the snapshot payload was captured (they happened
        while an off-loop write was in flight and are NOT covered).

        An empty journal file (rather than an absent one) keeps the
        follower's bookkeeping simple: the path always exists once the
        store has been written to.
        """
        survivors: List[TelemetryEvent] = []
        if os.path.exists(self.journal_path):
            with open(self.journal_path, "r", encoding="utf-8") as handle:
                events = read_jsonl(handle)
            survivors = [e for e in events if e.time > covered_seq]
        if self._journal is not None:
            self._journal.close()
            self._journal = None
        with open(self.journal_path, "w", encoding="utf-8"):
            pass
        if survivors:
            self._journal = JsonlFileSink(
                self.journal_path, mode="a", fsync=self.fsync
            )
            for event in survivors:
                self._journal.emit(event)
            self._journal.flush()
        if self.fsync:
            self._fsync_dir()

    def _fsync_dir(self) -> None:
        """Force the state directory's entries (a rename, a re-created
        file) to stable storage; a file fsync alone does not."""
        fd = os.open(self.state_dir, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # ------------------------------------------------------------------
    # primary liveness lock
    # ------------------------------------------------------------------
    def write_lock(self, **info: Any) -> None:
        """Advertise this process as the live primary of the state dir.

        Pass ``refresh_interval=<seconds>`` and call :meth:`refresh_lock`
        on that cadence to let a standby distinguish a live primary from
        a dead one whose PID the OS recycled for an unrelated process.
        """
        payload = {"pid": os.getpid(), "written_unix": _time.time()}
        payload.update(info)
        self._lock_payload = payload
        self._write_lock_payload()

    def refresh_lock(self) -> None:
        """Re-stamp the advertisement's timestamp (the primary's
        periodic heartbeat on its own lock).  A no-op before
        :meth:`write_lock`."""
        if self._lock_payload is None:
            return
        self._lock_payload["written_unix"] = _time.time()
        self._write_lock_payload()

    def _write_lock_payload(self) -> None:
        # Temp file + rename: a standby polling the lock concurrently
        # must never catch a torn write — a transiently unreadable lock
        # reads as "no primary", which after seen_alive would promote a
        # standby against a perfectly healthy primary (split brain).
        tmp_path = os.path.join(self.state_dir, _LOCK_TMP)
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(self._lock_payload, handle)
        os.replace(tmp_path, self.lock_path)

    def read_lock(self) -> Optional[Dict[str, Any]]:
        """The current lock payload, or ``None`` (absent / unreadable —
        a half-written lock reads as "no primary", which is safe: the
        standby also requires the liveness probe to fail)."""
        try:
            with open(self.lock_path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    def clear_lock(self) -> None:
        """Remove the primary advertisement (clean shutdown)."""
        try:
            os.unlink(self.lock_path)
        except OSError:
            pass

    def primary_alive(self) -> Optional[bool]:
        """Probe the advertised primary: ``True`` if it is alive,
        ``False`` if it is provably dead (stale lock after a kill -9),
        ``None`` when no primary is advertised at all.

        A lock advertising a ``refresh_interval`` that has not been
        re-stamped for :data:`_LOCK_STALE_REFRESHES` intervals is dead
        regardless of PID liveness: PID recycling can hand the dead
        primary's number to an unrelated process, and without the
        timestamp check the standby would wait on that impostor forever.
        """
        lock = self.read_lock()
        if lock is None:
            return None
        refresh = lock.get("refresh_interval")
        if isinstance(refresh, (int, float)) and refresh > 0:
            written = lock.get("written_unix")
            if (not isinstance(written, (int, float))
                    or _time.time() - written
                    > refresh * _LOCK_STALE_REFRESHES):
                return False
        pid = lock.get("pid")
        if not isinstance(pid, int) or pid <= 0:
            return False
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:  # pragma: no cover - alive, other user
            return True
        except OSError:
            return False
        return True

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    def __enter__(self) -> "StateStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


#: Where :func:`_snapshot_fragments` splits the payload: down to the
#: registration list, whose items are encoded whole.
_FRAGMENT_PATH = ("fleet", "registrations", None)


def _snapshot_fragments(value: Any, path: Tuple = _FRAGMENT_PATH):
    """Yield ``json.dumps(value, sort_keys=True)`` in pieces.

    Containers on ``path`` (a key, or ``None`` for every list item) are
    opened and closed here; everything else — each registration, and the
    small siblings along the way — goes through one ``json.dumps`` call,
    the C encoder.  Joined, the pieces equal the one-shot encoding byte
    for byte, while only one registration's text is in memory at a time.
    """
    if not path or not isinstance(value, (dict, list)):
        yield json.dumps(value, sort_keys=True)
        return
    step, rest = path[0], path[1:]
    if isinstance(value, list):
        yield "["
        for index, item in enumerate(value):
            if index:
                yield ", "
            yield from _snapshot_fragments(
                item, rest if step is None else ())
        yield "]"
        return
    yield "{"
    for index, key in enumerate(sorted(value)):
        yield (", " if index else "") + json.dumps(key) + ": "
        yield from _snapshot_fragments(
            value[key], rest if key == step else ())
    yield "}"


class JournalFollower:
    """Incrementally track a primary's state directory (warm standby).

    Each :meth:`poll` returns what changed since the last one:

    * a new snapshot payload when the primary wrote one (adopt it —
      it contains counter state the journal never carries), and
    * the journal records beyond everything already returned, in
      sequence order.

    File reads are guarded by ``stat`` signatures, so an idle primary
    costs the follower two ``stat`` calls per poll.  Journal truncation
    (the primary snapshotting) is handled by sequence numbers alone:
    records at or below :attr:`applied_seq` are never returned again.
    """

    def __init__(self, store: StateStore) -> None:
        self.store = store
        self.applied_seq = 0
        self.snapshots_adopted = 0
        self.entries_returned = 0
        self._snap_sig: Optional[Tuple[int, int]] = None
        self._journal_sig: Optional[Tuple[int, int]] = None

    @staticmethod
    def _signature(path: str) -> Optional[Tuple[int, int]]:
        try:
            stat = os.stat(path)
        except OSError:
            return None
        return (stat.st_mtime_ns, stat.st_size)

    def prime(self, applied_seq: int) -> None:
        """Mark everything currently on disk as already applied (the
        caller restored it through :meth:`StateStore.load`), so the
        first poll only returns genuinely new changes."""
        self.applied_seq = applied_seq
        self._snap_sig = self._signature(self.store.snapshot_path)
        self._journal_sig = self._signature(self.store.journal_path)

    def poll(self) -> Tuple[Optional[Dict[str, Any]], List[TelemetryEvent]]:
        """One follower step; see the class docstring for the contract."""
        snapshot: Optional[Dict[str, Any]] = None
        snap_sig = self._signature(self.store.snapshot_path)
        if snap_sig is not None and snap_sig != self._snap_sig:
            self._snap_sig = snap_sig
            try:
                with open(self.store.snapshot_path, "r",
                          encoding="utf-8") as handle:
                    candidate = json.load(handle)
            except (OSError, ValueError):
                # Mid-replace race or torn read; the next poll sees the
                # settled file (os.replace makes corruption transient).
                candidate = None
                self._snap_sig = None
            # >= rather than >: a snapshot at the already-applied seq
            # still supersedes journal-derived state (it carries the
            # counter blocks the journal never does), and the signature
            # guard already prevents re-reading an unchanged file.
            if (candidate is not None
                    and candidate.get("schema") in _READABLE_SCHEMAS
                    and int(candidate.get("seq", 0)) >= self.applied_seq):
                snapshot = candidate
                self.applied_seq = int(candidate.get("seq", 0))
                self.snapshots_adopted += 1
        entries: List[TelemetryEvent] = []
        journal_sig = self._signature(self.store.journal_path)
        if journal_sig is not None and journal_sig != self._journal_sig:
            self._journal_sig = journal_sig
            try:
                with open(self.store.journal_path, "r",
                          encoding="utf-8") as handle:
                    events = read_jsonl(handle)
            except (OSError, ValueError):
                events = []
            entries = [e for e in events if e.time > self.applied_seq]
            entries.sort(key=lambda event: event.time)
            if entries:
                self.applied_seq = entries[-1].time
                self.entries_returned += len(entries)
        return snapshot, entries
