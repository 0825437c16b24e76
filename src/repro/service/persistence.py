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
  which is silently discarded, and cut off before the next append.

Recovery is ``snapshot + journal``: load the newest snapshot, then
re-apply every journal record with a sequence number beyond it.  After
each successful snapshot the journal is truncated (records the snapshot
already covers are dead weight); sequence numbers stay monotonic across
truncations so a record is never applied twice.

**Streaming snapshots and their cut.**  A snapshot is never built as
one tree.  :meth:`StateStore.open_snapshot` fixes the journal ``seq``,
the registration list, the tick count and the fleet's rollup state, and
writes everything but the registrations to the temp file; the
:class:`SnapshotWriter` then encodes one registration record at a time,
each whole, and the daemon yields to its event loop between slices of
records.  Only ``fsync``, close and the rename
(:meth:`StateStore.write_snapshot_payload`) run in a worker thread.  A
record may therefore reflect control frames applied after the snapshot
started, but every such frame was journaled with a ``seq`` beyond the
snapshot's, survives the truncation and is replayed on restore, and
replaying it onto a record that already shows it changes nothing:

* a REGISTER journaled after the start names a registration that was
  not in the fixed list, so the file lacks it and the replay adds it;
* a BYE or a rebind sets each runnable's Activation Status, and
  :meth:`~repro.core.watchdog.SoftwareWatchdog.set_activation_status`
  is a no-op when the status does not change.

The synchronous :meth:`StateStore.write_snapshot` (a clean shutdown,
tests) runs the same writer without yielding.  A snapshot that fails or
is cancelled before its rename closes and unlinks the temp file and
leaves the journal alone.

Every file-system call behind a journal append, a snapshot and a
journal truncation goes through one seam, :attr:`StateStore.io` (a
:class:`FileIO`), so tests can fail any one of them.

:class:`JournalFollower` is the warm-standby side of the same files: a
second daemon points it at the primary's state directory, adopts new
snapshots and tails new journal records as they appear, and uses the
:meth:`StateStore.primary_alive` lock-file check to decide when the
primary died and promotion is due.
"""

from __future__ import annotations

import itertools
import json
import os
import time as _time
from dataclasses import dataclass, field
from typing import IO, Any, Dict, Iterable, List, Optional, Tuple

from ..telemetry import TelemetryEvent, read_jsonl

__all__ = [
    "FileIO",
    "JOURNAL_ACTIVATION",
    "JOURNAL_BYE",
    "JOURNAL_REGISTER",
    "JournalFollower",
    "RestoredState",
    "SNAPSHOT_SCHEMA_VERSION",
    "SnapshotWriter",
    "StateStore",
]

#: Version stamped into every snapshot; bump on incompatible changes.
#: Schema 4 drops four derived tallies and the configured runnable-to-
#: task map from each record; schema 3 drops the HBM's period bases
#: and CCA/CCAR lists (derived from the deadlines); schema 2 holds one
#: registration table; schema 1 held one per shard.
SNAPSHOT_SCHEMA_VERSION = 4
#: Snapshot schemas a daemon restores (:meth:`Fleet.restore` merges a
#: schema-1 capture's shards; restore reads only keys all of them hold).
_READABLE_SCHEMAS = (1, 2, 3, SNAPSHOT_SCHEMA_VERSION)

#: Journal record kinds (the state-changing control-plane frames).
JOURNAL_REGISTER = "journal.register"
JOURNAL_BYE = "journal.bye"
JOURNAL_ACTIVATION = "journal.activation"

_SNAPSHOT_FILE = "snapshot.json"
_SNAPSHOT_TMP = "snapshot.json.tmp"
_JOURNAL_FILE = "journal.jsonl"
_JOURNAL_TMP = "journal.jsonl.tmp"
_LOCK_FILE = "primary.json"
_LOCK_TMP = "primary.json.tmp"

#: A lock advertising a refresh cadence that has not been re-stamped
#: for this many intervals is stale regardless of PID liveness — the OS
#: may have recycled the dead primary's PID for an unrelated process.
_LOCK_STALE_REFRESHES = 4.0


class FileIO:
    """The file-system calls behind a journal append, a snapshot and a
    journal truncation.

    One seam: a test swaps :attr:`StateStore.io` for a subclass that
    fails any call, and checks what the state directory looks like
    after each one.
    """

    def open(self, path: str, mode: str) -> IO[str]:
        return open(path, mode, encoding="utf-8")

    def write(self, handle: IO[str], text: str) -> None:
        handle.write(text)

    def flush(self, handle: IO[str]) -> None:
        """Hand buffered text to the OS (survives a process crash)."""
        handle.flush()

    def truncate(self, path: str, size: int) -> None:
        os.truncate(path, size)

    def fsync(self, handle: IO[str]) -> None:
        handle.flush()
        os.fsync(handle.fileno())

    def close(self, handle: IO[str]) -> None:
        handle.close()

    def replace(self, source: str, target: str) -> None:
        os.replace(source, target)

    def unlink(self, path: str) -> None:
        os.unlink(path)

    def fsync_dir(self, path: str) -> None:
        """Force a directory's entries (a rename) to stable storage; a
        file fsync alone does not."""
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


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
        #: The file-system seam for the journal and the snapshots.
        self.io = FileIO()
        #: Last journal sequence number written (monotonic across
        #: snapshots and daemon restarts).
        self.seq = 0
        self.snapshots_written = 0
        self.entries_appended = 0
        #: The journal opened for appending.
        self._journal: Optional[IO[str]] = None
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
        ``fsync=True`` it is also forced to stable storage.  A failed
        call raises its ``OSError`` (the caller must not acknowledge the
        frame) and cuts the journal back to its length before the record.
        """
        self.seq += 1
        event = TelemetryEvent(
            time=self.seq, kind=kind, subject=subject, data=dict(data)
        )
        io = self.io
        length: Optional[int] = None
        try:
            if self._journal is None:
                self._cut_torn_line()
                self._journal = io.open(self.journal_path, "a")
            length = os.fstat(self._journal.fileno()).st_size
            io.write(self._journal, event.to_jsonl() + "\n")
            if self.fsync:
                io.fsync(self._journal)
            else:
                io.flush(self._journal)
        except BaseException:
            self._close_journal()
            if length is not None:
                try:
                    io.truncate(self.journal_path, length)
                except OSError:
                    pass
            raise
        self.entries_appended += 1
        return event

    def _cut_torn_line(self) -> None:
        """Cut off the partial last line a crash mid-append leaves (and
        :meth:`load` skips): the next record would extend it into one
        malformed line."""
        try:
            with open(self.journal_path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return
        whole = data.rfind(b"\n") + 1
        if whole < len(data):
            self.io.truncate(self.journal_path, whole)

    def _close_journal(self) -> None:
        """Close the append handle, if open, ignoring a failing close."""
        handle, self._journal = self._journal, None
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # snapshot side
    # ------------------------------------------------------------------
    def write_snapshot(self, fleet_state: Dict[str, Any],
                       **extra: Any) -> Dict[str, Any]:
        """Atomically write a point-in-time snapshot, then truncate the
        journal (records the snapshot covers are dead weight); returns
        the payload written.

        A crash between the two steps is safe: the snapshot carries the
        sequence number it covers, and recovery skips journal records at
        or below it.

        This is the synchronous composition of the three steps below;
        the daemon's periodic snapshot streams the records in slices
        on its event loop (:meth:`open_snapshot`), commits in a worker
        thread (:meth:`write_snapshot_payload`), then truncates with
        :meth:`truncate_journal_through` back on-loop.
        """
        state = dict(fleet_state)
        records = state.pop("registrations")
        snapshot = self.open_snapshot(state, records, **extra)
        snapshot.write()
        self.write_snapshot_payload(snapshot)
        self.truncate_journal_through(snapshot.seq)
        return dict(snapshot.header, fleet=fleet_state)

    def open_snapshot(self, fleet_state: Dict[str, Any],
                      records: Iterable[Dict[str, Any]],
                      /, **extra: Any) -> "SnapshotWriter":
        """Start a snapshot covering the journal up to :attr:`seq`.

        ``fleet_state`` is the fleet state without its registration
        list; ``records`` yields that list's items, which the returned
        writer encodes as they are asked for.  Everything else is
        encoded now."""
        header: Dict[str, Any] = {
            "schema": SNAPSHOT_SCHEMA_VERSION,
            "seq": self.seq,
            "written_unix": _time.time(),
        }
        header.update(extra)
        outer_head, outer_tail = _split_around(header, "fleet")
        fleet_head, fleet_tail = _split_around(fleet_state, "registrations")
        return SnapshotWriter(
            self, header, outer_head + fleet_head + "[", records,
            "]" + fleet_tail + outer_tail)

    def write_snapshot_payload(self, snapshot: "SnapshotWriter") -> None:
        """The blocking half: fsync and close a fully written snapshot's
        temp file, then atomically rename it over the previous snapshot
        (a crash mid-write can never corrupt the last good one); with
        ``fsync=True`` the directory is fsynced too, so the rename
        itself is durable.  Thread-safe with respect to concurrent
        :meth:`append` calls — it touches only the snapshot files.

        A failure before the rename unlinks the temp file."""
        if not snapshot.done:
            raise ValueError("the snapshot has records left to write")
        io = self.io
        try:
            io.fsync(snapshot.handle)
            io.close(snapshot.handle)
            io.replace(snapshot.path, self.snapshot_path)
        except BaseException:
            snapshot.abort()
            raise
        if self.fsync:
            io.fsync_dir(self.state_dir)
        self.snapshots_written += 1

    def truncate_journal_through(self, covered_seq: int) -> None:
        """Drop journal records at or below ``covered_seq``, keeping any
        appended after the snapshot started (it does NOT cover them).

        The survivors go to a temp journal that replaces the old one
        atomically, so a crash or a failed write at any point leaves
        either the old journal or the new one, never a journal missing
        a record the snapshot lacks.  An empty journal file (rather
        than an absent one) keeps the follower's bookkeeping simple: the
        path always exists once the store has been written to.
        """
        io = self.io
        # The next append reopens the journal: this one is replaced.
        self._close_journal()
        survivors: List[TelemetryEvent] = []
        if os.path.exists(self.journal_path):
            handle = io.open(self.journal_path, "r")
            try:
                events = read_jsonl(handle)
            finally:
                io.close(handle)
            survivors = [e for e in events if e.time > covered_seq]
        tmp_path = os.path.join(self.state_dir, _JOURNAL_TMP)
        handle = io.open(tmp_path, "w")
        try:
            for event in survivors:
                io.write(handle, event.to_jsonl() + "\n")
            if self.fsync:
                io.fsync(handle)
            io.close(handle)
            io.replace(tmp_path, self.journal_path)
        except BaseException:
            _discard(io, handle, tmp_path)
            raise
        if self.fsync:
            io.fsync_dir(self.state_dir)

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
        self._close_journal()

    def __enter__(self) -> "StateStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class SnapshotWriter:
    """One snapshot streaming into the state directory's temp file.

    :meth:`StateStore.open_snapshot` writes the head; each
    :meth:`write` encodes the next registration records, each with one
    ``json.dumps`` call (the C encoder), and the last one writes the
    tail.  The file is byte-identical to ``json.dumps(payload,
    sort_keys=True)`` of the whole payload, while only one record is in
    memory at a time.  :meth:`StateStore.write_snapshot_payload`
    commits it; :meth:`abort` discards it.
    """

    def __init__(self, store: StateStore, header: Dict[str, Any],
                 head: str, records: Iterable[Dict[str, Any]],
                 tail: str) -> None:
        self.store = store
        #: The payload's top-level fields besides ``fleet``.
        self.header = header
        #: The journal sequence number this snapshot covers.
        self.seq: int = header["seq"]
        self.path = os.path.join(store.state_dir, _SNAPSHOT_TMP)
        #: True once every record and the tail are written.
        self.done = False
        self._records = iter(records)
        self._tail = tail
        self._separator = ""
        self.handle = store.io.open(self.path, "w")
        try:
            store.io.write(self.handle, head)
        except BaseException:
            self.abort()
            raise

    def write(self, limit: Optional[int] = None) -> bool:
        """Encode and write up to ``limit`` more records (every one
        left when ``None``); returns :attr:`done`.  A record that fails
        to build or write discards the snapshot."""
        io, handle, dumps = self.store.io, self.handle, json.dumps
        written = 0
        try:
            for record in itertools.islice(self._records, limit):
                io.write(handle,
                         self._separator + dumps(record, sort_keys=True))
                self._separator = ", "
                written += 1
            if limit is None or written < limit:
                io.write(handle, self._tail)
                self.done = True
        except BaseException:
            self.abort()
            raise
        return self.done

    def abort(self) -> None:
        """Close and unlink the temp file; never renamed.  Idempotent."""
        _discard(self.store.io, self.handle, self.path)


def _discard(io: FileIO, handle: IO[str], path: str) -> None:
    """Close ``handle`` and unlink ``path``, ignoring failures: the
    caller is already unwinding from an error or a cancellation."""
    try:
        io.close(handle)
    except OSError:
        pass
    try:
        io.unlink(path)
    except OSError:
        pass


def _split_around(mapping: Dict[str, Any], key: str) -> Tuple[str, str]:
    """The text of ``json.dumps({**mapping, key: VALUE},
    sort_keys=True)`` before and after ``VALUE``.  ``mapping`` must not
    hold ``key``."""
    before = {k: v for k, v in mapping.items() if k < key}
    after = {k: v for k, v in mapping.items() if k > key}
    head = "{"
    if before:
        head += json.dumps(before, sort_keys=True)[1:-1] + ", "
    tail = "}"
    if after:
        tail = ", " + json.dumps(after, sort_keys=True)[1:-1] + "}"
    return head + json.dumps(key) + ": ", tail


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
