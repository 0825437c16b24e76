"""Durable state for the supervision daemon — snapshots plus a journal.

A dependability service must itself be dependable (De Florio's
"recovery language" critique): a daemon restart that forgets every
registration turns the watchdog into the least reliable component of
the system it guards.  This module gives ``repro serve`` a crash-safe
memory built from two complementary pieces:

* **point-in-time snapshots** — the full fleet state
  (:meth:`repro.service.fleet.Fleet.snapshot`: registrations, Activation
  Status, HBM/ARC/TSI counter blocks, wheel deadlines, fleet state)
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

**One server per state directory**: the one that writes it holds an
exclusive ``flock`` on ``primary.lock`` (:meth:`StateStore.take_primary`).
The kernel frees it when the holder exits, ``kill -9`` included, after
its last write, and never while it is only paused, so a second server
cannot start on the directory of a live one, however long it is
stopped.  A ``flock`` is local to one host.  A server reads nothing
here until it holds the lock; then it recovers the directory
(:meth:`StateStore.load`).
"""

from __future__ import annotations

import fcntl
import itertools
import json
import os
import time as _time
from typing import IO, Any, Dict, Iterable, List, Optional, Tuple

from ..telemetry import TelemetryEvent, read_jsonl

__all__ = [
    "FileIO",
    "JOURNAL_ACTIVATION",
    "JOURNAL_BYE",
    "JOURNAL_REGISTER",
    "RestoredState",
    "SNAPSHOT_SCHEMA_VERSION",
    "SnapshotWriter",
    "StateDirHeld",
    "StateStore",
]

#: Version stamped into every snapshot; bump on incompatible changes.
#: Schema 5 drops the fleet's state-change history (``state_changes``);
#: schema 4 drops four derived tallies and the configured runnable-to-
#: task map from each record; schema 3 drops the HBM's period bases
#: and CCA/CCAR lists (derived from the deadlines); schema 2 holds one
#: registration table; schema 1 held one per shard.
SNAPSHOT_SCHEMA_VERSION = 5
#: Snapshot schemas a daemon restores (:meth:`Fleet.restore` merges a
#: schema-1 capture's shards; restore reads only keys all of them hold).
_READABLE_SCHEMAS = (1, 2, 3, 4, SNAPSHOT_SCHEMA_VERSION)

#: Journal record kinds (the state-changing control-plane frames).
JOURNAL_REGISTER = "journal.register"
JOURNAL_BYE = "journal.bye"
JOURNAL_ACTIVATION = "journal.activation"

_SNAPSHOT_FILE = "snapshot.json"
_SNAPSHOT_TMP = "snapshot.json.tmp"
_JOURNAL_FILE = "journal.jsonl"
_JOURNAL_TMP = "journal.jsonl.tmp"
_LOCK_FILE = "primary.lock"


class StateDirHeld(RuntimeError):
    """Another server holds the state directory's primary lock."""


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


class RestoredState:
    """What :meth:`StateStore.load` found on disk.

    ``snapshot`` is the newest snapshot payload (``None`` when the
    daemon never snapshotted), ``entries`` the journal records *beyond*
    it, in sequence order — apply the snapshot first, then the entries.
    """

    __slots__ = ("snapshot", "entries")

    def __init__(self, snapshot: Optional[Dict[str, Any]] = None,
                 entries: Optional[List[TelemetryEvent]] = None) -> None:
        self.snapshot = snapshot
        self.entries = [] if entries is None else entries


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
        #: The journal opened for appending.
        self._journal: Optional[IO[str]] = None
        #: The descriptor holding the primary lock, once taken.
        self._lock_fd: Optional[int] = None

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
        return RestoredState(snapshot=snapshot, entries=entries)

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
        a record the snapshot lacks.  The journal file is left empty
        rather than absent, so the path exists once the store has been
        written to.
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
    # the primary lock
    # ------------------------------------------------------------------
    def take_primary(self) -> bool:
        """Take the exclusive ``flock`` on ``primary.lock`` until
        :meth:`close`; False while another open file description holds
        it.  The file is never unlinked: a waiter would lock an inode
        the next server no longer sees."""
        if self._lock_fd is not None:
            return True
        fd = os.open(self.lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            self._lock_fd, fd = fd, None
        except BlockingIOError:
            return False
        finally:
            if fd is not None:
                os.close(fd)
        return True

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the journal and release the primary lock, if held."""
        self._close_journal()
        fd, self._lock_fd = self._lock_fd, None
        if fd is not None:
            os.close(fd)

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
