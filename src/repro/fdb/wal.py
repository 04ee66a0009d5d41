"""Write-ahead logging and recovery.

Base functions are "extensionally stored" (Section 1); a database that
loses or corrupts its extension on a crash is not stored at all. This
module adds the classic durability pair on top of
:mod:`repro.fdb.persistence` snapshots:

* :class:`UpdateLog` — an append-only JSON-lines file of updates.
  :class:`LoggedDatabase` wraps a database so every update is logged
  *before* it is applied (write-ahead order); update application is
  deterministic (null and NC indices come from persisted counters), so
  replaying the log over the last snapshot reproduces the state
  exactly — partial information included.

* :func:`checkpoint` / :func:`recover` — fold the log into a durable
  snapshot; rebuild a database from snapshot + log after a crash.

**Record format (v2).** Each line is one JSON object::

    {"v": 2, "seq": 7, "crc": 2893417301, "entry": {...}}

``crc`` is the CRC32 of the canonical encoding of everything but ``v``
and ``crc`` themselves, so a record that was *mutated but still
parses* is detected instead of silently replayed; ``seq`` numbers are
strictly increasing and survive checkpoints (the truncated log keeps a
header record carrying the next sequence number). Besides ``entry``
records there are ``abort_of`` records — compensation for an update
that was durably logged but failed to apply — and the ``header``
record. A line without ``v`` / ``seq`` / ``crc`` is damage like any
other unverifiable line: nothing unchecksummed is ever replayed.

**Crash consistency.** Appends go through
:func:`repro.fdb.storage.append_line` on the log's held-open descriptor
(one write + one fsync before the append is acknowledged) and
snapshots through
:func:`repro.fdb.storage.atomic_write` (temp file + fsync + atomic
rename + directory fsync). :func:`checkpoint` writes the snapshot
durably *first* — stamped with the highest folded sequence number —
and only then truncates the log via an atomic rename; a crash between
the two leaves both files intact, and :func:`recover` skips records
the snapshot already contains by sequence number instead of replaying
them twice.

**Recovery policies.** ``recover(..., policy="strict")`` raises on any
interior damage (checksum mismatch, unparseable interior line,
sequence gap); ``policy="salvage"`` skips damaged records, keeps
going, and itemises everything it skipped in the returned
:class:`RecoveryReport`. A torn *final* line — the classic mid-write
crash — is skipped under both policies, because an unacknowledged
append never committed.

Named fault points (see :mod:`repro.faults`) are threaded through the
append, apply, abort and checkpoint steps; the crash-matrix harness in
:mod:`repro.faults.harness` kills the process at every one of them and
asserts recovery reproduces exactly the committed prefix.
"""

from __future__ import annotations

import json
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from repro import cancel
from repro.errors import PersistenceError, StructureError
from repro.faults.registry import FAULTS
from repro.fdb import persistence, storage
from repro.fdb.database import FunctionalDatabase
from repro.fdb.persistence import _decode_value, _encode_value
from repro.fdb.transaction import Transaction
from repro.fdb.updates import Update, UpdateSequence, apply_entry
from repro.obs.hooks import OBS
from repro.report import Report

__all__ = ["UpdateLog", "LoggedDatabase", "checkpoint", "recover",
           "RecoveryReport", "Frame", "FrameError", "decode_frame",
           "committed", "LogProblem", "WAL_VERSION", "encode_entry",
           "decode_entry"]

WAL_VERSION = 2

# A failed record write is retried this many times, sleeping
# APPEND_BACKOFF * 2**n seconds before retry n (0-based).
APPEND_RETRIES = 3
APPEND_BACKOFF = 0.005


FAULTS.register(
    "wal.append.before",
    "UpdateLog.append: before the record write (retry site for "
    "transient I/O errors)",
)
FAULTS.register(
    "wal.append.after",
    "UpdateLog.append: record durable, update not yet applied",
    durable=True,
)
FAULTS.register(
    "wal.apply.before",
    "LoggedDatabase.committing: record durable, about to apply in "
    "memory",
    durable=True,
)
FAULTS.register(
    "wal.abort.append",
    "LoggedDatabase.committing: apply failed, compensating abort "
    "record not yet written",
    durable=True,
)
FAULTS.register(
    "wal.checkpoint.before-snapshot",
    "checkpoint: before the snapshot write (fires with ``log=``, "
    "every record still in it)",
)
FAULTS.register(
    "wal.checkpoint.after-snapshot",
    "checkpoint: snapshot durable, log not yet truncated",
)
FAULTS.register(
    "wal.checkpoint.after-truncate",
    "checkpoint: snapshot durable and log truncated",
)


# -- entry encoding -----------------------------------------------------------


def _encode_update(update: Update) -> dict:
    entry = {
        "kind": update.kind,
        "function": update.function,
        "pair": [_encode_value(update.pair[0]),
                 _encode_value(update.pair[1])],
    }
    if update.new_pair is not None:
        entry["new_pair"] = [
            _encode_value(update.new_pair[0]),
            _encode_value(update.new_pair[1]),
        ]
    return entry


def _decode_update(entry: dict) -> Update:
    pair = tuple(_decode_value(item) for item in entry["pair"])
    new_pair = None
    if "new_pair" in entry:
        new_pair = tuple(
            _decode_value(item) for item in entry["new_pair"]
        )
    return Update(entry["kind"], entry["function"], pair, new_pair)


def _encode_entry(update: Update | UpdateSequence) -> dict:
    if isinstance(update, UpdateSequence):
        return {
            "kind": "SEQ",
            "label": update.label,
            "updates": [_encode_update(u) for u in update],
        }
    return _encode_update(update)


def _decode_entry(entry: dict) -> Update | UpdateSequence:
    if entry.get("kind") == "SEQ":
        return UpdateSequence(
            tuple(_decode_update(u) for u in entry["updates"]),
            label=entry.get("label", ""),
        )
    return _decode_update(entry)


# The entry codec, for a record kept beside a log whose entries must
# decode to what the log holds (the chaos harness's client record).
encode_entry, decode_entry = _encode_entry, _decode_entry


# -- record framing -----------------------------------------------------------


# ``json.dumps`` with non-default arguments builds a new encoder per
# call; these two are built once.
_canonical_json = json.JSONEncoder(sort_keys=True,
                                   separators=(",", ":")).encode
_frame_json = json.JSONEncoder(sort_keys=True).encode


def _crc_of(payload: dict) -> int:
    blob = _canonical_json(payload)
    return zlib.crc32(blob.encode("utf-8")) & 0xFFFFFFFF


def _frame(seq: int, term: int, key: str, value) -> str:
    """One v2 log line: the record — ``key`` is ``entry``, ``abort_of``
    or ``header`` — plus version and checksum. Term 0 (every
    pre-replication log) is left out, so single-node logs stay
    byte-identical to v2 before terms existed."""
    payload = {"seq": seq, key: value}
    if term:
        payload["term"] = term
    return _frame_json(
        {**payload, "v": WAL_VERSION, "crc": _crc_of(payload)})


class Frame(NamedTuple):
    """One decoded log line."""

    seq: int | None  # None for a header
    term: int  # replication epoch; 0 before any failover
    kind: str  # "entry" | "abort" | "header"
    # entry: the decoded update (None until verified); abort: the
    # sequence number it compensates; header: its dict.
    payload: object
    line: str
    line_no: int = 0  # 0 for a frame that was not read from a file


class FrameError(PersistenceError):
    """A line the codec refuses, and at which check: ``json`` |
    ``object`` | ``version`` | ``crc`` | ``seq`` | ``term``. ``seq``
    is the line's own sequence number where one could still be read."""

    def __init__(self, reason: str, detail: str,
                 seq: object = None) -> None:
        self.kind = "checksum" if reason == "crc" else "parse"
        super().__init__(f"{self.kind} ({detail})")
        self.reason = reason
        self.detail = detail
        self.seq = seq if isinstance(seq, int) else None

    @property
    def tear(self) -> bool:
        """Whether this is what a write cut short leaves behind: as
        the final line it is a torn tail, not corruption."""
        return self.reason in ("json", "object")


def decode_frame(line: str, *, verify: bool = True,
                 line_no: int = 0) -> Frame:
    """The one place a log line is parsed. The structural stage —
    JSON object, record version, integer ``seq`` and ``term`` — always
    runs; ``verify`` adds the stage that makes a frame safe to replay:
    the CRC over the payload and the entry decode. Raises
    :exc:`FrameError` for a line that fails a check."""
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as exc:
        raise FrameError("json", str(exc)) from None
    if not isinstance(raw, dict):
        raise FrameError("object", "not a JSON object")
    seq = raw.get("seq")
    if raw.get("v") != WAL_VERSION:
        raise FrameError(
            "version", f"unsupported record version {raw.get('v')!r}", seq)
    if verify:
        crc = _crc_of({k: v for k, v in raw.items()
                       if k not in ("v", "crc")})
        if raw.get("crc") != crc:
            raise FrameError(
                "crc", f"stored {raw.get('crc')!r} != computed {crc}", seq)
    if not isinstance(seq, int):
        raise FrameError("seq", "record lacks a sequence number")
    term = raw.get("term", 0)
    if not isinstance(term, int):
        raise FrameError("term", f"non-integer term {term!r}", seq)
    if "header" in raw:
        return Frame(None, term, "header", raw["header"], line, line_no)
    if "abort_of" in raw:
        return Frame(seq, term, "abort", raw["abort_of"], line, line_no)
    entry = None
    if verify:
        try:
            entry = _decode_entry(raw["entry"])
        except (KeyError, TypeError, ValueError) as exc:
            # The checksum matched, so the record is as written and
            # the writer produced something this reader cannot decode:
            # a version/logic bug, not disk damage. Always fatal.
            raise PersistenceError(
                f"undecodable log entry at line {line_no}: {exc}"
            ) from exc
    return Frame(seq, term, "entry", entry, line, line_no)


def committed(frames: Iterable[Frame]) -> Iterator[Frame]:
    """The entry frames that count, in order: headers and abort
    records are bookkeeping, and an entry some abort among ``frames``
    compensates was never applied."""
    frames = list(frames)
    aborted = {f.payload for f in frames if f.kind == "abort"}
    return (f for f in frames
            if f.kind == "entry" and f.seq not in aborted)


@dataclass(frozen=True)
class LogProblem:
    """One damaged or suspicious spot found while scanning the log."""

    line_no: int
    kind: str  # "torn-tail" | "checksum" | "parse" | "gap"
    detail: str

    def __str__(self) -> str:
        return f"line {self.line_no}: {self.kind} ({self.detail})"


@dataclass
class LogScan:
    """Everything one pass over the log produced."""

    records: list[Frame] = field(default_factory=list)
    problems: list[LogProblem] = field(default_factory=list)
    aborted: set[int] = field(default_factory=set)
    base_seq: int = 0  # from a header record, if present
    base_term: int = 0  # from a header record, if present
    # Running maxima over ``records``; a log holding only a header
    # reads ``base_seq``. Out-of-order records under ``salvage`` still
    # yield the true maximum.
    max_seq: int = 0
    max_term: int = 0
    torn_tail: bool = False
    checksum_failures: int = 0
    # The run: the contiguous stretch of records at the end of the
    # file. Record ``run_first + i`` is the bytes ``[run[i],
    # run[i + 1])``; ``run[-1]`` is where the lines that stay end (a
    # torn tail does not stay).
    run_first: int = 0
    run: list[int] = field(default_factory=lambda: [0])
    unterminated: bool = False  # the file does not end in a newline


def _extend_run(first: int, run: list[int], seq: int | None,
                nbytes: int) -> tuple[int, list[int]]:
    """The run after one more line of ``nbytes`` bytes holding record
    ``seq`` — ``None`` for a line that breaks the run: damage, a blank
    line, a header. A record that does not follow the run's last one
    (a step in the sequence) starts a new run at itself."""
    start = run[-1]
    if seq is None:
        return first, [start + nbytes]
    if len(run) > 1 and seq == first + len(run) - 1:
        run.append(start + nbytes)
        return first, run
    return seq, [start, start + nbytes]


class _Index:
    """Everything an :class:`UpdateLog` knows about its file: what one
    salvage scan found, extended by every record the log wrote since."""

    __slots__ = ("floor", "last_seq", "term", "run_first", "run", "tail",
                 "entries", "aborted", "checksum_failures", "problems")

    def __init__(self, scan: LogScan) -> None:
        self.floor = scan.base_seq  # records at or below it are folded
        self.last_seq = scan.max_seq
        self.term = scan.max_term
        self.run_first, self.run = scan.run_first, scan.run
        # What the next write must settle at the run's end first: a
        # torn final line, or a final line missing only its newline.
        self.tail = ("torn" if scan.torn_tail
                     else "open" if scan.unterminated else None)
        self.entries = sum(1 for _ in committed(scan.records))
        self.aborted = len(scan.aborted)
        self.checksum_failures = scan.checksum_failures
        self.problems = len(scan.problems)

    def add(self, seq: int, term: int, abort: bool, nbytes: int) -> None:
        """Record ``seq``, ``nbytes`` long, just landed at the run's
        end."""
        self.run_first, self.run = _extend_run(self.run_first, self.run,
                                               seq, nbytes)
        self.last_seq = max(self.last_seq, seq)
        self.term = max(self.term, term)
        if abort:  # it compensates an entry this log holds
            self.entries -= 1
            self.aborted += 1
        else:
            self.entries += 1


class UpdateLog:
    """Append-only, checksummed JSON-lines log of updates.

    Every acknowledged append is fsync'd (``fsync=False`` trades the
    power-loss guarantee for speed); a transient ``OSError`` during the
    write is cut back and retried :data:`APPEND_RETRIES` times with
    exponential backoff from :data:`APPEND_BACKOFF` seconds, still
    under the caller's locks, before :class:`PersistenceError` gives
    up. This is the only retry a storage error gets.

    The log keeps one append descriptor open from its first append
    until :meth:`close`; the operations that rename a new file over
    the log (:meth:`truncate`, :meth:`truncate_to`,
    :meth:`discard_torn_tail`) close it first, and the next append
    reopens. Whoever owns the log closes it.

    It also keeps one index of its file under ``_seq_lock``: the
    header's floor, the last sequence number, the run of records at
    the end and their byte boundaries, the tail state and the tallies
    :meth:`health` reports. One salvage scan builds it on first use —
    after construction, :meth:`close`, a rename, or a write that died
    mid-way; :meth:`truncate` sets it without a scan — every write this
    object makes extends it, and every question the log answers reads
    it. Nothing but this object appends to or renames the file while
    it holds the index, so nothing else can move it.
    """

    def __init__(self, path: str | Path, *, fsync: bool = True,
                 term: int = 0) -> None:
        self.path = Path(path)
        self.fsync = fsync
        # Replication epoch stamped into every subsequent record.
        self.term = term
        self._idx: _Index | None = None
        self._seq_lock = threading.Lock()
        self._handle = storage.AppendHandle(self.path)

    def close(self) -> None:
        """Release the held append descriptor and forget the index.
        Idempotent; a later use rescans and a later append reopens."""
        with self._seq_lock:
            self._idx = None
            self._handle.close()

    # -- appending ----------------------------------------------------------

    def append(self, update: Update | UpdateSequence) -> int:
        """Durably append one update record; returns its sequence
        number."""
        # Cancellation boundary: *before* the sequence number is
        # claimed. Once the record write starts, the append runs to
        # completion (or fails on its own terms) — a deadline must not
        # be able to leave a claimed-but-unwritten sequence number.
        cancel.checkpoint()
        entry = _encode_entry(update)
        if not OBS.enabled:
            return self._append("entry", entry)
        # Instrumented path: count appends and time the full durable
        # write (write + fsync), the WAL's ack cost.
        OBS.inc("fdb.wal.appends")
        started = time.perf_counter()
        seq = self._append("entry", entry)
        OBS.observe("fdb.wal.append_seconds",
                    time.perf_counter() - started)
        OBS.gauge("fdb.wal.last_seq", seq)
        OBS.event("wal.append", entry=str(update))
        return seq

    def append_abort(self, seq: int) -> None:
        """Compensate a record that was logged but never applied.

        Never checkpointed for cancellation: compensation must run even
        (especially) when the request that needs it is past deadline.
        """
        self._append("abort_of", seq)
        if OBS.enabled:
            OBS.event("wal.abort", aborted_seq=seq)

    def append_frame(self, seq: int, line: str) -> None:
        """Durably append a record another log already framed, byte
        for byte — how a replica keeps its local WAL a prefix copy of
        the primary's shipped stream. ``seq`` is the frame's own
        sequence number; the caller has verified the frame and that it
        extends this log. No retry: the shipper re-sends, and a failed
        write is cut back first, so the re-sent frame lands once."""
        frame = decode_frame(line, verify=False)
        with self._seq_lock:
            index = self._index()
            nbytes = self._write(index, line)
            index.add(seq, frame.term, frame.kind == "abort", nbytes)

    def _append(self, key: str, value) -> int:
        """Claim the next sequence number and durably write its record
        (``key`` as in :func:`_frame`), retrying transient errors;
        returns the number. Claim, write and index move together under
        ``_seq_lock``: a write that fails claims nothing."""
        with self._seq_lock:
            index = self._index()
            seq = index.last_seq + 1
            line = _frame(seq, self.term, key, value)
            attempt = 0
            while True:
                try:
                    FAULTS.fire("wal.append.before")
                    nbytes = self._write(index, line)
                    break
                except OSError as exc:
                    if attempt >= APPEND_RETRIES:
                        raise PersistenceError(
                            f"log append failed after "
                            f"{attempt + 1} attempts: {exc}"
                        ) from exc
                    if OBS.enabled:
                        OBS.inc("fdb.wal.retries")
                    time.sleep(APPEND_BACKOFF * (2 ** attempt))
                    attempt += 1
            index.add(seq, self.term, key == "abort_of", nbytes)
        FAULTS.fire("wal.append.after")
        return seq

    def _write(self, index: _Index, line: str) -> int:
        """One write of ``line`` at the index's end; returns the bytes
        the record took. Caller holds ``_seq_lock``.

        The end becomes a line boundary first: a torn final line is
        cut (never acknowledged; recovery skips it), and a final frame
        missing only its newline gets it in the same write (recovery
        replays it). A write that fails leaves the file as the index
        has it: an ``OSError`` is cut back to the end, so a retry or a
        re-sent frame lands once. If the cut fails too, or anything
        else stops the write (a simulated crash: a dead process runs
        no cleanup), the index is dropped and the next use rescans.
        """
        end = index.run[-1]
        try:
            if index.tail == "torn":
                storage.cut(self.path, end, fsync=self.fsync)
                index.tail = None
                index.problems -= 1
            glue = "\n" if index.tail == "open" else ""
            nbytes = storage.append_line(self._handle, glue + line,
                                         fsync=self.fsync)
        except OSError as exc:
            try:
                storage.cut(self.path, end, fsync=self.fsync)
            except OSError as failed:
                self._idx = None
                raise PersistenceError(
                    f"log append failed ({exc}) and its bytes could not "
                    f"be cut back: {failed}") from failed
            raise
        except BaseException:
            self._idx = None
            raise
        if glue:
            index.tail = None
            index.run[-1] += 1
            nbytes -= 1
        return nbytes

    def _index(self) -> _Index:
        """The index, scanned on first use (see the class docstring).
        Caller holds ``_seq_lock``: an unlocked scan could finish after
        a concurrent write and put a stale index back over it."""
        index = self._idx
        if index is None:
            index = self._idx = _Index(self._scan("salvage"))
        return index

    # -- scanning -----------------------------------------------------------

    def _lines(self) -> Iterator[tuple[int, str, bytes]]:
        """The one walk over the file: ``(line number, stripped text,
        the bytes as they sit in the file)`` of every line, blank ones
        included — the byte lengths add up to each line's offset;
        nothing for a missing file. Each line is decoded on its own,
        so a byte that is not UTF-8 costs its line and no other: the
        line reads as cut short there (the text before the byte, and
        U+FFFD in its place), which no longer parses."""
        if not self.path.exists():
            return
        with self.path.open("rb") as handle:
            for line_no, raw in enumerate(handle, 1):
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    line = raw[:exc.start].decode("utf-8") + "\ufffd"
                yield line_no, line.strip(), raw

    def _scan(self, policy: str) -> LogScan:
        """One streaming pass: decode, verify checksums, track
        sequence numbers, classify damage, find the run.

        ``strict`` raises on interior damage; ``salvage`` records the
        problem and skips the record. A final line that fails to parse
        is a torn tail under both policies — that append was never
        acknowledged — and the run ends where it began.
        """
        scan = LogScan()
        pending: LogProblem | None = None  # unparsed line, maybe a tear
        last_seq: int | None = None
        first, run, raw = 0, [0], b"\n"
        before = first, run  # the run as it stood before ``pending``
        for line_no, line, raw in self._lines():
            seq = None  # the line's place in the run; None breaks it
            if line:
                if pending is not None:
                    # Valid data follows the bad line: interior damage,
                    # not a tear.
                    self._problem(scan, policy, pending)
                    pending = None
                try:
                    frame = decode_frame(line, line_no=line_no)
                except FrameError as exc:
                    problem = LogProblem(line_no, exc.kind, exc.detail)
                    if exc.tear:
                        pending, before = problem, (first, run)
                    else:
                        if exc.kind == "checksum":
                            scan.checksum_failures += 1
                            # Only its checksum condemns it: it keeps
                            # its place in the run, ships, and the
                            # replica's verify refuses it.
                            try:
                                seq = decode_frame(line, verify=False).seq
                            except FrameError:
                                pass
                        self._problem(scan, policy, problem)
                else:
                    seq = frame.seq
                    if frame.term > scan.max_term:
                        scan.max_term = frame.term
                    if frame.kind == "header":
                        scan.base_seq = frame.payload.get("next_seq", 1) - 1
                        scan.base_term = frame.payload.get("term",
                                                           frame.term)
                        if last_seq is None:
                            scan.max_seq = scan.base_seq
                    else:
                        reference = (last_seq if last_seq is not None
                                     else scan.base_seq)
                        if frame.seq != reference + 1:
                            self._problem(scan, policy, LogProblem(
                                line_no, "gap",
                                f"sequence {frame.seq} after {reference}",
                            ))
                        if last_seq is None or frame.seq > scan.max_seq:
                            scan.max_seq = frame.seq
                        last_seq = frame.seq
                        if frame.kind == "abort":
                            scan.aborted.add(frame.payload)
                    scan.records.append(frame)
            first, run = _extend_run(first, run, seq, len(raw))
        if pending is not None:
            scan.torn_tail = True
            scan.problems.append(LogProblem(
                pending.line_no, "torn-tail", pending.detail
            ))
            first, run = before
        scan.run_first, scan.run = first, run
        scan.unterminated = not raw.endswith(b"\n")
        return scan

    @staticmethod
    def _problem(scan: LogScan, policy: str,
                 problem: LogProblem) -> None:
        if policy == "strict":
            raise PersistenceError(f"corrupt log: {problem}")
        scan.problems.append(problem)

    # -- reading ------------------------------------------------------------

    def scan(self, policy: str = "strict") -> LogScan:
        """Scan the whole log under a recovery policy (see module
        docstring). Reads the file as it is now; the index is left
        alone."""
        if policy not in ("strict", "salvage"):
            raise ValueError(
                f"policy must be 'strict' or 'salvage', not {policy!r}"
            )
        scanned = self._scan(policy)
        # Counted here, where damage is reported to a caller, and not
        # in ``_scan``: the index's scan is private. A strict scan
        # reports damage by raising instead.
        if OBS.enabled and scanned.checksum_failures:
            OBS.inc("fdb.wal.checksum_failures",
                    scanned.checksum_failures)
        return scanned

    def entries(self) -> Iterator[Update | UpdateSequence]:
        """Committed entries in order: torn tails and aborted records
        are skipped, interior corruption raises (strict policy)."""
        for frame in committed(self._scan("strict").records):
            yield frame.payload

    def last_seq(self) -> int:
        """The highest sequence number in this log generation (0 for a
        fresh log)."""
        with self._seq_lock:
            return self._index().last_seq

    # -- shipping -----------------------------------------------------------

    def records_between(self, lo: int, hi: int) -> list[tuple[int, str]]:
        """The raw framed lines of the records with sequence number in
        ``(lo, hi]``, in order — what :class:`WalShipper
        <repro.replication.shipper.WalShipper>` streams to replicas.

        Served from the run of records at the end of the file with one
        positional read of exactly those bytes, so the result is always
        consecutive: abort records ship like entries (a replica's log
        stays a byte-for-byte prefix copy of the primary's record
        stream), and anything that breaks the run — a header, a line
        that does not decode, a blank line, a step in the sequence —
        ends what can be shipped from this log at the record after it.
        Returns fewer records than requested when the range starts
        before the run (a checkpoint folded it into the snapshot, or
        it lies behind a break): the caller must then fall back to
        snapshot shipping. Structural decode only: the receiving
        replica verifies every frame before it keeps it. The lookup
        and the read hold the lock a rename holds, so the bytes are
        never another generation's.
        """
        if hi <= lo:
            return []
        with self._seq_lock:
            index = self._index()
            first, run = index.run_first, index.run
            lo = max(lo, first - 1)
            hi = min(hi, first + len(run) - 2)
            if hi <= lo:
                return []
            cuts = run[lo + 1 - first:hi + 2 - first]
            data = storage.read_span(self.path, cuts[0],
                                     cuts[-1] - cuts[0])
        # A byte that rotted under the run since it was walked ships
        # as U+FFFD and fails the replica's verify, like any damage
        # the structural stage lets through.
        return [(seq, data[start - cuts[0]:end - cuts[0]]
                 .decode("utf-8", "replace").strip())
                for seq, start, end
                in zip(range(lo + 1, hi + 1), cuts, cuts[1:])]

    def shippable_floor(self) -> int:
        """The highest sequence number already folded away by a
        checkpoint: records at or below it cannot be shipped from this
        log and require snapshot catch-up. Read from the index, like
        :meth:`last_seq`; a reading taken just before a checkpoint's
        rename is low, never high, and the shipper's ``acked + 1``
        check on what it then reads catches that."""
        with self._seq_lock:
            return self._index().floor

    # -- repair -------------------------------------------------------------

    def _replace(self, lines: list[str],
                 known: LogScan | None = None) -> None:
        """Atomically rename a file of ``lines`` over the log. The held
        descriptor names the inode being replaced, so it goes first,
        and the index goes with it — all in one locked block, so a
        reader that looks a record up and reads its bytes under the
        same lock never reads them from the other side of the rename.
        ``known`` is for the caller that knows what a scan of the new
        file would find (an empty or header-only file): the index is
        then built from it instead of a scan."""
        with self._seq_lock:
            self._handle.close()
            # Forgotten before the rename, not after: an exception out
            # of it leaves no index of a file that may be gone.
            self._idx = None
            storage.atomic_write(self.path, "".join(f"{line}\n"
                                                    for line in lines))
            if known is not None:
                self._idx = _Index(known)

    def truncate_to(self, seq: int) -> int:
        """Atomically drop every record with a sequence number above
        ``seq`` (the fencing repair: a rejoining deposed primary cuts
        its unacknowledged tail back to the prefix the new primary's
        history extends). Returns how many records were dropped."""
        kept: list[str] = []
        dropped = 0
        for _, line, _ in self._lines():
            if not line:
                continue
            try:
                line_seq = decode_frame(line, verify=False).seq
            except FrameError as exc:
                # An unparseable line goes with the tail; other damage
                # is judged by the sequence number still readable on it.
                line_seq = seq + 1 if exc.reason == "json" else exc.seq
            if line_seq is not None and line_seq > seq:
                dropped += 1
            else:
                kept.append(line)
        if dropped:
            self._replace(kept)
        return dropped

    def discard_torn_tail(self) -> bool:
        """Drop a torn final line (the mid-write crash signature) from
        the file itself, as it is now. Returns whether a tear was
        removed. Interior damage is untouched — that is corruption,
        not a tear, and scan()/recover() must report it."""
        lines = [line for _, line, _ in self._lines() if line]
        try:
            if lines:
                decode_frame(lines[-1], verify=False)
        except FrameError as exc:
            if exc.tear:
                self._replace(lines[:-1])
                return True
        return False

    # -- health -------------------------------------------------------------

    def health(self) -> dict:
        """One JSON-ready view of the log's durability state: last
        sequence number, current term, torn-tail flag, committed entry
        count, and damage tallies. Read from the index, so monitoring
        surfaces (``stats``/``/metrics``/``/health``) pay
        no I/O per scrape."""
        with self._seq_lock:
            index = self._index()
            health = {
                "path": str(self.path),
                "last_seq": index.last_seq,
                "term": max(self.term, index.term),
                "tail_torn": index.tail == "torn",
                "entries": index.entries,
                "aborted": index.aborted,
                "checksum_failures": index.checksum_failures,
                "problems": index.problems,
            }
        if OBS.enabled:
            OBS.gauge("fdb.wal.last_seq", health["last_seq"])
            OBS.gauge("fdb.wal.tail_torn", int(health["tail_torn"]))
        return health

    def truncate(self, next_seq: int | None = None) -> None:
        """Atomically empty the log.

        ``next_seq`` (used by :func:`checkpoint`) persists a header so
        sequence numbers keep increasing across the truncation —
        that monotonicity is what lets recovery tell "already folded
        into the snapshot" from "new since the snapshot".
        """
        if next_seq is None or next_seq <= 1:
            self._replace([], LogScan())
            return
        meta: dict = {"next_seq": next_seq}
        if self.term:
            meta["term"] = self.term
        header = _frame(next_seq - 1, self.term, "header", meta)
        self._replace([header], LogScan(
            base_seq=next_seq - 1, max_seq=next_seq - 1,
            max_term=self.term, run=[len(header.encode("utf-8")) + 1]))


# -- the write-ahead wrapper --------------------------------------------------


def _validate(db: FunctionalDatabase,
              update: Update | UpdateSequence) -> None:
    """Reject an update the schema cannot apply *before* it is logged.

    Logging an inapplicable update is the write-ahead divergence bug:
    the log would replay an update the live database never performed.
    """
    updates = update if isinstance(update, UpdateSequence) else (update,)
    for simple in updates:
        db.is_base(simple.function)  # raises UnknownFunctionError


class LoggedDatabase:
    """Write-ahead wrapper: validate, log durably, then apply.

    Exposes the update front door of :class:`FunctionalDatabase`;
    reads go straight to ``self.db``. If applying a logged update
    fails, the in-memory state is rolled back and a compensating
    abort record is appended so replay skips it — the log and the
    live state never diverge.

    Every later replay has to reproduce the state a logged update
    leaves, so before the update commits the stored structure is
    checked against itself (``db.structure_fault(txn.records)``) and
    a contradiction aborts it like any other failure. The check
    follows the transaction: the tables its undo records name, every
    row, and the NCs they name — a table no record names was not
    written, so it is as the last whole-instance check left it, and
    those run where O(instance) is paid anyway (snapshot load,
    :func:`recover` after replay, :func:`checkpoint` before the
    snapshot).
    """

    def __init__(self, db: FunctionalDatabase,
                 log: UpdateLog | str | Path) -> None:
        self.db = db
        self.log = log if isinstance(log, UpdateLog) else UpdateLog(log)

    def close(self) -> None:
        """Release the log's held descriptor (see
        :meth:`UpdateLog.close`)."""
        self.log.close()

    @contextmanager
    def committing(self, update: Update | UpdateSequence
                   ) -> Iterator[tuple[int, Transaction]]:
        """The write-ahead protocol around the caller's apply: validate
        ``update``, log it durably, open a transaction, run the block
        — which applies exactly ``update``, the entry replay will
        apply — then check the structure the transaction wrote.
        Yields the entry's WAL sequence number and the transaction.

        If the block or the check raises, the transaction rolls the
        memory state back and a compensating abort record is appended
        so replay skips the entry too; the block's error propagates.
        The transaction is always this scope's own: an entry must
        never commit inside a caller's transaction, whose rollback
        after the append would leave it with no abort record."""
        _validate(self.db, update)
        with OBS.span("wal.commit"):
            seq = self.log.append(update)
        try:
            with Transaction(self.db) as txn:
                FAULTS.fire("wal.apply.before")
                yield seq, txn
                fault = self.db.structure_fault(txn.records)
                if fault is not None:
                    raise StructureError(fault)
        except Exception:
            # The update is durably logged but was never applied (the
            # transaction above rolled the memory state back): append
            # the compensation so replay skips it too. A SimulatedCrash
            # is a BaseException and falls through — a dead process
            # writes nothing.
            FAULTS.fire("wal.abort.append")
            try:
                self.log.append_abort(seq)
            except (OSError, PersistenceError):
                # Disk went away mid-compensation; replay will re-apply
                # the entry (its intent was durable and deterministic).
                # Count it so operators can see the window was hit.
                if OBS.enabled:
                    OBS.inc("fdb.wal.abort_failures")
            raise

    def execute(self, update: Update | UpdateSequence) -> int:
        """Validate, log durably, apply; returns the update's WAL
        sequence number (what replication acks are counted against)."""
        with self.committing(update) as (seq, _):
            apply_entry(self.db, update)
        return seq


# -- checkpoint / recover -----------------------------------------------------


@dataclass(frozen=True)
class RecoveryReport(Report, tag="recovery"):
    """What :func:`recover` did, in enough detail to audit it."""

    db: FunctionalDatabase
    entries_applied: int
    torn_tail: bool
    policy: str = "strict"
    records_skipped: int = 0
    checksum_failures: int = 0
    aborted: int = 0
    already_checkpointed: int = 0
    # Highest replication epoch in the snapshot or the log.
    term: int = 0
    notes: tuple[str, ...] = ()
    last_seq: int = 0  # highest sequence number in the log
    wal_applied: int | None = None  # what the snapshot had folded in

    def __str__(self) -> str:
        tear = " (torn tail skipped)" if self.torn_tail else ""
        parts = [f"recovered: {self.entries_applied} log entries{tear}"]
        if self.aborted:
            parts.append(f"{self.aborted} aborted")
        if self.already_checkpointed:
            parts.append(
                f"{self.already_checkpointed} already checkpointed"
            )
        if self.records_skipped:
            parts.append(
                f"{self.records_skipped} skipped ({self.policy})"
            )
        if self.checksum_failures:
            parts.append(f"{self.checksum_failures} checksum failures")
        return "; ".join(parts)


def checkpoint(logged: LoggedDatabase,
               snapshot_path: str | Path) -> None:
    """Fold the log into a durable snapshot.

    Ordering is the whole point: the snapshot — stamped with the
    highest sequence number it folds in — is written atomically and
    fsync'd *before* the log is truncated (itself an atomic rename).
    A crash before the snapshot rename keeps the old pair; a crash
    between the two steps leaves the new snapshot plus the old log,
    which :func:`recover` reconciles by skipping already-folded
    sequence numbers. There is no window in which committed state is
    only partially on disk.

    A commit checks the tables it wrote; the whole instance is checked
    here, before anything is written, and a contradiction raises
    :class:`StructureError` with the old snapshot and the log as they
    were — a pair that still recovers every committed update.
    """
    fault = logged.db.structure_fault()
    if fault is not None:
        raise StructureError(f"checkpoint refused: {fault}")
    if OBS.enabled:
        OBS.inc("fdb.wal.checkpoints")
    FAULTS.fire("wal.checkpoint.before-snapshot", log=logged.log)
    folded = logged.log.last_seq()
    persistence.save(logged.db, snapshot_path, wal_applied=folded,
                     term=logged.log.term or None)
    FAULTS.fire("wal.checkpoint.after-snapshot")
    if OBS.enabled:
        OBS.action("checkpoint.snapshot_written",
                   path=str(snapshot_path), wal_applied=folded)
    logged.log.truncate(next_seq=folded + 1)
    FAULTS.fire("wal.checkpoint.after-truncate")
    if OBS.enabled:
        OBS.action("checkpoint.log_truncated", next_seq=folded + 1)


def recover(snapshot_path: str | Path, log_path: str | Path, *,
            policy: str = "strict") -> RecoveryReport:
    """Rebuild a database: load the snapshot, replay the log over it.

    ``policy="strict"`` raises on interior damage; ``policy="salvage"``
    applies every record that survives its checksum and reports the
    rest. Records the snapshot already folded in (by sequence number),
    aborted records, and a torn final line are skipped under both.
    Replay applies entries without the per-commit check, so when it
    applied any the whole structure is checked once at the end
    (strict raises, salvage notes it); with none applied the state is
    the one :func:`persistence.load_with_meta` just checked.
    """
    db, meta = persistence.load_with_meta(snapshot_path)
    log = UpdateLog(log_path)
    scan = log.scan(policy)
    wal_applied = meta.get("wal_applied")
    if OBS.enabled:
        OBS.action("recovery.start", policy=policy,
                   snapshot=str(snapshot_path), log=str(log_path))
    applied = already = skipped = 0
    notes = [str(problem) for problem in scan.problems]
    live = list(committed(scan.records))
    for frame in live:
        if wal_applied is not None and frame.seq <= wal_applied:
            already += 1
            continue
        try:
            if OBS.enabled:
                OBS.action("recovery.replay", seq=frame.seq,
                           entry=str(frame.payload))
            apply_entry(db, frame.payload)
        except Exception as exc:
            # A logged update that cannot re-apply: normally prevented
            # by validate-then-log + abort records; reachable when a
            # crash hit the abort window. Strict surfaces it, salvage
            # records and carries on.
            if policy == "strict":
                raise PersistenceError(
                    f"log entry at line {frame.line_no} failed to "
                    f"re-apply: {exc}"
                ) from exc
            skipped += 1
            notes.append(
                f"line {frame.line_no}: apply-failed ({exc})"
            )
            continue
        applied += 1
    fault = db.structure_fault() if applied else None
    if fault is not None:
        note = f"replayed state is inconsistent: {fault}"
        if policy == "strict":
            raise PersistenceError(note)
        notes.append(note)
    aborted = sum(f.kind == "entry" for f in scan.records) - len(live)
    skipped += sum(1 for p in scan.problems
                   if p.kind in ("checksum", "parse"))
    if OBS.enabled:
        OBS.inc("fdb.recovery.runs")
        OBS.inc("fdb.recovery.records_applied", applied)
        OBS.inc("fdb.recovery.records_skipped", skipped)
        if scan.torn_tail:
            OBS.inc("fdb.recovery.torn_tails")
        OBS.action("recovery.finish", policy=policy, applied=applied,
                   skipped=skipped, aborted=aborted,
                   already_checkpointed=already,
                   torn_tail=scan.torn_tail)
    return RecoveryReport(
        db,
        entries_applied=applied,
        torn_tail=scan.torn_tail,
        policy=policy,
        records_skipped=skipped,
        checksum_failures=scan.checksum_failures,
        aborted=aborted,
        already_checkpointed=already,
        term=max(scan.max_term, meta.get("term") or 0),
        notes=tuple(notes),
        last_seq=scan.max_seq,
        wal_applied=wal_applied,
    )
