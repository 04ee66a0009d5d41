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
from repro.fdb.values import Value
from repro.obs.hooks import OBS
from repro.report import Report

__all__ = ["UpdateLog", "LoggedDatabase", "checkpoint", "recover",
           "RecoveryReport", "Frame", "FrameError", "decode_frame",
           "committed", "LogProblem", "WAL_VERSION"]

WAL_VERSION = 2


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
    "LoggedDatabase.execute: record durable, about to apply in memory",
    durable=True,
)
FAULTS.register(
    "wal.abort.append",
    "LoggedDatabase.execute: apply failed, compensating abort record "
    "not yet written",
    durable=True,
)
FAULTS.register(
    "wal.checkpoint.before-snapshot",
    "checkpoint: before the snapshot write",
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


class UpdateLog:
    """Append-only, checksummed JSON-lines log of updates.

    Every acknowledged append is fsync'd (``fsync=False`` trades the
    power-loss guarantee for speed); transient ``OSError`` during the
    write is retried ``retries`` times with exponential backoff before
    giving up.

    The log keeps one append descriptor open from its first append
    until :meth:`close`; the operations that rename a new file over
    the log (:meth:`truncate`, :meth:`truncate_to`,
    :meth:`discard_torn_tail`) close it first, and the next append
    reopens. Whoever owns the log closes it.
    """

    def __init__(self, path: str | Path, *, fsync: bool = True,
                 retries: int = 3, backoff: float = 0.005,
                 term: int = 0) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self.retries = retries
        self.backoff = backoff
        # Replication epoch stamped into every subsequent record.
        self.term = term
        # What the log remembers about its file, under ``_seq_lock``:
        # the next sequence number, the floor its header records, and
        # where the records are. One scan fills the first two on first
        # use; a rename drops all three (``_replace``). Nothing but
        # this object renames or appends to the file, so nothing else
        # can move them.
        self._next_seq: int | None = None
        self._floor: int | None = None
        # The contiguous run of records at the end of the file: record
        # ``_run_first + i`` is the bytes ``[_run[i], _run[i + 1])``.
        # Walked on the first ``records_between`` — never on a log
        # nobody ships from — and extended by every append after it.
        self._run_first = 0
        self._run: list[int] | None = None
        self._cache: tuple[int, int] | None = None  # (file size, count)
        # health(): scan results keyed on (size, mtime_ns) so /metrics
        # and /health scrapes don't rescan a quiescent log.
        self._health_cache: tuple[tuple[int, int], dict] | None = None
        self._seq_lock = threading.Lock()
        self._handle = storage.AppendHandle(self.path)

    def close(self) -> None:
        """Release the held append descriptor. Idempotent; a later
        append reopens."""
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
        seq = self._claim_seq()
        line = _frame(seq, self.term, "entry", _encode_entry(update))
        if not OBS.enabled:
            self._note_appended(self._write_claimed(seq, line), 1)
            return seq
        # Instrumented path: count appends and time the full durable
        # write (write + fsync), the WAL's ack cost.
        OBS.inc("fdb.wal.appends")
        started = time.perf_counter()
        nbytes = self._write_claimed(seq, line)
        OBS.observe("fdb.wal.append_seconds",
                    time.perf_counter() - started)
        OBS.gauge("fdb.wal.last_seq", seq)
        OBS.event("wal.append", entry=str(update))
        self._note_appended(nbytes, 1)
        return seq

    def append_abort(self, seq: int) -> None:
        """Compensate a record that was logged but never applied.

        Never checkpointed for cancellation: compensation must run even
        (especially) when the request that needs it is past deadline.
        """
        abort_seq = self._claim_seq()
        line = _frame(abort_seq, self.term, "abort_of", seq)
        nbytes = self._write_claimed(abort_seq, line)
        if OBS.enabled:
            OBS.inc("fdb.wal.aborts")
            OBS.event("wal.abort", aborted_seq=seq)
        # The aborted entry no longer counts as committed.
        self._note_appended(nbytes, -1)

    def append_frame(self, seq: int, line: str) -> None:
        """Durably append a record another log already framed, byte
        for byte — how a replica keeps its local WAL a prefix copy of
        the primary's shipped stream. ``seq`` is the frame's own
        sequence number; the caller has verified the frame and that it
        extends this log. No retry: the shipper re-sends."""
        try:
            nbytes = storage.append_line(self._handle, line,
                                         fsync=self.fsync)
        except BaseException:
            self._forget_run()
            raise
        with self._seq_lock:
            self._next_seq = seq + 1
            self._extend_run(seq, nbytes)
        self._cache = None  # entry or abort: let __len__ recount

    def _position(self) -> int:
        """The next sequence number, scanned from the file — together
        with the floor — on first use after open or a rename. A log
        only ever advanced by :meth:`append_frame` knows its position
        and not its floor; the scan then fills the floor alone. Caller
        holds ``_seq_lock``: an unlocked scan could finish after a
        concurrent claim and put a stale position back over it."""
        if self._floor is None:
            scan = self._scan("salvage")
            self._floor = scan.base_seq
            if self._next_seq is None:
                self._next_seq = scan.max_seq + 1
        return self._next_seq

    def _claim_seq(self) -> int:
        with self._seq_lock:
            seq = self._position()
            self._next_seq = seq + 1
            return seq

    def _write_claimed(self, seq: int, line: str) -> int:
        """Write a record whose sequence number is already claimed,
        unclaiming it if the write never lands; returns the bytes
        written.

        Without the rollback, a failed write (retries exhausted during
        a storage outage) would leave ``_next_seq`` advanced past a
        record that does not exist, and the next successful append
        would commit a sequence *gap* — which strict recovery rightly
        refuses to replay.
        """
        try:
            nbytes = self._write_line(line)
        except BaseException:
            with self._seq_lock:
                if self._next_seq == seq + 1:
                    self._next_seq = seq
                self._run = None
            raise
        with self._seq_lock:
            self._extend_run(seq, nbytes)
        return nbytes

    def _write_line(self, line: str) -> int:
        """The durable write, with transient-error retry (a failed
        write closed the descriptor, so each retry reopens)."""
        attempt = 0
        while True:
            try:
                FAULTS.fire("wal.append.before")
                nbytes = storage.append_line(self._handle, line,
                                             fsync=self.fsync)
                FAULTS.fire("wal.append.after")
                return nbytes
            except OSError as exc:
                self._forget_run()
                if attempt >= self.retries:
                    raise PersistenceError(
                        f"log append failed after "
                        f"{attempt + 1} attempts: {exc}"
                    ) from exc
                if OBS.enabled:
                    OBS.inc("fdb.wal.retries")
                time.sleep(self.backoff * (2 ** attempt))
                attempt += 1

    def _extend_run(self, seq: int, nbytes: int) -> None:
        """Record ``seq`` just landed at the end of the file in
        ``nbytes`` bytes: the run, if one is remembered, grows by it.
        A record that is not the run's next — a walk taken while this
        write was in flight already counted it — forgets the run
        instead. Caller holds ``_seq_lock``."""
        run = self._run
        if run is None:
            return
        if len(run) == 1:
            self._run_first = seq
        if seq == self._run_first + len(run) - 1:
            run.append(run[-1] + nbytes)
        else:
            self._run = None

    def _forget_run(self) -> None:
        """After a write that failed: however much of the frame it
        left in the file, the run's end is no longer the file's, and
        no arithmetic on frame sizes finds where a retry lands."""
        with self._seq_lock:
            self._run = None

    def _note_appended(self, nbytes: int, committed: int) -> None:
        """Advance the ``__len__`` cache past a record this log just
        wrote; ``__len__`` still checks it against the real size."""
        cache = self._cache
        if cache is not None:
            self._cache = (cache[0] + nbytes, cache[1] + committed)

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
        sequence numbers, classify damage.

        ``strict`` raises on interior damage; ``salvage`` records the
        problem and skips the record. A final line that fails to parse
        is a torn tail under both policies — that append was never
        acknowledged.
        """
        scan = LogScan()
        pending: LogProblem | None = None  # unparsed line, maybe a tear
        last_seq: int | None = None
        for line_no, line, _ in self._lines():
            if not line:
                continue
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
                    pending = problem
                    continue
                if exc.kind == "checksum":
                    scan.checksum_failures += 1
                self._problem(scan, policy, problem)
                continue
            if frame.term > scan.max_term:
                scan.max_term = frame.term
            if frame.kind == "header":
                scan.base_seq = frame.payload.get("next_seq", 1) - 1
                scan.base_term = frame.payload.get("term", frame.term)
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
        if pending is not None:
            scan.torn_tail = True
            scan.problems.append(LogProblem(
                pending.line_no, "torn-tail", pending.detail
            ))
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
        docstring)."""
        if policy not in ("strict", "salvage"):
            raise ValueError(
                f"policy must be 'strict' or 'salvage', not {policy!r}"
            )
        scanned = self._scan(policy)
        # Counted here, where damage is reported to a caller, and not
        # in ``_scan``: the private passes (positioning, health, the
        # tail check) re-read the same damaged line on every scrape.
        # A strict scan reports damage by raising instead.
        if OBS.enabled and scanned.checksum_failures:
            OBS.inc("fdb.wal.checksum_failures",
                    scanned.checksum_failures)
        return scanned

    def entries(self) -> Iterator[Update | UpdateSequence]:
        """Committed entries in order: torn tails and aborted records
        are skipped, interior corruption raises (strict policy)."""
        for frame in committed(self._scan("strict").records):
            yield frame.payload

    @property
    def tail_is_torn(self) -> bool:
        """Whether the final line is an unparseable fragment (the
        mid-write crash signature). A parseable record is never a
        tear; a missing version or a bad checksum there is corruption,
        which scan()/recover() report."""
        return self._scan("salvage").torn_tail

    def last_seq(self) -> int:
        """The highest sequence number ever claimed in this log
        generation (0 for a fresh log)."""
        with self._seq_lock:
            return self._position() - 1

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
            run = self._run
            if run is None:
                run = self._find_run()
            first = self._run_first
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

    def _find_run(self) -> list[int]:
        """Walk the file for the contiguous run of records at its end
        (see ``__init__``) and remember it. Caller holds ``_seq_lock``,
        which keeps a rename out; an append may still land under the
        walk, and ``_extend_run`` sorts that out."""
        first, run, raw = 0, [0], b"\n"
        for _, line, raw in self._lines():
            start, end = run[-1], run[-1] + len(raw)
            try:
                seq = decode_frame(line, verify=False).seq
            except FrameError:
                seq = None
            if seq is None:  # damage, a blank line or a header
                run = [end]
            elif len(run) > 1 and seq == first + len(run) - 1:
                run.append(end)
            else:
                first, run = seq, [start, end]
        self._run_first = first
        # Behind a final line with no newline the next append lands
        # glued to the fragment, not where the run ends: serve this
        # walk's answer and remember nothing. (``raw`` is the last
        # line walked; an empty file ends clean.)
        if raw.endswith(b"\n"):
            self._run = run
        return run

    def shippable_floor(self) -> int:
        """The highest sequence number already folded away by a
        checkpoint: records at or below it cannot be shipped from this
        log and require snapshot catch-up. Read from what the log
        remembers, like :meth:`last_seq`; a reading taken just before
        a checkpoint's rename is low, never high, and the shipper's
        ``acked + 1`` check on what it then reads catches that."""
        with self._seq_lock:
            self._position()
            return self._floor

    # -- repair -------------------------------------------------------------

    def _replace(self, lines: list[str],
                 next_seq: int | None = None) -> None:
        """Atomically rename a file of ``lines`` over the log. The held
        descriptor names the inode being replaced, so it goes first;
        everything remembered about the old file goes with it — all in
        one locked block, so a reader that looks a record up and reads
        its bytes under the same lock never reads them from the other
        side of the rename. ``next_seq`` is for the caller that wrote
        no record (an empty or header-only file): position and floor
        are then known without a scan."""
        with self._seq_lock:
            self._handle.close()
            # Forgotten before the rename, not after: an exception out
            # of it leaves nothing remembered about a file that may be
            # gone.
            self._next_seq = self._floor = self._run = None
            storage.atomic_write(self.path, "".join(f"{line}\n"
                                                    for line in lines))
            if next_seq is not None:
                self._next_seq, self._floor = next_seq, next_seq - 1
        self._cache = None
        self._health_cache = None

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
        the file itself, so the log can be re-used for appends and
        shipping without the fragment. Returns whether a tear was
        removed. Interior damage is untouched — that is corruption,
        not a tear, and scan()/recover() must report it."""
        if not self.tail_is_torn:
            return False
        self._replace([line for _, line, _ in self._lines()
                       if line][:-1])
        return True

    # -- health -------------------------------------------------------------

    def health(self) -> dict:
        """One JSON-ready view of the log's durability state: last
        sequence number, current term, torn-tail flag, committed entry
        count, and damage tallies from a salvage scan. The scan is
        cached against the file's (size, mtime), so monitoring
        surfaces (``stats``/``/metrics``/``/health``/``monitor``) that
        scrape between appends pay O(log size) only when the log
        actually changed."""
        try:
            stat = self.path.stat()
            key = (stat.st_size, stat.st_mtime_ns)
        except OSError:
            key = None
        cached = self._health_cache
        if key is not None and cached is not None and cached[0] == key:
            scanned = cached[1]
        else:
            # Stat happens before the scan: a record landing between
            # the two makes the cached view *fresher* than its key,
            # never staler, and the next size change invalidates it.
            scan = self._scan("salvage")
            scanned = {
                "last_seq": scan.max_seq,
                "term": scan.max_term,
                "tail_torn": scan.torn_tail,
                "entries": sum(1 for _ in committed(scan.records)),
                "aborted": len(scan.aborted),
                "checksum_failures": scan.checksum_failures,
                "problems": len(scan.problems),
            }
            self._health_cache = (key, scanned) \
                if key is not None else None
        health = {"path": str(self.path), **scanned}
        health["term"] = max(self.term, health["term"])
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
            self._replace([], next_seq=1)
            return
        meta: dict = {"next_seq": next_seq}
        if self.term:
            meta["term"] = self.term
        self._replace([_frame(next_seq - 1, self.term, "header", meta)],
                      next_seq=next_seq)

    def __len__(self) -> int:
        """Number of committed entries. Cached between calls; the
        cache is revalidated against the file size, so external
        writes (or another process) force a rescan."""
        try:
            size = self.path.stat().st_size
        except OSError:
            return 0
        if self._cache is not None and self._cache[0] == size:
            return self._cache[1]
        count = sum(1 for _ in self.entries())
        self._cache = (size, count)
        return count


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

    def execute(self, update: Update | UpdateSequence) -> int:
        """Validate, log durably, apply; returns the update's WAL
        sequence number (what replication acks are counted against)."""
        _validate(self.db, update)
        with OBS.span("wal.commit"):
            seq = self.log.append(update)
        try:
            with Transaction(self.db) as txn:
                FAULTS.fire("wal.apply.before")
                apply_entry(self.db, update)
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
        return seq

    def insert(self, name: str, x: Value, y: Value) -> None:
        self.execute(Update.ins(name, x, y))

    def delete(self, name: str, x: Value, y: Value) -> None:
        self.execute(Update.delete(name, x, y))

    def replace(self, name: str, old: tuple[Value, Value],
                new: tuple[Value, Value]) -> None:
        self.execute(Update.rep(name, old, new))


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
    FAULTS.fire("wal.checkpoint.before-snapshot")
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
