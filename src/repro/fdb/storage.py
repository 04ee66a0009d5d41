"""Crash-safe filesystem primitives.

Everything durable in this package goes through two operations, both
with the fsync discipline a real store needs (:func:`read_span` is the
read side: the bytes of a log at a known offset; :func:`cut` takes back
what a failed append left):

* :func:`atomic_write` — publish a complete new file state with no
  window in which a reader (or a crash) can observe a partial one:
  write to a temp file in the same directory, flush + fsync the data,
  ``os.replace`` over the target (atomic on POSIX and Windows), then
  fsync the directory so the rename itself is durable.

* :func:`append_line` — append one line through a log's held-open
  :class:`AppendHandle` and force it to disk before returning (one
  ``write`` + one ``fsync``), so a record the caller believes committed
  survives power loss, not just process death.

Fault points (see :mod:`repro.faults`) are threaded through both so the
crash-matrix harness can kill the process at every step and assert the
recovery story.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

from repro.faults.registry import FAULTS

__all__ = ["AppendHandle", "atomic_write", "append_line",
           "read_span", "cut", "fsync_directory"]


FAULTS.register(
    "storage.atomic.before-write",
    "atomic_write: before the temp file is created",
)
FAULTS.register(
    "storage.atomic.payload",
    "atomic_write: mid-write of the temp file (torn temp, target intact)",
    supports_torn_write=True,
)
FAULTS.register(
    "storage.atomic.before-rename",
    "atomic_write: temp durable, target not yet replaced",
)
FAULTS.register(
    "storage.atomic.after-rename",
    "atomic_write: target replaced, directory fsync pending",
    durable=True,
)
FAULTS.register(
    "storage.append.before",
    "append_line: nothing written yet",
)
FAULTS.register(
    "storage.append.payload",
    "append_line: mid-write of the record (torn tail)",
    supports_torn_write=True,
)
FAULTS.register(
    "storage.append.before-fsync",
    "append_line: record written, not yet fsync'd",
    durable=True,
)
FAULTS.register(
    "storage.append.after-write",
    "append_line: record written and fsync'd",
    durable=True,
)


def fsync_directory(path: Path) -> None:
    """Force a directory's entry table to disk (after create/rename).

    Platforms whose directories cannot be opened (notably Windows)
    skip silently — the ``os.replace`` there is already atomic and
    metadata-durable enough for this store's guarantees.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def atomic_write(path: str | Path, text: str, *,
                 encoding: str = "utf-8") -> None:
    """Replace ``path``'s contents with ``text``, atomically.

    Either the old complete contents or the new complete contents are
    on disk at every instant — a crash anywhere inside this function
    never exposes a partial file. The temp file lives in the target's
    directory so the final ``os.replace`` never crosses filesystems.
    """
    target = Path(path)
    FAULTS.fire("storage.atomic.before-write")
    tmp = target.with_name(target.name + ".tmp")
    data = text.encode(encoding) if isinstance(text, str) else text
    with open(tmp, "wb") as handle:
        FAULTS.fire("storage.atomic.payload", handle=handle, data=data)
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    FAULTS.fire("storage.atomic.before-rename")
    os.replace(tmp, target)
    FAULTS.fire("storage.atomic.after-rename")
    fsync_directory(target.parent)


class AppendHandle:
    """The append side of one log file: a single unbuffered
    append-mode descriptor, opened on first use and held until
    :meth:`close`.

    Whoever renames a new file over the log must :meth:`close` first —
    a held descriptor would keep appending to the replaced inode. A
    closed handle reopens on the next append, so closing is always
    safe. When the open *creates* the file, the directory is fsync'd
    before the first record can be acknowledged: an fsync'd record in
    a file whose directory entry is not durable is not durable either.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._file = None
        self._lock = threading.Lock()  # open/close only, never a write

    def file(self):
        """The open descriptor (raw, so every ``write`` is a syscall
        and there is no buffer to flush or to lose)."""
        handle = self._file
        if handle is None:
            with self._lock:
                handle = self._file
                if handle is None:
                    created = not self.path.exists()
                    handle = open(self.path, "ab", buffering=0)
                    if created:
                        fsync_directory(self.path.parent)
                    self._file = handle
        return handle

    def close(self) -> None:
        """Release the descriptor. Idempotent."""
        with self._lock:
            handle, self._file = self._file, None
        if handle is not None:
            handle.close()


def read_span(path: str | Path, offset: int, size: int) -> bytes:
    """The ``size`` bytes of ``path`` at ``offset``: one unbuffered
    positional read, the descriptor opened for it and closed again."""
    with open(path, "rb", buffering=0) as handle:
        handle.seek(offset)
        return handle.read(size)


def cut(path: str | Path, size: int, *, fsync: bool = True) -> None:
    """Shorten ``path`` to its first ``size`` bytes and make that
    durable: how a log takes back what a failed append left behind. A
    missing file is already cut to nothing."""
    try:
        fd = os.open(path, os.O_WRONLY)
    except FileNotFoundError:
        if size:
            raise
        return
    try:
        os.ftruncate(fd, size)
        if fsync:
            os.fsync(fd)
    finally:
        os.close(fd)


def append_line(log: AppendHandle, line: str, *,
                encoding: str = "utf-8", fsync: bool = True) -> int:
    """Append ``line`` (a newline is added) to ``log`` and make it
    durable; returns the number of bytes the log grew by.

    The fsync is what turns "the process wrote it" into "the disk has
    it"; ``fsync=False`` trades that guarantee for speed when the
    caller batches its own syncs. Any failure closes the handle, so a
    retry starts from a fresh descriptor.
    """
    FAULTS.fire("storage.append.before")
    data = (line + "\n").encode(encoding)
    try:
        handle = log.file()
        FAULTS.fire("storage.append.payload", handle=handle, data=data)
        written = handle.write(data)
        while written < len(data):  # short write: finish the frame
            written += handle.write(data[written:])
        FAULTS.fire("storage.append.before-fsync")
        if fsync:
            os.fsync(handle.fileno())
    except BaseException:
        log.close()
        raise
    FAULTS.fire("storage.append.after-write")
    return written
