"""Watch-folder source: discover files as a camera drops them.

:class:`WatchSource` turns a directory into a stream of *complete* file
paths.  A file is reported by one of two rules:

* **Stability window** (every file by default).  :meth:`poll` lists the
  directory and reports a file only after its ``(size, mtime_ns)``
  signature has been observed unchanged for ``stable_polls`` consecutive
  polls *and* for ``stable_s`` seconds since it was first observed with
  that signature.  A half-written file — a camera writing in place, an
  upload in flight — keeps changing signature and is never handed to the
  decoder early.  Wake-ups caused by *other* files can add polls but
  cannot shorten the ``stable_s`` part of the window, and :meth:`wait`
  returns when the earliest pending file's window ends, so a file is
  reported on time when no event arrives.
* **Rename proof** (Linux inotify).  A producer that writes a temp file
  and renames it into the folder (``rsync``, ``mv`` from a staging
  directory) hands over a finished file, because a rename is atomic.
  Each poll first reads every queued inotify record.  A file whose last
  record in that read is ``IN_MOVED_TO``, and whose ``.npy`` header
  declares exactly its ``st_size`` (header offset + ∏shape × itemsize;
  formats 1.0 and 2.0; object dtypes refused), is reported by that poll
  without waiting out the window.  A proof serves only the poll that
  read its record.  A later ``IN_CREATE``, ``IN_CLOSE_WRITE`` or
  ``IN_ATTRIB`` for the name in the same read voids it, and an
  ``IN_Q_OVERFLOW`` (the kernel dropped records) voids every proof in
  its read.  ``IN_CLOSE_WRITE`` is never a proof:
  ``np.lib.format.open_memmap`` closes its descriptor with the header
  and full length on disk and then fills the data through the mapping,
  which raises no event.  The rule trusts what renaming producers
  promise: a file is finished before it is renamed in.

Every file without a proof keeps the window: files written in place or
closed after writing, files found by polling or present at start-up,
every file when inotify is off or unavailable (non-Linux, exhausted
watch quota, permissions; :meth:`wait` then degrades to a plain sleep),
files whose header does not match their size, and files re-observed
after :meth:`forget`.

Re-discovery semantics: a reported file is remembered by signature and
not reported again; if its content changes on disk (new signature) it
re-enters the stability window and is reported again — the checkpoint
ledger decides whether the new content has already been verdicted.
Dotfiles, subdirectories and non-matching suffixes are ignored, which
keeps the ledger (``.ingest/``) and quarantine bins safely colocatable
with the watch folder.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import math
import os
import select
import struct
import time
from pathlib import Path

import numpy as np

from repro.serving.dispatcher import debug

__all__ = ["WatchSource"]

# inotify event mask: anything that can make a new stable file appear.
_IN_CREATE = 0x00000100
_IN_CLOSE_WRITE = 0x00000008
_IN_MOVED_TO = 0x00000080
_IN_ATTRIB = 0x00000004
_WATCH_MASK = _IN_CREATE | _IN_CLOSE_WRITE | _IN_MOVED_TO | _IN_ATTRIB
_IN_Q_OVERFLOW = 0x00004000  # always delivered, never requested
_IN_NONBLOCK = os.O_NONBLOCK
# struct inotify_event: wd, mask, cookie, len; then len bytes of name
# (NUL-padded).  A read returns whole records only.
_EVENT = struct.Struct("iIII")


def _proofs(records: bytes) -> set[str]:
    """Names whose last record in ``records`` is ``IN_MOVED_TO``.

    ``records`` is everything one drain read.  After an
    ``IN_Q_OVERFLOW`` record the read may be missing records for any
    name, so it proves nothing.
    """
    last: dict[str, int] = {}
    offset = 0
    while offset + _EVENT.size <= len(records):
        _, mask, _, length = _EVENT.unpack_from(records, offset)
        offset += _EVENT.size
        if mask & _IN_Q_OVERFLOW:
            return set()
        name = records[offset:offset + length].split(b"\0", 1)[0]
        offset += length
        if name:
            last[os.fsdecode(name)] = mask
    return {name for name, mask in last.items() if mask & _IN_MOVED_TO}


def _declared_length(path: Path) -> int | None:
    """The file length a ``.npy`` header declares, or ``None``.

    Header offset + ∏shape × itemsize for format 1.0 and 2.0 headers;
    ``None`` for any other file, format or read error, and for object
    dtypes, whose length the header cannot declare.
    """
    try:
        with open(path, "rb") as fh:
            version = np.lib.format.read_magic(fh)
            if version == (1, 0):
                shape, _, dtype = np.lib.format.read_array_header_1_0(fh)
            elif version == (2, 0):
                shape, _, dtype = np.lib.format.read_array_header_2_0(fh)
            else:
                return None
            offset = fh.tell()
    except (OSError, ValueError, TypeError):
        return None
    if dtype.hasobject:
        return None
    return offset + math.prod(shape) * dtype.itemsize


class _Inotify:
    """Minimal ctypes inotify wrapper; ``None`` wherever it can't work."""

    def __init__(self, fd: int):
        self.fd = fd

    @classmethod
    def try_create(cls, root: Path) -> "_Inotify | None":
        try:
            libc = ctypes.CDLL(ctypes.util.find_library("c") or "libc.so.6",
                               use_errno=True)
            fd = libc.inotify_init1(_IN_NONBLOCK)
            if fd < 0:
                return None
            wd = libc.inotify_add_watch(
                fd, os.fsencode(str(root)), _WATCH_MASK
            )
            if wd < 0:
                os.close(fd)
                return None
            return cls(fd)
        except (OSError, AttributeError, TypeError):
            return None

    def wait(self, timeout: float) -> None:
        """Block up to ``timeout`` seconds or until a record is queued.

        Records stay queued for the next :meth:`proofs`.
        """
        try:
            select.select([self.fd], [], [], timeout)
        except (OSError, ValueError):
            pass

    def proofs(self) -> set[str]:
        """Read every queued record, until ``EAGAIN``; the names proved."""
        chunks = []
        while True:
            try:
                chunk = os.read(self.fd, 65536)
            except BlockingIOError:
                break
            except OSError:
                return set()  # a broken read proves nothing
            if not chunk:
                break
            chunks.append(chunk)
        return _proofs(b"".join(chunks))

    def close(self) -> None:
        try:
            os.close(self.fd)
        except OSError:
            pass


class WatchSource:
    """Stable-file discovery over one directory (see module docstring)."""

    def __init__(self, root, suffixes: tuple[str, ...] = (".npy",),
                 stable_polls: int = 2, stable_s: float = 0.0,
                 use_inotify: bool = True):
        self.root = Path(root)
        if not self.root.is_dir():
            raise ValueError(
                f"watch directory {str(self.root)!r} does not exist "
                "or is not a directory"
            )
        self.suffixes = tuple(s.lower() for s in suffixes)
        self.stable_polls = max(1, int(stable_polls))
        self.stable_s = max(0.0, float(stable_s))
        # path -> (signature, consecutive observations of that signature,
        #          monotonic time it was first observed)
        self._pending: dict[Path, tuple[tuple[int, int], int, float]] = {}
        # path -> signature it was last *reported* with
        self._reported: dict[Path, tuple[int, int]] = {}
        self.proved = 0  # files reported on a rename proof
        self._inotify = _Inotify.try_create(self.root) if use_inotify else None
        if self._inotify is not None:
            debug(f"watch source on {self.root}: inotify fast path active")

    @property
    def inotify_active(self) -> bool:
        return self._inotify is not None

    def _candidates(self) -> list[Path]:
        try:
            entries = sorted(os.scandir(self.root), key=lambda e: e.name)
        except OSError:
            return []
        out = []
        for entry in entries:
            if entry.name.startswith("."):
                continue
            if not entry.name.lower().endswith(self.suffixes):
                continue
            try:
                if not entry.is_file(follow_symlinks=False):
                    continue
            except OSError:
                continue
            out.append(Path(entry.path))
        return out

    def poll(self) -> list[Path]:
        """One scan; returns the files that just became reportable, name order.

        The records read first serve this scan only: a file renamed in
        after the read is listed without a proof and proved by the next
        scan, which the queued record wakes at once.
        """
        proved = self._inotify.proofs() if self._inotify is not None else set()
        now = time.monotonic()
        seen = set()
        ready: list[Path] = []
        for path in self._candidates():
            seen.add(path)
            try:
                stat = path.stat()
            except OSError:
                continue  # raced with a delete/move
            signature = (stat.st_size, stat.st_mtime_ns)
            if self._reported.get(path) == signature:
                continue  # already handed out in this incarnation
            prev, count, first = self._pending.get(path, (None, 0, now))
            if prev != signature:
                count, first = 0, now
            count += 1
            if (path.name in proved
                    and _declared_length(path) == stat.st_size):
                self.proved += 1
            elif count < self.stable_polls or now - first < self.stable_s:
                self._pending[path] = (signature, count, first)
                continue
            self._pending.pop(path, None)
            self._reported[path] = signature
            ready.append(path)
        # Forget files that vanished (moved to bins, deleted) so a later
        # file reusing the name is observed fresh.
        for tracked in (self._pending.keys() - seen):
            del self._pending[tracked]
        for tracked in (self._reported.keys() - seen):
            del self._reported[tracked]
        return ready

    def forget(self, path: Path) -> None:
        """Drop a path from discovery memory so the next poll re-reports it.

        The controller's retry hook: a file whose read or submit failed
        below the quarantine threshold is forgotten here, re-enters the
        stability window on the next scan, and gets another attempt.
        """
        self._pending.pop(path, None)
        self._reported.pop(path, None)

    def has_pending(self) -> bool:
        """Whether any file is mid-stability-window (not yet reportable)."""
        return bool(self._pending)

    def wait(self, timeout: float) -> None:
        """Sleep until the next poll is due, or earlier on inotify activity.

        The next poll is due after ``timeout`` seconds, or sooner when the
        earliest pending file's ``stable_s`` window ends first.
        """
        if self._pending and self.stable_s > 0:
            first = min(first for _, _, first in self._pending.values())
            timeout = min(timeout, first + self.stable_s - time.monotonic())
        if timeout <= 0:
            return
        if self._inotify is not None:
            self._inotify.wait(timeout)
        else:
            time.sleep(timeout)

    def close(self) -> None:
        if self._inotify is not None:
            self._inotify.close()
            self._inotify = None
