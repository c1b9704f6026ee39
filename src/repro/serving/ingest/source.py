"""Watch-folder source: discover files as a camera drops them.

:class:`WatchSource` turns a directory into a stream of *stable* file
paths.  Correctness comes entirely from the polling scanner; the
optional inotify channel is only a latency accelerator:

* **Polling scanner.**  :meth:`poll` lists the directory and applies a
  stability check: a file is reported only after its ``(size,
  mtime_ns)`` signature has been observed unchanged for
  ``stable_polls`` consecutive polls *and* for ``stable_s`` seconds
  since it was first observed with that signature.  A half-written file
  — a camera mid-upload, an ``rsync`` in flight — keeps changing
  signature and is never handed to the decoder early.  Atomic producers
  (write to a temp name, ``rename`` in) clear the check as soon as both
  conditions hold.
* **inotify fast path** (Linux, best-effort).  :meth:`wait` blocks on an
  inotify descriptor for the watch directory when the kernel offers one,
  so a dropped file wakes the scanner immediately instead of after a
  full poll interval.  When inotify is unavailable (non-Linux, exhausted
  watch quota, permissions) ``wait`` degrades to a plain sleep.  Either
  way only latency changes: wake-ups caused by *other* files can add
  polls but cannot shorten the ``stable_s`` part of the window, and
  :meth:`wait` returns when the earliest pending file's window ends, so
  a file is still reported on time when no event arrives.

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
import os
import select
import time
from pathlib import Path

from repro.serving.dispatcher import debug

__all__ = ["WatchSource"]

# inotify event mask: anything that can make a new stable file appear.
_IN_CREATE = 0x00000100
_IN_CLOSE_WRITE = 0x00000008
_IN_MOVED_TO = 0x00000080
_IN_ATTRIB = 0x00000004
_WATCH_MASK = _IN_CREATE | _IN_CLOSE_WRITE | _IN_MOVED_TO | _IN_ATTRIB
_IN_NONBLOCK = os.O_NONBLOCK


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

    def wait(self, timeout: float) -> bool:
        """Block up to ``timeout`` seconds; True when activity woke us."""
        try:
            ready, _, _ = select.select([self.fd], [], [], timeout)
        except (OSError, ValueError):
            return False
        if not ready:
            return False
        try:  # drain: events only *wake* the scanner, the scan sees all
            os.read(self.fd, 65536)
        except OSError:
            pass
        return True

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
        """One scan; returns the files that just became stable, name order."""
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
            if count >= self.stable_polls and now - first >= self.stable_s:
                self._pending.pop(path, None)
                self._reported[path] = signature
                ready.append(path)
            else:
                self._pending[path] = (signature, count, first)
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
