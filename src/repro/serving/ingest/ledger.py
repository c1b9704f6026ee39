"""Durable checkpoint ledger: which files have already been verdicted.

The ledger is the ingest subsystem's restart memory.  Every file that
enters the watch folder is identified by a *content key* — the SHA-256
:func:`repro.core.artifacts.fingerprint` of its raw bytes — and every
terminal outcome (``done``, ``failed``, ``quarantined``) is appended to
one JSON Lines file.  On restart the ledger is replayed front to back,
so a file whose content was already verdicted is skipped without being
decoded or scored again, no matter how it is named or how often the
scanner rediscovers it.

Semantics (load-bearing for the crash-restart test):

* **At-least-once, idempotent by content.**  A crash can lose the
  *unflushed tail* of the ledger, in which case the affected files are
  re-processed after restart — never silently dropped.  Because the key
  is content, re-processing produces the identical verdict, and sink
  consumers that dedupe by ``key`` observe exactly-once.
* **Append-only.**  Outcomes are never rewritten; ``failed`` entries
  accumulate per key, and :meth:`CheckpointLedger.failures` counts them
  so the controller can quarantine a poison file after N attempts.
* **Bounded fsync, paired with the sinks.**  :meth:`record` only
  buffers in memory; :meth:`sync` writes the buffer out and calls
  ``fsync``.  The controller's commit flushes the verdict sinks *first*
  and then calls :meth:`sync`, holding its I/O lock across both — so at
  any stop or crash boundary a file's sink line and its ``done`` entry
  are persisted or discarded together, and a persisted ``done`` always
  implies the sink line preceding it.
* **Corruption-tolerant replay.**  A half-written last line (the crash
  signature of an append-only log) is ignored on load instead of
  poisoning the restart.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.core.artifacts import fingerprint

__all__ = ["CheckpointLedger", "content_key"]

# Terminal statuses: a key with one of these never re-enters the pipeline.
_TERMINAL = frozenset({"done", "quarantined"})


def content_key(raw: bytes) -> str:
    """The ledger key for one file's raw bytes.

    Delegates to the artifact store's :func:`fingerprint` so ingest
    identity and pipeline artifact identity share one hashing scheme
    (stable across processes and sessions, content-only).
    """
    return fingerprint(raw)


class CheckpointLedger:
    """Append-only JSONL record of per-content ingest outcomes.

    Not thread-safe by itself — the ingest controller serializes access
    through its own I/O lock (sinks and ledger must advance in lockstep
    for the commit-pairing guarantee above).
    """

    def __init__(self, path):
        self.path = Path(path)
        self._status: dict[str, str] = {}
        self._failures: dict[str, int] = {}
        self._buffer: list[str] = []
        self._replayed = 0
        self._closed = False
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._replay()
        self._fh = open(self.path, "a", encoding="utf-8")

    def _replay(self) -> None:
        if not self.path.exists():
            return
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    key = entry["key"]
                    status = entry["status"]
                except (json.JSONDecodeError, KeyError, TypeError):
                    # A torn tail line from a crash mid-append; the entry
                    # it would have recorded is simply re-processed.
                    continue
                self._apply(key, status)
                self._replayed += 1

    def _apply(self, key: str, status: str) -> None:
        self._status[key] = status
        if status == "failed":
            self._failures[key] = self._failures.get(key, 0) + 1

    # -- queries --------------------------------------------------------------

    def should_skip(self, key: str) -> bool:
        """Whether this content already reached a terminal outcome."""
        return self._status.get(key) in _TERMINAL

    def status(self, key: str) -> str | None:
        return self._status.get(key)

    def failures(self, key: str) -> int:
        """How many failed attempts this content has accumulated."""
        return self._failures.get(key, 0)

    def replayed_entries(self) -> int:
        """Entries recovered from disk at open (restart observability)."""
        return self._replayed

    # -- writes ---------------------------------------------------------------

    def record(self, key: str, status: str, path, error: str | None = None) -> None:
        """Buffer one outcome and update the in-memory view.

        Nothing touches the file until :meth:`sync` — the controller's
        commit cadence — so the entry and its sink line share one
        durability boundary (see the module docstring).
        """
        if self._closed:
            return
        entry = {
            "key": key,
            "status": status,
            "path": str(path),
            "ts": time.time(),
        }
        if error is not None:
            entry["error"] = error
        self._buffer.append(json.dumps(entry, sort_keys=True) + "\n")
        self._apply(key, status)

    def sync(self) -> None:
        """Write buffered entries out and ``fsync`` (the durability point)."""
        if self._closed:
            return
        if self._buffer:
            self._fh.write("".join(self._buffer))
            self._buffer.clear()
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self, sync: bool = True) -> None:
        """Close the ledger file; idempotent.

        ``sync=False`` discards the unsynced buffer — the
        crash-simulation hook used by the restart tests (a real crash
        never flushes its tail either).
        """
        if self._closed:
            return
        try:
            if sync:
                self.sync()
        except (OSError, ValueError):
            pass
        self._closed = True
        self._fh.close()
