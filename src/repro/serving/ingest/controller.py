"""Ingest controller: watch folder in, verdict sinks out, ledger between.

:class:`IngestController` owns the always-on inspection loop that turns a
:class:`~repro.serving.pool.ServingPool` into an inspection station:

* A **scan thread** polls the :class:`~repro.serving.ingest.source.
  WatchSource` (woken early by inotify when available, which also
  proves renamed-in files complete), hashes each newly-reported file
  (:func:`~repro.serving.ingest.ledger.content_key`), skips content the
  :class:`~repro.serving.ingest.ledger.CheckpointLedger` already
  verdicted, decodes the rest and submits each image to
  ``pool.submit`` — **with backpressure**: a bounded in-flight
  semaphore keeps the dispatcher's queue from ballooning when files
  arrive faster than the pool scores them.  A submit refused because the
  pool is draining backs off for the shared ``Retry-After`` interval
  (:func:`repro.serving.protocol.retry_after_for` — the same number the
  HTTP fronts put on their 503s) and retries; a terminally failed pool
  fails the controller loudly instead of spinning.
* A **writer thread** receives settled predictions (the dispatcher's
  completion callback enqueues them; no thread is parked per request)
  and records them by *group commit*: it takes every prediction already
  queued (at most ``commit_lines``), writes one verdict dict per file to
  every sink and a ``done`` entry to the ledger, then commits the group
  once — all sinks flushed, then the ledger fsynced, under one lock.  A
  quiet line pays one commit per verdict the moment it settles; a
  backlog forms its own batches while the previous commit runs, and
  ``commit_lines`` caps the work that is not yet durable.  Failure
  entries the scan thread records are committed on the spot, so nothing
  recorded stays uncommitted while the writer is idle, and a file leaves
  the in-flight registry only after its commit: :meth:`IngestController.
  wait_idle` returning means every verdict is on disk.  The
  sink-then-ledger pairing is the crash contract: at any kill boundary a
  verdict's sink lines and its ledger entry persist or vanish together,
  so a restart re-processes exactly the unrecorded files (at-least-once,
  idempotent by content hash — pinned by the crash-restart tests).
* A **failed commit** (``ENOSPC`` or ``EIO`` from a sink flush or the
  ledger fsync), or any other error on either thread, fails the
  controller loudly: ``stats()["failure"]`` and ``GET /healthz`` report
  it, :meth:`IngestController.wait_idle` returns, and the CLI exits 3.
  A failed commit is never retried — after an ``EIO`` a second fsync
  can report success for data the first one lost — so, as in a crash,
  whatever it did not make durable is discarded and re-scored on
  restart.
* **Poison files** — undecodable, non-2-D, or repeatedly failing to
  score — are retried up to ``max_failures`` attempts (each recorded in
  the ledger), then moved to the quarantine directory and marked
  ``quarantined`` so they can never wedge the loop again.

Determinism: every file is submitted as its own single-image request, so
each verdict is byte-identical to single-process
``InspectorGadget.load(profile).predict([image])`` for any worker count —
the same per-request invariant the HTTP fronts pin, extended to the
watch-folder path by the ingest benchmark.
"""

from __future__ import annotations

import io
import queue
import threading
import time
from pathlib import Path

import numpy as np

from repro.serving.dispatcher import ServingError, debug
from repro.serving.ingest.ledger import CheckpointLedger, content_key
from repro.serving.ingest.sinks import Sink
from repro.serving.ingest.source import WatchSource
from repro.serving.protocol import response_payload, retry_after_for

__all__ = ["IngestController", "start_ingest"]

_STOP = object()  # writer-loop sentinel


class IngestController:
    """The watch-folder ingest loop over one serving pool.

    Construction wires everything but starts nothing; :meth:`start`
    launches the scan and writer threads (``start_ingest`` does both).
    Knob defaults come from ``pool.config`` (the validated ``ingest_*``
    slice of :class:`~repro.core.config.ServingConfig`); keyword
    overrides exist for tests and embedders.

    The controller attaches itself to the pool
    (:meth:`~repro.serving.pool.ServingPool.attach_ingest`), which is how
    ``GET /healthz`` and ``GET /profile`` surface live ingest counters on
    the HTTP front end without transport-specific wiring.
    """

    def __init__(self, pool, watch_dir, sinks: list[Sink],
                 ledger_path=None, *,
                 quarantine_dir=None,
                 poll_interval_s: float | None = None,
                 stable_polls: int | None = None,
                 max_in_flight: int | None = None,
                 max_failures: int | None = None,
                 commit_lines: int | None = None,
                 suffixes: tuple[str, ...] | None = None,
                 use_inotify: bool = True,
                 once: bool = False):
        config = pool.config
        self.pool = pool
        self.watch_dir = Path(watch_dir)
        self.sinks = list(sinks)
        self.once = once
        self.poll_interval_s = (config.ingest_poll_interval_s
                                if poll_interval_s is None else poll_interval_s)
        self.max_in_flight = (config.ingest_max_in_flight
                              if max_in_flight is None else max_in_flight)
        self.max_failures = (config.ingest_max_failures
                             if max_failures is None else max_failures)
        self.commit_lines = (config.ingest_commit_lines
                             if commit_lines is None else commit_lines)
        self.quarantine_dir = Path(
            quarantine_dir if quarantine_dir is not None
            else self.watch_dir / ".ingest" / "quarantine"
        )
        if stable_polls is None:
            stable_polls = config.ingest_stable_polls
        # The stability window lasts as long as its polls would at the
        # configured cadence, however often inotify wakes the scanner.
        self.source = WatchSource(
            self.watch_dir,
            suffixes=(config.ingest_suffixes if suffixes is None
                      else tuple(suffixes)),
            stable_polls=stable_polls,
            stable_s=max(0, stable_polls - 1) * self.poll_interval_s,
            use_inotify=use_inotify,
        )
        self.ledger = CheckpointLedger(
            ledger_path if ledger_path is not None
            else self.watch_dir / ".ingest" / "ledger.jsonl"
        )
        self._sem = threading.Semaphore(self.max_in_flight)
        self._results: queue.Queue = queue.Queue()
        self._stop = threading.Event()
        self._idle = threading.Event()
        self._lock = threading.Lock()      # counters + pending registry
        self._io_lock = threading.Lock()   # sinks + ledger move in lockstep
        self._pending: dict[Path, tuple[str, float]] = {}  # path -> (key, t0)
        self._counters = {
            "discovered": 0, "processed": 0, "skipped": 0,
            "failed": 0, "quarantined": 0, "retries": 0, "commits": 0,
        }
        self._failure: str | None = None
        # Files to re-observe after a failed attempt.  The scan thread
        # forgets them before its next poll (the source is its own), and
        # must not declare idle (or, in once mode, exit) meanwhile.
        self._retry: set[Path] = set()
        self._uncommitted = 0  # ledger entries buffered since the last commit
        self._commit_failed = False  # once set, nothing more is committed
        self._started = False
        self._stopped = False
        self._scan_thread = threading.Thread(
            target=self._scan_loop, name="ingest-scan", daemon=True
        )
        self._writer_thread = threading.Thread(
            target=self._writer_loop, name="ingest-writer", daemon=True
        )
        pool.attach_ingest(self)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "IngestController":
        self._started = True
        self._writer_thread.start()
        self._scan_thread.start()
        return self

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until the backlog is fully drained (or timeout).

        Idle means: a poll found no new work, no file is mid-stability,
        and every admitted file has its verdict (or failure) committed —
        on disk, not just buffered.  New arrivals clear the flag again
        unless ``once`` stopped the scanner.  A failed controller is idle
        too; check ``stats()["failure"]``.
        """
        return self._idle.wait(timeout)

    def stop(self, drain: bool = True, flush: bool = True,
             timeout: float = 30.0) -> None:
        """Stop scanning and tear the loop down; idempotent.

        ``drain=True`` waits (bounded by ``timeout``, and not at all once
        the controller has failed) for every in-flight file to settle and
        be committed.  ``drain=False, flush=False`` is the crash hatch:
        abandon in-flight work and *discard* uncommitted sink/ledger
        buffers, byte-for-byte what a SIGKILL would leave on disk — the
        restart tests drive this path.  The final commit is skipped after
        a failed one and, when it fails itself, recorded as the
        controller's failure rather than raised; either way the buffers
        are discarded the same way.
        """
        if self._stopped:
            return
        self._stopped = True
        self._stop.set()
        if self._started:
            self._scan_thread.join(timeout=timeout)
        if drain and self._started:
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                with self._lock:
                    if not self._pending or self._failure is not None:
                        break
                time.sleep(0.02)
        self._results.put(_STOP)
        if self._started:
            self._writer_thread.join(timeout=timeout)
        durable = flush and self._commit()
        for sink in self.sinks:
            try:
                sink.close(flush=durable)
            except OSError:
                pass
        self.ledger.close(sync=durable)
        self.source.close()

    # -- scan thread ----------------------------------------------------------

    def _scan_loop(self) -> None:
        try:
            self._scan()
        except Exception as exc:  # a dead scanner must not look alive
            self._fail(f"scan failed: {exc!r}")
        # A failed controller must not leave wait_idle callers hanging
        # (the last pass may have cleared the flag _fail set).
        if self._failure is not None:
            self._idle.set()

    def _scan(self) -> None:
        while not self._stop.is_set():
            with self._lock:
                retry, self._retry = self._retry, set()
            for path in retry:
                self.source.forget(path)
            for path in self.source.poll():
                if self._stop.is_set():
                    break
                self._admit(path)
            with self._lock:
                idle = (not self._retry
                        and not self.source.has_pending()
                        and not self._pending
                        and self._results.empty())
            if idle:
                self._idle.set()
                if self.once:
                    return
            else:
                self._idle.clear()
            self.source.wait(self.poll_interval_s)

    def _admit(self, path: Path) -> None:
        """Hash, dedupe, decode and submit one newly-stable file."""
        with self._lock:
            self._counters["discovered"] += 1
        try:
            raw = path.read_bytes()
        except OSError:
            # Raced with a move/delete (or a transient read error):
            # re-observe on the next poll.
            with self._lock:
                self._retry.add(path)
            return
        key = content_key(raw)
        with self._io_lock:
            skip = self.ledger.should_skip(key)
        if skip:
            debug(f"ingest skip {path.name}: content already verdicted")
            with self._lock:
                self._counters["skipped"] += 1
            return
        try:
            image = np.load(io.BytesIO(raw), allow_pickle=False)
            if not isinstance(image, np.ndarray):
                raise ValueError(f"decoded to {type(image).__name__}, "
                                 "not an array")
        except Exception as exc:  # np.load raises a small zoo of types
            self._record_failure(path, key, f"decode failed: {exc}")
            return
        # Backpressure: bound the in-flight set before touching the pool.
        while not self._sem.acquire(timeout=0.1):
            if self._stop.is_set():
                return
        with self._lock:
            self._pending[path] = (key, time.monotonic())
        while True:
            if self._stop.is_set():
                self._abandon(path)
                return
            try:
                handle = self.pool.submit([image])
                break
            except ValueError as exc:
                # Request validation (non-2-D, non-numeric): a poison
                # file, not a pool condition.  Record while the path is
                # still in the pending set so the scan loop cannot slip
                # into idle between the failure and its retry.
                self._record_failure(path, key, str(exc))
                self._abandon(path)
                return
            except ServingError as exc:
                if self.pool.health().failure is not None:
                    self._abandon(path)
                    self._fail(f"serving pool failed: {exc}")
                    return
                # Draining/refusing: back off exactly as a well-behaved
                # HTTP client would on the 503 this submit maps to.
                with self._lock:
                    self._counters["retries"] += 1
                self._stop.wait(retry_after_for(503) or 1.0)
        handle.add_done_callback(
            lambda h, p=path, k=key: self._results.put((p, k, h))
        )

    def _abandon(self, path: Path) -> None:
        with self._lock:
            self._pending.pop(path, None)
        self._sem.release()

    def _fail(self, message: str) -> None:
        debug(f"ingest controller failed: {message}")
        with self._lock:
            if self._failure is None:  # the first cause is the one to show
                self._failure = message
        self._stop.set()
        self._idle.set()

    # -- writer thread --------------------------------------------------------

    def _writer_loop(self) -> None:
        try:
            while self._write_group():
                pass
        except Exception as exc:  # a dead writer must not look alive
            self._fail(f"commit failed: {exc!r}")

    def _write_group(self) -> bool:
        """Record and commit one group; False once the stop sentinel is taken.

        The group-commit rule: block for the first settled prediction,
        then take every one already queued, up to ``commit_lines``.
        """
        group = [self._results.get()]
        while group[-1] is not _STOP and len(group) < self.commit_lines:
            try:
                group.append(self._results.get_nowait())
            except queue.Empty:
                break
        running = group[-1] is not _STOP
        if not running:
            group.pop()
        outcomes = []  # per file: None if verdicted, else quarantined
        with self._io_lock:
            for path, key, handle in group:
                try:
                    weak = handle.result(timeout=0)
                except Exception as exc:
                    outcomes.append(self._record_failure_locked(
                        path, key, f"scoring failed: {exc}"))
                    continue
                payload = response_payload(weak)
                verdict = {
                    "path": str(path),
                    "serial": path.stem,
                    "key": key,
                    "label": payload["labels"][0],
                    "confidence": payload["confidence"][0],
                    "probs": payload["probs"][0],
                }
                for sink in self.sinks:
                    sink.write(verdict)
                self.ledger.record(key, "done", path)
                self._uncommitted += 1
                outcomes.append(None)
            self._commit_locked()
        # Only now, with the group on disk, do its files leave the
        # in-flight registry: idle implies durable.
        with self._lock:
            for (path, _, _), quarantined in zip(group, outcomes):
                if quarantined is None:
                    self._counters["processed"] += 1
                else:
                    self._count_failure_locked(path, quarantined)
                self._pending.pop(path, None)
        for _ in group:
            self._sem.release()
        return running

    def _commit(self) -> bool:
        """Commit whatever is buffered; a failure fails the controller."""
        try:
            with self._io_lock:
                self._commit_locked()
        except Exception as exc:
            self._fail(f"commit failed: {exc!r}")
            return False
        return True

    def _commit_locked(self) -> None:
        """Flush sinks, then fsync the ledger — in that order, atomically.

        Caller holds ``_io_lock``.  The ordering is the at-least-once
        guarantee: a durable ledger ``done`` implies its sink lines were
        flushed in the same commit (see ``ledger.py``).  Every sink line
        is written alongside a ledger entry, so an empty ledger buffer
        means there is nothing to commit.
        """
        if self._uncommitted == 0:
            return
        if self._commit_failed:
            raise OSError("not retried after a failed commit")
        try:
            for sink in self.sinks:
                sink.flush()
            self.ledger.sync()
        except Exception:
            self._commit_failed = True
            raise
        self._uncommitted = 0
        with self._lock:
            self._counters["commits"] += 1

    # -- failures / quarantine ------------------------------------------------

    def _record_failure(self, path: Path, key: str, message: str) -> None:
        """Record and commit one failed attempt seen by the scan thread."""
        with self._io_lock:
            quarantined = self._record_failure_locked(path, key, message)
        if self._commit():
            with self._lock:
                self._count_failure_locked(path, quarantined)

    def _record_failure_locked(self, path: Path, key: str,
                               message: str) -> bool:
        """Buffer a ``failed`` entry (and quarantine after ``max_failures``).

        Caller holds ``_io_lock`` and commits.  Returns whether the file
        was quarantined.
        """
        debug(f"ingest failure for {path.name}: {message}")
        self.ledger.record(key, "failed", path, error=message)
        self._uncommitted += 1
        if self.ledger.failures(key) < self.max_failures:
            return False
        target = self._quarantine(path, key)
        self.ledger.record(key, "quarantined", target, error=message)
        self._uncommitted += 1
        return True

    def _count_failure_locked(self, path: Path, quarantined: bool) -> None:
        """Count a committed failure; caller holds ``_lock``.

        A file below the quarantine threshold is queued for re-observation
        so retries happen within this run (a transient read/score hiccup
        heals; a true poison file burns through its budget and lands in
        quarantine).
        """
        self._counters["failed"] += 1
        if quarantined:
            self._counters["quarantined"] += 1
        else:
            self._retry.add(path)

    def _quarantine(self, path: Path, key: str) -> Path:
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        target = self.quarantine_dir / path.name
        if target.exists():
            target = self.quarantine_dir / f"{key[:12]}-{path.name}"
        try:
            path.replace(target)
        except OSError:
            return path  # already gone; the ledger entry still poisons it
        return target

    # -- observability --------------------------------------------------------

    def stats(self) -> dict:
        """Live counters for ``GET /healthz`` (one JSON-ready dict).

        ``proved`` counts the files reported on a rename proof instead of
        after the stability window: whether the producer gets the fast
        path.
        """
        now = time.monotonic()
        with self._lock:
            lag = 0.0
            if self._pending:
                lag = max(0.0, now - min(t0 for _, t0 in
                                         self._pending.values()))
            return {
                "watch_dir": str(self.watch_dir),
                "running": (self._started and not self._stopped
                            and self._failure is None),
                "failure": self._failure,
                "in_flight": len(self._pending),
                "lag_s": round(lag, 3),
                "idle": self._idle.is_set(),
                **self._counters,
                "proved": self.source.proved,
            }

    def config_summary(self) -> dict:
        """Static wiring for ``GET /profile`` (what, not how much)."""
        return {
            "watch_dir": str(self.watch_dir),
            "sinks": [sink.describe() for sink in self.sinks],
            "ledger": str(self.ledger.path),
            "quarantine_dir": str(self.quarantine_dir),
            "poll_interval_s": self.poll_interval_s,
            "stable_polls": self.source.stable_polls,
            "stable_s": self.source.stable_s,
            "max_in_flight": self.max_in_flight,
            "max_failures": self.max_failures,
            "commit_lines": self.commit_lines,
            "suffixes": list(self.source.suffixes),
            "inotify": self.source.inotify_active,
            "ledger_replayed": self.ledger.replayed_entries(),
        }


def start_ingest(pool, watch_dir, sinks: list[Sink], ledger_path=None,
                 **kwargs) -> IngestController:
    """Build and start an :class:`IngestController`; the one-call form.

    ``kwargs`` are forwarded to the constructor (knob overrides, ``once``,
    ``quarantine_dir``, ...).  Returns the running controller; callers own
    its :meth:`~IngestController.stop`.
    """
    return IngestController(
        pool, watch_dir, sinks, ledger_path, **kwargs
    ).start()
