"""The serving pool: N profile-loaded worker processes behind one facade.

``ServingPool`` turns a saved profile into a serving daemon::

    with ServingPool("ksdd.igz", workers=4) as pool:
        weak = pool.predict(images)            # batch request
        one = pool.predict(image)              # single-image request
        handle = pool.submit(images)           # async; handle.result()

Lifecycle: construction loads the profile once in the parent (failing fast
with the :class:`~repro.core.pipeline.ProfileError` hierarchy on a bad
file), starts ``config.workers`` processes that each call
``InspectorGadget.load`` on the same path and pre-build their matching
plans (``config.warmup_shapes``), and blocks until every worker reports
ready.  Requests then flow through the :class:`~repro.serving.dispatcher.
Dispatcher`'s micro-batching; :meth:`health` and :meth:`ping` observe the
pool; :meth:`drain` stops intake and waits for in-flight work; and
:meth:`shutdown` (or the context manager) tears everything down.  The
HTTP front end (:mod:`repro.serving.http`) sits on top of
:meth:`predict`.

A worker that dies mid-flight is replaced automatically — its in-flight
tasks are resubmitted to the replacement — at most ``config.max_respawns``
times over the pool's lifetime; past that budget the pool fails pending
requests with :class:`ServingError` rather than retrying forever.  Workers
that cannot even start (e.g. the profile was deleted after construction)
fail startup immediately instead of burning the budget.

Tasks cross the process boundary as pickled image lists on the worker's
task queue, and feature rows come back pickled on its result queue.

Queue topology (load-bearing for crash safety): every worker gets its own
task queue *and* its own result queue, each with exactly one writer and
one reader.  A SIGKILLed process can die holding a queue's internal
cross-process write lock; with a shared result queue that poisons every
surviving worker's replies (observed as a pool-wide hang on 1-CPU hosts,
where the window between a worker's last write and the lock release is
widest).  Per-worker queues confine the damage to the dead worker's own
queues, which are discarded on respawn.  The parent also closes its
inherited copy of each result-queue writer, so a dead worker yields a
clean EOF instead of a silent stall.

Determinism: for any worker count, batching setting, and interleaving of
single/batch requests, every response is byte-identical to what
single-process ``InspectorGadget.load(path).predict(...)`` returns for the
same images — see the dispatcher module docstring for why.
"""

from __future__ import annotations

import multiprocessing as mp
import queue
import threading
import time
from multiprocessing.connection import wait as connection_wait
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.core.config import ServingConfig
from repro.core.pipeline import InspectorGadget
from repro.labeler.weak_labels import WeakLabels
from repro.serving.dispatcher import (
    Dispatcher,
    PendingPrediction,
    ServingError,
    debug,
    t_images,
)
from repro.serving.protocol import coerce_images
from repro.serving.worker import worker_main

__all__ = ["ServingPool", "WorkerStatus", "PoolHealth"]


@dataclass
class WorkerStatus:
    """Point-in-time view of one worker, for :meth:`ServingPool.health`."""

    worker_id: int
    pid: int | None
    alive: bool
    ready: bool
    outstanding_tasks: int
    outstanding_images: int
    tasks_done: int


@dataclass
class PoolHealth:
    """Point-in-time view of the whole pool."""

    workers: list[WorkerStatus]
    pending_requests: int
    respawns_left: int
    failure: str | None

    @property
    def ok(self) -> bool:
        return self.failure is None and all(
            w.alive and w.ready for w in self.workers
        )


@dataclass
class _WorkerHandle:
    """Parent-side bookkeeping for one worker process."""

    worker_id: int
    process: object
    task_queue: object
    result_queue: object
    outstanding: dict = field(default_factory=dict)  # task_id -> _Task
    tasks_done: int = 0
    ready: bool = False
    fingerprint: str | None = None
    startup_error: str | None = None


class ServingPool:
    """Multi-process serving front end for one saved profile.

    ``config`` carries the deployment knobs (:class:`ServingConfig`);
    keyword overrides are applied on top, so ``ServingPool(path,
    workers=4)`` works without building a config by hand.
    """

    def __init__(self, profile_path, config: ServingConfig | None = None,
                 **overrides):
        base = config or ServingConfig()
        if overrides:
            base = replace(base, **overrides)
        self.config = base
        self.profile_path = str(profile_path)
        # The parent holds its own copy: the labeler runs here (once per
        # assembled request), and a bad profile fails construction with a
        # ProfileError before any process is spawned.
        self._pipeline = InspectorGadget.load(self.profile_path)
        self._n_patterns = len(self._pipeline.feature_generator.patterns)
        self._ctx = mp.get_context(self.config.start_method)
        self._lock = threading.RLock()
        self._workers: dict[int, _WorkerHandle] = {}
        self._respawns_left = self.config.max_respawns
        self._stopping = False
        self._closed = False
        self._dispatcher: Dispatcher | None = None
        self._ingest = None
        try:
            for worker_id in range(self.config.workers):
                self._workers[worker_id] = self._spawn_worker(worker_id)
            self._await_startup()
        except BaseException:
            self._terminate_workers()
            self._release_queues()
            raise
        self._dispatcher = Dispatcher(
            self, self._pipeline.labeler, self._n_patterns,
            max_batch=self.config.max_batch,
            max_wait_ms=self.config.max_wait_ms,
        )
        self._dispatcher.start()

    # -- requests -------------------------------------------------------------

    def predict(self, images, timeout: float | None = None) -> WeakLabels:
        """Weak labels for a single 2-D image or a list of images.

        Args:
            images: one 2-D numeric array, or a non-empty list of them
                (mixed shapes are fine; each image is matched on its own).
            timeout: seconds to block for the response; defaults to
                ``config.request_timeout_s``.

        Returns:
            The request's :class:`~repro.labeler.weak_labels.WeakLabels`,
            byte-identical to single-process ``predict`` on the same
            images for any worker count or batching setting.

        Raises:
            ValueError: the images fail request validation (empty
                request, non-numeric or non-2-D entries).
            ServingError: the pool is draining, shut down, or failed.
            TimeoutError: no response within ``timeout`` seconds.
        """
        if timeout is None:
            timeout = self.config.request_timeout_s
        return self.submit(images).result(timeout)

    def submit(self, images) -> PendingPrediction:
        """Queue a request without blocking.

        Accepts the same inputs as :meth:`predict` and applies the same
        validation (the shared :func:`repro.serving.protocol.coerce_images`
        — every front end rejects a bad request at its own boundary, with
        the same message, before it can reach a worker and poison a
        coalesced micro-batch).

        Returns:
            A :class:`~repro.serving.dispatcher.PendingPrediction`;
            call ``.result(timeout)`` for the response.

        Raises:
            ValueError: the images fail request validation.
            ServingError: the pool is draining, shut down, or failed.
        """
        if self._closed:
            raise ServingError("serving pool is shut down")
        return self._dispatcher.submit(coerce_images(images))

    # -- observability --------------------------------------------------------

    def health(self) -> PoolHealth:
        """Liveness, readiness and load of every worker plus pool state."""
        with self._lock:
            workers = [
                WorkerStatus(
                    worker_id=handle.worker_id,
                    pid=handle.process.pid,
                    alive=handle.process.is_alive(),
                    ready=handle.ready,
                    outstanding_tasks=len(handle.outstanding),
                    outstanding_images=sum(
                        t_images(task) for task in handle.outstanding.values()
                    ),
                    tasks_done=handle.tasks_done,
                )
                for handle in self._workers.values()
            ]
            failure = None
            if self._dispatcher is not None and \
                    self._dispatcher._failure is not None:
                failure = str(self._dispatcher._failure)
            pending = 0 if self._dispatcher is None else \
                self._dispatcher.pending_requests()
            return PoolHealth(
                workers=workers,
                pending_requests=pending,
                respawns_left=self._respawns_left,
                failure=failure,
            )

    def ping(self, timeout: float = 5.0) -> dict[int, float]:
        """Round-trip latency per responsive worker.

        Returns ``worker_id -> seconds`` for the workers that answered
        within ``timeout``; a missing entry means "dead or busier than
        ``timeout``", not necessarily dead (a busy worker answers after
        its current task).  Raises :class:`ServingError` when the pool is
        terminally failed.
        """
        return self._dispatcher.ping(timeout)

    def attach_ingest(self, controller) -> None:
        """Register the watch-folder ingest controller feeding this pool.

        Called by :class:`~repro.serving.ingest.controller.
        IngestController` on construction.  Attachment is purely for
        observability: it is how the HTTP front end surfaces live ingest
        counters on ``GET /healthz`` and the wiring on ``GET /profile``
        without transport-specific plumbing.
        """
        self._ingest = controller

    def ingest_stats(self) -> dict | None:
        """Live ingest counters, or ``None`` when no watcher is attached."""
        return None if self._ingest is None else self._ingest.stats()

    def serving_fingerprint(self) -> str:
        """Fingerprint of the profile being served (deployment audits).

        Two pools with equal fingerprints answer byte-identically, so this
        is the cache/routing key for a fleet.
        """
        return self._pipeline.serving_fingerprint()

    def profile_summary(self) -> dict:
        """The loaded profile and pool tuning as plain JSON-ready data.

        What ``GET /profile`` serves: the ``serving_fingerprint()``, the
        profile's provenance (pattern count, class count, the labeler
        architecture search summary when the profile was tuned), and the
        dispatch knobs that shape latency without ever shaping answers.  When a watch-folder controller is attached,
        an ``ingest`` key describes its static wiring (watch dir, sinks,
        ledger, knobs); live counters live on ``/healthz`` instead.
        """
        pipeline = self._pipeline
        tuning = None
        if pipeline.tuning is not None:
            tuning = {
                "best_hidden": list(pipeline.tuning.best_hidden),
                "best_score": float(pipeline.tuning.best_score),
                "architectures_searched": len(pipeline.tuning.scores),
            }
        summary = {
            "fingerprint": self.serving_fingerprint(),
            "profile_path": self.profile_path,
            "n_patterns": self._n_patterns,
            "n_classes": pipeline.labeler.n_classes,
            "tuning": tuning,
            "pool": {
                "workers": self.config.workers,
                "max_batch": self.config.max_batch,
                "max_wait_ms": self.config.max_wait_ms,
                "max_respawns": self.config.max_respawns,
                "request_timeout_s": self.config.request_timeout_s,
            },
        }
        if self._ingest is not None:
            summary["ingest"] = self._ingest.config_summary()
        return summary

    def profile_bytes(self, fingerprint: str) -> bytes | None:
        """The served profile's file bytes, iff ``fingerprint`` names it.

        What ``GET /v1/profiles/<fingerprint>`` serves — the pull side
        of the shared profile store
        (:class:`repro.core.artifacts.HttpProfileStore`): a serving host
        doubles as a profile source for fleet members joining later.
        Keyed strictly: asking for any other fingerprint returns
        ``None`` (a 404), never "the profile I happen to have" — a
        content-addressed store must not answer with different content.
        """
        if fingerprint != self.serving_fingerprint():
            return None
        try:
            return Path(self.profile_path).read_bytes()
        except OSError:
            return None

    # -- lifecycle ------------------------------------------------------------

    def drain(self, timeout: float | None = None) -> bool:
        """Refuse new requests and wait for in-flight ones to finish.

        Returns ``True`` when every outstanding request settled within
        ``timeout`` seconds (``None`` waits indefinitely).  New submits
        raise :class:`ServingError` from the moment the drain begins;
        observability (:meth:`health`, :meth:`ping`) keeps working.
        """
        return self._dispatcher.drain(timeout)

    def shutdown(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the pool: optionally drain, then terminate workers.

        Idempotent.  With ``drain=False`` (or on drain timeout) still-pending
        requests fail with :class:`ServingError` instead of hanging their
        waiters.
        """
        if self._closed:
            return
        self._closed = True
        if self._dispatcher is not None and drain:
            self._dispatcher.drain(timeout)
        self._stopping = True
        if self._dispatcher is not None:
            self._dispatcher.stop(fail_pending=True)
        for handle in self._workers.values():
            if handle.process.is_alive():
                try:
                    handle.task_queue.put(("stop",))
                except (ValueError, OSError):
                    pass
        deadline = time.monotonic() + 5.0
        for handle in self._workers.values():
            handle.process.join(timeout=max(0.1, deadline - time.monotonic()))
        self._terminate_workers()
        for handle in self._workers.values():
            _discard_queue(handle.task_queue)
            try:
                handle.result_queue.close()
            except (ValueError, OSError):
                pass

    def __enter__(self) -> "ServingPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

    # -- worker management (dispatcher contract) ------------------------------

    def _spawn_worker(self, worker_id: int) -> _WorkerHandle:
        task_queue = self._ctx.Queue()
        result_queue = self._ctx.Queue()
        process = self._ctx.Process(
            target=worker_main,
            args=(worker_id, self.profile_path, self.config.warmup_shapes,
                  task_queue, result_queue),
            name=f"serving-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        # Close the parent's inherited copy of the result-queue writer:
        # with the worker as the *only* writer, its death closes the last
        # write end and the parent's reads see EOF instead of blocking on
        # a message that will never finish.  (The parent never puts to a
        # result queue, so no feeder thread ever needs this fd.)
        result_queue._writer.close()
        debug(f"spawned worker {worker_id} pid {process.pid} "
              f"(task q {id(task_queue):#x}, "
              f"reader fd {task_queue._reader.fileno()})")
        return _WorkerHandle(
            worker_id=worker_id, process=process, task_queue=task_queue,
            result_queue=result_queue,
        )

    def _replace_worker(self, handle: _WorkerHandle) -> _WorkerHandle | None:
        """Respawn a dead worker, or ``None`` when the budget is spent.

        Called by the dispatcher's collect loop under ``self._lock``; the
        caller resubmits the dead worker's in-flight tasks to the
        replacement.
        """
        if self._respawns_left <= 0:
            return None
        self._respawns_left -= 1
        _discard_queue(handle.task_queue)
        try:
            handle.result_queue.close()
        except (ValueError, OSError):
            pass
        debug(f"discarded worker {handle.worker_id} old queues "
              f"(task {id(handle.task_queue):#x})")
        replacement = self._spawn_worker(handle.worker_id)
        self._workers[handle.worker_id] = replacement
        return replacement

    def _await_startup(self) -> None:
        """Block until every worker loaded the profile and reported ready."""
        deadline = time.monotonic() + self.config.start_timeout_s
        pending = set(self._workers)
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServingError(
                    f"workers {sorted(pending)} not ready within "
                    f"{self.config.start_timeout_s}s; raise "
                    "ServingConfig.start_timeout_s if profile load is "
                    "legitimately slow on this host"
                )
            readers = {
                self._workers[worker_id].result_queue._reader: worker_id
                for worker_id in pending
            }
            ready = connection_wait(list(readers),
                                    timeout=min(remaining, 0.5))
            # Drain messages BEFORE the liveness check: a worker that sent
            # ("failed", ..., traceback) and exited must surface its
            # actionable traceback, not a generic "died during startup".
            for reader in ready:
                worker_id = readers[reader]
                handle = self._workers[worker_id]
                try:
                    message = handle.result_queue.get_nowait()
                except (queue.Empty, EOFError, OSError):
                    continue  # dead writer: the liveness check reports it
                kind = message[0]
                if kind == "ready":
                    _, got_id, pid, fingerprint = message
                    if handle.process.pid == pid:
                        handle.ready = True
                        handle.fingerprint = fingerprint
                        pending.discard(worker_id)
                elif kind == "failed":
                    raise ServingError(
                        f"worker {worker_id} failed to start:\n{message[3]}"
                    )
            for worker_id in sorted(pending):
                handle = self._workers[worker_id]
                if handle.process.is_alive():
                    continue
                # One last drain: its "failed" traceback may have landed
                # between our drain above and the death check.
                message = None
                try:
                    message = handle.result_queue.get_nowait()
                except (queue.Empty, EOFError, OSError):
                    pass
                if message is not None and message[0] == "failed":
                    raise ServingError(
                        f"worker {worker_id} failed to start:\n{message[3]}"
                    )
                raise ServingError(
                    f"worker {worker_id} died during startup "
                    f"(exit code {handle.process.exitcode})"
                )

    def _terminate_workers(self) -> None:
        for handle in self._workers.values():
            if handle.process.is_alive():
                handle.process.terminate()
        for handle in self._workers.values():
            handle.process.join(timeout=5.0)

    def _release_queues(self) -> None:
        """Abandon every task queue (terminal failure / teardown path)."""
        for handle in self._workers.values():
            _discard_queue(handle.task_queue)


def _discard_queue(task_queue) -> None:
    """Drop a task queue whose worker will never read again.

    ``cancel_join_thread`` is the load-bearing call: without it, queued
    messages that a dead worker never drained leave the queue's feeder
    thread blocked on a full pipe, and ``multiprocessing``'s atexit
    handler then joins that feeder forever — the parent process can never
    exit.  Data loss is fine by construction here: anything still queued
    belongs to a task that was either resubmitted elsewhere or failed.
    """
    try:
        task_queue.cancel_join_thread()
        task_queue.close()
    except (ValueError, OSError):
        pass
