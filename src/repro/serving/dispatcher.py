"""Micro-batching dispatcher: request intake, worker routing, reassembly.

The dispatcher is the parent-side brain of the serving pool.  It runs two
daemon threads around plain-``queue``/''multiprocessing''-queue plumbing:

* The **dispatch loop** drains the request inbox, slices every request into
  *pieces* of at most ``max_batch`` images, coalesces pieces from different
  requests into one task when they arrive within ``max_wait_ms`` of each
  other, and routes each task to the least-loaded worker.  A burst of
  single-image requests therefore crosses the process boundary as a few
  micro-batches instead of one IPC round-trip per image.
* The **collect loop** receives feature rows back, scatters them into each
  request's preallocated ``(n_images, n_patterns)`` buffer, and — once a
  request's buffer is complete — applies the MLP labeler to the *whole*
  request matrix and resolves the request's :class:`PendingPrediction`.
  It also supervises workers: a dead process is detected here, its
  in-flight tasks are resubmitted to a respawned replacement (bounded by
  the pool's respawn budget), and budget exhaustion fails pending requests
  with :class:`ServingError` instead of hanging them.

Determinism and ordering
------------------------
Feature rows are computed per image, independently of how images were
grouped into tasks (a match-engine invariant the equivalence harness
asserts), and the labeler runs exactly once per request on the same full
matrix single-process ``predict`` would build.  Coalescing, splitting,
worker count and scheduling therefore cannot change a single byte of any
response.  Responses are matched to requests by identity (each submit gets
its own :class:`PendingPrediction`), and tasks are dispatched in request
arrival order, so a client issuing sequential requests observes FIFO
completion.
"""

from __future__ import annotations

import itertools
import os
import queue
import sys
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait

import numpy as np

from repro.labeler.weak_labels import WeakLabels

__all__ = ["Dispatcher", "PendingPrediction", "ServingError", "debug"]

_STOP = object()  # dispatch-loop shutdown sentinel

_DEBUG = os.environ.get("REPRO_SERVING_DEBUG", "") == "1"


def debug(message: str) -> None:
    """Serving-internal trace, enabled with ``REPRO_SERVING_DEBUG=1``.

    Goes to stderr unbuffered so parent and worker lines interleave in
    wall-clock order — the tool for diagnosing lost tasks, respawn races
    and queue lifetime issues in a live pool.
    """
    if _DEBUG:
        print(f"[serving {os.getpid()} {time.monotonic():.4f}] {message}",
              file=sys.stderr, flush=True)


class ServingError(RuntimeError):
    """A serving request failed or the pool cannot accept requests."""


class PendingPrediction:
    """Handle for one in-flight request; resolved by the collect loop.

    Returned by :meth:`ServingPool.submit`; thread-safe (any thread may
    poll :meth:`done` or block in :meth:`result`).
    """

    def __init__(self, n_images: int):
        self.n_images = n_images
        self._event = threading.Event()
        self._value: WeakLabels | None = None
        self._error: BaseException | None = None
        self._cb_lock = threading.Lock()
        self._callbacks: list = []

    def done(self) -> bool:
        """Whether the request has settled (resolved *or* failed)."""
        return self._event.is_set()

    def add_done_callback(self, fn) -> None:
        """Run ``fn(self)`` once the request settles (now, if it already has).

        Callbacks run on the settling thread — the dispatcher's collect
        loop — so they must be cheap and non-blocking.  This is the
        no-thread-parked completion hook the ingest controller uses to
        hand a settled verdict to its writer instead of burning one
        waiting thread per in-flight file.
        """
        with self._cb_lock:
            if not self._event.is_set():
                self._callbacks.append(fn)
                return
        fn(self)

    def result(self, timeout: float | None = None) -> WeakLabels:
        """Block for the response.

        Args:
            timeout: seconds to wait; ``None`` waits indefinitely.

        Returns:
            The request's :class:`~repro.labeler.weak_labels.WeakLabels`.

        Raises:
            TimeoutError: the request did not settle within ``timeout``
                (it stays in flight; calling again may still succeed).
            ServingError: the request failed (worker error, pool failure
                or shutdown) — the failure is sticky and re-raised on
                every call.
        """
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"serving request not completed within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        return self._value

    def _resolve(self, value: WeakLabels) -> None:
        self._value = value
        self._settle_and_notify()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._settle_and_notify()

    def _settle_and_notify(self) -> None:
        with self._cb_lock:
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)


@dataclass(eq=False)  # identity semantics: hashable member of the live set
class _Request:
    """One submitted predict call, being reassembled from task results."""

    images: list[np.ndarray]
    buffer: np.ndarray  # (n_images, n_patterns) feature rows land here
    future: PendingPrediction
    filled: int = 0
    settled: bool = False  # resolved or failed; late rows are dropped


@dataclass
class _Piece:
    """A contiguous slice of one request's images, bound for one task."""

    request: _Request
    offset: int
    images: list[np.ndarray]


@dataclass
class _Task:
    """A micro-batch of pieces dispatched to a worker as one message."""

    task_id: int
    pieces: list[_Piece]

    @property
    def images(self) -> list[np.ndarray]:
        return [image for piece in self.pieces for image in piece.images]


@dataclass
class _Ping:
    """One in-flight health probe round; resolved by pong messages."""

    waiting: set[int]
    started: float
    rtts: dict[int, float] = field(default_factory=dict)
    event: threading.Event = field(default_factory=threading.Event)


class Dispatcher:
    """Parent-side batching, routing, reassembly and worker supervision.

    Collaborates with the pool through a narrow contract: the pool owns the
    worker registry and process lifecycle (``pool._workers``,
    ``pool._replace_worker``), the dispatcher owns every request and task
    in flight.  ``pool._lock`` guards both.
    """

    def __init__(self, pool, labeler, n_patterns: int,
                 max_batch: int, max_wait_ms: float):
        self._pool = pool
        self._labeler = labeler
        self._n_patterns = n_patterns
        self._max_batch = max_batch
        self._max_wait_s = max_wait_ms / 1000.0
        self._lock: threading.RLock = pool._lock
        self._settled_cond = threading.Condition(self._lock)
        self._inbox: queue.Queue = queue.Queue()
        self._requests: set[_Request] = set()
        self._task_ids = itertools.count()
        self._ping_ids = itertools.count()
        self._pings: dict[int, _Ping] = {}
        self._refusing: str | None = None  # reason submits are rejected
        self._failure: ServingError | None = None
        self._collect_stop = threading.Event()
        # Self-pipe so stop() can wake a collect loop that is blocked
        # indefinitely in connection_wait (worker results and worker
        # deaths wake it on their own: each result queue's reader polls
        # readable on a message, and on EOF when its worker dies).
        self._wake_r, self._wake_w = os.pipe()
        self._dispatch_thread = threading.Thread(
            target=self._dispatch_loop, name="serving-dispatch", daemon=True
        )
        self._collect_thread = threading.Thread(
            target=self._collect_loop, name="serving-collect", daemon=True
        )

    def start(self) -> None:
        self._dispatch_thread.start()
        self._collect_thread.start()

    # -- intake ---------------------------------------------------------------

    def submit(self, images: list[np.ndarray]) -> PendingPrediction:
        """Queue a validated request; the dispatch loop takes it from here.

        ``images`` must already be validated/coerced (the pool's
        :meth:`~repro.serving.pool.ServingPool.submit` runs
        :func:`repro.serving.protocol.coerce_images` first — every
        transport funnels through it).  Returns the request's
        :class:`PendingPrediction`; raises :class:`ServingError` when the
        pool is refusing work (draining/shut down) or terminally failed.
        """
        with self._lock:
            if self._failure is not None:
                raise self._failure
            if self._refusing is not None:
                raise ServingError(
                    f"serving pool is not accepting requests ({self._refusing})"
                )
            request = _Request(
                images=images,
                buffer=np.empty((len(images), self._n_patterns)),
                future=PendingPrediction(len(images)),
            )
            self._requests.add(request)
        self._inbox.put(request)
        return request.future

    # -- dispatch loop --------------------------------------------------------

    def _dispatch_loop(self) -> None:
        staging: list[_Piece] = []
        staged = 0  # images currently staged
        deadline: float | None = None

        def flush() -> None:
            nonlocal staging, staged, deadline
            if staging:
                self._dispatch(_Task(next(self._task_ids), staging))
            staging, staged, deadline = [], 0, None

        while True:
            if staging:
                # Block exactly until the coalescing deadline: a new
                # submit wakes the get immediately, and an undisturbed
                # wait flushes on time — no fixed-granularity polling
                # floor under max_wait_ms, no early wakeups.
                try:
                    item = self._inbox.get(
                        timeout=max(0.0, deadline - time.monotonic())
                    )
                except queue.Empty:
                    item = None
            else:
                # Idle: block indefinitely.  Both wake sources are inbox
                # puts (submit() enqueues requests, stop() enqueues the
                # _STOP sentinel), so an idle pool takes zero scheduled
                # wakeups instead of 20/sec.
                item = self._inbox.get()
            if item is _STOP:
                flush()
                return
            if item is not None:
                request: _Request = item
                offset = 0
                n = len(request.images)
                while offset < n:
                    take = min(self._max_batch - staged, n - offset)
                    staging.append(_Piece(
                        request, offset,
                        request.images[offset:offset + take],
                    ))
                    staged += take
                    offset += take
                    if staged >= self._max_batch:
                        flush()
                if staging and deadline is None:
                    deadline = time.monotonic() + self._max_wait_s
            if staging and time.monotonic() >= deadline:
                flush()

    def _dispatch(self, task: _Task) -> None:
        """Assign ``task`` to the least-loaded worker and ship it."""
        with self._lock:
            if self._failure is not None:
                self._fail_task(task, self._failure)
                return
            if not self._pool._workers:
                # All workers gone mid-replacement: fail the task cleanly
                # instead of letting min() raise a bare ValueError inside
                # the dispatch thread.
                self._fail_task(task, ServingError(
                    "no live workers to dispatch to (worker registry empty)"
                ))
                return
            handle = min(
                self._pool._workers.values(),
                key=lambda h: (sum(t_images(t) for t in h.outstanding.values()),
                               h.worker_id),
            )
            handle.outstanding[task.task_id] = task
        if _DEBUG:
            debug(f"dispatch task {task.task_id} ({len(task.images)} imgs) "
                  f"-> worker {handle.worker_id} "
                  f"(q {id(handle.task_queue):#x})")
        _safe_put(handle, ("task", task.task_id, task.images))

    # -- collect loop ---------------------------------------------------------

    def _collect_loop(self) -> None:
        while not self._collect_stop.is_set():
            with self._lock:
                readers = {
                    handle.result_queue._reader: handle
                    for handle in self._pool._workers.values()
                }
            try:
                # Block until something real happens: a worker message, a
                # worker death (its queue reader polls readable on EOF once
                # the last writer closes), or a stop() wake through the
                # self-pipe.  No fixed 50 ms poll — an idle pool takes zero
                # scheduled wakeups here.
                ready = connection_wait([*readers, self._wake_r],
                                        timeout=None)
            except OSError:
                # A reader closed under us (respawn/teardown); back off so
                # a persistently bad fd cannot turn this into a busy spin.
                time.sleep(0.01)
                ready = []
            if self._wake_r in ready:
                try:
                    os.read(self._wake_r, 4096)
                except OSError:
                    pass
            for reader in ready:
                if reader in readers:
                    self._drain_results(readers[reader])
            try:
                self._reap_dead_workers()
            except Exception as exc:
                # Respawning can itself fail (process spawn under resource
                # pressure).  Dying silently would hang every request until
                # timeout with health() still green; fail the pool loudly
                # instead.
                with self._lock:
                    if self._failure is None:
                        self._fail_pool(ServingError(
                            f"worker supervision failed: {exc!r}"
                        ))
            if self._failure is not None:
                # Terminal: every request is settled and submits raise; a
                # dead worker's EOF-readable queue would otherwise turn
                # this loop into a busy spin.
                return

    def _drain_results(self, handle) -> None:
        """Pull every available message off one worker's result queue."""
        while True:
            try:
                message = handle.result_queue.get_nowait()
            except queue.Empty:
                return
            except (EOFError, OSError):
                return  # worker gone: the reap resubmits its tasks
            except Exception:
                # get() unpickles, so a frame half-written by a worker
                # killed mid-put surfaces here (UnpicklingError &c).
                # Supervision must survive it.
                continue
            try:
                self._handle(message)
            except Exception:
                # A structurally unexpected message must not kill the
                # collect loop either.
                pass

    def _handle(self, message: tuple) -> None:
        kind = message[0]
        if kind == "rows":
            _, worker_id, task_id, rows = message
            with self._lock:
                handle = self._pool._workers.get(worker_id)
                task = None if handle is None else \
                    handle.outstanding.pop(task_id, None)
                if _DEBUG:
                    debug(f"rows for task {task_id} from worker {worker_id} "
                          f"(known={task is not None})")
                if task is None:  # duplicate after a respawn resubmit
                    return
                handle.tasks_done += 1
                cursor = 0
                for piece in task.pieces:
                    rows_slice = rows[cursor:cursor + len(piece.images)]
                    cursor += len(piece.images)
                    self._fill(piece, rows_slice)
        elif kind == "error":
            _, worker_id, task_id, tb = message
            with self._lock:
                handle = self._pool._workers.get(worker_id)
                task = None if handle is None else \
                    handle.outstanding.pop(task_id, None)
                if task is None:
                    return
                handle.tasks_done += 1
                self._fail_task(task, ServingError(
                    f"worker {worker_id} failed a request:\n{tb}"
                ))
        elif kind == "ready":
            _, worker_id, pid, fingerprint = message
            with self._lock:
                handle = self._pool._workers.get(worker_id)
                if handle is not None and handle.process.pid == pid:
                    handle.ready = True
                    handle.fingerprint = fingerprint
        elif kind == "pong":
            _, worker_id, ping_id = message
            with self._lock:
                ping = self._pings.get(ping_id)
                if ping is not None and worker_id in ping.waiting:
                    ping.waiting.discard(worker_id)
                    ping.rtts[worker_id] = time.monotonic() - ping.started
                    if not ping.waiting:
                        ping.event.set()
        elif kind == "failed":
            # Startup failure: the process exits right after sending this;
            # record the reason so the reap below can report it.
            _, worker_id, pid, tb = message
            with self._lock:
                handle = self._pool._workers.get(worker_id)
                if handle is not None and handle.process.pid == pid:
                    handle.startup_error = tb

    def _fill(self, piece: _Piece, rows: np.ndarray) -> None:
        """Scatter one piece's feature rows; finalize the request when full."""
        request = piece.request
        if request.settled:
            return
        request.buffer[piece.offset:piece.offset + len(piece.images)] = rows
        request.filled += len(piece.images)
        if request.filled < len(request.images):
            return
        # The whole feature matrix is assembled; the labeler now sees
        # exactly the matrix single-process predict would have built.
        try:
            probs = self._labeler.predict_proba(request.buffer)
        except Exception as exc:
            self._settle(request, error=ServingError(
                f"labeler failed on assembled features: {exc!r}"
            ))
            return
        self._settle(request, value=WeakLabels(probs=probs))

    def _settle(self, request: _Request, value=None, error=None) -> None:
        request.settled = True
        self._requests.discard(request)
        if error is not None:
            request.future._fail(error)
        else:
            request.future._resolve(value)
        self._settled_cond.notify_all()

    def _fail_task(self, task: _Task, error: ServingError) -> None:
        for piece in task.pieces:
            if not piece.request.settled:
                self._settle(piece.request, error=error)

    # -- worker supervision ---------------------------------------------------

    def _reap_dead_workers(self) -> None:
        if self._pool._stopping:
            return
        with self._lock:
            if self._failure is not None:
                return
            dead = [h for h in self._pool._workers.values()
                    if not h.process.is_alive()]
            for handle in dead:
                # Salvage results the worker completed before dying — its
                # queue survives the process (EOF after the last message),
                # and every drained row is one task we don't recompute.
                self._drain_results(handle)
                orphans = list(handle.outstanding.values())
                handle.outstanding.clear()
                reason = (
                    f"worker {handle.worker_id} (pid {handle.process.pid}) "
                    f"exited with code {handle.process.exitcode}"
                )
                if handle.startup_error:
                    reason += f"; startup failure:\n{handle.startup_error}"
                if _DEBUG:
                    debug(f"reap: worker {handle.worker_id} dead "
                          f"(exit {handle.process.exitcode}), "
                          f"{len(orphans)} orphan task(s)")
                replacement = self._pool._replace_worker(handle)
                if replacement is None:
                    self._fail_pool(ServingError(
                        f"{reason}; respawn budget exhausted"
                    ))
                    return
                for task in orphans:  # FIFO order preserved by dict order
                    # The task still holds its pieces' images, so the
                    # replacement gets the identical image list.
                    replacement.outstanding[task.task_id] = task
                    if _DEBUG:
                        debug(f"resubmit task {task.task_id} -> worker "
                              f"{replacement.worker_id} "
                              f"(q {id(replacement.task_queue):#x})")
                    _safe_put(replacement,
                              ("task", task.task_id, task.images))

    def _fail_pool(self, error: ServingError) -> None:
        """Terminal failure: fail everything in flight, refuse new work."""
        self._failure = error
        for request in list(self._requests):
            self._settle(request, error=error)
        for ping in self._pings.values():
            ping.event.set()
        # Abandon undrained task queues now: even if the caller never
        # shuts the failed pool down, its queue feeders must not block
        # interpreter exit (see pool._discard_queue).
        self._pool._release_queues()

    # -- health / lifecycle ---------------------------------------------------

    def ping(self, timeout: float) -> dict[int, float]:
        """Round-trip a probe through every worker's queues.

        Returns worker_id → seconds for the workers that answered in time;
        a busy worker answers after its current task, so a missing entry
        means "dead or busier than ``timeout``", not necessarily dead.
        """
        with self._lock:
            if self._failure is not None:
                raise self._failure
            ping_id = next(self._ping_ids)
            ping = _Ping(waiting=set(self._pool._workers),
                         started=time.monotonic())
            self._pings[ping_id] = ping
            handles = list(self._pool._workers.values())
        for handle in handles:
            _safe_put(handle, ("ping", ping_id))
        ping.event.wait(timeout)
        with self._lock:
            del self._pings[ping_id]
            return dict(ping.rtts)

    def pending_requests(self) -> int:
        with self._lock:
            return len(self._requests)

    def refuse(self, reason: str) -> None:
        with self._lock:
            self._refusing = reason

    def drain(self, timeout: float | None = None) -> bool:
        """Stop intake and wait for every in-flight request to settle.

        Returns ``True`` when the last request settled within ``timeout``
        seconds (``None`` waits indefinitely); on ``False`` the remaining
        requests keep running and a later drain/shutdown deals with them.
        """
        self.refuse("draining")
        with self._settled_cond:
            return self._settled_cond.wait_for(
                lambda: not self._requests, timeout
            )

    def stop(self, fail_pending: bool = True) -> None:
        """Tear down both loops; optionally fail whatever is still pending."""
        self.refuse("shut down")
        self._inbox.put(_STOP)
        self._dispatch_thread.join(timeout=5.0)
        if fail_pending:
            with self._lock:
                for request in list(self._requests):
                    self._settle(request, error=ServingError(
                        "serving pool shut down before the request completed"
                    ))
        self._collect_stop.set()
        try:
            os.write(self._wake_w, b"x")  # wake an indefinitely-blocked wait
        except OSError:
            pass
        self._collect_thread.join(timeout=5.0)
        for fd in (self._wake_r, self._wake_w):
            try:
                os.close(fd)
            except OSError:
                pass


def t_images(task: _Task) -> int:
    """Images in flight for a task (the dispatcher's load metric)."""
    return sum(len(piece.images) for piece in task.pieces)


def _safe_put(handle, message: tuple) -> None:
    """Put to a worker queue that may have been discarded concurrently.

    A worker can die (and its queue be closed by the respawn path) between
    choosing it and shipping the message.  Losing the message is safe: a
    task recorded in ``handle.outstanding`` is resubmitted by the reap
    when the death is noticed, and a lost ping just times out.
    """
    try:
        handle.task_queue.put(message)
    except (ValueError, OSError, AssertionError):
        pass
