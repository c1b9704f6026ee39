"""Serving worker: one process, one loaded profile, one request loop.

Each worker is started by :class:`repro.serving.pool.ServingPool` with a
profile *path* (never a pickled pipeline — the worker owns its copy by
loading it, which works identically under every multiprocessing start
method).  Startup order is load → warm → ``ready``: the profile is
deserialized once, the match engine's per-shape plans for the configured
warmup shapes are built and frozen read-only, and only then does the worker
announce itself and start draining its task queue.

The protocol is deliberately tiny.  Inbound messages on ``task_queue``:

``("task", task_id, images)``
    Compute the feature rows (images × patterns NCC matrix) for the
    micro-batch and reply ``("rows", worker_id, task_id, matrix)``.
    Workers return *features*, not probabilities: the dispatcher reassembles
    each request's full feature matrix and applies the MLP labeler exactly
    once per request, which is what makes pool output byte-identical to
    single-process ``predict`` no matter how requests were coalesced,
    split, or spread across workers.
``("ping", ping_id)``
    Health probe; replies ``("pong", worker_id, ping_id)``.
``("stop",)``
    Graceful exit (drain/shutdown path).

A task that raises replies ``("error", worker_id, task_id, traceback)`` and
the worker keeps serving — one malformed request must not take down the
process.  Failures *before* ready (unreadable profile, bad warmup shape)
reply ``("failed", ...)`` and exit; the pool surfaces those during startup
or burns a respawn on them.
"""

from __future__ import annotations

import os
import traceback

__all__ = ["worker_main"]


def worker_main(
    worker_id: int,
    profile_path: str,
    warmup_shapes: tuple[tuple[int, int], ...],
    task_queue,
    result_queue,
) -> None:
    """Process entry point; see the module docstring for the protocol.

    Every worker runs the profile's one engine plan (numpy transforms in
    float64), so every worker of a pool answers the same bytes.
    """
    pid = os.getpid()
    try:
        # Imported here, not at module top: under "spawn"/"forkserver" the
        # child pays numpy/scipy import cost exactly once, at load time.
        from repro.core.pipeline import InspectorGadget
        from repro.serving.dispatcher import _DEBUG, debug

        pipeline = InspectorGadget.load(profile_path)
        for shape in warmup_shapes:
            pinned = pipeline.feature_generator.warm(shape)
            debug(f"worker {worker_id} warmed {tuple(shape)}: "
                  f"{pinned['exact']} exact + {pinned['coarse']} coarse "
                  f"columns, {pinned['refine_buffers']} refinement buffers "
                  "pinned")
        # Even with no warmup shapes, serving wants plans cached: the same
        # image shape arrives request after request.
        pipeline.feature_generator.engine.cache_plans = True
        debug(f"worker {worker_id} loaded, reader fd "
              f"{task_queue._reader.fileno()}")
        result_queue.put(
            ("ready", worker_id, pid, pipeline.serving_fingerprint())
        )
    except BaseException:
        result_queue.put(("failed", worker_id, pid, traceback.format_exc()))
        return

    while True:
        message = task_queue.get()
        kind = message[0]
        if kind == "stop":
            return
        if kind == "ping":
            result_queue.put(("pong", worker_id, message[1]))
            continue
        if kind != "task":  # unknown message: ignore rather than die
            continue
        _, task_id, images = message
        if _DEBUG:
            debug(f"worker {worker_id} got task {task_id} "
                  f"({len(images)} imgs)")
        try:
            matrix = pipeline.feature_generator.transform_images(images)
            reply = ("rows", worker_id, task_id, matrix.values)
        except Exception:
            reply = ("error", worker_id, task_id, traceback.format_exc())
        result_queue.put(reply)
