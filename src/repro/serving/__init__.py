"""Multi-process serving for saved Inspector Gadget profiles.

The train-once/serve-many split (``InspectorGadget.save``/``load``) gets a
production front end here::

    dispatcher (parent)                      workers (processes)
    ───────────────────                      ───────────────────
    predict()/submit() ─┐
                        ├─ micro-batch ──▶ task queue ──▶ load(profile) once,
    predict()/submit() ─┘  (max_batch,                    warmed match plans,
                            max_wait_ms)                  feature rows per task
                                                               │
    labeler on the assembled  ◀── result queues ◀──────────────┘
    per-request feature matrix
            │
            ▶ PendingPrediction.result() → WeakLabels

Workers compute the expensive half (images × patterns NCC features, the
pipeline's dominant cost); the parent reassembles each request's full
feature matrix and applies the MLP labeler once per request.  Because
feature rows are per-image independent and the labeler sees exactly the
matrix single-process ``predict`` would build, pool responses are
**byte-identical** to single-process serving for any worker count, batch
setting, or request interleaving.

Lifecycle is product surface: warmup before ready, :meth:`ServingPool.health`
/ :meth:`ServingPool.ping` for observability, :meth:`ServingPool.drain` /
:meth:`ServingPool.shutdown` for graceful exits, and crashed workers are
respawned (in-flight work resubmitted) within a bounded budget.

Between parent and workers, a task's images and its feature rows are
pickled through that worker's own task and result queues.

Transports stack on top of the same dispatcher: the HTTP front end
:func:`serve_http` (:mod:`repro.serving.http`) exposes the pool over TCP
for non-Python clients (``POST /v1/label``, ``GET /healthz``,
``GET /profile``, ``POST /admin/drain``, gzip in both directions), and
the stdin-JSONL daemon serves pipelines.  Both validate requests and
shape errors through one module (:mod:`repro.serving.protocol`), so a
bad request gets the same answer — and a good one byte-identical labels
— no matter how it arrived.

Above single pools, :class:`FleetRouter` (:mod:`repro.serving.fleet`)
routes requests across N of them — in-process or on other hosts over
the same wire protocol — admitting members only when their
``serving_fingerprint()`` matches (equal fingerprints ⇒ byte-identical
answers), sharding by deterministic rendezvous hashing, and degrading
gracefully (bounded retry, ejection, probed readmission).  The router
duck-types the pool surface, so every transport above also serves a
fleet; ``docs/fleet.md`` has the full semantics.

``python -m repro.serving --profile p.igz --workers 4`` serves from the
command line (``--images``/``--stdin``/``--http HOST:PORT``, or
``--fleet URL,URL`` to front running pools); see
:mod:`repro.serving.cli`.  The prose map of this whole stack lives in
``docs/architecture.md``; the HTTP API reference in ``docs/serving.md``.
"""

from repro.core.config import ServingConfig
from repro.serving.dispatcher import (
    Dispatcher,
    PendingPrediction,
    ServingError,
)
from repro.serving.fleet import (
    FleetHealth,
    FleetRouter,
    HttpMember,
    InProcessMember,
    MemberUnavailable,
)
from repro.serving.http import HttpFrontEnd, serve_http
from repro.serving.pool import PoolHealth, ServingPool, WorkerStatus
from repro.serving.protocol import RequestError

__all__ = [
    "ServingPool",
    "ServingConfig",
    "Dispatcher",
    "PendingPrediction",
    "ServingError",
    "RequestError",
    "HttpFrontEnd",
    "serve_http",
    "PoolHealth",
    "WorkerStatus",
    "FleetRouter",
    "FleetHealth",
    "InProcessMember",
    "HttpMember",
    "MemberUnavailable",
]
