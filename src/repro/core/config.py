"""Top-level configuration for the Inspector Gadget pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.augment.augmenter import AugmentConfig
from repro.crowd.workflow import WorkflowConfig
from repro.imaging.pyramid import PyramidMatcher

__all__ = ["InspectorGadgetConfig", "ServingConfig"]

_START_METHODS = ("spawn", "fork", "forkserver")


@dataclass
class ServingConfig:
    """Deployment knobs for the multi-process serving pool.

    This is a *runtime* slice: none of these settings participate in
    fitting, fingerprinting or the saved profile, and none of them can
    change predictions — the pool's output is byte-identical to
    single-process ``predict`` for any value of any knob here.

    ``workers`` is the number of worker processes, each loading the
    profile once.  The dispatcher coalesces waiting requests into
    micro-batches of at most ``max_batch`` images, waiting up to
    ``max_wait_ms`` for more requests to arrive before dispatching a
    partial batch (``0`` dispatches immediately — lowest latency, least
    coalescing).  A crashed worker is replaced automatically at most
    ``max_respawns`` times over the pool's lifetime before the pool
    fails pending requests instead of retrying forever.

    ``start_method`` selects the :mod:`multiprocessing` start method.
    The default ``"spawn"`` is safe regardless of parent threads (the
    dispatcher runs threads in the parent); ``"fork"`` starts faster on
    POSIX but inherits the parent's whole state.  ``start_timeout_s``
    bounds how long pool construction waits for every worker to load
    the profile and report ready; ``request_timeout_s`` is the default
    bound a blocking ``predict`` waits for its response.

    ``warmup_shapes`` lists image shapes (height, width) whose matching
    plans each worker precomputes at startup, so the first request for
    those shapes pays no planning cost.

    ``http_host``/``http_port`` are the default bind address of the HTTP
    front end (:func:`repro.serving.http.serve_http`); port ``0`` binds an
    ephemeral port, readable back from the front end.  The default host is
    loopback — exposing a pool beyond the machine is an explicit decision
    (``0.0.0.0``/``::``), not a default.  IPv6 hosts work too
    (``"::1"``; the CLI flag form is ``[::1]:8765``).

    ``max_request_bytes`` bounds an HTTP request body; larger requests are
    refused with 413 before being read, so one misbehaving client cannot
    balloon parent memory (gzip request bodies are bounded by the same
    limit *before* full decompression).

    The ``ingest_*`` knobs configure the watch-folder ingestion loop
    (:mod:`repro.serving.ingest`, the CLI's ``--watch``):
    ``ingest_poll_interval_s`` is the scanner cadence (inotify, when
    available, wakes it early), ``ingest_stable_polls`` how many
    consecutive unchanged ``(size, mtime)`` observations a file needs
    before it is read — spanning at least ``ingest_stable_polls - 1``
    poll intervals however often the scanner wakes, so half-written
    files wait.  A complete ``.npy`` renamed into the folder skips that
    window when inotify shows the rename as the file's last event
    (:mod:`repro.serving.ingest.source`); that rule has no knob.
    ``ingest_max_in_flight`` is the backpressure bound on files
    submitted but not yet verdicted, ``ingest_max_failures`` the
    decode/score attempts before a poison file is quarantined,
    ``ingest_commit_lines`` the most verdicts one sink-flush +
    ledger-fsync commit takes (the writer commits whatever has settled
    as soon as it is idle, so this caps the work that is not yet durable
    under sustained load), and ``ingest_suffixes`` the file extensions
    the scanner picks up.  Like the transport knobs, none of these can
    change a verdict — only when and how it is produced.

    The ``fleet_*`` knobs configure the cross-host router
    (:mod:`repro.serving.fleet`, the CLI's ``--fleet``):
    ``fleet_retry_limit`` bounds how many *additional* members a failed
    idempotent request is retried on (0 disables failover),
    ``fleet_eject_failures`` how many consecutive failures eject a
    member from rotation, and ``fleet_probe_interval_s`` how often the
    router health-probes ejected members for readmission.
    ``profile_store`` names a shared profile store — a local directory
    or the ``http(s)://`` base URL of a serving host — that the CLI
    resolves bare fingerprints against (``--profile-store``); ``None``
    keeps profiles purely file-path based.  Fleet knobs shard requests
    but never split one: responses through a router stay byte-identical
    to single-process ``predict``.
    """

    workers: int = 2
    max_batch: int = 8
    max_wait_ms: float = 2.0
    max_respawns: int = 2
    start_method: str = "spawn"
    start_timeout_s: float = 120.0
    request_timeout_s: float = 300.0
    warmup_shapes: tuple[tuple[int, int], ...] = ()
    http_host: str = "127.0.0.1"
    http_port: int = 8765
    max_request_bytes: int = 64 * 1024 * 1024
    ingest_poll_interval_s: float = 0.25
    ingest_stable_polls: int = 2
    ingest_max_in_flight: int = 16
    ingest_max_failures: int = 3
    ingest_commit_lines: int = 32
    ingest_suffixes: tuple[str, ...] = (".npy",)
    fleet_retry_limit: int = 2
    fleet_eject_failures: int = 2
    fleet_probe_interval_s: float = 1.0
    profile_store: str | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_ms < 0:
            raise ValueError(
                f"max_wait_ms must be >= 0, got {self.max_wait_ms}"
            )
        if self.max_respawns < 0:
            raise ValueError(
                f"max_respawns must be >= 0, got {self.max_respawns}"
            )
        if self.start_method not in _START_METHODS:
            raise ValueError(
                f"start_method must be one of {_START_METHODS}, "
                f"got {self.start_method!r}"
            )
        if self.start_timeout_s <= 0:
            raise ValueError(
                f"start_timeout_s must be > 0, got {self.start_timeout_s}"
            )
        if self.request_timeout_s <= 0:
            raise ValueError(
                f"request_timeout_s must be > 0, got {self.request_timeout_s}"
            )
        self.warmup_shapes = tuple(
            tuple(int(side) for side in shape) for shape in self.warmup_shapes
        )
        for shape in self.warmup_shapes:
            if len(shape) != 2 or shape[0] < 1 or shape[1] < 1:
                raise ValueError(
                    "warmup_shapes entries must be (height, width) pairs of "
                    f"positive ints, got {shape!r}"
                )
        if not isinstance(self.http_host, str) or not self.http_host:
            raise ValueError(
                f"http_host must be a non-empty host string, "
                f"got {self.http_host!r}"
            )
        if not 0 <= self.http_port <= 65535:
            raise ValueError(
                f"http_port must be in [0, 65535] (0 = ephemeral), "
                f"got {self.http_port}"
            )
        if self.max_request_bytes < 1024:
            raise ValueError(
                "max_request_bytes must be >= 1024 (one image envelope "
                f"never fits below that), got {self.max_request_bytes}"
            )
        if self.ingest_poll_interval_s <= 0:
            raise ValueError(
                "ingest_poll_interval_s must be > 0, "
                f"got {self.ingest_poll_interval_s}"
            )
        if self.ingest_stable_polls < 1:
            raise ValueError(
                f"ingest_stable_polls must be >= 1, "
                f"got {self.ingest_stable_polls}"
            )
        if self.ingest_max_in_flight < 1:
            raise ValueError(
                f"ingest_max_in_flight must be >= 1, "
                f"got {self.ingest_max_in_flight}"
            )
        if self.ingest_max_failures < 1:
            raise ValueError(
                f"ingest_max_failures must be >= 1, "
                f"got {self.ingest_max_failures}"
            )
        if self.ingest_commit_lines < 1:
            raise ValueError(
                f"ingest_commit_lines must be >= 1, "
                f"got {self.ingest_commit_lines}"
            )
        self.ingest_suffixes = tuple(self.ingest_suffixes)
        if not self.ingest_suffixes or not all(
            isinstance(s, str) and s.startswith(".") and len(s) > 1
            for s in self.ingest_suffixes
        ):
            raise ValueError(
                "ingest_suffixes must be a non-empty tuple of "
                f"'.ext' strings, got {self.ingest_suffixes!r}"
            )
        if self.fleet_retry_limit < 0:
            raise ValueError(
                f"fleet_retry_limit must be >= 0, "
                f"got {self.fleet_retry_limit}"
            )
        if self.fleet_eject_failures < 1:
            raise ValueError(
                f"fleet_eject_failures must be >= 1, "
                f"got {self.fleet_eject_failures}"
            )
        if self.fleet_probe_interval_s <= 0:
            raise ValueError(
                "fleet_probe_interval_s must be > 0, "
                f"got {self.fleet_probe_interval_s}"
            )
        if self.profile_store is not None and (
            not isinstance(self.profile_store, str) or not self.profile_store
        ):
            raise ValueError(
                "profile_store must be None or a non-empty directory path "
                f"or http(s) URL, got {self.profile_store!r}"
            )


@dataclass
class InspectorGadgetConfig:
    """All pipeline knobs in one place.

    ``tune_max_layers`` / ``tune_min_per_class`` parameterize the labeler
    architecture search (Section 5.2); ``labeler_max_iter`` bounds each
    L-BFGS run.  Set ``tune`` to False to skip model tuning and train a
    single default MLP (used by the Figure 11 ablation).

    ``n_jobs`` parallelises batched feature generation over images
    (``-1`` = one thread per CPU); it never changes results — the match
    engine's output is byte-identical for any ``n_jobs``.

    ``cache_dir`` enables the content-addressed artifact store: stage
    outputs (crowd result, augmented patterns, dev feature matrix, fitted
    labeler) are fingerprinted and persisted there, so re-running ``fit``
    with an unchanged configuration loads every stage from disk instead of
    recomputing — with byte-identical results either way.  ``None`` (the
    default) disables caching entirely.

    ``predict_batch_size`` chunks inference through the match engine so
    serving arbitrarily large image batches keeps bounded memory; like
    ``n_jobs`` and ``cache_dir`` it never changes results, only execution.

    ``cache_max_bytes`` bounds the artifact store's on-disk footprint:
    when a stage output would push the store past the budget, the least
    recently used artifacts are evicted (a damaged-or-missing artifact is
    always just a recompute, never an error).  ``None`` keeps the store
    unbounded.

    The pipeline always matches on the reference engine plan (numpy
    transforms in float64, :mod:`repro.imaging.backend`); the float32 and
    torch lanes are reached through :class:`repro.imaging.engine.MatchEngine`
    and :class:`repro.features.generator.FeatureGenerator` directly.
    """

    workflow: WorkflowConfig = field(default_factory=WorkflowConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    matcher: PyramidMatcher = field(default_factory=PyramidMatcher)
    n_jobs: int = 1
    tune: bool = True
    tune_max_layers: int = 3
    tune_min_per_class: int = 20
    labeler_max_iter: int = 150
    default_hidden: tuple[int, ...] = (8,)
    seed: int = 0
    cache_dir: str | None = None
    cache_max_bytes: int | None = None
    predict_batch_size: int = 64

    def __post_init__(self) -> None:
        if self.n_jobs != -1 and self.n_jobs < 1:
            raise ValueError("n_jobs must be >= 1 or -1")
        if self.tune_max_layers < 1:
            raise ValueError("tune_max_layers must be >= 1")
        if self.labeler_max_iter < 1:
            raise ValueError("labeler_max_iter must be >= 1")
        if self.predict_batch_size < 1:
            raise ValueError("predict_batch_size must be >= 1")
        if self.cache_max_bytes is not None and self.cache_max_bytes < 1:
            raise ValueError("cache_max_bytes must be >= 1 or None")
