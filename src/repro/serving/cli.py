"""Command-line serving entry point: ``python -m repro.serving``.

Loads a saved profile into a multi-process pool and serves it — or,
with ``--fleet``, routes across already-running pools instead of
owning one (see below).  Four mutually exclusive modes:

* ``--images a.npy b.npy ...`` — label the given arrays in one batch
  request, print one ``path<TAB>label<TAB>confidence`` line per image, and
  optionally write the full probabilities with ``--output out.npz``.
* ``--stdin`` — daemon loop: read one ``.npy`` path per line on stdin,
  answer each with a JSON object on stdout (``{"path", "label",
  "confidence", "probs"}``, or ``{"path", "error": {code, message,
  status}}`` — the same error envelope the HTTP front end sends).
  Pipe-friendly: a supervisor writes paths, reads responses, and closes
  stdin to stop the daemon.
* ``--http HOST:PORT`` — TCP daemon: serve the pool over HTTP
  (:mod:`repro.serving.http`; API reference in ``docs/serving.md``).
  IPv6 hosts use the bracket form (``[::1]:8765``).  Port ``0`` binds
  an ephemeral port; the actually bound URL is printed as ``serving
  HTTP on http://host:port`` on stdout, so a supervisor can parse it.
  Runs until ``POST /admin/drain`` (exit 0) or SIGINT.
* ``--watch DIR`` — ingestion daemon: tail a watch directory for ``.npy``
  image files and stream verdicts to one or more ``--sink`` targets
  (``jsonl:PATH``/``jsonl:-``, ``csv:PATH``, ``move:DIR``), resuming
  across restarts through a content-hash checkpoint ledger (``--ledger``,
  default ``DIR/.ingest/ledger.jsonl``).  ``--once`` processes the
  current backlog, drains, and exits 0 — the batch/CI form.  Full
  semantics in ``docs/ingest.md``.

Fleet mode: ``--fleet URL[,URL...]`` replaces ``--profile`` — instead
of spawning a local pool, the requests of any mode above (except
``--watch``) are routed across the listed serving hosts by a
:class:`~repro.serving.fleet.FleetRouter` (admission checks every host
serves the same fingerprint; routing is deterministic rendezvous
hashing; failures retry/eject/readmit — ``docs/fleet.md``).  With
``--http``, the router itself is served, making this process a fleet
front with aggregated ``/healthz`` and ``/profile``.

``--profile-store SPEC`` names a shared profile store (a directory, or
the ``http(s)://`` base URL of a serving host).  When ``--profile`` is
not an existing file, it is treated as a serving *fingerprint* and
pulled from the store — how a serving host joins a fleet without the
profile file pre-placed.

Exit codes (supervisor contract): ``0`` success/clean drain, ``1`` a
request or transport failure with a live pool, ``2`` usage errors (bad
flag values, unreadable profile, fleet admission mismatch), ``3`` the
pool itself failed (startup failure or respawn budget exhausted —
restart the daemon), an ingest commit failed (a full or failing disk
under a sink or the ledger), or no fleet member was reachable.

Examples::

    python -m repro.serving --profile ksdd.igz --workers 4 \
        --images shots/*.npy --output weak.npz
    printf '%s\n' shots/*.npy | \
        python -m repro.serving --profile ksdd.igz --workers 2 --stdin
    python -m repro.serving --profile ksdd.igz --workers 4 \
        --http 127.0.0.1:8765
    python -m repro.serving --profile ksdd.igz --workers 4 \
        --watch /srv/camera --sink jsonl:verdicts.jsonl --sink move:/srv/bins
    python -m repro.serving \
        --fleet http://10.0.0.5:8765,http://10.0.0.6:8765 \
        --http 127.0.0.1:9000
    python -m repro.serving --profile-store /mnt/profiles \
        --profile 41c1e79c... --http 127.0.0.1:8765
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.core.artifacts import open_profile_store
from repro.core.config import ServingConfig
from repro.core.pipeline import ProfileError
from repro.serving.dispatcher import ServingError
from repro.serving.fleet import FleetRouter, HttpMember
from repro.serving.http import serve_http
from repro.serving.ingest import parse_sink_spec, start_ingest
from repro.serving.pool import ServingPool
from repro.serving.protocol import envelope_for, response_payload

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.serving`` argument parser (all modes/flags)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving",
        description="Serve a saved Inspector Gadget profile from a "
                    "multi-process worker pool.",
    )
    parser.add_argument("--profile",
                        help="path to a profile written by "
                             "InspectorGadget.save(); with "
                             "--profile-store, a bare serving "
                             "fingerprint to pull from the store is "
                             "also accepted. Required unless --fleet "
                             "is given")
    parser.add_argument("--fleet", metavar="URL[,URL...]",
                        help="route requests across these already-"
                             "running serving hosts instead of "
                             "spawning a local pool; admission "
                             "requires every host to serve the same "
                             "profile fingerprint. Mutually exclusive "
                             "with --profile; not usable with --watch")
    parser.add_argument("--profile-store", metavar="SPEC",
                        help="shared profile store: a directory path, "
                             "or the http(s):// base URL of a serving "
                             "host exposing GET /v1/profiles/<fp>. "
                             "When --profile is not an existing file "
                             "it is resolved as a fingerprint in this "
                             "store")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes (default: 2)")
    parser.add_argument("--max-batch", type=int, default=8,
                        help="micro-batch size cap (default: 8)")
    parser.add_argument("--max-wait-ms", type=float, default=2.0,
                        help="max wait to coalesce a partial batch "
                             "(default: 2.0)")
    parser.add_argument("--max-respawns", type=int, default=2,
                        help="worker crash respawn budget (default: 2)")
    parser.add_argument("--start-method", default="spawn",
                        choices=("spawn", "fork", "forkserver"),
                        help="multiprocessing start method (default: spawn)")
    parser.add_argument("--max-request-bytes", type=int, default=None,
                        help="with --http: reject request bodies larger "
                             "than this with 413 (default: 64 MiB)")
    parser.add_argument("--request-timeout-s", type=float, default=None,
                        help="per-request response deadline in seconds; "
                             "--http answers 504 past it (default: 300)")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--images", nargs="+", metavar="NPY",
                      help="label these .npy image files in one batch")
    mode.add_argument("--stdin", action="store_true",
                      help="daemon mode: read one .npy path per line on "
                           "stdin, answer with JSON lines on stdout")
    mode.add_argument("--http", metavar="HOST:PORT",
                      help="daemon mode: serve the pool over HTTP on this "
                           "address (port 0 = ephemeral; the bound URL is "
                           "printed on stdout; IPv6 hosts use brackets, "
                           "[::1]:8765); runs until POST /admin/drain or "
                           "SIGINT")
    mode.add_argument("--watch", metavar="DIR",
                      help="ingestion daemon: tail DIR for new .npy image "
                           "files, score each through the pool, and stream "
                           "verdicts to every --sink; restarts resume from "
                           "the checkpoint ledger without duplicate "
                           "verdicts; runs until SIGINT (or, with --once, "
                           "until the backlog drains)")
    parser.add_argument("--sink", action="append", metavar="SPEC",
                        help="with --watch: a verdict sink as scheme:target "
                             "— jsonl:PATH (JSON lines; jsonl:- for "
                             "stdout), csv:PATH (per-serial report), or "
                             "move:DIR (move each file into "
                             "DIR/label_<n>/). Repeatable; every verdict "
                             "goes to every sink (default: jsonl:-)")
    parser.add_argument("--ledger", metavar="PATH", default=None,
                        help="with --watch: checkpoint ledger path "
                             "(default: DIR/.ingest/ledger.jsonl)")
    parser.add_argument("--once", action="store_true",
                        help="with --watch: process the current backlog, "
                             "drain, and exit 0 instead of tailing forever")
    parser.add_argument("--poll-interval-s", type=float, default=None,
                        help="with --watch: directory scan cadence in "
                             "seconds; a file written in place is read once "
                             "unchanged for one interval. inotify, when "
                             "available, wakes the scanner early and lets "
                             "a complete .npy renamed into DIR skip that "
                             "wait (default: 0.25)")
    parser.add_argument("--max-in-flight", type=int, default=None,
                        help="with --watch: backpressure bound on files "
                             "submitted but not yet verdicted "
                             "(default: 16)")
    parser.add_argument("--output", metavar="NPZ",
                        help="with --images: also write probs/labels to "
                             "this .npz file")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the startup/health banner on stderr")
    return parser


def _parse_host_port(value: str) -> tuple[str, int]:
    """Split a ``HOST:PORT`` flag value; raises ValueError on bad input.

    IPv6 literals use the standard bracket form (``[::1]:8765``) and the
    brackets are stripped from the returned host — what the socket layer
    binds is the bare address.  Every malformed input (no colon, empty
    host, non-numeric or out-of-range-looking port, unbracketed v6) gets
    a usage-style message naming the expected HOST:PORT shape, never a
    raw ``int()`` traceback.
    """
    usage = (f"--http takes HOST:PORT (e.g. 127.0.0.1:8765 or [::1]:8765), "
             f"got {value!r}")
    if value.startswith("["):
        # Bracketed IPv6: [host]:port.
        host, sep, port = value.partition("]")
        host = host[1:]
        if not host or not sep or not port.startswith(":"):
            raise ValueError(usage)
        port = port[1:]
    else:
        host, sep, port = value.rpartition(":")
        if not sep or not host:
            raise ValueError(usage)
        if ":" in host:
            # An unbracketed v6 literal is ambiguous (every colon is a
            # candidate split); require the bracket form instead of
            # guessing.
            raise ValueError(
                f"IPv6 HOST:PORT must bracket the host, like "
                f"[{host}]:{port}; got {value!r}"
            )
    if not port.isdigit():
        raise ValueError(usage)
    return host, int(port)


def _load_image(path: str) -> np.ndarray:
    array = np.load(path)
    if array.ndim != 2:
        raise ValueError(f"{path}: expected a 2-D image array, "
                         f"got shape {array.shape}")
    return array


def _resolve_profile(profile: str, store_spec: str | None) -> str:
    """The local path to serve: ``--profile`` itself, or a store pull.

    An existing file always wins (a path is a path); otherwise, with a
    store configured, the value is treated as a serving fingerprint and
    materialized locally via ``store.path`` — raising
    ``FileNotFoundError`` when the store has no such profile.
    """
    if store_spec is None or os.path.exists(profile):
        return profile
    return str(open_profile_store(store_spec).path(profile))


def _fleet_banner(router: FleetRouter, out) -> None:
    summary = router.profile_summary()
    members = summary["fleet"]["members"]
    healthy = sum(1 for member in members if member["healthy"])
    print(f"fleet routing across {len(members)} member(s) "
          f"(fingerprint {router.serving_fingerprint()[:12]}): "
          f"{healthy}/{len(members)} healthy, "
          f"retry_limit={router.config.fleet_retry_limit}", file=out)


def _banner(pool: ServingPool, out) -> None:
    health = pool.health()
    ready = sum(1 for w in health.workers if w.ready)
    print(f"serving profile {pool.profile_path} "
          f"(fingerprint {pool.serving_fingerprint()[:12]}): "
          f"{ready}/{len(health.workers)} workers ready, "
          f"max_batch={pool.config.max_batch}, "
          f"max_wait_ms={pool.config.max_wait_ms}", file=out)


def _run_images(pool: ServingPool, paths: list[str], output: str | None,
                out) -> int:
    images = [_load_image(path) for path in paths]
    weak = pool.predict(images)
    for path, label, confidence in zip(paths, weak.labels, weak.confidence):
        print(f"{path}\t{int(label)}\t{confidence:.6f}", file=out)
    if output:
        np.savez(output, probs=weak.probs, labels=weak.labels)
    return 0


def _run_stdin(pool: ServingPool, out) -> int:
    """The JSONL daemon loop; one request per stdin line.

    Validation and error envelopes are the HTTP front end's
    (:func:`repro.serving.protocol.envelope_for` over the shared
    ``coerce_images`` validator inside ``pool.predict``), so a malformed
    image is reported with the identical code/message/status on both
    transports — pinned by a message-equality test.
    """
    for line in sys.stdin:
        path = line.strip()
        if not path:
            continue
        try:
            # One path = one single-image request, wrapped exactly like
            # HTTP's {"image": ...} form so a bad array yields the same
            # validation message on both transports.
            weak = pool.predict([np.load(path)])
        except (OSError, ValueError, ServingError, TimeoutError) as exc:
            print(json.dumps({"path": path, **envelope_for(exc)}),
                  file=out, flush=True)
            if pool.health().failure is not None:
                # The pool is terminally failed (e.g. respawn budget
                # exhausted) — every further line would fail identically.
                # Exit non-zero so a supervisor restarts the daemon instead
                # of mistaking this for per-image errors.
                print(f"error: serving pool failed: "
                      f"{pool.health().failure}", file=sys.stderr)
                return 3
            continue
        payload = response_payload(weak)
        print(json.dumps({
            "path": path,
            "label": payload["labels"][0],
            "confidence": payload["confidence"][0],
            "probs": payload["probs"][0],
        }), file=out, flush=True)
    return 0


def _run_http(pool: ServingPool, out) -> int:
    """The HTTP daemon loop: bind, announce, block until drained.

    Host and port come from ``pool.config`` (``main`` parsed the
    ``--http`` flag into it, so the address went through ServingConfig
    validation).
    """
    front = serve_http(pool)
    try:
        print(f"serving HTTP on {front.url}", file=out, flush=True)
        try:
            front.wait_drained()
        except KeyboardInterrupt:
            print("interrupt: draining in-flight requests", file=sys.stderr)
            front.drain(timeout=30.0)
        return 0
    finally:
        front.close()


def _run_watch(pool: ServingPool, controller, out) -> int:
    """The ingestion daemon loop: announce, tail (or drain once), stop.

    ``--once`` waits for the backlog to drain and exits; otherwise the
    loop runs until SIGINT.  Either way the controller is stopped with a
    full drain + flush, so every verdict for an admitted file is durable
    before the exit code is decided: 0 clean, 3 when the ingest loop
    terminally failed (a dead pool or a failed commit).
    """
    sinks = ", ".join(sink.describe() for sink in controller.sinks)
    print(f"watching {controller.watch_dir} (sinks: {sinks}, "
          f"ledger: {controller.ledger.path})", file=out, flush=True)
    try:
        if controller.once:
            controller.wait_idle()
        else:
            while controller.stats()["failure"] is None:
                time.sleep(0.5)
    except KeyboardInterrupt:
        print("interrupt: draining in-flight files", file=sys.stderr)
    finally:
        controller.stop(drain=True, flush=True)
    failure = controller.stats()["failure"]
    if failure is not None:
        print(f"error: ingest failed: {failure}", file=sys.stderr)
        return 3
    # Every counter: with no /healthz on this daemon, this line is how an
    # operator learns whether the producer gets the rename fast path.
    stats = controller.stats()
    counters = ("processed", "skipped", "failed", "quarantined", "proved",
                "retries", "commits")
    print("ingest drained: " + ", ".join(f"{stats[name]} {name}"
                                         for name in counters),
          file=sys.stderr)
    return 0


def _main_fleet(args, config: ServingConfig, out) -> int:
    """The ``--fleet`` path: route across remote pools instead of owning one.

    The pool-mode exit contract carries over: admission failures
    (fingerprint mismatch, malformed member URL) are usage-shaped (2),
    an unreachable fleet is a dead backend (3), per-request failures
    with a live fleet are 1.  The router duck-types the pool surface,
    so the mode runners (`_run_stdin`, `_run_http`, `_run_images`) are
    the same functions pool mode uses.
    """
    urls = [url.strip() for url in args.fleet.split(",") if url.strip()]
    try:
        if not urls:
            raise ValueError("--fleet needs at least one member URL")
        router = FleetRouter([HttpMember(url) for url in urls], config)
    except ValueError as exc:
        print(f"error: invalid serving option: {exc}", file=sys.stderr)
        return 2
    except ServingError as exc:  # includes MemberUnavailable on admission
        print(f"error: fleet admission failed: {exc}", file=sys.stderr)
        return 3
    try:
        if not args.quiet:
            _fleet_banner(router, sys.stderr)
        if args.stdin:
            return _run_stdin(router, out)
        if args.http is not None:
            return _run_http(router, out)
        return _run_images(router, args.images, args.output, out)
    except (OSError, ValueError, ServingError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        router.shutdown()


def main(argv: list[str] | None = None, stdout=None) -> int:
    """CLI entry point; returns the process exit code (see module doc)."""
    args = build_parser().parse_args(argv)
    out = sys.stdout if stdout is None else stdout
    if (args.profile is None) == (args.fleet is None):
        print("error: invalid serving option: exactly one of --profile "
              "or --fleet is required", file=sys.stderr)
        return 2
    if args.fleet is not None and args.watch is not None:
        print("error: invalid serving option: --watch needs a local pool "
              "(--profile), not a fleet", file=sys.stderr)
        return 2
    try:
        overrides = {}
        if args.profile_store is not None:
            overrides["profile_store"] = args.profile_store
        if args.http is not None:
            # Through ServingConfig so the address gets the same
            # validation as every other knob (port range, non-empty
            # host) — a bad --http value is a usage error, exit 2.
            host, port = _parse_host_port(args.http)
            overrides["http_host"] = host
            overrides["http_port"] = port
        if args.max_request_bytes is not None:
            overrides["max_request_bytes"] = args.max_request_bytes
        if args.request_timeout_s is not None:
            overrides["request_timeout_s"] = args.request_timeout_s
        if args.poll_interval_s is not None:
            overrides["ingest_poll_interval_s"] = args.poll_interval_s
        if args.max_in_flight is not None:
            overrides["ingest_max_in_flight"] = args.max_in_flight
        config = ServingConfig(
            workers=args.workers,
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            max_respawns=args.max_respawns,
            start_method=args.start_method,
            **overrides,
        )
    except ValueError as exc:
        # ServingConfig validates at construction; a bad flag value is a
        # usage error, same exit code as an unloadable profile path.
        print(f"error: invalid serving option: {exc}", file=sys.stderr)
        return 2
    sinks = None
    if args.watch is not None:
        # Validate the ingest wiring before the (slow) pool spin-up so a
        # typo'd sink scheme or missing watch dir fails fast as usage.
        try:
            if not os.path.isdir(args.watch):
                raise ValueError(
                    f"--watch directory {args.watch!r} does not exist "
                    "or is not a directory"
                )
            sinks = [parse_sink_spec(spec)
                     for spec in (args.sink or ["jsonl:-"])]
        except (ValueError, OSError) as exc:
            print(f"error: invalid serving option: {exc}", file=sys.stderr)
            return 2
    if args.fleet is not None:
        return _main_fleet(args, config, out)
    try:
        # A missing --profile file with a store configured is a
        # fingerprint pull; store failures are usage-shaped (exit 2),
        # same as an unreadable profile path.
        profile_path = _resolve_profile(args.profile, args.profile_store)
        pool = ServingPool(profile_path, config)
    except FileNotFoundError as exc:
        print(f"error: profile not found: {exc}", file=sys.stderr)
        return 2
    except ProfileError as exc:
        # The ProfileError subclasses carry actionable, mode-specific text
        # (not a profile / truncated / version skew); surface it verbatim.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # e.g. the profile store is unreachable; the pull failed before
        # any pool existed, so this is usage-shaped like a bad path.
        print(f"error: profile store failed: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # e.g. a saved config that fails validation: usage-shaped, like
        # an unreadable profile.
        print(f"error: invalid serving option: {exc}", file=sys.stderr)
        return 2
    except ServingError as exc:
        print(f"error: pool startup failed: {exc}", file=sys.stderr)
        return 3
    try:
        if not args.quiet:
            _banner(pool, sys.stderr)
        if args.stdin:
            return _run_stdin(pool, out)
        if args.http is not None:
            return _run_http(pool, out)
        if args.watch is not None:
            controller = start_ingest(pool, args.watch, sinks, args.ledger,
                                      once=args.once)
            return _run_watch(pool, controller, out)
        return _run_images(pool, args.images, args.output, out)
    except (OSError, ValueError, ServingError, TimeoutError) as exc:
        if pool.health().failure is not None:
            # Exit-code contract: 1 is a per-request failure, 3 a dead
            # pool (e.g. respawn budget exhausted) that a supervisor
            # should restart.
            print(f"error: serving pool failed: {exc}", file=sys.stderr)
            return 3
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        pool.shutdown()
