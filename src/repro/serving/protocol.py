"""Shared request/response protocol for the serving front ends.

Every transport that exposes a pool — in-process :meth:`ServingPool.submit`,
the stdin-JSONL daemon, and the HTTP front end — funnels request validation
through this module, so a given bad input produces the *same* error message
no matter how it arrived (pinned by a message-equality test in
``tests/test_serving_http.py``).  The pieces:

* :func:`coerce_images` — the single request validator.  ``ServingPool.
  submit`` calls it directly; the transports call it after decoding their
  wire format, so wire-level and in-process validation can never diverge.
* :func:`decode_image` / :func:`encode_image` — the wire image codec:
  either a nested list of numbers or a base64 envelope
  ``{"data": <b64 of raw bytes>, "shape": [H, W], "dtype": "float64"}``
  (exact, compact, and ~3x smaller than the list form).
* :func:`parse_label_request` — the ``POST /v1/label`` body schema:
  ``{"image": <image>}`` or ``{"images": [<image>, ...]}``.
* :class:`RequestError` + :func:`error_envelope` — the one error shape
  every front end emits: ``{"error": {"code", "message", "status"}}``.
* :func:`response_payload` / :func:`health_payload` — the success shapes:
  labels, confidence and probabilities as JSON floats (``/v1/label``) and
  the ``/healthz`` body.  Python's ``json`` serializes floats with
  shortest-round-trip ``repr``, so a client that parses them back into
  float64 recovers the pool's output **byte-identically** — and because
  the HTTP front end and the fleet router's members build their payloads
  here, a routed response is byte-identical to a direct one.
* :func:`decompress_body` / :func:`accepts_gzip` / :func:`gzip_body` —
  the one gzip seam for every transport: request bodies arrive with
  ``Content-Encoding: gzip`` (bounded by ``max_request_bytes`` *before*
  full decompression, so a gzip bomb is refused with 413 cheaply) and
  responses are compressed for ``Accept-Encoding: gzip`` clients with a
  pinned mtime, keeping compressed bytes deterministic across transports.
* :func:`format_base_url` — the one ``host:port`` → URL formatter:
  brackets IPv6 literals and maps wildcard binds to a
  loopback-connectable address, so startup banners are always pasteable.
"""

from __future__ import annotations

import base64
import binascii
import gzip as _gzip
import zlib

import numpy as np

from repro.imaging.ops import as_image
from repro.labeler.weak_labels import WeakLabels

__all__ = [
    "RETRY_AFTER_S",
    "RequestError",
    "accepts_gzip",
    "coerce_images",
    "decode_image",
    "decompress_body",
    "encode_image",
    "envelope_for",
    "error_envelope",
    "format_base_url",
    "gzip_body",
    "health_payload",
    "parse_label_request",
    "response_payload",
    "retry_after_for",
]

# Seconds a 503 response tells well-behaved clients to back off before
# retrying (the Retry-After header, sent by the HTTP front end): long
# enough that a draining pool is not hammered on its way down, short
# enough that a respawning pool is retried promptly.
RETRY_AFTER_S = 5


def retry_after_for(status: int) -> int | None:
    """The ``Retry-After`` seconds for a response status, or ``None``.

    The one place the backoff policy lives: the HTTP front end calls
    this when emitting a response (only 503 — pool draining or
    respawning — carries the header today), and the ingest retry loop
    uses the same value to pace its re-submits, so an in-process
    watcher backs off exactly as long as a well-behaved HTTP client
    would.
    """
    return RETRY_AFTER_S if status == 503 else None

# dtypes accepted in base64 image envelopes: any real numeric scalar kind.
# Rejecting everything else up front keeps object/str/void payloads from
# ever reaching np.frombuffer.
_NUMERIC_KINDS = frozenset("fiub")


class RequestError(ValueError):
    """A request that cannot be served, with its wire-level identity.

    ``code`` is a stable machine-readable slug (clients switch on it),
    ``status`` the HTTP status the HTTP front end responds with; other
    transports carry both in their error envelope so a given failure looks
    the same everywhere.
    """

    def __init__(self, code: str, message: str, status: int = 400):
        super().__init__(message)
        self.code = code
        self.status = status


def coerce_images(images) -> list[np.ndarray]:
    """Validate a request's images; the single boundary check for all fronts.

    Accepts one bare 2-D array or an iterable of arrays/array-likes and
    returns the float64 2-D list the match engine consumes.  Raises
    ``ValueError`` (message stable across transports) for non-numeric or
    non-2-D entries and for an empty request.  Validating *here*, at the
    request boundary, matters for batching: a bad array must fail its own
    request, never reach a worker where its task error would take down
    unrelated requests coalesced into the same micro-batch.  Reusing the
    engine's own ``as_image`` keeps this check and the engine's conversion
    from ever diverging.
    """
    if isinstance(images, np.ndarray) and images.ndim == 2:
        images = [images]
    try:
        images = [as_image(image) for image in images]
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"images must be numeric 2-D arrays ({exc})"
        ) from exc
    if not images:
        raise ValueError(
            "predict received no images; pass a 2-D array or a "
            "non-empty list of 2-D arrays"
        )
    return images


def encode_image(array: np.ndarray) -> dict:
    """The compact wire form of one image: base64 raw bytes + shape + dtype.

    The inverse of :func:`decode_image`; round-trips any numeric 2-D array
    bit-exactly (C-order raw bytes, no quantization).
    """
    array = np.ascontiguousarray(array)
    return {
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
        "shape": list(array.shape),
        "dtype": array.dtype.name,
    }


def decode_image(entry) -> np.ndarray:
    """Decode one wire image (nested list or base64 envelope) to an array.

    Raises :class:`RequestError` (code ``bad_request``) on structural
    problems — wrong dtype name, data/shape length mismatch, non-list
    payloads.  Numeric validation (2-D, non-empty, real-valued) is *not*
    done here; it belongs to :func:`coerce_images` so the message matches
    the in-process path exactly.
    """
    if isinstance(entry, dict):
        missing = {"data", "shape", "dtype"} - set(entry)
        if missing:
            raise RequestError(
                "bad_request",
                "base64 image envelope must have data/shape/dtype keys "
                f"(missing {sorted(missing)})",
            )
        try:
            dtype = np.dtype(entry["dtype"])
        except TypeError as exc:
            raise RequestError(
                "bad_request", f"unknown image dtype {entry['dtype']!r}"
            ) from exc
        if dtype.kind not in _NUMERIC_KINDS:
            raise RequestError(
                "bad_request",
                f"image dtype must be numeric, got {entry['dtype']!r}",
            )
        try:
            raw = base64.b64decode(entry["data"], validate=True)
        except (binascii.Error, TypeError, ValueError) as exc:
            raise RequestError(
                "bad_request", f"image data is not valid base64 ({exc})"
            ) from exc
        shape = entry["shape"]
        if (not isinstance(shape, (list, tuple))
                or not all(isinstance(side, int) and side >= 0
                           for side in shape)):
            raise RequestError(
                "bad_request",
                f"image shape must be a list of non-negative ints, "
                f"got {shape!r}",
            )
        expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if len(raw) != expected:
            raise RequestError(
                "bad_request",
                f"image data has {len(raw)} bytes but shape {list(shape)} "
                f"with dtype {dtype.name} needs {expected}",
            )
        return np.frombuffer(raw, dtype=dtype).reshape(shape)
    if isinstance(entry, list):
        try:
            return np.asarray(entry)
        except (TypeError, ValueError) as exc:
            raise RequestError(
                "bad_request", f"image is not a rectangular array ({exc})"
            ) from exc
    raise RequestError(
        "bad_request",
        "each image must be a nested list of numbers or a base64 envelope "
        f"{{data, shape, dtype}}, got {type(entry).__name__}",
    )


def parse_label_request(payload) -> list:
    """Extract the raw image entries from a ``/v1/label`` body.

    The body must be a JSON object with exactly one of ``image`` (single)
    or ``images`` (batch, a list).  Returns the undecoded entries; raises
    :class:`RequestError` (code ``bad_request``) on any other shape.
    """
    if not isinstance(payload, dict):
        raise RequestError(
            "bad_request",
            f"request body must be a JSON object, got "
            f"{type(payload).__name__}",
        )
    has_single = "image" in payload
    has_batch = "images" in payload
    if has_single == has_batch:
        raise RequestError(
            "bad_request",
            'request body must have exactly one of "image" (single) or '
            '"images" (batch)',
        )
    if has_single:
        return [payload["image"]]
    entries = payload["images"]
    if not isinstance(entries, list):
        raise RequestError(
            "bad_request",
            f'"images" must be a list, got {type(entries).__name__}',
        )
    return entries


def error_envelope(code: str, message: str, status: int) -> dict:
    """The one error shape every serving front end emits."""
    return {"error": {"code": code, "message": message, "status": status}}


def envelope_for(exc: BaseException, *, default_status: int = 500) -> dict:
    """Map an exception to its error envelope (transport-independent).

    ``RequestError`` carries its own code/status; ``TimeoutError`` becomes
    ``timeout``/504 (the pool accepted the request but the response did
    not arrive in time), plain ``ValueError`` — what
    :func:`coerce_images` raises — becomes ``bad_request``/400,
    ``ServingError`` becomes ``unavailable``/503 (the pool is draining,
    shut down, or terminally failed), ``OSError`` becomes ``io_error``/400
    (an unreadable client-named path in the stdin front end).  Anything
    else is ``internal`` with ``default_status``.
    """
    from repro.serving.dispatcher import ServingError

    if isinstance(exc, RequestError):
        return error_envelope(exc.code, str(exc), exc.status)
    if isinstance(exc, TimeoutError):
        return error_envelope("timeout", str(exc), 504)
    if isinstance(exc, ValueError):
        return error_envelope("bad_request", str(exc), 400)
    if isinstance(exc, ServingError):
        return error_envelope("unavailable", str(exc), 503)
    if isinstance(exc, OSError):
        return error_envelope("io_error", str(exc), 400)
    return error_envelope("internal", str(exc), default_status)


_WILDCARD_HOSTS = {"0.0.0.0": "127.0.0.1", "::": "::1", "": "127.0.0.1"}


def format_base_url(host: str, port: int) -> str:
    """The base URL clients should target for a bound ``(host, port)``.

    IPv6 literals are bracketed (``http://[::1]:8765`` — unbracketed v6
    hosts are not valid URLs), and wildcard binds (``0.0.0.0``/``::``)
    map to their loopback address so the startup banner prints a URL a
    client on the same machine can actually connect to.
    """
    connect_host = _WILDCARD_HOSTS.get(host, host)
    if ":" in connect_host:
        connect_host = f"[{connect_host}]"
    return f"http://{connect_host}:{port}"


def decompress_body(body: bytes, content_encoding: str | None,
                    max_bytes: int) -> bytes:
    """Undo a request body's ``Content-Encoding``; the one gzip seam.

    ``identity``/absent returns the body untouched.  ``gzip`` inflates it
    with the output bounded by ``max_bytes`` — a body that *decompresses*
    past the limit is refused with the same 413 identity as one whose
    compressed size tripped the Content-Length check, without ever
    materializing the full bomb.  Raises :class:`RequestError` with code
    ``unsupported_encoding``/415 for any other encoding and
    ``bad_request``/400 for corrupt or truncated gzip data.
    """
    encoding = (content_encoding or "identity").strip().lower()
    if encoding in ("", "identity"):
        return body
    if encoding != "gzip":
        raise RequestError(
            "unsupported_encoding",
            f"unsupported Content-Encoding {content_encoding!r} "
            "(only gzip and identity)",
            415,
        )
    decompressor = zlib.decompressobj(wbits=16 + zlib.MAX_WBITS)
    out = bytearray()
    data = body
    try:
        while True:
            out += decompressor.decompress(data, max_bytes + 1 - len(out))
            if len(out) > max_bytes or not decompressor.unconsumed_tail:
                break
            data = decompressor.unconsumed_tail
        if len(out) <= max_bytes and not decompressor.eof:
            raise zlib.error("truncated gzip stream")
    except zlib.error as exc:
        raise RequestError(
            "bad_request", f"request body is not valid gzip ({exc})"
        ) from exc
    if len(out) > max_bytes:
        raise RequestError(
            "payload_too_large",
            f"request body decompresses past the limit of {max_bytes} "
            "bytes (ServingConfig.max_request_bytes)",
            413,
        )
    return bytes(out)


def accepts_gzip(accept_encoding: str | None) -> bool:
    """Whether an ``Accept-Encoding`` header opts into gzip responses.

    Token scan over the comma-separated list: ``gzip`` (or ``*``) with a
    non-zero ``q`` accepts.  Absent or empty headers decline — a client
    that did not ask never has to decompress.
    """
    if not accept_encoding:
        return False
    for part in accept_encoding.split(","):
        token, _, params = part.partition(";")
        if token.strip().lower() not in ("gzip", "*"):
            continue
        params = params.strip().lower()
        if params.startswith("q="):
            try:
                return float(params[2:]) > 0
            except ValueError:
                return False
        return True
    return False


def gzip_body(body: bytes, level: int = 6) -> bytes:
    """Gzip a response body deterministically (``mtime=0``).

    Pinning the gzip header timestamp keeps compressed response bytes a
    pure function of the payload, so equal requests get byte-identical
    answers even when responding compressed.
    """
    return _gzip.compress(body, compresslevel=level, mtime=0)


def health_payload(health, draining: bool, ingest: dict | None = None) -> dict:
    """The ``GET /healthz`` body for one pool health snapshot.

    Shared by the HTTP front end over a pool and over a fleet router, so
    both health responses are built — and serialize — identically;
    ``health`` is a :class:`~repro.serving.pool.PoolHealth`.  ``ingest``,
    when the pool has a watch-folder controller attached, is its live
    counter snapshot
    (:meth:`~repro.serving.ingest.controller.IngestController.stats`) and
    appears under an ``"ingest"`` key; pools without ingestion omit the
    key entirely, keeping existing consumers unaffected.
    """
    payload = {
        "ok": health.ok,
        "draining": draining,
        "pending_requests": health.pending_requests,
        "respawns_left": health.respawns_left,
        "failure": health.failure,
        "workers": [
            {
                "worker_id": w.worker_id,
                "pid": w.pid,
                "alive": w.alive,
                "ready": w.ready,
                "outstanding_tasks": w.outstanding_tasks,
                "outstanding_images": w.outstanding_images,
                "tasks_done": w.tasks_done,
            }
            for w in health.workers
        ],
    }
    if ingest is not None:
        payload["ingest"] = ingest
    return payload


def response_payload(weak: WeakLabels) -> dict:
    """The one success shape: a ``WeakLabels`` as JSON-ready plain data.

    Floats go through Python's shortest-round-trip ``repr`` when the
    caller JSON-serializes this, so parsing them back as float64 recovers
    ``weak.probs`` byte-identically.
    """
    return {
        "n_images": len(weak),
        "n_classes": weak.n_classes,
        "labels": [int(label) for label in weak.labels],
        "confidence": [float(c) for c in weak.confidence],
        "probs": [[float(p) for p in row] for row in weak.probs],
    }
