"""HTTP front end: the serving pool on a TCP socket, stdlib-only.

:func:`serve_http` puts a :class:`~repro.serving.pool.ServingPool` behind a
threaded ``http.server`` so non-Python clients can reach it::

    with ServingPool("ksdd.igz", workers=4) as pool:
        with serve_http(pool, host="127.0.0.1", port=8765) as front:
            print(front.url)          # http://127.0.0.1:8765
            front.wait_drained()      # block until POST /admin/drain

Endpoints (full reference with schemas and a curl walkthrough in
``docs/serving.md``):

``POST /v1/label``
    Label one image (``{"image": ...}``) or a batch (``{"images":
    [...]}``); images are nested number lists or base64 envelopes
    (:func:`repro.serving.protocol.encode_image`).  Each HTTP request
    becomes one ``Dispatcher.submit``, so concurrent HTTP clients are
    micro-batched across workers exactly like in-process callers — and the
    response probabilities parse back into float64 **byte-identical** to
    single-process ``predict``.
``GET /healthz``
    Worker liveness/readiness from :meth:`ServingPool.health` (200 when
    every worker is alive and ready, 503 otherwise); add ``?ping=1`` to
    include per-worker round-trip times from :meth:`ServingPool.ping`.
``GET /profile``
    The loaded profile's ``serving_fingerprint()`` plus its tuning summary
    and the pool's dispatch knobs — what a router needs to know which
    hosts serve identical answers.
``GET /v1/profiles/<fingerprint>``
    The served profile's raw file bytes, iff ``<fingerprint>`` is its
    ``serving_fingerprint()`` (404 otherwise) — the pull side of the
    shared profile store (:class:`repro.core.artifacts.HttpProfileStore`),
    so fleet members can fetch the exact profile a host is serving.
``POST /admin/drain``
    Graceful shutdown: new label requests are refused with 503 while
    every in-flight request completes; the response reports whether the
    drain finished in time, and :meth:`HttpFrontEnd.wait_drained` unblocks
    so the owner can tear the pool down.

Error contract: every failure is ``{"error": {"code", "message",
"status"}}`` (:mod:`repro.serving.protocol`), with distinct status codes —
400 malformed payload or ambiguous framing, 404 unknown path, 405 wrong
or unknown method, 408 stalled body, 411 missing length, 413 oversized
request (raw *or* after gzip inflation), 415 unsupported
``Content-Encoding``, 503 draining/failed pool (with a ``Retry-After``
header so clients back off), 504 request timeout — and the statuses the
stdlib request parser refuses with (400 malformed request line, 414
overlong request line, 431 too many or too long header lines, 505 HTTP/2
or later) carry the same envelope.  One request can never affect another:
validation happens before ``submit`` (a bad image fails only its own
request), and each request's images are validated by the same
:func:`~repro.serving.protocol.coerce_images` the in-process and stdin
front ends use, so error messages match across transports.

Framing (RFC 9112 §6.3): a request body is framed by ``Content-Length``
alone.  Any ``Transfer-Encoding``, a ``Content-Length`` that is not ASCII
digits, or repeated ``Content-Length`` values that differ answer 400
before routing, with the body unread and the connection closed.  A
connection stays open past a request that carried a body only if the
body was read in full, so leftover bytes are never parsed as a second
request.  An HTTP/0.9 request line (``GET /path`` with no version) is
refused with 400 on an HTTP/1.1 status line, not answered with a bare
body.  ``Expect: 100-continue`` is answered with ``100 Continue`` only
when the body is about to be read, so a request refused from its head
alone (400, 404, 405, 411, 413, or 503 while draining) gets that refusal
as its only response.

Compression: request bodies may be gzipped (``Content-Encoding: gzip``);
they are inflated under the same ``max_request_bytes`` budget, so a gzip
bomb is refused with 413 before full decompression.  Responses are
gzipped at :data:`GZIP_LEVEL` for clients sending ``Accept-Encoding:
gzip`` when the body reaches :data:`GZIP_MIN_BYTES` (base64 float64 images
are ~3× raw, so this is a real wire win); compressed bytes are
deterministic (``mtime=0``), so transport byte-identity holds for
compressed responses too.

Threading model: ``ThreadingHTTPServer`` runs one daemon thread per
connection; handler threads block in ``pool.predict`` while the
dispatcher's own threads coalesce their requests into micro-batches.  The
accept loop runs in a background thread owned by :class:`HttpFrontEnd`;
nothing here touches worker processes directly.  IPv6 bind hosts select
``AF_INET6`` automatically, and :attr:`HttpFrontEnd.url` always renders a
connectable URL (bracketed v6, wildcard binds mapped to loopback).
"""

from __future__ import annotations

import json
import socket
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.serving.dispatcher import ServingError, debug
from repro.serving.protocol import (
    RequestError,
    accepts_gzip,
    decode_image,
    decompress_body,
    envelope_for,
    error_envelope,
    format_base_url,
    gzip_body,
    health_payload,
    parse_label_request,
    response_payload,
    retry_after_for,
)

__all__ = ["HttpFrontEnd", "serve_http"]

# Negotiated response compression: a body of at least GZIP_MIN_BYTES is
# gzipped at zlib level GZIP_LEVEL (compressing ~100 bytes costs more than
# it saves).
GZIP_MIN_BYTES = 512
GZIP_LEVEL = 6

# Envelope codes for the statuses the stdlib request parser refuses with.
_PARSER_CODES = {
    400: "bad_request",
    414: "uri_too_long",
    431: "header_fields_too_large",
    505: "http_version_not_supported",
}


class _HttpServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` with a per-instance address family.

    The stdlib class pins ``address_family`` to ``AF_INET`` at class
    level, so an IPv6 bind host (``::1``) would fail at socket creation;
    shadowing it on the instance before ``TCPServer.__init__`` creates
    the socket is the supported way to rebind the family per server.
    """

    # TCPServer's default listen backlog is 5 — a burst of concurrent
    # clients connecting at once overflows it and gets connection resets.
    request_queue_size = 100

    def __init__(self, address, handler, family=socket.AF_INET):
        self.address_family = family
        super().__init__(address, handler)


class HttpFrontEnd:
    """A running HTTP server bound to one pool; returned by :func:`serve_http`.

    Owns the listening socket and its accept-loop thread.  The pool is
    *not* owned: closing the front end stops the HTTP surface but leaves
    the pool running (the CLI and tests shut the pool down themselves).
    Usable as a context manager (``close`` on exit).
    """

    def __init__(self, pool, host: str, port: int,
                 max_request_bytes: int, request_timeout_s: float):
        self.pool = pool
        self.max_request_bytes = max_request_bytes
        self.request_timeout_s = request_timeout_s
        self._drained = threading.Event()
        self._refusing: str | None = None
        self._lock = threading.Lock()
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        self._server = _HttpServer((host, port), _Handler, family=family)
        self._server.daemon_threads = True
        self._server.front = self
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="serving-http",
            daemon=True,
        )
        self._thread.start()

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — the actual port when 0 was asked."""
        return self._server.server_address[:2]

    @property
    def url(self) -> str:
        """Base URL clients can connect to, e.g. ``http://127.0.0.1:8765``.

        IPv6 hosts are bracketed (``http://[::1]:8765``) and wildcard
        binds (``0.0.0.0``/``::``) are mapped to the loopback address —
        a URL a client on this machine can actually open, rather than
        the unconnectable bind address.
        """
        return format_base_url(*self.address)

    def drain(self, timeout: float | None = None) -> bool:
        """Refuse new label requests, then wait for in-flight ones.

        Idempotent.  Returns ``True`` when every outstanding request
        settled within ``timeout`` seconds (``None`` waits indefinitely).
        The server itself keeps answering ``/healthz`` and ``/profile``
        afterwards — observability must survive a drain — and
        :meth:`wait_drained` unblocks either way.  (``POST /admin/drain``
        uses the split :meth:`_drain_pool` + event so its response is on
        the wire before the daemon owner starts tearing down.)
        """
        done = self._drain_pool(timeout)
        self._drained.set()
        return done

    def _drain_pool(self, timeout: float | None) -> bool:
        """The drain work without signalling :meth:`wait_drained` waiters."""
        with self._lock:
            self._refusing = "draining"
        return self.pool.drain(timeout)

    def wait_drained(self, timeout: float | None = None) -> bool:
        """Block until a drain completed; ``True`` if it did within timeout."""
        return self._drained.wait(timeout)

    def refusing(self) -> str | None:
        """Why label requests are being refused, or ``None`` when serving."""
        with self._lock:
            return self._refusing

    def close(self) -> None:
        """Stop accepting connections and join the accept loop. Idempotent."""
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "HttpFrontEnd":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def serve_http(pool, host: str | None = None, port: int | None = None, *,
               max_request_bytes: int | None = None,
               request_timeout_s: float | None = None) -> HttpFrontEnd:
    """Expose ``pool`` over HTTP; returns the running :class:`HttpFrontEnd`.

    Args:
        pool: a started :class:`~repro.serving.pool.ServingPool`.
        host: interface to bind (default ``pool.config.http_host``).
            IPv6 hosts (``"::1"``, ``"::"``) select ``AF_INET6``
            automatically.
        port: TCP port to bind; ``0`` picks an ephemeral port, readable
            back from :attr:`HttpFrontEnd.address` (default
            ``pool.config.http_port``).
        max_request_bytes: reject request bodies larger than this with
            413 before reading them (default
            ``pool.config.max_request_bytes``).
        request_timeout_s: per-request bound on waiting for the pool's
            response; an overrun answers 504 (default
            ``pool.config.request_timeout_s``).

    Returns:
        The bound front end, its accept loop already running.

    Raises:
        OSError: the address cannot be bound (port taken, bad host).
    """
    config = pool.config
    front = HttpFrontEnd(
        pool,
        host=config.http_host if host is None else host,
        port=config.http_port if port is None else port,
        max_request_bytes=(config.max_request_bytes
                           if max_request_bytes is None else max_request_bytes),
        request_timeout_s=(config.request_timeout_s
                           if request_timeout_s is None else request_timeout_s),
    )
    debug(f"http front end listening on {front.url}")
    return front


class _Handler(BaseHTTPRequestHandler):
    """Route table and wire plumbing; one instance per connection."""

    server_version = "InspectorGadgetServing/1.0"
    protocol_version = "HTTP/1.1"  # keep-alive; responses carry Content-Length
    # TCP_NODELAY: headers and body go out as two writes, and with Nagle
    # on, the body write stalls behind the client's delayed ACK (~40 ms
    # per response on a keep-alive connection).
    disable_nagle_algorithm = True

    @property
    def front(self) -> HttpFrontEnd:
        return self.server.front

    def setup(self) -> None:
        # Socket timeout (BaseHTTPRequestHandler honors self.timeout):
        # without it, a client that announces Content-Length but stalls
        # mid-body would pin this handler thread forever.  A stalled read
        # surfaces as TimeoutError in _read_body (answered 408) or, while
        # idle between keep-alive requests, closes the connection.
        self.timeout = self.front.request_timeout_s
        super().setup()

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        debug(f"http {self.address_string()} {format % args}")

    # -- framing --------------------------------------------------------------

    def parse_request(self) -> bool:
        """The stdlib parse, then the framing rules of the module docstring.

        A request that carries a body closes its connection unless
        :meth:`_read_body` reads that body in full.
        """
        self._expect_continue = False
        if not super().parse_request():
            return False
        if self.request_version == self.default_request_version:
            # HTTP/0.9: the stdlib would answer with a bare body.
            self.send_error(400, "HTTP/0.9 requests are not supported; "
                                 "send an HTTP/1.1 request line")
            return False
        self._keep_alive = not self.close_connection
        try:
            self._body_length = _content_length(self.headers)
        except ValueError as exc:
            self.close_connection = True
            self._send_error_envelope(400, "bad_request", str(exc))
            return False
        if self._body_length:
            self.close_connection = True
        return True

    def send_error(self, code: int, message: str | None = None,
                   explain: str | None = None) -> None:
        """Answer the stdlib's own refusals with the JSON envelope.

        ``BaseHTTPRequestHandler`` calls this for an unknown method (501,
        answered 405 here) and from its request parser (400, 414, 431,
        505), possibly before a request version is known, when it would
        answer as HTTP/0.9 with no status line.  The envelope always goes
        out as HTTP/1.1, uncompressed (the headers may be unparsed), and
        the connection closes.
        """
        self.request_version = self.protocol_version
        self.close_connection = True
        if code == HTTPStatus.NOT_IMPLEMENTED:
            code, slug = 405, "method_not_allowed"
            text = f"unsupported method {self.command}"
        else:
            slug = _PARSER_CODES.get(code, "bad_request")
            text = message or HTTPStatus(code).phrase
            if explain:
                text = f"{text} ({explain})"
        self._send_error_envelope(code, slug, text, gzip_ok=False)

    def handle_expect_100(self) -> bool:
        """Defer ``100 Continue`` to :meth:`_read_body`.

        The stdlib sends it from its parser, before any check has run; a
        request refused from its head alone must get that refusal as its
        only response.
        """
        self._expect_continue = True
        return True

    # -- routes ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server's contract)
        parsed = urlparse(self.path)
        if parsed.path == "/healthz":
            self._healthz(parse_qs(parsed.query))
        elif parsed.path == "/profile":
            self._profile()
        elif parsed.path.startswith("/v1/profiles/"):
            self._profile_bytes(parsed.path[len("/v1/profiles/"):])
        elif parsed.path == "/v1/label":
            self._send_error_envelope(
                405, "method_not_allowed",
                "use POST for /v1/label",
            )
        else:
            self._send_error_envelope(
                404, "not_found", f"unknown path {parsed.path!r}"
            )

    def do_POST(self) -> None:  # noqa: N802
        # Refusals answer without reading the body; parse_request has
        # already marked a connection that carries one to close.
        path = urlparse(self.path).path
        if path == "/v1/label":
            self._label()
        elif path == "/admin/drain":
            self._drain()
        elif path in ("/healthz", "/profile"):
            self._send_error_envelope(
                405, "method_not_allowed", f"use GET for {path}"
            )
        else:
            self._send_error_envelope(
                404, "not_found", f"unknown path {path!r}"
            )

    # -- endpoint bodies ------------------------------------------------------

    def _label(self) -> None:
        refusing = self.front.refusing()
        if refusing is not None:
            self._send_error_envelope(
                503, "unavailable",
                f"serving pool is not accepting requests ({refusing})",
            )
            return
        body = self._read_body()
        if body is None:
            return  # error already sent
        try:
            payload = json.loads(body)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            self._send_error_envelope(
                400, "bad_request", f"request body is not valid JSON ({exc})"
            )
            return
        try:
            entries = parse_label_request(payload)
            # predict() runs the shared coerce_images validator on these
            # decoded arrays — don't validate twice here.
            weak = self.front.pool.predict(
                [decode_image(e) for e in entries],
                timeout=self.front.request_timeout_s,
            )
        except (RequestError, ValueError, ServingError,
                TimeoutError) as exc:
            self._send_json_envelope(envelope_for(exc))
            return
        self._send_json(200, response_payload(weak))

    def _healthz(self, query: dict) -> None:
        health = self.front.pool.health()
        payload = health_payload(health, self.front.refusing() is not None,
                                 ingest=self.front.pool.ingest_stats())
        if query.get("ping"):
            try:
                rtts = self.front.pool.ping(timeout=2.0)
            except ServingError:
                rtts = {}
            payload["ping_ms"] = {
                str(worker_id): rtt * 1000.0
                for worker_id, rtt in sorted(rtts.items())
            }
        # Liveness contract for probes/load-balancers: 200 only while the
        # pool can actually answer label requests.
        self._send_json(200 if health.ok else 503, payload)

    def _profile(self) -> None:
        self._send_json(200, self.front.pool.profile_summary())

    def _profile_bytes(self, fingerprint: str) -> None:
        """``GET /v1/profiles/<fingerprint>``: the raw profile file.

        The pull side of the shared profile store
        (:class:`repro.core.artifacts.HttpProfileStore`).  The body is
        the profile's bytes verbatim — already gzip-framed by
        ``InspectorGadget.save`` — so it is served as octet-stream with
        no transport compression.
        """
        payload = self.front.pool.profile_bytes(fingerprint)
        if payload is None:
            self._send_error_envelope(
                404, "not_found",
                f"no profile with fingerprint {fingerprint!r} on this host",
            )
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(len(payload)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)

    def _drain(self) -> None:
        body = self._read_body(allow_empty=True)
        if body is None:
            return
        timeout: float | None = None
        if body:
            try:
                payload = json.loads(body)
                if not isinstance(payload, dict):
                    raise ValueError("drain body must be a JSON object")
                timeout = payload.get("timeout")
                if timeout is not None:
                    timeout = float(timeout)
            except (json.JSONDecodeError, UnicodeDecodeError,
                    TypeError, ValueError) as exc:
                self._send_error_envelope(
                    400, "bad_request", f"invalid drain body ({exc})"
                )
                return
        drained = self.front._drain_pool(timeout)
        pending = self.front.pool.health().pending_requests
        # Respond before signalling wait_drained(): the daemon owner tears
        # the process down on that signal, and the supervisor that asked
        # for the drain must get its {"drained": ...} reply first.  The
        # finally guarantees the signal even on a broken client socket —
        # a drain must never wedge the daemon's exit path.
        try:
            self._send_json(200, {"drained": drained, "pending": pending})
        finally:
            self.front._drained.set()

    # -- wire helpers ---------------------------------------------------------

    def _read_body(self, allow_empty: bool = False) -> bytes | None:
        """Read the request body within the size budget, or send the error.

        Returns ``None`` after answering 411 (no Content-Length), 413
        (over ``max_request_bytes``, left unread) or 408 (stalled body);
        each closes the connection.  A body read in full restores the
        keep-alive the client asked for.  A client that sent ``Expect:
        100-continue`` is told to send the body just before it is read.
        """
        length = self._body_length
        if length is None:
            if allow_empty:
                return b""
            self.close_connection = True
            self._send_error_envelope(
                411, "length_required",
                "request must carry a Content-Length header",
            )
            return None
        if length > self.front.max_request_bytes:
            self._send_error_envelope(
                413, "payload_too_large",
                f"request body of {length} bytes exceeds the limit of "
                f"{self.front.max_request_bytes} bytes "
                "(ServingConfig.max_request_bytes)",
            )
            return None
        if self._expect_continue:
            self.send_response_only(HTTPStatus.CONTINUE)
            self.end_headers()
        try:
            raw = self.rfile.read(length)
        except TimeoutError:
            # The client stalled mid-body (socket timeout from setup()).
            # The read side is dead but the write side usually is not;
            # try to say why before dropping the connection.
            self._send_error_envelope(
                408, "request_timeout",
                f"request body not received within "
                f"{self.front.request_timeout_s}s",
            )
            return None
        self.close_connection = not self._keep_alive
        try:
            # Identity passthrough, gzip inflated under the same
            # max_request_bytes budget (a gzip bomb answers 413 without
            # ever being fully inflated), anything else 415.  The body
            # was fully read, so keep-alive framing is intact.
            return decompress_body(
                raw, self.headers.get("Content-Encoding"),
                self.front.max_request_bytes,
            )
        except RequestError as exc:
            self._send_json_envelope(envelope_for(exc))
            return None

    def _send_json(self, status: int, payload: dict,
                   gzip_ok: bool = True) -> None:
        body = json.dumps(payload).encode("utf-8")
        encoding = None
        if (gzip_ok and len(body) >= GZIP_MIN_BYTES
                and accepts_gzip(self.headers.get("Accept-Encoding"))):
            body = gzip_body(body, level=GZIP_LEVEL)
            encoding = "gzip"
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        if encoding:
            self.send_header("Content-Encoding", encoding)
        self.send_header("Content-Length", str(len(body)))
        retry_after = retry_after_for(status)
        if retry_after is not None:
            self.send_header("Retry-After", str(retry_after))
        if self.close_connection:
            # Refused-unread paths close the connection (parse_request);
            # advertise it so keep-alive clients don't retry into a
            # half-closed socket.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_json_envelope(self, envelope: dict) -> None:
        self._send_json(envelope["error"]["status"], envelope)

    def _send_error_envelope(self, status: int, code: str, message: str,
                             gzip_ok: bool = True) -> None:
        self._send_json(status, error_envelope(code, message, status),
                        gzip_ok=gzip_ok)


def _content_length(headers) -> int | None:
    """The request body's length under RFC 9112 §6.3, ``None`` if absent.

    Raises ``ValueError`` with the client-facing message when the length
    is ambiguous: any ``Transfer-Encoding`` (no chunked bodies are read
    here, and one beside a ``Content-Length`` is a smuggling vector), a
    ``Content-Length`` that is not ASCII digits (``int`` would take
    ``+2`` or ``1_0``), or repeated values that differ.
    """
    if "Transfer-Encoding" in headers:
        raise ValueError(
            "Transfer-Encoding is not supported; send the body with a "
            "Content-Length header"
        )
    lengths = set()
    for value in headers.get_all("Content-Length", ()):
        value = value.strip(" \t")
        if not (value.isascii() and value.isdigit()):
            raise ValueError(f"invalid Content-Length {value!r}")
        lengths.add(int(value))
    if len(lengths) > 1:
        raise ValueError(
            f"conflicting Content-Length values {sorted(lengths)}"
        )
    return lengths.pop() if lengths else None
