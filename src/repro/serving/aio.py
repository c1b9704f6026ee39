"""Asyncio HTTP front end: the serving pool under high connection counts.

:func:`serve_http_async` is the drop-in sibling of
:func:`repro.serving.http.serve_http`: the same endpoint surface
(``POST /v1/label``, ``GET /healthz`` (+``?ping=1``), ``GET /profile``,
``GET /v1/profiles/<fingerprint>``, ``POST /admin/drain``), the same
error envelopes with the same message
strings, the same limits (411/413 before reading oversized bodies, gzip
inflation bounded by ``max_request_bytes``, ``request_timeout_s`` → 504,
drain → 503 + ``Retry-After`` with observability staying up), and
**byte-identical** response bodies — all of it pinned by
``tests/test_serving_aio.py`` against both the threaded front end and
single-process ``predict``.  What changes is the concurrency model:

* ``ThreadingHTTPServer`` spends one OS thread per connection, parked in
  ``pool.predict`` while the dispatcher works.  Fine for tens of clients;
  at hundreds-to-thousands (the ROADMAP's "millions of users" path) the
  per-thread stacks and scheduler churn dominate.
* Here a single ``asyncio.start_server`` event loop owns every
  connection.  A label request costs one :class:`asyncio.Future`, not one
  thread: ``Dispatcher.submit`` returns a
  :class:`~repro.serving.dispatcher.PendingPrediction`, whose
  ``add_done_callback`` hops the settled result back onto the loop via
  ``call_soon_threadsafe``.  The loop never blocks on a pool result, and
  ten thousand in-flight requests are ten thousand futures.

The loop runs in one background daemon thread owned by
:class:`AsyncHttpFrontEnd`, so the construction/close API matches the
threaded front end exactly (tests parameterize over the two factories).
Blocking pool calls that are *not* label requests (``ping``, ``drain``)
are short and bounded; they run in the loop's default executor so probes
cannot stall label traffic.

HTTP/1.1 subset spoken here: keep-alive with ``Content-Length``-framed
responses, ``Connection: close`` honored both ways, request bodies only
via ``Content-Length`` (no chunked uploads — the threaded front end
doesn't take them either; a chunked request answers 411 on both).  Header
blocks are capped at 64 KiB.  This is deliberately the same subset the
stdlib server speaks, so clients cannot observe which backend they hit —
except through throughput (``benchmarks/test_async_throughput.py``).
"""

from __future__ import annotations

import asyncio
import json
import threading
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

__all__ = ["AsyncHttpFrontEnd", "serve_http_async"]

_MAX_HEADER_BYTES = 65536
_SERVER_VERSION = "InspectorGadgetServing/1.0"

_STATUS_PHRASES = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    411: "Length Required", 413: "Payload Too Large",
    415: "Unsupported Media Type", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _Abort(Exception):
    """Refuse the current request with an envelope, then maybe hang up.

    Raised by the body/header readers; the connection handler catches it,
    sends the envelope, and closes the connection when the request body
    was left unread on the socket (where it would poison keep-alive
    framing — the same rule the threaded front end applies).
    """

    def __init__(self, status: int, code: str, message: str,
                 close: bool = True):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.close = close


class AsyncHttpFrontEnd:
    """A running asyncio HTTP server bound to one pool.

    Mirrors :class:`repro.serving.http.HttpFrontEnd` exactly — same
    constructor shape, same ``address``/``url``/``drain``/
    ``wait_drained``/``refusing``/``close`` surface, same context-manager
    behavior — so call sites (CLI, tests, benchmarks) switch backends by
    swapping the factory.  The pool is not owned; closing the front end
    leaves it running.
    """

    def __init__(self, pool, host: str, port: int,
                 max_request_bytes: int, request_timeout_s: float,
                 gzip_responses: bool = True, gzip_min_bytes: int = 512,
                 gzip_level: int = 6):
        self.pool = pool
        self.max_request_bytes = max_request_bytes
        self.request_timeout_s = request_timeout_s
        self.gzip_responses = gzip_responses
        self.gzip_min_bytes = gzip_min_bytes
        self.gzip_level = gzip_level
        self._drained = threading.Event()
        self._refusing: str | None = None
        self._lock = threading.Lock()
        self._server: asyncio.AbstractServer | None = None
        self._address: tuple[str, int] | None = None
        self._bind_error: BaseException | None = None
        self._bound = threading.Event()
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, args=(host, port),
            name="serving-aio", daemon=True,
        )
        self._thread.start()
        self._bound.wait()
        if self._bind_error is not None:
            self._thread.join(timeout=5.0)
            raise self._bind_error

    # -- event-loop thread ----------------------------------------------------

    def _run_loop(self, host: str, port: int) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._serve(host, port))
        finally:
            self._loop.close()

    async def _serve(self, host: str, port: int) -> None:
        try:
            self._server = await asyncio.start_server(
                self._handle_connection, host, port,
            )
        except BaseException as exc:  # surface bind errors to __init__
            self._bind_error = exc
            self._bound.set()
            return
        sock = self._server.sockets[0]
        self._address = sock.getsockname()[:2]
        self._bound.set()
        async with self._server:
            try:
                await self._server.serve_forever()
            except asyncio.CancelledError:
                pass
        # Let cancelled connection handlers unwind before the loop closes,
        # so teardown never leaves destroyed-pending-task noise behind.
        tasks = [task for task in asyncio.all_tasks()
                 if task is not asyncio.current_task()]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    # -- public surface (mirrors HttpFrontEnd) --------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — the actual port when 0 was asked."""
        return self._address

    @property
    def url(self) -> str:
        """Base URL clients can connect to (bracketed v6, loopback for
        wildcard binds) — see :func:`repro.serving.protocol.format_base_url`.
        """
        return format_base_url(*self.address)

    def drain(self, timeout: float | None = None) -> bool:
        """Refuse new label requests, then wait for in-flight ones.

        Identical contract to the threaded front end: idempotent, returns
        ``True`` when everything settled in time, observability endpoints
        keep answering, :meth:`wait_drained` unblocks either way.
        """
        done = self._drain_pool(timeout)
        self._drained.set()
        return done

    def _drain_pool(self, timeout: float | None) -> bool:
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
        """Stop the server and join the event-loop thread. Idempotent."""
        if not self._thread.is_alive():
            return

        def _shutdown() -> None:
            if self._server is not None:
                self._server.close()
            # Cancel every task (serve_forever and any in-flight
            # connection handlers); run_until_complete then unwinds.
            for task in asyncio.all_tasks(self._loop):
                task.cancel()

        try:
            self._loop.call_soon_threadsafe(_shutdown)
        except RuntimeError:
            pass  # loop already closed
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "AsyncHttpFrontEnd":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- connection handling --------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                keep_alive = await self._handle_one(reader, writer)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionError,
                asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _handle_one(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> bool:
        """Serve one request; returns whether to keep the connection."""
        try:
            header_block = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if exc.partial:
                raise  # mid-request EOF: just drop the connection
            return False  # clean EOF between keep-alive requests
        except asyncio.LimitOverrunError:
            await self._send(writer, 400, json.dumps(error_envelope(
                "bad_request",
                f"request header block exceeds {_MAX_HEADER_BYTES} bytes",
                400,
            )).encode("utf-8"), {}, close=True)
            return False
        try:
            method, path, headers, want_close = _parse_head(header_block)
        except ValueError as exc:
            await self._send(writer, 400, json.dumps(error_envelope(
                "bad_request", f"malformed request head ({exc})", 400,
            )).encode("utf-8"), {}, close=True)
            return False
        try:
            status, payload, close = await self._route(
                method, path, headers, reader)
        except _Abort as abort:
            status = abort.status
            payload = error_envelope(abort.code, abort.message, abort.status)
            close = abort.close
        if isinstance(payload, (bytes, bytearray)):
            # Raw-bytes responses (profile files) go out verbatim as
            # octet-stream: the payload is already gzip-framed by
            # ``InspectorGadget.save``, so transport compression would
            # only waste cycles — same rule as the threaded front end.
            body = bytes(payload)
            content_type = "application/octet-stream"
            compress = False
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
            compress = True
        close = close or want_close
        await self._send(writer, status, body, headers, close=close,
                         content_type=content_type, compress=compress)
        return not close

    async def _route(self, method: str, path: str, headers: dict,
                     reader: asyncio.StreamReader):
        """Dispatch one parsed request; returns (status, payload, close).

        The route table and every status/message matches the threaded
        front end's ``_Handler`` line for line — that equality is pinned
        per error class by the aio test suite.
        """
        parsed = urlparse(path)
        route = parsed.path
        if method == "GET":
            if route == "/healthz":
                return await self._healthz(parse_qs(parsed.query))
            if route == "/profile":
                return 200, self.pool.profile_summary(), False
            if route.startswith("/v1/profiles/"):
                return await self._profile_bytes(
                    route[len("/v1/profiles/"):])
            if route == "/v1/label":
                return 405, error_envelope(
                    "method_not_allowed", "use POST for /v1/label", 405,
                ), False
            return 404, error_envelope(
                "not_found", f"unknown path {route!r}", 404,
            ), False
        if method == "POST":
            if route == "/v1/label":
                return await self._label(headers, reader)
            if route == "/admin/drain":
                return await self._drain(headers, reader)
            # Responding without reading the POST body: close the
            # connection so unread bytes cannot poison keep-alive framing
            # (same rule as the threaded front end).
            if route in ("/healthz", "/profile"):
                return 405, error_envelope(
                    "method_not_allowed", f"use GET for {route}", 405,
                ), True
            return 404, error_envelope(
                "not_found", f"unknown path {route!r}", 404,
            ), True
        return 405, error_envelope(
            "method_not_allowed",
            f"unsupported method {method}", 405,
        ), True

    # -- endpoint bodies ------------------------------------------------------

    async def _label(self, headers: dict, reader: asyncio.StreamReader):
        refusing = self.refusing()
        if refusing is not None:
            # Refused without reading the body → close (unread bytes).
            raise _Abort(
                503, "unavailable",
                f"serving pool is not accepting requests ({refusing})",
                close=True,
            )
        body = await self._read_body(headers, reader)
        try:
            payload = json.loads(body)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            return 400, error_envelope(
                "bad_request", f"request body is not valid JSON ({exc})", 400,
            ), False
        try:
            entries = parse_label_request(payload)
            images = [decode_image(e) for e in entries]
            # submit() validates through the shared coerce_images and
            # returns immediately; the event loop is never blocked on the
            # pool.  The PendingPrediction's completion callback fulfills
            # an asyncio future from the dispatcher's collect thread.
            pending = self.pool.submit(images)
        except (RequestError, ValueError, ServingError) as exc:
            envelope = envelope_for(exc)
            return envelope["error"]["status"], envelope, False
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()

        def _settled(handle) -> None:
            def _fulfill() -> None:
                if future.done():
                    return  # request already timed out / cancelled
                try:
                    future.set_result(handle.result(timeout=0))
                except BaseException as exc:  # noqa: BLE001 — relayed below
                    future.set_exception(exc)
            try:
                loop.call_soon_threadsafe(_fulfill)
            except RuntimeError:
                pass  # front end closed while the request was in flight

        pending.add_done_callback(_settled)
        try:
            weak = await asyncio.wait_for(future, self.request_timeout_s)
        except (asyncio.TimeoutError, TimeoutError):
            # asyncio.TimeoutError is distinct from builtin TimeoutError on
            # Python < 3.11; normalize to the exact message the threaded
            # front end's pool.predict raises on the same overrun.
            envelope = envelope_for(TimeoutError(
                f"serving request not completed within "
                f"{self.request_timeout_s}s"
            ))
            return envelope["error"]["status"], envelope, False
        except (ServingError, ValueError, RequestError) as exc:
            envelope = envelope_for(exc)
            return envelope["error"]["status"], envelope, False
        return 200, response_payload(weak), False

    async def _profile_bytes(self, fingerprint: str):
        """``GET /v1/profiles/<fingerprint>``: the raw profile file, or a
        404 envelope — message-identical to the threaded front end.  The
        read (disk, or a fleet member proxy) runs in the executor so it
        cannot stall label traffic on the loop."""
        loop = asyncio.get_running_loop()
        payload = await loop.run_in_executor(
            None, self.pool.profile_bytes, fingerprint)
        if payload is None:
            return 404, error_envelope(
                "not_found",
                f"no profile with fingerprint {fingerprint!r} on this host",
                404,
            ), False
        return 200, payload, False

    async def _healthz(self, query: dict):
        loop = asyncio.get_running_loop()
        health = await loop.run_in_executor(None, self.pool.health)
        payload = health_payload(health, self.refusing() is not None,
                                 ingest=self.pool.ingest_stats())
        if query.get("ping"):
            def _ping() -> dict:
                try:
                    return self.pool.ping(timeout=2.0)
                except ServingError:
                    return {}
            rtts = await loop.run_in_executor(None, _ping)
            payload["ping_ms"] = {
                str(worker_id): rtt * 1000.0
                for worker_id, rtt in sorted(rtts.items())
            }
        # Same liveness contract as the threaded front end: 200 only
        # while the pool can actually answer label requests.
        return (200 if health.ok else 503), payload, False

    async def _drain(self, headers: dict, reader: asyncio.StreamReader):
        body = await self._read_body(headers, reader, allow_empty=True)
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
                return 400, error_envelope(
                    "bad_request", f"invalid drain body ({exc})", 400,
                ), False
        loop = asyncio.get_running_loop()
        drained = await loop.run_in_executor(
            None, self._drain_pool, timeout)
        health = await loop.run_in_executor(None, self.pool.health)
        # The response is written by our caller *after* we return, so
        # signal wait_drained() from a callback scheduled behind the
        # send — the daemon owner must not tear the process down before
        # the {"drained": ...} reply is on the wire.  (call_soon runs
        # callbacks in FIFO order after the current task yields; the
        # send happens in the current task before its next yield, so the
        # ordering holds.  A second safety net: wait_drained timeouts.)
        loop.call_soon(self._drained.set)
        return 200, {
            "drained": drained, "pending": health.pending_requests,
        }, False

    # -- wire plumbing --------------------------------------------------------

    async def _read_body(self, headers: dict, reader: asyncio.StreamReader,
                         allow_empty: bool = False) -> bytes:
        """Read + decode the request body, or raise :class:`_Abort`.

        Status/message identity with the threaded ``_read_body`` is exact:
        411 without Content-Length, 400 on a malformed one, 413 past
        ``max_request_bytes`` (checked before reading, and re-checked by
        the bounded gzip inflate), 408 when the client stalls mid-body
        longer than ``request_timeout_s``.
        """
        header = headers.get("content-length")
        if header is None:
            if allow_empty:
                return b""
            raise _Abort(
                411, "length_required",
                "request must carry a Content-Length header",
            )
        try:
            length = int(header)
            if length < 0:
                raise ValueError
        except ValueError:
            raise _Abort(
                400, "bad_request",
                f"invalid Content-Length {header!r}",
            ) from None
        if length > self.max_request_bytes:
            raise _Abort(
                413, "payload_too_large",
                f"request body of {length} bytes exceeds the limit of "
                f"{self.max_request_bytes} bytes "
                "(ServingConfig.max_request_bytes)",
            )
        try:
            raw = await asyncio.wait_for(
                reader.readexactly(length), self.request_timeout_s)
        except (asyncio.TimeoutError, TimeoutError):
            raise _Abort(
                408, "request_timeout",
                f"request body not received within {self.request_timeout_s}s",
            ) from None
        try:
            # Body fully read → keep-alive framing intact → no close.
            return decompress_body(
                raw, headers.get("content-encoding"), self.max_request_bytes)
        except RequestError as exc:
            raise _Abort(exc.status, exc.code, str(exc),
                         close=False) from exc

    async def _send(self, writer: asyncio.StreamWriter, status: int,
                    body: bytes, request_headers: dict,
                    close: bool = False,
                    content_type: str = "application/json",
                    compress: bool = True) -> None:
        encoding = None
        if (compress and self.gzip_responses
                and len(body) >= self.gzip_min_bytes
                and accepts_gzip(request_headers.get("accept-encoding"))):
            body = gzip_body(body, level=self.gzip_level)
            encoding = "gzip"
        phrase = _STATUS_PHRASES.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {phrase}",
            f"Server: {_SERVER_VERSION}",
            f"Content-Type: {content_type}",
        ]
        if encoding:
            lines.append(f"Content-Encoding: {encoding}")
        lines.append(f"Content-Length: {len(body)}")
        retry_after = retry_after_for(status)
        if retry_after is not None:
            lines.append(f"Retry-After: {retry_after}")
        if close:
            lines.append("Connection: close")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()


def _parse_head(block: bytes) -> tuple[str, str, dict, bool]:
    """Parse a request head block into (method, path, headers, want_close).

    Header names are lower-cased (HTTP headers are case-insensitive);
    duplicate headers keep the last value — enough for this protocol
    subset, where none of the headers we read are list-valued in practice.
    Raises ``ValueError`` on a malformed request line or header line.
    """
    try:
        text = block.decode("latin-1")
    except UnicodeDecodeError as exc:  # pragma: no cover — latin-1 total
        raise ValueError(str(exc)) from exc
    lines = text.split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3:
        raise ValueError(f"bad request line {lines[0]!r}")
    method, path, version = parts
    if not version.startswith("HTTP/1."):
        raise ValueError(f"unsupported protocol version {version!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep or not name or name != name.strip() or " " in name:
            raise ValueError(f"bad header line {line!r}")
        headers[name.lower()] = value.strip()
    connection = headers.get("connection", "").lower()
    want_close = (
        "close" in connection
        or (version == "HTTP/1.0" and "keep-alive" not in connection)
    )
    return method, path, headers, want_close


def serve_http_async(pool, host: str | None = None, port: int | None = None,
                     *, max_request_bytes: int | None = None,
                     request_timeout_s: float | None = None,
                     gzip_responses: bool | None = None,
                     gzip_min_bytes: int | None = None,
                     gzip_level: int | None = None) -> AsyncHttpFrontEnd:
    """Expose ``pool`` over asyncio HTTP; the high-concurrency sibling of
    :func:`repro.serving.http.serve_http`.

    Identical signature, defaults and return surface as ``serve_http``
    (all defaults come from ``pool.config``); see that function for
    argument semantics.  Raises ``OSError`` when the address cannot be
    bound — synchronously, even though the loop runs in a background
    thread.
    """
    config = pool.config
    front = AsyncHttpFrontEnd(
        pool,
        host=config.http_host if host is None else host,
        port=config.http_port if port is None else port,
        max_request_bytes=(config.max_request_bytes
                           if max_request_bytes is None else max_request_bytes),
        request_timeout_s=(config.request_timeout_s
                           if request_timeout_s is None else request_timeout_s),
        gzip_responses=(config.gzip_responses
                        if gzip_responses is None else gzip_responses),
        gzip_min_bytes=(config.gzip_min_bytes
                        if gzip_min_bytes is None else gzip_min_bytes),
        gzip_level=(config.gzip_level
                    if gzip_level is None else gzip_level),
    )
    debug(f"asyncio http front end listening on {front.url}")
    return front
