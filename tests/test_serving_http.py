"""Tests for the HTTP serving front end (and transport-shared protocol).

Four contracts layered over the pool's own guarantees:

1. **Byte-identity over the wire** — for worker counts {1, 2, 4}, concurrent
   HTTP clients each get response probabilities that parse back into float64
   byte-identical to single-process ``predict`` (JSON floats round-trip via
   shortest ``repr``), whether images travel as base64 envelopes or nested
   lists, and the dispatcher coalesces the concurrent requests exactly like
   in-process callers.
2. **Error envelopes** — every failure is ``{"error": {code, message,
   status}}`` with distinct status codes per failure class (400 malformed,
   404/405 routing, 411 missing length, 413 oversized, 503 unavailable,
   504 timeout), the stdlib request parser's own refusals included, and a
   given bad input produces the *same* message through HTTP and the
   stdin-JSONL daemon (one validator: ``repro.serving.protocol``).
3. **Framing** — a request whose body length is ambiguous (RFC 9112
   §6.3) gets exactly one 400 and a closed connection, so no byte of it
   is ever served as a second request; keep-alive holds otherwise.  An
   HTTP/0.9 request line gets a 400 on an HTTP/1.1 status line, and
   ``100 Continue`` goes out only for a body that will be read.
4. **Drain semantics** — ``POST /admin/drain`` completes every in-flight
   request (byte-identically) before reporting drained, refuses new label
   requests with 503, and keeps observability endpoints alive.

Pools spawn real processes; like ``tests/test_serving.py`` this file is
fast-lane but runs in CI's dedicated serving-smoke job, not the matrix.
"""

from __future__ import annotations

import gzip
import http.client
import io
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.config import ServingConfig
from repro.core.pipeline import InspectorGadget
from repro.serving import ServingPool, serve_http
from repro.serving.cli import _parse_host_port, main as cli_main
from repro.serving.protocol import encode_image, format_base_url


@pytest.fixture(scope="module")
def profile_path(serving_profile):
    """The session-shared fitted profile."""
    return serving_profile


@pytest.fixture(scope="module")
def images(tiny_ksdd):
    return [item.image for item in tiny_ksdd.images]


@pytest.fixture(scope="module")
def baseline(profile_path):
    """The single-process reference every HTTP response must match."""
    return InspectorGadget.load(profile_path)


@pytest.fixture(scope="module")
def served(profile_path):
    """One 2-worker pool + HTTP front reused by non-destructive tests."""
    with ServingPool(profile_path, workers=2, max_batch=4,
                     max_wait_ms=2.0) as pool:
        with serve_http(pool, host="127.0.0.1", port=0) as front:
            yield pool, front


def request_json(url: str, method: str = "GET", payload=None,
                 body: bytes | None = None, timeout: float = 120.0):
    """(status, parsed JSON) for one request; error statuses don't raise."""
    data = body
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        with err:
            return err.code, json.loads(err.read())


def probs_of(response: dict) -> bytes:
    return np.array(response["probs"], dtype=np.float64).tobytes()


def raw_exchange(front, raw: bytes) -> bytes:
    """Send ``raw`` on a fresh connection; every byte the server sends
    back until it closes the connection."""
    chunks = []
    with socket.create_connection(front.address, timeout=30) as sock:
        sock.sendall(raw)
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break  # closed with bytes of ours still unread
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


class _Replay(io.BytesIO):
    """Captured server bytes, fed to ``http.client``'s response parser."""

    def makefile(self, *args):
        return self

    def close(self) -> None:
        pass  # the parser closes its file after each body


def parse_responses(raw: bytes) -> list:
    """Every HTTP response in ``raw``: (response, JSON body) pairs."""
    replay = _Replay(raw)
    responses = []
    while replay.tell() < len(raw):
        resp = http.client.HTTPResponse(replay)
        resp.begin()
        responses.append((resp, json.loads(resp.read())))
    return responses


class TestByteIdentity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_concurrent_clients_match_single_process(
        self, profile_path, images, baseline, workers
    ):
        """Acceptance: concurrent HTTP clients mixing single/batch requests
        and both wire encodings each parse back their exact single-process
        answer, for N ∈ {1, 2, 4} with max_batch forcing splits."""
        requests = [
            {"image": encode_image(images[0])},
            {"images": [encode_image(img) for img in images[:5]]},
            {"image": images[7].tolist()},
            {"images": [img.tolist() for img in images[3:9]]},
            {"images": [encode_image(images[2]), images[11].tolist()]},
            {"image": encode_image(images[9])},
        ]
        expected = [
            baseline.predict([images[0]]).probs.tobytes(),
            baseline.predict(images[:5]).probs.tobytes(),
            baseline.predict([images[7]]).probs.tobytes(),
            baseline.predict(images[3:9]).probs.tobytes(),
            baseline.predict([images[2], images[11]]).probs.tobytes(),
            baseline.predict([images[9]]).probs.tobytes(),
        ]
        with ServingPool(profile_path, workers=workers, max_batch=3,
                         max_wait_ms=2.0) as pool:
            with serve_http(pool, host="127.0.0.1", port=0) as front:
                url = front.url + "/v1/label"
                results: list[bytes | None] = [None] * len(requests)
                errors: list[BaseException] = []

                def client(i: int) -> None:
                    try:
                        status, resp = request_json(url, "POST",
                                                    payload=requests[i])
                        assert status == 200, resp
                        results[i] = probs_of(resp)
                    except BaseException as exc:  # surfaced below
                        errors.append(exc)

                threads = [threading.Thread(target=client, args=(i,))
                           for i in range(len(requests))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
        assert not errors
        assert results == expected

    def test_response_shape(self, served, images, baseline):
        pool, front = served
        status, resp = request_json(
            front.url + "/v1/label", "POST",
            payload={"images": [encode_image(img) for img in images[:3]]},
        )
        assert status == 200
        expected = baseline.predict(images[:3])
        assert resp["n_images"] == 3
        assert resp["n_classes"] == expected.n_classes
        assert resp["labels"] == [int(l) for l in expected.labels]
        assert probs_of(resp) == expected.probs.tobytes()
        conf = np.array(resp["confidence"], dtype=np.float64)
        assert conf.tobytes() == expected.confidence.tobytes()

    def test_keep_alive_serves_sequential_requests(self, served, images,
                                                   baseline):
        """One connection, three label requests: the connection stays
        open and each answer is the same bytes, byte-identical to
        single-process predict."""
        _, front = served
        host, port = front.address
        expected = baseline.predict([images[0]]).probs.tobytes()
        body = json.dumps({"image": images[0].tolist()}).encode()
        conn = http.client.HTTPConnection(host, port, timeout=120)
        try:
            answers, sockets = [], []
            for _ in range(3):
                conn.request("POST", "/v1/label", body=body,
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                assert resp.status == 200
                assert resp.getheader("Connection") is None
                answers.append(resp.read())
                sockets.append(conn.sock)
        finally:
            conn.close()
        assert sockets[0] is not None
        assert sockets == [sockets[0]] * 3
        assert answers == [answers[0]] * 3
        assert probs_of(json.loads(answers[0])) == expected


class TestObservability:
    def test_healthz(self, served):
        pool, front = served
        status, resp = request_json(front.url + "/healthz")
        assert status == 200
        assert resp["ok"] is True
        assert resp["draining"] is False
        assert resp["failure"] is None
        assert len(resp["workers"]) == 2
        assert all(w["alive"] and w["ready"] for w in resp["workers"])
        assert len({w["pid"] for w in resp["workers"]}) == 2

    def test_healthz_ping(self, served):
        pool, front = served
        status, resp = request_json(front.url + "/healthz?ping=1")
        assert status == 200
        assert set(resp["ping_ms"]) == {"0", "1"}
        assert all(rtt >= 0 for rtt in resp["ping_ms"].values())

    def test_healthz_reports_dead_worker_as_503(self, profile_path):
        with ServingPool(profile_path, workers=1, max_respawns=0) as pool:
            with serve_http(pool, host="127.0.0.1", port=0) as front:
                assert request_json(front.url + "/healthz")[0] == 200
                pool._workers[0].process.kill()
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    status, resp = request_json(front.url + "/healthz")
                    if status == 503:
                        break
                    time.sleep(0.05)
                assert status == 503
                assert resp["ok"] is False

    def test_profile(self, served, baseline):
        pool, front = served
        status, resp = request_json(front.url + "/profile")
        assert status == 200
        assert resp["fingerprint"] == baseline.serving_fingerprint()
        assert resp["profile_path"] == pool.profile_path
        assert resp["n_patterns"] == len(
            baseline.feature_generator.patterns
        )
        assert resp["n_classes"] == 2
        assert resp["tuning"] is None  # profile was fitted with tune=False
        assert resp["pool"] == {
            "workers": 2, "max_batch": 4, "max_wait_ms": 2.0,
            "max_respawns": pool.config.max_respawns,
            "request_timeout_s": pool.config.request_timeout_s,
        }


class TestErrorEnvelopes:
    """Every failure mode answers its own distinct status + stable code."""

    def _post(self, front, **kwargs):
        return request_json(front.url + "/v1/label", "POST", **kwargs)

    def test_invalid_json_is_400(self, served):
        _, front = served
        status, resp = self._post(front, body=b"{nope")
        assert status == 400
        assert resp["error"]["code"] == "bad_request"
        assert resp["error"]["status"] == 400
        assert "JSON" in resp["error"]["message"]

    def test_missing_image_keys_is_400(self, served):
        _, front = served
        status, resp = self._post(front, payload={"imgs": []})
        assert status == 400
        assert 'exactly one of "image"' in resp["error"]["message"]

    def test_both_image_keys_is_400(self, served, images):
        _, front = served
        status, resp = self._post(front, payload={
            "image": images[0].tolist(), "images": [],
        })
        assert status == 400

    def test_non_list_images_is_400(self, served):
        _, front = served
        status, resp = self._post(front, payload={"images": "a.npy"})
        assert status == 400
        assert '"images" must be a list' in resp["error"]["message"]

    def test_empty_batch_is_400(self, served):
        _, front = served
        status, resp = self._post(front, payload={"images": []})
        assert status == 400
        assert "no images" in resp["error"]["message"]

    def test_non_2d_image_is_400(self, served):
        _, front = served
        status, resp = self._post(front, payload={"image": [1.0, 2.0]})
        assert status == 400
        assert "2-D" in resp["error"]["message"]

    def test_bad_dtype_is_400(self, served):
        _, front = served
        entry = {"data": "AAAA", "shape": [1, 3], "dtype": "object"}
        status, resp = self._post(front, payload={"image": entry})
        assert status == 400
        assert "dtype must be numeric" in resp["error"]["message"]

    def test_data_shape_mismatch_is_400(self, served, images):
        _, front = served
        entry = encode_image(images[0])
        entry["shape"] = [3, 3]
        status, resp = self._post(front, payload={"image": entry})
        assert status == 400
        assert "needs" in resp["error"]["message"]

    def test_oversized_request_is_413(self, served, images):
        pool, _ = served
        with serve_http(pool, host="127.0.0.1", port=0,
                        max_request_bytes=2048) as small_front:
            # One image (~50 KB as base64) is over the 2 KiB budget but
            # well inside loopback socket buffers, so the client's body
            # write cannot stall against the unread-and-refused request.
            payload = {"images": [encode_image(images[0])]}
            status, resp = request_json(small_front.url + "/v1/label",
                                        "POST", payload=payload)
            assert status == 413
            assert resp["error"]["code"] == "payload_too_large"
            assert "max_request_bytes" in resp["error"]["message"]
            # Within budget still works on the same front.
            ok_status, _ = request_json(
                small_front.url + "/healthz")
            assert ok_status == 200

    def test_missing_content_length_is_411(self, served):
        _, front = served
        host, port = front.address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.putrequest("POST", "/v1/label")
            conn.endheaders()
            resp = conn.getresponse()
            payload = json.loads(resp.read())
            assert resp.status == 411
            assert payload["error"]["code"] == "length_required"
        finally:
            conn.close()

    def test_unread_body_closes_keepalive_connection(self, served, images):
        """A response sent without reading the POST body must close (and
        advertise closing) the connection — otherwise the unread bytes
        would be parsed as the next request on a keep-alive socket."""
        _, front = served
        host, port = front.address
        body = json.dumps({"image": images[0].tolist()}).encode()
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("POST", "/healthz", body=body,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            payload = json.loads(resp.read())
            assert resp.status == 405
            assert payload["error"]["code"] == "method_not_allowed"
            assert resp.getheader("Connection") == "close"
        finally:
            conn.close()

    def test_unknown_path_is_404(self, served):
        _, front = served
        status, resp = request_json(front.url + "/v2/label", "POST",
                                    payload={})
        assert status == 404
        assert resp["error"]["code"] == "not_found"
        assert request_json(front.url + "/nope")[0] == 404

    def test_wrong_method_is_405(self, served):
        _, front = served
        status, resp = request_json(front.url + "/v1/label")
        assert status == 405
        assert resp["error"]["code"] == "method_not_allowed"
        assert request_json(front.url + "/healthz", "POST",
                            payload={})[0] == 405

    def test_status_codes_are_distinct_per_failure_class(self, served,
                                                         images):
        """The supervisor contract: malformed vs oversized vs routing vs
        refused map to different status codes, not a generic 400/500."""
        pool, front = served
        statuses = {
            "malformed": self._post(front, body=b"!")[0],
            "not_found": request_json(front.url + "/nope")[0],
            "method": request_json(front.url + "/v1/label")[0],
        }
        with serve_http(pool, host="127.0.0.1", port=0,
                        max_request_bytes=2048) as small:
            statuses["oversized"] = request_json(
                small.url + "/v1/label", "POST",
                payload={"images": [encode_image(images[0])]},
            )[0]
        assert statuses == {
            "malformed": 400, "not_found": 404,
            "method": 405, "oversized": 413,
        }

    def test_timeout_is_504_with_the_pools_message(self, served):
        """A request that cannot finish inside request_timeout_s answers
        504 carrying the pool's own TimeoutError text."""
        pool, _ = served
        rng = np.random.default_rng(0)
        # The probe request itself is tiny (no 408 risk from a slow body
        # write); it times out because FIFO dispatch queues it behind
        # several seconds of primer work submitted in-process first.
        big = [rng.random((768, 768)) for _ in range(4)]
        payload = {"image": rng.random((32, 32)).tolist()}
        try:
            primers = [pool.submit(big) for _ in range(6)]
            with serve_http(pool, host="127.0.0.1", port=0,
                            request_timeout_s=0.05) as front:
                status, resp = request_json(front.url + "/v1/label",
                                            "POST", payload=payload)
        finally:
            # The timed-out request keeps computing in the pool; let
            # everything settle so later tests see a quiet pool.
            deadline = time.monotonic() + 120
            while (pool.health().pending_requests > 0
                   and time.monotonic() < deadline):
                time.sleep(0.05)
        assert all(handle.done() for handle in primers)
        assert status == 504
        assert resp == {"error": {
            "code": "timeout",
            "message": "serving request not completed within 0.05s",
            "status": 504,
        }}


_SMUGGLED = (b"GET /smuggled HTTP/1.1\r\nHost: x\r\n"
             b"Connection: close\r\n\r\n")


class TestFraming:
    """RFC 9112 §6.3: a request whose body length is ambiguous is refused
    before routing, with its body unread and its connection closed, so
    no byte of it is ever served as a second request (here, the trailing
    ``GET /smuggled``)."""

    AMBIGUOUS = [
        ("chunked_beside_length",
         b"POST /v1/label HTTP/1.1\r\nHost: x\r\n"
         b"Transfer-Encoding: chunked\r\nContent-Length: 2\r\n\r\n{}"
         + _SMUGGLED, "Transfer-Encoding is not supported"),
        ("chunked_get",
         b"GET /profile HTTP/1.1\r\nHost: x\r\n"
         b"Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n" + _SMUGGLED,
         "Transfer-Encoding is not supported"),
        ("conflicting_lengths",
         b"POST /v1/label HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n"
         b"Content-Length: %d\r\n\r\n{}" % (2 + len(_SMUGGLED))
         + _SMUGGLED, "conflicting Content-Length values"),
        ("signed_length",
         b"POST /v1/label HTTP/1.1\r\nHost: x\r\nContent-Length: +2\r\n"
         b"\r\n{}" + _SMUGGLED, "invalid Content-Length '+2'"),
        ("underscored_length",
         b"POST /v1/label HTTP/1.1\r\nHost: x\r\nContent-Length: 1_0\r\n"
         b'\r\n{"x": 12}\n' + _SMUGGLED, "invalid Content-Length '1_0'"),
    ]

    @pytest.mark.parametrize("name,raw,message", AMBIGUOUS,
                             ids=[case[0] for case in AMBIGUOUS])
    def test_ambiguous_length_gets_one_400_and_a_close(self, served, name,
                                                       raw, message):
        _, front = served
        responses = parse_responses(raw_exchange(front, raw))
        assert len(responses) == 1, [r.status for r, _ in responses]
        resp, payload = responses[0]
        assert resp.status == 400
        assert resp.getheader("Connection") == "close"
        assert payload["error"]["code"] == "bad_request"
        assert message in payload["error"]["message"]

    def test_body_on_a_bodiless_route_answers_then_closes(self, served):
        _, front = served
        raw = (b"GET /profile HTTP/1.1\r\nHost: x\r\n"
               b"Content-Length: %d\r\n\r\n" % len(_SMUGGLED) + _SMUGGLED)
        responses = parse_responses(raw_exchange(front, raw))
        assert len(responses) == 1, [r.status for r, _ in responses]
        resp, payload = responses[0]
        assert resp.status == 200
        assert resp.getheader("Connection") == "close"
        assert "fingerprint" in payload

    def test_repeated_equal_lengths_are_one_length(self, served):
        """RFC 9112 lets a recipient take repeated identical values as
        one; the body is read and the pipelined request is served."""
        _, front = served
        raw = (b"POST /v1/label HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n"
               b"Content-Length: 2\r\n\r\n{}" + _SMUGGLED)
        responses = parse_responses(raw_exchange(front, raw))
        assert [(r.status, body["error"]["code"])
                for r, body in responses] \
            == [(400, "bad_request"), (404, "not_found")]
        assert responses[0][0].getheader("Connection") is None


class TestParserRefusals:
    """The stdlib request parser's own refusals answer as HTTP/1.1 with
    the JSON envelope and a closed connection, like every other error."""

    CASES = [
        ("unknown_method",
         b"PUT /v1/label HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}",
         405, "method_not_allowed", "unsupported method PUT"),
        ("garbage_request_line", b"GARBAGE\r\n\r\n",
         400, "bad_request", "GARBAGE"),
        ("http2_request_line", b"GET /healthz HTTP/2.0\r\n\r\n",
         505, "http_version_not_supported", "2.0"),
        ("too_many_headers",
         b"GET /profile HTTP/1.1\r\n"
         + b"".join(b"X-Probe-%d: y\r\n" % i for i in range(101))
         + b"\r\n", 431, "header_fields_too_large", "100 headers"),
        ("http09_request_line", b"GET /profile\r\n\r\n",
         400, "bad_request", "HTTP/0.9"),
        ("http09_version", b"GET /profile HTTP/0.9\r\n\r\n",
         400, "bad_request", "HTTP/0.9"),
    ]

    @pytest.mark.parametrize("name,raw,status,code,message", CASES,
                             ids=[case[0] for case in CASES])
    def test_refusal_is_an_envelope(self, served, name, raw, status, code,
                                    message):
        _, front = served
        responses = parse_responses(raw_exchange(front, raw))
        assert len(responses) == 1
        resp, payload = responses[0]
        assert resp.version == 11
        assert resp.status == status
        assert resp.getheader("Content-Type") == "application/json"
        assert resp.getheader("Connection") == "close"
        assert payload["error"]["code"] == code
        assert payload["error"]["status"] == status
        assert message in payload["error"]["message"]


_EXPECT = b"Expect: 100-continue\r\n"


class TestExpectContinue:
    """``100 Continue`` goes out only when the body is about to be read,
    so a request refused from its head alone gets that refusal as its
    only response."""

    REFUSED = [
        ("chunked",
         b"POST /v1/label HTTP/1.1\r\nHost: x\r\n" + _EXPECT
         + b"Transfer-Encoding: chunked\r\n\r\n", 400, "bad_request"),
        ("over_limit",
         b"POST /v1/label HTTP/1.1\r\nHost: x\r\n" + _EXPECT
         + b"Content-Length: %d\r\n\r\n" % (1 << 40),
         413, "payload_too_large"),
        ("unknown_path",
         b"POST /v1/nothing HTTP/1.1\r\nHost: x\r\n" + _EXPECT
         + b"Content-Length: 2\r\n\r\n", 404, "not_found"),
    ]

    @pytest.mark.parametrize("name,raw,status,code", REFUSED,
                             ids=[case[0] for case in REFUSED])
    def test_refusal_is_the_only_response(self, served, name, raw, status,
                                          code):
        _, front = served
        reply = raw_exchange(front, raw)
        assert b"100 Continue" not in reply, reply[:80]
        responses = parse_responses(reply)
        assert len(responses) == 1
        resp, payload = responses[0]
        assert resp.version == 11
        assert resp.status == status
        assert resp.getheader("Connection") == "close"
        assert payload["error"]["code"] == code

    def test_label_request_continues_then_answers(self, served, images,
                                                  baseline):
        _, front = served
        body = json.dumps({"image": encode_image(images[0])}).encode()
        head = (b"POST /v1/label HTTP/1.1\r\nHost: x\r\n" + _EXPECT
                + b"Connection: close\r\nContent-Type: application/json"
                + b"\r\nContent-Length: %d\r\n\r\n" % len(body))
        with socket.create_connection(front.address, timeout=30) as sock:
            sock.sendall(head)
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                byte = sock.recv(1)
                assert byte, f"closed after {interim!r}"
                interim += byte
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        responses = parse_responses(b"".join(chunks))
        assert len(responses) == 1
        resp, payload = responses[0]
        assert resp.status == 200
        assert probs_of(payload) == baseline.predict(
            [images[0]]).probs.tobytes()


class TestBindErrors:
    def test_port_collision_raises_oserror(self, served):
        pool, front = served
        host, port = front.address
        with pytest.raises(OSError):
            serve_http(pool, host=host, port=port)


class TestDrain:
    def test_drain_while_in_flight_completes_outstanding(
        self, profile_path, images, baseline
    ):
        """Acceptance: a drain issued while a request is in flight lets it
        finish (byte-identically), then refuses new label requests with
        503 while /healthz and /profile stay up."""
        expected = baseline.predict(images).probs.tobytes()
        with ServingPool(profile_path, workers=1, max_batch=4,
                         max_wait_ms=0.0) as pool:
            with serve_http(pool, host="127.0.0.1", port=0) as front:
                url = front.url
                in_flight: dict = {}

                def client() -> None:
                    in_flight["result"] = request_json(
                        url + "/v1/label", "POST",
                        payload={"images": [img.tolist()
                                            for img in images]},
                    )

                thread = threading.Thread(target=client)
                thread.start()
                # Let the request reach the dispatcher before draining.
                deadline = time.monotonic() + 30
                while (pool.health().pending_requests == 0
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                assert pool.health().pending_requests > 0

                status, resp = request_json(url + "/admin/drain", "POST",
                                            payload={"timeout": 120})
                assert status == 200
                assert resp["drained"] is True
                assert resp["pending"] == 0

                thread.join(timeout=120)
                in_status, in_resp = in_flight["result"]
                assert in_status == 200
                assert probs_of(in_resp) == expected

                # New label requests are refused, observability survives.
                status, resp = request_json(
                    url + "/v1/label", "POST",
                    payload={"image": images[0].tolist()},
                )
                assert status == 503
                assert resp["error"]["code"] == "unavailable"
                assert "draining" in resp["error"]["message"]
                health_status, health = request_json(url + "/healthz")
                assert health_status == 200
                assert health["draining"] is True
                assert request_json(url + "/profile")[0] == 200
                assert front.wait_drained(timeout=1)


class TestTransportParity:
    """One validator: stdin-JSONL and HTTP report identical errors."""

    def _http_error(self, served, array: np.ndarray) -> dict:
        _, front = served
        status, resp = request_json(front.url + "/v1/label", "POST",
                                    payload={"image": array.tolist()})
        assert status == resp["error"]["status"]
        return resp["error"]

    def _stdin_error(self, profile_path, array: np.ndarray, tmp_path,
                     monkeypatch) -> dict:
        path = tmp_path / "bad.npy"
        np.save(path, array)
        monkeypatch.setattr("sys.stdin", io.StringIO(str(path) + "\n"))
        stdout = io.StringIO()
        code = cli_main([
            "--profile", str(profile_path), "--workers", "1",
            "--max-wait-ms", "0", "--quiet", "--stdin",
        ], stdout=stdout)
        assert code == 0  # per-request failure, pool still healthy
        response = json.loads(stdout.getvalue().strip())
        return response["error"]

    @pytest.mark.parametrize("bad_array", [
        np.zeros((2, 3, 4)),          # 3-D
        np.arange(5.0),               # 1-D
    ], ids=["3d", "1d"])
    def test_same_message_on_both_transports(
        self, served, profile_path, bad_array, tmp_path, monkeypatch
    ):
        via_http = self._http_error(served, bad_array)
        via_stdin = self._stdin_error(profile_path, bad_array, tmp_path,
                                      monkeypatch)
        assert via_http["message"] == via_stdin["message"]
        assert via_http["code"] == via_stdin["code"] == "bad_request"
        assert via_http["status"] == via_stdin["status"] == 400


class TestCLIHttpMode:
    def test_http_mode_serves_and_drains(self, profile_path, images,
                                         baseline):
        """--http 127.0.0.1:0 announces its bound URL on stdout, labels a
        request, and exits 0 on POST /admin/drain."""
        stdout = io.StringIO()
        result: dict = {}

        def run() -> None:
            result["code"] = cli_main([
                "--profile", str(profile_path), "--workers", "1",
                "--max-wait-ms", "0", "--quiet",
                "--http", "127.0.0.1:0",
            ], stdout=stdout)

        thread = threading.Thread(target=run)
        thread.start()
        deadline = time.monotonic() + 120
        url = None
        while time.monotonic() < deadline:
            line = stdout.getvalue()
            if line.startswith("serving HTTP on "):
                url = line.split("serving HTTP on ", 1)[1].strip()
                break
            time.sleep(0.05)
        assert url, "CLI never announced its bound address"

        status, resp = request_json(url + "/v1/label", "POST",
                                    payload={"image": images[0].tolist()})
        assert status == 200
        assert probs_of(resp) == baseline.predict(
            [images[0]]).probs.tobytes()

        status, _ = request_json(url + "/admin/drain", "POST", payload={})
        assert status == 200
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert result["code"] == 0

    def test_bad_http_address_exits_2(self, profile_path, capsys):
        assert cli_main(["--profile", str(profile_path),
                         "--http", "no-port"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_out_of_range_port_exits_2(self, profile_path, capsys):
        """--http routes through ServingConfig validation: a bad port is
        a usage error before any pool spins up, not a bind traceback."""
        assert cli_main(["--profile", str(profile_path),
                         "--http", "127.0.0.1:99999"]) == 2
        assert "http_port" in capsys.readouterr().err

    def test_bad_max_request_bytes_exits_2(self, profile_path, capsys):
        assert cli_main(["--profile", str(profile_path),
                         "--http", "127.0.0.1:0",
                         "--max-request-bytes", "10"]) == 2
        assert "invalid serving option" in capsys.readouterr().err


def _ipv6_loopback_available() -> bool:
    try:
        probe = socket.socket(socket.AF_INET6, socket.SOCK_STREAM)
        try:
            probe.bind(("::1", 0))
        finally:
            probe.close()
        return True
    except OSError:
        return False


class TestHostPortParsing:
    """cli._parse_host_port: the one HOST:PORT parser of ``--http``."""

    @pytest.mark.parametrize("value,expected", [
        ("127.0.0.1:8765", ("127.0.0.1", 8765)),
        ("localhost:0", ("localhost", 0)),
        ("[::1]:8765", ("::1", 8765)),          # brackets stripped
        ("[fe80::1%eth0]:80", ("fe80::1%eth0", 80)),
        ("[::]:0", ("::", 0)),
        ("0.0.0.0:80", ("0.0.0.0", 80)),
    ])
    def test_valid_forms(self, value, expected):
        assert _parse_host_port(value) == expected

    @pytest.mark.parametrize("value", [
        "no-port",            # no colon at all
        ":8765",              # empty host
        "host:",              # empty port
        "host:abc",           # non-numeric port
        "host:-1",            # negative port (sign is non-digit)
        "[::1]",              # bracketed host, no port
        "[::1]8765",          # missing colon after bracket
        "[]:8765",            # empty bracketed host
    ])
    def test_malformed_values_get_usage_error(self, value):
        """Bad input raises the usage-shaped message, never a raw int()
        traceback like "invalid literal for int()"."""
        with pytest.raises(ValueError) as err:
            _parse_host_port(value)
        assert "HOST:PORT" in str(err.value)
        assert "invalid literal" not in str(err.value)

    def test_unbracketed_ipv6_suggests_brackets(self):
        with pytest.raises(ValueError) as err:
            _parse_host_port("::1:8765")
        assert "[" in str(err.value) and "bracket" in str(err.value)


class TestUrlFormatting:
    """format_base_url / HttpFrontEnd.url: always a connectable URL."""

    @pytest.mark.parametrize("host,port,expected", [
        ("127.0.0.1", 8765, "http://127.0.0.1:8765"),
        ("localhost", 80, "http://localhost:80"),
        ("::1", 8765, "http://[::1]:8765"),       # v6 needs brackets
        ("0.0.0.0", 8765, "http://127.0.0.1:8765"),  # wildcard -> loopback
        ("::", 8765, "http://[::1]:8765"),
    ])
    def test_format_base_url(self, host, port, expected):
        assert format_base_url(host, port) == expected

    def test_front_url_maps_wildcard_bind_to_connectable(self, served):
        """A wildcard-bound front end's banner URL must be one a local
        client can open (the old f-string printed http://0.0.0.0:port)."""
        pool, _ = served
        with serve_http(pool, host="0.0.0.0", port=0) as wild:
            assert wild.url.startswith("http://127.0.0.1:")
            assert request_json(wild.url + "/healthz")[0] == 200

    @pytest.mark.skipif(not _ipv6_loopback_available(),
                        reason="no IPv6 loopback on this host")
    def test_ipv6_end_to_end(self, served):
        """Binding ::1 works (AF_INET6 server) and the URL is bracketed."""
        pool, _ = served
        with serve_http(pool, host="::1", port=0) as v6:
            assert v6.url.startswith("http://[::1]:")
            status, resp = request_json(v6.url + "/healthz")
            assert status == 200
            assert resp["ok"] is True


class TestGzip:
    """Request/response gzip on the threaded transport (shared helper)."""

    def test_gzip_request_round_trip(self, served, images, baseline):
        _, front = served
        raw = json.dumps({"image": images[0].tolist()}).encode()
        req = urllib.request.Request(
            front.url + "/v1/label", data=gzip.compress(raw), method="POST",
            headers={"Content-Type": "application/json",
                     "Content-Encoding": "gzip"},
        )
        with urllib.request.urlopen(req, timeout=120) as resp:
            assert resp.status == 200
            payload = json.loads(resp.read())
        assert probs_of(payload) == baseline.predict(
            [images[0]]).probs.tobytes()

    def test_gzip_response_negotiated(self, served, images, baseline):
        _, front = served
        # A 16-image batch keeps the response body safely over the
        # GZIP_MIN_BYTES floor (tiny bodies are deliberately sent plain).
        body = json.dumps(
            {"images": [img.tolist() for img in images[:16]]}).encode()
        req = urllib.request.Request(
            front.url + "/v1/label", data=body, method="POST",
            headers={"Content-Type": "application/json",
                     "Accept-Encoding": "gzip"},
        )
        with urllib.request.urlopen(req, timeout=120) as resp:
            assert resp.status == 200
            assert resp.headers.get("Content-Encoding") == "gzip"
            payload = json.loads(gzip.decompress(resp.read()))
        assert probs_of(payload) == baseline.predict(
            images[:16]).probs.tobytes()

    def test_small_response_not_compressed(self, served, images):
        """Bodies under GZIP_MIN_BYTES ship plain even when the client
        accepts gzip — compressing ~100 bytes costs more than it saves."""
        _, front = served
        body = json.dumps({"image": images[0].tolist()}).encode()
        req = urllib.request.Request(
            front.url + "/v1/label", data=body, method="POST",
            headers={"Content-Type": "application/json",
                     "Accept-Encoding": "gzip"},
        )
        with urllib.request.urlopen(req, timeout=120) as resp:
            assert resp.status == 200
            assert resp.headers.get("Content-Encoding") is None
            json.loads(resp.read())

    def test_no_gzip_without_accept_encoding(self, served, images):
        _, front = served
        body = json.dumps({"image": images[0].tolist()}).encode()
        req = urllib.request.Request(
            front.url + "/v1/label", data=body, method="POST",
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req, timeout=120) as resp:
            assert resp.status == 200
            assert resp.headers.get("Content-Encoding") is None
            json.loads(resp.read())  # plain JSON

    def test_gzip_bomb_is_413_before_decompress(self, served):
        """A small compressed body that inflates past max_request_bytes is
        refused with the 413 identity — bounded inflate, no full bomb."""
        pool, _ = served
        with serve_http(pool, host="127.0.0.1", port=0,
                        max_request_bytes=4096) as small:
            bomb = gzip.compress(b"0" * (2 * 1024 * 1024))  # ~2 KB wire
            assert len(bomb) < 4096
            req = urllib.request.Request(
                small.url + "/v1/label", data=bomb, method="POST",
                headers={"Content-Type": "application/json",
                         "Content-Encoding": "gzip"},
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req, timeout=120)
            with err.value:
                payload = json.loads(err.value.read())
            assert err.value.code == 413
            assert payload["error"]["code"] == "payload_too_large"
            assert "decompresses past" in payload["error"]["message"]

    def test_unknown_content_encoding_is_415(self, served):
        _, front = served
        req = urllib.request.Request(
            front.url + "/v1/label", data=b"x", method="POST",
            headers={"Content-Type": "application/json",
                     "Content-Encoding": "br"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=120)
        with err.value:
            payload = json.loads(err.value.read())
        assert err.value.code == 415
        assert payload["error"]["code"] == "unsupported_encoding"

    def test_corrupt_gzip_is_400(self, served):
        _, front = served
        req = urllib.request.Request(
            front.url + "/v1/label", data=b"not gzip at all", method="POST",
            headers={"Content-Type": "application/json",
                     "Content-Encoding": "gzip"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=120)
        with err.value:
            payload = json.loads(err.value.read())
        assert err.value.code == 400
        assert "not valid gzip" in payload["error"]["message"]


class TestRetryAfter:
    def test_drain_503_carries_retry_after(self, profile_path, images):
        """Well-behaved clients back off on drain: the 503 must say when
        to come back (the old response had no Retry-After at all)."""
        with ServingPool(profile_path, workers=1, max_wait_ms=0.0) as pool:
            with serve_http(pool, host="127.0.0.1", port=0) as front:
                assert request_json(front.url + "/admin/drain", "POST",
                                    payload={})[0] == 200
                req = urllib.request.Request(
                    front.url + "/v1/label",
                    data=json.dumps(
                        {"image": images[0].tolist()}).encode(),
                    method="POST",
                    headers={"Content-Type": "application/json"},
                )
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(req, timeout=120)
                with err.value:
                    assert err.value.code == 503
                    assert err.value.headers.get("Retry-After") == "5"


class TestHttpConfigValidation:
    @pytest.mark.parametrize("bad", [
        {"http_host": ""},
        {"http_port": -1},
        {"http_port": 65536},
        {"max_request_bytes": 0},
        {"max_request_bytes": 1023},
    ])
    def test_invalid_values_raise(self, bad):
        with pytest.raises(ValueError):
            ServingConfig(**bad)

    def test_defaults_valid(self):
        config = ServingConfig()
        assert config.http_host == "127.0.0.1"
        assert 0 <= config.http_port <= 65535
        assert config.max_request_bytes >= 1024
