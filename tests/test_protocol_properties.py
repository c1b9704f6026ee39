"""Property-style tests of the serving wire protocol.

:mod:`repro.serving.protocol` is the one seam every transport shares —
HTTP, stdin JSONL, and the fleet router all validate, encode, and shape
errors through it.  This suite pins that
seam from two directions:

* **Generative round-trips** (hypothesis): ``encode_image`` ↔
  ``decode_image`` over generated shapes and dtypes (bit-exact, with
  and without a JSON hop), ``parse_label_request`` over both request
  forms, gzip framing over arbitrary bodies (including the bounded
  bomb-inflate), and the ``envelope_for`` exception table.
* **Malformed-payload corpora with exact messages**: every structural
  failure's code/status/message is asserted verbatim — these strings
  *are* API (clients switch on them, and the transport-equality tests
  below compare them byte for byte).
* **Cross-transport error identity**: the same malformed request sent
  to the HTTP front end over a pool and to one serving a
  :class:`FleetRouter` over that pool must yield byte-identical error
  bodies, so any divergence is the router's fault.

The cross-transport class spawns a real pool (seconds); CI runs this
file in the fleet-smoke job, not the fast matrix.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.serving import ServingError, ServingPool, serve_http
from repro.serving.fleet import FleetRouter, InProcessMember
from repro.serving.protocol import (
    RETRY_AFTER_S,
    RequestError,
    accepts_gzip,
    coerce_images,
    decode_image,
    decompress_body,
    encode_image,
    envelope_for,
    error_envelope,
    gzip_body,
    parse_label_request,
    retry_after_for,
)

settings.register_profile("repro", max_examples=25, deadline=None)
settings.load_profile("repro")

_DTYPES = st.sampled_from(
    [np.float64, np.float32, np.int32, np.int16, np.uint8, np.bool_]
)
_SHAPES = st.tuples(st.integers(1, 8), st.integers(1, 8))


def _arrays():
    """Numeric 2-D arrays across dtypes; finite floats so the arrays are
    also valid *images* (byte round-trips would hold for NaN too, but
    the coerce comparisons below feed these through validation)."""
    return _DTYPES.flatmap(
        lambda dtype: hnp.arrays(
            dtype=dtype, shape=_SHAPES,
            elements=(st.floats(-1e6, 1e6, allow_nan=False,
                                allow_infinity=False, width=32)
                      if np.dtype(dtype).kind == "f" else None),
        )
    )


class TestEncodeDecodeRoundTrip:
    @given(array=_arrays())
    def test_bit_exact_round_trip(self, array):
        out = decode_image(encode_image(array))
        assert out.dtype == array.dtype
        assert out.shape == array.shape
        assert out.tobytes() == array.tobytes()

    @given(array=_arrays())
    def test_round_trip_survives_a_json_hop(self, array):
        """The envelope is what actually crosses the wire: serialize it
        like the HTTP clients do and decode on the far side."""
        entry = json.loads(json.dumps(encode_image(array)))
        out = decode_image(entry)
        assert out.tobytes() == array.tobytes()

    @given(array=_arrays())
    def test_decoded_image_validates_like_the_original(self, array):
        """coerce_images (the shared request validator) produces the
        same float64 pixels from the decoded array as from the
        original — the wire cannot move a response by a bit."""
        via_wire = coerce_images([decode_image(encode_image(array))])
        direct = coerce_images([array])
        assert via_wire[0].tobytes() == direct[0].tobytes()

    @given(array=_arrays(), single=st.booleans())
    def test_parse_label_request_extracts_either_form(self, array, single):
        entry = encode_image(array)
        if single:
            assert parse_label_request({"image": entry}) == [entry]
        else:
            assert parse_label_request({"images": [entry, entry]}) \
                == [entry, entry]

    @given(rows=st.lists(
        st.lists(st.integers(-1000, 1000), min_size=3, max_size=3),
        min_size=1, max_size=5,
    ))
    def test_nested_list_entries_decode_too(self, rows):
        out = decode_image(rows)
        assert out.tolist() == rows


class TestGzipFraming:
    @given(body=st.binary(max_size=4096))
    def test_round_trip_any_body(self, body):
        inflated = decompress_body(gzip_body(body), "gzip", 1 << 20)
        assert inflated == body

    @given(body=st.binary(max_size=4096))
    def test_compression_is_deterministic(self, body):
        """mtime is pinned, so compressed bytes are a pure function of
        the payload — required for transport byte-identity."""
        assert gzip_body(body) == gzip_body(body)

    @given(body=st.binary(max_size=4096),
           encoding=st.sampled_from([None, "", "identity", "Identity"]))
    def test_identity_encodings_pass_through(self, body, encoding):
        assert decompress_body(body, encoding, 1 << 20) == body

    def test_bomb_is_bounded_before_inflation(self):
        bomb = gzip_body(b"\x00" * (1 << 20))
        with pytest.raises(RequestError) as excinfo:
            decompress_body(bomb, "gzip", max_bytes=1024)
        assert excinfo.value.code == "payload_too_large"
        assert excinfo.value.status == 413

    @pytest.mark.parametrize("corrupt", [
        gzip_body(b"payload")[:-6],             # truncated mid-trailer
        b"\x00" * 16,                           # not gzip at all
        b"\x1f\x8c" + gzip_body(b"payload")[2:],  # mangled magic
        gzip_body(b"payload")[:-4] + b"\xff\xff\xff\xff",  # wrong ISIZE
    ])
    def test_corrupt_gzip_is_bad_request(self, corrupt):
        with pytest.raises(RequestError) as excinfo:
            decompress_body(corrupt, "gzip", 1 << 20)
        assert excinfo.value.code == "bad_request"
        assert str(excinfo.value).startswith("request body is not valid gzip (")

    def test_unknown_encoding_is_415(self):
        with pytest.raises(RequestError) as excinfo:
            decompress_body(b"x", "br", 1 << 20)
        assert excinfo.value.code == "unsupported_encoding"
        assert excinfo.value.status == 415
        assert str(excinfo.value) == \
            "unsupported Content-Encoding 'br' (only gzip and identity)"

    @pytest.mark.parametrize("header,accepts", [
        (None, False), ("", False), ("gzip", True), ("GZIP", True),
        ("deflate, gzip;q=0.5", True), ("gzip;q=0", False),
        ("*", True), ("deflate", False), ("gzip;q=oops", False),
    ])
    def test_accepts_gzip_token_scan(self, header, accepts):
        assert accepts_gzip(header) is accepts


class TestMalformedCorpora:
    """Exact error identity for every structural failure mode."""

    @pytest.mark.parametrize("entry,message", [
        ({"data": "", "shape": [0, 0]},
         "base64 image envelope must have data/shape/dtype keys "
         "(missing ['dtype'])"),
        ({"data": "AA==", "shape": [1, 1], "dtype": "float999"},
         "unknown image dtype 'float999'"),
        ({"data": "AA==", "shape": [1, 1], "dtype": "str_"},
         "image dtype must be numeric, got 'str_'"),
        ({"data": "AA==", "shape": "square", "dtype": "uint8"},
         "image shape must be a list of non-negative ints, got 'square'"),
        ({"data": "AA==", "shape": [2, 2], "dtype": "uint8"},
         "image data has 1 bytes but shape [2, 2] with dtype uint8 "
         "needs 4"),
        (42,
         "each image must be a nested list of numbers or a base64 "
         "envelope {data, shape, dtype}, got int"),
    ])
    def test_decode_image_messages(self, entry, message):
        with pytest.raises(RequestError) as excinfo:
            decode_image(entry)
        assert str(excinfo.value) == message
        assert excinfo.value.code == "bad_request"
        assert excinfo.value.status == 400

    def test_decode_image_rejects_invalid_base64(self):
        with pytest.raises(RequestError, match="not valid base64") as exc:
            decode_image({"data": "!!", "shape": [1, 1], "dtype": "uint8"})
        assert exc.value.code == "bad_request"

    @pytest.mark.parametrize("payload,message", [
        ([1, 2], "request body must be a JSON object, got list"),
        ({}, 'request body must have exactly one of "image" (single) or '
             '"images" (batch)'),
        ({"image": 1, "images": []},
         'request body must have exactly one of "image" (single) or '
         '"images" (batch)'),
        ({"images": "nope"}, '"images" must be a list, got str'),
    ])
    def test_parse_label_request_messages(self, payload, message):
        with pytest.raises(RequestError) as excinfo:
            parse_label_request(payload)
        assert str(excinfo.value) == message

    def test_envelope_for_exception_table(self):
        assert envelope_for(RequestError("teapot", "short", 418)) \
            == error_envelope("teapot", "short", 418)
        assert envelope_for(TimeoutError("late")) \
            == error_envelope("timeout", "late", 504)
        assert envelope_for(ValueError("bad")) \
            == error_envelope("bad_request", "bad", 400)
        assert envelope_for(ServingError("down")) \
            == error_envelope("unavailable", "down", 503)
        assert envelope_for(OSError("gone")) \
            == error_envelope("io_error", "gone", 400)
        assert envelope_for(RuntimeError("boom")) \
            == error_envelope("internal", "boom", 500)

    def test_retry_after_only_on_503(self):
        assert retry_after_for(503) == RETRY_AFTER_S
        for status in (200, 400, 404, 405, 408, 411, 413, 415, 504):
            assert retry_after_for(status) is None


# One request corpus, two paths: each case is (method, path, body
# bytes, headers).  Bodies that are structurally broken at every
# layer of the stack — transport framing, JSON, envelope, validation.
_WIRE_CORPUS = [
    ("POST", "/v1/label", b"{", {}),
    ("POST", "/v1/label", b"[]", {}),
    ("POST", "/v1/label", b"{}", {}),
    ("POST", "/v1/label", b'{"image": 7}', {}),
    ("POST", "/v1/label", b'{"image": [[1, 2], [3]]}', {}),
    ("POST", "/v1/label", b'{"image": [[[1]], [[2]]]}', {}),
    ("POST", "/v1/label", b'{"images": []}', {}),
    ("POST", "/v1/label",
     b'{"image": {"data": "AA==", "shape": [2, 2], "dtype": "uint8"}}', {}),
    ("POST", "/v1/label", b'{"image": [[1]]}',
     {"Content-Encoding": "br"}),
    ("GET", "/v1/label", None, {}),
    ("GET", "/nope", None, {}),
    ("POST", "/healthz", b"{}", {}),
    ("PUT", "/v1/label", b"{}", {}),
]


def _exchange(url: str, method: str, path: str, body, headers):
    """One request → (status, raw body bytes); errors included."""
    request = urllib.request.Request(
        url + path, data=body, method=method,
        headers={"Content-Type": "application/json", **headers},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as err:
        with err:
            return err.code, err.read()


class TestCrossTransportErrorIdentity:
    @pytest.fixture(scope="class")
    def pool(self, serving_profile):
        with ServingPool(serving_profile, workers=1,
                         max_wait_ms=0.0) as pool:
            yield pool

    def test_error_bodies_identical_across_transports(self, pool):
        """The front over the pool and the front over a router answer
        every corpus case with byte-identical error bodies."""
        router = FleetRouter([InProcessMember(pool)],
                             fleet_probe_interval_s=5.0)
        with router, \
                serve_http(pool, port=0) as direct, \
                serve_http(router, port=0) as routed:
            for case in _WIRE_CORPUS:
                answers = {
                    name: _exchange(front.url, *case)
                    for name, front in [("pool", direct),
                                        ("router", routed)]
                }
                statuses = {name: a[0] for name, a in answers.items()}
                bodies = {name: a[1] for name, a in answers.items()}
                assert len(set(statuses.values())) == 1, (case, statuses)
                assert len(set(bodies.values())) == 1, (case, bodies)
                envelope = json.loads(next(iter(bodies.values())))
                assert set(envelope["error"]) \
                    == {"code", "message", "status"}

    def test_timeout_message_identical_through_router(self, pool):
        """The 504 text is pinned to the pool's own wording on every
        path (``test_serving_http`` pins it over the wire)."""
        router = FleetRouter([InProcessMember(pool)],
                             fleet_probe_interval_s=5.0,
                             fleet_retry_limit=0)
        with router:
            with pytest.raises(
                TimeoutError,
                match=r"serving request not completed within 0\.0001s",
            ):
                router.predict([np.ones((4, 4))], timeout=0.0001)
