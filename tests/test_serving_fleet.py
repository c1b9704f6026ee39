"""Fault-injection tests for the fleet router and shared profile store.

The router's one promise is the pool's, lifted a level: every response a
client gets through a fleet — any member mix, any injected fault — is
byte-identical to single-process ``predict`` on the same request, and
the request either completes or fails loudly; it is never lost and never
answered twice.  The fault layer here is :class:`ChaosMember`, a member
wrapper with injection knobs (serve 503s, time out, go unreachable mid
run, report draining, lie about its fingerprint), driven over fleets of
2 and 3 members whose pools run different worker counts, plus a
real-HTTP fleet where one member's pool is killed mid-stream.

Routing assertions use the router's own exported primitives
(:func:`request_key` / :func:`rendezvous_order`) to *predict* which
member a request must hit — determinism is part of the contract, so the
tests replay it rather than sampling it.

Like the other pool suites this file spawns real worker processes; it
runs in CI's fleet-smoke job with warnings-as-errors.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.core.artifacts import (
    HttpProfileStore,
    LocalDirProfileStore,
    open_profile_store,
)
from repro.core.pipeline import InspectorGadget
from repro.serving import ServingError, ServingPool, serve_http
from repro.serving.fleet import (
    FleetRouter,
    HttpMember,
    InProcessMember,
    MemberUnavailable,
    rendezvous_order,
    request_key,
)
from repro.serving.protocol import (
    coerce_images,
    encode_image,
    envelope_for,
    health_payload,
)


@pytest.fixture(scope="module")
def baseline(serving_profile):
    """The single-process reference every routed response must match."""
    return InspectorGadget.load(serving_profile)


@pytest.fixture(scope="module")
def images(tiny_ksdd):
    return [item.image for item in tiny_ksdd.images[:6]]


@pytest.fixture(scope="module")
def pool_a(serving_profile):
    """One-worker pool: the minimal member."""
    with ServingPool(serving_profile, workers=1, max_wait_ms=0.0) as pool:
        yield pool


@pytest.fixture(scope="module")
def pool_b(serving_profile):
    """Two-worker pool: a member with a different worker count, so fleet
    byte-identity is checked across heterogeneous members."""
    with ServingPool(serving_profile, workers=2, max_wait_ms=0.0) as pool:
        yield pool


class ChaosMember:
    """A fleet member with fault-injection knobs, wrapping a real one.

    Faults are injected at the member boundary — exactly where a real
    pool's failures surface to the router — so the router cannot tell
    chaos from a genuine 503/timeout/dead host.  ``calls`` counts
    ``predict`` attempts (injected failures included), which is how
    tests assert backoff *skipped* a member.
    """

    def __init__(self, inner):
        self.inner = inner
        self.member_id = f"chaos-{inner.member_id}"
        self.calls = 0
        self.fail_next = 0            # next N predicts raise MemberUnavailable
        self.retry_after = None       # Retry-After carried by those failures
        self.timeout_next = 0         # next N predicts raise TimeoutError
        self.unreachable = False      # connection-level death (healthz too)
        self.sick = False             # healthz reports not-ok
        self.draining = False         # healthz reports a drain in progress
        self.fingerprint_override = None
        self.drained = False

    def fingerprint(self) -> str:
        if self.fingerprint_override is not None:
            return self.fingerprint_override
        return self.inner.fingerprint()

    def predict(self, images, timeout):
        self.calls += 1
        if self.unreachable:
            raise MemberUnavailable(f"member {self.member_id} unreachable")
        if self.fail_next > 0:
            self.fail_next -= 1
            raise MemberUnavailable("injected 503",
                                    retry_after=self.retry_after)
        if self.timeout_next > 0:
            self.timeout_next -= 1
            raise TimeoutError(
                f"member {self.member_id} did not answer within {timeout}s"
            )
        return self.inner.predict(images, timeout)

    def healthz(self):
        if self.unreachable:
            return None
        payload = self.inner.healthz()
        if payload is not None and self.sick:
            payload["ok"] = False
        if payload is not None and self.draining:
            payload["draining"] = True
        return payload

    def drain(self, timeout=None) -> bool:
        self.drained = True
        return True  # never drain the (module-shared) inner pool

    def profile_summary(self) -> dict:
        return self.inner.profile_summary()

    def profile_bytes(self, fingerprint):
        return self.inner.profile_bytes(fingerprint)

    def close(self) -> None:
        self.inner.close()

    def describe(self) -> str:
        return f"chaos({self.inner.describe()})"


def make_router(*members, **overrides):
    overrides.setdefault("fleet_probe_interval_s", 0.2)
    overrides.setdefault("request_timeout_s", 120.0)
    return FleetRouter(list(members), **overrides)


def image_ranking_first(images, router_ids, member_id):
    """An image whose rendezvous ranking puts ``member_id`` first —
    i.e. a request the router *must* attempt on that member."""
    for image in images:
        key = request_key(coerce_images([image]))
        if rendezvous_order(key, router_ids)[0] == member_id:
            return image
    pytest.skip(f"no fixture image ranks {member_id} first")


def wait_for(predicate, timeout=5.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    pytest.fail(f"timed out waiting for {message}")


def member_row(router, member_id):
    rows = router.profile_summary()["fleet"]["members"]
    return next(row for row in rows if row["member_id"] == member_id)


class TestAdmission:
    def test_fingerprint_mismatch_is_refused(self, pool_a, pool_b):
        bad = ChaosMember(InProcessMember(pool_b))
        bad.fingerprint_override = "f" * 64
        with pytest.raises(ValueError, match="disagree on serving_fing"):
            FleetRouter([InProcessMember(pool_a), bad])

    def test_empty_fleet_is_refused(self):
        with pytest.raises(ValueError, match="at least one member"):
            FleetRouter([])

    def test_duplicate_member_ids_are_refused(self, pool_a):
        with pytest.raises(ValueError, match="unique"):
            FleetRouter([InProcessMember(pool_a, member_id="m"),
                         InProcessMember(pool_a, member_id="m")])

    def test_unreachable_http_member_is_admission_failure(self):
        """A dead host at admission is MemberUnavailable (the CLI's exit-3
        shape), never a raw URLError traceback."""
        with pytest.raises(MemberUnavailable, match="unreachable"):
            FleetRouter([HttpMember("http://127.0.0.1:1")])

    def test_unreachable_fleet_cli_exits_3(self, capsys):
        from repro.serving.cli import main as cli_main

        code = cli_main(["--fleet", "http://127.0.0.1:1", "--stdin"])
        assert code == 3
        assert "fleet admission failed" in capsys.readouterr().err

    def test_admitted_fingerprint_is_the_members(self, pool_a, pool_b):
        with make_router(InProcessMember(pool_a),
                         InProcessMember(pool_b)) as router:
            assert (router.serving_fingerprint()
                    == pool_a.serving_fingerprint()
                    == pool_b.serving_fingerprint())


class TestRouting:
    @pytest.mark.parametrize("n_members", [2, 3])
    def test_byte_identity_across_fleet_sizes(
        self, pool_a, pool_b, baseline, images, n_members
    ):
        """Singles and batches through 2- and 3-member fleets (mixed
        worker counts) equal single-process ``predict`` bit for bit."""
        members = [InProcessMember(pool_a), InProcessMember(pool_b),
                   InProcessMember(pool_a)][:n_members]
        with make_router(*members) as router:
            for image in images:
                expected = baseline.predict([image]).probs.tobytes()
                assert router.predict([image]).probs.tobytes() == expected
            expected = baseline.predict(images).probs.tobytes()
            assert router.predict(images).probs.tobytes() == expected

    def test_batches_are_never_split(self, pool_a, pool_b, images):
        """A batch lands on exactly one member: the labeler's matmul
        rounding is batch-shaped, so splitting would break
        byte-identity.  Counted via each member's served tally."""
        with make_router(InProcessMember(pool_a),
                         InProcessMember(pool_b)) as router:
            router.predict(images)
            served = [member_row(router, mid)["served"]
                      for mid in router._order]
            assert sorted(served) == [0, 1]

    def test_rendezvous_is_deterministic_and_total(self):
        ids = ["alpha", "beta", "gamma"]
        key = request_key(coerce_images([np.eye(4)]))
        order = rendezvous_order(key, ids)
        assert sorted(order) == sorted(ids)
        assert order == rendezvous_order(key, ids)  # replayable
        other = request_key(coerce_images([np.eye(4) * 2]))
        assert other != key  # content difference re-keys

    def test_routing_is_replayable(self, pool_a, pool_b, images):
        """The member that serves a request is the rendezvous winner —
        predictable from the request content alone, before sending."""
        members = [InProcessMember(pool_a), InProcessMember(pool_b)]
        with make_router(*members) as router:
            for image in images:
                key = request_key(coerce_images([image]))
                winner = rendezvous_order(key, router._order)[0]
                before = member_row(router, winner)["served"]
                router.predict([image])
                assert member_row(router, winner)["served"] == before + 1

    def test_validation_errors_propagate_unretried(self, pool_a, pool_b):
        """A 400-shaped request is the request's fault: every member
        would refuse it identically, so it must not burn retries."""
        chaos = ChaosMember(InProcessMember(pool_a))
        with make_router(chaos, InProcessMember(pool_b)) as router:
            with pytest.raises(ValueError):
                router.predict([np.ones((4, 4, 3))])  # 3-D: invalid
            assert chaos.calls == 0  # refused before any member


class TestDegradation:
    def test_failover_stays_byte_identical(
        self, pool_a, pool_b, baseline, images
    ):
        """Every request with one member serving 503s still completes,
        byte-identical, within the retry budget."""
        chaos = ChaosMember(InProcessMember(pool_a))
        chaos.fail_next = 100
        with make_router(chaos, InProcessMember(pool_b),
                         fleet_eject_failures=50) as router:
            for image in images:
                expected = baseline.predict([image]).probs.tobytes()
                assert router.predict([image]).probs.tobytes() == expected

    def test_ejection_then_probed_readmission(
        self, pool_a, pool_b, baseline, images
    ):
        chaos = ChaosMember(InProcessMember(pool_a, member_id="a"))
        good = InProcessMember(pool_b, member_id="b")
        chaos.fail_next = 100
        chaos.sick = True  # healthz agrees, so the probe can't readmit yet
        with make_router(chaos, good, fleet_eject_failures=2) as router:
            # Hit the chaos member until its failures eject it; requests
            # keep completing off the healthy member throughout.  Each
            # failure starts a short backoff that routes traffic away,
            # so outwait it between requests to accrue the next failure.
            target = image_ranking_first(images, router._order,
                                         chaos.member_id)
            expected = baseline.predict([target]).probs.tobytes()
            for _ in range(2):
                assert router.predict([target]).probs.tobytes() == expected
                time.sleep(0.7)
            assert not member_row(router, chaos.member_id)["healthy"]
            # Member recovers → the probe readmits it (health ok + same
            # fingerprint); no request needed to trigger it.
            chaos.fail_next = 0
            chaos.sick = False
            wait_for(
                lambda: member_row(router, chaos.member_id)["healthy"],
                message="probed readmission",
            )
            assert router.predict([target]).probs.tobytes() == expected

    def test_retry_after_backs_off_exactly_that_member(
        self, pool_a, pool_b, images
    ):
        chaos = ChaosMember(InProcessMember(pool_a, member_id="a"))
        chaos.fail_next = 1
        chaos.retry_after = 30.0  # way past the test's lifetime
        with make_router(chaos, InProcessMember(pool_b, member_id="b"),
                         fleet_eject_failures=50) as router:
            target = image_ranking_first(images, router._order,
                                         chaos.member_id)
            router.predict([target])       # chaos fails once, b serves
            assert chaos.calls == 1
            router.predict([target])       # backoff: chaos never attempted
            assert chaos.calls == 1

    def test_timeout_fails_over_to_next_ranked_member(
        self, pool_a, pool_b, baseline, images
    ):
        chaos = ChaosMember(InProcessMember(pool_a, member_id="a"))
        chaos.timeout_next = 1
        with make_router(chaos,
                         InProcessMember(pool_b, member_id="b")) as router:
            target = image_ranking_first(images, router._order,
                                         chaos.member_id)
            expected = baseline.predict([target]).probs.tobytes()
            assert router.predict([target]).probs.tobytes() == expected
            assert chaos.calls == 1

    def test_deadline_exhaustion_keeps_the_pool_timeout_message(
        self, pool_a, pool_b, images
    ):
        """All members timing out surfaces as the exact TimeoutError the
        pool would raise — transport-identical error text."""
        slow_a = ChaosMember(InProcessMember(pool_a))
        slow_b = ChaosMember(InProcessMember(pool_b))
        slow_a.timeout_next = slow_b.timeout_next = 10
        with make_router(slow_a, slow_b) as router:
            with pytest.raises(
                TimeoutError,
                match=r"serving request not completed within 2\.5s",
            ):
                router.predict([images[0]], timeout=2.5)

    def test_all_members_down_maps_to_503(self, pool_a, pool_b, images):
        dead_a = ChaosMember(InProcessMember(pool_a))
        dead_b = ChaosMember(InProcessMember(pool_b))
        with make_router(dead_a, dead_b) as router:
            dead_a.unreachable = dead_b.unreachable = True
            with pytest.raises(ServingError) as excinfo:
                router.predict([images[0]])
            assert envelope_for(excinfo.value)["error"]["status"] == 503

    def test_drain_aware_removal(self, pool_a, pool_b, baseline, images):
        chaos = ChaosMember(InProcessMember(pool_a))
        with make_router(chaos, InProcessMember(pool_b)) as router:
            assert router.remove(chaos.member_id) is True
            assert chaos.drained  # member got its /admin/drain
            row = member_row(router, chaos.member_id)
            assert row["removed"] and not row["healthy"]
            calls = chaos.calls
            # Every subsequent request completes off the survivor.
            for image in images:
                expected = baseline.predict([image]).probs.tobytes()
                assert router.predict([image]).probs.tobytes() == expected
            assert chaos.calls == calls
            with pytest.raises(ValueError, match="unknown fleet member"):
                router.remove("nope")

    def test_probe_removes_draining_member_for_good(
        self, pool_a, pool_b, images
    ):
        """A member observed draining is a goodbye, not an outage: the
        probe removes it and never readmits, even once it looks fine."""
        chaos = ChaosMember(InProcessMember(pool_a, member_id="a"))
        chaos.fail_next = 100
        chaos.draining = True
        with make_router(chaos, InProcessMember(pool_b, member_id="b"),
                         fleet_eject_failures=1) as router:
            target = image_ranking_first(images, router._order,
                                         chaos.member_id)
            router.predict([target])  # one failure ejects it
            wait_for(
                lambda: member_row(router, chaos.member_id)["removed"],
                message="drain-aware removal",
            )
            chaos.fail_next = 0
            chaos.draining = False
            time.sleep(0.6)  # several probe intervals
            assert member_row(router, chaos.member_id)["removed"]

    def test_router_drain_refuses_new_requests(self, pool_a, images):
        router = make_router(InProcessMember(pool_a))
        try:
            assert router.drain(timeout=10.0) is True
            with pytest.raises(ServingError, match="draining"):
                router.predict([images[0]])
        finally:
            router.shutdown()


class TestHttpFleet:
    def test_http_members_route_byte_identical(
        self, pool_a, pool_b, baseline, images
    ):
        """A fleet of two real HTTP pools (different worker counts)
        serves every request byte-identical to single-process."""
        with serve_http(pool_a, port=0) as front_a, \
                serve_http(pool_b, port=0) as front_b:
            with make_router(HttpMember(front_a.url),
                             HttpMember(front_b.url)) as router:
                for image in images:
                    expected = baseline.predict([image]).probs.tobytes()
                    got = router.predict([image]).probs.tobytes()
                    assert got == expected
                batch = baseline.predict(images).probs.tobytes()
                assert router.predict(images).probs.tobytes() == batch

    def test_kill_member_mid_stream_loses_nothing(
        self, serving_profile, pool_b, baseline, images
    ):
        """The acceptance scenario: stream requests through a 2-member
        HTTP fleet, kill one member's pool mid-stream.  Every request
        completes exactly once, byte-identical; none lost."""
        victim = ServingPool(serving_profile, workers=1, max_wait_ms=0.0)
        front_v = serve_http(victim, port=0)
        killed = threading.Event()

        def kill() -> None:
            front_v.close()
            victim.shutdown(drain=False)
            killed.set()

        results: dict[int, bytes] = {}
        n_requests = 12
        try:
            with serve_http(pool_b, port=0) as front_s:
                with make_router(HttpMember(front_v.url),
                                 HttpMember(front_s.url),
                                 fleet_retry_limit=2) as router:
                    for i in range(n_requests):
                        if i == n_requests // 3 and not killed.is_set():
                            # Kill concurrently with the in-flight
                            # request stream, not between turns.
                            threading.Thread(target=kill).start()
                        image = images[i % len(images)]
                        results[i] = router.predict(
                            [image], timeout=120.0
                        ).probs.tobytes()
            killed.wait(timeout=30.0)
        finally:
            front_v.close()
            victim.shutdown(drain=False)
        assert sorted(results) == list(range(n_requests))  # none lost
        for i in range(n_requests):
            expected = baseline.predict(
                [images[i % len(images)]]).probs.tobytes()
            assert results[i] == expected

    def test_drained_member_mid_stream_loses_nothing(
        self, pool_a, pool_b, baseline, images
    ):
        """Same invariant when a member leaves politely: drain-aware
        removal mid-stream, every request still answered once."""
        chaos = ChaosMember(InProcessMember(pool_a))
        results = []
        with make_router(chaos, InProcessMember(pool_b)) as router:
            for i in range(10):
                if i == 4:
                    router.remove(chaos.member_id, drain=True)
                results.append(
                    router.predict([images[i % len(images)]])
                    .probs.tobytes()
                )
        for i, got in enumerate(results):
            expected = baseline.predict(
                [images[i % len(images)]]).probs.tobytes()
            assert got == expected

    def test_router_served_behind_the_http_front(
        self, pool_a, pool_b, baseline, images, serving_profile
    ):
        """The router duck-types the pool surface, so the HTTP front
        serves a fleet unchanged: label byte-identity, aggregated
        /healthz and /profile, the profiles endpoint proxied through."""
        router = make_router(InProcessMember(pool_a),
                             InProcessMember(pool_b))
        with router, serve_http(router, port=0) as front:
            url = front.url
            body = json.dumps(
                {"images": [encode_image(images[0])]}).encode()
            with urllib.request.urlopen(urllib.request.Request(
                f"{url}/v1/label", data=body,
                headers={"Content-Type": "application/json"},
            ), timeout=120) as resp:
                payload = json.loads(resp.read())
            expected = baseline.predict([images[0]]).probs.tobytes()
            got = np.array(payload["probs"], dtype=np.float64).tobytes()
            assert got == expected

            with urllib.request.urlopen(f"{url}/healthz",
                                        timeout=30) as resp:
                health = json.loads(resp.read())
            assert health["ok"] is True
            assert {w["worker_id"] for w in health["workers"]} \
                == set(router._order)

            with urllib.request.urlopen(f"{url}/profile",
                                        timeout=30) as resp:
                profile = json.loads(resp.read())
            assert profile["fingerprint"] == router.serving_fingerprint()
            assert len(profile["fleet"]["members"]) == 2

            fp = router.serving_fingerprint()
            with urllib.request.urlopen(f"{url}/v1/profiles/{fp}",
                                        timeout=30) as resp:
                assert resp.headers.get("Content-Type") \
                    == "application/octet-stream"
                raw = resp.read()
            assert raw == Path(serving_profile).read_bytes()

            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{url}/v1/profiles/{'0' * 64}",
                                       timeout=30)
            with excinfo.value as err:
                assert err.code == 404
                message = json.loads(err.read())["error"]["message"]
            assert message == (
                f"no profile with fingerprint {'0' * 64!r} on this host"
            )

    def test_fleet_health_renders_like_a_pool(self, pool_a, pool_b):
        """``health_payload`` (the shared /healthz body builder) accepts
        FleetHealth unchanged — the duck-type is exact."""
        with make_router(InProcessMember(pool_a),
                         InProcessMember(pool_b)) as router:
            payload = health_payload(router.health(), draining=False)
            assert payload["ok"] is True
            assert len(payload["workers"]) == 2
            json.dumps(payload)  # JSON-ready, like a pool's


class TestProfileStore:
    def test_local_dir_round_trip(self, serving_profile, tmp_path):
        store = LocalDirProfileStore(tmp_path / "store")
        payload = Path(serving_profile).read_bytes()
        fp = InspectorGadget.load(serving_profile).serving_fingerprint()
        assert store.load(fp) is None
        with pytest.raises(FileNotFoundError):
            store.path(fp)
        store.save(fp, payload)
        assert store.load(fp) == payload
        assert store.path(fp).read_bytes() == payload
        # The stored profile is loadable — bytes were opaque end to end.
        loaded = InspectorGadget.load(store.path(fp))
        assert loaded.serving_fingerprint() == fp

    def test_publish_keys_by_serving_fingerprint(
        self, serving_profile, tmp_path
    ):
        store = LocalDirProfileStore(tmp_path / "store")
        fp = store.publish(serving_profile)
        expected = InspectorGadget.load(
            serving_profile).serving_fingerprint()
        assert fp == expected
        assert store.load(fp) == Path(serving_profile).read_bytes()

    def test_http_store_pulls_from_a_serving_host(
        self, pool_a, serving_profile, tmp_path
    ):
        fp = pool_a.serving_fingerprint()
        payload = Path(serving_profile).read_bytes()
        with serve_http(pool_a, port=0) as front:
            store = HttpProfileStore(front.url,
                                     cache_dir=tmp_path / "cache")
            assert store.load(fp) == payload
            assert store.load("0" * 64) is None  # 404 is a miss
            with pytest.raises(FileNotFoundError):
                store.path("0" * 64)
            local = store.path(fp)
            assert local.read_bytes() == payload
            assert store.path(fp) == local  # cached, no second pull
            # The pulled file is a working profile: this is how a fleet
            # member bootstraps from a peer.
            loaded = InspectorGadget.load(local)
            assert loaded.serving_fingerprint() == fp
            with pytest.raises(OSError, match="read-only"):
                store.save(fp, payload)

    def test_open_profile_store_dispatches_on_spec(self, tmp_path):
        assert isinstance(open_profile_store(str(tmp_path)),
                          LocalDirProfileStore)
        assert isinstance(open_profile_store("http://example.org:1"),
                          HttpProfileStore)
        with pytest.raises(ValueError):
            HttpProfileStore("ftp://example.org")
