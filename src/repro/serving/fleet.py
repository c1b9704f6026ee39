"""Fleet router: one front for N single-host serving pools.

The serving stack below this module is deliberately single-host — one
:class:`~repro.serving.pool.ServingPool` behind one dispatcher.  The
labeling workload itself is embarrassingly shardable per request, and
every pool already speaks the observability surface a router needs
(``GET /profile`` with ``serving_fingerprint()``, ``GET /healthz``,
``Retry-After`` on 503, ``POST /admin/drain``).  :class:`FleetRouter`
composes those into a cross-host front::

    clients (predict, HTTP front, stdin)
         │
         v
    FleetRouter ── admission: every member's serving_fingerprint() equal
         │         routing:  rendezvous hash of request content
         │         degrade:  retry → eject → probe → readmit / remove
         ├──────────────┬──────────────────┐
         v              v                  v
    InProcessMember  HttpMember        HttpMember
    (a ServingPool   (POST /v1/label  (another host,
     in this          over the wire    same wire
     process)         protocol)        protocol)

Design rules, in dependency order:

* **Admission is identity.**  Equal ``serving_fingerprint()`` values mean
  byte-identical answers (a pool invariant), so the router admits a
  member only when its fingerprint matches the fleet's.  A mismatched
  member is refused at construction — a fleet must never be able to give
  two different answers for one request.
* **A request is routed whole.**  The labeler's matmul rounding is
  batch-shaped (a row sliced from a larger batch differs in final bits
  from the same image labeled alone), so splitting one batch request
  across members would break byte-identity with single-process
  ``predict``.  The router therefore picks **one** member per request;
  sharding happens across requests, not within them.
* **Routing is replayable.**  The member is chosen by rendezvous
  (highest-random-weight) hashing of the request's *content*
  (:func:`request_key` over image shapes/dtypes/bytes), so the same
  request always ranks members in the same order — in tests, in replay,
  and across router restarts.  The rank order is also the failover
  order: retries walk the same deterministic list.
* **Only idempotent failures are retried.**  Label requests are pure
  (no side effects), so a 503, a connection failure, or a timeout on
  one member is safely retried on the next-ranked member, at most
  ``config.fleet_retry_limit`` extra attempts, inside the caller's own
  deadline.  Validation errors (400-shaped ``ValueError``) are the
  *request's* fault and propagate immediately — every member would
  refuse them identically.
* **Degradation is a state machine** (documented with a diagram in
  ``docs/fleet.md``): ``fleet_eject_failures`` consecutive failures
  eject a member from rotation; a background probe re-checks ejected
  members every ``fleet_probe_interval_s`` seconds and readmits one only
  when its ``/healthz`` is ok *and* its fingerprint still matches
  (a member restarted with a different profile must stay out).  A
  member observed draining is *removed* — a drain is a goodbye, not an
  outage.  ``Retry-After`` from a member's 503 backs off exactly that
  member.

The router duck-types the pool surface the HTTP front end consumes
(``predict``/``health``/``ping``/``drain``/``profile_summary``/
``profile_bytes``/``ingest_stats``/``config``), so
:func:`repro.serving.http.serve_http` serves a fleet unchanged — that
is how the CLI's ``--fleet`` mode exposes router-level ``/healthz`` and
``/profile`` aggregation.

Fault-injection coverage lives in ``tests/test_serving_fleet.py``; the
shared profile store that lets serving hosts pull profiles by
fingerprint is :class:`repro.core.artifacts.ProfileStore` (served by
``GET /v1/profiles/<fingerprint>`` on the HTTP front end).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, replace

import numpy as np

from repro.core.config import ServingConfig
from repro.labeler.weak_labels import WeakLabels
from repro.serving.dispatcher import ServingError, debug
from repro.serving.protocol import coerce_images, encode_image

__all__ = [
    "FleetRouter",
    "FleetHealth",
    "HttpMember",
    "InProcessMember",
    "MemberUnavailable",
    "rendezvous_order",
    "request_key",
]

_member_ids = itertools.count()


class MemberUnavailable(ServingError):
    """A member failed in a way that is safe to retry elsewhere.

    Raised for 503 responses and connection-level failures — the
    idempotent-retry class.  ``retry_after`` carries the member's
    ``Retry-After`` hint (seconds) when it sent one; the router backs
    off exactly that member for that long.
    """

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


def request_key(images) -> str:
    """Content hash of one (validated) request — the rendezvous routing key.

    Hashes every image's shape, dtype and raw bytes, plus the request
    length, so equal requests always route identically and any content
    difference (a pixel, an extra image, a reordered batch) re-ranks.
    """
    h = hashlib.sha256()
    h.update(f"n={len(images)};".encode())
    for image in images:
        arr = np.ascontiguousarray(image)
        h.update(f"{arr.dtype.name}{arr.shape};".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def rendezvous_order(key: str, member_ids) -> list[str]:
    """Members ranked by rendezvous (highest-random-weight) score for ``key``.

    Deterministic and minimal-disruption: each member's score is an
    independent hash of ``(key, member_id)``, so removing one member
    re-routes only the requests it owned, and the full ranking doubles
    as the request's failover order.  Ties (hash collisions) break on
    the member id, so the order is total.
    """
    def score(member_id: str) -> tuple[str, str]:
        digest = hashlib.sha256(
            f"{key}|{member_id}".encode()
        ).hexdigest()
        return digest, member_id

    return sorted(member_ids, key=score, reverse=True)


class InProcessMember:
    """A fleet member wrapping a :class:`ServingPool` in this process.

    The reference member: no wire, no serialization — ``predict`` is the
    pool's own.  Pool ``ServingError`` failures surface as
    :class:`MemberUnavailable` (a draining or respawning pool is exactly
    the retry-elsewhere case); validation errors pass through untouched
    so the router's error messages match every other transport.
    """

    def __init__(self, pool, member_id: str | None = None):
        self.pool = pool
        self.member_id = member_id or f"inproc-{next(_member_ids)}"

    def fingerprint(self) -> str:
        return self.pool.serving_fingerprint()

    def predict(self, images, timeout: float) -> WeakLabels:
        try:
            return self.pool.predict(images, timeout=timeout)
        except MemberUnavailable:
            raise
        except ServingError as exc:
            raise MemberUnavailable(str(exc)) from exc

    def healthz(self) -> dict | None:
        """The member's health as a ``/healthz``-shaped dict, or ``None``."""
        try:
            health = self.pool.health()
        except Exception:
            return None
        dispatcher = getattr(self.pool, "_dispatcher", None)
        refusing = getattr(dispatcher, "_refusing", None)
        return {"ok": health.ok, "draining": refusing is not None,
                "failure": health.failure}

    def drain(self, timeout: float | None = None) -> bool:
        return self.pool.drain(timeout)

    def profile_summary(self) -> dict:
        return self.pool.profile_summary()

    def profile_bytes(self, fingerprint: str) -> bytes | None:
        return self.pool.profile_bytes(fingerprint)

    def close(self) -> None:
        """Nothing to release — the pool is not owned."""

    def describe(self) -> str:
        return f"in-process pool ({self.pool.profile_path})"


class HttpMember:
    """A fleet member reached over HTTP — a pool on another host.

    Speaks the exact wire protocol of the HTTP front end
    (``docs/serving.md``): label requests POST base64 image envelopes to
    ``/v1/label`` and parse ``probs`` back into float64 — which recovers
    the remote pool's output **byte-identically**, because the wire
    serializes floats with shortest-round-trip ``repr``.  Error mapping
    mirrors :func:`repro.serving.protocol.envelope_for` in reverse: 503
    (with its ``Retry-After``) and connection failures become
    :class:`MemberUnavailable`, 504 becomes :class:`TimeoutError`, 400
    becomes :class:`ValueError` — each carrying the server's own message
    so errors stay transport-identical through the router.
    """

    def __init__(self, base_url: str, member_id: str | None = None):
        self.base_url = base_url.rstrip("/")
        if not self.base_url.startswith(("http://", "https://")):
            raise ValueError(
                f"fleet member must be an http(s) URL, got {base_url!r}"
            )
        self.member_id = member_id or self.base_url

    # -- wire plumbing --------------------------------------------------------

    def _request(self, path: str, timeout: float, body: bytes | None = None,
                 method: str | None = None):
        request = urllib.request.Request(
            self.base_url + path, data=body,
            method=method or ("POST" if body is not None else "GET"),
            headers={"Content-Type": "application/json"} if body else {},
        )
        return urllib.request.urlopen(request, timeout=timeout)

    def _get_json(self, path: str, timeout: float) -> tuple[int, dict]:
        """GET ``path``; returns (status, parsed body) even on error statuses."""
        try:
            with self._request(path, timeout) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as err:
            with err:
                return err.code, json.loads(err.read())

    @staticmethod
    def _raise_for(err: urllib.error.HTTPError):
        """Translate an error envelope back into the exception it came from."""
        retry_after = err.headers.get("Retry-After")
        with err:
            try:
                message = json.loads(err.read())["error"]["message"]
            except (json.JSONDecodeError, UnicodeDecodeError, KeyError,
                    TypeError):
                message = f"HTTP {err.code} from member"
        if err.code == 503:
            raise MemberUnavailable(
                message,
                retry_after=float(retry_after) if retry_after else None,
            ) from err
        if err.code == 504:
            raise TimeoutError(message) from err
        if err.code == 400:
            raise ValueError(message) from err
        raise ServingError(f"member answered HTTP {err.code}: {message}") \
            from err

    # -- member surface -------------------------------------------------------

    def fingerprint(self) -> str:
        try:
            status, payload = self._get_json("/profile", timeout=10.0)
        except (urllib.error.URLError, ConnectionError, OSError,
                TimeoutError, json.JSONDecodeError) as exc:
            reason = getattr(exc, "reason", exc)
            raise MemberUnavailable(
                f"member {self.member_id} unreachable ({reason})"
            ) from exc
        if status != 200 or "fingerprint" not in payload:
            raise MemberUnavailable(
                f"member {self.member_id} /profile answered {status}"
            )
        self._summary = payload
        return payload["fingerprint"]

    def predict(self, images, timeout: float) -> WeakLabels:
        body = json.dumps(
            {"images": [encode_image(image) for image in images]}
        ).encode("utf-8")
        try:
            with self._request("/v1/label", timeout, body=body) as resp:
                payload = json.loads(resp.read())
        except urllib.error.HTTPError as err:
            self._raise_for(err)
        except TimeoutError as exc:  # read timed out mid-response
            raise TimeoutError(
                f"member {self.member_id} did not answer within {timeout}s"
            ) from exc
        except (urllib.error.URLError, ConnectionError, OSError) as exc:
            reason = getattr(exc, "reason", exc)
            if isinstance(reason, TimeoutError):
                raise TimeoutError(
                    f"member {self.member_id} did not answer within "
                    f"{timeout}s"
                ) from exc
            raise MemberUnavailable(
                f"member {self.member_id} unreachable ({reason})"
            ) from exc
        return WeakLabels(
            probs=np.array(payload["probs"], dtype=np.float64)
        )

    def healthz(self) -> dict | None:
        try:
            _, payload = self._get_json("/healthz", timeout=5.0)
            return payload
        except (urllib.error.URLError, ConnectionError, OSError,
                TimeoutError, json.JSONDecodeError):
            return None

    def drain(self, timeout: float | None = None) -> bool:
        body = json.dumps(
            {} if timeout is None else {"timeout": timeout}
        ).encode("utf-8")
        wait = 30.0 if timeout is None else timeout + 30.0
        try:
            with self._request("/admin/drain", wait, body=body) as resp:
                return bool(json.loads(resp.read()).get("drained"))
        except (urllib.error.URLError, ConnectionError, OSError,
                TimeoutError, json.JSONDecodeError) as exc:
            raise MemberUnavailable(
                f"drain of member {self.member_id} failed ({exc})"
            ) from exc

    def profile_summary(self) -> dict:
        summary = getattr(self, "_summary", None)
        if summary is None:
            _, summary = self._get_json("/profile", timeout=10.0)
            self._summary = summary
        return summary

    def profile_bytes(self, fingerprint: str) -> bytes | None:
        try:
            with self._request(f"/v1/profiles/{fingerprint}",
                               timeout=30.0) as resp:
                return resp.read()
        except urllib.error.HTTPError as err:
            with err:
                if err.code == 404:
                    return None
            self._raise_for(err)
        except (urllib.error.URLError, ConnectionError, OSError,
                TimeoutError) as exc:
            raise MemberUnavailable(
                f"member {self.member_id} unreachable ({exc})"
            ) from exc

    def close(self) -> None:
        """Stateless client — nothing held open between requests."""

    def describe(self) -> str:
        return self.base_url


@dataclass
class _MemberStatus:
    """One member's row in :class:`FleetHealth` — shaped like
    :class:`~repro.serving.pool.WorkerStatus` so
    :func:`repro.serving.protocol.health_payload` renders a fleet and a
    pool with the same code path."""

    worker_id: str
    pid: int | None
    alive: bool
    ready: bool
    outstanding_tasks: int
    outstanding_images: int
    tasks_done: int


@dataclass
class FleetHealth:
    """Point-in-time view of the whole fleet (mirrors ``PoolHealth``)."""

    workers: list[_MemberStatus]
    pending_requests: int
    respawns_left: int
    failure: str | None

    @property
    def ok(self) -> bool:
        """Load-balancer contract: 200 only while requests will be served —
        for a fleet, while at least one member is in rotation."""
        return self.failure is None and any(
            w.alive and w.ready for w in self.workers
        )


@dataclass
class _MemberState:
    """Router-side bookkeeping for one admitted member."""

    member: object
    healthy: bool = True
    removed: bool = False          # drained or explicitly removed: terminal
    consecutive_failures: int = 0
    not_before: float = 0.0        # monotonic backoff deadline (Retry-After)
    served: int = 0
    in_flight: int = 0


class FleetRouter:
    """Route label requests across N fingerprint-identical pool members.

    ``members`` is a non-empty list of :class:`InProcessMember` /
    :class:`HttpMember` (or anything speaking their surface).  Admission
    verifies every member reports the same ``serving_fingerprint()``;
    a mismatch raises ``ValueError`` naming the offenders.  ``config``
    carries the fleet knobs (``fleet_retry_limit``,
    ``fleet_eject_failures``, ``fleet_probe_interval_s``) plus the
    HTTP-front defaults the router inherits when served over TCP;
    keyword overrides work exactly like :class:`ServingPool`'s.

    The router owns no pools: closing it stops the probe thread and the
    member clients, never the members' own processes.
    """

    def __init__(self, members, config: ServingConfig | None = None,
                 **overrides):
        base = config or ServingConfig()
        if overrides:
            base = replace(base, **overrides)
        self.config = base
        members = list(members)
        if not members:
            raise ValueError("a fleet needs at least one member")
        ids = [member.member_id for member in members]
        if len(set(ids)) != len(ids):
            raise ValueError(f"fleet member ids must be unique, got {ids}")
        # Admission: every member must serve the same profile.  Equal
        # fingerprints <=> byte-identical answers, so this check is what
        # makes "any member may answer any request" sound.
        fingerprints = {}
        for member in members:
            fingerprints[member.member_id] = member.fingerprint()
        distinct = sorted(set(fingerprints.values()))
        if len(distinct) > 1:
            detail = ", ".join(
                f"{member_id}={fp[:12]}"
                for member_id, fp in sorted(fingerprints.items())
            )
            raise ValueError(
                "fleet members disagree on serving_fingerprint() — they "
                f"would not answer identically ({detail}); every member "
                "must serve the same profile"
            )
        self._fingerprint = distinct[0]
        self._states = {m.member_id: _MemberState(member=m) for m in members}
        self._order = [m.member_id for m in members]
        self._lock = threading.Lock()
        self._settled = threading.Condition(self._lock)
        self._pending = 0
        self._refusing: str | None = None
        self._closed = False
        self._probe_stop = threading.Event()
        self._probe_thread = threading.Thread(
            target=self._probe_loop, name="fleet-probe", daemon=True,
        )
        self._probe_thread.start()
        debug(f"fleet router admitted {len(members)} member(s) "
              f"(fingerprint {self._fingerprint[:12]})")

    # -- requests -------------------------------------------------------------

    def predict(self, images, timeout: float | None = None) -> WeakLabels:
        """Label one image or a batch through the fleet.

        Same contract as :meth:`ServingPool.predict` — the same
        validation (shared ``coerce_images``), the same exceptions, and
        every response byte-identical to single-process ``predict`` on
        the same request (any member may answer; admission made them
        interchangeable).  Retries are bounded by
        ``config.fleet_retry_limit`` and always stay inside ``timeout``.
        """
        if timeout is None:
            timeout = self.config.request_timeout_s
        images = coerce_images(images)
        with self._lock:
            if self._refusing is not None:
                raise ServingError(
                    f"fleet router is not accepting requests "
                    f"({self._refusing})"
                )
            self._pending += 1
        try:
            return self._route(images, timeout)
        finally:
            with self._settled:
                self._pending -= 1
                self._settled.notify_all()

    def _route(self, images, timeout: float) -> WeakLabels:
        """One request end to end: rank, attempt, fail over, give up."""
        deadline = time.monotonic() + timeout
        key = request_key(images)
        attempts = 1 + self.config.fleet_retry_limit
        last_error: BaseException | None = None
        tried = 0
        for member_id in self._candidates(key):
            if tried >= attempts:
                break
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"serving request not completed within {timeout}s"
                )
            state = self._states[member_id]
            with self._lock:
                state.in_flight += 1
            try:
                weak = state.member.predict(images, timeout=remaining)
            except MemberUnavailable as exc:
                tried += 1
                last_error = exc
                self._record_failure(state, exc.retry_after)
                continue
            except TimeoutError as exc:
                # Idempotent request, no answer in time: safe to try the
                # next-ranked member with whatever deadline remains.
                tried += 1
                last_error = exc
                self._record_failure(state, None)
                continue
            finally:
                with self._lock:
                    state.in_flight -= 1
            self._record_success(state)
            return weak
        if isinstance(last_error, TimeoutError):
            raise TimeoutError(
                f"serving request not completed within {timeout}s"
            ) from last_error
        detail = f" (last error: {last_error})" if last_error else ""
        raise ServingError(
            f"no fleet member could serve the request after {tried} "
            f"attempt(s){detail}"
        )

    def _candidates(self, key: str) -> list[str]:
        """Attempt order for one request: healthy members in rendezvous
        rank, then backing-off/ejected ones (last-ditch — a stale
        ejection must not fail a request the member could serve), never
        removed ones."""
        ranked = rendezvous_order(key, self._order)
        now = time.monotonic()
        with self._lock:
            live = [m for m in ranked if not self._states[m].removed]
            preferred = [m for m in live
                         if self._states[m].healthy
                         and self._states[m].not_before <= now]
            fallback = [m for m in live if m not in preferred]
        return preferred + fallback

    def _record_failure(self, state: _MemberState,
                        retry_after: float | None) -> None:
        with self._lock:
            state.consecutive_failures += 1
            backoff = retry_after if retry_after is not None else \
                min(5.0, 0.5 * state.consecutive_failures)
            state.not_before = time.monotonic() + backoff
            if state.consecutive_failures >= self.config.fleet_eject_failures \
                    and state.healthy:
                state.healthy = False
                debug(f"fleet ejected member {state.member.member_id} after "
                      f"{state.consecutive_failures} consecutive failures")

    def _record_success(self, state: _MemberState) -> None:
        with self._lock:
            state.consecutive_failures = 0
            state.not_before = 0.0
            state.served += 1
            if not state.healthy:
                state.healthy = True
                debug(f"fleet readmitted member {state.member.member_id} "
                      "(served a request)")

    # -- degradation ----------------------------------------------------------

    def _probe_loop(self) -> None:
        """Readmission (and drain detection) for ejected members."""
        while not self._probe_stop.wait(self.config.fleet_probe_interval_s):
            with self._lock:
                ejected = [state for state in self._states.values()
                           if not state.healthy and not state.removed]
            for state in ejected:
                self._probe(state)

    def _probe(self, state: _MemberState) -> None:
        member = state.member
        payload = member.healthz()
        if payload is None or not payload.get("ok"):
            return
        if payload.get("draining"):
            # A draining member is leaving on purpose; removal, not
            # an outage — it must never be probed back in.
            with self._lock:
                state.removed = True
            debug(f"fleet removed draining member {member.member_id}")
            return
        try:
            fingerprint = member.fingerprint()
        except (MemberUnavailable, ServingError, ValueError):
            return
        if fingerprint != self._fingerprint:
            # Healthy but serving a different profile (e.g. restarted
            # with a new one): identity broken, keep it out for good.
            with self._lock:
                state.removed = True
            debug(f"fleet removed member {member.member_id}: fingerprint "
                  f"changed to {fingerprint[:12]}")
            return
        with self._lock:
            state.healthy = True
            state.consecutive_failures = 0
            state.not_before = 0.0
        debug(f"fleet readmitted member {member.member_id} (probe ok)")

    def remove(self, member_id: str, drain: bool = True,
               timeout: float | None = None) -> bool:
        """Take one member out of rotation, optionally draining it first.

        Returns the member's drain result (``True`` without a drain).
        Removal is terminal: the probe loop never readmits a removed
        member.  Requests in flight on the member complete normally —
        that is the member's own drain contract.
        """
        with self._lock:
            if member_id not in self._states:
                raise ValueError(
                    f"unknown fleet member {member_id!r}; members are "
                    f"{sorted(self._states)}"
                )
            state = self._states[member_id]
            state.removed = True
        drained = True
        if drain:
            try:
                drained = state.member.drain(timeout)
            except (MemberUnavailable, ServingError):
                drained = False  # unreachable ≈ already gone
        debug(f"fleet removed member {member_id} (drained={drained})")
        return drained

    # -- observability (pool surface) -----------------------------------------

    def health(self) -> FleetHealth:
        """Aggregate fleet health, shaped like :class:`PoolHealth` so the
        HTTP front end renders it through the shared ``health_payload``.
        Each member appears as one "worker" row; ``respawns_left``
        reports the per-request retry budget."""
        with self._lock:
            workers = [
                _MemberStatus(
                    worker_id=member_id,
                    pid=None,
                    alive=not state.removed,
                    ready=state.healthy and not state.removed,
                    outstanding_tasks=state.in_flight,
                    outstanding_images=0,
                    tasks_done=state.served,
                )
                for member_id, state in self._states.items()
            ]
            return FleetHealth(
                workers=workers,
                pending_requests=self._pending,
                respawns_left=self.config.fleet_retry_limit,
                failure=None,
            )

    def ping(self, timeout: float = 5.0) -> dict[str, float]:
        """Health-probe round-trip per reachable member (member_id →
        seconds); a missing entry means unreachable within ``timeout``."""
        rtts: dict[str, float] = {}
        deadline = time.monotonic() + timeout
        with self._lock:
            members = [(member_id, state.member)
                       for member_id, state in self._states.items()
                       if not state.removed]
        for member_id, member in members:
            if time.monotonic() >= deadline:
                break
            t0 = time.monotonic()
            if member.healthz() is not None:
                rtts[member_id] = time.monotonic() - t0
        return rtts

    def serving_fingerprint(self) -> str:
        """The fleet's admitted fingerprint (equal on every member)."""
        return self._fingerprint

    def profile_summary(self) -> dict:
        """Router-level ``GET /profile``: the admitted profile identity
        plus a ``fleet`` block describing membership and routing knobs.

        The profile fields (fingerprint, pattern/class counts, tuning)
        come from one member — admission made them equal
        everywhere — so a client reading ``/profile`` through the router
        learns the same identity it would from any member directly.
        """
        summary = None
        with self._lock:
            states = list(self._states.items())
        for _, state in states:
            if state.removed:
                continue
            try:
                summary = dict(state.member.profile_summary())
                break
            except (MemberUnavailable, ServingError, ValueError, OSError):
                continue
        if summary is None:
            summary = {"fingerprint": self._fingerprint}
        with self._lock:
            summary["fleet"] = {
                "members": [
                    {
                        "member_id": member_id,
                        "url": state.member.describe(),
                        "healthy": state.healthy and not state.removed,
                        "removed": state.removed,
                        "served": state.served,
                    }
                    for member_id, state in self._states.items()
                ],
                "retry_limit": self.config.fleet_retry_limit,
                "eject_failures": self.config.fleet_eject_failures,
                "probe_interval_s": self.config.fleet_probe_interval_s,
            }
        return summary

    def profile_bytes(self, fingerprint: str) -> bytes | None:
        """Proxy ``GET /v1/profiles/<fp>`` to the first member holding it."""
        with self._lock:
            members = [state.member for state in self._states.values()
                       if not state.removed]
        for member in members:
            try:
                payload = member.profile_bytes(fingerprint)
            except (MemberUnavailable, ServingError):
                continue
            if payload is not None:
                return payload
        return None

    def ingest_stats(self) -> None:
        """No ingest controller attaches to a router (pool surface)."""
        return None

    # -- lifecycle ------------------------------------------------------------

    def drain(self, timeout: float | None = None) -> bool:
        """Stop intake and wait for in-flight requests to settle.

        The router's own drain only: members are not owned and keep
        serving their other clients.  Observability (:meth:`health`,
        :meth:`profile_summary`) keeps answering, matching the pool's
        drain contract so the HTTP fronts need no special casing.
        """
        with self._settled:
            self._refusing = "draining"
            return self._settled.wait_for(
                lambda: self._pending == 0, timeout
            )

    def shutdown(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the probe thread and member clients. Idempotent."""
        if self._closed:
            return
        self._closed = True
        if drain:
            self.drain(timeout)
        with self._lock:
            self._refusing = "shut down"
        self._probe_stop.set()
        self._probe_thread.join(timeout=5.0)
        for state in self._states.values():
            state.member.close()

    def __enter__(self) -> "FleetRouter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)
