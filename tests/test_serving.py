"""Tests for the multi-process serving subsystem.

The three properties that make serving a product surface, not a perf hack:

1. **Determinism** — for any worker count, micro-batch setting, and
   interleaving of single/batch requests, each response is byte-identical
   to single-process ``InspectorGadget.load(path).predict(...)`` on the
   same request's images (the acceptance bar for the subsystem).
2. **Lifecycle** — warmup-then-ready startup, health/ping observability,
   drain/shutdown, and crash recovery: a killed worker is respawned with
   its in-flight work resubmitted, bounded by the respawn budget, past
   which requests fail loudly instead of hanging.
3. **Plumbing honesty** — bad configs and bad requests are rejected at the
   boundary with ``ValueError``; the CLI exits with distinct codes for
   usage, profile, and startup failures.

Pools spawn real processes (1-2 workers mostly; the worker-count sweep
goes to 4), so this file costs tens of seconds — still fast-lane, and it
is the file CI's serving smoke job runs on its own.
"""

from __future__ import annotations

import io
import json
import threading
import time

import numpy as np
import pytest

from repro.augment.augmenter import AugmentConfig
from repro.core.config import InspectorGadgetConfig, ServingConfig
from repro.core.pipeline import InspectorGadget
from repro.crowd.workflow import WorkflowConfig
from repro.serving import ServingError, ServingPool
from repro.serving.cli import main as cli_main


@pytest.fixture(scope="module")
def profile_path(tiny_ksdd, tmp_path_factory):
    """A fitted tiny profile on disk, shared by every pool in this file."""
    config = InspectorGadgetConfig(
        workflow=WorkflowConfig(target_defective=4),
        augment=AugmentConfig(mode="none"),
        tune=False,
        labeler_max_iter=40,
        seed=0,
    )
    ig = InspectorGadget(config)
    ig.fit(tiny_ksdd)
    return ig.save(tmp_path_factory.mktemp("serving") / "tiny.igz")


@pytest.fixture(scope="module")
def images(tiny_ksdd):
    return [item.image for item in tiny_ksdd.images]


@pytest.fixture(scope="module")
def baseline(profile_path):
    """The single-process reference pipeline every response must match."""
    return InspectorGadget.load(profile_path)


@pytest.fixture(scope="module")
def shared_pool(profile_path, tiny_ksdd):
    """One 2-worker pool reused by the tests that don't kill or close it."""
    pool = ServingPool(
        profile_path,
        workers=2,
        max_batch=4,
        max_wait_ms=2.0,
        warmup_shapes=(tiny_ksdd.image_shape,),
    )
    yield pool
    pool.shutdown()


def same_bytes(weak_a, weak_b) -> bool:
    return weak_a.probs.tobytes() == weak_b.probs.tobytes()


class TestDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_byte_identical_across_worker_counts(
        self, profile_path, images, baseline, workers
    ):
        """Acceptance: pool output equals single-process predict for
        N ∈ {1, 2, 4}, with max_batch small enough to force splitting."""
        expected = baseline.predict(images)
        with ServingPool(profile_path, workers=workers, max_batch=3,
                         max_wait_ms=0.0) as pool:
            served = pool.predict(images)
        assert same_bytes(served, expected)

    def test_interleaved_single_and_batch_requests(
        self, shared_pool, images, baseline
    ):
        """Acceptance: concurrent clients mixing single-image and batch
        requests each get exactly their own single-process answer, even
        while the dispatcher coalesces and splits across both workers."""
        requests = [
            [images[0]],
            images[:5],
            [images[7]],
            images[3:11],
            [images[2]],
            images[5:8],
            [images[9]],
        ]
        expected = [baseline.predict(list(r)).probs.tobytes()
                    for r in requests]
        results: list[bytes | None] = [None] * len(requests)
        errors: list[BaseException] = []

        def client(i: int) -> None:
            try:
                results[i] = shared_pool.predict(list(requests[i])).probs \
                    .tobytes()
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(len(requests))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert results == expected

    def test_single_image_accepts_bare_array(
        self, shared_pool, images, baseline
    ):
        served = shared_pool.predict(images[3])
        assert len(served) == 1
        assert same_bytes(served, baseline.predict([images[3]]))

    def test_submit_returns_independent_futures(
        self, shared_pool, images, baseline
    ):
        first = shared_pool.submit(images[:6])
        second = shared_pool.submit(images[8])
        assert same_bytes(second.result(60), baseline.predict([images[8]]))
        assert same_bytes(first.result(60), baseline.predict(images[:6]))
        assert first.done() and second.done()


class TestLifecycle:
    def test_health_and_ping(self, shared_pool):
        health = shared_pool.health()
        assert health.ok
        assert len(health.workers) == 2
        assert all(w.alive and w.ready for w in health.workers)
        pids = {w.pid for w in health.workers}
        assert len(pids) == 2
        rtts = shared_pool.ping(timeout=10.0)
        assert set(rtts) == {0, 1}
        assert all(rtt >= 0 for rtt in rtts.values())

    def test_worker_crash_respawns_and_recovers(
        self, profile_path, images, baseline
    ):
        expected = baseline.predict(images[:6])
        with ServingPool(profile_path, workers=1, max_batch=4,
                         max_wait_ms=0.0, max_respawns=2) as pool:
            assert same_bytes(pool.predict(images[:6]), expected)
            pool._workers[0].process.kill()
            served = pool.predict(images[:6], timeout=120)
            assert same_bytes(served, expected)
            health = pool.health()
            assert health.respawns_left == 1
            assert health.ok

    def test_crash_respawn_resubmits_leased_tasks(
        self, profile_path, baseline
    ):
        """Kill the worker with tasks in flight: the replacement is sent
        the same image lists and the answer stays byte-identical."""
        rng = np.random.default_rng(7)
        frames = [rng.random((120, 120)) for _ in range(8)]
        expected = baseline.predict(frames).probs.tobytes()
        with ServingPool(profile_path, workers=1, max_batch=2,
                         max_wait_ms=0.0, max_respawns=2) as pool:
            pending = pool.submit(frames)
            deadline = time.monotonic() + 30
            while not pool.health().workers[0].outstanding_tasks:
                assert time.monotonic() < deadline, "nothing dispatched"
                time.sleep(0.001)
            assert not pending.done()  # the kill lands on in-flight tasks
            pool._workers[0].process.kill()
            served = pending.result(timeout=120).probs.tobytes()
            assert served == expected

    def test_terminal_failure_reclaims_leases(self, profile_path, images):
        """Killed with tasks in flight and no respawn budget: the request
        fails loudly and the pool refuses new work."""
        rng = np.random.default_rng(8)
        frames = [rng.random((120, 120)) for _ in range(8)]
        pool = ServingPool(profile_path, workers=1, max_batch=2,
                           max_wait_ms=0.0, max_respawns=0)
        try:
            pending = pool.submit(frames)
            pool._workers[0].process.kill()
            with pytest.raises(ServingError):
                pending.result(timeout=120)
            with pytest.raises(ServingError):
                pool.submit(images[:1])
        finally:
            pool.shutdown(drain=False)

    def test_respawn_budget_exhaustion_fails_loudly(
        self, profile_path, images
    ):
        with ServingPool(profile_path, workers=1, max_batch=4,
                         max_wait_ms=0.0, max_respawns=0) as pool:
            pool._workers[0].process.kill()
            with pytest.raises(ServingError, match="respawn budget"):
                pool.predict(images[:3], timeout=60)
            # The pool is now failed state: it refuses instead of hanging.
            with pytest.raises(ServingError):
                pool.submit(images[:1])
            assert pool.health().failure is not None

    def test_drain_then_shutdown(self, profile_path, images, baseline):
        pool = ServingPool(profile_path, workers=1, max_batch=2,
                           max_wait_ms=0.0)
        pending = pool.submit(images[:4])
        assert pool.drain(timeout=60)
        assert same_bytes(pending.result(1), baseline.predict(images[:4]))
        with pytest.raises(ServingError, match="not accepting"):
            pool.submit(images[:1])
        pool.shutdown()
        pool.shutdown()  # idempotent
        with pytest.raises(ServingError, match="shut down"):
            pool.submit(images[:1])

    def test_startup_failure_is_actionable(self, tmp_path):
        bogus = tmp_path / "not-a-profile.igz"
        bogus.write_bytes(b"junk")
        # The parent-side load fails before any process is spawned, with
        # the ProfileError hierarchy (ValueError-compatible).
        with pytest.raises(ValueError, match="InspectorGadget save file"):
            ServingPool(bogus, workers=1)


class TestRequestValidation:
    def test_rejects_empty_request(self, shared_pool):
        with pytest.raises(ValueError, match="no images"):
            shared_pool.predict([])

    def test_rejects_non_2d_images(self, shared_pool, images):
        with pytest.raises(ValueError, match="2-D"):
            shared_pool.predict([np.stack([images[0]] * 2)])

    def test_rejects_non_numeric_images_at_the_boundary(self, shared_pool):
        """A non-numeric array must fail its own submit — were it to reach
        a worker, its task error would fail unrelated requests coalesced
        into the same micro-batch."""
        bogus = np.array([["a", "b"], ["c", "d"]], dtype=object)
        with pytest.raises(ValueError, match="numeric"):
            shared_pool.predict([bogus])


class TestServingConfigValidation:
    """Serving knobs fail at construction, not deep in the pool."""

    @pytest.mark.parametrize("bad", [
        {"workers": 0},
        {"workers": -1},
        {"max_batch": 0},
        {"max_wait_ms": -0.1},
        {"max_respawns": -1},
        {"start_method": "thread"},
        {"start_timeout_s": 0},
        {"request_timeout_s": 0},
        {"warmup_shapes": ((0, 5),)},
        {"warmup_shapes": ((4, 4, 4),)},
    ])
    def test_invalid_values_raise(self, bad):
        with pytest.raises(ValueError):
            ServingConfig(**bad)

    def test_defaults_valid(self):
        config = ServingConfig()
        assert config.workers >= 1

    def test_pool_overrides_are_validated(self, profile_path):
        with pytest.raises(ValueError, match="workers"):
            ServingPool(profile_path, workers=0)


class TestWarmupPlans:
    def test_warmup_counts_and_freezes(self, profile_path, images, baseline):
        ig = InspectorGadget.load(profile_path)
        shape = images[0].shape
        assert ig.warmup([shape]) == 1
        engine = ig.feature_generator.engine
        assert engine.cache_plans
        assert engine.cached_plan_count() == 1
        # Shared state is enforced read-only after planning.
        pattern = ig.feature_generator.patterns[0].array
        with pytest.raises(ValueError):
            pattern[0, 0] = 0.0
        # Warmed serving still predicts byte-identically.
        assert same_bytes(ig.predict(images[:5]),
                          baseline.predict(images[:5]))

    def test_plan_cache_is_bounded(self, profile_path):
        """A long-running worker fed varied shapes keeps at most
        ``plan_cache_size`` plans (LRU), never unbounded memory."""
        ig = InspectorGadget.load(profile_path)
        engine = ig.feature_generator.engine
        engine.cache_plans = True
        engine.plan_cache_size = 2
        for side in (20, 24, 28):
            ig.predict([np.full((side, side), 0.5)])
        assert engine.cached_plan_count() == 2
        # The most recent shapes survive; the oldest was evicted.
        assert set(engine._plan_cache) == {(24, 24), (28, 28)}

    def test_warmed_shapes_never_evict_each_other(self, profile_path):
        """Warming more shapes than ``plan_cache_size`` grows the cap:
        every warmed shape keeps its no-planning-cost promise."""
        ig = InspectorGadget.load(profile_path)
        engine = ig.feature_generator.engine
        engine.plan_cache_size = 2
        shapes = [(s, s) for s in (20, 24, 28, 32)]
        assert ig.warmup(shapes) == 4
        assert set(engine._plan_cache) == set(shapes)

    def test_plans_cached_across_calls_only_when_enabled(self, profile_path,
                                                         images):
        cold = InspectorGadget.load(profile_path)
        cold.predict(images[:2])
        assert cold.feature_generator.engine.cached_plan_count() == 0
        warm = InspectorGadget.load(profile_path)
        warm.feature_generator.engine.cache_plans = True
        warm.predict(images[:2])
        warm.predict(images[2:4])
        assert warm.feature_generator.engine.cached_plan_count() == 1


class TestCLI:
    def _write_npys(self, tmp_path, images, n=3):
        paths = []
        for i in range(n):
            path = tmp_path / f"img{i}.npy"
            np.save(path, images[i])
            paths.append(str(path))
        return paths

    def test_images_mode_writes_output(self, profile_path, images, baseline,
                                       tmp_path):
        paths = self._write_npys(tmp_path, images)
        out_npz = tmp_path / "weak.npz"
        stdout = io.StringIO()
        code = cli_main([
            "--profile", str(profile_path), "--workers", "1",
            "--max-wait-ms", "0", "--quiet",
            "--images", *paths, "--output", str(out_npz),
        ], stdout=stdout)
        assert code == 0
        lines = stdout.getvalue().strip().splitlines()
        assert len(lines) == len(paths)
        expected = baseline.predict([images[i] for i in range(len(paths))])
        for line, label in zip(lines, expected.labels):
            path, got_label, confidence = line.split("\t")
            assert int(got_label) == int(label)
            assert 0.0 <= float(confidence) <= 1.0
        saved = np.load(out_npz)
        assert saved["probs"].tobytes() == expected.probs.tobytes()

    def test_stdin_daemon_mode(self, profile_path, images, baseline,
                               tmp_path, monkeypatch):
        paths = self._write_npys(tmp_path, images, n=2)
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(paths) + "\n"))
        stdout = io.StringIO()
        code = cli_main([
            "--profile", str(profile_path), "--workers", "1",
            "--max-wait-ms", "0", "--quiet", "--stdin",
        ], stdout=stdout)
        assert code == 0
        responses = [json.loads(line)
                     for line in stdout.getvalue().strip().splitlines()]
        assert [r["path"] for r in responses] == paths
        for i, response in enumerate(responses):
            expected = baseline.predict([images[i]])
            assert response["label"] == int(expected.labels[0])
            np.testing.assert_allclose(response["probs"],
                                       expected.probs[0], atol=1e-12)

    def test_bad_profile_exits_2(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.igz"
        bogus.write_bytes(b"not a profile")
        assert cli_main(["--profile", str(bogus),
                         "--images", "x.npy"]) == 2
        assert "InspectorGadget save file" in capsys.readouterr().err

    def test_missing_profile_exits_2(self, tmp_path):
        assert cli_main(["--profile", str(tmp_path / "absent.igz"),
                         "--images", "x.npy"]) == 2

    def test_invalid_serving_flags_exit_2(self, profile_path, capsys):
        assert cli_main(["--profile", str(profile_path),
                         "--workers", "0", "--images", "x.npy"]) == 2
        assert "invalid serving option" in capsys.readouterr().err
        assert cli_main(["--profile", str(profile_path),
                         "--max-wait-ms", "-1", "--images", "x.npy"]) == 2


def test_micro_batching_coalesces(profile_path, images, baseline):
    """A burst of single-image requests crosses IPC as few tasks, and every
    response still matches its own single-process answer."""
    with ServingPool(profile_path, workers=1, max_batch=8,
                     max_wait_ms=50.0) as pool:
        futures = [pool.submit(images[i]) for i in range(6)]
        for i, future in enumerate(futures):
            assert same_bytes(future.result(60),
                              baseline.predict([images[i]]))
        # 6 singles arriving within the 50 ms window should have been
        # coalesced well below 6 tasks (1 when the burst beats the window).
        tasks_done = sum(w.tasks_done for w in pool.health().workers)
        assert tasks_done < 6
