"""Tests for the staged pipeline: artifact cache, save/load, serving path.

Pins the refactor's core guarantees: (1) a re-run of ``fit`` with an
unchanged config loads every stage from the artifact store (asserted via the
stage-execution counters) and is byte-identical to the cold run; (2) a
``save``/``load`` round-trip predicts byte-identically; (3) fits are
deterministic given a seed even with no cache at all.
"""

from __future__ import annotations

import dataclasses
import os
import pickle

import numpy as np
import pytest

from repro.augment import AugmentConfig, PolicySearchConfig, RGANConfig
from repro.core import (
    ArtifactStore,
    InspectorGadget,
    InspectorGadgetConfig,
    ProfileCorruptError,
    ProfileError,
    ProfileFormatError,
    ProfileVersionError,
    fingerprint,
)
from repro.core.pipeline import _MAGIC
from repro.crowd import WorkflowConfig
from repro.imaging.pyramid import PyramidMatcher

ALL_STAGES = ["crowd", "augment", "features", "labeler"]
FROM_CROWD_STAGES = ["augment", "features", "labeler"]


def _fast_config(seed=0, mode="none", tune=False, cache_dir=None, **overrides):
    return InspectorGadgetConfig(
        workflow=WorkflowConfig(target_defective=4),
        augment=AugmentConfig(
            mode=mode, n_policy=3, n_gan=3,
            policy_search=PolicySearchConfig(max_combos=1,
                                             per_pattern_augment=1,
                                             labeler_max_iter=15,
                                             n_magnitudes=2),
            rgan=RGANConfig(epochs=3, z_dim=8, hidden=(16,), side_cap=8),
        ),
        tune=tune,
        labeler_max_iter=40,
        seed=seed,
        cache_dir=cache_dir,
        **overrides,
    )


class TestFingerprint:
    def test_stable_across_calls(self):
        config = _fast_config()
        assert fingerprint(config) == fingerprint(config)
        assert fingerprint(_fast_config()) == fingerprint(_fast_config())

    def test_sensitive_to_dataclass_fields(self):
        assert fingerprint(_fast_config(seed=0)) != fingerprint(_fast_config(seed=1))
        assert (fingerprint(PyramidMatcher(factor=4))
                != fingerprint(PyramidMatcher(factor=2)))

    def test_sensitive_to_array_content(self, rng):
        a = rng.random((5, 7))
        b = a.copy()
        assert fingerprint(a) == fingerprint(b)
        b[0, 0] += 1e-12
        assert fingerprint(a) != fingerprint(b)

    def test_type_tags_prevent_collisions(self):
        assert fingerprint(1) != fingerprint("1")
        assert fingerprint(1) != fingerprint(True)
        assert fingerprint(1.0) != fingerprint(1)
        assert fingerprint([["a"], []]) != fingerprint([[], ["a"]])
        assert fingerprint((1, 2)) != fingerprint([1, 2])

    def test_dicts_are_order_insensitive(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_rejects_unsupported_types(self):
        with pytest.raises(TypeError, match="cannot fingerprint"):
            fingerprint(object())

    def test_rejects_object_dtype_arrays(self):
        # Object arrays would hash memory addresses, not content.
        with pytest.raises(TypeError, match="object-dtype"):
            fingerprint(np.array(["a", "b"], dtype=object))

    def test_named_functions_hash_lambdas_refuse(self):
        # Routines hash by module-qualified name; lambdas have none, and
        # hashing them would let edited bodies alias stale cache entries.
        assert fingerprint(fingerprint) == fingerprint(fingerprint)
        with pytest.raises(TypeError, match="lambda"):
            fingerprint(lambda x: x)


class TestArtifactStore:
    def test_round_trip_and_counters(self, tmp_path, rng):
        store = ArtifactStore(tmp_path / "cache")
        payload = {"values": rng.random((3, 4)), "label": "x"}
        assert store.load("k" * 64) is None
        assert store.misses == 1
        store.save("k" * 64, payload)
        loaded = store.load("k" * 64)
        assert store.hits == 1
        np.testing.assert_array_equal(loaded["values"], payload["values"])
        assert len(store) == 1
        assert store.clear() == 1
        assert len(store) == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("a" * 64, {"ok": True})
        store.path("a" * 64).write_bytes(b"not a pickle")
        assert store.load("a" * 64) is None
        assert store.misses == 1


class TestArtifactStoreGC:
    """Size-bounded LRU eviction (``max_bytes``)."""

    def _save_with_mtime(self, store, key, payload, mtime):
        # Pin mtimes explicitly so LRU ordering is deterministic even when
        # several saves land within one filesystem-timestamp granule.
        store.save(key, payload)
        os.utime(store.path(key), (mtime, mtime))

    def test_least_recently_used_entries_are_evicted(self, tmp_path):
        probe = ArtifactStore(tmp_path / "probe")
        probe.save("p" * 64, {"blob": b"x" * 1000})
        entry_size = probe.path("p" * 64).stat().st_size

        store = ArtifactStore(tmp_path / "gc", max_bytes=3 * entry_size)
        for i, key in enumerate(["a" * 64, "b" * 64, "c" * 64]):
            self._save_with_mtime(store, key, {"blob": b"x" * 1000},
                                  mtime=1000.0 + i)
        assert len(store) == 3
        # Touch "a": a load marks recency, so "b" becomes the LRU entry.
        assert store.load("a" * 64) is not None
        store.save("d" * 64, {"blob": b"x" * 1000})
        assert store.evictions == 1
        assert store.total_bytes() <= store.max_bytes
        assert store.load("b" * 64) is None  # evicted (LRU)
        # Warm loads of the survivors still work.
        assert store.load("a" * 64) is not None
        assert store.load("c" * 64) is not None
        assert store.load("d" * 64) is not None

    def test_just_written_artifact_survives_even_oversized(self, tmp_path):
        store = ArtifactStore(tmp_path, max_bytes=1)
        store.save("a" * 64, {"blob": b"x" * 5000})
        assert store.total_bytes() > store.max_bytes  # kept regardless
        assert store.load("a" * 64) is not None
        # The next save evicts the previous entry, never itself.
        store.save("b" * 64, {"blob": b"y" * 5000})
        assert store.load("b" * 64) is not None
        assert store.load("a" * 64) is None
        assert store.evictions == 1

    def test_unbounded_store_never_evicts(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for i in range(5):
            store.save(str(i) * 64, {"blob": b"x" * 2000})
        assert len(store) == 5
        assert store.evictions == 0

    def test_max_bytes_validated(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            ArtifactStore(tmp_path, max_bytes=0)
        with pytest.raises(ValueError, match="cache_max_bytes"):
            InspectorGadgetConfig(cache_max_bytes=0)

    def test_config_plumbs_budget_into_pipeline_store(self, tmp_path):
        ig = InspectorGadget(_fast_config(cache_dir=str(tmp_path),
                                          cache_max_bytes=12345))
        assert ig.store.max_bytes == 12345

    def test_evicted_stages_recompute_cleanly(self, tiny_ksdd, tmp_path):
        """A budget too small to retain anything degrades to recomputation
        with identical results — never to an error."""
        config = _fast_config(cache_dir=str(tmp_path), cache_max_bytes=1)
        cold = InspectorGadget(config)
        cold_report = cold.fit(tiny_ksdd)
        warm = InspectorGadget(config)
        warm_report = warm.fit(tiny_ksdd)
        # Each save immediately evicts older artifacts, so the warm fit
        # re-executes evicted stages rather than loading them — and lands
        # on the same result.
        assert warm.last_run.n_executed > 0
        assert dataclasses.asdict(warm_report) == dataclasses.asdict(cold_report)


class TestStagedFit:
    def test_cold_run_executes_every_stage(self, tiny_ksdd, tmp_path):
        ig = InspectorGadget(_fast_config(cache_dir=str(tmp_path / "c")))
        ig.fit(tiny_ksdd)
        assert ig.last_run.executed == ALL_STAGES
        assert ig.last_run.cached == []

    def test_warm_rerun_skips_every_cached_stage(self, tiny_ksdd, tmp_path):
        """Acceptance: unchanged config → every stage loads from the store,
        and the warm run is byte-identical to the cold run."""
        cache = str(tmp_path / "c")
        cold = InspectorGadget(_fast_config(cache_dir=cache))
        cold_report = cold.fit(tiny_ksdd)
        cold_probs = cold.predict(tiny_ksdd.subset([0, 1, 2, 3])).probs

        warm = InspectorGadget(_fast_config(cache_dir=cache))
        warm_report = warm.fit(tiny_ksdd)
        assert warm.last_run.executed == []
        assert warm.last_run.cached == ALL_STAGES
        assert warm_report == cold_report
        warm_probs = warm.predict(tiny_ksdd.subset([0, 1, 2, 3])).probs
        assert warm_probs.tobytes() == cold_probs.tobytes()

    def test_config_change_invalidates_downstream_only(self, tiny_ksdd, tmp_path):
        cache = str(tmp_path / "c")
        InspectorGadget(_fast_config(cache_dir=cache)).fit(tiny_ksdd)
        changed = InspectorGadget(_fast_config(mode="gan", cache_dir=cache))
        changed.fit(tiny_ksdd)
        # The crowd stage precedes the changed augment config: still cached.
        assert changed.last_run.cached == ["crowd"]
        assert changed.last_run.executed == ["augment", "features", "labeler"]

    def test_different_dataset_misses(self, tiny_ksdd, tiny_bubble, tmp_path):
        cache = str(tmp_path / "c")
        InspectorGadget(_fast_config(cache_dir=cache)).fit(tiny_ksdd)
        other = InspectorGadget(_fast_config(cache_dir=cache))
        other.fit(tiny_bubble)
        assert other.last_run.cached == []

    def test_execution_knobs_share_artifacts(self, tiny_ksdd, tmp_path):
        """n_jobs / predict_batch_size never affect results, so they must
        not partition the cache."""
        cache = str(tmp_path / "c")
        InspectorGadget(_fast_config(cache_dir=cache)).fit(tiny_ksdd)
        tweaked = InspectorGadget(
            _fast_config(cache_dir=cache, n_jobs=2, predict_batch_size=2))
        tweaked.fit(tiny_ksdd)
        assert tweaked.last_run.cached == ALL_STAGES

    def test_fit_from_crowd_uses_cache(self, ksdd_crowd, tmp_path):
        cache = str(tmp_path / "c")
        first = InspectorGadget(_fast_config(cache_dir=cache))
        first.fit_from_crowd(ksdd_crowd, task="binary", n_classes=2)
        assert first.last_run.executed == FROM_CROWD_STAGES
        second = InspectorGadget(_fast_config(cache_dir=cache))
        second.fit_from_crowd(ksdd_crowd, task="binary", n_classes=2)
        assert second.last_run.cached == FROM_CROWD_STAGES

    def test_misordered_chain_fails_upfront(self, ksdd_crowd):
        """A stage whose requirement is only provided later (or never) is a
        wiring error caught before anything runs."""
        from repro.core import FeatureStage, PipelineContext, PipelineRunner

        runner = PipelineRunner([FeatureStage()])
        ctx = PipelineContext(config=_fast_config(),
                              rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="requires 'patterns'"):
            runner.run(ctx, {"crowd": ksdd_crowd})

    def test_no_cache_dir_always_executes(self, tiny_ksdd):
        ig = InspectorGadget(_fast_config())
        assert ig.store is None
        ig.fit(tiny_ksdd)
        assert ig.last_run.executed == ALL_STAGES
        ig2 = InspectorGadget(_fast_config())
        ig2.fit(tiny_ksdd)
        assert ig2.last_run.executed == ALL_STAGES

    def test_warm_run_restores_full_state(self, tiny_ksdd, tmp_path):
        cache = str(tmp_path / "c")
        config = dict(mode="policy", tune=True, cache_dir=cache,
                      tune_min_per_class=2)
        cold = InspectorGadget(_fast_config(**config))
        cold.fit(tiny_ksdd)
        warm = InspectorGadget(_fast_config(**config))
        warm.fit(tiny_ksdd)
        assert warm.last_run.executed == []
        assert warm.crowd_result.dev_indices == cold.crowd_result.dev_indices
        assert warm.policy_result is not None
        assert warm.tuning is not None
        assert warm.tuning.best_hidden == cold.tuning.best_hidden
        assert warm.tuning.scores == cold.tuning.scores


class TestSaveLoad:
    def test_round_trip_predicts_byte_identically(self, tiny_ksdd, tmp_path):
        """Acceptance: save(path) → load(path) yields byte-identical
        predict output."""
        ig = InspectorGadget(_fast_config(seed=4, mode="gan", tune=True,
                                          tune_min_per_class=2))
        ig.fit(tiny_ksdd)
        subset = tiny_ksdd.subset([0, 1, 2, 3, 4])
        before = ig.predict(subset).probs

        path = ig.save(tmp_path / "profiles" / "ksdd.igz")
        assert path.exists()
        loaded = InspectorGadget.load(path)
        after = loaded.predict(subset).probs
        assert after.tobytes() == before.tobytes()

        # Raw-image serving and the provenance attached to the profile.
        raw = loaded.predict([tiny_ksdd[0].image, tiny_ksdd[1].image])
        assert len(raw) == 2
        assert loaded.tuning.best_hidden == ig.tuning.best_hidden
        assert loaded.last_report == ig.last_report
        assert loaded.serving_fingerprint() == ig.serving_fingerprint()

    def test_load_does_not_reattach_training_cache(self, tiny_ksdd, tmp_path):
        """A profile served on another host must not resurrect the training
        machine's artifact-store path."""
        ig = InspectorGadget(_fast_config(cache_dir=str(tmp_path / "cache")))
        ig.fit(tiny_ksdd)
        loaded = InspectorGadget.load(ig.save(tmp_path / "p.igz"))
        assert loaded.config.cache_dir is None
        assert loaded.store is None

    def test_save_requires_fit(self, tmp_path):
        with pytest.raises(RuntimeError, match="must be fit"):
            InspectorGadget(_fast_config()).save(tmp_path / "x.igz")

    def test_load_rejects_foreign_files(self, tmp_path):
        """Files without the profile header are refused without unpickling;
        truncated profiles get the same clear error."""
        bogus = tmp_path / "bogus.igz"
        with open(bogus, "wb") as fh:
            pickle.dump({"something": "else"}, fh)
        truncated = tmp_path / "truncated.igz"
        truncated.write_bytes(_MAGIC + b"\x80")
        for target in (bogus, truncated):
            with pytest.raises(ValueError, match="InspectorGadget save file"):
                InspectorGadget.load(target)

    def test_load_rejects_future_format(self, tmp_path):
        target = tmp_path / "future.igz"
        with open(target, "wb") as fh:
            fh.write(_MAGIC)
            pickle.dump({"format": 999}, fh)
        with pytest.raises(ValueError, match="unsupported save format"):
            InspectorGadget.load(target)

    def test_load_failure_modes_raise_distinct_errors(self, tmp_path):
        """Each way a profile can be unreadable has its own exception type
        (all ValueError-compatible), so operators can tell "wrong file"
        from "damaged file" from "wrong version" without parsing messages."""
        # Corrupt/missing magic header: not a profile at all.
        bad_magic = tmp_path / "bad_magic.igz"
        bad_magic.write_bytes(b"XX" + _MAGIC[2:] + pickle.dumps({"format": 1}))
        with pytest.raises(ProfileFormatError, match="profile header"):
            InspectorGadget.load(bad_magic)

        # Truncated payload: the header is right but the pickle stream ends
        # mid-way (interrupted copy, disk damage).
        whole = _MAGIC + pickle.dumps({"format": 1, "padding": b"x" * 256})
        truncated = tmp_path / "truncated.igz"
        truncated.write_bytes(whole[: len(_MAGIC) + 40])
        with pytest.raises(ProfileCorruptError, match="truncated or damaged"):
            InspectorGadget.load(truncated)

        # Version mismatch: written by an incompatible save format.
        future = tmp_path / "future.igz"
        future.write_bytes(_MAGIC + pickle.dumps({"format": 999}))
        with pytest.raises(ProfileVersionError, match="unsupported save format"):
            InspectorGadget.load(future)

        # Right header and version but missing payload fields (foreign
        # writer): still a format error, never a bare KeyError.
        hollow = tmp_path / "hollow.igz"
        hollow.write_bytes(_MAGIC + pickle.dumps({"format": 1}))
        with pytest.raises(ProfileFormatError, match="missing field"):
            InspectorGadget.load(hollow)

        # Fields present but mistyped: also a format error, never a bare
        # TypeError escaping the ValueError-compatible hierarchy.
        mistyped = tmp_path / "mistyped.igz"
        mistyped.write_bytes(_MAGIC + pickle.dumps({
            "format": 1, "config": InspectorGadgetConfig(), "task": "binary",
            "n_classes": 2, "patterns": [None], "matcher": None,
            "labeler": None, "tuning": None, "report": None,
        }))
        with pytest.raises(ProfileFormatError, match="mistyped"):
            InspectorGadget.load(mistyped)

        # The hierarchy: every failure is a ProfileError and a ValueError,
        # so pre-existing callers that catch ValueError keep working.
        for target in (bad_magic, truncated, future, hollow, mistyped):
            with pytest.raises(ProfileError):
                InspectorGadget.load(target)
            with pytest.raises(ValueError):
                InspectorGadget.load(target)

    def test_save_is_atomic(self, tiny_ksdd, tmp_path):
        """Re-saving over an existing profile leaves no temp debris and the
        target stays loadable."""
        ig = InspectorGadget(_fast_config(seed=4))
        ig.fit(tiny_ksdd)
        path = ig.save(tmp_path / "profile.igz")
        ig.save(path)
        assert list(tmp_path.iterdir()) == [path]
        InspectorGadget.load(path)


def _resave(source, target, edit):
    """Rewrite the profile at ``source`` into ``target`` after ``edit``
    mutates its unpickled payload in place."""
    raw = source.read_bytes()
    payload = pickle.loads(raw[len(_MAGIC):])
    edit(payload)
    target.write_bytes(_MAGIC + pickle.dumps(payload))
    return target


def _earlier_default(payload):
    """The untuned numpy/float64 entries an earlier version saved with
    every default profile."""
    payload["autotune"] = None
    vars(payload["config"]).update(engine_backend="numpy",
                                   engine_dtype="float64",
                                   engine_autotune=False)


def _earlier_tuned(payload):
    """An earlier version's profile after plan-time FFT tuning."""
    _earlier_default(payload)
    vars(payload["config"])["engine_autotune"] = True
    payload["autotune"] = [[[50, 126], {
        "fft_policy": "pow2", "batch_rows": 4, "timings_ms": {}}]]


class TestEnginePlanProfiles:
    """Every profile runs the numpy/float64 reference plan.  A profile
    saved with tuning decisions or another backend or dtype would give
    other bytes under another fingerprint, so ``load`` refuses it; a
    default profile from an earlier version loads unchanged."""

    def test_earlier_default_profile_loads_unchanged(self, serving_profile,
                                                     tiny_ksdd, tmp_path):
        older = _resave(serving_profile, tmp_path / "older.igz",
                        _earlier_default)
        images = [item.image for item in tiny_ksdd.images[:6]]
        current = InspectorGadget.load(serving_profile)
        loaded = InspectorGadget.load(older)
        assert loaded.serving_fingerprint() \
            == current.serving_fingerprint()
        assert loaded.predict(images).probs.tobytes() \
            == current.predict(images).probs.tobytes()

    def test_tuned_profile_is_refused(self, serving_profile, tmp_path):
        target = _resave(serving_profile, tmp_path / "tuned.igz",
                         _earlier_tuned)
        with pytest.raises(ProfileVersionError, match="autotune"):
            InspectorGadget.load(target)

    def test_float32_profile_is_refused(self, serving_profile, tmp_path):
        def float32(payload):
            _earlier_default(payload)
            vars(payload["config"])["engine_dtype"] = "float32"

        target = _resave(serving_profile, tmp_path / "f32.igz", float32)
        with pytest.raises(ProfileVersionError, match="'float32'"):
            InspectorGadget.load(target)

    def test_cli_exits_2_on_a_refused_profile(self, serving_profile,
                                              tmp_path, capsys):
        from repro.serving.cli import main as cli_main

        target = _resave(serving_profile, tmp_path / "tuned.igz",
                         _earlier_tuned)
        assert cli_main(["--profile", str(target), "--workers", "1",
                         "--images", "x.npy"]) == 2
        assert "reference plan" in capsys.readouterr().err


class TestServingPath:
    def test_batched_predict_is_byte_identical(self, tiny_ksdd):
        ig = InspectorGadget(_fast_config(seed=5))
        ig.fit(tiny_ksdd)
        subset = tiny_ksdd.subset(list(range(9)))
        whole = ig.predict(subset, batch_size=None).probs
        for batch_size in (1, 2, 4, 64):
            chunked = ig.predict(subset, batch_size=batch_size).probs
            assert chunked.tobytes() == whole.tobytes()

    def test_predict_rejects_empty_input(self, tiny_ksdd):
        ig = InspectorGadget(_fast_config(seed=5))
        ig.fit(tiny_ksdd)
        with pytest.raises(ValueError, match="no images"):
            ig.predict([])
        with pytest.raises(ValueError, match="no images"):
            ig.predict(tiny_ksdd.subset([]))

    def test_transform_images_rejects_empty_input(self, toy_patterns):
        from repro.features.generator import FeatureGenerator

        fg = FeatureGenerator(toy_patterns)
        with pytest.raises(ValueError, match="empty image list"):
            fg.transform_images([])
        with pytest.raises(ValueError, match="batch_size"):
            fg.transform_images([np.zeros((16, 16))], batch_size=0)

    def test_config_validates_predict_batch_size(self):
        with pytest.raises(ValueError, match="predict_batch_size"):
            InspectorGadgetConfig(predict_batch_size=0)


class TestDeterminism:
    def test_same_seed_fits_are_byte_identical(self, tiny_ksdd):
        """Two fits with the same seed: identical FitReport fields and
        byte-identical predictions, with no cache involved."""

        def run():
            ig = InspectorGadget(_fast_config(seed=11))
            report = ig.fit(tiny_ksdd)
            return report, ig.predict(tiny_ksdd.subset([0, 1, 2, 3])).probs

        report_a, probs_a = run()
        report_b, probs_b = run()
        assert dataclasses.asdict(report_a) == dataclasses.asdict(report_b)
        assert probs_a.tobytes() == probs_b.tobytes()
