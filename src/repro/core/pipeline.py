"""The Inspector Gadget pipeline: fit on an image pool, emit weak labels.

``fit`` drives the staged pipeline of :mod:`repro.core.stages` —
crowd → augment → features → labeler, mirroring Figure 3 — through a
:class:`PipelineRunner`.  With ``config.cache_dir`` set, each stage's output
is fingerprinted and persisted, so repeated fits (ablation sweeps, warm
restarts) reuse every stage whose configuration and upstream inputs are
unchanged; ``last_run`` records which stages executed vs loaded.

A fitted system can be persisted with :meth:`InspectorGadget.save` and
restored with :meth:`InspectorGadget.load`: patterns, matcher config,
labeler weights and the tuning summary round-trip to one file, and the
restored pipeline's :meth:`predict` output is byte-identical to the
original's — the train-once/serve-many split of the serving path.
"""

from __future__ import annotations

import pickle
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from repro.augment.policy_search import PolicySearchResult
from repro.core.artifacts import ArtifactStore, atomic_write, fingerprint
from repro.core.config import InspectorGadgetConfig
from repro.core.stages import (
    AugmentStage,
    CrowdStage,
    FeatureStage,
    LabelerStage,
    PipelineContext,
    PipelineRun,
    PipelineRunner,
    Stage,
)
from repro.crowd.workflow import CrowdResult
from repro.datasets.base import Dataset
from repro.features.generator import FeatureGenerator
from repro.labeler.mlp import MLPLabeler
from repro.labeler.tuning import TuningResult
from repro.labeler.weak_labels import WeakLabels
from repro.patterns import Pattern
from repro.utils.rng import as_rng

__all__ = [
    "InspectorGadget",
    "FitReport",
    "ProfileError",
    "ProfileFormatError",
    "ProfileCorruptError",
    "ProfileVersionError",
]

# Bumped when the save() payload layout changes incompatibly.
_SAVE_FORMAT = 1
# Every entry save() writes and load() reads.
_PAYLOAD_KEYS = frozenset({"format", "config", "task", "n_classes", "matcher",
                           "patterns", "labeler", "tuning", "report"})
# Leading bytes of every profile file, checked by load() before unpickling
# so arbitrary files are rejected without executing their pickle stream.
_MAGIC = b"repro-ig-profile\x00"


class ProfileError(ValueError):
    """A saved profile could not be loaded.

    Subclasses distinguish the failure modes :meth:`InspectorGadget.load`
    can hit, so callers (the serving CLI, a fleet supervisor) can react
    differently to "this is not a profile at all" vs "this profile is
    damaged" vs "this profile needs a different code version".  All are
    ``ValueError`` subclasses for backward compatibility.
    """


class ProfileFormatError(ProfileError):
    """The file is not an InspectorGadget profile (bad magic / layout)."""


class ProfileCorruptError(ProfileError):
    """The file has a profile header but its payload is unreadable
    (truncated write, disk damage, or classes missing after a refactor)."""


class ProfileVersionError(ProfileError):
    """The profile was written by an incompatible save-format version, or
    under an engine plan other than the numpy/float64 reference."""


@dataclass
class FitReport:
    """What happened during :meth:`InspectorGadget.fit`."""

    dev_size: int
    dev_defective: int
    n_crowd_patterns: int
    n_total_patterns: int
    chosen_architecture: tuple[int, ...]
    dev_cv_f1: float | None


class InspectorGadget:
    """End-to-end weak labeling system (Figure 3).

    Typical use::

        ig = InspectorGadget(config)
        report = ig.fit(dataset)        # crowdsource + augment + train labeler
        weak = ig.predict(unlabeled)    # WeakLabels for new images
        ig.save("profile.igz")          # persist the fitted system ...
        ig2 = InspectorGadget.load("profile.igz")   # ... serve it elsewhere

    After fitting, only the feature generator (patterns) and labeler are
    needed for labeling — matching the components highlighted in the paper's
    architecture figure, and exactly what ``save``/``load`` round-trips.

    ``store`` overrides the artifact store built from ``config.cache_dir``
    (useful for sharing one store across pipelines in a sweep).
    """

    def __init__(self, config: InspectorGadgetConfig | None = None,
                 store: ArtifactStore | None = None):
        self.config = config or InspectorGadgetConfig()
        self._rng = as_rng(self.config.seed)
        if store is None and self.config.cache_dir is not None:
            store = ArtifactStore(self.config.cache_dir,
                                  max_bytes=self.config.cache_max_bytes)
        self.store = store
        self.crowd_result: CrowdResult | None = None
        self.feature_generator: FeatureGenerator | None = None
        self.labeler: MLPLabeler | None = None
        self.tuning: TuningResult | None = None
        self.policy_result: PolicySearchResult | None = None
        self.last_run: PipelineRun | None = None
        self.last_report: FitReport | None = None
        self._n_classes: int | None = None
        self._task: str | None = None

    # -- fitting -------------------------------------------------------------

    def fit(self, dataset: Dataset, dev_budget: int | None = None) -> FitReport:
        """Run the full staged pipeline on ``dataset``.

        ``dev_budget`` switches the crowd workflow from "annotate until the
        defective target is met" to "annotate exactly this many images"
        (the controlled variable in Figure 9's sweeps).
        """
        stages: list[Stage] = [
            CrowdStage(dev_budget),
            AugmentStage(),
            FeatureStage(),
            LabelerStage(dataset.task, dataset.n_classes),
        ]
        return self._run(stages, {"dataset": dataset},
                         task=dataset.task, n_classes=dataset.n_classes)

    def fit_from_crowd(
        self, crowd: CrowdResult, task: str, n_classes: int
    ) -> FitReport:
        """Fit augmentation, features and labeler from a finished crowd run.

        Split out so ablation experiments can reuse one crowd result across
        several augmentation/labeler settings without re-annotating; with a
        ``cache_dir`` the artifact store does the same reuse automatically.
        """
        stages: list[Stage] = [
            AugmentStage(),
            FeatureStage(),
            LabelerStage(task, n_classes),
        ]
        return self._run(stages, {"crowd": crowd},
                         task=task, n_classes=n_classes)

    def _run(self, stages: list[Stage], inputs: dict[str, object],
             task: str, n_classes: int) -> FitReport:
        """Execute a stage chain and adopt its artifacts as fitted state."""
        ctx = PipelineContext(config=self.config, rng=self._rng)
        runner = PipelineRunner(stages, store=self.store)
        self.last_run = runner.run(ctx, inputs)

        crowd: CrowdResult = ctx.data["crowd"]
        patterns: list[Pattern] = ctx.data["patterns"]
        self.crowd_result = crowd
        self.policy_result = ctx.data["policy_result"]
        self.tuning = ctx.data["tuning"]
        self.labeler = ctx.data["labeler"]
        self._task = task
        self._n_classes = n_classes
        # Rebuilt rather than cached: construction is cheap, deterministic
        # and RNG-free, and the engine holds no fitted state of its own.
        self.feature_generator = FeatureGenerator(
            patterns, self.config.matcher, n_jobs=self.config.n_jobs,
        )
        self.last_report = FitReport(
            dev_size=len(crowd.dev),
            dev_defective=crowd.dev.n_defective,
            n_crowd_patterns=len(crowd.patterns),
            n_total_patterns=len(patterns),
            chosen_architecture=ctx.data["chosen_architecture"],
            dev_cv_f1=ctx.data["dev_cv_f1"],
        )
        return self.last_report

    # -- inference -----------------------------------------------------------

    def _require_fitted(self) -> None:
        if self.feature_generator is None or self.labeler is None:
            raise RuntimeError("InspectorGadget must be fit before predicting")

    def predict(self, data: Dataset | list[np.ndarray],
                batch_size: int | None = None) -> WeakLabels:
        """Weak labels for a dataset or a list of raw images.

        Images stream through the match engine in chunks of ``batch_size``
        (default ``config.predict_batch_size``), bounding serving memory for
        arbitrarily large batches; chunking never changes the output.
        """
        self._require_fitted()
        if len(data) == 0:
            raise ValueError(
                "predict received no images; pass a non-empty dataset or a "
                "non-empty list of 2-D arrays"
            )
        if batch_size is None:
            batch_size = self.config.predict_batch_size
        if isinstance(data, Dataset):
            features = self.feature_generator.transform(
                data, batch_size=batch_size
            )
        else:
            features = self.feature_generator.transform_images(
                list(data), batch_size=batch_size
            )
        probs = self.labeler.predict_proba(features.values)
        return WeakLabels(probs=probs)

    def predict_features(self, features: np.ndarray) -> WeakLabels:
        """Weak labels from precomputed FGF features (sweep fast path)."""
        self._require_fitted()
        return WeakLabels(probs=self.labeler.predict_proba(features))

    def warmup(self, image_shapes) -> int:
        """Precompute and pin the matching plan for each ``(h, w)`` shape.

        Serving workers call this once after :meth:`load`, so the per-shape
        FFT plans (pattern spectra, window tables, pyramid gating) are built
        before the first request instead of on it.  Warmed plans are cached
        on the match engine and their arrays are frozen read-only — the
        engine's shared state cannot be mutated after planning, which is
        what makes fanning requests out across threads or processes safe.
        Plans for shapes not warmed here are still built (and cached) on
        first use.  Returns the number of distinct shapes now cached.
        """
        self._require_fitted()
        for shape in image_shapes:
            self.feature_generator.warm(shape)
        return self.feature_generator.engine.cached_plan_count()

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Persist the fitted serving state (patterns + matcher + labeler).

        Only what :meth:`predict` needs is written — the crowd result and
        intermediate artifacts stay in the artifact store, not the profile.
        The file also carries the config, tuning summary and fit report for
        provenance.  Returns the written path.
        """
        self._require_fitted()
        payload = {
            "format": _SAVE_FORMAT,
            "config": self.config,
            "task": self._task,
            "n_classes": self._n_classes,
            "matcher": self.feature_generator.matcher,
            "patterns": [
                {"array": p.array, "label": p.label,
                 "provenance": p.provenance, "source_image": p.source_image}
                for p in self.feature_generator.patterns
            ],
            "labeler": self.labeler.to_payload(),
            "tuning": None if self.tuning is None else self.tuning.to_payload(),
            "report": None if self.last_report is None
                      else asdict(self.last_report),
        }
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)

        def write(fh) -> None:
            fh.write(_MAGIC)
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)

        # Atomic: an interrupted save never clobbers a good profile that
        # serving workers may be loading.
        return atomic_write(target, write)

    @classmethod
    def load(cls, path: str | Path) -> "InspectorGadget":
        """Restore a pipeline saved with :meth:`save`.

        The restored pipeline predicts byte-identically to the one that was
        saved; it can also be re-``fit``, which simply replaces the loaded
        state.

        Files without the profile header are rejected before any
        deserialization, but the payload itself is a pickle — only load
        profiles from sources you trust.

        Failure modes are distinct :class:`ProfileError` subclasses:
        :class:`ProfileFormatError` (not a profile at all — check the
        path), :class:`ProfileCorruptError` (truncated or damaged payload
        — re-run ``save``), :class:`ProfileVersionError` (written by an
        incompatible version, or under an engine plan other than the
        numpy/float64 reference — re-fit and save with this code, or load
        with the version that wrote it).

        The training run's ``cache_dir`` is not reattached (a profile may
        be served on a host where that path means nothing); pass a config
        or store explicitly when re-fitting a loaded pipeline with caching.
        """
        with open(path, "rb") as fh:
            if fh.read(len(_MAGIC)) != _MAGIC:
                raise ProfileFormatError(
                    f"{path} is not an InspectorGadget save file (missing "
                    "profile header); pass a path written by save()"
                )
            try:
                payload = pickle.load(fh)
            except Exception as exc:
                # A damaged or version-skewed pickle can raise nearly
                # anything (truncation, missing classes, bad state).
                raise ProfileCorruptError(
                    f"{path} is not a readable InspectorGadget save file: "
                    f"its payload is truncated or damaged ({exc}); re-save "
                    "the profile from the fitted pipeline"
                ) from exc
        if not isinstance(payload, dict) or "format" not in payload:
            raise ProfileFormatError(
                f"{path} is not an InspectorGadget save file (unexpected "
                "payload layout); pass a path written by save()"
            )
        if payload["format"] != _SAVE_FORMAT:
            raise ProfileVersionError(
                f"unsupported save format {payload['format']!r} "
                f"(this version reads format {_SAVE_FORMAT}); re-save the "
                "profile with this version or load it with the one that "
                "wrote it"
            )
        _check_reference_plan(path, payload)
        try:
            ig = cls(replace(payload["config"], cache_dir=None))
            ig._task = payload["task"]
            ig._n_classes = payload["n_classes"]
            patterns = [
                Pattern(array=entry["array"], label=entry["label"],
                        provenance=entry["provenance"],
                        source_image=entry["source_image"])
                for entry in payload["patterns"]
            ]
            ig.feature_generator = FeatureGenerator(
                patterns, payload["matcher"], n_jobs=ig.config.n_jobs,
            )
            ig.labeler = MLPLabeler.from_payload(payload["labeler"])
            if payload["tuning"] is not None:
                ig.tuning = TuningResult.from_payload(payload["tuning"],
                                                      labeler=ig.labeler)
            if payload["report"] is not None:
                ig.last_report = FitReport(**payload["report"])
        except (KeyError, TypeError, IndexError, AttributeError) as exc:
            # Right magic, right version, wrong shape (foreign writer or a
            # hand-edited file): missing fields raise KeyError, wrong-typed
            # fields raise TypeError/AttributeError downstream — all of it
            # is a format problem, not a crash.
            raise ProfileFormatError(
                f"{path} is not an InspectorGadget save file (payload has "
                f"a missing field or mistyped value: {exc!r}); pass a "
                "path written by save()"
            ) from exc
        return ig

    def serving_fingerprint(self) -> str:
        """Content fingerprint of the serving state (patterns + labeler).

        Two pipelines with equal fingerprints produce byte-identical
        predictions; useful for cache keys and deployment audits.  Every
        profile runs the same numpy/float64 engine plan, so the plan is no
        input (:meth:`load` refuses a profile saved under any other).
        """
        self._require_fitted()
        return fingerprint((
            "serving",
            self.feature_generator.matcher,
            [p.array for p in self.feature_generator.patterns],
            self.labeler.to_payload(),
        ))


def _check_reference_plan(path, payload: dict) -> None:
    """Refuse a profile saved with engine state this version cannot apply.

    Earlier versions could record plan-time FFT tuning decisions in the
    payload, and an engine backend and working dtype in the config.  Each
    moved scores and entered the serving fingerprint, so serving such a
    profile on this version's numpy/float64 plan would answer different
    bytes under a different fingerprint.  So every payload entry that
    :meth:`InspectorGadget.load` does not read must be ``None``, and every
    attribute of the pickled config that :class:`InspectorGadgetConfig` no
    longer declares must name the reference plan.  A default profile
    passes unchanged.
    """
    declared = {f.name for f in fields(InspectorGadgetConfig)}
    stale = [key for key, value in payload.items()
             if key not in _PAYLOAD_KEYS and value is not None]
    saved_config = getattr(payload.get("config"), "__dict__", {})
    stale += [f"config.{name}={value!r}"
              for name, value in saved_config.items()
              if name not in declared and not _names_reference_plan(value)]
    if stale:
        raise ProfileVersionError(
            f"{path} was saved with engine state this version does not "
            f"apply ({', '.join(sorted(stale))}); this version serves only "
            "the numpy/float64 reference plan — re-fit and save the "
            "profile with this version, or load it with the version that "
            "wrote it"
        )


def _names_reference_plan(value) -> bool:
    """How an earlier config spelled the reference plan: the numpy backend,
    float64, tuning off."""
    return value is None or value is False or (
        isinstance(value, str) and value in ("numpy", "float64")
    )
