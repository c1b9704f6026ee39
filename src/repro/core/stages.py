"""The staged pipeline: Figure 3's dataflow as explicit, cacheable stages.

The paper presents Inspector Gadget as a chain of components —
crowdsourcing → pattern augmentation → feature generation → labeler tuning —
and this module makes that chain a first-class object.  Each :class:`Stage`
declares the artifacts it consumes (``requires``) and produces
(``provides``) and knows which slice of :class:`InspectorGadgetConfig`
determines its output.  :class:`PipelineRunner` executes the chain in order,
addressing every stage's output in an :class:`~repro.core.artifacts.ArtifactStore`
by a fingerprint of (stage config, upstream chain, injected inputs), so an
unchanged prefix of the pipeline is loaded from disk instead of recomputed.

Determinism across cache hits
-----------------------------
The whole pipeline threads **one** RNG stream through its stages (crowd
sampling, policy search, GAN training, labeler init all draw from it in
sequence), so skipping a stage would normally desynchronize every stage
after it.  The runner therefore snapshots the generator state *after* each
executed stage and stores it with the artifact; a cache hit restores both
the outputs and the stream position.  A warm run is byte-identical to the
cold run it replays — the property the determinism and save/load tests pin
down — and numerics are unchanged from the pre-staged monolithic ``fit``.

Stage fingerprints chain linearly (each includes its predecessor's) rather
than following the artifact DAG: with a shared RNG stream, a stage's output
legitimately depends on everything executed before it, whether or not it
reads those artifacts.  Execution knobs that provably do not change results
(``n_jobs``, ``predict_batch_size``, ``cache_dir``) stay out of every
fingerprint, so a sweep may vary them and still share artifacts.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

import numpy as np

from repro.augment.augmenter import PatternAugmenter
from repro.core.artifacts import ArtifactStore, fingerprint
from repro.core.config import InspectorGadgetConfig
from repro.crowd.workflow import CrowdsourcingWorkflow
from repro.features.generator import FeatureGenerator
from repro.labeler.mlp import MLPLabeler
from repro.labeler.tuning import tune_labeler

__all__ = [
    "PipelineContext",
    "Stage",
    "CrowdStage",
    "AugmentStage",
    "FeatureStage",
    "LabelerStage",
    "StageExecution",
    "PipelineRun",
    "PipelineRunner",
]


@dataclass
class PipelineContext:
    """Mutable state shared by the stages of one pipeline run.

    ``data`` maps artifact names to values; stages read their ``requires``
    from it and the runner merges their outputs back into it.  ``rng`` is
    the single stream every stochastic stage draws from, in order.
    """

    config: InspectorGadgetConfig
    rng: np.random.Generator
    data: dict[str, object] = field(default_factory=dict)

    def require(self, name: str):
        if name not in self.data:
            raise KeyError(
                f"stage input {name!r} missing from pipeline context; "
                f"available: {sorted(self.data)}"
            )
        return self.data[name]


class Stage:
    """One pipeline component with declared inputs, outputs and config.

    Subclasses set ``name`` / ``requires`` / ``provides`` and implement
    :meth:`config_key` (the slice of the config that determines the output —
    the cache is invalidated exactly when it changes) and :meth:`run`
    (compute the output artifacts from the context).
    """

    name: str = "stage"
    requires: tuple[str, ...] = ()
    provides: tuple[str, ...] = ()

    def config_key(self, config: InspectorGadgetConfig):
        raise NotImplementedError

    def run(self, ctx: PipelineContext) -> dict[str, object]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(name={self.name!r}, "
                f"requires={self.requires}, provides={self.provides})")


class CrowdStage(Stage):
    """Simulated crowdsourcing: sample, annotate, combine, review (Figure 4)."""

    name = "crowd"
    requires = ("dataset",)
    provides = ("crowd",)

    def __init__(self, dev_budget: int | None = None):
        self.dev_budget = dev_budget

    def config_key(self, config: InspectorGadgetConfig):
        return (config.workflow, self.dev_budget)

    def run(self, ctx: PipelineContext) -> dict[str, object]:
        dataset = ctx.require("dataset")
        workflow = CrowdsourcingWorkflow(ctx.config.workflow, seed=ctx.rng)
        if self.dev_budget is None:
            crowd = workflow.run(dataset)
        else:
            crowd = workflow.run_fixed(dataset, self.dev_budget)
        if not crowd.patterns:
            raise RuntimeError(
                "crowdsourcing produced no patterns; increase the annotation "
                "budget or check worker noise settings"
            )
        return {"crowd": crowd}


class AugmentStage(Stage):
    """Pattern augmentation: policy search and/or GAN synthesis (Section 4)."""

    name = "augment"
    requires = ("crowd",)
    provides = ("patterns", "policy_result")

    def config_key(self, config: InspectorGadgetConfig):
        # The matcher participates because the policy search scores augmented
        # patterns through it.
        return (config.augment, config.matcher)

    def run(self, ctx: PipelineContext) -> dict[str, object]:
        crowd = ctx.require("crowd")
        augmenter = PatternAugmenter(
            ctx.config.augment, ctx.config.matcher, seed=ctx.rng,
            n_jobs=ctx.config.n_jobs,
        )
        outcome = augmenter.run(crowd.patterns, crowd.dev)
        return {"patterns": outcome.patterns,
                "policy_result": outcome.policy_result}


class FeatureStage(Stage):
    """Feature generation: the dev-set images × patterns NCC matrix (§5.1)."""

    name = "features"
    requires = ("patterns", "crowd")
    provides = ("dev_features",)

    def config_key(self, config: InspectorGadgetConfig):
        return (config.matcher,)

    def run(self, ctx: PipelineContext) -> dict[str, object]:
        crowd = ctx.require("crowd")
        generator = FeatureGenerator(
            ctx.require("patterns"), ctx.config.matcher,
            n_jobs=ctx.config.n_jobs,
        )
        return {"dev_features": generator.transform(crowd.dev)}


class LabelerStage(Stage):
    """Labeler training: architecture search (§5.2) or a single default MLP."""

    name = "labeler"
    requires = ("dev_features", "crowd")
    provides = ("labeler", "tuning", "chosen_architecture", "dev_cv_f1")

    def __init__(self, task: str, n_classes: int):
        self.task = task
        self.n_classes = n_classes

    def config_key(self, config: InspectorGadgetConfig):
        return (
            config.tune, config.tune_max_layers, config.tune_min_per_class,
            config.labeler_max_iter, config.default_hidden,
            self.task, self.n_classes,
        )

    def run(self, ctx: PipelineContext) -> dict[str, object]:
        config = ctx.config
        crowd = ctx.require("crowd")
        dev_features = ctx.require("dev_features")
        dev_labels = crowd.dev.labels
        if config.tune:
            tuning = tune_labeler(
                dev_features.values,
                dev_labels,
                n_classes=self.n_classes,
                task=self.task,
                seed=ctx.rng,
                max_layers=config.tune_max_layers,
                min_per_class=config.tune_min_per_class,
                max_iter=config.labeler_max_iter,
            )
            return {"labeler": tuning.labeler, "tuning": tuning,
                    "chosen_architecture": tuning.best_hidden,
                    "dev_cv_f1": tuning.best_score}
        labeler = MLPLabeler(
            input_dim=dev_features.values.shape[1],
            hidden=config.default_hidden,
            n_classes=self.n_classes,
            seed=ctx.rng,
            max_iter=config.labeler_max_iter,
        )
        labeler.fit(dev_features.values, dev_labels)
        return {"labeler": labeler, "tuning": None,
                "chosen_architecture": config.default_hidden,
                "dev_cv_f1": None}


@dataclass
class StageExecution:
    """How one stage resolved during a run: computed or loaded from cache."""

    name: str
    fingerprint: str
    cached: bool
    duration: float


@dataclass
class PipelineRun:
    """Execution record of one :meth:`PipelineRunner.run`."""

    executions: list[StageExecution] = field(default_factory=list)

    @property
    def executed(self) -> list[str]:
        """Names of stages that actually computed their outputs."""
        return [e.name for e in self.executions if not e.cached]

    @property
    def cached(self) -> list[str]:
        """Names of stages satisfied from the artifact store."""
        return [e.name for e in self.executions if e.cached]

    @property
    def n_executed(self) -> int:
        return len(self.executed)

    @property
    def n_cached(self) -> int:
        return len(self.cached)


def _rng_state(rng: np.random.Generator) -> dict:
    """A detached snapshot of the generator's position in its stream."""
    return copy.deepcopy(rng.bit_generator.state)


class PipelineRunner:
    """Drives a stage chain, consulting the artifact store before each stage.

    ``inputs`` passed to :meth:`run` are externally injected artifacts (the
    dataset for ``fit``, a finished crowd result for ``fit_from_crowd``);
    their content fingerprints seed the chain so a different dataset or
    crowd run can never alias another's cache entries.  The entry RNG state
    is folded in as well: re-fitting on the *same* advanced generator (e.g.
    a second ``fit`` on one ``InspectorGadget`` instance) keys differently
    from a fresh one, preserving the pre-refactor stream semantics.
    """

    def __init__(self, stages: list[Stage], store: ArtifactStore | None = None):
        if not stages:
            raise ValueError("PipelineRunner needs at least one stage")
        self.stages = list(stages)
        self.store = store

    def run(self, ctx: PipelineContext,
            inputs: dict[str, object]) -> PipelineRun:
        ctx.data.update(inputs)
        # Wiring check before any hashing or execution: every stage's
        # requirements must be met by the inputs or a stage *earlier* in
        # the chain (a later provider would still fail at run time).
        available = set(ctx.data)
        for stage in self.stages:
            for name in stage.requires:
                if name not in available:
                    raise ValueError(
                        f"stage {stage.name!r} requires {name!r}, which no "
                        "earlier stage provides and no input supplies"
                    )
            available.update(stage.provides)
        if self.store is not None:
            chain = fingerprint((
                "pipeline-entry",
                _rng_state(ctx.rng),
                sorted((name, fingerprint(value))
                       for name, value in inputs.items()),
            ))
        else:
            # No store: nothing to address, so skip hashing the inputs
            # (which includes every image of the dataset).
            chain = ""
        run = PipelineRun()
        for stage in self.stages:
            if self.store is not None:
                chain = fingerprint(
                    ("stage", stage.name, stage.config_key(ctx.config), chain)
                )
            start = time.perf_counter()
            payload = self.store.load(chain) if self.store is not None else None
            if payload is not None:
                ctx.data.update(payload["outputs"])
                ctx.rng.bit_generator.state = payload["rng_state"]
                cached = True
            else:
                outputs = stage.run(ctx)
                missing = set(stage.provides) - set(outputs)
                if missing:
                    raise RuntimeError(
                        f"stage {stage.name!r} did not provide {sorted(missing)}"
                    )
                ctx.data.update(outputs)
                if self.store is not None:
                    self.store.save(chain, {
                        "outputs": outputs,
                        "rng_state": _rng_state(ctx.rng),
                    })
                cached = False
            run.executions.append(StageExecution(
                name=stage.name,
                fingerprint=chain,
                cached=cached,
                duration=time.perf_counter() - start,
            ))
        return run
