"""Shared fixtures: tiny datasets and crowd results sized for fast tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crowd.workflow import CrowdsourcingWorkflow, WorkflowConfig
from repro.datasets.ksdd import KSDDConfig, make_ksdd
from repro.datasets.neu import NEUConfig, make_neu
from repro.datasets.product import ProductConfig, make_product
from repro.patterns import Pattern


@pytest.fixture(scope="session")
def tiny_ksdd():
    """KSDD at minimal scale: 40 images, ~8 defective."""
    return make_ksdd(KSDDConfig(n_images=40, n_defective=8, scale=0.08), seed=11)


@pytest.fixture(scope="session")
def tiny_bubble():
    return make_product(
        ProductConfig(variant="bubble", n_images=30, n_defective=8, scale=0.15),
        seed=7,
    )


@pytest.fixture(scope="session")
def tiny_neu():
    return make_neu(NEUConfig(per_class=4, scale=0.16), seed=5)


@pytest.fixture(scope="session")
def serving_profile_cache(tiny_ksdd, tmp_path_factory):
    """Factory mapping a full ``InspectorGadgetConfig`` to a fitted
    profile on disk, fitting each distinct config at most once per
    session.

    The cache key is the *whole config slice*
    (:func:`repro.core.artifacts.fingerprint` over the dataclass), not
    the fixture name — so any two suites asking for byte-identical
    configs share one fit (fitting even the tiny profile costs
    seconds), while a suite that genuinely varies a fit-relevant knob
    gets its own profile instead of silently reusing the wrong one.
    """
    from repro.core.artifacts import fingerprint
    from repro.core.pipeline import InspectorGadget

    root = tmp_path_factory.mktemp("serving-profile")
    cache: dict[str, object] = {}

    def fit(config):
        key = fingerprint(config)
        if key not in cache:
            ig = InspectorGadget(config)
            ig.fit(tiny_ksdd)
            cache[key] = ig.save(root / f"{key[:16]}.igz")
        return cache[key]

    return fit


@pytest.fixture(scope="session")
def serving_profile(serving_profile_cache):
    """A fitted tiny profile on disk, shared by the serving transport suites.

    Session-scoped, and keyed through :func:`serving_profile_cache` on
    the full config, so every suite spawning pools from this default
    config — HTTP fronts, ingest, fleet — reuses one fit.
    """
    from repro.augment.augmenter import AugmentConfig
    from repro.core.config import InspectorGadgetConfig
    from repro.crowd.workflow import WorkflowConfig as _WorkflowConfig

    config = InspectorGadgetConfig(
        workflow=_WorkflowConfig(target_defective=4),
        augment=AugmentConfig(mode="none"),
        tune=False,
        labeler_max_iter=40,
        seed=0,
    )
    return serving_profile_cache(config)


@pytest.fixture(scope="session")
def ksdd_crowd(tiny_ksdd):
    """A finished crowd run over the tiny KSDD pool."""
    workflow = CrowdsourcingWorkflow(
        WorkflowConfig(n_workers=3, target_defective=5), seed=3
    )
    result = workflow.run(tiny_ksdd)
    assert result.patterns, "fixture must produce patterns"
    return result


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture()
def toy_patterns(rng):
    """A handful of small synthetic patterns with mixed shapes."""
    out = []
    for i, shape in enumerate([(6, 9), (8, 8), (5, 12), (7, 6)]):
        arr = np.clip(rng.normal(0.5, 0.15, shape), 0, 1)
        out.append(Pattern(array=arr, label=1, provenance="crowd", source_image=i))
    return out
