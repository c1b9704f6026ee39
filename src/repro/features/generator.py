"""Batch feature generation: images × patterns similarity matrices.

This module is the bridge between the pattern set (Section 5.1's feature
generation functions) and everything downstream: the labeler, the Snuba and
GOGGLES baseline adapters, and the evaluation harness all consume the
``(n_images, n_patterns)`` :class:`FeatureMatrix` produced here.

Two execution strategies compute the same matrix:

* ``strategy="batched"`` (default) routes the whole matrix through
  :class:`repro.imaging.engine.MatchEngine`, which hoists the per-image FFT
  spectra, per-pattern spectra and per-shape window-energy maps out of the
  ``images × patterns`` loop and can parallelise over images (``n_jobs``).
  This is the hot path: it computes each image's forward FFT once instead of
  once per pattern.
* ``strategy="naive"`` is the original per-cell double loop over
  :class:`FeatureGenerationFunction` callables — one independent
  ``ncc_map``/``pyramid_match`` call per ``(image, pattern)`` pair.  It is
  kept as the reference implementation for the engine-equivalence test
  harness (``tests/test_match_engine.py``) and as an escape hatch.

Both strategies honour the configured :class:`PyramidMatcher` (exact or
pyramid mode, plain or ``zero_mean`` NCC) and the oversized-pattern
shrinking of :class:`FeatureGenerationFunction`, so scores agree to within
FFT round-off (≤ a few ULPs; the harness asserts 1e-6) and results are
deterministic regardless of ``n_jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.base import Dataset
from repro.features.fgf import FeatureGenerationFunction
from repro.imaging.engine import MatchEngine
from repro.imaging.pyramid import PyramidMatcher
from repro.patterns import Pattern

__all__ = ["FeatureGenerator", "FeatureMatrix"]

_STRATEGIES = ("batched", "naive")


@dataclass
class FeatureMatrix:
    """Similarities of ``n`` images against ``p`` patterns, plus provenance.

    ``pattern_labels`` carries each pattern's defect class so downstream
    consumers (e.g. Snuba's class-conditional heuristics) can group columns.
    """

    values: np.ndarray  # (n, p)
    pattern_labels: np.ndarray  # (p,)

    def __post_init__(self) -> None:
        if self.values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {self.values.shape}")
        if self.pattern_labels.shape != (self.values.shape[1],):
            raise ValueError("pattern_labels must have one entry per column")

    @property
    def n_images(self) -> int:
        return self.values.shape[0]

    @property
    def n_patterns(self) -> int:
        return self.values.shape[1]


class FeatureGenerator:
    """Matches a fixed pattern set against image collections.

    The matcher (pyramid by default) is shared across FGFs; pass
    ``PyramidMatcher(enabled=False)`` for exact matching.  ``strategy``
    selects the batched match engine (default) or the naive per-call loop;
    ``n_jobs`` enables thread parallelism over images in the batched path.

    ``backend``/``dtype`` configure the batched engine's transform backend
    and working precision (see :class:`MatchEngine`); the naive strategy
    ignores them — it *is* the float64 reference the tolerance tiers are
    measured against.
    """

    def __init__(
        self,
        patterns: list[Pattern],
        matcher: PyramidMatcher | None = None,
        strategy: str = "batched",
        n_jobs: int = 1,
        cache_plans: bool = False,
        backend: str = "numpy",
        dtype: str = "float64",
    ):
        if not patterns:
            raise ValueError("FeatureGenerator needs at least one pattern")
        if strategy not in _STRATEGIES:
            raise ValueError(
                f"strategy must be one of {_STRATEGIES}, got {strategy!r}"
            )
        self.matcher = matcher or PyramidMatcher()
        self.strategy = strategy
        self.engine = MatchEngine(self.matcher, n_jobs=n_jobs,
                                  cache_plans=cache_plans,
                                  backend=backend, dtype=dtype)
        self.fgfs = [FeatureGenerationFunction(p, self.matcher) for p in patterns]
        self.patterns = patterns

    def warm(self, image_shape: tuple[int, int]) -> dict[str, int]:
        """Pin the batched engine's matching plan for one image shape.

        Used by serving workers at startup; see :meth:`MatchEngine.warm`.
        After warming, the pattern set must be treated as read-only (the
        engine freezes the pattern arrays to enforce it).  Returns the
        engine's summary of the pinned plan (exact/coarse column counts,
        refinement buffer count, active backend/dtype) for warmup logging.
        """
        return self.engine.warm(image_shape, [p.array for p in self.patterns])

    def transform_images(
        self, images: list[np.ndarray], batch_size: int | None = None
    ) -> FeatureMatrix:
        """Compute the (len(images), n_patterns) similarity matrix.

        ``batch_size`` streams images through the match engine in slices of
        that many rows (the engine still builds its per-shape matching plan
        only once), bounding transient serving state on large batches.  Each
        image's row is computed independently, so chunking never changes the
        output — the result is byte-identical for any ``batch_size``.
        """
        if not images:
            raise ValueError(
                "transform_images received an empty image list; provide at "
                "least one 2-D image array"
            )
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if self.strategy == "naive":
            values = np.empty((len(images), len(self.fgfs)))
            for i, image in enumerate(images):
                for j, fgf in enumerate(self.fgfs):
                    values[i, j] = fgf(image)
        else:
            values = self.engine.score_matrix(
                images, [p.array for p in self.patterns],
                batch_size=batch_size,
            )
        return FeatureMatrix(
            values=values,
            pattern_labels=np.array([p.label for p in self.patterns]),
        )

    def transform(self, dataset: Dataset,
                  batch_size: int | None = None) -> FeatureMatrix:
        """Convenience wrapper over :meth:`transform_images` for a dataset."""
        return self.transform_images([item.image for item in dataset.images],
                                     batch_size=batch_size)
