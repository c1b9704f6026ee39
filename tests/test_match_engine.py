"""Equivalence harness: batched ``MatchEngine`` ≡ naive per-call matching.

The batched engine reorganizes the FFT work (shared image spectra, cached
window statistics, integral-image energies) but must compute the *same*
similarity matrix as the naive ``FeatureGenerationFunction`` double loop.
These tests pin that contract across randomized image/pattern sizes, dtypes,
flat-region edge cases, both NCC variants, exact and pyramid modes, and any
``n_jobs`` setting.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.features import FeatureGenerator
from repro.imaging.backend import available_backends, get_backend
from repro.imaging.engine import MatchEngine
from repro.imaging.pyramid import PyramidMatcher, pyramid_match
from repro.patterns import Pattern

# The engine and the naive path use different FFT padding and different
# window-sum algorithms, so scores differ by round-off only.
TOL = 1e-6

# Tolerance tiers for the backend × dtype matrix: float64 lanes stay at the
# round-off bound above; float32 transforms admit single-precision error.
BACKENDS = available_backends()
DTYPE_TOL = {"float64": TOL, "float32": 1e-4}
BACKEND_DTYPE = [(b, d) for b in BACKENDS for d in DTYPE_TOL]


def _matcher(mode: str, zero_mean: bool, factor: int = 4) -> PyramidMatcher:
    if mode == "exact":
        return PyramidMatcher(enabled=False, zero_mean=zero_mean)
    return PyramidMatcher(factor=factor, zero_mean=zero_mean)


def _naive_values(images, patterns, matcher) -> np.ndarray:
    fg = FeatureGenerator(patterns, matcher, strategy="naive")
    return fg.transform_images(images).values


def _batched_values(images, patterns, matcher, n_jobs: int = 1,
                    **engine_kwargs) -> np.ndarray:
    fg = FeatureGenerator(patterns, matcher, n_jobs=n_jobs, **engine_kwargs)
    return fg.transform_images(images).values


def _random_case(seed: int):
    """A randomized workload: mixed image shapes/dtypes, mixed pattern shapes.

    Pattern sizes deliberately straddle the pyramid-eligibility boundary
    (min side 12 at factor 4) and occasionally exceed an image axis so the
    oversized-shrink path is exercised; one pattern is planted into one
    image so near-1.0 scores appear alongside background noise.
    """
    rng = np.random.default_rng(seed)
    images = []
    for i in range(int(rng.integers(2, 5))):
        shape = (int(rng.integers(24, 64)), int(rng.integers(24, 64)))
        image = rng.random(shape)
        if i % 3 == 1:
            image = image.astype(np.float32)
        elif i % 3 == 2:
            image = rng.integers(0, 256, shape)  # non-float input
        images.append(image)
    patterns = []
    for _ in range(int(rng.integers(3, 7))):
        shape = (int(rng.integers(3, 30)), int(rng.integers(3, 30)))
        patterns.append(Pattern(array=rng.random(shape)))
    # Plant the first pattern into the first image (both float64 here).
    ph, pw = patterns[0].shape
    target = images[0]
    if ph <= target.shape[0] and pw <= target.shape[1]:
        target[:ph, :pw] = patterns[0].array
    return images, patterns


class TestRandomizedEquivalence:
    """20 randomized cases spanning both modes and both NCC variants."""

    @pytest.mark.parametrize("mode", ["exact", "pyramid"])
    @pytest.mark.parametrize("zero_mean", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_batched_matches_naive(self, mode, zero_mean, seed):
        images, patterns = _random_case(seed * 17 + (mode == "pyramid"))
        matcher = _matcher(mode, zero_mean)
        naive = _naive_values(images, patterns, matcher)
        batched = _batched_values(images, patterns, matcher)
        np.testing.assert_allclose(batched, naive, rtol=0, atol=TOL)

    @pytest.mark.parametrize("factor", [2, 3])
    def test_other_pyramid_factors(self, factor):
        images, patterns = _random_case(101 + factor)
        matcher = PyramidMatcher(factor=factor)
        naive = _naive_values(images, patterns, matcher)
        batched = _batched_values(images, patterns, matcher)
        np.testing.assert_allclose(batched, naive, rtol=0, atol=TOL)


class TestEdgeCaseEquivalence:
    @pytest.mark.parametrize("mode", ["exact", "pyramid"])
    @pytest.mark.parametrize("zero_mean", [False, True])
    def test_flat_images(self, mode, zero_mean, rng):
        """All-zero and constant images: flat windows must score ~0, not NaN."""
        images = [np.zeros((30, 30)), np.full((30, 30), 0.5)]
        patterns = [Pattern(array=rng.random((8, 8))),
                    Pattern(array=np.zeros((5, 5))),
                    Pattern(array=np.full((13, 13), 0.7))]
        matcher = _matcher(mode, zero_mean)
        naive = _naive_values(images, patterns, matcher)
        batched = _batched_values(images, patterns, matcher)
        assert np.isfinite(batched).all()
        np.testing.assert_allclose(batched, naive, rtol=0, atol=TOL)

    def test_pattern_equal_to_image_size(self, rng):
        """A pattern covering the whole image yields a 1x1 response."""
        image = rng.random((16, 16))
        patterns = [Pattern(array=image.copy()), Pattern(array=rng.random((16, 16)))]
        for zero_mean in (False, True):
            matcher = _matcher("exact", zero_mean)
            batched = _batched_values([image], patterns, matcher)
            naive = _naive_values([image], patterns, matcher)
            np.testing.assert_allclose(batched, naive, rtol=0, atol=TOL)
            assert batched[0, 0] == pytest.approx(1.0, abs=TOL)

    def test_oversized_patterns_shrunk_identically(self, rng):
        """Patterns larger than the image follow the FGF shrink-to-fit rule."""
        images = [rng.random((20, 26)), rng.random((34, 18))]
        patterns = [Pattern(array=rng.random((25, 12))),
                    Pattern(array=rng.random((40, 40)))]
        for mode in ("exact", "pyramid"):
            matcher = _matcher(mode, zero_mean=False)
            naive = _naive_values(images, patterns, matcher)
            batched = _batched_values(images, patterns, matcher)
            np.testing.assert_allclose(batched, naive, rtol=0, atol=TOL)

    def test_single_image_single_pattern(self, rng):
        matcher = PyramidMatcher()
        image = rng.random((40, 40))
        pattern = Pattern(array=rng.random((12, 12)))
        batched = _batched_values([image], [pattern], matcher)
        expected = matcher(image, pattern.array).score
        assert batched[0, 0] == pytest.approx(expected, abs=TOL)


class TestRefinementEquivalence:
    """Pyramid refinement (the plan/execute batched stage) ≡ per-call path.

    These cases target the refinement layer specifically: border peaks whose
    windows clip, patterns the shrink rule touched, more candidates than
    distinct peaks, the no-peak sentinel fallback, and unusual factors.
    """

    @pytest.mark.parametrize("zero_mean", [False, True])
    def test_border_peaks_clipped_windows(self, rng, zero_mean):
        """Patterns planted flush against every border and corner: the coarse
        peaks map to windows the image boundary clips, which must group by
        their actual (smaller) shape and still match the per-call scores."""
        pattern = rng.random((12, 12))
        images = []
        h, w = pattern.shape
        for oy, ox in [(0, 0), (0, 36), (36, 0), (36, 36), (0, 18), (18, 36)]:
            image = rng.random((48, 48)) * 0.3
            image[oy : oy + h, ox : ox + w] = pattern
            images.append(image)
        patterns = [Pattern(array=pattern), Pattern(array=rng.random((12, 14)))]
        matcher = PyramidMatcher(factor=4, zero_mean=zero_mean)
        naive = _naive_values(images, patterns, matcher)
        batched = _batched_values(images, patterns, matcher)
        np.testing.assert_allclose(batched, naive, rtol=0, atol=TOL)
        # Corner plants align with the coarse grid, so refinement must
        # recover them exactly (edge plants may decorrelate at the coarse
        # level — a documented pyramid property, not a refinement bug).
        assert batched[:4, 0].min() > 0.99

    @pytest.mark.parametrize("factor", [2, 4])
    def test_shrunk_patterns_refined(self, rng, factor):
        """Patterns that fit_pattern_to_image shrank still refine identically
        (their fitted shapes drive window geometry and pinned buffers)."""
        images = [rng.random((40, 44)), rng.random((52, 36))]
        patterns = [Pattern(array=rng.random((60, 20))),
                    Pattern(array=rng.random((20, 60))),
                    Pattern(array=rng.random((64, 64))),
                    Pattern(array=rng.random((14, 14)))]
        matcher = PyramidMatcher(factor=factor)
        naive = _naive_values(images, patterns, matcher)
        batched = _batched_values(images, patterns, matcher)
        np.testing.assert_allclose(batched, naive, rtol=0, atol=TOL)

    def test_candidates_exceed_distinct_peaks(self, rng):
        """One strong peak in an otherwise flat image: far fewer coarse peaks
        than requested candidates, on both paths."""
        pattern = rng.random((12, 12)) + 0.2
        image = np.zeros((64, 64))
        image[24:36, 20:32] = pattern
        matcher = PyramidMatcher(factor=4, candidates=10)
        naive = _naive_values([image], [Pattern(array=pattern)], matcher)
        batched = _batched_values([image], [Pattern(array=pattern)], matcher)
        np.testing.assert_allclose(batched, naive, rtol=0, atol=TOL)
        assert batched[0, 0] == pytest.approx(1.0, abs=TOL)

    @pytest.mark.parametrize("zero_mean", [False, True])
    def test_no_peak_fallback(self, rng, zero_mean):
        """All-zero and constant images produce a non-positive coarse response
        (no peaks), driving the sentinel fallback through the batched
        full-resolution set; scores must match the per-call fallback."""
        images = [np.zeros((48, 48)), np.full((48, 48), 0.25)]
        patterns = [Pattern(array=rng.random((12, 12))),
                    Pattern(array=np.zeros((14, 14)))]
        matcher = PyramidMatcher(factor=4, zero_mean=zero_mean)
        naive = _naive_values(images, patterns, matcher)
        batched = _batched_values(images, patterns, matcher)
        assert np.isfinite(batched).all()
        np.testing.assert_allclose(batched, naive, rtol=0, atol=TOL)

    @pytest.mark.parametrize("factor", [1, 5, 7])
    def test_factor_edge_cases(self, factor):
        """factor=1 (coarse level disabled everywhere) and large factors
        (mixed eligibility, tiny coarse maps) stay equivalent."""
        images, patterns = _random_case(404 + factor)
        matcher = PyramidMatcher(factor=factor)
        naive = _naive_values(images, patterns, matcher)
        batched = _batched_values(images, patterns, matcher)
        np.testing.assert_allclose(batched, naive, rtol=0, atol=TOL)


class TestSharedValidation:
    """One validator behind both raise-sites (per-call and engine ctor)."""

    def test_messages_and_sites_match(self, rng):
        image, pattern = rng.random((30, 30)), rng.random((8, 8))
        for kwargs in (dict(factor=0), dict(candidates=0)):
            with pytest.raises(ValueError) as per_call:
                pyramid_match(image, pattern, **kwargs)
            with pytest.raises(ValueError) as ctor:
                MatchEngine(PyramidMatcher(**kwargs))
            assert str(per_call.value) == str(ctor.value)

    def test_matcher_validate(self):
        with pytest.raises(ValueError, match="factor"):
            PyramidMatcher(factor=0).validate()
        with pytest.raises(ValueError, match="candidates"):
            PyramidMatcher(candidates=-1).validate()
        PyramidMatcher().validate()
        # Disabled matchers never consult factor/candidates — no checks.
        PyramidMatcher(enabled=False, factor=0).validate()


class TestMatchEngineApi:
    def test_engine_scores_match_per_call_matcher(self, rng):
        matcher = PyramidMatcher(factor=2)
        engine = MatchEngine(matcher)
        images = [rng.random((32, 40)) for _ in range(3)]
        patterns = [rng.random((7, 7)), rng.random((14, 14))]
        scores = engine.score_matrix(images, patterns)
        for i, image in enumerate(images):
            for j, pattern in enumerate(patterns):
                assert scores[i, j] == pytest.approx(
                    matcher(image, pattern).score, abs=TOL
                )

    def test_empty_inputs_rejected(self, rng):
        engine = MatchEngine()
        with pytest.raises(ValueError):
            engine.score_matrix([], [rng.random((4, 4))])
        with pytest.raises(ValueError):
            engine.score_matrix([rng.random((8, 8))], [])

    def test_invalid_n_jobs_rejected(self):
        with pytest.raises(ValueError):
            MatchEngine(n_jobs=0)
        with pytest.raises(ValueError):
            MatchEngine(n_jobs=-2)

    def test_invalid_matcher_config_rejected(self):
        """The naive path raises per call; the engine must not silently
        degrade the same misconfiguration to exact matching."""
        with pytest.raises(ValueError, match="factor"):
            MatchEngine(PyramidMatcher(factor=0))
        with pytest.raises(ValueError, match="candidates"):
            MatchEngine(PyramidMatcher(candidates=0))
        # Disabled matcher never consults factor/candidates — naive parity.
        MatchEngine(PyramidMatcher(enabled=False, factor=0))

    def test_invalid_strategy_rejected(self, toy_patterns):
        with pytest.raises(ValueError):
            FeatureGenerator(toy_patterns, strategy="turbo")

    def test_config_n_jobs_wiring(self, toy_patterns):
        """``InspectorGadgetConfig.n_jobs`` validates and reaches the engine."""
        from repro.core.config import InspectorGadgetConfig

        with pytest.raises(ValueError):
            InspectorGadgetConfig(n_jobs=0)
        with pytest.raises(ValueError):
            InspectorGadgetConfig(n_jobs=-3)
        config = InspectorGadgetConfig(n_jobs=2)
        fg = FeatureGenerator(toy_patterns, config.matcher, n_jobs=config.n_jobs)
        assert fg.engine.n_jobs == 2
        assert MatchEngine(n_jobs=-1).n_jobs >= 1


class TestDeterminism:
    @pytest.mark.parametrize("mode", ["exact", "pyramid"])
    def test_n_jobs_byte_identical(self, mode):
        """Same inputs => byte-identical values regardless of parallelism."""
        images, patterns = _random_case(202)
        matcher = _matcher(mode, zero_mean=False)
        serial = _batched_values(images, patterns, matcher, n_jobs=1)
        two = _batched_values(images, patterns, matcher, n_jobs=2)
        threaded = _batched_values(images, patterns, matcher, n_jobs=4)
        all_cpus = _batched_values(images, patterns, matcher, n_jobs=-1)
        assert serial.tobytes() == two.tobytes()
        assert serial.tobytes() == threaded.tobytes()
        assert serial.tobytes() == all_cpus.tobytes()

    def test_repeated_calls_identical(self, rng, toy_patterns):
        fg = FeatureGenerator(toy_patterns, n_jobs=2)
        images = [rng.random((30, 30)) for _ in range(5)]
        a = fg.transform_images(images).values
        b = fg.transform_images(images).values
        assert a.tobytes() == b.tobytes()


class TestBackendDtypeMatrix:
    """Every available backend × working dtype against the float64 naive
    reference, at its dtype's tolerance tier; parametrizing over
    ``available_backends()`` makes the optional torch backend join the
    matrix automatically where installed and skip nowhere — a host without
    it simply has a smaller matrix."""

    @pytest.mark.parametrize("mode", ["exact", "pyramid"])
    @pytest.mark.parametrize("backend,dtype", BACKEND_DTYPE)
    def test_equivalent_to_naive(self, backend, dtype, mode):
        images, patterns = _random_case(77 + (mode == "pyramid"))
        matcher = _matcher(mode, zero_mean=True)
        naive = _naive_values(images, patterns, matcher)
        values = _batched_values(images, patterns, matcher,
                                 backend=backend, dtype=dtype)
        np.testing.assert_allclose(values, naive, rtol=0,
                                   atol=DTYPE_TOL[dtype])

    @pytest.mark.parametrize("backend,dtype", BACKEND_DTYPE)
    def test_n_jobs_byte_identical_per_combo(self, backend, dtype):
        """The determinism contract is per-(backend, dtype): within one
        combination, parallelism must never change a byte."""
        images, patterns = _random_case(303)
        matcher = _matcher("pyramid", zero_mean=False)
        serial, two, four = (
            _batched_values(images, patterns, matcher, n_jobs=n,
                            backend=backend, dtype=dtype)
            for n in (1, 2, 4)
        )
        assert serial.tobytes() == two.tobytes() == four.tobytes()

    def test_default_engine_is_reference_backend(self):
        engine = MatchEngine()
        assert engine.backend.name == "numpy"
        assert engine.dtype == "float64"
        assert "numpy" in BACKENDS  # the reference backend always exists

    def test_float32_output_still_float64(self, rng):
        """Working dtype touches transforms only; scores stay float64."""
        values = _batched_values(
            [rng.random((30, 30))], [Pattern(array=rng.random((8, 8)))],
            _matcher("exact", zero_mean=False), dtype="float32",
        )
        assert values.dtype == np.float64

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown engine backend"):
            MatchEngine(backend="accelerator9000")

    def test_unknown_dtype_rejected(self):
        with pytest.raises(ValueError, match="dtype"):
            MatchEngine(dtype="float16")

    def test_backend_instances_pass_through(self):
        backend = get_backend("numpy")
        assert get_backend(backend) is backend
