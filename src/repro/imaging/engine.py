"""Batched FFT match engine: the full images × patterns similarity matrix.

The per-call path (:func:`repro.imaging.ncc.ncc_map`) recomputes every FFT
from scratch on each ``(image, pattern)`` pair — six to nine transforms per
cell.  Feature generation calls it ``n_images × n_patterns`` times, which
makes it the dominant cost of the whole pipeline.  :class:`MatchEngine`
computes the same similarity matrix with the redundant work hoisted out:

* **One padded spectrum per image.**  Each image is transformed once with
  ``rfft2`` at a size large enough for the *largest* pattern
  (``next_fast_len(H + h_max - 1)``); because linear convolution only needs
  the FFT length to be at least ``H + h - 1``, the same spectrum serves every
  pattern shape.  Per cell only one inverse transform remains.
* **One spectrum per pattern per image shape.**  Pattern spectra (flipped,
  and mean-centred for the ``zero_mean`` variant) are computed once per
  pattern set and reused across all images of the same shape.
* **Window statistics from integral images.**  The sliding-window energy
  (and window sum/variance for ``zero_mean``) depends only on
  ``(image, pattern_shape)``.  Augmented patterns overwhelmingly share
  shapes, so these maps are computed once per shape from two cumulative-sum
  tables per image — no FFT at all — and cached.
* **Batched pyramid refinement (plan/execute).**  In pyramid mode the
  full-resolution refinement of coarse candidates is two-phase: the *plan*
  maps each pattern's coarse peaks to clipped windows with the same pure
  geometry helper as the per-call path
  (:func:`repro.imaging.pyramid._refine_windows`), then the *execute* phase
  buckets all (pattern, window) tasks of an image by pattern and window
  shape and scores each bucket with one vectorized NCC
  (:func:`repro.imaging.ncc.match_windows`) against kernel spectra pinned at
  plan time — instead of one scalar ``match_pattern`` call per candidate
  window.  Patterns whose refinement finds no viable window are scored
  through a row-local full-resolution pattern set built on demand (the same
  batched machinery as exact columns), so no per-call matching survives
  anywhere in the hot path.
* **Opt-in parallelism over images.**  ``n_jobs > 1`` fans image rows out to
  a thread pool in contiguous chunks (FFT work releases the GIL).  All
  shared state is computed *before* dispatch and read-only afterwards, and
  every worker writes disjoint rows of a preallocated matrix, so output is
  deterministic and byte-identical to ``n_jobs=1``.
* **Pluggable transforms.**  The FFTs (and only the FFTs) run through an
  :class:`repro.imaging.backend.ArrayBackend` at an opt-in working
  ``dtype`` — numpy/float64 is the byte-identical reference (and the only
  plan the pipeline, its profiles and the serving paths run); float32
  halves transform bandwidth; torch uses the host's array library when
  present.  Window statistics, kernel energies and the flat-window
  threshold always stay float64 on the host (see
  :mod:`repro.imaging.backend`), and the output matrix is always float64
  numpy.  Determinism is per-(backend, dtype): byte-identical across
  ``n_jobs`` within a combination, tolerance-tiered (float64 ~1e-6,
  float32 ~1e-4 vs the naive reference) across them.

Caching invariants: cached spectra/tables are keyed by value-derived shapes
only and are never mutated after creation; by default the engine holds no
state across :meth:`MatchEngine.score_matrix` calls, so patterns and images
may be freely mutated between calls.  Opting in to ``cache_plans`` (the
serving path) changes that contract: the per-shape matching plan is kept
across calls and every array it holds — including the caller's pattern
arrays — is frozen read-only, enforcing that shared state cannot drift
after planning.  A cached plan is reused only when the caller passes the
*same* pattern array objects (checked by identity); different patterns
rebuild the plan rather than returning stale scores.

Equivalence: for every cell the engine computes the same mathematical
quantity as the per-call path — same flat-window threshold and [0, 1]
clamping (shared via :func:`repro.imaging.ncc._finalize_response`), same
oversized-pattern shrinking (:func:`repro.imaging.ops.fit_pattern_to_image`),
and, in pyramid mode, the same candidate selection and window geometry as
:func:`repro.imaging.pyramid.pyramid_match`.  Only FFT padding sizes and the
window-sum algorithm differ, which moves individual scores by round-off
only (~1e-14 observed; the equivalence harness asserts 1e-6).  The one
theoretical exception: a window whose energy lies within that round-off of
``_ENERGY_EPS`` itself can fall on opposite sides of the flat-window
threshold in the two paths.  Such knife-edge windows require an
adversarially scaled pattern copy (energy within ~1e-13 of 1e-10) and do
not occur in real or randomized imagery, but on them the paths may
legitimately disagree — the threshold exists precisely because scores
there are round-off noise.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.imaging.backend import ArrayBackend, check_dtype, get_backend
from repro.imaging.ncc import match_windows
from repro.imaging.ops import as_image, downsample, fit_pattern_to_image
from repro.imaging.pyramid import (
    PyramidMatcher,
    _coarse_ok,
    _min_peak_distance,
    _refine_windows,
    _top_k_peaks,
)

__all__ = ["MatchEngine"]


@dataclass
class _PatternSet:
    """Spectra and energies of a pattern list, specialised to one image shape.

    ``arrays`` are the patterns after :func:`fit_pattern_to_image`, so every
    entry fits the image.  ``spectra`` hold ``rfft2`` of the flipped (and,
    for ``zero_mean``, mean-centred) kernels at the shared padded FFT shape
    ``fshape`` — backend-native arrays at the working ``dtype``; ``energies``
    are the matching kernel energies, always float64 (statistics never
    follow the working dtype).  ``fshape`` is the backend's
    ``next_fast_len`` of the linear-convolution length per axis.
    Everything is computed once and treated as read-only afterwards.
    """

    arrays: list[np.ndarray]
    fshape: tuple[int, int]
    spectra: list
    spectra_block: object
    energies: list[float]
    zero_mean: bool
    backend: ArrayBackend
    dtype: str
    response_chunk: int

    @classmethod
    def build(
        cls,
        patterns: list[np.ndarray],
        image_shape: tuple[int, int],
        zero_mean: bool,
        backend: ArrayBackend | None = None,
        dtype: str = "float64",
    ) -> _PatternSet:
        backend = backend or get_backend("numpy")
        ih, iw = image_shape
        arrays = [fit_pattern_to_image(p, image_shape) for p in patterns]
        h_max = max(a.shape[0] for a in arrays)
        w_max = max(a.shape[1] for a in arrays)
        fshape = (
            backend.next_fast_len(ih + h_max - 1),
            backend.next_fast_len(iw + w_max - 1),
        )
        kernels = [a - a.mean() if zero_mean else a for a in arrays]
        spectra = [
            backend.rfft2(backend.flip2(backend.asarray(k, dtype)), s=fshape)
            for k in kernels
        ]
        energies = [float(np.sum(k * k)) for k in kernels]
        # All spectra share fshape, so they stack; the stacked block lets
        # _iter_responses inverse-transform ``response_chunk`` patterns per
        # call (chunks slice the block without copying).
        chunk = max(1, int(backend.response_chunk(dtype)))
        block = (
            backend.stack(spectra) if chunk > 1 and len(spectra) > 1 else None
        )
        return cls(
            arrays=arrays,
            fshape=fshape,
            spectra=spectra,
            spectra_block=block,
            energies=energies,
            zero_mean=zero_mean,
            backend=backend,
            dtype=dtype,
            response_chunk=chunk,
        )


def _iter_responses(image: np.ndarray, pset: _PatternSet):
    """Yield the full NCC response map of ``image`` for each pattern.

    The image spectrum and integral tables are computed once; window
    statistics are cached per pattern *shape*, so shape-sharing augmented
    patterns pay for them only once.  Transforms run on the pattern set's
    backend at its working dtype, inverse-transforming
    ``pset.response_chunk`` patterns per call (an execution knob — batched
    ``irfft2`` computes each 2-D slice exactly as a single-slice call
    would); the integral tables and denominators are float64 numpy
    regardless, and each yielded response is float64 numpy.
    """
    ih, iw = image.shape
    backend = pset.backend
    image_spectrum = backend.rfft2(
        backend.asarray(image, pset.dtype), s=pset.fshape
    )
    energy_table = backend.integral_table(image * image)
    sum_table = backend.integral_table(image) if pset.zero_mean else None
    denom_maps: dict[tuple[int, int], np.ndarray] = {}
    def denom_map(h: int, w: int) -> np.ndarray:
        if (h, w) not in denom_maps:
            window_energy = backend.window_sums(energy_table, h, w)
            np.clip(window_energy, 0.0, None, out=window_energy)
            if pset.zero_mean:
                window_sum = backend.window_sums(sum_table, h, w)
                window_var = window_energy - window_sum**2 / (h * w)
                np.clip(window_var, 0.0, None, out=window_var)
                denom_maps[h, w] = window_var
            else:
                denom_maps[h, w] = window_energy
        return denom_maps[h, w]

    n, chunk = len(pset.arrays), pset.response_chunk
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        if pset.spectra_block is None or stop - start == 1:
            # Reference path (chunk == 1): exactly the pre-seam sequence of
            # per-pattern transforms and finalizations.
            fulls = [
                backend.to_numpy(
                    backend.irfft2(image_spectrum * spec, s=pset.fshape)
                )
                for spec in pset.spectra[start:stop]
            ]
        else:
            fulls = backend.to_numpy(backend.irfft2(
                image_spectrum * pset.spectra_block[start:stop],
                s=pset.fshape,
            ))
        for k in range(start, stop):
            h, w = pset.arrays[k].shape
            numerator = fulls[k - start][h - 1 : ih, w - 1 : iw]
            denom = np.sqrt(pset.energies[k] * denom_map(h, w))
            yield backend.finalize_response(numerator, denom)


@dataclass
class _RefineSpec:
    """Pinned refinement buffers for one coarse pattern (plan phase).

    Refinement windows for a pattern of shape ``(h, w)`` are all
    ``(h + 2*margin, w + 2*margin)`` except border-clipped ones, so the FFT
    shape that covers the *largest* possible window serves every window the
    pattern can produce (linear convolution only needs length >=
    ``window + h - 1`` per axis).  The flipped (and, for ``zero_mean``,
    mean-centred) kernel spectrum at that shape and the kernel energy are
    computed once at plan time — serving workers pin them at warmup — so the
    execute phase pays only the window transforms.  ``spectrum`` is
    backend-native at the engine's working dtype (``energy`` stays float64).
    """

    fshape: tuple[int, int]
    spectrum: object
    energy: float


@dataclass
class _ShapePlan:
    """Precomputed, read-only matching plan for one distinct image shape.

    ``exact_indices`` are pattern columns scored by full-image NCC (all of
    them when the matcher is exact; the coarse-ineligible ones in pyramid
    mode).  ``coarse_indices`` are scored coarse-to-fine: ``coarse_set``
    matches downsampled patterns against the downsampled image, then
    candidates are refined at full resolution with the fine ``arrays`` using
    the per-pattern ``coarse_refine`` buffers.  A pattern whose refinement
    finds no viable window (sentinel fallback) is scored through a row-local
    full-resolution :class:`_PatternSet` built on demand in
    :meth:`MatchEngine._score_coarse` — the same batched full-image
    machinery as the exact set, never a fresh per-call match.
    """

    exact_indices: list[int] = field(default_factory=list)
    exact_set: _PatternSet | None = None
    coarse_indices: list[int] = field(default_factory=list)
    coarse_set: _PatternSet | None = None
    coarse_fine_arrays: list[np.ndarray] = field(default_factory=list)
    coarse_min_dist: list[int] = field(default_factory=list)
    coarse_refine: list[_RefineSpec] = field(default_factory=list)


def _freeze_plan(plan: _ShapePlan, backend: ArrayBackend) -> None:
    """Make every array a plan holds immutable.

    Cached plans are shared across all future calls (and, in serving, were
    built once at warmup for the lifetime of a worker); freezing turns any
    accidental in-place mutation of that shared state into an immediate
    ``ValueError`` instead of silently skewed scores.  Pattern arrays are
    always numpy; spectra are backend-native, so their freezing is
    best-effort via :meth:`ArrayBackend.freeze`.
    """
    for pset in (plan.exact_set, plan.coarse_set):
        if pset is not None:
            for arr in pset.arrays:
                arr.flags.writeable = False
            for spectrum in pset.spectra:
                backend.freeze(spectrum)
            if pset.spectra_block is not None:
                backend.freeze(pset.spectra_block)
    for arr in plan.coarse_fine_arrays:
        arr.flags.writeable = False
    for spec in plan.coarse_refine:
        backend.freeze(spec.spectrum)


class MatchEngine:
    """Batched drop-in for per-call matching behind :class:`FeatureGenerator`.

    The engine reads its matching mode from a :class:`PyramidMatcher`:
    ``enabled=False`` scores by exact full-image NCC, ``enabled=True``
    replicates the coarse-to-fine pyramid (same gating, candidate selection
    and refinement as :func:`pyramid_match`), and ``zero_mean`` selects the
    NCC variant — so any pipeline configured with a matcher gets identical
    scores, just batched.

    ``n_jobs`` parallelises over images with threads (``-1`` = one per CPU);
    results are deterministic and independent of ``n_jobs``.

    ``backend``/``dtype`` select the transform backend and working
    precision (see :mod:`repro.imaging.backend`); the default
    ``("numpy", "float64")`` is byte-identical to the pre-backend engine.
    """

    def __init__(self, matcher: PyramidMatcher | None = None, n_jobs: int = 1,
                 cache_plans: bool = False, *, backend: str | ArrayBackend = "numpy",
                 dtype: str = "float64"):
        self.matcher = matcher or PyramidMatcher()
        # The same validator pyramid_match applies per call, surfaced at
        # construction so the batched and naive paths reject the same setups
        # with the same message.
        self.matcher.validate()
        if n_jobs == -1:
            n_jobs = os.cpu_count() or 1
        if n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1 or -1, got {n_jobs}")
        self.n_jobs = int(n_jobs)
        self.cache_plans = bool(cache_plans)
        self.backend = get_backend(backend)
        self.dtype = check_dtype(dtype)
        # shape -> (pattern arrays the plan was built from, frozen plan),
        # LRU-ordered.  Bounded: a long-running serving worker fed varied
        # image shapes must not pin a frozen plan (pattern spectra + window
        # tables) per distinct shape forever.  16 shapes comfortably covers
        # real camera/crop variety; past that, the least recently used plan
        # is rebuilt on demand — a latency cost, never a correctness one.
        self.plan_cache_size = 16
        self._plan_cache: "OrderedDict[tuple[int, int], tuple[list[np.ndarray], _ShapePlan]]" = OrderedDict()

    # -- public API ----------------------------------------------------------

    def score_matrix(
        self,
        images: list[np.ndarray],
        patterns: list[np.ndarray],
        batch_size: int | None = None,
    ) -> np.ndarray:
        """Best-match scores of every pattern in every image: ``(n, p)``.

        ``batch_size`` processes each shape group's images in slices of at
        most that many rows: only one slice is materialized as float64 and
        in flight at a time, so streaming a very large image list keeps
        working memory bounded by the slice (plus the output matrix).  The
        per-shape matching plan is built once and reused across all slices,
        and every row is computed independently, so the output is
        byte-identical for any ``batch_size``.
        """
        if not images:
            raise ValueError("no images to match")
        if not patterns:
            raise ValueError("no patterns to match")
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        patterns = [as_image(p) for p in patterns]
        out = np.empty((len(images), len(patterns)))

        # Group by shape without converting: the float64 copies are made
        # per batch slice below, which is what bounds serving memory.
        by_shape: dict[tuple[int, int], list[int]] = {}
        for i, im in enumerate(images):
            if np.ndim(im) != 2:
                raise ValueError(
                    f"expected a 2-D image array, got shape {np.shape(im)}"
                )
            by_shape.setdefault(np.shape(im), []).append(i)

        for shape, indices in by_shape.items():
            plan = self._plan_for(shape, patterns)
            step = len(indices) if batch_size is None else batch_size
            workers = min(self.n_jobs, min(step, len(indices)))
            with ThreadPoolExecutor(max_workers=workers) if workers > 1 \
                    else nullcontext() as pool:
                for start in range(0, len(indices), step):
                    batch = indices[start : start + step]
                    converted = {i: as_image(images[i]) for i in batch}

                    def run_chunk(chunk: list[int]) -> None:
                        for i in chunk:
                            out[i] = self._score_row(converted[i], plan)

                    if pool is None:
                        run_chunk(batch)
                        continue
                    w = min(workers, len(batch))
                    bounds = np.linspace(0, len(batch), w + 1).astype(int)
                    chunks = [
                        batch[bounds[c] : bounds[c + 1]] for c in range(w)
                    ]
                    # list() re-raises any worker exception; the map is
                    # drained before the next slice, so at most one slice's
                    # conversions and rows are in flight.
                    list(pool.map(run_chunk, chunks))
        return out

    def warm(self, image_shape: tuple[int, int],
             patterns: list[np.ndarray]) -> dict[str, int]:
        """Build and pin the matching plan for ``image_shape`` ahead of use.

        Enables ``cache_plans`` (warming is pointless without it): the plan
        survives across :meth:`score_matrix` calls and its arrays — and the
        given pattern arrays — are frozen read-only.  The serving workers
        call this at startup so the first request pays no planning cost;
        warming past ``plan_cache_size`` grows the cap rather than silently
        evicting an earlier warmed shape, so that promise holds for every
        warmed shape (only shapes seen ad hoc at runtime compete for LRU
        slots).

        Returns a summary of what was pinned — ``exact``/``coarse`` column
        counts plus the per-pattern ``refine_buffers`` (pinned refinement
        kernel spectra) — and how: the active ``backend`` name and working
        ``dtype`` — so callers can log what a warmed worker actually holds.
        """
        shape = tuple(int(side) for side in image_shape)
        if len(shape) != 2 or shape[0] < 1 or shape[1] < 1:
            raise ValueError(
                f"image_shape must be a (height, width) pair of positive "
                f"ints, got {image_shape!r}"
            )
        self.cache_plans = True
        if shape not in self._plan_cache:
            self.plan_cache_size = max(self.plan_cache_size,
                                       len(self._plan_cache) + 1)
        plan = self._plan_for(shape, [as_image(p) for p in patterns])
        return {
            "exact": len(plan.exact_indices),
            "coarse": len(plan.coarse_indices),
            "refine_buffers": len(plan.coarse_refine),
            "backend": self.backend.name,
            "dtype": self.dtype,
        }

    def cached_plan_count(self) -> int:
        """How many distinct image shapes currently have a cached plan."""
        return len(self._plan_cache)

    # -- planning ------------------------------------------------------------

    def _plan_for(
        self, image_shape: tuple[int, int], patterns: list[np.ndarray]
    ) -> _ShapePlan:
        """The plan for ``image_shape``, via the cache when enabled."""
        if not self.cache_plans:
            return self._plan(image_shape, patterns)
        cached = self._plan_cache.get(image_shape)
        if cached is not None:
            cached_patterns, plan = cached
            # Identity, not equality: comparing array contents would cost
            # as much as replanning.  The serving path always passes the
            # profile's own pattern arrays, so identity holds there.
            if len(cached_patterns) == len(patterns) and all(
                a is b for a, b in zip(cached_patterns, patterns)
            ):
                self._plan_cache.move_to_end(image_shape)
                return plan
        plan = self._plan(image_shape, patterns)
        _freeze_plan(plan, self.backend)
        for arr in patterns:
            arr.flags.writeable = False
        self._plan_cache[image_shape] = (list(patterns), plan)
        self._plan_cache.move_to_end(image_shape)
        while len(self._plan_cache) > max(1, self.plan_cache_size):
            self._plan_cache.popitem(last=False)  # evict LRU
        return plan

    def _plan(
        self, image_shape: tuple[int, int], patterns: list[np.ndarray]
    ) -> _ShapePlan:
        matcher = self.matcher
        plan = _ShapePlan()
        fitted = [fit_pattern_to_image(p, image_shape) for p in patterns]
        if matcher.enabled:
            for j, arr in enumerate(fitted):
                if _coarse_ok(image_shape, arr.shape, matcher.factor):
                    plan.coarse_indices.append(j)
                else:
                    plan.exact_indices.append(j)
        else:
            plan.exact_indices = list(range(len(fitted)))

        if plan.exact_indices:
            plan.exact_set = _PatternSet.build(
                [fitted[j] for j in plan.exact_indices],
                image_shape,
                matcher.zero_mean,
                backend=self.backend,
                dtype=self.dtype,
            )
        if plan.coarse_indices:
            factor = matcher.factor
            coarse_shape = (image_shape[0] // factor, image_shape[1] // factor)
            coarse_patterns = [
                downsample(fitted[j], factor) for j in plan.coarse_indices
            ]
            plan.coarse_set = _PatternSet.build(
                coarse_patterns, coarse_shape, matcher.zero_mean,
                backend=self.backend,
                dtype=self.dtype,
            )
            plan.coarse_fine_arrays = [fitted[j] for j in plan.coarse_indices]
            plan.coarse_min_dist = [
                _min_peak_distance(cp.shape) for cp in coarse_patterns
            ]
            plan.coarse_refine = [
                self._refine_spec(arr, image_shape, factor)
                for arr in plan.coarse_fine_arrays
            ]
        return plan

    def _refine_spec(
        self,
        pattern: np.ndarray,
        image_shape: tuple[int, int],
        margin: int,
    ) -> _RefineSpec:
        """Pin one pattern's refinement buffers (kernel spectrum + energy)."""
        h, w = pattern.shape
        # The largest window this pattern can produce: (h + 2*margin) around
        # an interior peak, clipped to the image for small images.
        win_h = min(h + 2 * margin, image_shape[0])
        win_w = min(w + 2 * margin, image_shape[1])
        backend = self.backend
        fshape = (
            backend.next_fast_len(win_h + h - 1),
            backend.next_fast_len(win_w + w - 1),
        )
        kernel = pattern - pattern.mean() if self.matcher.zero_mean else pattern
        spectrum = backend.rfft2(
            backend.flip2(backend.asarray(kernel, self.dtype)), s=fshape
        )
        return _RefineSpec(
            fshape=fshape,
            spectrum=spectrum,
            energy=float(np.sum(kernel * kernel)),
        )

    # -- scoring -------------------------------------------------------------

    def _score_row(self, image: np.ndarray, plan: _ShapePlan) -> np.ndarray:
        n = len(plan.exact_indices) + len(plan.coarse_indices)
        row = np.empty(n)
        if plan.exact_set is not None:
            for j, response in zip(
                plan.exact_indices, _iter_responses(image, plan.exact_set)
            ):
                row[j] = response.max()
        if plan.coarse_set is not None:
            self._score_coarse(image, plan, row)
        return row

    def _score_coarse(
        self, image: np.ndarray, plan: _ShapePlan, row: np.ndarray
    ) -> None:
        """Coarse-to-fine scoring, collect-then-execute.

        Phase 1 (*plan*): run the batched coarse match, select peaks, and map
        them to full-resolution windows with the same geometry helper as the
        per-call path (:func:`_refine_windows`).  Phase 2 (*execute*): bucket
        the collected (pattern, window) tasks by pattern and window shape and
        score each bucket with one batched NCC over the stacked windows —
        patterns that share a shape execute together regardless of which
        column they fill.  Patterns with no viable window fall back to a
        row-local full-resolution pattern set, scored through the same
        batched full-image path as exact columns.
        """
        matcher = self.matcher
        factor = matcher.factor
        coarse_image = downsample(image, factor)
        # (pattern_shape, window_shape) -> [(slot, y0, x0), ...].  Window
        # shape is uniform inside a bucket so the windows stack; pattern
        # shape fixes the numerator slicing and the pinned fshape.
        buckets: dict[
            tuple[tuple[int, int], tuple[int, int]],
            list[tuple[int, int, int]],
        ] = {}
        fallback_slots: list[int] = []
        responses = _iter_responses(coarse_image, plan.coarse_set)
        for slot, (min_dist, response) in enumerate(
            zip(plan.coarse_min_dist, responses)
        ):
            arr = plan.coarse_fine_arrays[slot]
            peaks = _top_k_peaks(response, matcher.candidates, min_dist)
            windows = _refine_windows(
                image.shape, arr.shape, peaks, factor, margin=factor
            )
            if not windows:
                fallback_slots.append(slot)
                continue
            for y0, x0, win_h, win_w in windows:
                buckets.setdefault((arr.shape, (win_h, win_w)), []).append(
                    (slot, y0, x0)
                )
        best = np.full(len(plan.coarse_indices), -1.0)
        for (_, (win_h, win_w)), entries in buckets.items():
            stack = np.stack(
                [image[y0 : y0 + win_h, x0 : x0 + win_w]
                 for _, y0, x0 in entries]
            )
            specs = [plan.coarse_refine[slot] for slot, _, _ in entries]
            scores = match_windows(
                stack,
                np.stack([plan.coarse_fine_arrays[slot]
                          for slot, _, _ in entries]),
                zero_mean=matcher.zero_mean,
                spectra=self.backend.stack([spec.spectrum for spec in specs]),
                # One fshape per pattern shape (sized for the largest window
                # the shape can produce), shared by every bucket of that
                # shape, so clipped and unclipped windows batch identically.
                fshape=specs[0].fshape,
                energies=np.array([spec.energy for spec in specs]),
                backend=self.backend,
                dtype=self.dtype,
            )
            np.maximum.at(best, [slot for slot, _, _ in entries], scores)
        for slot, j in enumerate(plan.coarse_indices):
            if best[slot] >= 0:
                row[j] = best[slot]
        if fallback_slots:
            # Full-resolution batched scoring for the rare patterns whose
            # refinement found no viable window — the same machinery as
            # exact columns.  The set is row-local (fallback slots depend on
            # this image's coarse response), built only when a fallback
            # actually fires, so pyramid plans never pin exact-set-sized
            # spectra for every coarse pattern; determinism is unaffected
            # because it derives only from (image, plan), never from
            # scheduling.
            fallback_set = _PatternSet.build(
                [plan.coarse_fine_arrays[slot] for slot in fallback_slots],
                image.shape, matcher.zero_mean,
                backend=self.backend,
                dtype=self.dtype,
            )
            for slot, response in zip(
                fallback_slots, _iter_responses(image, fallback_set)
            ):
                row[plan.coarse_indices[slot]] = response.max()
