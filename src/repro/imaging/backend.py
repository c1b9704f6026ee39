"""Pluggable array backends for the match engine's numeric kernel.

The plan/execute split froze everything the hot path shares (pattern
spectra, refinement buffers, window-statistic tables) into read-only plans;
this module is the seam underneath it.  An :class:`ArrayBackend` owns the
four operations that dominate feature-generation cost — ``rfft2``,
``irfft2``, padding-size selection, and the array plumbing around them
(cast, flip, stack) — so the engine can run its transforms on whatever
array library and precision the host offers while every algorithmic
decision stays in one place.

Contract, pinned by ``tests/test_match_engine.py``:

* **The numpy backend is the reference.**  At ``dtype="float64"`` its
  methods are the exact scipy calls the engine made before the seam
  existed, so the default configuration is byte-identical to history.
* **Determinism is per-(backend, dtype).**  Within one combination, a
  :class:`~repro.imaging.engine.MatchEngine`'s output is byte-identical
  across ``n_jobs`` (shared state is still built pre-dispatch and
  frozen).  *Across* backends or dtypes only tolerance-tiered agreement
  holds: ~1e-6 for float64, ~1e-4 for float32, against the naive
  per-call reference.  The pipeline, its profiles and the serving paths
  always run the numpy/float64 reference.
* **Statistics stay float64 on the host.**  Only the transforms run at the
  working dtype; integral-image window sums/energies, kernel energies, and
  the flat-window threshold (:data:`repro.imaging.ncc._ENERGY_EPS`) always
  use the shared float64 helpers in :mod:`repro.imaging.ncc`.  Cumulative
  sums lose precision linearly, and in float32 the ``energy - sum²/n``
  cancellation could flip the flat-window decision on constant regions —
  so precision-critical steps never follow the working dtype.
* **Optional backends register, never import-fail.**  ``torch`` appears
  in :func:`available_backends` only when importable; requesting an
  absent one raises a clear :class:`ValueError` (callers and tests skip,
  nothing crashes at import time).

Backend-native arrays (e.g. torch tensors) live only *inside* plans —
pinned spectra — and in flight between ``rfft2`` and ``to_numpy``; every
seam boundary (inputs, window statistics, finalized responses, the output
matrix) is numpy.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as sp_fft

from repro.imaging.ncc import _finalize_response, _integral_table, _window_sums

__all__ = [
    "WORKING_DTYPES",
    "ArrayBackend",
    "NumpyBackend",
    "available_backends",
    "get_backend",
    "register_backend",
]

# Working precisions the engine accepts.
WORKING_DTYPES = ("float64", "float32")


def check_dtype(dtype: str) -> str:
    """Validate a working-dtype name, returning it for chaining."""
    if dtype not in WORKING_DTYPES:
        raise ValueError(
            f"engine dtype must be one of {WORKING_DTYPES}, got {dtype!r}"
        )
    return dtype


class ArrayBackend:
    """One array library's implementation of the engine's numeric kernel.

    Subclasses provide the transform surface (:meth:`asarray`,
    :meth:`to_numpy`, :meth:`flip2`, :meth:`stack`, :meth:`rfft2`,
    :meth:`irfft2`, :meth:`freeze`); the statistics surface
    (:meth:`integral_table`, :meth:`window_sums`,
    :meth:`finalize_response`) is implemented *here*, once, as thin
    wrappers over the shared float64 numpy helpers — subclasses inherit
    rather than override it, so edge-case semantics can never fork per
    backend.
    """

    name = "abstract"

    # -- transform surface (backend-native arrays, working dtype) ------------

    def asarray(self, values, dtype: str):
        """A backend-native array of ``values`` at working dtype ``dtype``."""
        raise NotImplementedError

    def to_numpy(self, values) -> np.ndarray:
        """The numpy view/copy of a backend-native array (host side)."""
        raise NotImplementedError

    def flip2(self, values):
        """Reverse the trailing two axes (kernel flip for correlation)."""
        raise NotImplementedError

    def stack(self, arrays):
        """Stack same-shape native arrays along a new leading axis."""
        raise NotImplementedError

    def rfft2(self, values, s):
        """Real 2-D FFT over the trailing two axes, zero-padded to ``s``."""
        raise NotImplementedError

    def irfft2(self, values, s):
        """Inverse of :meth:`rfft2` back to a real array of shape ``s``."""
        raise NotImplementedError

    def freeze(self, values) -> None:
        """Best-effort: make a native array immutable (no-op if unsupported)."""

    def next_fast_len(self, n: int) -> int:
        """Smallest efficient FFT length >= ``n``.  scipy's 5-smooth answer
        is a good default for every pocketfft-family library; backends with
        different plan costs may override."""
        return sp_fft.next_fast_len(int(n), True)

    def response_chunk(self, dtype: str) -> int:
        """How many pattern responses to inverse-transform per call.

        Purely an execution knob: batched ``irfft2`` computes each trailing
        2-D slice exactly as a single-slice call would, so any fixed chunk
        yields identical bytes — it only moves the per-call dispatch
        overhead and cache footprint.  Measured on CPU pocketfft, float64
        single transforms are fastest (a 24-slice float64 batch thrashes
        cache for a ~25% loss) while float32 batches amortize the
        dtype-independent dispatch cost for a ~20% win, hence the split
        default.  Device-offload backends override: launch overhead
        dominates there, so batching wins at every dtype.
        """
        return 1 if dtype == "float64" else 8

    # -- statistics surface (always float64 numpy, shared, final) ------------

    def integral_table(self, values: np.ndarray) -> np.ndarray:
        """Float64 integral image(s) of ``values`` (leading axes batch)."""
        return _integral_table(np.asarray(values, dtype=np.float64))

    def window_sums(self, table: np.ndarray, h: int, w: int) -> np.ndarray:
        """All ``h x w`` window sums from an integral table."""
        return _window_sums(table, h, w)

    def finalize_response(
        self, numerator, denom: np.ndarray
    ) -> np.ndarray:
        """Flat-window threshold + [0, 1] clamp, shared with the per-call
        path via :func:`repro.imaging.ncc._finalize_response`."""
        return _finalize_response(self.to_numpy(numerator), denom)


class NumpyBackend(ArrayBackend):
    """The reference backend: scipy.fft on numpy arrays.

    At float64 every method is the literal call the engine made before the
    backend seam existed — ``asarray`` is a no-copy passthrough for float64
    input — so the default path is byte-identical to history.
    """

    name = "numpy"

    def asarray(self, values, dtype: str):
        return np.asarray(values, dtype=dtype)

    def to_numpy(self, values) -> np.ndarray:
        return values

    def flip2(self, values):
        return values[..., ::-1, ::-1]

    def stack(self, arrays):
        return np.stack(list(arrays))

    def rfft2(self, values, s):
        return sp_fft.rfft2(values, s=s, axes=(-2, -1))

    def irfft2(self, values, s):
        return sp_fft.irfft2(values, s=s, axes=(-2, -1))

    def freeze(self, values) -> None:
        values.flags.writeable = False


class TorchBackend(ArrayBackend):
    """torch.fft on CPU or CUDA tensors (registered only when importable).

    Tensors carry no write-protection flag, so :meth:`freeze` is a no-op —
    plan immutability for this backend is a convention enforced by the
    engine never handing native arrays out, not a runtime trap.
    """

    name = "torch"

    def __init__(self):
        import torch

        self._torch = torch
        self.device = torch.device(
            "cuda" if torch.cuda.is_available() else "cpu"
        )
        self._dtypes = {"float64": torch.float64, "float32": torch.float32}

    def asarray(self, values, dtype: str):
        return self._torch.as_tensor(
            np.ascontiguousarray(values),
            dtype=self._dtypes[check_dtype(dtype)],
            device=self.device,
        )

    def to_numpy(self, values) -> np.ndarray:
        if isinstance(values, np.ndarray):
            return values
        return values.detach().cpu().numpy()

    def flip2(self, values):
        return self._torch.flip(values, (-2, -1))

    def stack(self, arrays):
        return self._torch.stack(list(arrays))

    def rfft2(self, values, s):
        return self._torch.fft.rfft2(values, s=tuple(s), dim=(-2, -1))

    def irfft2(self, values, s):
        return self._torch.fft.irfft2(values, s=tuple(s), dim=(-2, -1))

    def response_chunk(self, dtype: str) -> int:
        return 8  # kernel-launch overhead dominates; batch at every dtype


def _make_optional(cls):
    """Factory returning an instance, or ``None`` when the library (or a
    usable device) is absent — skip-not-fail by construction."""

    def factory():
        try:
            return cls()
        except Exception:
            return None

    return factory


_FACTORIES: dict[str, object] = {
    "numpy": NumpyBackend,
    "torch": _make_optional(TorchBackend),
}
_INSTANCES: dict[str, ArrayBackend] = {}


def register_backend(name: str, factory) -> None:
    """Register (or replace) a backend factory under ``name``.

    ``factory`` is called lazily on first :func:`get_backend` and may
    return ``None`` to mean "not available on this host".
    """
    _FACTORIES[str(name)] = factory
    _INSTANCES.pop(str(name), None)


def get_backend(name: str | ArrayBackend = "numpy") -> ArrayBackend:
    """The backend registered under ``name`` (instances pass through).

    Raises :class:`ValueError` for unknown names and for known-but-absent
    optional backends, listing what this host actually offers.
    """
    if isinstance(name, ArrayBackend):
        return name
    if name not in _FACTORIES:
        raise ValueError(
            f"unknown engine backend {name!r}; known backends: "
            f"{sorted(_FACTORIES)}"
        )
    if name not in _INSTANCES:
        instance = _FACTORIES[name]()
        if instance is None:
            raise ValueError(
                f"engine backend {name!r} is not available on this host "
                f"(library missing or no device); available: "
                f"{available_backends()}"
            )
        _INSTANCES[name] = instance
    return _INSTANCES[name]


def available_backends() -> list[str]:
    """Names of backends that actually construct on this host.

    Probes the factories directly rather than via :func:`get_backend` —
    whose absent-backend error message calls *this* function, so routing
    through it would recurse.
    """
    out = []
    for name, factory in _FACTORIES.items():
        if name not in _INSTANCES:
            instance = factory()
            if instance is None:
                continue
            _INSTANCES[name] = instance
        out.append(name)
    return out
