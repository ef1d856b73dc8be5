"""Array-namespace resolution: numpy by default, CuPy/torch on demand.

The compute core's hot paths (A3's ``2^{2k+2}``-amplitude state walk, the
modular-Horner fingerprint sweeps, the bit-packed classical reductions)
are written against an *array namespace* parameter ``xp`` instead of a
hard-coded ``numpy``.  ``xp`` is anything exposing the small NumPy-like
surface the kernels use — ``asarray`` / ``zeros`` / ``ones`` /
``arange`` / ``abs`` / ``sum`` / ``any`` / ``sqrt`` plus the dtype
constants ``complex128`` / ``float64`` / ``int64`` / ``bool_`` — with
arrays supporting NumPy operator semantics (arithmetic, comparisons,
boolean masking, fancy indexing, ``reshape``).  NumPy and CuPy satisfy
it natively; torch goes through the thin :class:`TorchNamespace`
adapter.

Resolution rules (:func:`resolve_namespace`):

1. an explicit ``name`` argument wins (``ValueError`` for names outside
   :data:`CANDIDATES`);
2. else the ``REPRO_ARRAY_NS`` environment variable, if set;
3. else the first *accelerator* namespace with a visible device, probed
   in :data:`CANDIDATES` order (cupy, then torch);
4. else numpy.

Resolving a namespace that is requested but not usable (library not
installed, or installed without a device) never raises: the returned
namespace degrades to numpy and the returned :class:`NamespaceStatus`
says why, so callers — the ``gpu`` engine backend — can warn once and
keep running with identical counts.  Host-side work (RNG spawning,
per-trial decisions) always stays in numpy; :func:`to_numpy` brings
device results back.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

#: Environment variable forcing the namespace (e.g. ``REPRO_ARRAY_NS=numpy``
#: pins the pure-numpy path even when an accelerator is visible).
ENV_VAR = "REPRO_ARRAY_NS"

#: Recognized namespace names, in auto-resolution preference order
#: (numpy last: it is the fallback, not a preference).
CANDIDATES = ("cupy", "torch", "numpy")


@dataclass(frozen=True)
class NamespaceStatus:
    """One probe result: can this namespace run, and on what device?"""

    name: str
    available: bool
    device: Optional[str]
    detail: str
    memory_bytes: Optional[int] = None

    def describe(self) -> str:
        """One-line human summary for error messages and ``repro info``."""
        if self.available:
            return f"{self.name}: available on {self.device}"
        return f"{self.name}: unavailable ({self.detail})"


class TorchNamespace:
    """NumPy-surface adapter over torch, pinned to one device.

    Only the operations the compute kernels use are adapted; tensors
    themselves already speak the NumPy operator protocol (arithmetic,
    ``%``, comparisons, boolean masks, fancy indexing, ``reshape``).
    """

    name = "torch"

    def __init__(self, torch: Any, device: str) -> None:
        self._torch = torch
        self.device = device
        self.complex128 = torch.complex128
        self.float64 = torch.float64
        self.int64 = torch.int64
        self.bool_ = torch.bool

    def asarray(self, obj: Any, dtype: Any = None) -> Any:
        if isinstance(obj, np.ndarray) and not obj.flags.writeable:
            # as_tensor on a read-only numpy array warns; copy first.
            obj = obj.copy()
        return self._torch.as_tensor(obj, dtype=dtype, device=self.device)

    def zeros(self, shape: Any, dtype: Any = None) -> Any:
        return self._torch.zeros(tuple(shape) if not isinstance(shape, int) else shape,
                                 dtype=dtype, device=self.device)

    def ones(self, shape: Any, dtype: Any = None) -> Any:
        return self._torch.ones(tuple(shape) if not isinstance(shape, int) else shape,
                                dtype=dtype, device=self.device)

    def arange(self, n: int, dtype: Any = None) -> Any:
        return self._torch.arange(n, dtype=dtype, device=self.device)

    def abs(self, x: Any) -> Any:
        return self._torch.abs(x)

    def sqrt(self, x: Any) -> Any:
        return self._torch.sqrt(x)

    def any(self, x: Any) -> Any:
        return self._torch.any(x)

    def sum(self, x: Any, axis: Optional[int] = None) -> Any:
        if axis is None:
            return self._torch.sum(x)
        return self._torch.sum(x, dim=axis)


def _probe_numpy() -> NamespaceStatus:
    return NamespaceStatus("numpy", True, "cpu", "always available")


def _probe_cupy() -> NamespaceStatus:
    try:
        import cupy  # type: ignore[import-not-found]
    except Exception as exc:  # repro-lint: disable=broad-except -- probe boundary: any import failure (including a broken CUDA install) means "unavailable"
        return NamespaceStatus("cupy", False, None, f"not importable: {exc}")
    try:
        count = int(cupy.cuda.runtime.getDeviceCount())
        if count < 1:
            return NamespaceStatus("cupy", False, None, "no CUDA device visible")
        device = cupy.cuda.Device()
        free, _total = device.mem_info
        return NamespaceStatus(
            "cupy", True, f"cuda:{int(device.id)}", "ready", memory_bytes=int(free)
        )
    except Exception as exc:  # repro-lint: disable=broad-except -- probe boundary: a broken driver degrades to "unavailable", never a crash
        return NamespaceStatus("cupy", False, None, f"device probe failed: {exc}")


def _probe_torch() -> NamespaceStatus:
    try:
        import torch  # type: ignore[import-not-found]
    except Exception as exc:  # repro-lint: disable=broad-except -- probe boundary: any import failure means "unavailable"
        return NamespaceStatus("torch", False, None, f"not importable: {exc}")
    try:
        if not torch.cuda.is_available():
            # MPS is excluded deliberately: the kernels are complex128
            # and float64, which the MPS backend does not support.
            return NamespaceStatus(
                "torch", False, None, "installed, but no CUDA device visible"
            )
        index = int(torch.cuda.current_device())
        free, _total = torch.cuda.mem_get_info(index)
        return NamespaceStatus(
            "torch", True, f"cuda:{index}", "ready", memory_bytes=int(free)
        )
    except Exception as exc:  # repro-lint: disable=broad-except -- probe boundary: a broken driver degrades to "unavailable", never a crash
        return NamespaceStatus("torch", False, None, f"device probe failed: {exc}")


_PROBES = {"numpy": _probe_numpy, "cupy": _probe_cupy, "torch": _probe_torch}

#: Probe results are cached per process (importing torch/cupy is slow
#: and availability does not change mid-run); tests clear this.
_STATUS_CACHE: Dict[str, NamespaceStatus] = {}

_NAMESPACE_CACHE: Dict[str, Any] = {}


def clear_probe_cache() -> None:
    """Forget cached probes (tests that fake availability use this)."""
    _STATUS_CACHE.clear()
    _NAMESPACE_CACHE.clear()


def probe_namespace(name: str) -> NamespaceStatus:
    """Availability / device status of one candidate namespace (cached)."""
    if name not in _PROBES:
        raise ValueError(
            f"unknown array namespace {name!r}; candidates: {', '.join(CANDIDATES)}"
        )
    status = _STATUS_CACHE.get(name)
    if status is None:
        status = _STATUS_CACHE[name] = _PROBES[name]()
    return status


def namespace_status() -> Dict[str, NamespaceStatus]:
    """Probe every candidate; keyed by name (cupy, torch, numpy)."""
    return {name: probe_namespace(name) for name in CANDIDATES}


def _materialize(status: NamespaceStatus) -> Any:
    """The namespace object for an *available* status."""
    cached = _NAMESPACE_CACHE.get(status.name)
    if cached is not None:
        return cached
    if status.name == "numpy":
        ns: Any = np
    elif status.name == "cupy":
        import cupy  # type: ignore[import-not-found]

        ns = cupy
    else:
        import torch  # type: ignore[import-not-found]

        ns = TorchNamespace(torch, status.device or "cuda")
    _NAMESPACE_CACHE[status.name] = ns
    return ns


def resolve_namespace(name: Optional[str] = None) -> Tuple[Any, NamespaceStatus]:
    """Resolve ``(xp, status)`` per the module rules; never raises for
    an unavailable (but recognized) request — it degrades to numpy with
    the failed probe's status, so the caller can warn and continue.
    """
    if name is None:
        name = os.environ.get(ENV_VAR) or None
    if name is not None:
        status = probe_namespace(name)  # ValueError on unknown names
        if status.available:
            return _materialize(status), status
        return np, status
    for candidate in CANDIDATES:
        if candidate == "numpy":
            break
        status = probe_namespace(candidate)
        if status.available:
            return _materialize(status), status
    status = probe_namespace("numpy")
    return np, status


def namespace_name(xp: Any) -> str:
    """Stable name of a namespace object (cache keys, records)."""
    if xp is None or xp is np:
        return "numpy"
    name = getattr(xp, "name", None)  # TorchNamespace and test shims
    if isinstance(name, str):
        return name
    return getattr(xp, "__name__", type(xp).__name__)


def to_numpy(arr: Any) -> np.ndarray:
    """Bring a device array back to host numpy (numpy passes through)."""
    if isinstance(arr, np.ndarray):
        return arr
    getter = getattr(arr, "get", None)  # cupy
    if callable(getter):
        return getter()
    if hasattr(arr, "detach"):  # torch
        return arr.detach().cpu().numpy()
    return np.asarray(arr)
