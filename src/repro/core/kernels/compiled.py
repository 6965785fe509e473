"""ctypes binding for the compiled decision kernel (``_kernels.c``).

Loads the shared object built by :mod:`repro.core.kernels.build` and
exposes the same interface as :mod:`repro.core.kernels.pykernels`, plus
:meth:`CompiledKernels.admit_batch` — the one-call batched admission
loop.  All array arguments are contiguous NumPy arrays passed by raw
pointer; the C side never allocates, so ownership stays entirely with
the caller.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

from repro.core.kernels.build import ABI_VERSION, ensure_built, notice
from repro.errors import ConfigurationError

__all__ = ["CompiledKernels", "load"]

_c_double_p = ctypes.POINTER(ctypes.c_double)
_c_int64_p = ctypes.POINTER(ctypes.c_int64)
_F64 = np.dtype(np.float64)
_I64 = np.dtype(np.int64)

#: ``repro_admit_batch`` parameters in C order: the dtype of each array,
#: ``None`` for an ``int64`` scalar.
_BATCH_PARAMS = (
    ("times_buf", _F64), ("avail_buf", _I64), ("prefix_buf", _F64),
    ("scratch_times", _F64), ("scratch_avail", _I64), ("buf_cap", None),
    ("prof_state", _I64), ("capacity", None), ("n_jobs", None),
    ("releases", _F64), ("job_chain_off", _I64), ("chain_task_off", _I64),
    ("task_procs", _I64), ("task_dur", _F64), ("task_deadline", _F64),
    ("task_quality", _F64), ("policy", None), ("use_dup", None),
    ("use_dom", None), ("use_cap", None), ("do_compact", None),
    ("max_chains", None), ("max_tasks", None), ("dscratch", _F64),
    ("iscratch", _I64), ("out_chain", _I64), ("out_starts", _F64),
    ("counters", _I64),
)

#: Zero-length byte array type: ``from_buffer`` on it yields an array's
#: data address, refusing buffers that are not writable and C-contiguous.
_AT = ctypes.c_char * 0


def _dp(arr: np.ndarray):
    return arr.ctypes.data_as(_c_double_p)


def _ip(arr: np.ndarray):
    return arr.ctypes.data_as(_c_int64_p)


class CompiledKernels:
    """Thin, stateless wrapper around the loaded shared object."""

    compiled = True
    supports_batch = True

    def __init__(self, path: Path) -> None:
        self.path = path
        lib = ctypes.CDLL(str(path))
        lib.repro_abi_version.restype = ctypes.c_int64
        lib.repro_abi_version.argtypes = ()
        lib.repro_earliest_fit.restype = ctypes.c_int64
        lib.repro_earliest_fit.argtypes = (
            _c_double_p, _c_int64_p, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_int64, ctypes.c_double, ctypes.c_double, ctypes.c_double,
            _c_double_p, _c_int64_p,
        )
        lib.repro_range_min.restype = ctypes.c_int64
        lib.repro_range_min.argtypes = (
            _c_int64_p, ctypes.c_int64, ctypes.c_int64,
        )
        lib.repro_admit_batch.restype = ctypes.c_int64
        lib.repro_admit_batch.argtypes = tuple(
            ctypes.c_int64 if dtype is None else ctypes.c_void_p
            for _, dtype in _BATCH_PARAMS
        )
        self._lib = lib
        got = int(lib.repro_abi_version())
        if got != ABI_VERSION:
            raise ConfigurationError(
                f"compiled kernel ABI {got} != expected {ABI_VERSION} "
                f"({path}); rebuild with python -m repro.core.kernels --build --force"
            )

    # -- scan back-end protocol (mirrors pykernels) --------------------

    def earliest_fit_arrays(
        self,
        times: np.ndarray,
        avail: np.ndarray,
        n: int,
        i: int,
        processors: int,
        duration: float,
        release: float,
        deadline: float,
    ) -> tuple[float | None, int]:
        out_start = ctypes.c_double()
        out_scanned = ctypes.c_int64()
        found = self._lib.repro_earliest_fit(
            _dp(times), _ip(avail), n, i, processors, duration, release,
            deadline, ctypes.byref(out_start), ctypes.byref(out_scanned),
        )
        return (out_start.value if found else None), out_scanned.value

    def range_min(self, avail: np.ndarray, lo: int, hi: int) -> int:
        return int(self._lib.repro_range_min(_ip(avail), lo, hi))

    # -- batched admission ---------------------------------------------

    def admit_batch(self, **kw) -> int:
        """Raw batched admission call; see ``_kernels.c`` for the layout.

        Keyword names match the C parameter names one-to-one.  Returns
        the C status code (0 = OK); :mod:`repro.core.kernels.batch` owns
        buffer preparation and write-back.  Arrays that are not 1-D,
        writable, C-contiguous, of their dtype and long enough
        (:func:`_check_batch_lengths`) raise ``ValueError`` before C runs.
        """
        _check_batch_lengths(kw)
        return int(self._lib.repro_admit_batch(*[
            kw[name] if dtype is None else _address(name, kw[name], dtype)
            for name, dtype in _BATCH_PARAMS
        ]))


def _address(name: str, arr: np.ndarray, dtype: np.dtype) -> int:
    if not (
        isinstance(arr, np.ndarray) and arr.ndim == 1
        and (arr.dtype is dtype or arr.dtype == dtype)
    ):
        raise ValueError(f"admit_batch: {name} must be a 1-D {dtype} ndarray")
    try:
        return ctypes.addressof(_AT.from_buffer(arr))
    except TypeError as exc:  # read-only or not C-contiguous
        raise ValueError(f"admit_batch: {name}: {exc}") from exc


def _check_batch_lengths(kw: dict) -> None:
    """Check, O(1) each, that arrays hold what C indexes: by ``n_jobs``,
    ``buf_cap``, the chain and task counts (the last offsets) and
    ``max_chains × max_tasks``.  Monotone offsets and fan-outs within those
    maxima stay the caller's contract (:func:`flatten_jobs` keeps it)."""

    def need(name: str, length: int):
        arr = kw[name]
        if len(arr) < length:
            raise ValueError(
                f"admit_batch: {name} has {len(arr)} elements, needs {length}"
            )
        return arr

    n_jobs, cap = kw["n_jobs"], kw["buf_cap"]
    mc, mt = kw["max_chains"], kw["max_tasks"]
    if min(n_jobs, cap, mc, mt) < 0:
        raise ValueError("admit_batch: negative size argument")
    for name, length in (
        ("times_buf", cap), ("avail_buf", cap), ("prefix_buf", cap),
        ("scratch_times", cap + 4), ("scratch_avail", cap + 4),
        ("releases", n_jobs), ("out_chain", n_jobs), ("counters", 12),
        ("dscratch", mc * mt + 3 * mc + mt), ("iscratch", 4 * mc),
    ):
        need(name, length)
    lo, n = (int(v) for v in need("prof_state", 2)[:2])
    if not 0 <= lo <= lo + n <= cap:
        raise ValueError(f"admit_batch: profile window [{lo}, {lo + n}) past buf_cap")
    n_chains = int(need("job_chain_off", n_jobs + 1)[n_jobs])
    n_tasks = int(need("chain_task_off", max(n_chains, 0) + 1)[n_chains])
    if min(n_chains, n_tasks) < 0:
        raise ValueError("admit_batch: negative chain or task count")
    for name in ("task_procs", "task_dur", "task_deadline", "task_quality",
                 "out_starts"):
        need(name, n_tasks)


_loaded: CompiledKernels | None = None


def load() -> CompiledKernels:
    """Build (if stale) and load the compiled kernel, cached per process.

    A cached artifact can be unloadable even when its mtime looks fresh:
    an interrupted build left a truncated ``.so`` (``CDLL`` raises
    ``OSError``) or an upgrade changed the ABI stamp
    (:class:`~repro.errors.ConfigurationError`).  Both trigger exactly
    one clean forced rebuild, announced with a ``::notice`` annotation —
    never a hard crash.  If even the rebuilt object cannot be loaded the
    failure is normalized to :class:`~repro.errors.ConfigurationError`
    so ``REPRO_KERNEL=auto`` falls back to the Python kernels.
    """
    global _loaded
    if _loaded is None:
        path = ensure_built()
        try:
            _loaded = CompiledKernels(path)
        except (OSError, ConfigurationError) as exc:
            notice(
                f"kernel artifact {path} is stale or corrupt ({exc}); "
                "rebuilding"
            )
            try:
                _loaded = CompiledKernels(ensure_built(force=True))
            except OSError as rebuilt_exc:
                raise ConfigurationError(
                    f"rebuilt kernel at {path} still fails to load: "
                    f"{rebuilt_exc}"
                ) from rebuilt_exc
    return _loaded
