"""ctypes binding for the compiled decision kernel (``_kernels.c``).

Loads the shared object built by :mod:`repro.core.kernels.build` and
exposes the same interface as :mod:`repro.core.kernels.pykernels`, plus
:meth:`CompiledKernels.admit_batch` — the one-call batched admission
loop over a :class:`BatchWorkspace`.  The C side never allocates, so
ownership stays entirely with the caller.

Every entry point crosses one checked boundary.  An array reaches C only
as the address :func:`_address` takes from it, which refuses anything
that is not a 1-D, writable, C-contiguous ndarray of the expected dtype;
every index and length C will use is checked against the arrays' sizes
first.  Each check is O(1), and a failed one raises ``ValueError``
before C runs.  The serial probes check their two arrays per call; the
batch workspace checks each array once, when it is allocated, and then
reuses its cached address.
"""

from __future__ import annotations

import ctypes
import operator
from pathlib import Path

import numpy as np

from repro.core.kernels.build import ABI_VERSION, ensure_built, notice
from repro.errors import ConfigurationError

__all__ = ["BatchWorkspace", "CompiledKernels", "load"]

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
    ("counters", _I64), ("quality_mode", None), ("quality_acc", _F64),
)
_BATCH_ARRAYS = {name: dtype for name, dtype in _BATCH_PARAMS if dtype is not None}

#: The batch arrays by the size that bounds them, each with how many
#: elements past that size C touches; ``iscratch`` and ``dscratch`` are
#: sized by :func:`_scratch_sizes`.
_SIZED = {
    "buf_cap": (("times_buf", 0), ("avail_buf", 0), ("prefix_buf", 0),
                ("scratch_times", 4), ("scratch_avail", 4)),
    "n_jobs": (("releases", 0), ("out_chain", 0), ("job_chain_off", 1)),
    "n_chains": (("chain_task_off", 1),),
    "n_tasks": (("task_procs", 0), ("task_dur", 0), ("task_deadline", 0),
                ("task_quality", 0), ("out_starts", 0)),
    "iscratch": (("iscratch", 0),),
    "dscratch": (("dscratch", 0),),
}
#: The fixed-size batch arrays and their lengths.
_FIXED = {"prof_state": 2, "counters": 12, "quality_acc": 2}

#: ``quality_mode`` codes of ``_kernels.c``.
QUALITY_NONE, QUALITY_PRODUCT, QUALITY_MIN = 0, 1, 2

#: Zero-length byte array type: ``from_buffer`` on it yields an array's
#: data address, refusing buffers that are not writable and C-contiguous.
_AT = ctypes.c_char * 0


class _ProbeOut(ctypes.Structure):
    """The two outputs of ``repro_earliest_fit``, filled in place by C."""

    _fields_ = (("start", ctypes.c_double), ("scanned", ctypes.c_int64))


_SCANNED_OFFSET = _ProbeOut.scanned.offset


def _address(name: str, arr: np.ndarray, dtype: np.dtype) -> int:
    """The data address of ``arr``, or ``ValueError`` naming ``name`` if
    it is not a 1-D, writable, C-contiguous ndarray of ``dtype``."""
    if not (
        isinstance(arr, np.ndarray) and arr.ndim == 1
        and (arr.dtype is dtype or arr.dtype == dtype)
    ):
        raise ValueError(f"{name} must be a 1-D {dtype} ndarray")
    try:
        return ctypes.addressof(_AT.from_buffer(arr))
    except TypeError as exc:  # read-only or not C-contiguous
        raise ValueError(f"{name}: {exc}") from exc


class CompiledKernels:
    """Thin, stateless wrapper around the loaded shared object."""

    compiled = True
    supports_batch = True

    def __init__(self, path: Path) -> None:
        self.path = path
        lib = ctypes.CDLL(str(path))
        i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
        lib.repro_abi_version.restype = i64
        lib.repro_abi_version.argtypes = ()
        lib.repro_earliest_fit.restype = i64
        lib.repro_earliest_fit.argtypes = (
            ptr, ptr, i64, i64, i64, f64, f64, f64, ptr, ptr,
        )
        lib.repro_range_min.restype = i64
        lib.repro_range_min.argtypes = (ptr, i64, i64)
        lib.repro_admit_batch.restype = i64
        lib.repro_admit_batch.argtypes = tuple(
            i64 if dtype is None else ptr for _, dtype in _BATCH_PARAMS
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
        times_at = _address("earliest_fit: times", times, _F64)
        avail_at = _address("earliest_fit: avail", avail, _I64)
        if not 0 <= i < n <= len(times) == len(avail):
            raise ValueError(
                f"earliest_fit: need 0 <= i < n <= len(times) == len(avail), "
                f"got i={i}, n={n}, {len(times)} times, {len(avail)} avail"
            )
        out = _ProbeOut()
        out_at = ctypes.addressof(out)
        found = self._lib.repro_earliest_fit(
            times_at, avail_at, n, i, processors, duration, release,
            deadline, out_at, out_at + _SCANNED_OFFSET,
        )
        return (out.start if found else None), out.scanned

    def range_min(self, avail: np.ndarray, lo: int, hi: int) -> int:
        avail_at = _address("range_min: avail", avail, _I64)
        if not 0 <= lo < hi <= len(avail):
            raise ValueError(
                f"range_min: need 0 <= lo < hi <= len(avail), "
                f"got lo={lo}, hi={hi}, {len(avail)} avail"
            )
        return self._lib.repro_range_min(avail_at, lo, hi)

    # -- batched admission ---------------------------------------------

    def admit_batch(self, ws: "BatchWorkspace", **kw: int) -> int:
        """Raw batched admission call over ``ws``; see ``_kernels.c``.

        Keyword names match the C scalar parameter names one-to-one; the
        arrays are ``ws``'s.  Returns the C status code (0 = OK);
        :mod:`repro.core.kernels.batch` fills the workspace and writes
        the results back.  Sizes the arrays cannot hold
        (:func:`_check_batch_lengths`) raise ``ValueError`` before C runs.
        """
        _check_batch_lengths(ws, kw)
        addresses = ws._addresses  # noqa: SLF001 - the workspace's own cache
        return self._lib.repro_admit_batch(*[
            kw[name] if dtype is None else addresses[name]
            for name, dtype in _BATCH_PARAMS
        ])


class BatchWorkspace:
    """Every array ``repro_admit_batch`` touches, resident across calls.

    One per arbitrator (ctypes releases the GIL during the call, so two
    arbitrators must never share buffers).  The profile, job, chain,
    task and fan-out buffers each grow geometrically on demand
    (:meth:`reserve`); every array enters through :meth:`bind`, which
    validates it with :func:`_address` once and caches its address and
    length for the C call.  The arrays are exposed as read-only
    attributes of the same names as the C parameters; callers write
    into them, never rebind them.  Copying or pickling a workspace
    yields an empty one: cached addresses must never outlive their
    arrays or be shared.
    """

    __slots__ = ("_addresses", "_lengths", *(f"_{n}" for n in _BATCH_ARRAYS))

    def __init__(self) -> None:
        self._addresses: dict[str, int] = {}
        self._lengths: dict[str, int] = {}
        for name, dtype in _BATCH_ARRAYS.items():
            self.bind(name, np.zeros(_FIXED.get(name, 0), dtype=dtype))

    def __reduce__(self):
        return (BatchWorkspace, ())

    def bind(self, name: str, arr: np.ndarray) -> None:
        """Make ``arr`` the workspace's ``name`` array (validated here)."""
        dtype = _BATCH_ARRAYS[name]
        address = _address(f"admit_batch: {name}", arr, dtype)
        setattr(self, f"_{name}", arr)  # keeps the array alive
        self._addresses[name] = address
        self._lengths[name] = len(arr)

    def reserve(
        self, buf_cap: int, n_jobs: int, n_chains: int, n_tasks: int,
        max_chains: int, max_tasks: int,
    ) -> None:
        """Grow (doubling at least) whatever cannot hold this batch."""
        iscratch, dscratch = _scratch_sizes(max_chains, max_tasks)
        for size, arrays in (
            (buf_cap, _SIZED["buf_cap"]), (n_jobs, _SIZED["n_jobs"]),
            (n_chains, _SIZED["n_chains"]), (n_tasks, _SIZED["n_tasks"]),
            (iscratch, _SIZED["iscratch"]), (dscratch, _SIZED["dscratch"]),
        ):
            first, extra = arrays[0]
            have = self._lengths[first] - extra
            if have < size:
                size = max(size, 2 * have)
                for name, extra in arrays:
                    self.bind(name, np.empty(size + extra, dtype=_BATCH_ARRAYS[name]))


for _name in _BATCH_ARRAYS:
    setattr(BatchWorkspace, _name, property(operator.attrgetter(f"_{_name}")))
del _name


def _scratch_sizes(max_chains: int, max_tasks: int) -> tuple[int, int]:
    """Lengths of ``iscratch`` and ``dscratch`` (see ``_kernels.c``)."""
    return 4 * max_chains, max_chains * max_tasks + 3 * max_chains + max_tasks


def _check_batch_lengths(ws: BatchWorkspace, kw: dict) -> None:
    """Check, O(1) each, that the workspace arrays hold what C indexes: by
    ``n_jobs``, ``buf_cap``, the chain and task counts (the last offsets)
    and ``max_chains × max_tasks``.  Monotone offsets and fan-outs within
    those maxima stay the caller's contract (:func:`flatten_jobs` keeps
    it)."""
    lengths = ws._lengths  # noqa: SLF001 - the workspace's own cache
    n_jobs, cap = kw["n_jobs"], kw["buf_cap"]
    mc, mt = kw["max_chains"], kw["max_tasks"]
    if min(n_jobs, cap, mc, mt) < 0:
        raise ValueError("admit_batch: negative size argument")
    iscratch, dscratch = _scratch_sizes(mc, mt)
    _need(lengths, _FIXED.items(), 0)
    _need(lengths, _SIZED["buf_cap"], cap)
    _need(lengths, _SIZED["n_jobs"], n_jobs)
    _need(lengths, _SIZED["iscratch"], iscratch)
    _need(lengths, _SIZED["dscratch"], dscratch)
    prof_state = ws.prof_state
    lo, n = prof_state.item(0), prof_state.item(1)
    if not 0 <= lo <= lo + n <= cap:
        raise ValueError(f"admit_batch: profile window [{lo}, {lo + n}) past buf_cap")
    n_chains = ws.job_chain_off.item(n_jobs)
    if n_chains < 0:
        raise ValueError("admit_batch: negative chain or task count")
    _need(lengths, _SIZED["n_chains"], n_chains)
    n_tasks = ws.chain_task_off.item(n_chains)
    if n_tasks < 0:
        raise ValueError("admit_batch: negative chain or task count")
    _need(lengths, _SIZED["n_tasks"], n_tasks)


def _need(lengths: dict[str, int], arrays, size: int) -> None:
    """Raise unless each ``(name, extra)`` array holds ``size + extra``."""
    for name, extra in arrays:
        if lengths[name] < size + extra:
            raise ValueError(
                f"admit_batch: {name} has {lengths[name]} elements, "
                f"needs {size + extra}"
            )


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
