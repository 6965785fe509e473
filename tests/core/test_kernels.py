"""The decision-kernel layer: selection, build, and bit-identity.

Three layers of guarantees:

* **selection** — ``REPRO_KERNEL`` validation, the ``set_kernel``/``use``
  override used by benchmarks, the fallback counter, and the
  ``kernel_backend`` / ``kernel_fallbacks`` fields of ``perf_snapshot``;
* **build** — the on-demand C build is cached by mtime and stamps an ABI
  version that the ctypes binding refuses to load when mismatched;
* **bit-identity** — the compiled kernels return *identical* decisions
  (and identical floats) to the pure-Python implementation and to the
  scalar reference walk, on randomized fragmented profiles.  Compiled
  cases are skipped (not silently passed) when no compiler is present.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.core import kernels
from repro.core.arbitrator import QoSArbitrator
from repro.core.first_fit import earliest_fit
from repro.core.kernels import build, pykernels
from repro.core.profile import AvailabilityProfile
from repro.errors import ConfigurationError


def _have_compiled() -> bool:
    try:
        with kernels.use("compiled"):
            return True
    except ConfigurationError:
        return False


needs_compiled = pytest.mark.skipif(
    not _have_compiled(), reason="no C compiler / compiled kernel available"
)


def _fragmented_profile(rng: random.Random, capacity: int = 16):
    profile = AvailabilityProfile(capacity)
    for _ in range(rng.randint(0, 30)):
        t0 = rng.randrange(0, 40) * 0.25
        t1 = t0 + rng.randrange(1, 12) * 0.25
        avail = profile.min_available(t0, t1)
        if avail:
            profile.reserve(t0, t1, rng.randint(1, avail))
    return profile


# -- selection ---------------------------------------------------------


def test_requested_mode_rejects_unknown(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "turbo")
    with pytest.raises(ConfigurationError):
        kernels.requested_mode()


def test_use_restores_previous_mode():
    before = kernels.kernel_backend()
    with kernels.use("python"):
        assert kernels.kernel_backend() == "python"
        assert kernels.active() is pykernels
    assert kernels.kernel_backend() == before


def test_note_fallback_counts_and_surfaces_in_perf_snapshot():
    before = kernels.stats.fallbacks
    kernels.note_fallback("unit-test fallback")
    assert kernels.stats.fallbacks == before + 1
    assert kernels.stats.last_reason == "unit-test fallback"
    snap = QoSArbitrator(8).perf_snapshot()
    assert snap["kernel_backend"] in ("compiled", "python")
    assert snap["kernel_fallbacks"] >= before + 1


def test_python_kernels_do_not_support_batch():
    assert pykernels.compiled is False
    assert pykernels.supports_batch is False


# -- build / ABI -------------------------------------------------------


@needs_compiled
def test_build_is_cached_and_abi_stamped():
    path = build.ensure_built()
    assert path.exists()
    # a second call must be a no-op returning the same artifact
    assert build.ensure_built() == path
    from repro.core.kernels import compiled

    lib = compiled.load()
    assert int(lib._lib.repro_abi_version()) == build.ABI_VERSION
    assert lib.compiled is True and lib.supports_batch is True


def test_missing_compiler_raises_configuration_error(monkeypatch):
    monkeypatch.setattr(build, "find_compiler", lambda: None)
    monkeypatch.setattr(
        build.Path, "exists", lambda self: False, raising=False
    )
    with pytest.raises(ConfigurationError):
        build.ensure_built()


# -- bit-identity ------------------------------------------------------


def test_free_area_prefix_matches_scalar_loop():
    rng = random.Random(7)
    for _ in range(50):
        profile = _fragmented_profile(rng)
        times, avail = profile._mirrors()  # noqa: SLF001
        got = kernels.free_area_prefix(times, avail)
        acc, expect = 0.0, [0.0]
        for k in range(1, len(profile._times)):  # noqa: SLF001
            acc += profile._avail[k - 1] * (  # noqa: SLF001
                profile._times[k] - profile._times[k - 1]  # noqa: SLF001
            )
            expect.append(acc)
        assert got.tolist() == expect  # bit-exact, not approx


@needs_compiled
def test_compiled_matches_python_kernels_on_random_probes():
    from repro.core.kernels import compiled

    clib = compiled.load()
    rng = random.Random(11)
    for _ in range(200):
        profile = _fragmented_profile(rng)
        times, avail = profile._mirrors()  # noqa: SLF001
        n = len(profile._times)  # noqa: SLF001
        i = rng.randrange(0, n)
        procs = rng.randint(1, profile.capacity)
        dur = rng.randrange(1, 10) * 0.25
        release = float(times[i])
        deadline = release + rng.randrange(1, 40) * 0.5
        c_start, _ = clib.earliest_fit_arrays(
            times, avail, n, i, procs, dur, release, deadline
        )
        p_start, _ = pykernels.earliest_fit_arrays(
            times, avail, n, i, procs, dur, release, deadline
        )
        assert c_start == p_start  # exact float equality or both None
        lo = rng.randrange(0, n)
        hi = rng.randrange(lo + 1, n + 1)
        assert clib.range_min(avail, lo, hi) == pykernels.range_min(
            avail, lo, hi
        )


@needs_compiled
def test_kernel_backend_decisions_match_scalar_reference():
    rng = random.Random(23)
    for _ in range(60):
        seed = rng.randrange(1 << 30)
        case_rng = random.Random(seed)
        starts = {}
        for kmode in ("compiled", "python"):
            with kernels.use(kmode):
                prof_rng = random.Random(seed)
                scalar = _fragmented_profile(prof_rng, capacity=16)
                kernel = scalar.copy()
                kernel._backend = "kernel"  # noqa: SLF001
                procs = case_rng.randint(1, 16)
                dur = case_rng.randrange(1, 12) * 0.25
                release = case_rng.randrange(0, 30) * 0.5
                deadline = release + case_rng.randrange(1, 50) * 0.5
                want = earliest_fit(scalar, procs, dur, release, deadline)
                got = earliest_fit(kernel, procs, dur, release, deadline)
                assert got == want
                starts[kmode] = want
            case_rng = random.Random(seed)  # same probe for both modes
        assert starts["compiled"] == starts["python"]


def test_range_min_matches_python_min():
    rng = random.Random(3)
    avail = np.array([rng.randint(0, 9) for _ in range(64)], dtype=np.int64)
    for _ in range(100):
        lo = rng.randrange(0, 64)
        hi = rng.randrange(lo + 1, 65)
        assert kernels.active().range_min(avail, lo, hi) == min(
            avail[lo:hi].tolist()
        )


def test_earliest_fit_arrays_infinite_tail():
    # the last segment extends to +inf: any fit starting there succeeds
    times = np.array([0.0, 1.0], dtype=np.float64)
    avail = np.array([0, 4], dtype=np.int64)
    start, _ = kernels.active().earliest_fit_arrays(
        times, avail, 2, 0, 2, 100.0, 0.0, math.inf
    )
    assert start == 1.0


# -- the ctypes boundary ---------------------------------------------------


def _spy_library(monkeypatch, impl) -> list:
    """Swap ``impl``'s shared object for one that records every C call."""
    calls: list = []

    class Spy:
        def __getattr__(self, name):
            return lambda *args: calls.append((name, args))

    monkeypatch.setattr(impl, "_lib", Spy())
    return calls


def _probe_arrays():
    times = np.array([0.0, 1.0, 2.0, 3.0], dtype=np.float64)
    avail = np.array([4, 0, 4, 2], dtype=np.int64)
    return times, avail


def _read_only(arr):
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


#: Serial-probe arguments ``(times, avail, n, i)``, each malformed in one way.
_BAD_PROBES = {
    "wrong-dtype-times": lambda t, a: (t.astype(np.float32), a, 4, 0),
    "wrong-dtype-avail": lambda t, a: (t, a.astype(np.int32), 4, 0),
    "read-only": lambda t, a: (_read_only(t), a, 4, 0),
    "non-contiguous": lambda t, a: (np.repeat(t, 2)[::2], a, 4, 0),
    "i-at-n": lambda t, a: (t, a, 3, 3),
    "negative-i": lambda t, a: (t, a, 4, -1),
    "n-past-times": lambda t, a: (t, a, 5, 0),
    "mismatched-lengths": lambda t, a: (t, a[:3].copy(), 3, 0),
}


@needs_compiled
@pytest.mark.parametrize("case", sorted(_BAD_PROBES))
def test_earliest_fit_rejects_malformed_arguments_before_running_c(
    monkeypatch, case
):
    from repro.core.kernels import compiled

    impl = compiled.load()
    times, avail, n, i = _BAD_PROBES[case](*_probe_arrays())
    calls = _spy_library(monkeypatch, impl)
    with pytest.raises(ValueError, match="earliest_fit"):
        impl.earliest_fit_arrays(times, avail, n, i, 1, 1.0, 0.0, math.inf)
    assert calls == []  # C never saw the probe


#: ``range_min`` arguments ``(avail, lo, hi)``, each malformed in one way.
_BAD_RANGES = {
    "wrong-dtype": lambda a: (a.astype(np.float64), 0, 2),
    "read-only": lambda a: (_read_only(a), 0, 2),
    "non-contiguous": lambda a: (np.repeat(a, 2)[::2], 0, 2),
    "lo-equals-hi": lambda a: (a, 2, 2),
    "lo-above-hi": lambda a: (a, 3, 1),
    "negative-lo": lambda a: (a, -1, 2),
    "hi-past-avail": lambda a: (a, 0, 5),
}


@needs_compiled
@pytest.mark.parametrize("case", sorted(_BAD_RANGES))
def test_range_min_rejects_malformed_arguments_before_running_c(
    monkeypatch, case
):
    from repro.core.kernels import compiled

    impl = compiled.load()
    avail, lo, hi = _BAD_RANGES[case](_probe_arrays()[1])
    calls = _spy_library(monkeypatch, impl)
    with pytest.raises(ValueError, match="range_min"):
        impl.range_min(avail, lo, hi)
    assert calls == []


@needs_compiled
def test_serial_probes_accept_views_and_full_windows():
    from repro.core.kernels import compiled

    impl = compiled.load()
    times, avail = _probe_arrays()
    # The profile's mirrors are often views after a compaction.
    start, scanned = impl.earliest_fit_arrays(
        times[1:], avail[1:], 3, 0, 4, 0.5, 1.0, math.inf
    )
    assert (start, scanned) == (2.0, 2)
    assert impl.range_min(avail, 0, 4) == 0
    assert impl.range_min(avail[2:], 0, 2) == 2


def _captured_admit_batch_args(monkeypatch):
    """The workspace and scalar arguments of one real compiled call."""
    from repro.core.kernels import compiled
    from repro.workloads.synthetic import SyntheticParams

    captured = {}
    real = compiled._check_batch_lengths

    def record(ws, kw):
        captured.update(ws=ws, kw=dict(kw))
        real(ws, kw)

    monkeypatch.setattr(compiled, "_check_batch_lengths", record)
    params = SyntheticParams(x=16, t=25.0, alpha=0.5, laxity=0.5)
    with kernels.use("compiled"):
        arbitrator = QoSArbitrator(16)
        arbitrator.admit_batch([params.tunable_job(float(i)) for i in range(6)])
        impl = kernels.active()
    monkeypatch.setattr(compiled, "_check_batch_lengths", real)
    assert captured, "the compiled batch path was not taken"
    assert captured["ws"] is arbitrator._batch_workspace  # noqa: SLF001
    return impl, captured["ws"], captured["kw"]


def _n_tasks(ws, kw) -> int:
    return int(ws.chain_task_off[ws.job_chain_off[kw["n_jobs"]]])


def _rebind(name, make):
    """A case that binds a malformed array into the workspace."""

    def apply(ws, kw):
        ws.bind(name, make(ws, kw))
        return kw

    return apply


def _prof_window_past_buf_cap(ws, kw):
    ws.prof_state[:] = (0, kw["buf_cap"] + 1)
    return kw


#: Each malformed in one way; all must be refused before C runs.  The
#: first six fail when the array is bound, the rest at the call.
_MALFORMED = {
    "wrong-dtype-float": _rebind(
        "task_dur", lambda ws, kw: ws.task_dur.astype(np.float32)
    ),
    "wrong-dtype-int": _rebind(
        "task_procs", lambda ws, kw: ws.task_procs.astype(np.int32)
    ),
    "non-contiguous": _rebind(
        "times_buf", lambda ws, kw: np.repeat(ws.times_buf, 2)[::2]
    ),
    "two-dimensional": _rebind(
        "dscratch", lambda ws, kw: ws.dscratch.reshape(1, -1)
    ),
    "read-only": _rebind(
        "counters", lambda ws, kw: np.broadcast_to(ws.counters, 12)
    ),
    "not-an-array": _rebind("releases", lambda ws, kw: ws.releases.tolist()),
    "short-out_starts": _rebind(
        "out_starts", lambda ws, kw: ws.out_starts[: _n_tasks(ws, kw) - 1].copy()
    ),
    "short-out_chain": _rebind(
        "out_chain", lambda ws, kw: np.empty(0, dtype=np.int64)
    ),
    "buf_cap-beyond-buffers": lambda ws, kw: {
        **kw, "buf_cap": len(ws.times_buf) + 1
    },
    "max_chains-too-large": lambda ws, kw: {
        **kw, "max_chains": kw["max_chains"] * 50
    },
    "profile-window-past-buf_cap": _prof_window_past_buf_cap,
}


@needs_compiled
@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_admit_batch_rejects_malformed_arrays_before_running_c(monkeypatch, case):
    impl, ws, kw = _captured_admit_batch_args(monkeypatch)
    calls = _spy_library(monkeypatch, impl)
    with pytest.raises(ValueError, match="admit_batch"):
        impl.admit_batch(ws, **_MALFORMED[case](ws, kw))
    assert calls == []  # C never saw the batch


@needs_compiled
def test_failed_bind_keeps_the_previous_array(monkeypatch):
    _, ws, _ = _captured_admit_batch_args(monkeypatch)
    before = ws.task_dur
    with pytest.raises(ValueError, match="admit_batch: task_dur"):
        ws.bind("task_dur", before.astype(np.float32))
    assert ws.task_dur is before


@needs_compiled
def test_admit_batch_accepts_well_formed_arrays(monkeypatch):
    impl, ws, kw = _captured_admit_batch_args(monkeypatch)
    kw = {**kw, "n_jobs": 0}  # a valid call that commits nothing
    assert impl.admit_batch(ws, **kw) == 0


def test_workspace_copies_are_empty():
    import copy
    import pickle

    from repro.core.kernels.compiled import BatchWorkspace

    ws = BatchWorkspace()
    ws.reserve(64, 4, 8, 16, 2, 8)
    for clone in (copy.copy(ws), copy.deepcopy(ws), pickle.loads(pickle.dumps(ws))):
        assert len(clone.times_buf) == 0  # never the original's buffers
        assert len(clone.counters) == 12
