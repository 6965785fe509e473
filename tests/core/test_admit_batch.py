"""``QoSArbitrator.admit_batch``: bit-identical replay of the serial loop.

The equivalence contract (see :mod:`repro.core.kernels.batch`): a batch
produces *exactly* the decisions, profile, and accounting the serial
``submit`` loop produces in arrival order — for every back-end, prune
mode, tie-break policy, kernel implementation, scheduler flavour, and
arbitration objective, including batches interrupted by a
capacity-fault schedule swap from :mod:`repro.resilience`.  Identity is
asserted on full observable state, not just the decision digests.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.arbitrator import ArbitrationObjective, QoSArbitrator
from repro.core.policies import TieBreakPolicy
from repro.core.schedule import Schedule
from repro.core.resources import ProcessorTimeRequest
from repro.errors import ConfigurationError
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.quality import QualityComposition
from repro.model.task import TaskSpec
from repro.resilience.events import CapacityEvent
from repro.service.wal import LedgerEntry, WriteAheadLog
from repro.verify.fuzz import (
    _RANDOM_POLICY_SEED,
    random_case,
    run_case,
    run_case_batch,
)


def _kernel_modes() -> tuple[str, ...]:
    try:
        with kernels.use("compiled"):
            return ("compiled", "python")
    except ConfigurationError:
        return ("python",)


KERNEL_MODES = _kernel_modes()


def _state(arbitrator: QoSArbitrator) -> tuple:
    profile = arbitrator.schedule.profile
    return (
        tuple(profile._times),  # noqa: SLF001 - identity, not API
        tuple(profile._avail),  # noqa: SLF001
        arbitrator.admitted,
        arbitrator.rejected,
        dict(arbitrator.admission.decisions_by_chain),
        arbitrator._quality_sum,  # noqa: SLF001
        arbitrator._quality_possible,  # noqa: SLF001
        arbitrator.utilization(),
    )


@pytest.mark.parametrize("kmode", KERNEL_MODES)
@pytest.mark.parametrize("backend", ("auto", "kernel"))
@pytest.mark.parametrize("prune", (True, False))
@pytest.mark.parametrize("policy", tuple(TieBreakPolicy))
def test_batch_identical_to_serial_across_matrix(kmode, backend, prune, policy):
    with kernels.use(kmode):
        for seed in range(8):
            case = random_case(random.Random(seed), malleable=(seed % 4 == 3))
            serial = run_case(
                case, backend=backend, prune=prune, policy=policy, audit=False
            )
            batch = run_case_batch(
                case, backend=backend, prune=prune, policy=policy, audit=False
            )
            assert batch == serial


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    malleable=st.booleans(),
    backend=st.sampled_from(("auto", "scalar", "vector", "tree", "kernel")),
    prune=st.booleans(),
    policy=st.sampled_from(tuple(TieBreakPolicy)),
    kmode=st.sampled_from(KERNEL_MODES),
)
@settings(max_examples=40, deadline=None)
def test_batch_identity_property(seed, malleable, backend, prune, policy, kmode):
    """Hypothesis sweep over the whole configuration space: any workload,
    any back-end × prune × tie-break × kernel, batch == serial."""
    with kernels.use(kmode):
        case = random_case(random.Random(seed), malleable=malleable)
        serial = run_case(
            case, backend=backend, prune=prune, policy=policy, audit=False
        )
        batch = run_case_batch(
            case, backend=backend, prune=prune, policy=policy, audit=False
        )
        assert batch == serial


@pytest.mark.parametrize("kmode", KERNEL_MODES)
def test_empty_batch_is_a_no_op(kmode):
    with kernels.use(kmode):
        arbitrator = QoSArbitrator(8)
        before = _state(arbitrator)
        assert arbitrator.admit_batch([]) == []
        assert _state(arbitrator) == before


@pytest.mark.parametrize("kmode", KERNEL_MODES)
def test_single_job_batch_matches_submit(kmode):
    with kernels.use(kmode):
        for seed in range(12):
            case = random_case(random.Random(seed))
            job = case.jobs[0]
            a = QoSArbitrator(case.capacity, seed=_RANDOM_POLICY_SEED)
            b = QoSArbitrator(case.capacity, seed=_RANDOM_POLICY_SEED)
            d_serial = a.submit(job)
            (d_batch,) = b.admit_batch([job])
            assert (d_batch.admitted, d_batch.chain_index) == (
                d_serial.admitted, d_serial.chain_index,
            )
            if d_serial.placement is not None:
                assert d_batch.placement.placements == (
                    d_serial.placement.placements
                )
            assert _state(a) == _state(b)


@pytest.mark.parametrize("kmode", KERNEL_MODES)
def test_batch_spanning_capacity_fault_event(kmode):
    """Admissions on either side of a resilience capacity fault agree.

    Mirrors what :class:`repro.resilience.driver.RenegotiationDriver`
    does at a :class:`CapacityEvent`: the arbitrator adopts a fresh,
    smaller schedule and subsequent admissions (batched or serial) probe
    the post-fault profile.
    """
    with kernels.use(kmode):
        for seed in range(6):
            case = random_case(random.Random(seed), max_jobs=8)
            event = CapacityEvent(time=0.0, new_capacity=max(2, case.capacity // 2))
            cut = len(case.jobs) // 2
            arbs = []
            for batched in (False, True):
                arbitrator = QoSArbitrator(
                    case.capacity, seed=_RANDOM_POLICY_SEED
                )

                def feed(jobs, *, batched=batched, arbitrator=arbitrator):
                    if batched:
                        arbitrator.admit_batch(list(jobs))
                    else:
                        for job in jobs:
                            arbitrator.submit(job)

                feed(case.jobs[:cut])
                arbitrator.adopt_schedule(
                    Schedule(event.new_capacity, origin=event.time)
                )
                feed(case.jobs[cut:])
                arbs.append(arbitrator)
            serial, batch = arbs
            assert _state(serial) == _state(batch)


@pytest.mark.parametrize("kmode", KERNEL_MODES)
def test_malleable_batch_falls_back_yet_matches(kmode):
    """MalleableScheduler never takes the compiled fast path, but the
    generic (pre-screened serial) batch path must still be identical."""
    with kernels.use(kmode):
        for seed in range(6):
            case = random_case(random.Random(seed), malleable=True)
            a = QoSArbitrator(
                case.capacity, malleable=True, seed=_RANDOM_POLICY_SEED
            )
            b = QoSArbitrator(
                case.capacity, malleable=True, seed=_RANDOM_POLICY_SEED
            )
            for job in case.jobs:
                a.submit(job)
            b.admit_batch(list(case.jobs))
            assert _state(a) == _state(b)


@pytest.mark.parametrize("kmode", KERNEL_MODES)
@pytest.mark.parametrize("comp", tuple(QualityComposition))
def test_max_quality_objective_batch_matches(kmode, comp):
    with kernels.use(kmode):
        for seed in range(5):
            case = random_case(random.Random(seed))
            a = QoSArbitrator(
                case.capacity,
                objective=ArbitrationObjective.MAX_QUALITY,
                quality_composition=comp,
                seed=_RANDOM_POLICY_SEED,
            )
            b = QoSArbitrator(
                case.capacity,
                objective=ArbitrationObjective.MAX_QUALITY,
                quality_composition=comp,
                seed=_RANDOM_POLICY_SEED,
            )
            for job in case.jobs:
                a.submit(job)
            b.admit_batch(list(case.jobs))
            assert _state(a) == _state(b)


@pytest.mark.skipif(
    KERNEL_MODES == ("python",), reason="compiled kernel unavailable"
)
def test_fast_path_taken_and_counted():
    """Eligible batches actually run the one-call C loop (no fallback)."""
    with kernels.use("compiled"):
        case = random_case(random.Random(1))
        arbitrator = QoSArbitrator(case.capacity, seed=_RANDOM_POLICY_SEED)
        arbitrator.admit_batch(list(case.jobs))
        snap = arbitrator.perf_snapshot()
        assert snap["kernel_backend"] == "compiled"
        assert snap["batch_jobs"] == len(case.jobs)
        assert snap["batch_fallbacks"] == 0


@pytest.mark.parametrize("kmode", KERNEL_MODES)
def test_admission_never_fills_the_chain_wire_cache(kmode, tmp_path):
    """Neither serial ``submit`` nor ``admit_batch`` builds
    ``TaskChain.wire``; only logging a job to the WAL does."""
    with kernels.use(kmode):
        case = random_case(random.Random(2))
        serial = QoSArbitrator(case.capacity)
        for job in case.jobs:
            serial.submit(job)
        QoSArbitrator(case.capacity).admit_batch(list(case.jobs))
        chains = [c for job in case.jobs for c in job.chains]
        assert all(c._wire is None for c in chains)  # noqa: SLF001
        wal = WriteAheadLog(tmp_path)
        wal.append_jobs(
            [LedgerEntry(i + 1, f"r{i}", 0, False, job) for i, job in enumerate(case.jobs)]
        )
        wal.close()
        assert all(c._wire is not None for c in chains)  # noqa: SLF001


def test_random_policy_batch_uses_serial_replay():
    """RANDOM tie-breaks consume the Python RNG stream, so the batch path
    must fall back to the serial loop — and still match bit-for-bit."""
    for kmode in KERNEL_MODES:
        with kernels.use(kmode):
            case = random_case(random.Random(5))
            serial = run_case(
                case, policy=TieBreakPolicy.RANDOM, audit=False
            )
            batch = run_case_batch(
                case, policy=TieBreakPolicy.RANDOM, audit=False
            )
            assert batch == serial


# -- the resident batch workspace -------------------------------------------

needs_compiled = pytest.mark.skipif(
    "compiled" not in KERNEL_MODES, reason="no compiled kernel available"
)


def _quality_stream(seed: int, n_jobs: int, capacity: int) -> list[Job]:
    """Release-ordered tunable jobs with irregular qualities, so the float
    accumulators depend on the order of their additions."""
    rng = random.Random(seed)
    jobs = []
    release = 0.0
    for j in range(n_jobs):
        release += rng.choice((0.0, 0.5, 1.0, 2.5))
        chains = []
        for c in range(rng.randint(1, 3)):
            tasks = []
            elapsed = 0.0
            for t in range(rng.randint(1, 3)):
                duration = rng.randint(1, 16) * 0.5
                elapsed += duration
                tasks.append(
                    TaskSpec(
                        f"j{j}c{c}t{t}",
                        ProcessorTimeRequest(rng.randint(1, capacity), duration),
                        deadline=elapsed + rng.randint(0, 40) * 0.5,
                        quality=rng.uniform(0.05, 1.0),
                    )
                )
            chains.append(TaskChain(tuple(tasks), label=f"j{j}c{c}"))
        jobs.append(Job(chains=tuple(chains), release=release))
    return jobs


def _stats(arbitrator: QoSArbitrator) -> tuple:
    stats = arbitrator.schedule.profile.stats
    return (stats.shift_ops, stats.segments_touched, stats.compactions)


@needs_compiled
def test_workspace_is_reused_and_grows():
    with kernels.use("compiled"):
        jobs = _quality_stream(5, 300, capacity=12)
        arbitrator = QoSArbitrator(12)
        arbitrator.admit_batch(jobs[:40])
        ws = arbitrator._batch_workspace  # noqa: SLF001
        names = ("times_buf", "releases", "task_dur", "out_starts", "dscratch")
        buffers = [getattr(ws, name) for name in names]
        addresses = dict(ws._addresses)  # noqa: SLF001
        for k in range(40, 50, 2):
            arbitrator.admit_batch(jobs[k : k + 2])
        assert arbitrator._batch_workspace is ws  # noqa: SLF001
        assert all(getattr(ws, n) is b for n, b in zip(names, buffers))
        assert ws._addresses == addresses  # noqa: SLF001
        small = len(ws.releases), len(ws.task_dur)
        arbitrator.admit_batch(jobs[50:])
        assert len(ws.releases) >= 250 > small[0]
        assert len(ws.task_dur) > small[1]
        assert ws.releases is not buffers[1]
        assert arbitrator.schedule.perf.batch_fallbacks == 0
        # Another arbitrator never shares the buffers.
        other = QoSArbitrator(12)
        other.admit_batch(jobs[:4])
        assert other._batch_workspace is not ws  # noqa: SLF001


@needs_compiled
@pytest.mark.parametrize("composition", tuple(QualityComposition))
def test_interleaved_batch_sizes_match_serial_submit(composition):
    """One arbitrator, batches of 1 / 128 / 2500 jobs interleaved (so the
    workspace is reused, grown and reused again): decisions, profile,
    counters and both quality accumulators equal the serial loop's."""
    sizes = (1, 128, 1, 2500, 128, 1, 128)
    jobs = _quality_stream(7, sum(sizes), capacity=16)
    with kernels.use("compiled"):
        serial = QoSArbitrator(16, quality_composition=composition)
        batched = QoSArbitrator(16, quality_composition=composition)
        pos = 0
        for size in sizes:
            chunk = jobs[pos : pos + size]
            pos += size
            want = [serial.submit(job) for job in chunk]
            got = batched.admit_batch(chunk)
            assert [
                (d.admitted, d.chain_index,
                 d.placement.placements if d.placement else None)
                for d in got
            ] == [
                (d.admitted, d.chain_index,
                 d.placement.placements if d.placement else None)
                for d in want
            ]
            assert _state(batched) == _state(serial)
            assert _stats(batched) == _stats(serial)
        assert batched.schedule.perf.batch_fallbacks == 0
        assert 0 < batched.admitted < len(jobs)
