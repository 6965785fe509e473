"""Batched admission: flattening, the compiled fast path, the pre-screen.

:meth:`repro.core.arbitrator.QoSArbitrator.admit_batch` delegates here.
Two strategies, both honouring the equivalence contract (*a batch
replays bit-identical to the serial submit loop in arrival order*):

1. :func:`try_admit_batch_compiled` — flatten the whole batch into
   the arbitrator's resident
   :class:`~repro.core.kernels.compiled.BatchWorkspace` and run
   ``repro_admit_batch`` (the entire serial admission loop —
   compaction, prunes, probes, tie-breaks, commits, PRODUCT/MIN quality
   accumulators) in ONE C call, then write the resulting profile
   window, decisions and accounting back into the live objects.  The C
   kernel works on copies in the workspace, so any error status
   (unsupported policy, buffer overflow) simply leaves the live state
   alone and falls through to strategy 2.
   Eligibility: plain rigid :class:`GreedyScheduler`, EARLIEST_FINISH
   objective, deterministic tie-break (RANDOM consumes a Python RNG
   stream), compiled kernel loaded.

2. :func:`prescreen_skips` + the ordinary serial loop — one vectorized
   area pre-screen over the batch-entry profile computes, for every
   chain in the batch, a *conservative* version of the serial
   :meth:`~repro.core.greedy.GreedyScheduler._area_reject`; chains it
   condemns are skipped without probing.  Soundness: commits during the
   batch only shrink free area and compaction preserves it, so the
   snapshot free area upper-bounds the live value each job sees — and a
   float-error margin makes the comparison a strict subset of the
   serial reject even across differently-accumulated prefix sums.
   Skipped chains would have returned ``None`` from the prober anyway
   (their pointwise-harder dominators are area-rejected too, see the
   dominance proof in :mod:`repro.core.greedy`), so decisions are
   unchanged for every policy including RANDOM and for the malleable
   scheduler (area is conserved under reshaping).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core import kernels
from repro.core.admission import AdmissionDecision
from repro.core.kernels.compiled import (
    QUALITY_MIN,
    QUALITY_NONE,
    QUALITY_PRODUCT,
    BatchWorkspace,
)
from repro.core.placement import ChainPlacement, Placement
from repro.core.policies import TieBreakPolicy
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.quality import QualityComposition, chain_quality

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.arbitrator import QoSArbitrator

__all__ = ["FlatBatch", "flatten_jobs", "prescreen_skips", "try_admit_batch_compiled"]

#: Tie-break policy codes of ``_kernels.c`` (RANDOM intentionally absent).
_POLICY_CODES = {
    TieBreakPolicy.PAPER: 0,
    TieBreakPolicy.FIRST: 1,
    TieBreakPolicy.PREFIX: 2,
}

#: Per-job scratch in the C kernel is sized max_chains × max_tasks; bail
#: out to the serial loop for pathological fan-outs instead of letting
#: the scratch arrays balloon.
_MAX_CHAINS = 512
_MAX_TASKS = 512

#: Compositions the C loop accumulates (MEAN's ``math.fsum`` stays here).
_QUALITY_MODES = {
    QualityComposition.PRODUCT: QUALITY_PRODUCT,
    QualityComposition.MIN: QUALITY_MIN,
}

#: PerfRecorder counters fed from counter slots 7.. of ``_kernels.c``.
_PERF_COUNTERS = (
    "chains_probed",
    "chains_quick_rejected",
    "chains_area_rejected",
    "chains_pruned_dominated",
    "commits",
)


@dataclass(slots=True)
class FlatBatch:
    """A job vector flattened into columns (C layout).

    Chain areas and prefix sums are *not* flattened — the C kernel
    recomputes them from ``task_procs``/``task_dur`` with the exact
    float operations of :attr:`TaskChain.total_area` /
    :meth:`TaskChain.prefix_areas`, which keeps flattening (the
    dominant Python-side cost of a batch) to one attribute sweep.
    :func:`try_admit_batch_compiled` copies the columns into the
    arbitrator's :class:`~repro.core.kernels.compiled.BatchWorkspace`
    and keeps the offsets for the write-back.
    """

    jobs: Sequence[Job]
    chains: list[TaskChain]  # global chain index -> chain object
    releases: list[float]          # [n_jobs]
    job_chain_off: list[int]       # [n_jobs+1]
    chain_task_off: list[int]      # [n_chains+1]
    task_procs: list[int]          # [n_tasks]
    task_dur: list[float]          # [n_tasks]
    task_deadline: list[float]     # [n_tasks]
    task_quality: list[float]      # [n_tasks]
    max_chains: int
    max_tasks: int

    @property
    def n_tasks(self) -> int:
        return len(self.task_procs)


def flatten_jobs(jobs: Sequence[Job]) -> FlatBatch:
    """Flatten a job vector for the C kernel.

    Written for throughput: this runs once per batch but touches every
    task, and at the 100k-decisions/sec operating point it is the
    largest Python-side cost — hence the bound methods and direct
    ``request`` field access instead of the (property-indirected)
    ``TaskSpec`` accessors.
    """
    releases: list[float] = []
    job_chain_off = [0]
    chain_task_off = [0]
    task_procs: list[int] = []
    task_dur: list[float] = []
    task_deadline: list[float] = []
    task_quality: list[float] = []
    chains: list[TaskChain] = []
    max_chains = 0
    max_tasks = 0
    rel_append = releases.append
    jco_append = job_chain_off.append
    cto_append = chain_task_off.append
    procs_append = task_procs.append
    dur_append = task_dur.append
    dl_append = task_deadline.append
    q_append = task_quality.append
    chains_append = chains.append
    for job in jobs:
        rel_append(job.release)
        job_chains = job.chains
        if len(job_chains) > max_chains:
            max_chains = len(job_chains)
        for chain in job_chains:
            chains_append(chain)
            tasks = chain.tasks
            if len(tasks) > max_tasks:
                max_tasks = len(tasks)
            for task in tasks:
                request = task.request
                procs_append(request.processors)
                dur_append(request.duration)
                dl_append(task.deadline)
                q_append(task.quality)
            cto_append(len(task_procs))
        jco_append(len(chains))
    return FlatBatch(
        jobs=jobs,
        chains=chains,
        releases=releases,
        job_chain_off=job_chain_off,
        chain_task_off=chain_task_off,
        task_procs=task_procs,
        task_dur=task_dur,
        task_deadline=task_deadline,
        task_quality=task_quality,
        max_chains=max_chains,
        max_tasks=max_tasks,
    )


def try_admit_batch_compiled(
    arbitrator: "QoSArbitrator", jobs: Sequence[Job]
) -> list[AdmissionDecision] | None:
    """Run the whole batch through the C admission loop, or return None.

    ``None`` means "not handled" (kernel unavailable, unsupported shape,
    or a C error status) — the caller falls back to the serial path with
    the live state untouched.
    """
    impl = kernels.active()
    if not getattr(impl, "supports_batch", False):
        return None
    scheduler = arbitrator.scheduler
    policy_code = _POLICY_CODES.get(scheduler.policy)
    if policy_code is None:
        return None
    flat = flatten_jobs(jobs)
    if flat.max_chains > _MAX_CHAINS or flat.max_tasks > _MAX_TASKS:
        return None
    profile = arbitrator.schedule.profile
    times_m, avail_m = profile._mirrors()  # noqa: SLF001 - same package, hot path
    n0 = len(times_m)
    n_jobs = len(jobs)
    n_chains = len(flat.chains)
    n_tasks = flat.n_tasks
    # Each committed task splits at most two segments; headroom on top.
    buf_cap = n0 + 2 * n_tasks + 8
    ws = arbitrator._batch_workspace  # noqa: SLF001
    if ws is None:
        ws = arbitrator._batch_workspace = BatchWorkspace()  # noqa: SLF001
    ws.reserve(buf_cap, n_jobs, n_chains, n_tasks, flat.max_chains, flat.max_tasks)
    ws.times_buf[:n0] = times_m
    ws.avail_buf[:n0] = avail_m
    ws.prof_state[:] = (0, n0)
    ws.releases[:n_jobs] = flat.releases
    ws.job_chain_off[: n_jobs + 1] = flat.job_chain_off
    ws.chain_task_off[: n_chains + 1] = flat.chain_task_off
    ws.task_procs[:n_tasks] = flat.task_procs
    ws.task_dur[:n_tasks] = flat.task_dur
    ws.task_deadline[:n_tasks] = flat.task_deadline
    ws.task_quality[:n_tasks] = flat.task_quality
    ws.counters.fill(0)
    quality_mode = _QUALITY_MODES.get(arbitrator.quality_composition, QUALITY_NONE)
    ws.quality_acc[:] = (
        arbitrator._quality_possible, arbitrator._quality_sum  # noqa: SLF001
    )
    status = impl.admit_batch(
        ws,
        buf_cap=buf_cap,
        capacity=profile.capacity,
        n_jobs=n_jobs,
        policy=policy_code,
        use_dup=int(scheduler.prune),  # policy is deterministic here
        use_dom=int(scheduler.prune and scheduler.SUPPORTS_DOMINANCE),
        use_cap=int(scheduler.prune and scheduler.SUPPORTS_FINISH_CAP),
        do_compact=int(arbitrator.admission.compact),
        max_chains=flat.max_chains,
        max_tasks=flat.max_tasks,
        quality_mode=quality_mode,
    )
    if status != 0:
        kernels.note_fallback(f"admit_batch kernel status {status}")
        return None
    return _apply_batch_results(arbitrator, flat, ws, quality_mode)


def _apply_batch_results(
    arbitrator: "QoSArbitrator",
    flat: FlatBatch,
    ws: BatchWorkspace,
    quality_mode: int,
) -> list[AdmissionDecision]:
    """Write the C results back into profile, schedule and accounting.

    The C loop already replayed the PRODUCT/MIN quality accumulators in
    the serial loop's order; MEAN (``math.fsum``) replays here per job,
    quality-possible before the decision and quality-sum after, so
    every float accumulator matches bit-for-bit.
    """
    schedule = arbitrator.schedule
    profile = schedule.profile
    lo, n = ws.prof_state.tolist()
    # Copies: the workspace buffers are overwritten by the next batch.
    new_times = ws.times_buf[lo : lo + n].copy()
    new_avail = ws.avail_buf[lo : lo + n].copy()
    profile._times = new_times.tolist()  # noqa: SLF001
    profile._avail = new_avail.tolist()  # noqa: SLF001
    profile._np_times = new_times  # noqa: SLF001
    profile._np_avail = new_avail  # noqa: SLF001
    profile._prefix = None  # noqa: SLF001
    if profile._segtree is not None:  # noqa: SLF001
        profile._segtree.mark_dirty(0)  # noqa: SLF001

    (
        shift_ops, touched, last_touched, probes, probe_segments,
        prefix_rebuilds, compactions, *perf_counts,
    ) = ws.counters.tolist()
    stats = profile.stats
    stats.shift_ops += shift_ops
    stats.segments_touched += touched
    if shift_ops:
        stats.last_touched = last_touched
    stats.probes += probes
    stats.probe_segments += probe_segments
    stats.prefix_rebuilds += prefix_rebuilds
    stats.compactions += compactions
    perf = schedule.perf
    for name, count in zip(_PERF_COUNTERS, perf_counts):
        if count:
            perf.count(name, count)

    admission = arbitrator.admission
    comp = arbitrator.quality_composition
    mean = quality_mode == QUALITY_NONE
    if not mean:
        arbitrator._quality_possible, arbitrator._quality_sum = (  # noqa: SLF001
            ws.quality_acc.tolist()
        )

    # One conversion each instead of a NumPy scalar read per job.
    chosen = ws.out_chain[: len(flat.jobs)].tolist()
    starts = ws.out_starts[: flat.n_tasks].tolist()
    chain_off = flat.job_chain_off
    task_off = flat.chain_task_off
    decisions: list[AdmissionDecision] = []
    append = decisions.append
    for jb, job in enumerate(flat.jobs):
        if mean:
            arbitrator._quality_possible += job.best_quality(comp)  # noqa: SLF001
        c = chosen[jb]
        if c < 0:
            admission.rejected += 1
            append(
                AdmissionDecision(
                    job.job_id, False, None,
                    reason="no schedulable configuration",
                )
            )
            continue
        chain = flat.chains[c]
        chain_index = c - chain_off[jb]
        t0 = task_off[c]
        placements = tuple(
            Placement.rigid(task, starts[t0 + k])
            for k, task in enumerate(chain.tasks)
        )
        cp = ChainPlacement(
            job_id=job.job_id,
            chain_index=chain_index,
            chain=chain,
            placements=placements,
            release=job.release,
        )
        schedule.record_commit(cp)
        admission.admitted += 1
        admission.decisions_by_chain[chain_index] = (
            admission.decisions_by_chain.get(chain_index, 0) + 1
        )
        if mean:
            arbitrator._quality_sum += chain_quality(chain, comp)  # noqa: SLF001
        append(AdmissionDecision(job.job_id, True, cp))
    return decisions


def prescreen_skips(
    arbitrator: "QoSArbitrator", jobs: Sequence[Job]
) -> list[frozenset[int]] | None:
    """Conservative per-job chain-skip sets from one vectorized pass.

    For every chain in the batch, evaluate the area-reject inequality
    against the *batch-entry* profile snapshot with a float-error margin
    (see the module docs for the soundness argument); chains condemned
    here are guaranteed to be rejected by the serial prober too, so the
    probe can skip them wholesale.  Returns ``None`` when the pre-screen
    cannot help (empty profile windows are cheap anyway).
    """
    profile = arbitrator.schedule.profile
    times_m, avail_m = profile._mirrors()  # noqa: SLF001
    prefix = kernels.free_area_prefix(times_m, avail_m)
    origin = float(times_m[0])
    capacity = profile.capacity

    releases: list[float] = []
    final_deadlines: list[float] = []
    areas: list[float] = []
    owner_end = [0]
    for job in jobs:
        for chain in job.chains:
            releases.append(job.release)
            final_deadlines.append(chain.final_deadline)
            areas.append(chain.total_area)
        owner_end.append(len(releases))
    if not releases:
        return None

    rel = np.asarray(releases, dtype=np.float64)
    t1 = rel + np.asarray(final_deadlines, dtype=np.float64)
    area = np.asarray(areas, dtype=np.float64)
    t0 = np.maximum(rel, origin)
    finite = np.isfinite(t1)
    degenerate = finite & (t1 <= t0)

    # Cumulative free area at t (vectorized _cumulative_free).
    def cum_free(t: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(times_m, t, side="right") - 1
        clipped = np.maximum(idx, 0)
        val = prefix[clipped] + avail_m[clipped] * (t - times_m[clipped])
        return np.where(idx < 0, 0.0, val)

    safe_t1 = np.where(finite, t1, origin)
    free = cum_free(np.maximum(safe_t1, t0)) - cum_free(t0)
    # Margin covering float divergence between this snapshot evaluation
    # and the serial one (differently-originated prefix sums, live
    # commits): absolute floor plus a relative term in the window area.
    span = np.maximum(safe_t1 - t0, 0.0)
    margin = 1e-7 + 1e-12 * capacity * span
    rejected = degenerate | (finite & (free < area - 1e-6 - margin))

    skips: list[frozenset[int]] = []
    for jb in range(len(jobs)):
        begin, end = owner_end[jb], owner_end[jb + 1]
        doomed = np.flatnonzero(rejected[begin:end])
        skips.append(frozenset(int(k) for k in doomed))
    return skips
