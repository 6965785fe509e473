"""The three benchmark workloads: inputs, timed phase and correctness gate.

Each workload makes all of its inputs from the seed in :meth:`setup` (so
the program only ever receives generated inputs), then runs its timed
phase for a given number of seconds with :meth:`run`.  Every run ends
with a differential check outside the timed region; a mismatch marks the
whole run failed.

* ``mixed-backlog`` — closed loop: ``simulate_arrivals`` with serial
  ``QoSArbitrator.submit`` over a seeded mix of Figure-4 jobs, offered
  well above the 256 processors.  The same stream is replayed in
  episodes (a fresh arbitrator each) until the time is up.
* ``service-durable`` — a fresh fsync'd ``AdmissionService`` gets Poisson
  requests at a fixed rate (``steady``, open loop); another fresh one gets
  one burst of class-0 requests all due at once (``burst``).
* ``crash-recover`` — set-up crashes a checkpointing service; the timed
  part restarts it (recover, rebuild, checkpoint, serve) from copies of
  the crashed log, as often as the time allows.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import math
import os
import resource
import shutil
import time
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from repro.core import kernels
from repro.core.arbitrator import QoSArbitrator
from repro.errors import ServiceUnavailableError
from repro.service.recovery import recover
from repro.service.service import (
    AdmissionService,
    ServiceConfig,
    ServiceOutcome,
    make_arbitrator,
)
from repro.service.wal import decision_to_tuple, read_wal, records_to_entries
from repro.sim.arrivals import TraceArrivals
from repro.sim.simulator import simulate_arrivals
from repro.workloads.synthetic import SyntheticParams

import tracing
from hostspeed import HostSpeed
from tracing import TRACER, pc, traced_call

# mixed-backlog -------------------------------------------------------------
MIXED_CAPACITY = 256
#: Arrivals per episode; profile segments level off after ~2k arrivals.
MIXED_EPISODE = 6000
#: Mean model-time gap between arrivals: offered load ~2.5x capacity.
MIXED_INTERVAL = 1.25
MIXED_X = tuple(range(4, 33, 4))  # x*alpha is an integer for every alpha
MIXED_T = tuple(range(5, 41))
MIXED_ALPHA = (0.25, 0.5, 1.0)
MIXED_LAXITY = 0.98

# service-durable / crash-recover: the paper's Section 5.3 stream ----------
SERVICE_CAPACITY = 64
SERVICE_PARAMS = SyntheticParams(x=16, t=25.0, alpha=0.5, laxity=0.5)
SERVICE_INTERVAL = 4.0  # model time between arrivals
#: Open-loop request rate (requests per wall-clock second).
RATE = 500.0
#: Waits shorter than twice this are spent polling instead of sleeping.
SPIN_S = 0.002
#: Each service-durable episode (a fresh service) runs the steady open
#: loop for this many seconds, then one burst of BURST_JOBS requests.
STEADY_S = 1.0
BURST_JOBS = 10000

# crash-recover --------------------------------------------------------------
PRECRASH_JOBS = 2500
CHECKPOINT_EVERY = 1000
#: New requests served (closed loop) after each restart.
RESTART_REQUESTS = 300

#: Latency recorded for a request that was shed, timed out or raised: it
#: misses every latency limit.
MISSED = math.inf


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile of ``samples`` (``q`` in [0, 1])."""
    ordered = sorted(samples)
    if not ordered:
        return math.nan
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def episodes(seconds: float):
    """Count episodes while the next one is expected to end in ``seconds``.

    The first episode always runs; later ones start only if the previous
    episode's duration still fits before the deadline.
    """
    deadline = pc() + seconds
    n, last = 0, 0.0
    while n == 0 or pc() + last <= deadline:
        start = pc()
        yield n
        n += 1
        last = pc() - start


def digest(tuples) -> str:
    return hashlib.sha256(repr(tuple(tuples)).encode("utf-8")).hexdigest()


def build_dir() -> Path:
    return Path(os.environ.get("PERFBENCH_BUILD", ".bench_build/perfbench"))


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def service_stream(seed: int, n: int, stream: int) -> list:
    """``n`` Section 5.3 tunable jobs with Poisson releases."""
    rng = _rng(seed, stream)
    releases = np.cumsum(rng.exponential(SERVICE_INTERVAL, size=n)).tolist()
    return [SERVICE_PARAMS.tunable_job(r) for r in releases]


def due_offsets(seed: int, n: int, stream: int) -> list[float]:
    """Open-loop due times (seconds from phase start) at :data:`RATE`."""
    rng = _rng(seed, stream)
    due = np.cumsum(rng.exponential(1.0 / RATE, size=n))
    return (due - due[0]).tolist()


def service_config(**overrides) -> ServiceConfig:
    # Degrade off (occupancy > 1) so decisions do not depend on timing;
    # everything else is the service default (fsync on, checkpoint_every=0,
    # default shed thresholds and queue bound).
    return ServiceConfig(
        capacity=SERVICE_CAPACITY, degrade_occupancy=2.0, fsync=True, **overrides
    )


@dataclass
class Phase:
    """Counts for one phase of a run (reported, and summed into the run)."""

    name: str
    attempted: int = 0
    succeeded: int = 0
    failed: int = 0


@dataclass
class RunResult:
    """What one timed run measured; the worker turns it into metrics."""

    correct: bool = True
    phases: list[Phase] = field(default_factory=list)
    #: Decisions per second of each episode (restart, for crash-recover),
    #: and the host scale of each (see ``hostspeed.py``).
    rates: list[float] = field(default_factory=list)
    rate_scales: list[float] = field(default_factory=list)
    #: Every latency sample of the run (seconds), raw and divided by its
    #: episode's host scale, and each episode's raw percentiles.
    latencies: array = field(default_factory=lambda: array("d"))
    scaled_latencies: array = field(default_factory=lambda: array("d"))
    p50s: list[float] = field(default_factory=list)
    p99s: list[float] = field(default_factory=list)
    lag_p99s: list[float] = field(default_factory=list)
    admitted: int = 0
    decided: int = 0
    utilization: float = 0.0
    recover_s: list[float] = field(default_factory=list)
    #: Wall seconds per unit of closed-loop work, for the trace overhead.
    per_op_wall: float = 0.0
    # Traced-run extras.
    arbitrators: list = field(default_factory=list)
    segments: array = field(default_factory=lambda: array("i"))
    queue_waits: array = field(default_factory=lambda: array("d"))
    batch_jobs: int = 0
    wal_bytes: int = 0
    wal_fsyncs: int = 0
    recovered_entries: list[int] = field(default_factory=list)
    #: Peak resident memory (MiB) when the timed phase ended, before the
    #: correctness check allocates its own copies.
    peak_rss_mb: float = 0.0
    notes: list[str] = field(default_factory=list)
    _unscaled: list = field(default_factory=list)

    def end_episode(self, latencies, lags) -> None:
        self.latencies.extend(latencies)
        self.p50s.append(percentile(latencies, 0.5))
        self.p99s.append(percentile(latencies, 0.99))
        self.lag_p99s.append(percentile(lags, 0.99))
        self._unscaled.append(latencies)

    def set_scale(self, scale: float) -> None:
        """Give the host scale to the rates and latency samples recorded
        since the last call."""
        self.rate_scales += [scale] * (len(self.rates) - len(self.rate_scales))
        for latencies in self._unscaled:
            self.scaled_latencies.extend(x / scale for x in latencies)
        self._unscaled.clear()

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.phases)

    @property
    def failed(self) -> int:
        if not self.correct:
            return self.attempted
        return sum(p.failed for p in self.phases)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _warm_kernel() -> None:
    """Load the compiled kernel and take its first calls out of the timing."""
    if kernels.kernel_backend() != "compiled":
        raise RuntimeError("compiled decision kernel did not load")
    arbitrator = make_arbitrator(service_config())
    arbitrator.admit_batch([SERVICE_PARAMS.tunable_job(float(i)) for i in range(64)])
    for i in range(64):
        arbitrator.submit(SERVICE_PARAMS.tunable_job(100.0 + i))


# ---------------------------------------------------------------------------
# mixed-backlog
# ---------------------------------------------------------------------------


class MixedBacklog:
    name = "mixed-backlog"
    #: Largest allowed ``trace.unattributed_frac`` (traced wall time that no
    #: span covers).  The layer self times plus the unattributed share add
    #: up to the wall time whenever top-level spans do not overlap, so this
    #: limit is what catches a wrapper that went missing: its time lands
    #: here.  Each workload's limit is set from its measured share (see the
    #: README); here a missing simulator wrapper would add about 0.05.
    unattributed_limit = 0.02

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, seconds: float) -> None:
        rng = _rng(self.seed, 1)
        n = MIXED_EPISODE
        releases = np.cumsum(rng.exponential(MIXED_INTERVAL, size=n)).tolist()
        xs = rng.choice(MIXED_X, size=n).tolist()
        ts = rng.choice(MIXED_T, size=n).tolist()
        alphas = rng.choice(MIXED_ALPHA, size=n).tolist()
        self.jobs = [
            SyntheticParams(x=x, t=float(t), alpha=a, laxity=MIXED_LAXITY).tunable_job(r)
            for r, x, t, a in zip(releases, xs, ts, alphas)
        ]
        _warm_kernel()
        self._episode(self.jobs[:300], RunResult())

    def _episode(self, jobs, out: RunResult, traced: bool = False):
        """One closed-loop pass over ``jobs`` on a fresh arbitrator.

        Besides each ``submit``'s wall time it records the closed loop's
        two hand-offs: how late the next arrival was generated after the
        previous decision returned (the lag) and, when traced, how long
        the generated arrival waited before ``submit`` was called (the
        queue wait).
        """
        arbitrator = QoSArbitrator(MIXED_CAPACITY, backend="auto", compact=True)
        decisions = []
        submit = arbitrator.submit
        profile = arbitrator.schedule.profile
        keep = decisions.append
        latencies, lags = array("d"), array("d")
        note, lag = latencies.append, lags.append
        wait = out.queue_waits.append if traced else None
        seg = out.segments.append if traced else None
        made = [0.0]  # when the job factory returned the current arrival
        done = [0.0]  # when the previous decision returned

        def factory(i, _release):
            made[0] = pc()
            return jobs[i]

        def timed_submit(job):
            if seg is not None:
                seg(len(profile))
                TRACER.current_rid = len(decisions)
            t0 = pc()
            lag(made[0] - done[0])
            if wait is not None:
                wait(t0 - made[0])
            decision = submit(job)
            done[0] = t1 = pc()
            note(t1 - t0)
            keep(decision)
            return decision

        arbitrator.submit = timed_submit  # type: ignore[method-assign]
        releases = [j.release for j in jobs]
        t0 = done[0] = pc()
        simulate_arrivals(arbitrator, factory, TraceArrivals(releases), len(jobs))
        wall = pc() - t0
        out.end_episode(latencies, lags)
        return arbitrator, decisions, wall

    def run(self, seconds: float, traced: bool, host: HostSpeed) -> RunResult:
        out = RunResult()
        phase = Phase("episodes")
        out.phases.append(phase)
        digests = set()
        walls = 0.0
        before = host.measure()
        for episode in episodes(seconds):
            gc.collect()
            if traced:
                with tracing.patched(), TRACER.window():
                    arbitrator, decisions, wall = self._episode(self.jobs, out, True)
                out.arbitrators.append(arbitrator)
            else:
                arbitrator, decisions, wall = self._episode(self.jobs, out)
            walls += wall
            out.rates.append(len(decisions) / wall)
            phase.attempted += len(decisions)
            phase.succeeded += len(decisions)
            digests.add(digest(decision_to_tuple(d) for d in decisions))
            out.admitted += sum(1 for d in decisions if d.admitted)
            out.decided += len(decisions)
            out.utilization = arbitrator.utilization()
            del arbitrator, decisions
            after = host.measure()
            out.set_scale(host.scale(before, after))
            before = after
        out.per_op_wall = walls / phase.attempted
        out.peak_rss_mb = peak_rss_mb()
        # Differential gate: every episode must equal the executable spec.
        spec = QoSArbitrator(MIXED_CAPACITY, backend="scalar", compact=True)
        want = digest(decision_to_tuple(spec.submit(j)) for j in self.jobs)
        out.correct = digests == {want}
        out.notes.append(
            f"{episode + 1} episodes of {len(self.jobs)} arrivals; spec replay "
            f"{'matches' if out.correct else 'DIFFERS'}"
        )
        return out


# ---------------------------------------------------------------------------
# Service plumbing shared by service-durable and crash-recover
# ---------------------------------------------------------------------------


async def open_loop(service, jobs, due):
    """Send ``jobs[i]`` at ``t0 + due[i]``; return (t0, futures, acks, lags).

    QoS classes 0/1/2 take turns.
    Latency is measured from each request's due time, so a stall delays
    every request due during it; ``lags`` records how late the generator
    itself sent each request.
    """
    n = len(jobs)
    acks = [0.0] * n
    futures = [None] * n

    def on_done(i, _future):
        acks[i] = pc()

    lags = array("d")
    enqueue = service.enqueue
    tracer = TRACER
    nid = tracer.intern("loadgen")
    t0 = pc()
    i = 0
    while i < n:
        span = tracer.open(nid) if tracer.on else -1
        now = pc()
        while i < n and t0 + due[i] <= now:
            lags.append(pc() - (t0 + due[i]))
            tracer.current_rid = i
            future = await enqueue(jobs[i], qos=i % 3, request_id=f"s{i}")
            future.add_done_callback(partial(on_done, i))
            futures[i] = future
            i += 1
        # The event loop's timers tick in whole milliseconds, coarse next
        # to the 2 ms mean gap between requests; for short waits yield to
        # the service and poll the clock instead.
        delay = t0 + due[i] - pc() if i < n else 0.0
        if span >= 0:
            tracer.close(span)
        if i < n:
            await asyncio.sleep(delay - SPIN_S if delay > 2 * SPIN_S else 0)
    await _settle(futures)
    return t0, futures, acks, lags


async def _settle(futures) -> None:
    """Wait until every future is resolved; failures are counted later."""
    for future in futures:
        try:
            await future
        except ServiceUnavailableError:
            pass
    await asyncio.sleep(0)  # let the last done-callbacks run


def _outcome(future):
    """The ServiceDecision of a settled future, or None if it raised."""
    if future.exception() is not None:
        return None
    return future.result()


class _TracedDecide:
    """The service's ``decide=`` hook for traced runs (same decisions).

    Marks when each batch reaches the hook (queue wait), samples profile
    segments, and opens the ack interval when the hook returns.
    """

    def __init__(self, out: RunResult, enqueued: dict) -> None:
        self.out = out
        self.enqueued = enqueued
        self.batches = 0
        self._nid = TRACER.intern("service.decide")

    def __call__(self, arbitrator, jobs):
        now = pc()
        waits = self.out.queue_waits
        pop = self.enqueued.pop
        for job in jobs:
            t = pop(id(job), None)
            if t is not None:
                waits.append(now - t)
        self.out.segments.append(len(arbitrator.schedule.profile))
        self.out.batch_jobs += len(jobs)
        batch = self.batches
        self.batches += 1
        i = TRACER.open(self._nid, batch)
        try:
            return arbitrator.admit_batch(list(jobs))
        finally:
            TRACER.close(i)
            TRACER.open_ack(batch)


def _noting(enqueued: dict):
    """Enqueue-return hook: remember when each job's enqueue returned."""

    def note(args, t):
        enqueued[id(args[1])] = t

    return note


def _run_loop(coro, traced: bool):
    loop = tracing.new_loop(traced)
    try:
        return loop.run_until_complete(coro)
    finally:
        loop.close()


def _fresh_dir(label: str) -> Path:
    path = build_dir() / "wal" / f"{label}-{os.getpid()}-{time.monotonic_ns()}"
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# service-durable
# ---------------------------------------------------------------------------


class ServiceDurable:
    name = "service-durable"
    unattributed_limit = 0.10

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, seconds: float) -> None:
        steady_n = int(RATE * STEADY_S * 1.1) + 100
        due = due_offsets(self.seed, steady_n, 3)
        n = sum(1 for d in due if d < STEADY_S)
        self.due = due[:n]
        self.steady_jobs = service_stream(self.seed, n, 2)
        self.burst_jobs = service_stream(self.seed, BURST_JOBS, 6)
        _warm_kernel()

    def run(self, seconds: float, traced: bool, host: HostSpeed) -> RunResult:
        out = RunResult()
        steady, burst = Phase("steady"), Phase("burst")
        out.phases += [steady, burst]
        config = service_config()
        # Every episode gets the same inputs, so every episode's acked
        # digest must agree; the latest log of each phase (run with warm
        # process-wide caches) is checked in full.
        kept: dict[str, tuple] = {}
        digests: dict[str, set] = {"steady": set(), "burst": set()}
        try:
            before = host.measure()
            for episode in episodes(seconds):
                for phase in (steady, burst):
                    log = self._episode(config, phase, out, traced)
                    after = host.measure()
                    out.set_scale(host.scale(before, after))
                    before = after
                    digests[phase.name].add(log[1])
                    if phase.name in kept:
                        shutil.rmtree(kept[phase.name][0], ignore_errors=True)
                    kept[phase.name] = log
            out.peak_rss_mb = peak_rss_mb()
            # Checked only now, so the check's own copies of the ledger are
            # not part of peak_rss_mb.
            verdicts = [self._check(config, *log, out) for log in kept.values()]
        finally:
            for wal_dir, _, _ in kept.values():
                shutil.rmtree(wal_dir, ignore_errors=True)
        out.correct = all(verdicts) and all(len(d) == 1 for d in digests.values())
        out.per_op_wall /= burst.attempted
        out.notes.append(
            f"{episode + 1} episodes, each a fresh service for {len(self.steady_jobs)} "
            f"steady requests at {RATE:.0f}/s and another for one burst of "
            f"{len(self.burst_jobs)}; acked == logged == direct admit_batch: "
            f"{out.correct}"
        )
        return out

    def _episode(self, config, phase: Phase, out: RunResult, traced: bool):
        """One phase on a fresh service; returns (WAL dir, acked digest, count)."""
        gc.collect()
        wal_dir = _fresh_dir(self.name)
        enqueued: dict[int, float] = {}
        decide = _TracedDecide(out, enqueued) if traced else None
        # Queue waits are sampled in the open loop only: in the burst they
        # measure nothing but the depth of the bounded queue.
        noting = _noting(enqueued) if phase.name == "steady" else None
        try:
            with tracing.patched(noting) if traced else nullcontext():
                service, acked = _run_loop(
                    self._drive(config, wal_dir, phase, out, decide), traced
                )
        except BaseException:
            shutil.rmtree(wal_dir, ignore_errors=True)
            raise
        out.wal_fsyncs += service.wal.syncs
        out.wal_bytes += (wal_dir / "wal.log").stat().st_size
        if traced:
            out.arbitrators.append(service.arbitrator)
        if phase.name == "steady":
            out.utilization = service.arbitrator.utilization()
        return wal_dir, digest(acked[seq] for seq in sorted(acked)), len(acked)

    async def _drive(self, config, wal_dir, phase: Phase, out: RunResult, decide):
        kwargs = {"decide": decide} if decide is not None else {}
        service = AdmissionService(config, wal_dir, **kwargs)
        service.start()
        run_phase = self._steady if phase.name == "steady" else self._burst
        # Traced runs record spans only while requests are sent and
        # answered, not while the benchmark tallies the answers.
        window = TRACER.window if decide is not None else nullcontext
        acked = await run_phase(service, phase, out, window)
        await service.stop()
        return service, acked

    async def _steady(self, service, phase: Phase, out: RunResult, window):
        """Open loop at RATE, QoS classes 0/1/2 round-robin."""
        acked: dict[int, tuple] = {}
        with window():
            t0, futures, acks, lags = await open_loop(
                service, self.steady_jobs, self.due
            )
        latencies = array("d")
        for i, future in enumerate(futures):
            phase.attempted += 1
            answer = _outcome(future)
            if answer is None or answer.decision is None or answer.outcome is ServiceOutcome.TIMED_OUT:
                phase.failed += 1
                latencies.append(MISSED)
                continue
            phase.succeeded += 1
            latencies.append(acks[i] - (t0 + self.due[i]))
            acked[answer.seq] = decision_to_tuple(answer.decision)
        out.end_episode(latencies, lags)
        return acked

    async def _burst(self, service, phase: Phase, out: RunResult, window):
        """Class-0 requests all due at once; the bounded queue holds them back."""
        acked: dict[int, tuple] = {}
        acks = array("d")

        def on_done(_future):
            acks.append(pc())

        futures = []
        with window():
            b0 = pc()
            tracer = TRACER
            nid = tracer.intern("loadgen")
            for i, job in enumerate(self.burst_jobs):
                tracer.current_rid = i
                future = await service.enqueue(job, qos=0, request_id=f"b{i}")
                span = tracer.open(nid) if tracer.on else -1
                future.add_done_callback(on_done)
                futures.append(future)
                if span >= 0:
                    tracer.close(span)
            await _settle(futures)
        for future in futures:
            phase.attempted += 1
            answer = _outcome(future)
            if answer is None or answer.decision is None or answer.outcome is ServiceOutcome.TIMED_OUT:
                phase.failed += 1
                continue
            phase.succeeded += 1
            acked[answer.seq] = decision_to_tuple(answer.decision)
        # The whole burst, stalls included: first enqueue to last ack.
        out.rates.append(len(acks) / (acks[-1] - b0))
        out.per_op_wall += acks[-1] - b0
        return acked

    def _check(self, config, wal_dir, acked_digest, acked_count, out: RunResult) -> bool:
        """Acked decisions == logged == a direct admit_batch of logged jobs."""
        records, _ = read_wal(wal_dir / "wal.log", repair=False)
        entries = records_to_entries(records)  # in ledger (seq) order
        logged = [e.decision for e in entries]
        direct = make_arbitrator(config)
        replayed = []
        for k in range(0, len(entries), config.max_batch):
            chunk = [e.job for e in entries[k : k + config.max_batch]]
            replayed.extend(decision_to_tuple(d) for d in direct.admit_batch(chunk))
        out.admitted += sum(1 for tup in replayed if tup[0])
        out.decided += len(replayed)
        return (
            len(entries) == acked_count
            and digest(logged) == acked_digest
            and logged == replayed
        )


# ---------------------------------------------------------------------------
# crash-recover
# ---------------------------------------------------------------------------


class CrashRecover:
    name = "crash-recover"
    unattributed_limit = 0.05

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: The crashed service's log directory, copied for every restart.
        self.image = _fresh_dir("crashed")

    def config(self) -> ServiceConfig:
        return service_config(checkpoint_every=CHECKPOINT_EVERY)

    def setup(self, seconds: float) -> None:
        jobs = service_stream(self.seed, PRECRASH_JOBS + RESTART_REQUESTS, 4)
        self.pre_jobs = jobs[:PRECRASH_JOBS]
        self.new_jobs = jobs[PRECRASH_JOBS:]
        _warm_kernel()
        self.pre_digest = _run_loop(self._crash(), False)

    async def _crash(self) -> str:
        """Drive a durable service through the stream, then kill it."""
        service = AdmissionService(self.config(), self.image)
        service.start()
        futures = [
            await service.enqueue(job, qos=0, request_id=f"p{i}")
            for i, job in enumerate(self.pre_jobs)
        ]
        answers = [await f for f in futures]
        if service.counters["checkpoints"] < 1:
            raise RuntimeError("pre-crash run wrote no checkpoint")
        service.kill()
        await asyncio.sleep(0)  # let the cancelled drain task finish
        return digest(decision_to_tuple(a.decision) for a in answers)

    def cleanup(self) -> None:
        shutil.rmtree(self.image, ignore_errors=True)

    def run(self, seconds: float, traced: bool, host: HostSpeed) -> RunResult:
        out = RunResult()
        out.phases.append(Phase("restarts"))
        config = self.config()
        good = True
        before = host.measure()
        for restart in episodes(seconds):
            wal_dir = _fresh_dir(self.name)
            shutil.copytree(self.image, wal_dir)
            gc.collect()
            try:
                if traced:
                    enqueued: dict[int, float] = {}
                    with tracing.patched(_noting(enqueued)):
                        state, service = _run_loop(
                            self._restart(config, wal_dir, restart, out, enqueued), True
                        )
                    out.arbitrators.append(state.arbitrator)
                    out.wal_bytes += sum(
                        p.stat().st_size for p in wal_dir.iterdir() if p.is_file()
                    )
                    out.wal_fsyncs += service.wal.syncs
                else:
                    state, service = _run_loop(
                        self._restart(config, wal_dir, restart, out, None), False
                    )
            finally:
                shutil.rmtree(wal_dir, ignore_errors=True)
            out.recovered_entries.append(len(state.entries))
            replayed = [decision_to_tuple(d) for d in state.decisions]
            good = good and (
                state.report.ok
                and state.redecided == 0
                and [e.decision for e in state.entries] == replayed
                and digest(replayed) == self.pre_digest
            )
            decided = state.decisions
            out.admitted = sum(1 for d in decided if d.admitted)
            out.decided = len(decided)
            out.utilization = state.arbitrator.utilization()
            del state, service
            after = host.measure()
            out.set_scale(host.scale(before, after))
            before = after
        out.peak_rss_mb = peak_rss_mb()
        out.per_op_wall = sum(out.recover_s) / len(out.recover_s)
        out.correct = good
        out.notes.append(
            f"{restart + 1} restarts of {out.recovered_entries[0]} ledger entries; "
            f"replay == log == pre-crash acked decisions and audit clean: {good}"
        )
        return out

    async def _restart(self, config, wal_dir, restart: int, out: RunResult, enqueued):
        """Restart from the crashed log: recover, rebuild, checkpoint, serve.

        ``enqueued`` is given on traced runs (it maps jobs to the time
        their enqueue returned, for the queue wait).
        """
        with TRACER.window() if enqueued is not None else nullcontext():
            TRACER.current_rid = restart
            t0 = pc()
            # strict=False: a divergence is counted by the run's own check
            # below instead of raising out of the benchmark.
            state = traced_call("recovery.recover", recover, wal_dir, config, strict=False)
            kwargs = {"decide": _TracedDecide(out, enqueued)} if enqueued is not None else {}
            service = traced_call(
                "service.init", AdmissionService, config, wal_dir, recovered=state, **kwargs
            )
            service.start()
            service.checkpoint()
            answers, latencies, lags, first_ack = await self._serve(service, restart)
        await service.stop()
        phase = out.phases[0]
        failed = sum(1 for a in answers if a is None)
        phase.attempted += len(answers)
        phase.failed += failed
        phase.succeeded += len(answers) - failed
        recover_s = first_ack - t0
        out.recover_s.append(recover_s)
        out.rates.append(len(state.entries) / recover_s)
        out.end_episode(latencies, lags)
        return state, service

    async def _serve(self, service, restart: int):
        """Closed loop of new class-0 requests, each sent when the last is acked.

        Returns the answers (None for a failed request), each request's
        submit-to-ack latency, the gap between one ack and the next submit
        (the generator's lag) and when the first request was acked.
        """
        answers, latencies, lags = [], array("d"), array("d")
        first_ack = math.inf
        done = pc()
        for i, job in enumerate(self.new_jobs):
            TRACER.current_rid = i
            sent = pc()
            lags.append(sent - done)
            try:
                answer = await service.submit(job, qos=0, request_id=f"n{restart}-{i}")
            except ServiceUnavailableError:
                answer = None
            done = pc()
            if answer is None or answer.decision is None or answer.outcome is ServiceOutcome.TIMED_OUT:
                answers.append(None)
                latencies.append(MISSED)
            else:
                answers.append(answer)
                latencies.append(done - sent)
                if i == 0:
                    first_ack = done
        return answers, latencies, lags, first_ack


WORKLOADS = {
    cls.name: cls for cls in (MixedBacklog, ServiceDurable, CrashRecover)
}
