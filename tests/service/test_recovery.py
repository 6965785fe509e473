"""Crash recovery: bit-identical replay, audit gating, idempotence."""

from __future__ import annotations

import asyncio
import random
from dataclasses import replace

import pytest

from repro.errors import VerificationError, WalCorruptionError
from repro.service.chaos import chaos_workload
from repro.service.recovery import recover
from repro.service.service import AdmissionService, ServiceConfig, make_arbitrator
from repro.service.wal import (
    LedgerEntry,
    WriteAheadLog,
    decision_to_tuple,
    read_wal,
)
from repro.verify.checks import verify_replay


def _workload(seed=21, n=14, malleable=False):
    return chaos_workload(random.Random(seed), n, malleable)


def _run_service(config, wal_dir, jobs, *, kill_after=None, decide=None):
    async def run():
        kw = {} if decide is None else {"decide": decide}
        service = AdmissionService(config, wal_dir, **kw)
        service.start()
        answers = []
        for i, job in enumerate(jobs):
            fut = await service.enqueue(job, request_id=f"req-{i}")
            answers.append(fut)
            # Lock-step with the drain loop: wait until everything
            # enqueued so far is acked, so kill_after fires at a
            # deterministic point in the decision sequence.
            for _ in range(2000):
                if (
                    service.counters["acked"] >= len(answers)
                    or not service.running
                ):
                    break
                await asyncio.sleep(0.0002)
            if kill_after is not None and service.counters["acked"] >= kill_after:
                service.kill()
                break
        if service.running:
            await service.stop()
        done = [f.result() for f in answers if f.done() and not f.exception()]
        return service, done

    return asyncio.run(run())


def test_recover_reproduces_graceful_ledger_bit_identically(tmp_path):
    capacity, jobs = _workload()
    config = ServiceConfig(capacity=capacity)
    service, _ = _run_service(config, tmp_path, jobs)

    state = recover(tmp_path, config)
    assert state.report.ok and state.redecided == 0
    assert [(e.seq, e.request_id, e.decision) for e in state.entries] == [
        (e.seq, e.request_id, e.decision) for e in service.entries
    ]
    assert [decision_to_tuple(d) for d in state.decisions] == [
        e.decision for e in service.entries
    ]


def test_recover_after_kill_preserves_every_acked_decision(tmp_path):
    capacity, jobs = _workload(seed=22, n=20)
    config = ServiceConfig(capacity=capacity, max_batch=2)
    _, acked = _run_service(config, tmp_path, jobs, kill_after=6)
    assert acked  # the crash happened mid-run, with acks outstanding

    state = recover(tmp_path, config)
    by_rid = {e.request_id: e.decision for e in state.entries}
    for answer in acked:
        if answer.decision is not None:
            assert by_rid[answer.request_id] == decision_to_tuple(answer.decision)

    # Idempotent: recovering again changes nothing.
    again = recover(tmp_path, config)
    assert [(e.seq, e.decision) for e in again.entries] == [
        (e.seq, e.decision) for e in state.entries
    ]


def test_recover_redecides_torn_decision_append_and_persists_it(tmp_path):
    capacity, jobs = _workload(seed=23, n=10)
    config = ServiceConfig(capacity=capacity, max_batch=2)

    def run_with_tear():
        async def run():
            service = AdmissionService(config, tmp_path)
            service.wal.partial_write_after = 4  # the 2nd decision append
            service.start()
            futures = [
                await service.enqueue(job, request_id=f"req-{i}")
                for i, job in enumerate(jobs)
            ]
            for fut in futures:
                fut.add_done_callback(lambda f: f.exception())
            while service.running:
                await asyncio.sleep(0.001)
            return service

        return asyncio.run(run())

    run_with_tear()
    records, truncated = read_wal(tmp_path / "wal.log")
    assert truncated > 0  # the torn frame is on disk

    state = recover(tmp_path, config)
    assert state.redecided > 0 and state.truncated_bytes > 0
    assert all(e.decision is not None for e in state.entries)

    # The re-decided tail was durably re-logged: a second recovery has
    # nothing left to decide and agrees bit-for-bit.
    again = recover(tmp_path, config)
    assert again.redecided == 0 and again.truncated_bytes == 0
    assert [(e.seq, e.decision) for e in again.entries] == [
        (e.seq, e.decision) for e in state.entries
    ]


def test_recover_uses_checkpoint_and_watermark(tmp_path):
    capacity, jobs = _workload(seed=24, n=16)
    config = ServiceConfig(capacity=capacity, max_batch=4, checkpoint_every=4)
    service, _ = _run_service(config, tmp_path, jobs)
    assert service.counters["checkpoints"] >= 1

    state = recover(tmp_path, config)
    assert state.report.ok
    assert [(e.seq, e.decision) for e in state.entries] == [
        (e.seq, e.decision) for e in service.entries
    ]


def test_restart_from_recovered_state_continues_the_sequence(tmp_path):
    capacity, jobs = _workload(seed=25, n=18)
    config = ServiceConfig(capacity=capacity, max_batch=2)
    _run_service(config, tmp_path, jobs, kill_after=5)
    state = recover(tmp_path, config)
    decided_before = len(state.entries)
    assert 0 < decided_before < len(jobs)

    async def retry_everything():
        service = AdmissionService(config, tmp_path, recovered=state)
        service.start()
        answers = [
            await service.submit(job, request_id=f"req-{i}")
            for i, job in enumerate(jobs)
        ]
        await service.stop()
        return service, answers

    service, answers = asyncio.run(retry_everything())
    assert service.counters["duplicates"] == decided_before
    final = recover(tmp_path, config)
    assert final.report.ok
    assert len(final.entries) == len(jobs)
    assert len({e.request_id for e in final.entries}) == len(jobs)
    by_rid = {e.request_id: e.decision for e in final.entries}
    for i, answer in enumerate(answers):
        assert by_rid[f"req-{i}"] == decision_to_tuple(answer.decision)


def test_recovery_rejects_a_ledger_that_cannot_be_reproduced(tmp_path):
    capacity, jobs = _workload(seed=26, n=4)
    config = ServiceConfig(capacity=capacity)
    wal = WriteAheadLog(tmp_path)
    entries = [
        LedgerEntry(seq=i + 1, request_id=f"req-{i}", qos=0, degraded=False, job=job)
        for i, job in enumerate(jobs)
    ]
    wal.append_jobs(entries)
    # Log decisions that no deterministic replay could produce.
    wal.append_decisions(
        [e.seq for e in entries],
        [(True, 0, ((123.0, 999, 1.0),))] * len(entries),
    )
    wal.close()
    with pytest.raises(VerificationError):
        recover(tmp_path, config)


def test_recovery_rejects_checkpoint_hiding_undecided_entries(tmp_path):
    capacity, jobs = _workload(seed=27, n=2)
    config = ServiceConfig(capacity=capacity)
    from repro.service.wal import write_checkpoint

    entries = [
        LedgerEntry(seq=1, request_id="req-0", qos=0, degraded=False, job=jobs[0])
    ]
    write_checkpoint(tmp_path, entries)  # decision is still None
    with pytest.raises(WalCorruptionError):
        recover(tmp_path, config)


def test_verify_replay_flags_divergence_and_audits(tmp_path):
    capacity, jobs = _workload(seed=28, n=6)
    config = ServiceConfig(capacity=capacity)
    reference = make_arbitrator(config)
    expected = [decision_to_tuple(reference.submit(job)) for job in jobs]

    decisions, report = verify_replay(
        make_arbitrator(config), list(jobs), expected
    )
    assert report.ok and len(decisions) == len(jobs)

    tampered = list(expected)
    tampered[0] = (not expected[0][0], None, ())
    with pytest.raises(VerificationError):
        verify_replay(make_arbitrator(config), list(jobs), tampered)
    with pytest.raises(VerificationError):
        verify_replay(make_arbitrator(config), list(jobs), expected[:-1])


def test_recover_mixed_checkpoint_wal_tail_and_degraded_ledger(tmp_path):
    """Checkpoint entries, WAL-tail entries and degraded jobs, one replay."""
    from repro.service.wal import read_checkpoint

    capacity, jobs = _workload(seed=29, n=24)
    # Occupancy is always >= 0: every multi-chain job is logged degraded.
    config = ServiceConfig(
        capacity=capacity, max_batch=3, checkpoint_every=6, degrade_occupancy=0.0
    )
    _, acked = _run_service(config, tmp_path, jobs, kill_after=20)
    checkpointed, through_seq = read_checkpoint(tmp_path)
    assert checkpointed and through_seq > 0

    state = recover(tmp_path, config)
    assert state.report.ok and state.redecided == 0
    seqs = [e.seq for e in state.entries]
    assert any(s <= through_seq for s in seqs) and any(s > through_seq for s in seqs)
    degraded = [e for e in state.entries if e.degraded]
    assert degraded and any(e.seq > through_seq for e in degraded)
    assert any(e.seq <= through_seq for e in degraded)
    assert [decision_to_tuple(d) for d in state.decisions] == [
        e.decision for e in state.entries
    ]
    by_rid = {e.request_id: e.decision for e in state.entries}
    for answer in acked:
        assert by_rid[answer.request_id] == decision_to_tuple(answer.decision)
    # The restored ledger decides the same way through a plain serial loop.
    serial = make_arbitrator(config)
    assert [decision_to_tuple(serial.submit(e.job)) for e in state.entries] == [
        e.decision for e in state.entries
    ]
