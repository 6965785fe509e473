"""The profile cross-check's sweep flags exactly what a full rescan flags.

``ScheduleAuditor._audit_profile`` walks the probe times once, keeping a
running busy count and the open profile segments.  The reference below
is the straightforward form it replaced: for every probe, rescan every
segment for the availability and every interval for the busy width.  It
lives here only, as the oracle; the two must produce identical violation
tuples on clean, compacted, clipped and corrupted schedules alike.
"""

from __future__ import annotations

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.core.arbitrator import QoSArbitrator
from repro.core.resources import ProcessorTimeRequest
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.task import TaskSpec
from repro.verify.auditor import ScheduleAuditor, Violation
from repro.verify.mutants import build_all_mutants
from tests.conftest import nice_times, task_chains

CORRUPTIONS = ("none", "drop", "phantom", "range", "unsorted")


def _rescan_profile(auditor, schedule, placements) -> tuple[Violation, ...]:
    """The quadratic reference: every probe rescans segments and intervals."""
    auditor._violations = []
    profile = schedule.profile
    capacity = schedule.capacity
    origin = profile.origin
    segments = list(profile.segments())
    for seg_start, seg_end, avail in segments:
        if not 0 <= avail <= capacity:
            auditor._flag(
                "profile",
                f"profile availability {avail} outside [0, {capacity}] "
                f"over [{seg_start:g}, {seg_end:g})",
                time=seg_start,
            )
    if auditor.profile_mode == "off" or not schedule.keeps_placements:
        return tuple(auditor._violations)
    intervals = auditor._intervals(placements)
    strict = auditor.profile_mode == "strict"
    boundaries = {origin}
    for seg_start, _seg_end, _avail in segments:
        if seg_start >= origin:
            boundaries.add(seg_start)
    for iv in intervals:
        for t in (iv.start, iv.end):
            if t >= origin:
                boundaries.add(t)
    cuts = sorted(boundaries)
    for i, t0 in enumerate(cuts):
        t1 = cuts[i + 1] if i + 1 < len(cuts) else math.inf
        if t1 - t0 <= auditor.eps:
            continue
        probe = t0 + min((t1 - t0) / 2, 0.5)
        avail = next(
            (a for seg_start, seg_end, a in segments if seg_start <= probe < seg_end),
            None,
        )
        if avail is None:
            continue
        busy = sum(
            iv.processors for iv in intervals if iv.start <= probe and iv.end > probe
        )
        expected = capacity - busy
        if strict and avail != expected:
            auditor._flag(
                "profile",
                f"profile says {avail}p free at t={probe:g}, placements "
                f"imply {expected}p",
                time=probe,
            )
        elif not strict and avail > expected:
            auditor._flag(
                "profile",
                f"profile says {avail}p free at t={probe:g} but "
                f"placements still hold {busy}p (at most {expected}p "
                "can be free)",
                time=probe,
            )
    return tuple(auditor._violations)


def _sweep_profile(auditor, schedule, placements) -> tuple[Violation, ...]:
    auditor._violations = []
    auditor._audit_profile(schedule, auditor._intervals(placements))
    return tuple(auditor._violations)


def _assert_same(auditor, schedule) -> tuple[Violation, ...]:
    placements = schedule.placements
    want = _rescan_profile(auditor, schedule, placements)
    got = _sweep_profile(auditor, schedule, placements)
    # Violation's float ``time`` may be nan; compare reprs so nan == nan.
    assert [repr(v) for v in got] == [repr(v) for v in want]
    return got


def _corrupt(schedule, kind: str, data) -> None:
    """Plant one profile inconsistency the auditor must see (or not) alike."""
    profile = schedule.profile
    origin = profile.origin
    if kind == "drop":
        # A reservation silently released: the profile stays one constant
        # segment across a slice where the placements say width is busy.
        live = [
            pl
            for cp in schedule.placements
            for pl in cp.placements
            if pl.start >= origin
        ]
        if live:
            pl = data.draw(st.sampled_from(live))
            profile.release(pl.start, pl.end, pl.processors)
    elif kind == "phantom":
        # Processors held that no placement owns, inside the last segment.
        start = profile.breakpoints[-1] + data.draw(nice_times)
        if profile.available_at(start) >= 1:
            profile.reserve(start, start + 1.5, 1)
    elif kind == "range":
        index = data.draw(st.integers(0, len(profile._avail) - 1))
        profile._avail[index] = data.draw(
            st.sampled_from([-1, schedule.capacity + 1, schedule.capacity + 7])
        )
    elif kind == "unsorted" and len(profile._times) >= 3:
        # Breakpoints out of order make segments overlap; both forms must
        # still read the *first* segment, in profile order, at each probe.
        i = data.draw(st.integers(0, len(profile._times) - 2))
        profile._times[i], profile._times[i + 1] = (
            profile._times[i + 1],
            profile._times[i],
        )


@st.composite
def scheduled(draw):
    """A schedule built by real admissions (optionally compacted)."""
    capacity = draw(st.integers(min_value=1, max_value=8))
    arbitrator = QoSArbitrator(
        capacity, keep_placements=True, compact=draw(st.booleans())
    )
    release = 0.0
    for job_id in range(draw(st.integers(min_value=1, max_value=12))):
        release += draw(nice_times) / 8
        chains = draw(
            st.lists(task_chains(max_len=3, max_procs=capacity), min_size=1, max_size=3)
        )
        arbitrator.submit(Job(chains=tuple(chains), release=release, job_id=job_id))
    return arbitrator.schedule


@given(
    schedule=scheduled(),
    mode=st.sampled_from(["strict", "bound"]),
    since=st.one_of(st.none(), nice_times.map(lambda t: t / 4)),
    corruption=st.sampled_from(CORRUPTIONS),
    data=st.data(),
)
def test_sweep_matches_rescan(schedule, mode, since, corruption, data):
    _corrupt(schedule, corruption, data)
    auditor = ScheduleAuditor(profile_mode=mode, since=since)
    _assert_same(auditor, schedule)


def test_sweep_matches_rescan_on_compacted_origin():
    """A compacted profile clips placements that straddle its origin."""
    arbitrator = QoSArbitrator(4, keep_placements=True, compact=True)

    def job(job_id, release, procs, duration):
        task = TaskSpec(f"j{job_id}", ProcessorTimeRequest(procs, duration), deadline=100.0)
        return Job(chains=(TaskChain((task,)),), release=release, job_id=job_id)

    for job_id, (release, procs, duration) in enumerate(
        [(0.0, 2, 10.0), (1.0, 2, 4.0), (6.0, 3, 2.0), (7.5, 1, 5.0)]
    ):
        assert arbitrator.submit(job(job_id, release, procs, duration)).admitted
    schedule = arbitrator.schedule
    assert schedule.profile.origin > 0.0
    assert any(cp.release < schedule.profile.origin for cp in schedule.placements)
    for mode in ("strict", "bound"):
        assert _assert_same(ScheduleAuditor(profile_mode=mode), schedule) == ()
    # Dropping a live reservation is flagged, identically, inside a segment.
    pl = schedule.placements[-1].placements[0]
    schedule.profile.release(pl.start, pl.end, pl.processors)
    flagged = _assert_same(ScheduleAuditor(), schedule)
    assert {v.code for v in flagged} == {"profile"}


def test_sweep_matches_rescan_on_every_mutant():
    """The seeded mutant catalogue (the selftest's input) reads alike."""
    for scenario in build_all_mutants():
        for mode in ("strict", "bound"):
            _assert_same(
                ScheduleAuditor(profile_mode=mode, malleable=scenario.malleable),
                scenario.schedule,
            )
