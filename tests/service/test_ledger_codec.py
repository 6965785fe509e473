"""Round-trip properties of the version-3 ledger codec.

Whatever the service can log must come back from both files as equal
entries: ``append_jobs``/``append_decisions`` → ``read_wal`` →
``records_to_entries``, and ``write_checkpoint`` → ``read_checkpoint``.
Entries are compared through ``repr``, which tells ``-0.0`` from ``0.0``,
``1`` from ``1.0`` and ``{}`` from ``None`` where ``==`` would not.
"""

from __future__ import annotations

import math

from hypothesis import given, strategies as st

from repro.core.resources import ProcessorTimeRequest
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.task import TaskSpec
from repro.service.wal import (
    LedgerEntry,
    WriteAheadLog,
    read_checkpoint,
    read_wal,
    records_to_entries,
    write_checkpoint,
)

#: Strings with the characters a JSON writer must escape or pass through.
awkward = st.text(
    st.one_of(
        st.sampled_from('"\\/\n\t\x00\x1f\x7f é€😀 '),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=8,
)
odd_floats = st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e300])
positive = st.one_of(
    st.floats(min_value=5e-324, max_value=1e9, allow_subnormal=True),
    st.sampled_from([5e-324, 1e-310, 0.1, 1e300]),
)
finite = st.one_of(odd_floats, st.floats(allow_nan=False, allow_infinity=False))
scalars = st.one_of(st.none(), st.booleans(), st.integers(), finite, awkward)
params = st.one_of(
    st.none(),
    st.dictionaries(awkward, scalars, max_size=3),
    # Tuples, nested in lists and dicts: JSON gives lists back, so the
    # chain must hold lists from the start.
    st.dictionaries(
        awkward,
        st.recursive(
            scalars,
            lambda inner: st.one_of(
                st.lists(inner, max_size=3).map(tuple),
                st.lists(inner, max_size=3),
                st.dictionaries(awkward, inner, max_size=2),
            ),
            max_leaves=6,
        ),
        max_size=3,
    ),
)


@st.composite
def tasks(draw):
    procs = draw(st.integers(1, 64))
    return TaskSpec(
        draw(awkward.filter(bool)),
        ProcessorTimeRequest(procs, draw(positive)),
        deadline=draw(st.one_of(st.just(math.inf), positive)),
        quality=draw(st.one_of(odd_floats, st.floats(0, 10), st.just(math.inf))),
        max_concurrency=draw(st.integers(procs, procs + 8)),
    )


chains = st.builds(
    TaskChain,
    st.lists(tasks(), min_size=1, max_size=3).map(tuple),
    label=awkward,
    params=params,
)


@st.composite
def ledgers(draw):
    """Entries with shared, equal-but-distinct and unrelated chains."""
    pool = draw(st.lists(chains, min_size=1, max_size=4))
    # An equal copy that is a different object shares the pool's slot.
    pool.append(TaskChain(pool[0].tasks, label=pool[0].label, params=pool[0].params))
    seqs = sorted(draw(st.sets(st.integers(1, 10_000), min_size=1, max_size=8)))
    entries = []
    for seq in seqs:
        job_chains = tuple(
            draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        )
        job = Job(
            chains=job_chains,
            release=draw(finite),
            job_id=draw(st.integers(-(2**63), 2**63 - 1)),
            name=draw(awkward),
        )
        entries.append(
            LedgerEntry(
                seq, draw(awkward), draw(st.integers(0, 5)), draw(st.booleans()),
                job, draw(decisions(len(job_chains))),
            )
        )
    return entries


def decisions(n_chains):
    placement = st.tuples(finite, st.integers(1, 128), positive)
    admitted = st.tuples(
        st.just(True),
        st.integers(0, n_chains - 1),
        st.lists(placement, min_size=1, max_size=4).map(tuple),
    )
    return st.one_of(st.none(), st.just((False, None, ())), admitted)


@given(ledger=ledgers(), cut=st.integers(0, 8), order=st.randoms())
def test_wal_round_trip(tmp_path_factory, ledger, cut, order):
    directory = tmp_path_factory.mktemp("wal")
    wal = WriteAheadLog(directory, fsync=False)
    wal.append_jobs(ledger[:cut])
    wal.append_jobs(ledger[cut:])
    # Decisions of any subset, in batches of non-consecutive seqs, as
    # recovery logs the ones it re-decides.
    decided = [e for e in ledger if e.decision is not None]
    order.shuffle(decided)
    for k in range(0, len(decided), 3):
        batch = decided[k : k + 3]
        wal.append_decisions([e.seq for e in batch], [e.decision for e in batch])
    wal.close()

    records, truncated = read_wal(directory / "wal.log")
    assert truncated == 0
    assert repr(records_to_entries(records)) == repr(ledger)


@given(ledger=ledgers())
def test_checkpoint_round_trip(tmp_path_factory, ledger):
    directory = tmp_path_factory.mktemp("checkpoint")
    write_checkpoint(directory, ledger)
    loaded, through_seq = read_checkpoint(directory)
    assert through_seq == ledger[-1].seq
    assert repr(loaded) == repr(ledger)
