"""WAL framing, torn-tail semantics, checkpoints, and the fail-point."""

from __future__ import annotations

import hashlib
import json
import math
import random
import zlib

import pytest

from repro.core.resources import ProcessorTimeRequest
from repro.errors import WalCorruptionError
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.task import TaskSpec
from repro.service.wal import (
    FORMAT_VERSION,
    LedgerEntry,
    WriteAheadLog,
    read_checkpoint,
    read_wal,
    records_to_entries,
    write_checkpoint,
)
from repro.sim.persistence import job_to_dict
from repro.verify.fuzz import random_case


def _entries(n=3, seed=0):
    case = random_case(random.Random(seed), max_jobs=max(n, 2))
    jobs = (list(case.jobs) * n)[:n]
    return [
        LedgerEntry(seq=i + 1, request_id=f"r{i}", qos=i % 3,
                    degraded=bool(i % 2), job=job)
        for i, job in enumerate(jobs)
    ]


DEC = (True, 0, ((0.0, 2, 3.0), (3.0, 1, 1.5)))
REJ = (False, None, ())


def test_wal_round_trips_jobs_and_decisions(tmp_path):
    entries = _entries(3)
    wal = WriteAheadLog(tmp_path)
    wal.append_jobs(entries)
    wal.append_decisions([1, 2, 3], [DEC, REJ, DEC])
    wal.close()

    records, truncated = read_wal(tmp_path / "wal.log")
    assert truncated == 0
    loaded = records_to_entries(records)
    assert [(e.seq, e.request_id, e.qos, e.degraded) for e in loaded] == [
        (e.seq, e.request_id, e.qos, e.degraded) for e in entries
    ]
    assert [e.decision for e in loaded] == [DEC, REJ, DEC]
    assert [job_to_dict(e.job) for e in loaded] == [
        job_to_dict(e.job) for e in entries
    ]


def _wire_text(chain):
    """A chain's wire text, built here from its fields (not its cache)."""
    return json.dumps(
        [
            chain.label,
            None if chain.params is None else dict(chain.params),
            [
                [t.name, t.processors, t.duration,
                 None if math.isinf(t.deadline) else t.deadline,
                 t.quality, t.max_concurrency]
                for t in chain.tasks
            ],
        ],
        separators=(",", ":"),
        ensure_ascii=False,
    )


def _reference_jobs_members(entries):
    """``chains``/``jobs`` of a version-3 jobs record, from first principles."""
    table = {}
    rows = [
        [e.seq, e.request_id, e.qos, int(e.degraded), e.job.job_id,
         e.job.release, e.job.name,
         [table.setdefault(_wire_text(c), len(table)) for c in e.job.chains]]
        for e in entries
    ]
    return {"chains": list(table), "jobs": rows}


def test_fast_jobs_encoding_is_byte_identical_to_reference(tmp_path):
    """The cached-literal assembly must match a plain dict encoding.

    ``append_jobs`` joins its chain table from each chain's cached wire
    literal and encodes only the scalar rows; the bytes on disk must be
    exactly what encoding the whole version-3 record as one dict through
    the reference JSON encoder produces — including awkward strings that
    need escapes, chain objects shared by several jobs, and equal chains
    that are distinct objects (one table slot).
    """
    from repro.workloads.synthetic import SyntheticParams

    params = SyntheticParams(x=16, t=25.0, alpha=0.5, laxity=0.5)
    shared = [params.tunable_job(float(i)) for i in range(4)]
    assert shared[0].chains[0] is shared[1].chains[0]  # one object, many jobs
    twin = Job(chains=(params.shape1_chain(),), release=9.0, job_id=99)
    assert twin.chains[0] == shared[0].chains[0]
    assert twin.chains[0] is not shared[0].chains[0]  # equal, distinct
    odd = _entries(3, seed=7)
    entries = [
        LedgerEntry(seq=i + 1, request_id=rid, qos=i % 3,
                    degraded=bool(i % 2), job=job)
        for i, (rid, job) in enumerate(
            zip(
                ['plain', 'quo"te', 'back\\slash', 'uni-é', 'ctrl-\n',
                 'r5', 'r6', 'r7'],
                shared + [twin] + [e.job for e in odd],
            )
        )
    ]
    wal = WriteAheadLog(tmp_path, fsync=False)
    wal.append_jobs(entries)
    wal.close()

    record = {"k": "jobs", "v": FORMAT_VERSION, **_reference_jobs_members(entries)}
    body = json.dumps(record, separators=(",", ":"), ensure_ascii=False).encode()
    reference = b"%08x " % (zlib.crc32(body) & 0xFFFFFFFF) + body + b"\n"
    assert (tmp_path / "wal.log").read_bytes() == reference
    assert record["chains"].count(_wire_text(twin.chains[0])) == 1

    records, truncated = read_wal(tmp_path / "wal.log")
    assert truncated == 0
    loaded = records_to_entries(records)
    assert [(e.seq, e.request_id) for e in loaded] == [
        (e.seq, e.request_id) for e in entries
    ]
    assert [job_to_dict(e.job) for e in loaded] == [
        job_to_dict(e.job) for e in entries
    ]


def test_torn_tail_is_tolerated_and_repaired(tmp_path):
    entries = _entries(2)
    wal = WriteAheadLog(tmp_path)
    wal.append_jobs(entries)
    wal.close()
    path = tmp_path / "wal.log"
    good = path.read_bytes()
    path.write_bytes(good + b"deadbeef {\"k\":\"job\",\"seq\":99")  # torn

    records, truncated = read_wal(path, repair=True)
    assert truncated > 0
    assert len(records) == 1  # the whole batch is one framed record
    assert len(records_to_entries(records)) == 2
    assert path.read_bytes() == good  # physically repaired
    assert read_wal(path) == (records, 0)


def test_damage_before_valid_records_is_corruption(tmp_path):
    entries = _entries(2)
    wal = WriteAheadLog(tmp_path)
    wal.append_jobs(entries)
    wal.append_decisions([1, 2], [DEC, REJ])  # a valid record *after* it
    wal.close()
    path = tmp_path / "wal.log"
    data = bytearray(path.read_bytes())
    data[15] ^= 0xFF  # flip a byte inside the *first* record's body
    path.write_bytes(bytes(data))
    with pytest.raises(WalCorruptionError):
        read_wal(path)


def _logged(tmp_path, name, append):
    """The records one WAL holds after ``append(wal)``."""
    wal = WriteAheadLog(tmp_path / name, fsync=False)
    append(wal)
    wal.close()
    return read_wal(tmp_path / name / "wal.log")[0]


def test_records_to_entries_dedup_and_conflicts(tmp_path):
    entries = _entries(1)
    [job_rec] = _logged(tmp_path, "jobs", lambda w: w.append_jobs(entries))
    dup = dict(job_rec)
    decided = (True, 0, ((0.0, 2, 3.0),))
    [dec] = _logged(tmp_path, "dec", lambda w: w.append_decisions([1], [decided]))
    same = records_to_entries([job_rec, dup, dec, dec])
    assert len(same) == 1 and same[0].decision == decided

    [unknown] = _logged(tmp_path, "unknown", lambda w: w.append_decisions([7], [REJ]))
    with pytest.raises(WalCorruptionError, match="unknown seq 7"):
        records_to_entries([unknown])
    [conflict] = _logged(tmp_path, "conflict", lambda w: w.append_decisions([1], [REJ]))
    with pytest.raises(WalCorruptionError, match="conflicting"):
        records_to_entries([job_rec, dec, conflict])
    with pytest.raises(WalCorruptionError, match="kind"):
        records_to_entries([{"k": "mystery", "v": FORMAT_VERSION}])


def test_decision_columns_of_mismatched_lengths_are_corruption(tmp_path):
    """A decision record whose columns disagree in length raises instead of
    dropping decisions or truncating placements."""
    entries = _entries(2)
    [job_rec] = _logged(tmp_path, "jobs", lambda w: w.append_jobs(entries))
    [dec] = _logged(tmp_path, "dec", lambda w: w.append_decisions([1, 2], [DEC, REJ]))
    assert records_to_entries([job_rec, dec])[0].decision == DEC
    for column, value in (
        ("seq", [1]),  # fewer seqs than chains/counts
        ("chain", [0]),
        ("n", [2, 0, 1]),
        ("n", [1, 0]),  # counts sum below the placements
        ("n", [3, -1]),  # sum matches, a count is negative
        ("start", [0.0]),
        ("width", [2, 1, 1]),
        ("dur", [3.0]),
    ):
        with pytest.raises(WalCorruptionError, match="length"):
            records_to_entries([job_rec, {**dec, column: value}])


def _write_hashed_checkpoint(directory, payload):
    body = json.dumps(payload, separators=(",", ":"), ensure_ascii=False).encode()
    body += b"\n"
    (directory / "checkpoint.json").write_bytes(
        hashlib.sha256(body).hexdigest().encode() + b"\n" + body
    )


def test_checkpoint_with_duplicate_seqs_or_bad_columns_is_corruption(tmp_path):
    """Correctly hashed checkpoints that no writer produces are refused:
    duplicate or non-positive job seqs, duplicate decision seqs, and
    decision columns that disagree in length."""
    write_checkpoint(tmp_path, _decided(_entries(2)))
    good = json.loads((tmp_path / "checkpoint.json").read_bytes().partition(b"\n")[2])
    assert good["dec"]["seq"] == [1, 2]
    row1, row2 = good["jobs"]
    for jobs, dec, match in (
        ([row1, row1], {**good["dec"], "seq": [1, 1]}, "duplicate or non-positive"),
        ([[0, *row1[1:]], row2], good["dec"], "duplicate or non-positive"),
        ([row1, row2], {**good["dec"], "seq": [2, 2]}, "duplicate decision seq"),
        ([row1, row2], {**good["dec"], "n": [0]}, "length"),
    ):
        _write_hashed_checkpoint(tmp_path, {**good, "jobs": jobs, "dec": dec})
        with pytest.raises(WalCorruptionError, match=match):
            read_checkpoint(tmp_path)
    _write_hashed_checkpoint(tmp_path, good)
    assert [e.seq for e in read_checkpoint(tmp_path)[0]] == [1, 2]


def _tuple_params_entry():
    """An entry whose chain params hold tuples (nested, and inside a dict)."""
    task = TaskSpec("t", ProcessorTimeRequest(2, 1.5), deadline=4.0)
    chain = TaskChain(
        (task,), label="c",
        params={"shape": (1, 2), "grid": ((0, 1), [2, (3,)]), "opt": {"k": (4,)}},
    )
    return LedgerEntry(seq=1, request_id="r", qos=0, degraded=False,
                       job=Job(chains=(chain,), release=0.0), decision=REJ)


def test_tuple_params_survive_the_wal(tmp_path):
    entry = _tuple_params_entry()
    wal = WriteAheadLog(tmp_path)
    wal.append_jobs([entry])
    wal.close()
    records, _ = read_wal(tmp_path / "wal.log")
    (loaded,) = records_to_entries(records)
    assert loaded.job.chains == entry.job.chains
    assert loaded.job.chains[0].params == {
        "shape": [1, 2], "grid": [[0, 1], [2, [3]]], "opt": {"k": [4]},
    }


def test_tuple_params_survive_the_checkpoint(tmp_path):
    entry = _tuple_params_entry()
    write_checkpoint(tmp_path, [entry])
    (loaded,), _ = read_checkpoint(tmp_path)
    assert loaded.job.chains == entry.job.chains
    assert repr(loaded) == repr(entry)


def test_checkpoint_round_trip_truncation_and_watermark(tmp_path):
    entries = _entries(3)
    for e in entries:
        e.decision = REJ
    wal = WriteAheadLog(tmp_path)
    wal.append_jobs(entries)
    wal.append_decisions([e.seq for e in entries], [e.decision for e in entries])
    write_checkpoint(tmp_path, entries)
    wal.truncate()
    wal.close()

    assert (tmp_path / "wal.log").stat().st_size == 0
    loaded, through = read_checkpoint(tmp_path)
    assert through == 3
    assert [(e.seq, e.request_id, e.decision) for e in loaded] == [
        (e.seq, e.request_id, e.decision) for e in entries
    ]
    # Records at or below the watermark are checkpoint-covered: skipped.
    records = _logged(tmp_path, "again", lambda w: w.append_jobs(entries))
    assert records_to_entries(records, min_seq=through) == []
    assert [e.seq for e in records_to_entries(records, min_seq=2)] == [3]


def test_checkpoint_checksum_and_version_guards(tmp_path):
    """Every way a checkpoint file can be wrong raises; absence is empty.

    Files of earlier format versions are refused with their version named:
    a version-2 checkpoint (hashed body, one nested JSON body per job), a
    version-1 checkpoint (JSON wrapper), and WAL records from before
    version 3 (no ``"v"``) or of another version.
    """
    entries = _entries(1)
    entries[0].decision = REJ
    write_checkpoint(tmp_path, entries)
    path = tmp_path / "checkpoint.json"
    good = path.read_bytes()
    header, _, body = good.partition(b"\n")
    assert header == hashlib.sha256(body).hexdigest().encode()
    assert body.startswith(b'{"version":3,"through_seq":1,"chains":[')

    # One body byte flipped, header not re-hashed.
    tampered = bytearray(good)
    tampered[len(header) + 1 + body.index(b'"through_seq":1') + 14] = ord("9")
    path.write_bytes(bytes(tampered))
    with pytest.raises(WalCorruptionError, match="checksum"):
        read_checkpoint(tmp_path)

    # A damaged header over an intact body.
    damaged = bytearray(good)
    damaged[0] = ord("0") if damaged[0] != ord("0") else ord("1")
    path.write_bytes(bytes(damaged))
    with pytest.raises(WalCorruptionError):
        read_checkpoint(tmp_path)

    # Bytes that were never a checkpoint.
    for junk in (b"not json at all", b"", body):
        path.write_bytes(junk)
        with pytest.raises(WalCorruptionError):
            read_checkpoint(tmp_path)

    def hashed(blob):
        return hashlib.sha256(blob).hexdigest().encode() + b"\n" + blob

    # A correctly hashed body of a later version is refused, not loaded.
    path.write_bytes(hashed(body.replace(b'"version":3', b'"version":4')))
    with pytest.raises(WalCorruptionError, match="version 4"):
        read_checkpoint(tmp_path)

    # A correctly hashed version-2 checkpoint: per-job nested JSON bodies.
    job = {"k": "job", "seq": 1, "rid": "r0", "cls": 0, "deg": 0,
           "job": [1, 0.0, "", [["", None, [["t", 1, 1.0, None, 1.0, 1]]]]]}
    v2 = json.dumps(
        {"version": 2, "through_seq": 1, "jobs": [job], "dec": [[False, None, []]]},
        separators=(",", ":"),
    ).encode() + b"\n"
    path.write_bytes(hashed(v2))
    with pytest.raises(WalCorruptionError, match="version 2"):
        read_checkpoint(tmp_path)

    # A version-1 (JSON-wrapped, re-serialization hashed) checkpoint.
    payload = {"version": 1, "through_seq": 1,
               "entries": [{**job, "dec": [False, None, []]}]}
    blob = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    wrapper = {"sha256": hashlib.sha256(blob.encode()).hexdigest(), "data": payload}
    path.write_text(json.dumps(wrapper, separators=(",", ":")) + "\n")
    with pytest.raises(WalCorruptionError, match="version 1"):
        read_checkpoint(tmp_path)

    # WAL records from before version 3 carry no version; another version
    # is named.  read_wal only checks framing, the decoder refuses them.
    for record, named in (
        ({"k": "jobs", "jobs": [job]}, "pre-3"),
        ({"k": "job", **job}, "pre-3"),
        ({"k": "dec", "seqs": [1], "dec": [[False, None, []]]}, "pre-3"),
        ({"k": "jobs", "v": 2, "chains": [], "jobs": []}, "version 2"),
    ):
        wal_body = json.dumps(record, separators=(",", ":")).encode()
        wal_path = tmp_path / "old-wal.log"
        wal_path.write_bytes(
            b"%08x " % (zlib.crc32(wal_body) & 0xFFFFFFFF) + wal_body + b"\n"
        )
        records, _ = read_wal(wal_path)
        with pytest.raises(WalCorruptionError, match=named):
            records_to_entries(records)

    missing = tmp_path / "fresh"
    missing.mkdir()
    assert read_checkpoint(missing) == ([], 0)


def test_partial_write_failpoint_tears_exactly_one_append(tmp_path):
    entries = _entries(2)
    wal = WriteAheadLog(tmp_path)
    wal.append_jobs(entries)
    wal.partial_write_after = 1
    with pytest.raises(OSError):
        wal.append_decisions([1, 2], [DEC, REJ])
    wal.abandon()

    records, truncated = read_wal(tmp_path / "wal.log", repair=True)
    assert truncated > 0  # the torn decision frame
    loaded = records_to_entries(records)
    assert [e.decision for e in loaded] == [None, None]  # jobs survive, undecided


def test_crc_framing_rejects_bit_rot(tmp_path):
    body = json.dumps({"k": "dec", "seqs": [], "dec": []}).encode()
    line = b"%08x " % (zlib.crc32(body) & 0xFFFFFFFF) + body + b"\n"
    path = tmp_path / "wal.log"
    path.write_bytes(line)
    records, _ = read_wal(path)
    assert records == [{"k": "dec", "seqs": [], "dec": []}]
    path.write_bytes(b"00000000 " + body + b"\n" + line)
    with pytest.raises(WalCorruptionError):
        read_wal(path)


def _decided(entries):
    for i, e in enumerate(entries):
        e.decision = DEC if i % 2 else REJ
    return entries


def _shared_and_odd_entries():
    """Generator jobs sharing chain objects, plus unrelated random jobs."""
    from repro.workloads.synthetic import SyntheticParams

    params = SyntheticParams(x=16, t=25.0, alpha=0.5, laxity=0.5)
    jobs = [params.tunable_job(float(i)) for i in range(6)]
    assert jobs[0].chains[0] is jobs[1].chains[0]
    jobs += [e.job for e in _entries(3, seed=7)]
    return _decided([
        LedgerEntry(seq=i + 1, request_id=f"r{i}", qos=i % 3,
                    degraded=bool(i % 2), job=job)
        for i, job in enumerate(jobs)
    ])


def test_checkpoint_write_read_write_is_byte_identical(tmp_path):
    entries = _shared_and_odd_entries()
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    write_checkpoint(first, entries)
    loaded, through = read_checkpoint(first)
    assert through == len(entries)
    assert [(e.seq, e.request_id, e.qos, e.degraded, e.decision) for e in loaded] == [
        (e.seq, e.request_id, e.qos, e.degraded, e.decision) for e in entries
    ]
    assert [job_to_dict(e.job) for e in loaded] == [job_to_dict(e.job) for e in entries]
    write_checkpoint(second, loaded)
    assert (second / "checkpoint.json").read_bytes() == (
        first / "checkpoint.json"
    ).read_bytes()


def test_checkpoint_body_reuses_the_wal_job_encoding(tmp_path):
    """The checkpoint's chain table and job rows are a WAL jobs record's."""
    entries = _shared_and_odd_entries()
    entries[-1].decision = None  # an undecided entry has no decision column
    write_checkpoint(tmp_path, entries)
    body = (tmp_path / "checkpoint.json").read_bytes().partition(b"\n")[2]
    payload = json.loads(body)
    assert payload["version"] == FORMAT_VERSION == 3
    assert payload["through_seq"] == len(entries)

    [record] = _logged(tmp_path, "wal", lambda w: w.append_jobs(entries))
    assert payload["chains"] == record["chains"]
    assert payload["jobs"] == record["jobs"]
    members = _reference_jobs_members(entries)
    assert payload["chains"] == members["chains"]
    assert payload["jobs"] == members["jobs"]
    wal_bytes = (tmp_path / "wal" / "wal.log").read_bytes()
    shared = wal_bytes[wal_bytes.index(b'"chains"'):-2]  # through the rows
    assert shared in body
    # Distinct chain values, once each: the synthetic shapes are shared.
    assert len(payload["chains"]) < sum(len(e.job.chains) for e in entries)

    decided = entries[:-1]
    dec = payload["dec"]
    assert dec["seq"] == [e.seq for e in decided]
    assert dec["chain"] == [e.decision[1] if e.decision[0] else -1 for e in decided]
    assert dec["n"] == [len(e.decision[2]) for e in decided]
    assert dec["start"] == [p[0] for e in decided for p in e.decision[2]]

    loaded, _ = read_checkpoint(tmp_path)
    assert [e.decision for e in loaded] == [e.decision for e in entries]


def _check_interning(originals, loaded):
    """Decoded chains equal the originals, with one object per distinct value.

    Position-wise equality means an object shared by two positions equals
    both originals, so chains are only ever shared when equal.
    """
    decoded = [c for e in loaded for c in e.job.chains]
    assert decoded == [c for e in originals for c in e.job.chains]
    values = []
    for chain in decoded:
        if not any(chain == seen for seen in values):
            values.append(chain)
    assert len({id(c) for c in decoded}) == len(values)


def test_decoding_interns_equal_chains(tmp_path):
    from repro.workloads.synthetic import SyntheticParams

    params = SyntheticParams(x=16, t=25.0, alpha=0.5, laxity=0.5)
    # Equal chains as *separate* objects, so sharing on decode comes from
    # the codec, not from the inputs.
    a, b = (
        Job(chains=(params.shape1_chain(), params.shape2_chain()),
            release=float(i), job_id=i)
        for i in range(2)
    )
    assert a.chains[0] == b.chains[0] and a.chains[0] is not b.chains[0]
    entries = _decided([
        LedgerEntry(seq=i + 1, request_id=f"r{i}", qos=0, degraded=False, job=job)
        for i, job in enumerate([a, b] + [e.job for e in _entries(4, seed=3)])
    ])

    write_checkpoint(tmp_path, entries)
    from_checkpoint, _ = read_checkpoint(tmp_path)
    assert from_checkpoint[0].job.chains[0] is from_checkpoint[1].job.chains[0]
    assert from_checkpoint[0].job.chains[0] is not from_checkpoint[0].job.chains[1]
    _check_interning(entries, from_checkpoint)

    wal = WriteAheadLog(tmp_path / "wal", fsync=False)
    wal.append_jobs(entries[:3])
    wal.append_jobs(entries[3:])
    wal.close()
    records, _ = read_wal(tmp_path / "wal" / "wal.log")
    from_wal = records_to_entries(records)
    assert from_wal[0].job.chains[0] is from_wal[1].job.chains[0]
    _check_interning(entries, from_wal)

    # The table is per call: nothing is shared across two decodes.
    again = records_to_entries(records)
    assert again[0].job.chains[0] is not from_wal[0].job.chains[0]


def test_write_checkpoint_makes_the_rename_durable_before_returning(
    tmp_path, monkeypatch
):
    import os
    import stat

    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
        events.append(f"fsync:{kind}")
        real_fsync(fd)

    def replace(src, dst):
        events.append("replace")
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    write_checkpoint(tmp_path, _decided(_entries(2)))
    assert events == ["fsync:file", "replace", "fsync:dir"]
