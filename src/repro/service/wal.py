"""The write-ahead decision log (WAL) behind the admission service.

Durability contract (**append-before-ack**): a client is only ever acked
an admission decision after (1) the *effective job* it was decided on and
(2) the decision itself are on stable storage.  Both are appended to
``wal.log`` and fsync'd *before* the service resolves the client future —
so any acked decision survives a crash, and recovery can rebuild the
arbitrator's exact in-memory schedule by replaying the log
(:mod:`repro.service.recovery`).

File format
-----------

``wal.log`` is a line-oriented log.  Each record is one line::

    <crc32 as 8 hex chars> <compact JSON body>\n

The CRC covers the JSON body bytes, so a torn append (crash mid-write)
is detected as either a line without a trailing newline or a checksum
mismatch **on the final line** — both are legitimate crash artifacts and
recovery truncates them.  A bad record *followed by valid records* can
only mean real corruption and raises
:class:`~repro.errors.WalCorruptionError` instead of being papered over.

Record kinds:

``jobs``
    ``{"k":"jobs","jobs":[{"seq":N,"rid":...,"cls":C,"deg":0|1,
    "job":[...]},...]}`` — one ingress batch of *effective* jobs
    (post-degrade, i.e. exactly what the arbitrator will be offered),
    each with its monotonically increasing ledger sequence number,
    client request id, QoS class and the compact positional job encoding
    (see ``_job_to_wire``).  The whole batch is a single framed record —
    one ``json.dumps``, one CRC, one ``os.write`` — appended before the
    decision is made.  (A legacy per-job ``"k":"job"`` record is still
    understood on read.)
``dec``
    ``{"k":"dec","seqs":[...],"dec":[...]}`` — the decision batch for
    previously logged jobs.  Each decision is the canonical tuple
    ``[admitted, chain_index, [[start, width, duration], ...]]`` (floats
    round-trip exactly through JSON: Python prints shortest round-trip
    reprs).  Appended and fsync'd before any future in the batch is
    resolved; that one fsync also hardens the batch's ``jobs`` record,
    which is written earlier but only needs to be durable before the
    first ack.

Checkpoints
-----------

``checkpoint.json`` snapshots the complete decided ledger (all entries
since the origin) plus the highest sequence number it covers.  The file
is one header line — the SHA-256 hex digest of the body — followed by
the body bytes it hashes::

    <sha256 hex>\n
    {"version":2,"through_seq":N,"jobs":[<job body>,...],"dec":[...]}\n

Each ``jobs`` element is byte-for-byte the job body a WAL ``jobs`` record
carries (one job encoding for both files, see :func:`_entry_json`) and
``dec`` holds the aligned decision tuples.  The reader verifies one
SHA-256 over the raw body before parsing it once; a damaged header or
body, or a checkpoint of another format version, raises
:class:`~repro.errors.WalCorruptionError`.  The file is written
atomically (temp file + fsync + ``os.replace`` + directory fsync), after
which ``wal.log`` is truncated to empty.  Recovery loads the checkpoint
first and ignores WAL records with ``seq <= through_seq`` — so a crash
*between* checkpoint write and log truncation replays idempotently.

Decoding (:func:`read_checkpoint`, :func:`records_to_entries`) gives equal
wire chains one shared :class:`~repro.model.chain.TaskChain`, as the
generators that created the jobs did before the crash.  The checksums
only prove the bytes are the ones written; that the ledger they hold is
the pre-crash schedule is proven separately at recovery, by per-entry
bit-identical replay and the independent auditor
(:mod:`repro.service.recovery`).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from repro.core.admission import AdmissionDecision
from repro.core.resources import ProcessorTimeRequest
from repro.errors import WalCorruptionError
from repro.model.chain import TaskChain
from repro.model.job import Job
from repro.model.task import TaskSpec

__all__ = [
    "CHECKPOINT_VERSION",
    "DecisionTuple",
    "decision_to_tuple",
    "LedgerEntry",
    "WriteAheadLog",
    "read_wal",
    "read_checkpoint",
    "write_checkpoint",
]

#: Format version of ``checkpoint.json``.  Version 1 wrapped the payload
#: in a JSON object next to a SHA-256 of its re-serialization; version 2
#: hashes the body bytes as written (module docstring).
CHECKPOINT_VERSION = 2

#: ``(admitted, chain_index | None, ((start, width, duration), ...))`` —
#: the canonical bit-exact decision fingerprint, the same shape the
#: differential fuzzer digests (:mod:`repro.verify.fuzz`).
DecisionTuple = tuple[bool, int | None, tuple[tuple[float, int, float], ...]]


def decision_to_tuple(decision: AdmissionDecision) -> DecisionTuple:
    """Canonical ledger form of one admission decision."""
    if decision.admitted and decision.placement is not None:
        cp = decision.placement
        return (
            True,
            cp.chain_index,
            tuple((pl.start, pl.processors, pl.duration) for pl in cp.placements),
        )
    return (False, None, ())


def _job_to_wire(job: Job) -> list[object]:
    """Compact positional encoding of one job.

    The WAL logs every request's effective job, so its encoding is on the
    ack critical path; positional lists (no repeated keys) keep the
    per-job byte and ``json.dumps`` cost a fraction of the archival
    :func:`repro.sim.persistence.job_to_dict` form.  Shape::

        [job_id, release, name, [[label, params|null, [[task_name,
            processors, duration, deadline|null, quality,
            max_concurrency], ...]], ...]]
    """
    return [
        job.job_id,
        job.release,
        job.name,
        [
            [
                chain.label,
                dict(chain.params) if chain.params else None,
                [
                    [
                        t.name,
                        t.request.processors,
                        t.request.duration,
                        None if math.isinf(t.deadline) else t.deadline,
                        t.quality,
                        t.max_concurrency,
                    ]
                    for t in chain.tasks
                ],
            ]
            for chain in job.chains
        ],
    ]


def _chain_from_wire(data: Sequence[object]) -> TaskChain:
    label, params, tasks = data
    return TaskChain(
        tuple(
            TaskSpec(
                str(tname),
                ProcessorTimeRequest(int(procs), float(dur)),
                deadline=math.inf if dl is None else float(dl),
                quality=float(q),
                max_concurrency=int(mc),
            )
            for tname, procs, dur, dl, q, mc in tasks  # type: ignore[union-attr]
        ),
        label=str(label),
        params=params,  # type: ignore[arg-type]
    )


#: Decode-side chain interning table: ``repr`` of a JSON-decoded wire
#: chain -> the one :class:`TaskChain` built for it.  Each decoding call
#: owns a fresh table, so equal chains within one file share an object
#: (as they did in the generator that created them) and nothing outlives
#: the call.
ChainTable = dict[str, TaskChain]


def _job_from_wire(data: Sequence[object], chains: ChainTable) -> Job:
    """Decode one wire job, reusing ``chains`` for repeated wire chains.

    The key is the ``repr`` of the decoded JSON value: exact (it keeps
    ``1`` and ``1.0`` apart, and every float's shortest round-trip
    digits) and far cheaper than building the chain it stands for.
    """
    job_id, release, name, wire_chains = data
    decoded = []
    for wire in wire_chains:  # type: ignore[union-attr]
        key = repr(wire)
        chain = chains.get(key)
        if chain is None:
            chain = chains[key] = _chain_from_wire(wire)
        decoded.append(chain)
    return Job(
        chains=tuple(decoded),
        release=float(release),  # type: ignore[arg-type]
        job_id=int(job_id),  # type: ignore[arg-type]
        name=str(name),
    )


def _tuple_to_wire(tup: DecisionTuple) -> list[object]:
    return [tup[0], tup[1], [list(p) for p in tup[2]]]


def _tuple_from_wire(data: Sequence[object]) -> DecisionTuple:
    admitted, chain, placements = data
    return (
        bool(admitted),
        None if chain is None else int(chain),
        tuple(
            (float(s), int(p), float(d))
            for s, p, d in placements  # type: ignore[union-attr]
        ),
    )


@dataclass(slots=True)
class LedgerEntry:
    """One durable admission: the effective job and (once made) its decision.

    ``degraded`` marks jobs whose OR-path set was narrowed under overload
    *before* logging — the logged job is the degraded one, so replay needs
    no knowledge of the load situation that caused it.  ``decision`` is
    ``None`` for a job logged but not yet decided (the crash-mid-decision
    window); recovery re-decides those.
    """

    seq: int
    request_id: str
    qos: int
    degraded: bool
    job: Job
    decision: DecisionTuple | None = None

    def job_record(self) -> dict[str, object]:
        return {
            "k": "job",
            "seq": self.seq,
            "rid": self.request_id,
            "cls": self.qos,
            "deg": int(self.degraded),
            "job": _job_to_wire(self.job),
        }

    @staticmethod
    def from_job_record(
        body: Mapping[str, object], chains: ChainTable
    ) -> "LedgerEntry":
        """Decode one job body, sharing chains through the caller's table."""
        return LedgerEntry(
            seq=int(body["seq"]),  # type: ignore[arg-type]
            request_id=str(body["rid"]),
            qos=int(body["cls"]),  # type: ignore[arg-type]
            degraded=bool(body["deg"]),
            job=_job_from_wire(body["job"], chains),  # type: ignore[arg-type]
        )


def _frame(body: bytes) -> bytes:
    return b"%08x " % (zlib.crc32(body) & 0xFFFFFFFF) + body + b"\n"


#: Hot-path encoder: no circular-reference bookkeeping (wire structures
#: are trees by construction), no ASCII escaping (UTF-8 on disk).
_dumps = json.JSONEncoder(
    separators=(",", ":"), check_circular=False, ensure_ascii=False
).encode


def _encode(record: Mapping[str, object]) -> bytes:
    return _frame(_dumps(record).encode("utf-8"))


def _quote(s: str) -> str:
    """JSON string literal; inline for the common escape-free case."""
    if '"' in s or "\\" in s or not s.isprintable():
        return _dumps(s)
    return f'"{s}"'


_CHAIN_CACHE_LIMIT = 4096

#: Chain -> JSON-fragment cache, keyed by ``id`` with the chain itself
#: held as a strong reference — so a cached id can never be recycled by a
#: different object while its entry exists, making the identity check
#: sound.  Generators that stamp out many jobs from one template share
#: chain objects (e.g. :meth:`repro.workloads.synthetic.SyntheticParams.
#: _chains`), which turns the per-job chain encoding — the dominant WAL
#: append cost — into a dict hit.  Chains are immutable by convention;
#: mutating one after it was logged is undefined behaviour everywhere in
#: this codebase, the cache merely shares that assumption.
_chain_json_cache: dict[int, tuple[TaskChain, str]] = {}


def _chain_json(chain: TaskChain) -> str:
    hit = _chain_json_cache.get(id(chain))
    if hit is not None and hit[0] is chain:
        return hit[1]
    fragment = _dumps(
        [
            chain.label,
            dict(chain.params) if chain.params else None,
            [
                [
                    t.name,
                    t.request.processors,
                    t.request.duration,
                    None if math.isinf(t.deadline) else t.deadline,
                    t.quality,
                    t.max_concurrency,
                ]
                for t in chain.tasks
            ],
        ]
    )
    if len(_chain_json_cache) >= _CHAIN_CACHE_LIMIT:
        _chain_json_cache.clear()
    _chain_json_cache[id(chain)] = (chain, fragment)
    return fragment


def _entry_json(e: "LedgerEntry") -> str:
    """One job body, byte-identical to ``_dumps(e.job_record())``.

    Assembled from cached chain fragments instead of re-serializing the
    whole job: floats use ``repr`` (exactly what the JSON encoder emits)
    and strings go through :func:`_quote`, so the output stays
    bit-compatible with the reference dict encoding — which the WAL test
    suite asserts.
    """
    job = e.job
    return (
        f'{{"k":"job","seq":{e.seq},"rid":{_quote(e.request_id)},'
        f'"cls":{e.qos},"deg":{1 if e.degraded else 0},'
        f'"job":[{job.job_id},{job.release!r},{_quote(job.name)},'
        f'[{",".join([_chain_json(c) for c in job.chains])}]]}}'
    )


class WriteAheadLog:
    """Append-only fsync'd record log over a raw file descriptor.

    Raw ``os.write`` (no Python-level buffering) keeps crash semantics
    honest: once an append call returns, the bytes are in the OS; after
    :meth:`sync` they are on stable storage.  The chaos harness arms
    :attr:`partial_write_after` to make the *n*-th append from now write
    only a prefix of its record and then raise ``OSError`` — the
    kill-mid-append fault recovery must tolerate.
    """

    def __init__(self, directory: str | Path, *, fsync: bool = True) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / "wal.log"
        self._fd = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        self.fsync = fsync
        self.appends = 0
        self.syncs = 0
        #: Chaos fail-point: when set to ``n``, the ``n``-th append from
        #: now writes ``partial_write_fraction`` of its bytes, then raises.
        self.partial_write_after: int | None = None
        self.partial_write_fraction: float = 0.5

    # ------------------------------------------------------------------

    def _append(self, data: bytes) -> None:
        self.appends += 1
        if self.partial_write_after is not None:
            self.partial_write_after -= 1
            if self.partial_write_after <= 0:
                self.partial_write_after = None
                keep = max(1, int(len(data) * self.partial_write_fraction))
                os.write(self._fd, data[:keep])
                raise OSError(
                    "injected crash: WAL append torn after "
                    f"{keep}/{len(data)} bytes"
                )
        os.write(self._fd, data)

    def sync(self) -> None:
        if self.fsync:
            os.fsync(self._fd)
            self.syncs += 1

    def append_jobs(
        self, entries: Sequence[LedgerEntry], *, sync: bool = True
    ) -> None:
        """Log a batch of effective jobs (one write; fsync unless deferred).

        The whole batch is one framed record — one ``json.dumps``, one
        CRC, one ``os.write`` — which keeps the per-job WAL cost small
        relative to the decision it protects.  A torn append therefore
        loses the entire batch, which is exactly the right unit: none of
        its requests were acked yet.  ``sync=False`` defers durability to
        the batch's :meth:`append_decisions` fsync (nothing is acked in
        between, so append-before-ack still holds).

        The body is assembled from per-chain cached JSON fragments
        (:func:`_entry_json`) — byte-identical to encoding
        ``{"k": "jobs", "jobs": [e.job_record() for e in entries]}``,
        but an order of magnitude cheaper when jobs share chain objects.
        """
        body = (
            '{"k":"jobs","jobs":['
            + ",".join([_entry_json(e) for e in entries])
            + "]}"
        )
        self._append(_frame(body.encode("utf-8")))
        if sync:
            self.sync()

    def append_decisions(
        self, seqs: Sequence[int], decisions: Sequence[DecisionTuple]
    ) -> None:
        """Durably log one decision batch for previously logged jobs."""
        record = {
            "k": "dec",
            "seqs": list(seqs),
            "dec": [_tuple_to_wire(t) for t in decisions],
        }
        self._append(_encode(record))
        self.sync()

    def truncate(self) -> None:
        """Empty the log (post-checkpoint); durable immediately."""
        os.ftruncate(self._fd, 0)
        self.sync()

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def abandon(self) -> None:
        """Simulated crash: drop the descriptor without flushing/closing
        niceties (``os.close`` only — what a dying process gets)."""
        self.close()


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


def _parse_line(line: bytes) -> dict[str, object] | None:
    """Decode one framed record; ``None`` when the frame is damaged."""
    if len(line) < 10 or line[8:9] != b" ":
        return None
    body = line[9:]
    try:
        crc = int(line[:8], 16)
    except ValueError:
        return None
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        return None
    try:
        record = json.loads(body)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


def read_wal(
    path: str | Path, *, repair: bool = False
) -> tuple[list[dict[str, object]], int]:
    """Parse ``wal.log`` into records, tolerating a torn tail.

    Returns ``(records, truncated_bytes)``.  A damaged record is accepted
    only as the *final* frame (the partial-append crash artifact); with
    ``repair=True`` the file is physically truncated back to the good
    prefix.  Damage followed by valid records raises
    :class:`~repro.errors.WalCorruptionError`.
    """
    path = Path(path)
    if not path.exists():
        return [], 0
    data = path.read_bytes()
    records: list[dict[str, object]] = []
    offset = 0
    good_end = 0
    truncated = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline < 0:
            truncated = len(data) - offset  # torn tail: no newline
            break
        line = data[offset:newline]
        record = _parse_line(line)
        if record is None:
            # Only acceptable as the final frame of the file.
            if newline != len(data) - 1:
                raise WalCorruptionError(
                    f"{path}: damaged record at byte {offset} is followed "
                    "by later records — log is corrupt beyond a torn tail"
                )
            truncated = len(data) - offset
            break
        records.append(record)
        offset = newline + 1
        good_end = offset
    if truncated and repair:
        with open(path, "r+b") as fh:
            fh.truncate(good_end)
            fh.flush()
            os.fsync(fh.fileno())
    return records, truncated


def records_to_entries(
    records: Sequence[Mapping[str, object]],
    *,
    min_seq: int = 0,
) -> list[LedgerEntry]:
    """Fold raw WAL records into ordered, deduplicated ledger entries.

    ``min_seq`` drops job records already covered by a checkpoint.
    Replay is idempotent: a duplicate ``seq`` (the service re-appending
    after a recovery) keeps the first occurrence; a ``dec`` record for an
    entry that already has a decision must agree with it.  Equal wire
    chains decode to one shared :class:`TaskChain`.
    """
    by_seq: dict[int, LedgerEntry] = {}
    chains: ChainTable = {}
    for record in records:
        kind = record.get("k")
        if kind == "job" or kind == "jobs":
            bodies = record["jobs"] if kind == "jobs" else (record,)
            for body in bodies:  # type: ignore[union-attr]
                seq = int(body["seq"])
                if seq > min_seq and seq not in by_seq:
                    by_seq[seq] = LedgerEntry.from_job_record(body, chains)
        elif kind == "dec":
            seqs = record["seqs"]
            decisions = record["dec"]
            for seq, wire in zip(seqs, decisions):  # type: ignore[arg-type]
                seq = int(seq)  # type: ignore[arg-type]
                if seq <= min_seq:
                    continue
                entry = by_seq.get(seq)
                if entry is None:
                    raise WalCorruptionError(
                        f"decision record references unknown seq {seq}"
                    )
                tup = _tuple_from_wire(wire)  # type: ignore[arg-type]
                if entry.decision is None:
                    entry.decision = tup
                elif entry.decision != tup:
                    raise WalCorruptionError(
                        f"conflicting decisions logged for seq {seq}"
                    )
        else:
            raise WalCorruptionError(f"unknown WAL record kind {kind!r}")
    return [by_seq[seq] for seq in sorted(by_seq)]


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def write_checkpoint(
    directory: str | Path, entries: Sequence[LedgerEntry]
) -> Path:
    """Atomically and durably snapshot the ledger; returns the checkpoint path.

    Every entry is written, decided or not.  Callers checkpoint only
    decided ledgers — the WAL is truncated up to ``through_seq`` next, so
    an undecided entry must never be hidden below that watermark
    (:meth:`AdmissionService.checkpoint` refuses to; recovery rejects a
    checkpoint that does).  The job bodies are the WAL's own encoding
    (:func:`_entry_json`), so chains already logged are cache hits.

    When this returns, the rename is durable too: the directory is
    fsync'd after ``os.replace``, so truncating the WAL afterwards can
    never outlive a rename lost to a power failure.
    """
    directory = Path(directory)
    through_seq = max((e.seq for e in entries), default=0)
    decisions = _dumps(
        [None if e.decision is None else _tuple_to_wire(e.decision) for e in entries]
    )
    body = (
        f'{{"version":{CHECKPOINT_VERSION},"through_seq":{through_seq},'
        f'"jobs":[{",".join([_entry_json(e) for e in entries])}],'
        f'"dec":{decisions}}}\n'
    ).encode("utf-8")
    tmp = directory / "checkpoint.json.tmp"
    path = directory / "checkpoint.json"
    with open(tmp, "wb") as fh:
        fh.write(hashlib.sha256(body).hexdigest().encode("ascii") + b"\n")
        fh.write(body)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return path


def _wrapped_version(data: bytes) -> object:
    """The version a version-1 (JSON-wrapped) checkpoint declares, else None.

    Only consulted to name the version in the error for a file that is
    not a current checkpoint; nothing of such a file is ever loaded.
    """
    try:
        return json.loads(data)["data"]["version"]
    except (ValueError, KeyError, TypeError):
        return None


def read_checkpoint(
    directory: str | Path,
) -> tuple[list[LedgerEntry], int]:
    """Load ``checkpoint.json``; returns ``(entries, through_seq)``.

    A missing checkpoint is the empty ledger.  The body's SHA-256 is
    checked against the header before anything is parsed; a damaged
    header or body, or any other format version, raises
    :class:`~repro.errors.WalCorruptionError` — a damaged checkpoint
    silently ignored would silently drop acked decisions.  Equal wire
    chains decode to one shared :class:`TaskChain`.
    """
    path = Path(directory) / "checkpoint.json"
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return [], 0
    header, _, body = data.partition(b"\n")
    if hashlib.sha256(body).hexdigest().encode("ascii") != header:
        version = _wrapped_version(data)
        if version is not None:
            raise WalCorruptionError(
                f"{path}: unsupported checkpoint version {version!r} "
                f"(this reader loads version {CHECKPOINT_VERSION} only)"
            )
        raise WalCorruptionError(f"{path}: checkpoint checksum mismatch")
    try:
        payload = json.loads(body)
        version = payload["version"]
        if version != CHECKPOINT_VERSION:
            raise WalCorruptionError(
                f"{path}: unsupported checkpoint version {version!r}"
            )
        jobs, decisions = payload["jobs"], payload["dec"]
        if len(jobs) != len(decisions):
            raise WalCorruptionError(
                f"{path}: {len(jobs)} jobs but {len(decisions)} decisions"
            )
        chains: ChainTable = {}
        entries = []
        for body_json, wire in zip(jobs, decisions):
            entry = LedgerEntry.from_job_record(body_json, chains)
            if wire is not None:
                entry.decision = _tuple_from_wire(wire)
            entries.append(entry)
        through_seq = int(payload["through_seq"])
    except WalCorruptionError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise WalCorruptionError(f"{path}: unreadable checkpoint: {exc}") from exc
    return entries, through_seq
