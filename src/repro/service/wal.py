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

Both files share one ledger codec, format version 3
(:data:`FORMAT_VERSION`), each record or body written with one JSON
encode and read with one ``json.loads``:

* a **chain table**, ``"chains"``: each distinct chain once, as a JSON
  string holding the chain's wire text (:attr:`~repro.model.chain.
  TaskChain.wire`).  It is keyed by that string, so equal chains
  share a slot even when they are distinct objects;
* **job rows**, ``"jobs"``: ``[seq, request_id, qos_class, degraded
  (0|1), job_id, release, name, [chain table index, ...]]`` per job;
* **decision columns**: ``"seq"``, ``"chain"`` (the admitted chain's
  index within its job, ``-1`` when rejected), ``"n"`` (placement
  count) and all placements concatenated as ``"start"``, ``"width"``,
  ``"dur"``.  Floats round-trip exactly (shortest round-trip reprs).

A ``{"k":"jobs","v":3,"chains":[...],"jobs":[...]}`` record logs one
ingress batch of *effective* jobs (post-degrade: exactly what the
arbitrator will be offered) before they are decided.  A
``{"k":"dec","v":3,"seq":[...],...}`` record holds their decision
columns; it is appended and fsync'd before any future in the batch is
resolved, and that one fsync also hardens the ``jobs`` record, which
only needs to be durable before the first ack.  A record of any other
version (records before version 3 carry no ``"v"``) raises
:class:`~repro.errors.WalCorruptionError` naming it; there is no
converter.

Checkpoints
-----------

``checkpoint.json`` snapshots the complete decided ledger (all entries
since the origin) plus the highest sequence number it covers.  The file
is one header line — the SHA-256 hex digest of the body — followed by
the body bytes it hashes::

    <sha256 hex>\n
    {"version":3,"through_seq":N,"chains":[...],"jobs":[...],"dec":{...}}\n

``chains``/``jobs`` are a chain table and job rows exactly as in a WAL
``jobs`` record, and ``dec`` holds the decision columns of the decided
entries.  The reader verifies one SHA-256 over the raw body before
parsing it once; a damaged header or body, or a checkpoint of another
format version, raises :class:`~repro.errors.WalCorruptionError` naming
the version.  The file is written atomically (temp file + fsync +
``os.replace`` + directory fsync), after which ``wal.log`` is truncated
to empty.  Recovery loads the checkpoint first and ignores WAL records
with ``seq <= through_seq`` — so a crash *between* checkpoint write and
log truncation replays idempotently.

Decoding (:func:`read_checkpoint`, :func:`records_to_entries`) builds
each distinct table string into a :class:`~repro.model.chain.TaskChain`
once per call and reuses it across every record of that call, so equal
chains decode to one shared object, as the generators that created the
jobs made them before the crash.  The checksums only prove the bytes
are the ones written; that the ledger they hold is the pre-crash
schedule is proven separately at recovery, by per-entry bit-identical
replay and the independent auditor (:mod:`repro.service.recovery`).
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from repro.core.admission import AdmissionDecision
from repro.errors import WalCorruptionError
from repro.model.chain import TaskChain
from repro.model.job import Job

__all__ = [
    "FORMAT_VERSION",
    "DecisionTuple",
    "decision_to_tuple",
    "LedgerEntry",
    "WriteAheadLog",
    "read_wal",
    "read_checkpoint",
    "write_checkpoint",
]

#: Format version of WAL records and ``checkpoint.json`` (the ledger
#: codec of the module docstring).  Version 2 encoded every job as its
#: own nested JSON body; version 1 checkpoints wrapped the payload in a
#: JSON object next to a SHA-256 of its re-serialization.
FORMAT_VERSION = 3

#: ``(admitted, chain_index | None, ((start, width, duration), ...))`` —
#: the canonical bit-exact decision fingerprint, the same shape the
#: differential fuzzer digests (:mod:`repro.verify.fuzz`).
DecisionTuple = tuple[bool, int | None, tuple[tuple[float, int, float], ...]]

_REJECTED: DecisionTuple = (False, None, ())


def decision_to_tuple(decision: AdmissionDecision) -> DecisionTuple:
    """Canonical ledger form of one admission decision."""
    if decision.admitted and decision.placement is not None:
        cp = decision.placement
        return (
            True,
            cp.chain_index,
            tuple((pl.start, pl.processors, pl.duration) for pl in cp.placements),
        )
    return _REJECTED


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


def _frame(body: bytes) -> bytes:
    return b"%08x " % (zlib.crc32(body) & 0xFFFFFFFF) + body + b"\n"


#: Compact JSON without circular-reference bookkeeping (wire structures
#: are trees) or ASCII escaping (UTF-8 on disk).
_dumps = json.JSONEncoder(
    separators=(",", ":"), check_circular=False, ensure_ascii=False
).encode


# ---------------------------------------------------------------------------
# The ledger codec
# ---------------------------------------------------------------------------


def _jobs_json(entries: Sequence[LedgerEntry]) -> str:
    """``"chains":[...],"jobs":[...]`` for ``entries``: the table joined
    from the chains' cached wire literals, the rows one encode of scalars."""
    table: dict[str, int] = {}
    rows = []
    for e in entries:
        job = e.job
        rows.append([
            e.seq, e.request_id, e.qos, 1 if e.degraded else 0,
            job.job_id, job.release, job.name,
            [table.setdefault(c.wire, len(table)) for c in job.chains],
        ])
    return f'"chains":[{",".join(table)}],"jobs":{_dumps(rows)}'


def _decode_jobs(
    body: Mapping[str, list],
    interned: dict[str, TaskChain],
    by_seq: dict[int, LedgerEntry],
    min_seq: int,
) -> None:
    """Add the job rows of ``body`` above ``min_seq`` not yet in ``by_seq``;
    ``interned`` (wire text -> chain) spans every record of one decode."""
    table = []
    for text in body["chains"]:
        chain = interned.get(text)
        if chain is None:
            chain = interned[text] = TaskChain.from_wire(text)
        table.append(chain)
    for seq, rid, qos, degraded, job_id, release, name, chains in body["jobs"]:
        if seq > min_seq and seq not in by_seq:
            job = Job(tuple([table[i] for i in chains]), float(release), job_id, name)
            by_seq[seq] = LedgerEntry(seq, rid, qos, degraded == 1, job)


def _check_version(what: str, version: object) -> None:
    if version != FORMAT_VERSION:
        raise WalCorruptionError(
            f"{what}: unsupported version {version} "
            f"(this reader loads version {FORMAT_VERSION} only)"
        )


def _decision_columns(
    seqs: Sequence[int], decisions: Sequence[DecisionTuple]
) -> dict[str, list]:
    chosen, counts, starts, widths, durations = [], [], [], [], []
    for admitted, chain, placements in decisions:
        chosen.append(chain if admitted else -1)
        counts.append(len(placements))
        for start, width, duration in placements:
            starts.append(start)
            widths.append(width)
            durations.append(duration)
    return {
        "seq": list(seqs), "chain": chosen, "n": counts,
        "start": starts, "width": widths, "dur": durations,
    }


def _apply_decisions(
    columns: Mapping[str, list], by_seq: dict[int, LedgerEntry], min_seq: int
) -> None:
    """Attach decoded decisions above ``min_seq`` to their entries.

    Columns of mismatched lengths, a decision for an unknown seq, or one
    that disagrees with a decision the entry already has, raise
    :class:`WalCorruptionError`.
    """
    seqs, chosen, counts = columns["seq"], columns["chain"], columns["n"]
    starts, widths, durations = columns["start"], columns["width"], columns["dur"]
    if not (
        len(seqs) == len(chosen) == len(counts)
        and min(counts, default=0) >= 0
        and sum(counts) == len(starts) == len(widths) == len(durations)
    ):
        raise WalCorruptionError("decision columns disagree in length")
    end = 0
    for seq, chain, n in zip(seqs, chosen, counts):
        begin, end = end, end + n
        if seq <= min_seq:
            continue
        entry = by_seq.get(seq)
        if entry is None:
            raise WalCorruptionError(f"decision record references unknown seq {seq}")
        if chain < 0:
            tup = _REJECTED
        else:
            placements = zip(starts[begin:end], widths[begin:end], durations[begin:end])
            tup = (True, chain, tuple(placements))
        if entry.decision is None:
            entry.decision = tup
        elif entry.decision != tup:
            raise WalCorruptionError(f"conflicting decisions logged for seq {seq}")


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

        The whole batch is one framed record — a chain table joined from
        the chains' cached wire literals plus one encode of scalar job
        rows, one CRC, one ``os.write`` — which keeps the per-job WAL
        cost small relative to the decision it protects.  A torn append
        therefore loses the entire batch, which is exactly the right
        unit: none of its requests were acked yet.  ``sync=False`` defers
        durability to the batch's :meth:`append_decisions` fsync (nothing
        is acked in between, so append-before-ack still holds).
        """
        body = f'{{"k":"jobs","v":{FORMAT_VERSION},{_jobs_json(entries)}}}'
        self._append(_frame(body.encode("utf-8")))
        if sync:
            self.sync()

    def append_decisions(
        self, seqs: Sequence[int], decisions: Sequence[DecisionTuple]
    ) -> None:
        """Durably log one decision batch for previously logged jobs."""
        record = {"k": "dec", "v": FORMAT_VERSION, **_decision_columns(seqs, decisions)}
        self._append(_frame(_dumps(record).encode("utf-8")))
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
    chains decode to one shared :class:`TaskChain`.  A record of another
    format version raises :class:`WalCorruptionError` naming it.
    """
    by_seq: dict[int, LedgerEntry] = {}
    interned: dict[str, TaskChain] = {}
    for record in records:
        _check_version("WAL record", record.get("v", "pre-3 (unversioned)"))
        kind = record.get("k")
        if kind == "jobs":
            _decode_jobs(record, interned, by_seq, min_seq)  # type: ignore[arg-type]
        elif kind == "dec":
            _apply_decisions(record, by_seq, min_seq)  # type: ignore[arg-type]
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
    checkpoint that does).  The chain table and job rows are the WAL's own
    codec, so chains already logged reuse their cached wire literals.

    When this returns, the rename is durable too: the directory is
    fsync'd after ``os.replace``, so truncating the WAL afterwards can
    never outlive a rename lost to a power failure.
    """
    directory = Path(directory)
    through_seq = max((e.seq for e in entries), default=0)
    decided = [e for e in entries if e.decision is not None]
    decisions = _decision_columns(
        [e.seq for e in decided], [e.decision for e in decided]  # type: ignore[misc]
    )
    body = (
        f'{{"version":{FORMAT_VERSION},"through_seq":{through_seq},'
        f'{_jobs_json(entries)},"dec":{_dumps(decisions)}}}\n'
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
            _check_version(f"{path}: checkpoint", version)
        raise WalCorruptionError(f"{path}: checkpoint checksum mismatch")
    try:
        payload = json.loads(body)
        _check_version(f"{path}: checkpoint", payload["version"])
        by_seq: dict[int, LedgerEntry] = {}
        _decode_jobs(payload, {}, by_seq, 0)
        if len(by_seq) != len(payload["jobs"]):
            raise WalCorruptionError(f"{path}: duplicate or non-positive job seq")
        decided = payload["dec"]
        if len(set(decided["seq"])) != len(decided["seq"]):
            raise WalCorruptionError(f"{path}: duplicate decision seq")
        _apply_decisions(decided, by_seq, 0)
        through_seq = int(payload["through_seq"])
    except (ValueError, KeyError, TypeError) as exc:
        raise WalCorruptionError(f"{path}: unreadable checkpoint: {exc}") from exc
    return list(by_seq.values()), through_seq
