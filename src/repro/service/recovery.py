"""Crash recovery: rebuild the exact pre-crash arbitrator from the WAL.

Recovery is a pure function of the WAL directory and the service
configuration:

1. load ``checkpoint.json`` — its body's SHA-256 is checked against the
   header line before the body is parsed once — the decided ledger
   through ``through_seq``;
2. parse ``wal.log``, repairing (physically truncating) a torn tail the
   crash legitimately left, and fold its records into ledger entries,
   skipping anything the checkpoint already covers.  Both files use the
   version-3 ledger codec of :mod:`repro.service.wal`, whose chain table
   entries are built once per decode: equal chains come back as one
   shared object, as they were before the crash;
3. replay every effective job, in ledger order, through a **fresh**
   arbitrator built with :func:`~repro.service.service.make_arbitrator`,
   in one ``admit_batch`` call — the API the service decided them with —
   and demand, via :func:`repro.verify.checks.verify_replay`, that every
   logged decision is reproduced *bit-identically*, entry by entry, and
   that the independent :class:`~repro.verify.auditor.ScheduleAuditor`
   finds zero violations in the recovered schedule;
4. re-decide the undecided tail (jobs logged before the crash whose
   decision append never landed) and durably log those decisions, so a
   second crash straight after recovery replays idempotently.

Because the tie-break policy is forbidden from being ``RANDOM`` and the
batch API is decision-equivalent to the serial loop, the replayed
schedule *is* the pre-crash schedule — not an approximation of it.  That
claim is checked, not assumed: the per-entry comparison against the log
and the auditor would both catch a replay that drifted, whatever its
cause.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.admission import AdmissionDecision
from repro.core.arbitrator import QoSArbitrator
from repro.errors import WalCorruptionError
from repro.service.service import ServiceConfig, make_arbitrator
from repro.service.wal import (
    LedgerEntry,
    WriteAheadLog,
    decision_to_tuple,
    read_checkpoint,
    read_wal,
    records_to_entries,
)
from repro.verify.auditor import AuditReport
from repro.verify.checks import verify_replay

__all__ = ["RecoveredState", "recover"]


@dataclass(slots=True)
class RecoveredState:
    """Everything a restarted :class:`AdmissionService` needs to resume.

    ``entries``/``decisions`` are aligned; every entry is decided (the
    crash's undecided tail — ``redecided`` of them — was decided during
    recovery and durably re-logged).  ``report`` is the independent audit
    of the recovered schedule and is clean by construction (recovery
    raises otherwise).
    """

    arbitrator: QoSArbitrator
    entries: list[LedgerEntry]
    decisions: list[AdmissionDecision]
    last_seq: int
    redecided: int
    truncated_bytes: int
    report: AuditReport


def recover(
    wal_dir: str | Path, config: ServiceConfig, *, strict: bool = True
) -> RecoveredState:
    """Replay checkpoint + WAL into a fresh, audited arbitrator.

    Raises :class:`~repro.errors.WalCorruptionError` for damage beyond a
    torn tail and :class:`~repro.errors.VerificationError` when the
    replayed schedule is not bit-identical to the logged ledger (with
    ``strict``, the default).  Safe to call repeatedly: recovery is
    idempotent and leaves the log strictly cleaner than it found it.
    """
    directory = Path(wal_dir)
    checkpointed, through_seq = read_checkpoint(directory)
    for entry in checkpointed:
        if entry.decision is None:
            raise WalCorruptionError(
                f"checkpoint hides undecided entry seq {entry.seq}"
            )
    records, truncated = read_wal(directory / "wal.log", repair=True)
    entries = checkpointed + records_to_entries(records, min_seq=through_seq)

    arbitrator = make_arbitrator(config)
    expected = [entry.decision for entry in entries]
    decisions, report = verify_replay(
        arbitrator,
        [entry.job for entry in entries],
        expected,
        malleable=config.malleable,
        strict=strict,
    )

    # Decide-and-persist the crash window: entries whose job record
    # landed but whose decision append did not.
    undecided = [i for i, want in enumerate(expected) if want is None]
    for i in undecided:
        entries[i].decision = decision_to_tuple(decisions[i])
    if undecided:
        wal = WriteAheadLog(directory, fsync=True)
        try:
            wal.append_decisions(
                [entries[i].seq for i in undecided],
                [entries[i].decision for i in undecided],
            )
        finally:
            wal.close()

    return RecoveredState(
        arbitrator=arbitrator,
        entries=entries,
        decisions=decisions,
        last_seq=entries[-1].seq if entries else through_seq,
        redecided=len(undecided),
        truncated_bytes=truncated,
        report=report,
    )
