"""Independent recovery (Section 7).

The recovering site is a new incarnation, built by ``DvPSystem.recover``
over the crashed one's stable log and pages; everything volatile starts
empty. It consults nothing but that log and those pages:

1. locks do not survive (the new incarnation's lock table is empty —
   the paper argues releasing all of them is always safe);
2. committed-but-unapplied database actions are redone, idempotently
   (guarded by page LSNs), starting from the last checkpoint; a record
   that assigns one item twice redoes the last assignment;
3. Vm channel state is rebuilt: outgoing entries from create records
   (re-sent — receivers deduplicate and re-acknowledge), incoming
   cumulative-accepted counters from accept records — each record's
   last sequence number (so nothing is absorbed twice);
4. fragment timestamps are rebuilt from the committed records — aborted
   lockers' stamps are forgotten, which Section 7 shows is safe;
5. the Lamport counter restarts from the largest timestamp in the log
   (still possibly stale; incoming messages bump it further).

No messages are sent or awaited before normal processing resumes: the
recovery really is *independent* (E5 counts the sends).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.fragments import test_leak
from repro.core.timestamps import encode
from repro.storage.records import (
    CheckpointRecord,
    VmAcceptRecord,
    VmCreateRecord,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.site import DvPSite


@dataclass
class RecoveryReport:
    """What recovery did — consumed by tests and experiment E5."""

    site: str
    scanned_records: int = 0
    redo_applied: int = 0
    redo_skipped: int = 0
    vm_rebuilt: int = 0
    from_checkpoint: bool = False
    start_lsn: int = 0
    details: dict = field(default_factory=dict)


def recover_site(site: "DvPSite") -> RecoveryReport:
    """Run the Section 7 algorithm over *site*'s stable state."""
    report = RecoveryReport(site=site.name)
    max_ts_seen = 0

    # Locate the most recent checkpoint and restore channel baselines;
    # only it and the suffix after it are decoded.
    checkpoint_env = site.log.last_of(CheckpointRecord)
    if checkpoint_env is not None:
        checkpoint: CheckpointRecord = checkpoint_env.record
        report.start_lsn = checkpoint_env.lsn + 1
        report.from_checkpoint = True
        for item, ts in checkpoint.fragment_timestamps:
            site.fragments.stamp_if_newer(item, ts)
            max_ts_seen = max(max_ts_seen, ts)
        site.vm.restore(checkpoint.outgoing_unacked,
                   checkpoint.incoming_cumulative,
                   checkpoint.next_channel_seq)
        report.vm_rebuilt += len(checkpoint.outgoing_unacked)
        for key, value in checkpoint.extra:
            if key == "clock":
                # The checkpoint stores the bare Lamport *counter*, but
                # observe() takes an encoded timestamp and decodes the
                # counter back out (counter = ts // MAX_SITES). Re-wrap
                # it with rank 0 — the smallest timestamp carrying this
                # counter — so the restored counter is exactly the
                # checkpointed one, never off by the field shift.
                site.clock.observe(encode(value, 0))

    # Step 2: redo scan.
    for envelope in site.log.scan(report.start_lsn):
        record = envelope.record
        report.scanned_records += 1
        if isinstance(record, (VmCreateRecord, VmAcceptRecord)):
            # A record may assign one item twice (a message carrying two
            # entries of it); the page LSN guard would keep the first,
            # so redo only each item's last assignment.
            last = {action.item: action.value for action in record.actions}
            for item, value in last.items():
                if site.fragments.redo_write(item, value, envelope.lsn):
                    report.redo_applied += 1
                else:
                    report.redo_skipped += 1
            for action in record.actions:
                site.fragments.stamp_if_newer(action.item, action.ts)
                max_ts_seen = max(max_ts_seen, action.ts)
        if isinstance(record, VmCreateRecord):
            site.vm.restore(entries=record.messages)
            report.vm_rebuilt += len(record.messages)
        elif isinstance(record, VmAcceptRecord):
            # Planted bug (docs/CHAOS.md): restore the run's first seq.
            seq = (record.first_seq if test_leak() == "run-first-seq"
                   else record.last_seq)
            site.vm.restore(accepted=((record.src, seq),))

    # Step 5: bump the clock past every committed timestamp we saw.
    site.clock.observe(max_ts_seen)
    # Every append since the last checkpoint is in the suffix just
    # scanned: the checkpoint schedule carries on where it stood.
    site._records_since_checkpoint = report.scanned_records

    if site.crashed_at is not None:
        report.details["crashed_at"] = site.crashed_at
        report.details["recovered_at"] = site.sim.now
    if site._obs.enabled:
        site._obs.emit("site.recover", site.sim.now, site=site.name,
                       redo_applied=report.redo_applied,
                       vm_rebuilt=report.vm_rebuilt,
                       from_checkpoint=report.from_checkpoint)
    return report
