"""Independent recovery (Section 7).

The recovering site consults nothing but its own stable log and pages:

1. locks do not survive (the lock table is volatile — the paper argues
   releasing all of them is always safe);
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
recovery really is *independent*.
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
    incoming_channels: int = 0
    from_checkpoint: bool = False
    start_lsn: int = 0
    messages_needed: int = 0  # always 0: the headline property
    details: dict = field(default_factory=dict)


def recover_site(site: "DvPSite") -> RecoveryReport:
    """Run the Section 7 algorithm over *site*'s stable state."""
    report = RecoveryReport(site=site.name)

    # Step 1: all locks released (the volatile table is already empty
    # after a crash; clear defensively for direct invocations).
    site.locks.clear()
    site.active.clear()
    site.wakeable.clear()

    vm = site._new_vm_manager()
    max_ts_seen = 0

    # Locate the most recent checkpoint and restore channel baselines.
    checkpoint_env = site.log.last_matching(
        lambda record: isinstance(record, CheckpointRecord))
    start_lsn = 0
    if checkpoint_env is not None:
        checkpoint: CheckpointRecord = checkpoint_env.record
        start_lsn = checkpoint_env.lsn + 1
        report.from_checkpoint = True
        for item, ts in checkpoint.fragment_timestamps:
            if site.fragments.knows(item):
                site.fragments.stamp_if_newer(item, ts)
                max_ts_seen = max(max_ts_seen, ts)
        for src, cumulative in checkpoint.incoming_cumulative:
            channel = vm.in_channel(src)
            channel.cumulative_accepted = max(channel.cumulative_accepted,
                                              cumulative)
        for dst, next_seq in checkpoint.next_channel_seq:
            channel = vm.out_channel(dst)
            channel.next_seq = max(channel.next_seq, next_seq)
        for entry in checkpoint.outgoing_unacked:
            vm.restore_entry(entry)
            report.vm_rebuilt += 1
        for key, value in checkpoint.extra:
            if key == "clock":
                # The checkpoint stores the bare Lamport *counter*, but
                # observe() takes an encoded timestamp and decodes the
                # counter back out (counter = ts // MAX_SITES). Re-wrap
                # it with rank 0 — the smallest timestamp carrying this
                # counter — so the restored counter is exactly the
                # checkpointed one, never off by the field shift.
                site.clock.observe(encode(value, 0))

    report.start_lsn = start_lsn

    # Step 2: redo scan.
    for envelope in site.log.scan(start_lsn):
        record = envelope.record
        report.scanned_records += 1
        if isinstance(record, (VmCreateRecord, VmAcceptRecord)):
            # A record may assign one item twice (a message carrying two
            # entries of it); the page LSN guard would keep the first,
            # so redo only each item's last assignment.
            last = {action.item: action.value for action in record.actions}
            for item, value in last.items():
                if not site.fragments.knows(item):
                    continue
                if site.fragments.redo_write(item, value, envelope.lsn):
                    report.redo_applied += 1
                else:
                    report.redo_skipped += 1
            for action in record.actions:
                if site.fragments.knows(action.item):
                    site.fragments.stamp_if_newer(action.item, action.ts)
                    max_ts_seen = max(max_ts_seen, action.ts)
        if isinstance(record, VmCreateRecord):
            for entry in record.messages:
                vm.restore_entry(entry)
                channel = vm.out_channel(entry.dst)
                channel.next_seq = max(channel.next_seq,
                                       entry.channel_seq + 1)
                report.vm_rebuilt += 1
        elif isinstance(record, VmAcceptRecord):
            channel = vm.in_channel(record.src)
            # Planted bug (docs/CHAOS.md): restore the run's first seq.
            seq = (record.first_seq if test_leak() == "run-first-seq"
                   else record.last_seq)
            channel.cumulative_accepted = max(channel.cumulative_accepted,
                                              seq)

    report.incoming_channels = len(vm.incoming)

    # Step 5: bump the clock past every committed timestamp we saw.
    if max_ts_seen:
        site.clock.observe(max_ts_seen)

    # Chaos-engine observability: stamp the outage window this recovery
    # closes (crash injection records it; direct recover() calls on a
    # never-crashed site leave it absent).
    if site.downtime and site.downtime[-1][1] is None:
        report.details["crashed_at"] = site.downtime[-1][0]
        report.details["recovered_at"] = site.sim.now

    site.vm.close()  # the pre-crash manager: read until now, done
    site.vm = vm
    if site._obs.enabled:
        site._obs.emit("site.recover", site.sim.now, site=site.name,
                       redo_applied=report.redo_applied,
                       vm_rebuilt=report.vm_rebuilt,
                       from_checkpoint=report.from_checkpoint)
    return report

