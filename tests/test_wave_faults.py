"""A multi-item redistribution wave under faults.

A request names every item its peer is asked for, and the responder
answers with one create record and one real message carrying all its
entries. The seeded run here drives the batched path through the
faults: the benchmark suite's 5-op transfer shape on four sites, over
lossy, duplicating, jittery links, with a responder crashed right after
a multi-entry create record and recovered. The chaos explorer runs the
same shape under its oracles (``ChaosConfig.waves``); the last test
replays the committed artifact of a crash before a wave's message
leaves.
"""

import pathlib

from repro.chaos import ReproArtifact
from repro.core.domain import CounterDomain
from repro.core.site import DvPSite, SiteDown
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import TransactionSpec, TransferOp
from repro.core.vm import VmManager
from repro.net.link import LinkConfig

SITES = ("W", "X", "Y", "Z")
OPS = 5
TXNS_PER_SITE = 12
CRASH_AT_SITE = "X"


def build() -> DvPSystem:
    system = DvPSystem(SystemConfig(
        sites=list(SITES), seed=23, cc="conc1", policy="ask-all",
        txn_timeout=15.0, retransmit_period=6.0, checkpoint_interval=7,
        link=LinkConfig(base_delay=2.0, jitter=1.5, loss_probability=0.1,
                        duplicate_probability=0.2)))
    slots = TXNS_PER_SITE * OPS
    for site in SITES:
        funded = {peer: 25 for peer in SITES if peer != site}
        for index in range(slots):
            system.add_item(f"acct_{site}_{index}", CounterDomain(),
                            split=funded)
            system.add_item(f"sink_{site}_{index}", CounterDomain(),
                            split={name: 1 for name in SITES})
    return system


class Spy:
    """Class-level wrappers on the Vm manager: recovery rebuilds a
    site's manager, so patching one instance would miss the rebuilt
    one."""

    def __init__(self, monkeypatch) -> None:
        self.transmits: list[tuple[float, str, str, tuple[int, ...]]] = []
        self.whole_duplicates = 0
        self.buffered_after_gap = 0
        transmit, on_transfer = VmManager._transmit, VmManager.on_transfer
        send_ack = VmManager._send_ack
        acks: list[tuple[str, str]] = []

        def spy_transmit(manager, dst, entries, retransmit=False):
            self.transmits.append((manager.sim.now, manager.site, dst,
                                   tuple(e.channel_seq for e in entries)))
            transmit(manager, dst, entries, retransmit)

        def spy_send_ack(manager, dst):
            acks.append((manager.site, dst))
            send_ack(manager, dst)

        def spy_on_transfer(manager, transfer):
            if len(transfer.entries) < 2:
                return on_transfer(manager, transfer)
            src, seqs = transfer.src, [e.channel_seq
                                       for e in transfer.entries]
            channel = manager.in_channel(src)
            accepted = channel.cumulative_accepted
            discarded = channel.duplicates_discarded
            acks.clear()
            on_transfer(manager, transfer)
            if max(seqs) <= accepted:
                # Discarded whole, and re-acked.
                assert channel.duplicates_discarded - discarded == len(seqs)
                assert (manager.site, src) in acks
                assert channel.cumulative_accepted == accepted
                self.whole_duplicates += 1
            elif min(seqs) > accepted + 1:
                # After a gap: every entry waits in the buffer.
                assert all(channel.pending.get(seq) is not None
                           for seq in seqs)
                assert channel.cumulative_accepted == accepted
                self.buffered_after_gap += 1

        monkeypatch.setattr(VmManager, "_transmit", spy_transmit)
        monkeypatch.setattr(VmManager, "on_transfer", spy_on_transfer)
        monkeypatch.setattr(VmManager, "_send_ack", spy_send_ack)


def test_multi_entry_wave_survives_loss_duplication_and_a_crash(monkeypatch):
    spy = Spy(monkeypatch)
    system = build()
    sim = system.sim
    responder = system.sites[CRASH_AT_SITE]
    crashed: list = []
    register_created = responder.vm.register_created

    def register_then_crash(entries, transmit=True):
        # The create record is forced; the site dies before the one
        # real message carrying its entries leaves.
        if len(entries) > 1 and not crashed:
            crashed.append((sim.now, entries))
            register_created(entries, transmit=False)
            sim.after(0.0, lambda: system.crash(CRASH_AT_SITE))
            sim.after(9.0, lambda: system.recover(CRASH_AT_SITE))
        else:
            register_created(entries, transmit)

    responder.vm.register_created = register_then_crash

    results, refused = [], []
    for number, site in enumerate(SITES):
        peers = [peer for peer in SITES if peer != site]
        for turn in range(TXNS_PER_SITE):
            other = peers[turn % len(peers)]
            ops = tuple(
                TransferOp(f"acct_{site}_{turn * OPS + j}",
                           f"sink_{other}_{turn * OPS + j}", 1 + j % 4)
                for j in range(OPS))

            def arrive(site=site, ops=ops):
                try:
                    system.submit(site, TransactionSpec(ops=ops),
                                  results.append)
                except SiteDown:
                    refused.append(site)

            sim.at_site(site, 0.5 + turn * 4.0 + number * 0.7, arrive,
                        label=f"arrival:{site}")
    system.run_until(400.0)

    # The crash struck right after a multi-entry create record...
    assert crashed, "no multi-entry create record at the responder"
    crashed_at, entries = crashed[0]
    recovered_at = crashed_at + 9.0
    assert len(entries) > 1
    # ...and recovery re-drove every one of its entries to acceptance.
    for entry in entries:
        assert any(site == CRASH_AT_SITE and dst == entry.dst
                   and entry.channel_seq in seqs and t >= recovered_at
                   for t, site, dst, seqs in spy.transmits), entry
        receiver = system.sites[entry.dst].vm.in_channel(CRASH_AT_SITE)
        assert receiver.cumulative_accepted >= entry.channel_seq
    assert spy.whole_duplicates > 0
    assert spy.buffered_after_gap > 0

    # Quiescence: the books balance, no Vm is live, no op is lost.
    assert all(report.ok for report in system.auditor.verify_full())
    for site in system.sites.values():
        assert site.vm.check_accounting()
        assert site.vm.unacked_count() == 0
    submitted = len(SITES) * TXNS_PER_SITE - len(refused)
    wiped = sum(site.txns_wiped for site in system.sites.values())
    assert len(results) + wiped == submitted
    assert sum(result.committed for result in results) > submitted // 2


CRASH_BEFORE_SEND = (pathlib.Path(__file__).parent / "repros" /
                     "chaos_wave-crash-before-send_seed"
                     "16220008651848166696_3act.json")


def test_crash_before_the_waves_message_leaves_replays_clean(monkeypatch):
    """The committed artifact: the responder's multi-entry create record
    is forced, its one message dies on a severed link, and the
    responder crashes before any retransmission. Recovery re-drives
    every entry from the log alone, and every oracle holds."""
    artifact = ReproArtifact.load(CRASH_BEFORE_SEND)
    link, crash, recover = artifact.plan.actions
    created: list[tuple[float, tuple]] = []
    received: list[tuple[float, str, int]] = []
    create_vm, on_transfer = DvPSite.create_vm, VmManager.on_transfer

    def spy_create_vm(site, owner, actions, entries):
        if site.name == crash.site and len(entries) > 1:
            created.append((site.sim.now, entries))
        create_vm(site, owner, actions, entries)

    def spy_on_transfer(manager, transfer):
        received.extend((manager.sim.now, transfer.src, entry.channel_seq)
                        for entry in transfer.entries)
        on_transfer(manager, transfer)

    monkeypatch.setattr(DvPSite, "create_vm", spy_create_vm)
    monkeypatch.setattr(VmManager, "on_transfer", spy_on_transfer)
    result = artifact.replay()
    try:
        assert not result.failed, result.failures
        at, entries = next((at, entries) for at, entries in created
                           if link.at <= at < crash.at)
        assert entries[0].dst == link.dst and len(entries) > 1
        for entry in entries:
            arrivals = [t for t, src, seq in received
                        if src == crash.site and seq == entry.channel_seq
                        and t >= at]
            # Nothing of it reached the requester before the crash...
            assert arrivals and min(arrivals) >= recover.at, entry
            # ...and recovery re-drove it to acceptance.
            receiver = result.system.sites[entry.dst].vm
            assert receiver.in_channel(crash.site).cumulative_accepted \
                >= entry.channel_seq
    finally:
        result.system.close()
