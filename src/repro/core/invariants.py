"""Global conservation auditing.

The scheme's central safety property (Section 3):

    N >= N_W + N_X + N_Y + N_Z   at all times, and
    N  = Σ fragments + Σ value carried by live Vm.

The auditor is a god's-eye observer: it maintains the *expected*
logical value of every item from committed semantic deltas and checks
the conservation equation. It never influences execution — it exists so
tests and experiments can assert that no failure scenario ever created
or destroyed value.

Accounting is *incremental*: sites notify the auditor on every fragment
mutation (:class:`~repro.core.fragments.FragmentStore` observer), Vm
creation, and Vm acceptance (:class:`~repro.core.vm.VmManager` hooks),
so :meth:`fragments_total`, :meth:`live_vm_total`, and :meth:`check`
are dictionary lookups — O(1) in the number of sites, channels, and
retained entries. A Vm is live from the instant its create record is
forced until the instant its accept record is forced; crashes and
recoveries rebuild channel *representations* but never create or
destroy Vm, so the hook stream is exactly the logical lifespan.

The original brute-force channel walk survives as
:meth:`fragments_total_scan` / :meth:`live_vm_total_scan`, and
:meth:`verify_full` cross-checks the incremental books against a fresh
scan — tests run it after every failure scenario; a mismatch raises
:class:`IncrementalDivergence`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from repro.core.domain import Domain
from repro.core.transactions import Outcome, TxnResult
from repro.storage.records import VmEntry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import DvPSystem


@dataclass
class AuditReport:
    """Conservation check result for one item."""

    item: str
    expected: Any
    fragments_total: Any
    live_vm_total: Any
    observed: Any
    ok: bool
    per_site: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        status = "OK" if self.ok else "VIOLATION"
        return (f"[{status}] {self.item}: expected={self.expected} "
                f"fragments={self.fragments_total} in-flight="
                f"{self.live_vm_total}")


class IncrementalDivergence(AssertionError):
    """The incremental books disagree with a full channel/page scan."""


class ConservationAuditor:
    """Tracks expected totals and verifies Σ fragments + Σ Vm = d."""

    def __init__(self, system: "DvPSystem") -> None:
        self.system = system
        self._expected: dict[str, Any] = {}
        self._domains: dict[str, Domain] = {}
        self.commits_seen = 0
        # Incremental books: Σ fragment values and Σ live-Vm value per
        # item, plus the live-entry index keyed by (sender, receiver,
        # channel seq) so each acceptance retires exactly one creation.
        self._frag_total: dict[str, Any] = {}
        self._live_total: dict[str, Any] = {}
        self._live_entries: dict[tuple[str, str, int], tuple[str, Any]] = {}

    def close(self) -> None:
        """Let go of the system (which holds this auditor). The books
        stay readable; the checks that scan sites do not."""
        self.system = None

    def register_item(self, item: str, domain: Domain, total: Any) -> None:
        self._domains[item] = domain
        self._expected[item] = total

    def expected(self, item: str) -> Any:
        return self._expected[item]

    def on_result(self, result: TxnResult) -> None:
        """Fold a committed transaction's semantic deltas into totals."""
        if result.outcome is not Outcome.COMMITTED:
            return
        self.commits_seen += 1
        atoms = iter(result.delta_row)  # (item, sign, amount), flat
        for item, sign, amount in zip(atoms, atoms, atoms):
            domain = self._domains[item]
            if sign > 0:
                self._expected[item] = domain.combine(self._expected[item],
                                                      amount)
            else:
                self._expected[item] = domain.subtract(self._expected[item],
                                                       amount)

    # -- incremental bookkeeping (site-driven notifications) ----------------

    def on_fragment_register(self, site: str, item: str, domain: Domain,
                             value: Any) -> None:
        self._domains.setdefault(item, domain)
        self._frag_total[item] = domain.combine(
            self._frag_total.get(item, domain.zero()), value)

    def on_fragment_write(self, site: str, item: str, old: Any,
                          new: Any) -> None:
        domain = self._domains.get(item)
        if domain is None:  # pragma: no cover - item never registered
            return
        # The running total always contains *old* as a summand, so the
        # combine-then-subtract order keeps intermediate values in Γ.
        self._frag_total[item] = domain.subtract(
            domain.combine(self._frag_total[item], new), old)

    def on_vm_created(self, sender: str, entry) -> None:
        domain = self._domains.get(entry.item)
        if domain is None:  # pragma: no cover - item never registered
            return
        key = (sender, entry.dst, entry.channel_seq)
        if key in self._live_entries:  # pragma: no cover - defensive
            return
        self._live_entries[key] = (entry.item, entry.amount)
        self._live_total[entry.item] = domain.combine(
            self._live_total.get(entry.item, domain.zero()), entry.amount)

    def on_vm_accepted(self, receiver: str, src: str, entry) -> None:
        info = self._live_entries.pop((src, receiver, entry.channel_seq),
                                      None)
        if info is None:  # pragma: no cover - unobserved creation
            return
        item, amount = info
        self._live_total[item] = self._domains[item].subtract(
            self._live_total[item], amount)

    # -- measurement (O(1) incremental reads) -------------------------------

    def fragments_total(self, item: str) -> Any:
        return self._frag_total.get(item, self._domains[item].zero())

    def live_vm_total(self, item: str) -> Any:
        """Σ value of Vm created but not yet accepted (incremental)."""
        return self._live_total.get(item, self._domains[item].zero())

    def check(self, item: str) -> AuditReport:
        domain = self._domains[item]
        fragments = self.fragments_total(item)
        in_flight = self.live_vm_total(item)
        observed = domain.combine(fragments, in_flight)
        per_site = {site.name: site.fragments.value(item)
                    for site in self.system.sites.values()
                    if site.fragments.knows(item)}
        return AuditReport(
            item=item, expected=self._expected[item],
            fragments_total=fragments, live_vm_total=in_flight,
            observed=observed, ok=observed == self._expected[item],
            per_site=per_site)

    def check_all(self) -> list[AuditReport]:
        return [self.check(item) for item in sorted(self._expected)]

    def all_ok(self) -> bool:
        return all(report.ok for report in self.check_all())

    def assert_ok(self) -> None:
        """Raise with full detail on the first violated item."""
        for report in self.check_all():
            if not report.ok:
                raise AssertionError(
                    f"conservation violated: {report} per_site="
                    f"{report.per_site}")

    # -- full-scan cross-check ----------------------------------------------

    def fragments_total_scan(self, item: str) -> Any:
        """Σ fragments by walking every site's stable pages."""
        domain = self._domains[item]
        values = [site.fragments.value(item)
                  for site in self.system.sites.values()
                  if site.fragments.knows(item)]
        return domain.pi(values)

    def live_entries(self) -> Iterator[VmEntry]:
        """Every live Vm, by walking every sender × receiver channel.

        A Vm is live iff its sequence number exceeds the *receiver's*
        accepted-up-to counter — sender-side ack state may lag (a lost
        ack leaves the sender retransmitting an already-absorbed Vm,
        which must not be double counted). The walk opens no channel.
        """
        sites = self.system.sites
        for sender in sites.values():
            for dst, channel in sender.vm.outgoing.items():
                accepted = sites[dst].vm.accepted_from(sender.name)
                for seq, entry in channel.entries.items():
                    if seq > accepted:
                        yield entry

    def live_vm_total_scan(self, item: str) -> Any:
        """Σ live Vm of *item*, from :meth:`live_entries`."""
        return self._domains[item].pi(entry.amount for entry
                                      in self.live_entries()
                                      if entry.item == item)

    def check_scan(self, item: str) -> AuditReport:
        """The original brute-force conservation check for one item."""
        domain = self._domains[item]
        fragments = self.fragments_total_scan(item)
        in_flight = self.live_vm_total_scan(item)
        observed = domain.combine(fragments, in_flight)
        per_site = {site.name: site.fragments.value(item)
                    for site in self.system.sites.values()
                    if site.fragments.knows(item)}
        return AuditReport(
            item=item, expected=self._expected[item],
            fragments_total=fragments, live_vm_total=in_flight,
            observed=observed, ok=observed == self._expected[item],
            per_site=per_site)

    def verify_full(self) -> list[AuditReport]:
        """Full-scan every item and cross-check the incremental books.

        Returns the scan-based reports; raises
        :class:`IncrementalDivergence` if any incremental total
        disagrees with its scan — the event-driven bookkeeping missed
        or double-counted a mutation somewhere.
        """
        reports = []
        for item in sorted(self._expected):
            report = self.check_scan(item)
            if report.fragments_total != self.fragments_total(item):
                raise IncrementalDivergence(
                    f"{item}: incremental fragments total "
                    f"{self.fragments_total(item)!r} != scanned "
                    f"{report.fragments_total!r}")
            if report.live_vm_total != self.live_vm_total(item):
                raise IncrementalDivergence(
                    f"{item}: incremental live-Vm total "
                    f"{self.live_vm_total(item)!r} != scanned "
                    f"{report.live_vm_total!r}")
            reports.append(report)
        return reports
