"""The oracles chaos runs are judged against: four for DvP, three for
the commit-protocol baselines.

* :class:`AuditorOracle` — the PR 1 incremental conservation auditor:
  ``verify_full()`` must find no divergence between the incremental
  books and a brute-force scan, every item must satisfy
  ``Π(fragments) + Π(live Vm) = d``, and the mid-run probes (taken
  while faults were still active) must all have passed.

* :class:`SerialOracle` — a single-site reference execution: apply the
  committed transactions' operator sequence, in commit order, to an
  unpartitioned reference value per item and compare the quiescent
  ``Π`` the distributed system reached against it. Also replays every
  committed full read through the N_M band check (a read may lawfully
  under-report by exactly the value in transmission at its commit
  instant, and must never over-report).

* :class:`ProgressOracle` — the paper's non-blocking property: every
  decided transaction decided within its timeout (+ local work), no
  transaction is still waiting on an unreachable site at quiescence,
  every undecided submission is attributable to a crash that destroyed
  it, and all live Vm were eventually absorbed once connectivity
  returned.

The commit baselines (2PC, Paxos Commit) run a transfer-only workload
and are judged through the :class:`~repro.core.system.System` contract
alone — ``total_value()``, the sites' stable logs, ``blocked()``:

* :class:`ConservationOracle` — an atomic-commit protocol never
  half-applies a transfer: after settling, the total is the initial
  allocation.

* :class:`AgreementOracle` — the union of all stable logs never shows
  two deciders deciding differently for one transaction, nor one
  participant committing what another aborts (Gray & Lamport's Paxos
  Commit safety conditions, *Consensus on Transaction Commit*).

* :class:`LivenessOracle` — once every site is recovered and the
  network healed, no participant is still blocked on an undecided
  transaction: Paxos Commit needs only a majority of acceptors, 2PC
  only its repaired coordinator.

Oracles are pure observers of a finished :class:`ChaosResult`; each
returns a list of human-readable failure messages (empty = pass).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Protocol

from repro.core.invariants import IncrementalDivergence
from repro.harness.serial import check_serializable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.chaos.runner import ChaosResult

#: Slack on latency comparisons (pure float-accumulation guard; the
#: timeout bound itself is exact in virtual time).
EPSILON = 1e-9


class Oracle(Protocol):
    name: str

    def check(self, result: "ChaosResult") -> list[str]: ...


class AuditorOracle:
    """Conservation + incremental-books/scan agreement, mid-run and final."""

    name = "auditor"

    def check(self, result: "ChaosResult") -> list[str]:
        failures = [f"mid-run probe: {message}"
                    for message in result.probe_failures]
        try:
            reports = result.system.auditor.verify_full()
        except IncrementalDivergence as exc:
            failures.append(f"quiescent divergence: {exc}")
            return failures
        for report in reports:
            if not report.ok:
                failures.append(f"quiescent {report} "
                                f"per_site={report.per_site}")
        return failures


class SerialOracle:
    """Committed operator sequence vs. an unpartitioned reference value."""

    name = "serial"

    def check(self, result: "ChaosResult") -> list[str]:
        failures: list[str] = []
        system = result.system
        domains = {item: system.sites[next(iter(system.sites))]
                   .fragments.domain(item)
                   for item in result.initial_totals}
        # Reference execution: fold semantic deltas in commit order
        # onto the initial logical value — one site, no partitioning.
        reference = dict(result.initial_totals)
        for txn in sorted(system.committed(),
                          key=lambda r: (r.finished_at, r.txn_id)):
            for item, sign, amount in txn.semantic_deltas:
                domain = domains[item]
                if sign > 0:
                    reference[item] = domain.combine(reference[item], amount)
                else:
                    if not domain.covers(reference[item], amount):
                        failures.append(
                            f"{txn.txn_id} over-consumed {item}: serial "
                            f"value {reference[item]} cannot cover {amount}")
                        continue
                    reference[item] = domain.subtract(reference[item],
                                                      amount)
        # Quiescent Π of the distributed execution must equal it.
        for item, expected in sorted(reference.items()):
            domain = domains[item]
            observed = domain.combine(
                system.auditor.fragments_total_scan(item),
                system.auditor.live_vm_total_scan(item))
            if observed != expected:
                failures.append(
                    f"{item}: quiescent Π={observed} but the serial "
                    f"reference execution gives {expected}")
        # Full reads: banded against the reference timeline (N_M term).
        # Local reads (label "chaos:local-read") return only the site's
        # own quota — a lawful lower bound, not a full-value claim —
        # and are excluded from the band. View reads claim a *stale*
        # exact value; the view oracle judges their certificates.
        full_reads = [txn for txn in system.results
                      if txn.label not in ("chaos:local-read",
                                           "chaos:view-read")]
        report = check_serializable(full_reads, result.initial_totals,
                                    domains)
        for txn_id, item, observed, replayed in report.read_mismatches:
            failures.append(
                f"read {txn_id}[{item}] returned {observed}, outside the "
                f"lawful band around serial value {replayed}")
        for txn_id, item, amount in report.negative_dips:
            failures.append(
                f"{txn_id} dipped {item} below zero by {amount} in the "
                f"serial replay")
        return failures


class ProgressOracle:
    """Non-blocking: bounded decisions, no stranded work at quiescence."""

    name = "progress"

    def check(self, result: "ChaosResult") -> list[str]:
        failures: list[str] = []
        system = result.system
        bound = result.config.txn_timeout
        for txn in system.results:
            # request_retries=0 in chaos configs: one timeout round.
            # Skewed timers only fire *earlier*, never later.
            if txn.latency > bound + EPSILON:
                failures.append(
                    f"{txn.txn_id} took {txn.latency:g} > timeout "
                    f"{bound:g} to decide ({txn.outcome.value}) — "
                    f"it blocked on an unreachable site")
        undecided = result.submitted - len(system.results)
        wiped = sum(site.txns_wiped for site in system.sites.values())
        if undecided > wiped:
            failures.append(
                f"{undecided} submissions never decided but only "
                f"{wiped} were wiped by crashes — "
                f"somebody is blocked")
        for site in system.sites.values():
            if not site.alive:
                failures.append(f"site {site.name} still down at "
                                f"quiescence")
            if site.active:
                failures.append(
                    f"site {site.name} still has active transactions "
                    f"{sorted(site.active)} at quiescence")
            stuck = site.vm.unacked_count()
            if stuck:
                failures.append(
                    f"site {site.name} still owes {stuck} unaccepted Vm "
                    f"at quiescence — value stranded in transmission")
        return failures


class ViewOracle:
    """Staleness certificates never lie (docs/READS.md).

    Every certificate a *committed* bounded-staleness read served must
    (a) respect the reader's bound — ``checked_at - as_of <= bound``,
    the bound every chaos view read asks for (``config.views``), not
    the one the certificate records — and (b) carry the exact
    conservation total ``N(as_of)``: the initial quota plus every
    committed semantic delta whose commit instant is ``<= as_of``. Views publish at a consistent global cut,
    so no interleaving can excuse a wrong snapshot — a fault may only
    ever make a view *staler* (forcing fallback), never wrong.

    Commits at exactly ``as_of`` race the barrier on the single-queue
    kernel (insertion order breaks the tie), so any prefix of the tie
    group, folded in ``(finished_at, txn_id)`` order, is accepted.
    """

    name = "view"

    def check(self, result: "ChaosResult") -> list[str]:
        failures: list[str] = []
        system = result.system
        certified = [(txn, item, cert)
                     for txn in sorted(system.committed(),
                                       key=lambda r: (r.finished_at,
                                                      r.txn_id))
                     for item, cert in sorted(txn.view_reads.items())]
        if not certified:
            return failures
        domains = {item: system.sites[next(iter(system.sites))]
                   .fragments.domain(item)
                   for item in result.initial_totals}
        deltas: dict[str, list[tuple[float, str, int, Any]]] = {
            item: [] for item in result.initial_totals}
        for txn in sorted(system.committed(),
                          key=lambda r: (r.finished_at, r.txn_id)):
            for item, sign, amount in txn.semantic_deltas:
                deltas[item].append((txn.finished_at, txn.txn_id,
                                     sign, amount))
        bound = result.config.views
        for txn, item, cert in certified:
            if cert.staleness > bound + EPSILON:
                failures.append(
                    f"{txn.txn_id}[{item}] certificate staleness "
                    f"{cert.staleness:g} exceeds the reader's bound "
                    f"{bound:g}")
            domain = domains[item]
            value = result.initial_totals[item]
            acceptable = set()
            for at, _txn_id, sign, amount in deltas[item]:
                if at > cert.as_of + EPSILON:
                    break
                if at >= cert.as_of - EPSILON:
                    # The barrier may have run before this tied commit.
                    acceptable.add(value)
                value = (domain.combine(value, amount) if sign > 0
                         else domain.subtract(value, amount))
            acceptable.add(value)
            if cert.value not in acceptable:
                failures.append(
                    f"{txn.txn_id}[{item}] certificate claims "
                    f"N({cert.as_of:g})={cert.value} but the reference "
                    f"replay gives {sorted(acceptable, key=repr)} — "
                    f"the view lied")
        return failures


class ConservationOracle:
    """Transfers conserve: the quiescent total is the initial one."""

    name = "conservation"

    def check(self, result: "ChaosResult") -> list[str]:
        total = result.system.total_value()
        initial = sum(result.initial_totals.values())
        if total == initial:
            return []
        return [f"total {total} != initial {initial}"]


class AgreementOracle:
    """No split-brain decision anywhere in the stable logs."""

    name = "agreement"

    def check(self, result: "ChaosResult") -> list[str]:
        failures: list[str] = []
        decisions: dict[str, set[bool]] = {}
        applied: dict[str, dict[str, bool]] = {}
        for name, site in result.system.sites.items():
            for envelope in site.log.scan():
                record = envelope.record
                if record[0] == "coord-decision":
                    decisions.setdefault(record[1], set()).add(record[2])
                elif record[0] in ("participant-commit",
                                   "participant-abort"):
                    applied.setdefault(record[1], {})[name] = \
                        record[0] == "participant-commit"
        for txn_id, verdicts in sorted(decisions.items()):
            if len(verdicts) > 1:
                failures.append(f"{txn_id}: leaders decided both ways")
        for txn_id, outcomes in sorted(applied.items()):
            if len(set(outcomes.values())) > 1:
                failures.append(
                    f"{txn_id}: participants disagree: {sorted(outcomes)}")
            chosen = decisions.get(txn_id)
            if chosen is not None and len(chosen) == 1 and \
                    set(outcomes.values()) != chosen:
                failures.append(
                    f"{txn_id}: participants applied "
                    f"{sorted(set(outcomes.values()))} but the decision "
                    f"was {sorted(chosen)}")
        return failures


class LivenessOracle:
    """Nobody is still blocked once everything is repaired."""

    name = "liveness"

    def check(self, result: "ChaosResult") -> list[str]:
        blocked = result.system.blocked()
        if not blocked:
            return []
        return [f"{len(blocked)} participant(s) still blocked after "
                f"settle: {blocked[:3]}"]


def default_oracles() -> list[Oracle]:
    return [AuditorOracle(), SerialOracle(), ProgressOracle(),
            ViewOracle()]


def commit_oracles() -> list[Oracle]:
    return [ConservationOracle(), AgreementOracle(), LivenessOracle()]


__all__ = ["Oracle", "AuditorOracle", "SerialOracle", "ProgressOracle",
           "ViewOracle", "ConservationOracle", "AgreementOracle",
           "LivenessOracle", "default_oracles", "commit_oracles",
           "EPSILON"]
