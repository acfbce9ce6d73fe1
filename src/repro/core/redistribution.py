"""Demand-aware redistribution planning (Section 9's open question).

The paper leaves "the best ways to distribute the data" open. The base
protocol is purely reactive — value moves only when a transaction is
already short — and the proactive daemon (:mod:`repro.core.rebalance`)
needs an answer to *where should surplus go?* and *when should a short
site fetch ahead of demand?*. This module supplies both halves:

* :class:`DemandTracker` — a per-site, volatile, exponentially-decayed
  ledger of demand signals the protocol already generates for free:
  local shortfalls (a transaction needed more than the fragment held),
  local aborts, remote ``DataRequest`` traffic (peers asking *us* for
  value are demand we can push toward), and received Vm (peers sending
  us value are wealthy — candidates to pull from). Nothing here adds
  messages; it only listens — and only at a site whose daemon built
  it: a site with no planner keeps no ledger.

* A pluggable :class:`RebalancePolicy` registry deciding, per item,
  which peer a surplus push targets and which peer a deficit pull asks:

  - ``static-rr``       — today's behaviour: rotate over live peers;
  - ``demand-weighted`` — push toward the peer whose recent requests
    show the most unmet demand (round-robin when nobody is asking);
  - ``pull``            — no pushes; a site below its low watermark
    requests value from its apparently richest reachable peer, as an
    ordinary Rds transaction.

Everything is deterministic: scores decay by virtual time only, peers
are considered in the site's stable peer order, and ties break toward
the earliest candidate — so traces replay bit-identically.
"""

from __future__ import annotations

from typing import Any, ClassVar

#: Scores below this are treated as "nobody is asking" (pure decay
#: never reaches zero; the epsilon keeps fallback behaviour reachable).
SCORE_EPSILON = 1e-6


def _magnitude(amount: Any) -> float:
    """Collapse a domain amount to a comparable non-negative weight.

    Counter-like domains yield their numeric size; structured domains
    (sets, tuples) their cardinality; anything else counts as one
    event. Only relative order matters to the policies.
    """
    if type(amount) is int:
        return float(abs(amount))
    if isinstance(amount, bool) or amount is None:
        return 1.0
    if isinstance(amount, (int, float)):
        return float(abs(amount))
    try:
        return float(len(amount))
    except TypeError:
        return 1.0


class _DecayedScore:
    """A number that halves every ``half_life`` of virtual time."""

    __slots__ = ("value", "stamp")

    def __init__(self) -> None:
        self.value = 0.0
        self.stamp = 0.0

    def read(self, now: float, half_life: float) -> float:
        if self.value == 0.0:
            return 0.0
        elapsed = now - self.stamp
        if elapsed <= 0.0:
            return self.value
        return self.value * 0.5 ** (elapsed / half_life)


class DemandTracker:
    """Volatile per-site demand/wealth ledger (decays over virtual time).

    Built by the site's :class:`~repro.core.rebalance.RebalanceDaemon`
    (``DvPSite.demand`` is None until then); fed by hooks on the
    protocol's own transitions (transaction shortfall and abort,
    incoming requests, accepted Vm); read by the rebalance policies.
    Like the lock table it does not survive a crash: it goes with the
    site, and the next incarnation starts an empty one.
    """

    #: A local abort carries this much pressure (shortfall signals are
    #: weighted by their actual deficit; an abort is one lost client).
    ABORT_WEIGHT = 1.0

    def __init__(self, sim, half_life: float = 60.0) -> None:
        if half_life <= 0:
            raise ValueError("half_life must be positive")
        self.sim = sim
        self.half_life = half_life
        self._local: dict[str, _DecayedScore] = {}
        self._remote: dict[tuple[str, str], _DecayedScore] = {}
        self._wealth: dict[tuple[str, str], _DecayedScore] = {}

    # -- feeding hooks ----------------------------------------------------

    def note_shortfall(self, item: str, deficit: Any) -> None:
        """A local transaction found the fragment *deficit* short."""
        self._bump(self._local, item, _magnitude(deficit))

    def note_abort(self, item: str) -> None:
        """A local transaction gave up while needing *item*."""
        self._bump(self._local, item, self.ABORT_WEIGHT)

    def note_remote_demand(self, peer: str, item: str, need: Any) -> None:
        """*peer* asked us for *need* of *item* — demand we can push at."""
        self._bump(self._remote, (peer, item), _magnitude(need))

    def note_supply(self, peer: str, item: str, amount: Any) -> None:
        """*peer* sent us *amount* of *item* — evidence it is rich."""
        self._bump(self._wealth, (peer, item), _magnitude(amount))

    def _bump(self, table: dict, key, amount: float) -> None:
        """Decay *key*'s score to now (as :meth:`_DecayedScore.read`
        does), then add *amount*."""
        score = table.get(key)
        if score is None:
            score = table[key] = _DecayedScore()
        now, value = self.sim.now, score.value
        if value != 0.0 and now > score.stamp:
            value *= 0.5 ** ((now - score.stamp) / self.half_life)
        score.value, score.stamp = value + amount, now

    # -- reading ----------------------------------------------------------

    def local_pressure(self, item: str) -> float:
        """How starved this site's own clients have recently been."""
        return self._read(self._local, item)

    def remote_demand(self, item: str, peer: str) -> float:
        """How hard *peer* has recently been asking us for *item*."""
        return self._read(self._remote, (peer, item))

    def wealth(self, item: str, peer: str) -> float:
        """How much of *item* *peer* has recently been able to send."""
        return self._read(self._wealth, (peer, item))

    def _read(self, table: dict, key) -> float:
        score = table.get(key)
        if score is None:
            return 0.0
        return score.read(self.sim.now, self.half_life)

    def forget_peer(self, peer: str) -> None:
        """*peer* left the topology: drop its demand/wealth evidence so
        the planner stops pushing toward (or pulling from) it."""
        for table in (self._remote, self._wealth):
            for key in [key for key in table if key[0] == peer]:
                del table[key]


# -- policies ----------------------------------------------------------------

class RebalancePolicy:
    """Where a daemon's pushes go and pulls come from.

    Policies are stateful per daemon (the round-robin cursor);
    :func:`make_rebalance_policy` builds a fresh instance per site.
    Candidate lists arrive pre-filtered to live, reachable peers in the
    site's stable peer order; selection must be a pure peek — cursors
    advance only through :meth:`on_shipped` / :meth:`on_pulled`, which
    the daemon calls after the movement actually happened (a failed
    lock acquisition must not burn a peer's turn).
    """

    name: ClassVar[str] = "policy"
    pushes: ClassVar[bool] = True
    pulls: ClassVar[bool] = False

    def push_target(self, demand: DemandTracker, item: str,
                    candidates: list[str]) -> str | None:
        """Asked only of a policy that :attr:`pushes`."""
        raise NotImplementedError

    def pull_source(self, demand: DemandTracker, item: str,
                    candidates: list[str]) -> str | None:
        return None

    def on_shipped(self, peer: str) -> None:
        """A push to *peer* committed (create record forced)."""

    def on_pulled(self, peer: str) -> None:
        """A pull request was sent to *peer*."""


class _RoundRobinCursor:
    """Shared rotation helper: peek without advancing."""

    def __init__(self) -> None:
        self._cursor = 0

    def peek(self, candidates: list[str]) -> str | None:
        if not candidates:
            return None
        return candidates[self._cursor % len(candidates)]

    def advance(self) -> None:
        self._cursor += 1


class StaticRoundRobinPolicy(RebalancePolicy):
    """Today's behaviour: rotate surplus over the live peers."""

    name = "static-rr"

    def __init__(self) -> None:
        self._rr = _RoundRobinCursor()

    def push_target(self, demand: DemandTracker, item: str,
                    candidates: list[str]) -> str | None:
        return self._rr.peek(candidates)

    def on_shipped(self, peer: str) -> None:
        self._rr.advance()


class DemandWeightedPolicy(RebalancePolicy):
    """Push toward the peer with the most recently-observed demand.

    Demand is what the tracker heard in the peers' own ``DataRequest``
    traffic. When no candidate shows demand above the epsilon the
    policy degrades to round-robin — it is never worse-informed than
    ``static-rr``. Ties break toward the earliest candidate, so the
    choice is deterministic.
    """

    name = "demand-weighted"

    def __init__(self) -> None:
        self._rr = _RoundRobinCursor()

    def push_target(self, demand: DemandTracker, item: str,
                    candidates: list[str]) -> str | None:
        best, best_score = None, SCORE_EPSILON
        for peer in candidates:
            score = demand.remote_demand(item, peer)
            if score > best_score:
                best, best_score = peer, score
        if best is not None:
            return best
        return self._rr.peek(candidates)

    def on_shipped(self, peer: str) -> None:
        self._rr.advance()


class PullPolicy(RebalancePolicy):
    """Deficit-driven: never push; a short site asks the richest peer.

    Wealth is estimated from received Vm (a peer that keeps granting
    value demonstrably has it). With no evidence yet the policy probes
    peers round-robin — each unanswered pull rotates to the next
    candidate, so a poor or dead-quiet peer cannot absorb every probe.
    """

    name = "pull"
    pushes = False
    pulls = True

    def __init__(self) -> None:
        self._rr = _RoundRobinCursor()

    def pull_source(self, demand: DemandTracker, item: str,
                    candidates: list[str]) -> str | None:
        best, best_score = None, SCORE_EPSILON
        for peer in candidates:
            score = demand.wealth(item, peer)
            if score > best_score:
                best, best_score = peer, score
        if best is not None:
            return best
        return self._rr.peek(candidates)

    def on_pulled(self, peer: str) -> None:
        self._rr.advance()


REBALANCE_POLICIES: dict[str, type[RebalancePolicy]] = {
    cls.name: cls for cls in (
        StaticRoundRobinPolicy, DemandWeightedPolicy, PullPolicy)
}


def make_rebalance_policy(name: str) -> RebalancePolicy:
    """Instantiate a registered policy (one instance per daemon)."""
    try:
        cls = REBALANCE_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown rebalance policy {name!r}; "
            f"choose from {sorted(REBALANCE_POLICIES)}") from None
    return cls()


__all__ = [
    "DemandTracker",
    "RebalancePolicy",
    "StaticRoundRobinPolicy",
    "DemandWeightedPolicy",
    "PullPolicy",
    "REBALANCE_POLICIES",
    "make_rebalance_policy",
    "SCORE_EPSILON",
]
