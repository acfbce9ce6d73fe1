"""Fragment migration for elastic topology changes.

When the partition directory reshapes (site join/leave, replica-count
change), fragment value held by sites that lost ownership must move to
the new owners. This module does that with **ordinary transfer-mode
virtual messages** — the exact lock → log ``[actions, messages]`` →
apply → register discipline every Rds transaction uses — so the
incremental conservation auditor and all three chaos oracles check
every migration with no special cases (docs/PARTITIONING.md).

The :class:`MigrationController` runs as a periodic *global* event (a
barrier cut on the sharded kernel: it reads every site's state
consistently and hands per-site work to ``call_in_site``):

1. **Epoch fence** — before moving anything, wait until no site has an
   active transaction started under a pre-reshard epoch. In-flight
   transactions resolved their peer sets against the old directory;
   draining them first means no transaction ever observes a half-moved
   placement. The fence is bounded by the transaction timeout (every
   old-epoch transaction decides or times out), checked once per tick.
2. **Ship** — each pending move drains the source's full fragment to
   its new owner as one transfer Vm. A dead source is retried after
   recovery (its log restores the fragment first); a locked fragment
   is retried next tick; Vm retransmission covers dead or partitioned
   destinations for free.
3. **Complete** — a move is done when the destination's incoming
   channel has cumulatively accepted the shipped sequence number.
4. **Drain** (site removal) — the leaving site is rescanned every tick
   for value that arrived after the reshard (in-flight Vm addressed
   under the old epoch), and the migration holds open until the leaver
   has no unacknowledged outgoing Vm.

Placement is advisory: value that lands at a non-owner after its move
completed (a read-drain refund, a stale transfer) simply rests there —
reads fan to all peers regardless of the directory, so no value is
ever unreachable, and conservation never depended on placement at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.partition import stable_hash

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import DvPSystem


class ReshardInProgress(RuntimeError):
    """A topology change was requested while a migration is running."""


@dataclass
class Move:
    """One planned fragment movement: *src* drains *item* to *dst*."""

    src: str
    dst: str
    item: str
    state: str = "pending"       # pending -> shipped -> done
    seq: int = 0                 # channel seq of the migration Vm
    shipped: int | None = None   # integer amount actually shipped


def plan_moves(items: dict[str, tuple[str, ...]],
               new_owners: dict[str, tuple[str, ...]]) -> list[Move]:
    """Moves implied by an ownership change (old → new, per item).

    Every site that lost ownership of an item drains its fragment to a
    deterministically chosen site among those that *gained* ownership
    (or any current owner when the change only shrank the set, as in a
    site removal). The pick hashes (item, src), so load spreads across
    the gainers without any RNG draw — planning must not perturb the
    simulation's random streams.
    """
    moves: list[Move] = []
    for item in sorted(items):
        old = items[item]
        new = new_owners[item]
        gained = tuple(site for site in new if site not in old)
        candidates = gained or new
        for src in old:
            if src in new or not candidates:
                continue
            dst = candidates[stable_hash(f"{item}:{src}")
                             % len(candidates)]
            moves.append(Move(src=src, dst=dst, item=item))
    return moves


class MigrationController:
    """Drives one reshard's moves to completion; see module docstring."""

    def __init__(self, system: "DvPSystem", moves: list[Move],
                 epoch: int, drain: str | None = None,
                 period: float | None = None) -> None:
        self.system = system
        self.moves = moves
        self.epoch = epoch
        #: Site being decommissioned (rescanned for late value), if any.
        self.drain = drain
        self.period = (period if period is not None
                       else system.config.retransmit_period)
        self.done = False
        self.ticks = 0
        self.fence_waits = 0
        self._fenced = True
        self._ship_counter = 0
        sim = system.sim
        self._obs = sim.obs
        self._c_ship = sim.metrics.counter("migrate.ships")
        self._c_value = sim.metrics.counter("migrate.value")

    def start(self) -> None:
        if not self.moves and self.drain is None:
            self._finish()
            return
        self._schedule_tick()

    def _schedule_tick(self) -> None:
        sim = self.system.sim
        sim.at_global(sim.now + self.period, self._tick,
                      label=f"migrate:tick:e{self.epoch}")

    def close(self) -> None:
        """Let go of the system (which lists this controller); the
        moves, counters and ``done`` stay readable."""
        self.system = None

    # -- the periodic pass -------------------------------------------------

    def _tick(self) -> None:
        self.ticks += 1
        if self._fenced:
            if self._old_epoch_txns():
                self.fence_waits += 1
                self._schedule_tick()
                return
            self._fenced = False
        if self.drain is not None:
            self._rescan_drain()
        progress_pending = False
        for move in self.moves:
            if move.state == "pending":
                self._try_ship(move)
            if move.state == "shipped":
                self._check_accepted(move)
            if move.state != "done":
                progress_pending = True
        if progress_pending or self._drain_open():
            self._schedule_tick()
        else:
            self._finish()

    def _old_epoch_txns(self) -> bool:
        for site in self.system.sites.values():
            for txn in site.active.values():
                if txn.epoch < self.epoch:
                    return True
        return False

    # -- shipping ----------------------------------------------------------

    def _try_ship(self, move: Move) -> None:
        site = self.system.sites[move.src]
        if not site.alive:
            return          # recovery restores the fragment; retry then
        if not site.fragments.knows(move.item):
            move.state = "done"
            return
        self.system.sim.call_in_site(move.src,
                                     lambda: self._ship_locked(move))

    def _ship_locked(self, move: Move) -> None:
        site = self.system.sites[move.src]
        domain = site.fragments.domain(move.item)
        value = site.fragments.value(move.item)
        if domain.is_zero(value):
            move.state = "done"   # nothing to carry; drain rescans later
            return
        self._ship_counter += 1
        owner = f"migrate:{move.src}:{self._ship_counter}"
        entries = site.ship(owner, move.item, ((move.dst, value),),
                            "migrate.ship", epoch=self.epoch)
        if entries is None:
            return                # busy; retry next tick
        move.seq = entries[0].channel_seq
        move.state = "shipped"
        move.shipped = value if isinstance(value, int) else None
        self._c_ship.value += 1
        if isinstance(value, int):
            self._c_value.value += value

    def _check_accepted(self, move: Move) -> None:
        receiver = self.system.sites[move.dst]
        channel = receiver.vm.in_channel(move.src)
        if channel.cumulative_accepted >= move.seq:
            move.state = "done"

    # -- decommission drain ------------------------------------------------

    def _rescan_drain(self) -> None:
        """Value that reached the leaver after planning still must go."""
        leaver = self.system.sites[self.drain]
        if not leaver.alive:
            return
        covered = {(move.src, move.item) for move in self.moves
                   if move.state != "done"}
        for item in leaver.fragments.non_zero_items():
            if (self.drain, item) in covered:
                continue
            owners = self.system.directory.owners(item)
            candidates = tuple(site for site in owners
                               if site != self.drain)
            if not candidates:
                continue
            dst = candidates[stable_hash(f"{item}:{self.drain}")
                             % len(candidates)]
            self.moves.append(Move(src=self.drain, dst=dst, item=item))

    def _drain_open(self) -> bool:
        if self.drain is None:
            return False
        leaver = self.system.sites[self.drain]
        if not leaver.alive:
            return True           # must come back and finish draining
        return leaver.vm.unacked_count() > 0

    # -- completion --------------------------------------------------------

    def _finish(self) -> None:
        self.done = True
        if self._obs.enabled:
            self._obs.emit("migrate.done", self.system.sim.now,
                           epoch=self.epoch, moves=len(self.moves),
                           fence_waits=self.fence_waits)
        self.system._migration_finished(self)


__all__ = ["Move", "plan_moves", "MigrationController",
           "ReshardInProgress"]
