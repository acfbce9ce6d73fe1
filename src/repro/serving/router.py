"""Pluggable request routing for the serving front-end.

Three policies:

* **random** — uniform spray; the baseline every useful policy must
  beat. Draws come from a *per-origin-site* stream so routing is
  independent of shard execution order (worker-invariant).
* **least-queue** — join-the-shortest-queue over a :class:`DepthBoard`
  snapshot. Reading live cross-shard queue depths from inside a shard
  event would make routing depend on which shard ran first in the
  round, so the board is refreshed only at global barriers (a
  consistent cut) and every router reads the same, slightly stale,
  snapshot — bounded staleness buys determinism.
* **locality** — route to a directory owner of the transaction's
  first item (ties broken by board load). Owners hold the item's
  fragments, so the transaction usually commits locally instead of
  paying redistribution round trips — the paper's local-commit sweet
  spot turned into a routing policy.
* **view-aware** — locality routing that knows about the Π(b) view
  tier (docs/READS.md): a request made *entirely* of bounded-staleness
  view reads stays at its origin whenever the origin holds a view
  cache, because any view-capable site can certify the read from its
  cache in O(1) — forwarding it to a fragment owner buys nothing and
  pays a hop. Everything else (writes, full reads, mixed specs)
  routes exactly like **locality**.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Protocol

from repro.core.transactions import TransactionSpec
from repro.sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.partition import Directory
    from repro.serving.queue import SiteQueue


class DepthBoard:
    """Barrier-refreshed snapshot of per-site queue load.

    ``snapshot[site]`` is queued + in-flight as of the last refresh;
    refreshes happen at global barriers so every shard reads the same
    numbers regardless of execution order.
    """

    def __init__(self, queues: dict[str, "SiteQueue"]) -> None:
        self._queues = queues
        self.snapshot: dict[str, int] = {site: 0 for site in queues}
        #: The lowest load on the board, as of the same refresh.
        self.least = 0
        self.refreshes = 0

    @property
    def sites(self) -> list[str]:
        return list(self._queues)

    def refresh(self) -> None:
        self.snapshot = {site: queue.load
                         for site, queue in self._queues.items()}
        self.least = min(self.snapshot.values(), default=0)
        self.refreshes += 1

    def least_loaded(self, candidates: "tuple[str, ...] | list[str]",
                     prefer: str) -> str:
        """Lowest board load; ties prefer *prefer*, then site order."""
        snapshot = self.snapshot
        return min(candidates,
                   key=lambda site: (snapshot.get(site, 0),
                                     site != prefer, site))


class Router(Protocol):
    """Picks the site whose queue a request joins."""

    name: str

    def route(self, origin: str, spec: TransactionSpec) -> str: ...


class RandomRouter:
    name = "random"

    def __init__(self, sim: Simulator, sites: list[str]) -> None:
        self.sites = list(sites)
        # One stream per origin: route draws happen inside arrival
        # events on the origin's shard.
        self._rng: dict[str, random.Random] = {
            site: sim.rng.stream(f"serve:router:{site}")
            for site in sites}

    def route(self, origin: str, spec: TransactionSpec) -> str:
        return self._rng[origin].choice(self.sites)


class LeastQueueRouter:
    """JSQ with origin affinity against a stale board.

    Pure join-the-shortest-queue on a barrier-refreshed board herds:
    every site routes to the same minimum until the next refresh and
    that queue overflows. Keeping the request at its origin whenever
    the origin is within *slack* of the board minimum spreads load and
    only forwards when the origin is genuinely hot.
    """

    name = "least-queue"

    def __init__(self, board: DepthBoard, slack: int = 2) -> None:
        self.board = board
        self.slack = slack
        self._sites = board.sites

    def route(self, origin: str, spec: TransactionSpec) -> str:
        board = self.board
        if board.snapshot.get(origin, 0) <= board.least + self.slack:
            return origin
        return board.least_loaded(self._sites, prefer=origin)


class LocalityRouter:
    name = "locality"

    def __init__(self, board: DepthBoard, directory: "Directory") -> None:
        self.board = board
        self.directory = directory

    def route(self, origin: str, spec: TransactionSpec) -> str:
        items = spec.items()
        if not items:
            return origin
        # The first item in spec order anchors placement; multi-item
        # specs still gather their other fragments via redistribution.
        owners = self.directory.owners(min(items))
        if not owners:
            return origin
        return self.board.least_loaded(owners, prefer=origin)


class ViewAwareRouter:
    """Locality routing with an O(1) fast path for pure view reads."""

    name = "view-aware"

    def __init__(self, board: DepthBoard, directory: "Directory",
                 view_capable: Callable[[str], bool]) -> None:
        self.board = board
        self.directory = directory
        self.view_capable = view_capable
        self._fallback = LocalityRouter(board, directory)
        #: Pure view reads kept at a view-capable origin.
        self.kept_local = 0

    def route(self, origin: str, spec: TransactionSpec) -> str:
        if spec.pure_view and self.view_capable(origin):
            self.kept_local += 1
            return origin
        return self._fallback.route(origin, spec)


ROUTERS = ("random", "least-queue", "locality", "view-aware")


def make_router(name: str, sim: Simulator, sites: list[str],
                board: DepthBoard, directory: "Directory",
                view_capable: "Callable[[str], bool] | None" = None
                ) -> Router:
    if name == "random":
        return RandomRouter(sim, sites)
    if name == "least-queue":
        return LeastQueueRouter(board)
    if name == "locality":
        return LocalityRouter(board, directory)
    if name == "view-aware":
        return ViewAwareRouter(board, directory,
                               view_capable or (lambda _site: False))
    raise ValueError(f"unknown router {name!r}; choose from {ROUTERS}")
