"""Workload driving: arrival processes, mixes, and the generic driver.

A workload turns a random stream into :class:`TransactionSpec`s; the
:class:`WorkloadDriver` schedules Poisson arrivals at every site and
submits the specs through ``submit(site, spec, on_done)`` — the
:class:`~repro.core.system.System` contract's, so DvP, the hybrid
manager and every baseline are driven alike (a serving front-end
offers the same call without being a system).
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Callable, Protocol

from repro.core.site import SiteDown
from repro.core.transactions import TransactionSpec, UnsupportedSpec
from repro.metrics.collector import Collector
from repro.sim.kernel import Simulator


class SubmitTarget(Protocol):
    """Anything transactions can be submitted to: the ``submit`` of the
    :class:`~repro.core.system.System` contract, nothing more."""

    def submit(self, site: str, spec: TransactionSpec,
               on_done: Callable | None = None) -> Any: ...


@dataclass(frozen=True)
class OpMix:
    """Relative weights of the operation families."""

    reserve: float = 0.6   # decrement
    cancel: float = 0.2    # increment
    transfer: float = 0.0  # move between items
    read: float = 0.0      # full read
    #: Bounded-staleness view read (docs/READS.md). Appended with
    #: weight 0 so every pre-existing mix draws the exact same
    #: sequence: a zero-weight tail entry can never be chosen and
    #: does not shift which index any existing draw selects.
    read_view: float = 0.0

    def normalized(self) -> list[tuple[str, float]]:
        pairs = [("reserve", self.reserve), ("cancel", self.cancel),
                 ("transfer", self.transfer), ("read", self.read),
                 ("read_view", self.read_view)]
        total = sum(weight for _name, weight in pairs)
        if total <= 0:
            raise ValueError("op mix has no positive weights")
        return [(name, weight / total) for name, weight in pairs]


@dataclass
class WorkloadConfig:
    """Shared workload parameters."""

    arrival_rate: float = 0.2     # transactions per unit time per site
    duration: float = 200.0
    amount_low: int = 1
    amount_high: int = 4
    mix: OpMix = field(default_factory=OpMix)
    zipf_skew: float = 0.0        # 0 = uniform item choice
    work: float = 0.0             # local computation per transaction
    seed_stream: str = "workload"

    def __post_init__(self) -> None:
        if self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.amount_low < 1 or self.amount_high < self.amount_low:
            raise ValueError("bad amount range")


class SpecSource(Protocol):
    """A workload: produces specs for arrivals at a site."""

    def make_spec(self, rng: random.Random, site: str) -> TransactionSpec:
        ...


#: Cumulative Zipf weights keyed by (item count, skew). The weights
#: depend only on list *length* and skew, never on item identity, so
#: one cache entry serves every caller — without it each arrival paid
#: an O(n) weight rebuild, ruinous at 10^5 items x 10^6 arrivals.
_ZIPF_CUM_CACHE: dict[tuple[int, float], list[float]] = {}


def _zipf_cum_weights(count: int, skew: float) -> list[float]:
    key = (count, skew)
    cum = _ZIPF_CUM_CACHE.get(key)
    if cum is None:
        cum = list(accumulate(
            1.0 / (rank ** skew) for rank in range(1, count + 1)))
        _ZIPF_CUM_CACHE[key] = cum
    return cum


def zipf_choice(rng: random.Random, items: list[str], skew: float) -> str:
    """Pick an item with Zipf(skew) weighting over the list order."""
    if skew <= 0 or len(items) == 1:
        return rng.choice(items)
    # Same draw ``random.choices`` would make (one uniform, bisect on
    # the cumulative weights) so cached and uncached paths produce
    # bit-identical sequences from the same stream state.
    cum = _zipf_cum_weights(len(items), skew)
    total = cum[-1] + 0.0
    return items[bisect(cum, rng.random() * total, 0, len(items) - 1)]


class WorkloadDriver:
    """Schedules Poisson arrivals and submits generated transactions."""

    def __init__(self, sim: Simulator, target: SubmitTarget,
                 sites: list[str], source: SpecSource,
                 config: WorkloadConfig,
                 collector: Collector | None = None) -> None:
        self.sim = sim
        self.target = target
        self.sites = sites
        self.source = source
        self.config = config
        self.collector = collector or Collector()
        self._rng = sim.rng.stream(config.seed_stream)
        # Spec draws happen inside arrival events, which execute on the
        # site's shard when the simulation is sharded (repro.sim.shard);
        # a per-site stream keeps those draws independent of the order
        # shards execute in, so results cannot depend on worker count.
        self._site_rng = {
            site: sim.rng.stream(f"{config.seed_stream}:{site}")
            for site in sites}
        self._gap_rng: dict[str, random.Random] = {}

    def install(self, start: float = 0.0) -> int:
        """Pre-schedule every arrival in [start, start+duration].

        Returns the number of scheduled arrivals. Pre-scheduling (rather
        than chained timers) keeps the arrival process identical across
        systems compared on the same seed.
        """
        scheduled = 0
        for site in self.sites:
            time = start
            while True:
                time += self._next_gap()
                if time >= start + self.config.duration:
                    break
                self.sim.at_site(site, time, self._make_arrival(site),
                                 label=f"arrival:{site}")
                scheduled += 1
        return scheduled

    # -- open-loop (lazy) arrival scheduling ---------------------------------
    #
    # ``install`` materializes the whole horizon up front — fine at
    # harness scales, hopeless for 10^5-10^6 users. The open-loop mode
    # keeps exactly one pending arrival per site: each arrival event
    # draws the next gap and chains the next arrival. Gap draws use a
    # *dedicated per-site stream* (``{seed_stream}:gaps:{site}``): the
    # draw happens inside the site's own shard event, so a per-site
    # stream keeps the arrival process independent of shard execution
    # order (worker-invariant) — and identical to what
    # ``install_prescheduled`` produces from the same seed.

    def install_open_loop(self, start: float = 0.0) -> int:
        """Schedule one chained arrival per site; O(sites) memory.

        Returns the number of sites with at least one arrival.
        """
        self._make_gap_streams()
        deadline = start + self.config.duration
        live = 0
        for site in self.sites:
            first = start + self._next_site_gap(site)
            if first >= deadline:
                continue
            self.sim.at_site(site, first,
                             self._make_chained_arrival(site, deadline),
                             label=f"arrival:{site}")
            live += 1
        return live

    def install_prescheduled(self, start: float = 0.0) -> int:
        """Pre-materialized twin of :meth:`install_open_loop`.

        Draws gaps from the same per-site streams, so arrival instants
        (and hence trace fingerprints) match the open-loop mode exactly
        — the determinism oracle for the lazy path. Returns the number
        of scheduled arrivals.
        """
        self._make_gap_streams()
        deadline = start + self.config.duration
        scheduled = 0
        for site in self.sites:
            time = start
            while True:
                time += self._next_site_gap(site)
                if time >= deadline:
                    break
                self.sim.at_site(site, time, self._make_arrival(site),
                                 label=f"arrival:{site}")
                scheduled += 1
        return scheduled

    def _make_gap_streams(self) -> None:
        # Streams must be forked from the root RNG (outside any shard
        # event) — ``sim.rng`` inside an event is the shard's fork.
        for site in self.sites:
            if site not in self._gap_rng:
                self._gap_rng[site] = self.sim.rng.stream(
                    f"{self.config.seed_stream}:gaps:{site}")

    def _next_gap(self) -> float:
        return self._rng.expovariate(self.config.arrival_rate)

    def _next_site_gap(self, site: str) -> float:
        return self._gap_rng[site].expovariate(self.config.arrival_rate)

    def _make_chained_arrival(self, site: str, deadline: float):
        def arrive() -> None:
            next_time = self.sim.now + self._next_site_gap(site)
            if next_time < deadline:
                self.sim.at_site(site, next_time, arrive,
                                 label=f"arrival:{site}")
            self._arrive(site)
        return arrive

    def _make_arrival(self, site: str):
        def arrive() -> None:
            self._arrive(site)
        return arrive

    def _arrive(self, site: str) -> None:
        spec = self.source.make_spec(self._site_rng[site], site)
        self.collector.on_submit(at=self.sim.now)
        try:
            self.target.submit(site, spec, self.collector.on_result)
        except (SiteDown, UnsupportedSpec):
            # The target refused service — site down, or the spec shape
            # is out of scope for a narrower baseline. The customer
            # walked away; counted as lost. Anything else is a
            # programming error and must propagate.
            pass


def uniform_amount(rng: random.Random, config: WorkloadConfig) -> int:
    return rng.randint(config.amount_low, config.amount_high)
