"""Workload driving: the arrival process, the mix sampler, the driver.

A workload turns a random stream into :class:`TransactionSpec`s
(:func:`draw_op` makes the draws, each generator maps them to its
application's operations); :meth:`WorkloadDriver.install` is the
arrival process — open-loop Poisson arrivals per site on named
per-site streams — and submits the specs through ``submit(site, spec,
on_done)``, the :class:`~repro.core.system.System` contract's, so DvP,
the hybrid manager and every baseline are driven alike (a serving
front-end offers the same call without being a system).
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass, field
from functools import partial
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


def draw_op(rng: random.Random, items: list[str],
            config: WorkloadConfig) -> tuple[str, str, int, str | None]:
    """The draws of one arrival: ``(kind, item, amount, other)``.

    Every generator in this package makes exactly these, in this
    order, so swapping one for another (a raw-spec workload for its
    façade traffic, an experiment's own source for a stock one) does
    not change which operations a seeded run offers: the kind from the
    mix, a Zipf item, a uniform amount and — only for a transfer over
    more than one item — a second, distinct Zipf item (else ``None``).
    """
    mix = config.mix.normalized()
    kind = rng.choices([name for name, _weight in mix],
                       weights=[weight for _name, weight in mix])[0]
    item = zipf_choice(rng, items, config.zipf_skew)
    amount = rng.randint(config.amount_low, config.amount_high)
    other = None
    if kind == "transfer" and len(items) > 1:
        other = zipf_choice(rng, [name for name in items if name != item],
                            config.zipf_skew)
    return kind, item, amount, other


class WorkloadDriver:
    """Poisson arrivals per site, submitted as generated transactions.

    There is one arrival process: each site's gaps come from its own
    stream ``{seed_stream}:gaps:{site}`` and its specs from
    ``{seed_stream}:{site}``. Every stream belongs to one site and is
    forked here, outside any event (inside one, ``sim.rng`` is the
    executing shard's fork), so the offered load is a function of
    (seed, site) alone: identical for every system compared on a seed,
    for every shard count and for every worker count.
    """

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
        self._site_rng = {
            site: sim.rng.stream(f"{config.seed_stream}:{site}")
            for site in sites}
        self._gap_rng = {
            site: sim.rng.stream(f"{config.seed_stream}:gaps:{site}")
            for site in sites}

    def install(self) -> None:
        """Start the arrivals of ``[0, duration)`` at every site.

        Open loop: one pending event per site, and each arrival chains
        its successor before it submits, so memory is O(sites) whatever
        the horizon. ``collector.submitted`` is the count.
        """
        for site in self.sites:
            self._schedule(site, 0.0)

    def _schedule(self, site: str, after: float) -> None:
        time = after + self._gap_rng[site].expovariate(
            self.config.arrival_rate)
        if time < self.config.duration:
            self.sim.at_site(site, time, partial(self._on_arrival, site),
                             label=f"arrival:{site}")

    def _on_arrival(self, site: str) -> None:
        self._schedule(site, self.sim.now)
        self._arrive(site)

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
