"""Seeded input generators for the six suite workloads.

Everything a workload feeds the program is made here, from ``--seed``
alone, as plain data: the system shape (``params``), the items to
register with their initial quotas (``items``) and the arrival list —
``(sim_time, site, call)`` tuples where *call* is ``(verb, *args)``.
``workloads.py`` turns a call into a bound façade/submit call during
set-up, so the timed region contains no generator.

This module deliberately imports neither ``repro.workloads`` nor any
``benchmarks/bench_*.py`` (both are slated for collapse; the traffic
must not move when they do). Only ``chaos_explore`` touches ``repro``
at all — its inputs *are* the explorer's sampled fault plans.

:func:`Inputs.sha256` fingerprints a generated input set; the digests
for the reference seed at scale 1 are pinned in ``inputs.sha256.json``
and verified at run start, so "the workload changed" can never be
mistaken for "the code got faster".
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from bisect import bisect
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Any, Callable, Iterator

#: The seed whose input digests are pinned in ``inputs.sha256.json``.
REFERENCE_SEED = 11

#: Safety margin when the generator reasons about sim-time overlap.
_EPS = 1e-9


@dataclass(frozen=True)
class Inputs:
    """One workload's complete generated input set (plain data)."""

    workload: str
    #: System / front-end shape; JSON-representable.
    params: dict[str, Any]
    #: ``(item, initial)`` registrations; *initial* is a per-site split
    #: dict, or an int total the program divides across owners.
    items: tuple[tuple[str, Any], ...]
    #: ``(sim_time, site, call)``, ascending in time per site.
    arrivals: tuple[tuple[float, str, tuple], ...]
    #: Arrivals stop at *duration*; the run ends *settle* later.
    duration: float
    settle: float

    def sha256(self) -> str:
        digest = hashlib.sha256()
        digest.update(json.dumps(
            [self.workload, self.params, self.duration, self.settle],
            sort_keys=True).encode())
        for item in self.items:
            digest.update(repr(item).encode())
        for arrival in self.arrivals:
            digest.update(repr(arrival).encode())
        return digest.hexdigest()


def _site_rng(workload: str, seed: int, site: str) -> random.Random:
    # str seeds hash through SHA-512: stable across processes and
    # PYTHONHASHSEED, and one stream per site keeps sites independent.
    return random.Random(f"{workload}/{seed}/{site}")


def _poisson_times(rng: random.Random, rate: float,
                   duration: float) -> Iterator[float]:
    time = 0.0
    while True:
        time += rng.expovariate(rate)
        if time >= duration:
            return
        yield time


def _zipf_cum(count: int, skew: float) -> list[float]:
    return list(accumulate(1.0 / rank ** skew
                           for rank in range(1, count + 1)))


def _zipf_index(rng: random.Random, cum: list[float]) -> int:
    return bisect(cum, rng.random() * cum[-1], 0, len(cum) - 1)


def _merge(per_site: dict[str, list[tuple[float, str, tuple]]]
           ) -> tuple[tuple[float, str, tuple], ...]:
    merged = [entry for entries in per_site.values() for entry in entries]
    merged.sort(key=lambda entry: (entry[0], entry[1]))
    return tuple(merged)


# -- transfer_fanout / transfer_bundled ---------------------------------------

TRANSFER_SITES = ("W", "X", "Y", "Z")
_TRANSFER_OPS = 5
#: Source and sink counters per site. ``bench_micro_net`` used 64, whose
#: 12.8-transaction reuse cycle lets a burst collide on a lock (seen as
#: a stray ``locked`` abort on bundled runs); 160 gives a 32-transaction
#: cycle and the guard below makes conflict-freedom hold by construction.
_TRANSFER_ITEMS = 160
_TRANSFER_TIMEOUT = 15.0


def _transfer(workload: str, seed: int, scale: float,
              flush_delay: float | None) -> Inputs:
    """Conflict-free 5-op transfers whose sources are funded only at
    the origin's *peers*: every commit must pull remote value as Vm.

    Each arrival at site S picks one peer P and moves value
    ``acct_S_i -> sink_P_i`` over consecutive item indices from a
    per-site cycling counter (the ``bench_micro_net.FannedTransfers``
    shape, copied, not imported). A slot is never reused within the
    transaction timeout — a transaction holds its locks at most that
    long — so no two live transactions at a site ever share an item:
    zero aborts is a property of the inputs, not of event timing.
    """
    sites = list(TRANSFER_SITES)
    duration = 4000.0 * scale
    slots = _TRANSFER_ITEMS // _TRANSFER_OPS
    guard = _TRANSFER_TIMEOUT + 1.0
    per_peer = max(25, math.ceil(100 * scale))
    items: list[tuple[str, Any]] = []
    for site in sites:
        funded = {peer: per_peer for peer in sites if peer != site}
        for index in range(_TRANSFER_ITEMS):
            items.append((f"acct_{site}_{index}", funded))
        for index in range(_TRANSFER_ITEMS):
            items.append((f"sink_{site}_{index}",
                          {name: 1 for name in sites}))
    per_site: dict[str, list] = {}
    for site in sites:
        # Same stream for both transfer workloads: identical inputs.
        rng = _site_rng("transfer", seed, site)
        peers = [peer for peer in sites if peer != site]
        last_used = [-math.inf] * slots
        turn = 0
        entries = per_site.setdefault(site, [])
        for time in _poisson_times(rng, 0.4, duration):
            other = rng.choice(peers)
            amounts = [rng.randint(1, 4) for _ in range(_TRANSFER_OPS)]
            slot = turn % slots
            if time - last_used[slot] < guard:
                continue  # burst outran the item cycle: thin it
            last_used[slot] = time
            turn += 1
            base = slot * _TRANSFER_OPS
            moves = tuple((f"acct_{site}_{base + j}",
                           f"sink_{other}_{base + j}", amounts[j])
                          for j in range(_TRANSFER_OPS))
            entries.append((time, site, ("transfer", moves)))
    params = {
        "sites": sites, "cc": "conc1", "policy": "ask-all",
        "link_delay": 2.0, "link_jitter": 1.0,
        "txn_timeout": _TRANSFER_TIMEOUT, "retransmit_period": 12.0,
        "flush_delay": flush_delay,
    }
    return Inputs(workload, params, tuple(items), _merge(per_site),
                  duration, settle=60.0)


def transfer_fanout(seed: int, scale: float) -> Inputs:
    return _transfer("transfer_fanout", seed, scale, flush_delay=None)


def transfer_bundled(seed: int, scale: float) -> Inputs:
    return _transfer("transfer_bundled", seed, scale, flush_delay=2.0)


# -- local_commit -------------------------------------------------------------

_LOCAL_SITES = 16
_LOCAL_ITEMS = 256
_LOCAL_QUOTA = 1_000_000


def local_commit(seed: int, scale: float) -> Inputs:
    """Single-op increments/decrements that always commit from the
    local quota: zero envelopes, the paper's sweet spot.

    Every op carries a seeded service time ``work`` in U(0.05, 0.25)
    (held under the item's lock): with ``work = 0`` every latency is
    exactly 0, and an end-to-end metric may never read 0. The
    generator knows each lock's release instant (arrival + work), so a
    Zipf pick that is still locked is redrawn — Conc1 aborts a locked
    item at once, and this workload must have none.
    """
    sites = [f"S{index}" for index in range(_LOCAL_SITES)]
    names = [f"ctr{index}" for index in range(_LOCAL_ITEMS)]
    duration = 4000.0 * scale
    cum = _zipf_cum(_LOCAL_ITEMS, 0.6)
    quota = {site: _LOCAL_QUOTA for site in sites}
    items = tuple((name, quota) for name in names)
    per_site: dict[str, list] = {}
    for site in sites:
        rng = _site_rng("local_commit", seed, site)
        busy_until = [-math.inf] * _LOCAL_ITEMS
        entries = per_site.setdefault(site, [])
        for time in _poisson_times(rng, 1.0, duration):
            verb = "inc" if rng.random() < 0.5 else "dec"
            amount = rng.randint(1, 4)
            work = rng.uniform(0.05, 0.25)
            index = _zipf_index(rng, cum)
            while busy_until[index] + _EPS >= time:
                index = _zipf_index(rng, cum)
            busy_until[index] = time + work
            entries.append((time, site, (verb, names[index], amount, work)))
    params = {"sites": sites, "cc": "conc1", "policy": "ask-all",
              "link_delay": 1.0, "link_jitter": 0.0,
              "txn_timeout": 30.0, "retransmit_period": 5.0}
    return Inputs("local_commit", params, items, _merge(per_site),
                  duration, settle=60.0)


# -- serving_knee -------------------------------------------------------------

def serving_knee(seed: int, scale: float) -> Inputs:
    """E14's 64-site cell at its saturation knee (1.0 arrivals per
    site per unit): reserve/cancel 70/30 on 64 Zipf(0.6) flights
    through the serving front-end, sharded kernel and Conc2 queues.

    ``work`` is a seeded service time in U(0.4, 0.6) (E14 used the
    constant 0.5) so no latency percentile is the same constant on
    every seed.
    """
    sites = [f"S{index}" for index in range(64)]
    flights = [f"flight{index}" for index in range(64)]
    duration = 300.0 * scale
    cum = _zipf_cum(len(flights), 0.6)
    per_site: dict[str, list] = {}
    for site in sites:
        rng = _site_rng("serving_knee", seed, site)
        entries = per_site.setdefault(site, [])
        for time in _poisson_times(rng, 1.0, duration):
            verb = "reserve" if rng.random() < 0.7 else "cancel"
            flight = flights[_zipf_index(rng, cum)]
            seats = rng.randint(1, 4)
            work = rng.uniform(0.4, 0.6)
            entries.append((time, site, (verb, flight, seats, work)))
    params = {
        "sites": sites, "cc": "conc2", "sync_delay": 1.0,
        "txn_timeout": 12.0, "shards": 4, "shard_workers": 1,
        "partitioner": "hash", "replicas": 2,
        "router": "least-queue", "max_inflight": 4, "max_depth": 16,
        "board_period": 2.0, "end_of_load": "stop",
    }
    items = tuple((flight, 100_000) for flight in flights)
    return Inputs("serving_knee", params, items, _merge(per_site),
                  duration, settle=70.0)


# -- read_mostly --------------------------------------------------------------

_READ_BOUND = 30.0


def read_mostly(seed: int, scale: float) -> Inputs:
    """Bounded-staleness reads beside writes (E16's view cell):
    ``estimate_balance(bound=30)`` : deposit : withdraw = 10 : .5 : .5
    on 8 Zipf(0.4) accounts at 32 sites, through the view-aware router.

    Writes carry a seeded service time in U(0.1, 0.3): a view-served
    read and a ``work = 0`` local write both decide inside their
    submit call (sim latency exactly 0), which would leave the latency
    percentiles with almost no samples.
    """
    sites = [f"S{index}" for index in range(32)]
    accounts = [f"acct{index}" for index in range(8)]
    duration = 900.0 * scale
    cum = _zipf_cum(len(accounts), 0.4)
    per_site: dict[str, list] = {}
    for site in sites:
        rng = _site_rng("read_mostly", seed, site)
        entries = per_site.setdefault(site, [])
        for time in _poisson_times(rng, 2.0, duration):
            roll = rng.random() * 11.0
            account = accounts[_zipf_index(rng, cum)]
            cents = rng.randint(1, 4)
            work = rng.uniform(0.1, 0.3)
            if roll < 10.0:
                call = ("estimate", account, _READ_BOUND)
            elif roll < 10.5:
                call = ("deposit", account, cents, work)
            else:
                call = ("withdraw", account, cents, work)
            entries.append((time, site, call))
    base, extra = divmod(10_000, len(sites))
    split = {site: base + (1 if index < extra else 0)
             for index, site in enumerate(sites)}
    params = {
        "sites": sites, "cc": "conc1", "policy": "ask-all",
        "link_delay": 1.0, "link_jitter": 0.3, "txn_timeout": 50.0,
        "partitioner": "hash", "replicas": 2,
        "read_bound": _READ_BOUND,
        "view_refresh": 4.0, "view_ttl": _READ_BOUND,
        "router": "view-aware", "max_inflight": 4, "max_depth": 16,
        "board_period": 4.0, "end_of_load": "quiesce",
    }
    items = tuple((account, split) for account in accounts)
    return Inputs("read_mostly", params, items, _merge(per_site),
                  duration, settle=110.0)


# -- chaos_explore ------------------------------------------------------------

def chaos_explore(seed: int, scale: float) -> Inputs:
    """``repro.chaos.explore`` over the default config, grammar and
    oracles: the input list is the sampled fault plans themselves
    (``(index, run seed, plan)``), which the explorer re-derives from
    ``(master seed, index)`` when it runs."""
    from repro.chaos.explore import run_seed_for, sample_plan
    from repro.chaos.runner import ChaosConfig

    config = ChaosConfig()
    budget = max(1, round(1200 * scale))
    plans = tuple(
        (float(index), "explorer",
         ("plan", run_seed_for(seed, index),
          sample_plan(seed, index, config).describe()))
        for index in range(budget))
    params = {"budget": budget, "config": config.to_dict()}
    return Inputs("chaos_explore", params, (), plans,
                  duration=config.duration,
                  settle=config.txn_timeout + config.settle)


GENERATORS: dict[str, Callable[[int, float], Inputs]] = {
    "transfer_fanout": transfer_fanout,
    "transfer_bundled": transfer_bundled,
    "local_commit": local_commit,
    "serving_knee": serving_knee,
    "read_mostly": read_mostly,
    "chaos_explore": chaos_explore,
}


# -- deliberate breakage (``run.py --selftest``) ------------------------------

def sabotage(inputs: Inputs) -> Inputs:
    """Break *inputs* so the workload's own check must fail the run.

    The self-test feeds each workload its broken twin and expects
    ``correct: false`` — proof that the check can fire at all.
    """
    name = inputs.workload
    if name in ("transfer_fanout", "transfer_bundled", "local_commit"):
        # Under-fund the first item an arrival decrements: transfers
        # time out (0-abort check); local_commit must also go remote
        # (``net.sent == 0`` check).
        call = inputs.arrivals[0][2]
        victim = call[1][0][0] if call[0] == "transfer" else next(
            entry[2][1] for entry in inputs.arrivals
            if entry[2][0] == "dec")
        items = tuple(
            (item, {site: 0 for site in initial}) if item == victim
            else (item, initial) for item, initial in inputs.items)
        return replace(inputs, items=items)
    if name == "serving_knee":
        # No settle: requests still in flight at the end are lost.
        return replace(inputs, settle=0.0)
    if name == "read_mostly":
        # The workload now promises a bound its reads do not ask for:
        # served certificates are staler than it allows.
        return replace(inputs, params=dict(inputs.params, read_bound=0.5))
    if name == "chaos_explore":
        # Arms the planted conservation leak (fragments.set_test_leak).
        return replace(inputs, params=dict(inputs.params, leak="write"))
    raise ValueError(f"unknown workload {name!r}")
