"""Unit coverage for the bounded-staleness read tier (docs/READS.md):
the published totals (the auditor's N), the per-site cache's admission
rules, the certificate-first O(1) commit path, the view-aware router,
the app façades' estimate calls through the serving front-end, and a
digest over the result text of a served run.
"""

import hashlib

import pytest

from repro.apps.airline import ReservationSystem
from repro.apps.bank import Bank
from repro.core.domain import CounterDomain
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    ReadViewOp,
    TransactionSpec,
)
from repro.net.link import LinkConfig
from repro.reads import ViewConfig, ViewEntry
from repro.serving import ServingConfig, ServingFrontend
from repro.serving.router import DepthBoard, ViewAwareRouter, make_router
from tests.test_heap_lifetime import _served_run


def build(views=ViewConfig(refresh_period=2.0), sites=("A", "B", "C"),
          total=90, **config_kwargs):
    config_kwargs.setdefault("txn_timeout", 10.0)
    config_kwargs.setdefault("link", LinkConfig(base_delay=1.0))
    system = DvPSystem(SystemConfig(sites=list(sites), seed=2,
                                    views=views, **config_kwargs))
    system.add_item("x", CounterDomain(), total=total)
    return system


def warm(system, until=6.0):
    """Run past one refresh round + delivery so every cache is hot."""
    system.run_until(until)


def run_one(system, site, spec):
    results = []
    system.submit(site, spec, results.append)
    system.run_for(system.config.txn_timeout + 200.0)
    assert results, "transaction never decided"
    return results[0]


class TestViewStoreTotals:
    def test_totals_track_the_logical_value(self):
        """The published entry is the auditor's N (Σ fragments + Σ live
        Vm): with granted Vm still on the wire, and at quiescence, where
        it is the brute-force fragment sum after commits moved value."""
        system = build()
        auditor = system.auditor
        results = []
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 50),)),
                      results.append)
        system.run_for(1.5)  # the granted Vm are on the wire
        assert not results and auditor.live_vm_total("x") > 0
        system.views.publish()
        assert system.views.latest["x"].value == 90 == \
            auditor.fragments_total("x") + auditor.live_vm_total("x")
        system.run_for(50.0)
        run_one(system, "B", TransactionSpec(ops=(IncrementOp("x", 7),)))
        system.views.publish()
        assert system.views.latest["x"].value == \
            auditor.fragments_total("x") + auditor.live_vm_total("x") == \
            sum(system.fragment_values("x").values()) == 47

    def test_views_off_means_no_service(self):
        system = build(views=None)
        assert system.views is None
        assert all(site.views is None for site in system.sites.values())


class TestCacheAdmission:
    def _cache(self, system):
        warm(system)
        return system.sites["A"].views

    def test_cold_cache_misses(self):
        system = build()
        cache = system.sites["A"].views  # before any refresh round
        assert cache.serve("x", bound=100.0) is None

    def test_warm_cache_serves_with_certificate(self):
        system = build()
        cache = self._cache(system)
        cert = cache.serve("x", bound=100.0)
        assert cert is not None
        assert cert.value == 90
        assert 0 <= cert.staleness <= 100.0
        assert cert.bound == 100.0

    def test_bound_tighter_than_staleness_misses(self):
        system = build()
        cache = self._cache(system)
        entry = cache.entries["x"]
        cache.entries["x"] = ViewEntry(item="x", value=entry.value,
                                       as_of=system.sim.now - 3.0,
                                       epoch=entry.epoch)
        assert cache.serve("x", bound=1.0) is None
        # A bound miss is the reader's problem, not the entry's: a
        # looser bound must still be servable from the same entry.
        assert "x" in cache.entries
        cert = cache.serve("x", bound=3.5)
        assert cert is not None
        assert cert.staleness == 3.0

    def test_ttl_expiry_evicts(self):
        system = build()       # resolved_ttl = 2 * refresh = 4
        cache = self._cache(system)
        system.views.stop()    # no more refreshes
        system.run_until(system.sim.now + 50.0)
        assert cache.serve("x", bound=None) is None
        assert "x" not in cache.entries

    def test_stale_epoch_evicts(self):
        system = build()
        cache = self._cache(system)
        entry = cache.entries["x"]
        cache.entries["x"] = ViewEntry(item="x", value=entry.value,
                                       as_of=entry.as_of,
                                       epoch=entry.epoch - 1)
        assert cache.serve("x", bound=None) is None
        assert "x" not in cache.entries

    def test_store_keeps_the_freshest_entry(self):
        system = build()
        cache = self._cache(system)
        newest = cache.entries["x"]
        older = ViewEntry(item="x", value=0, as_of=newest.as_of - 1.0,
                          epoch=newest.epoch)
        cache.store(older)
        assert cache.entries["x"] is newest


class TestCertificateFastPath:
    def test_served_read_is_message_free(self):
        system = build()
        warm(system)
        result = run_one(system, "A", TransactionSpec(
            ops=(ReadViewOp("x", bound=100.0),)))
        assert result.committed
        assert result.requests_sent == 0
        assert result.view_fallbacks == ()
        assert result.view_reads["x"].value == 90
        assert result.read_values["x"] == 90

    def test_served_read_ignores_a_frozen_fragment(self):
        """The poisoning regression: a concurrent fan-out read's
        freeze holds the local fragment lock, but a certificate-served
        read never touches the fragment — it must commit anyway."""
        system = build()
        warm(system)
        site = system.sites["A"]
        assert site.locks.try_acquire_all("rds:freeze", {"x"})
        result = run_one(system, "A", TransactionSpec(
            ops=(ReadViewOp("x", bound=100.0),)))
        assert result.committed
        assert result.requests_sent == 0
        # And the fast path left the foreign lock alone.
        assert site.locks.holders.get("x") == "rds:freeze"

    def test_miss_falls_back_to_fanout_and_fills_through(self):
        system = build()
        warm(system)
        cache = system.sites["A"].views
        cache.entries.clear()
        result = run_one(system, "A", TransactionSpec(
            ops=(ReadViewOp("x", bound=100.0),)))
        assert result.committed
        assert result.view_fallbacks == ("x",)
        assert result.requests_sent > 0
        assert result.read_values["x"] == 90
        # Read-through repair: the fallback warmed the cache again.
        assert "x" in cache.entries

    def test_views_disabled_escalates_to_fanout(self):
        system = build(views=None)
        result = run_one(system, "A", TransactionSpec(
            ops=(ReadViewOp("x", bound=100.0),)))
        assert result.committed
        assert result.view_fallbacks == ("x",)
        assert result.read_values["x"] == 90

    def test_mixed_spec_takes_the_classic_path(self):
        """A view read riding with a write still locks and commits
        through the ordinary protocol — certificates included."""
        system = build()
        system.add_item("y", CounterDomain(), total=9)
        warm(system)
        result = run_one(system, "A", TransactionSpec(
            ops=(ReadViewOp("x", bound=100.0), DecrementOp("y", 1))))
        assert result.committed
        assert result.view_reads["x"].value == 90
        assert sum(system.fragment_values("y").values()) == 8
        # Committed by a Transaction: the certificate's own row.
        ((*_head, checked_at, _bound, _epoch),) = result.view_rows
        assert checked_at == result.view_reads["x"].checked_at

    def test_one_bound_shares_one_row_per_entry(self):
        """Reads decided as they are certified under one bound hold
        their entry's one row, checked at their decision instant, and
        so does a multi-item read; a read under another bound object,
        even an equal one, reads back its own bound."""
        system = build()
        system.add_item("y", CounterDomain(), total=9)
        warm(system)
        results = []
        bound = 100.0
        bounds = (bound, bound, bound, 100, bound)

        def read(*ops):
            system.submit("A", TransactionSpec(ops=ops), results.append)

        for index, each in enumerate(bounds):
            system.sim.at(system.sim.now + 0.1 * index,
                          lambda each=each: read(ReadViewOp("x", each)))
        system.sim.at(system.sim.now + 0.6, lambda: read(
            ReadViewOp("x", bound), ReadViewOp("y", bound)))
        system.run_for(1.0)
        *single, both = results
        assert len(single) == len(bounds)
        for result, each in zip(single, bounds):
            cert = result.view_reads["x"]
            assert cert.bound is each
            assert cert.checked_at == result.finished_at
        assert len({id(result.view_rows) for result in single[:3]}) == 1
        assert single[3].view_rows is not single[0].view_rows
        assert both.view_rows[0] is single[4].view_rows[0]
        assert set(both.view_reads) == {"x", "y"}


class TestViewAwareRouter:
    def _router(self, system, capable=lambda site: True):
        board = DepthBoard({})
        return make_router("view-aware", system.sim,
                           list(system.sites), board,
                           directory=system.directory,
                           view_capable=capable)

    def test_pure_view_spec_stays_at_origin(self):
        system = build()
        router = self._router(system)
        spec = TransactionSpec(ops=(ReadViewOp("x", bound=5.0),))
        assert router.route("B", spec) == "B"
        assert router.kept_local == 1

    def test_incapable_origin_falls_back_to_locality(self):
        system = build()
        router = self._router(system, capable=lambda site: False)
        spec = TransactionSpec(ops=(ReadViewOp("x", bound=5.0),))
        target = router.route("B", spec)
        assert target in system.sites
        assert router.kept_local == 0

    def test_mixed_spec_falls_back_to_locality(self):
        system = build()
        router = self._router(system)
        spec = TransactionSpec(ops=(ReadViewOp("x", bound=5.0),
                                    DecrementOp("y", 1)))
        router.route("B", spec)
        assert router.kept_local == 0

    def test_registered_name(self):
        assert ViewAwareRouter.name == "view-aware"


class TestFacadeEstimates:
    def _frontend(self, system):
        return ServingFrontend(system, ServingConfig(router="view-aware"))

    def test_bank_estimate_via_frontend(self):
        system = DvPSystem(SystemConfig(
            sites=["A", "B"], seed=3, txn_timeout=10.0,
            link=LinkConfig(base_delay=1.0),
            views=ViewConfig(refresh_period=2.0)))
        frontend = self._frontend(system)
        bank = Bank(system, via=frontend)
        bank.open_account("acct", {"A": 60, "B": 40})
        frontend.start()
        warm(system)
        results = []
        bank.estimate_balance("B", "acct", bound=50.0,
                              on_done=results.append)
        system.run_for(30.0)
        assert results and results[0].committed
        assert results[0].read_values["acct"] == 100
        assert results[0].view_reads["acct"].staleness <= 50.0

    def test_airline_estimate_via_frontend(self):
        system = DvPSystem(SystemConfig(
            sites=["A", "B"], seed=3, txn_timeout=10.0,
            link=LinkConfig(base_delay=1.0),
            views=ViewConfig(refresh_period=2.0)))
        frontend = self._frontend(system)
        airline = ReservationSystem(system, via=frontend)
        airline.add_flight("fl1", 50)
        frontend.start()
        warm(system)
        seats = []
        airline.seats_estimate("A", "fl1", bound=50.0,
                               on_done=seats.append)
        system.run_for(30.0)
        assert seats and seats[0].committed
        assert seats[0].read_values["fl1"] == 50
        assert seats[0].view_reads["fl1"].staleness <= 50.0



class TestServedResultText:
    #: sha256 over ``repr(result)`` of every result of the 600-request
    #: served run, recorded before view reads shared their mappings:
    #: sharing must not move one character of what a result prints.
    DIGEST = ("9b101fac0130f955a5c4fc9395f6e0ed"
              "6c6b9c8d31814b880975e2ad4305c446")

    def test_every_result_prints_as_recorded(self):
        system, _, _ = _served_run(ops=400, views=True)
        assert len(system.results) == 600
        digest = hashlib.sha256()
        for result in system.results:
            digest.update(repr(result).encode())
            digest.update(b"\n")
        assert digest.hexdigest() == self.DIGEST


class TestRefusedNumbers:
    """A NaN compares false both ways, so "staleness > bound" or
    "age > ttl" against one is never true: each number is refused
    where it enters."""

    @pytest.mark.parametrize("value", [float("nan"), -1.0, float("inf")],
                             ids=["nan", "-1", "inf"])
    @pytest.mark.parametrize("name", ["refresh_period", "ttl"])
    def test_view_config(self, name, value):
        with pytest.raises(ValueError, match=name):
            ViewConfig(**{name: value})

    @pytest.mark.parametrize("bound", [float("nan"), -1.0],
                             ids=["nan", "-1"])
    def test_view_bound(self, bound):
        with pytest.raises(ValueError, match="bound"):
            TransactionSpec(ops=(ReadViewOp("x", bound=bound),))

    def test_boundary_values_accepted(self):
        ViewConfig(refresh_period=0.5, ttl=0.5)
        TransactionSpec(ops=(ReadViewOp("x", bound=0.0),
                             ReadViewOp("y", bound=float("inf"))))
