"""Tests for workload generators, the driver, and metrics."""

import math
import random

import pytest

from repro.baselines.twopc import TwoPCSystem
from repro.core.domain import CounterDomain
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    Outcome,
    ReadFullOp,
    TransactionSpec,
    TransferOp,
    TxnResult,
    UnsupportedSpec,
)
from repro.core.site import SiteDown
from repro.metrics.collector import Collector, CollectorInconsistency
from repro.metrics.stats import percentile, summarize
from repro.metrics.tables import Table
from repro.workloads.airline import AirlineWorkload
from repro.workloads.base import (
    _ZIPF_CUM_CACHE,
    OpMix,
    WorkloadConfig,
    WorkloadDriver,
    zipf_choice,
)
from repro.workloads.inventory import InventoryWorkload
from tests.arrival_reference import RecordingTarget, reference_arrivals


class TestOpMix:
    def test_normalized_sums_to_one(self):
        mix = OpMix(reserve=2.0, cancel=1.0, transfer=1.0, read=0.0)
        weights = dict(mix.normalized())
        assert math.isclose(sum(weights.values()), 1.0)
        assert weights["reserve"] == 0.5

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            OpMix(reserve=0, cancel=0, transfer=0, read=0).normalized()


class TestWorkloadConfig:
    @pytest.mark.parametrize("kwargs", [
        {"arrival_rate": 0.0},
        {"duration": 0.0},
        {"amount_low": 0},
        {"amount_low": 5, "amount_high": 2},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            WorkloadConfig(**kwargs)


class TestZipf:
    def test_zero_skew_is_uniform_choice(self):
        rng = random.Random(1)
        items = ["a", "b", "c"]
        picks = {zipf_choice(rng, items, 0.0) for _ in range(100)}
        assert picks == set(items)

    def test_high_skew_prefers_head(self):
        rng = random.Random(1)
        items = [f"i{k}" for k in range(10)]
        picks = [zipf_choice(rng, items, 2.0) for _ in range(1000)]
        assert picks.count("i0") > picks.count("i9") * 3

    def test_single_item(self):
        assert zipf_choice(random.Random(1), ["only"], 5.0) == "only"


class TestGenerators:
    @pytest.mark.parametrize("workload_cls,items", [
        (AirlineWorkload, ["f1", "f2"]),
        (InventoryWorkload, ["sku1", "sku2"]),
    ])
    def test_specs_are_well_formed(self, workload_cls, items):
        source = workload_cls(items)
        rng = random.Random(3)
        for _ in range(200):
            spec = source.make_spec(rng, "site")
            assert isinstance(spec, TransactionSpec)
            assert spec.ops
            assert spec.items() <= set(items)

    def test_empty_items_rejected(self):
        for workload_cls in (AirlineWorkload, InventoryWorkload):
            with pytest.raises(ValueError):
                workload_cls([])

    def test_airline_transfer_targets_distinct_flights(self):
        source = AirlineWorkload(["f1", "f2"], WorkloadConfig(
            mix=OpMix(reserve=0, cancel=0, transfer=1.0, read=0)))
        rng = random.Random(3)
        for _ in range(50):
            spec = source.make_spec(rng, "site")
            op = spec.ops[0]
            assert isinstance(op, TransferOp)
            assert op.src_item != op.dst_item

    def test_inventory_read_label(self):
        source = InventoryWorkload(["sku"], WorkloadConfig(
            mix=OpMix(reserve=0, cancel=0, transfer=0, read=1.0)))
        spec = source.make_spec(random.Random(3), "site")
        assert isinstance(spec.ops[0], ReadFullOp)
        assert spec.label == "stock-check"


class TestDriver:
    def build(self):
        system = DvPSystem(SystemConfig(sites=["A", "B"]))
        system.add_item("f", CounterDomain(), total=1000)
        return system

    def test_install_schedules_arrivals(self):
        system = self.build()
        config = WorkloadConfig(arrival_rate=0.5, duration=100.0)
        driver = WorkloadDriver(system.sim, system, ["A", "B"],
                                AirlineWorkload(["f"], config), config)
        driver.install()
        system.run_for(150.0)
        reference = reference_arrivals(0, ["A", "B"], 0.5, 100.0)
        assert driver.collector.submitted == \
            sum(map(len, reference.values())) > 0
        assert len(driver.collector.results) == driver.collector.submitted

    def test_deterministic_across_builds(self):
        def run(seed):
            system = DvPSystem(SystemConfig(sites=["A", "B"], seed=seed))
            system.add_item("f", CounterDomain(), total=1000)
            config = WorkloadConfig(arrival_rate=0.3, duration=60.0)
            driver = WorkloadDriver(system.sim, system, ["A", "B"],
                                    AirlineWorkload(["f"], config), config)
            driver.install()
            system.run_for(100.0)
            return [(r.label, r.site, r.submitted_at)
                    for r in driver.collector.results]

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_compared_systems_are_offered_the_identical_stream(self):
        """What E2 / E6 / E10 rest on: on one seed, DvP and a baseline
        are offered the same (site, instant, spec) sequence — the
        streams are named per site and nothing a system does draws
        from them."""
        sites = ["A", "B", "C"]
        dvp = DvPSystem(SystemConfig(sites=sites, seed=5))
        twopc = TwoPCSystem(sites, seed=5)
        dvp.add_item("f", CounterDomain(), total=30)
        dvp.add_item("g", CounterDomain(), total=30)
        twopc.add_item("f", "A", 30)
        twopc.add_item("g", "B", 30)
        offered = []
        for system in (dvp, twopc):
            config = WorkloadConfig(
                arrival_rate=0.3, duration=60.0, amount_high=6,
                mix=OpMix(reserve=0.5, cancel=0.2, transfer=0.2, read=0.1))
            target = RecordingTarget(system)
            driver = WorkloadDriver(system.sim, target, sites,
                                    AirlineWorkload(["f", "g"], config),
                                    config)
            driver.install()
            system.run_for(120.0)
            assert {result.committed
                    for result in driver.collector.results} == {True, False}
            offered.append(sorted(target.offered,
                                  key=lambda entry: entry[:2]))
        assert offered[0] == offered[1] != []

    def test_dead_site_submissions_counted_as_lost(self):
        system = self.build()
        system.crash("A")
        config = WorkloadConfig(arrival_rate=0.5, duration=50.0)
        driver = WorkloadDriver(system.sim, system, ["A"],
                                AirlineWorkload(["f"], config), config)
        driver.install()
        system.run_for(100.0)
        assert driver.collector.lost == driver.collector.submitted


def make_result(latency, committed=True, reason="ok", submitted=0.0,
                site="A"):
    return TxnResult(
        txn_id="t", label="", site=site,
        outcome=Outcome.COMMITTED if committed else Outcome.ABORTED,
        reason=reason, submitted_at=submitted,
        finished_at=submitted + latency)


class TestStats:
    def test_percentile_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == 2.5

    def test_percentile_empty_is_nan(self):
        assert math.isnan(percentile([], 50))

    def test_percentile_range_checked(self):
        with pytest.raises(ValueError):
            percentile([1.0], 150)

    def test_summarize(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary.count == 3
        assert summary.mean == 2.0
        assert summary.maximum == 3.0

    def test_summarize_empty(self):
        empty = summarize([])
        assert empty.count == 0
        assert all(math.isnan(value) for value in (
            empty.mean, empty.p50, empty.p95, empty.p99, empty.maximum))


class TestCollector:
    def test_views(self):
        collector = Collector()
        collector.on_result(make_result(1.0))
        collector.on_result(make_result(2.0, committed=False,
                                        reason="timeout"))
        assert len(collector.committed) == 1
        assert len(collector.aborted) == 1
        assert collector.commit_rate() == 0.5
        assert collector.abort_reasons() == {"timeout": 1}

    def test_max_latency_covers_aborts(self):
        collector = Collector()
        collector.on_result(make_result(1.0))
        collector.on_result(make_result(9.0, committed=False))
        assert collector.max_latency() == 9.0

    def test_window_filters_by_submission(self):
        collector = Collector()
        collector.on_result(make_result(1.0, submitted=5.0))
        collector.on_result(make_result(1.0, submitted=15.0))
        window = collector.in_window(0.0, 10.0)
        assert len(window.results) == 1

    def test_window_counts_lost_submissions(self):
        """Regression: a windowed view must see submissions that never
        reported back. Pre-fix, in_window set submitted from the result
        count, so window.lost was identically 0 even when a crash
        swallowed transactions submitted inside the window."""
        collector = Collector()
        collector.on_submit(at=2.0)   # vanished in a crash — no result
        collector.on_submit(at=4.0)
        collector.on_result(make_result(1.0, submitted=4.0))
        collector.on_submit(at=12.0)  # outside the window
        collector.on_result(make_result(1.0, submitted=12.0))
        window = collector.in_window(0.0, 10.0)
        assert window.submitted == 2
        assert len(window.results) == 1
        assert window.lost == 1

    def test_window_without_timestamps_counts_no_submissions(self):
        """A submission recorded without a time is in no window: the
        windowed ``submitted`` is never guessed from the results."""
        collector = Collector()
        collector.on_submit()  # no timestamp recorded
        collector.on_result(make_result(1.0, submitted=5.0))
        window = collector.in_window(0.0, 10.0)
        assert len(window.results) == 1
        assert window.submitted == 0

    def test_throughput(self):
        collector = Collector()
        for _ in range(10):
            collector.on_result(make_result(1.0))
        assert collector.throughput(5.0) == 2.0
        assert collector.throughput(0.0) == 0.0


class TestTable:
    def test_render_contains_everything(self):
        table = Table("Title", ["a", "b"])
        table.add_row(1, "x")
        table.add_note("hello")
        text = table.render()
        assert "Title" in text
        assert "hello" in text
        assert "x" in text

    def test_row_width_checked(self):
        table = Table("T", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_column_extraction(self):
        table = Table("T", ["a", "b"])
        table.add_row(1, "x")
        table.add_row(2, "y")
        assert table.column("a") == [1, 2]

    def test_float_formatting(self):
        table = Table("T", ["v"])
        table.add_row(1.234567)
        table.add_row(float("nan"))
        table.add_row(3.0)
        rendered = table.render()
        assert "1.23" in rendered
        assert "-" in rendered
        assert " 3" in rendered or "3" in rendered

    def test_infinite_cells_render(self):
        """Regression: float('inf') cells crashed render() with
        OverflowError (int(inf) inside _format_cell)."""
        table = Table("T", ["v"])
        table.add_row(float("inf"))
        table.add_row(float("-inf"))
        rendered = table.render()
        assert "inf" in rendered
        assert "-inf" in rendered


class _ExplodingTarget:
    """Submit target with a programming error inside submit()."""

    def submit(self, site, spec, on_done=None):
        raise RuntimeError("boom")


class _RefusingTarget:
    """Submit target that refuses every spec with a typed refusal."""

    def __init__(self, exc):
        self.exc = exc
        self.calls = 0

    def submit(self, site, spec, on_done=None):
        self.calls += 1
        raise self.exc


class TestDriverErrorNarrowing:
    """Regression: the arrival path used a bare ``except Exception``,
    so a broken submit target silently dropped every transaction and
    runs reported 100% "lost" instead of failing."""

    def build(self, target):
        system = DvPSystem(SystemConfig(sites=["A"]))
        config = WorkloadConfig(arrival_rate=1.0, duration=20.0)
        driver = WorkloadDriver(system.sim, target, ["A"],
                                AirlineWorkload(["f"], config), config)
        return system, driver

    def test_programming_errors_propagate(self):
        system, driver = self.build(_ExplodingTarget())
        driver.install()
        with pytest.raises(RuntimeError, match="boom"):
            system.sim.run_until(30.0)

    @pytest.mark.parametrize("exc", [SiteDown("A is down"),
                                     UnsupportedSpec("shape refused")])
    def test_typed_refusals_counted_as_lost(self, exc):
        target = _RefusingTarget(exc)
        system, driver = self.build(target)
        driver.install()
        system.sim.run_until(30.0)
        assert target.calls > 0
        assert driver.collector.submitted == target.calls
        assert driver.collector.lost == driver.collector.submitted


class TestZipfCumulativeCache:
    """Regression: ``zipf_choice`` rebuilt the weight vector on every
    draw. The cached cumulative path must stay bit-identical to the
    original ``rng.choices(items, weights=...)`` draws."""

    def test_bit_identical_to_uncached_choices(self):
        items = [f"item{rank}" for rank in range(50)]
        for seed in range(8):
            for skew in (0.4, 0.9, 1.3):
                weights = [1.0 / ((rank + 1) ** skew)
                           for rank in range(len(items))]
                cached = random.Random(seed)
                original = random.Random(seed)
                got = [zipf_choice(cached, items, skew)
                       for _ in range(300)]
                want = [original.choices(items, weights=weights)[0]
                        for _ in range(300)]
                assert got == want

    def test_cache_entry_reused_across_item_lists(self):
        _ZIPF_CUM_CACHE.clear()
        rng = random.Random(0)
        zipf_choice(rng, ["a", "b", "c"], 0.5)
        entry = _ZIPF_CUM_CACHE[(3, 0.5)]
        zipf_choice(rng, ["x", "y", "z"], 0.5)
        assert _ZIPF_CUM_CACHE[(3, 0.5)] is entry
        assert len(_ZIPF_CUM_CACHE) == 1


class TestSummarizeSortsOnce:
    """Regression: ``summarize`` called ``percentile`` three times and
    each call re-sorted the whole sample."""

    def test_never_calls_resorting_percentile(self, monkeypatch):
        import repro.metrics.stats as stats

        def resort_detected(values, q):
            raise AssertionError("summarize re-sorted via percentile()")

        monkeypatch.setattr(stats, "percentile", resort_detected)
        values = [random.Random(7).gauss(10, 3) for _ in range(5000)]
        summary = stats.summarize(values)
        assert summary.p50 == percentile(values, 50)
        assert summary.p95 == percentile(values, 95)
        assert summary.p99 == percentile(values, 99)
        assert summary.maximum == max(values)

    def test_micro_gate_at_one_million_samples(self):
        from time import perf_counter

        rng = random.Random(11)
        values = [rng.random() for _ in range(1_000_000)]
        begin = perf_counter()
        summarize(values)
        once = perf_counter() - begin
        begin = perf_counter()
        for q in (50, 95, 99):
            percentile(values, q)
        thrice = perf_counter() - begin
        assert once < thrice, (
            f"summarize ({once:.3f}s) should beat three sorting "
            f"percentile calls ({thrice:.3f}s)")


class TestCollectorDoubleReport:
    """Regression: ``lost`` clamped with ``max(0, ...)``, so a result
    reported twice silently cancelled out a genuinely lost one."""

    def test_duplicate_result_raises(self):
        collector = Collector()
        collector.on_submit(at=0.0)
        result = make_result(1.0)
        collector.on_result(result)
        collector.on_result(result)
        with pytest.raises(CollectorInconsistency):
            collector.lost

    def test_sink_only_collector_reports_zero_lost(self):
        collector = Collector()
        collector.on_result(make_result(1.0))
        assert collector.lost == 0

    def test_shed_counts_toward_accounted_outcomes(self):
        collector = Collector()
        for _ in range(3):
            collector.on_submit(at=0.0)
        collector.on_result(make_result(1.0))
        collector.on_shed(at=0.5)
        assert collector.lost == 1
