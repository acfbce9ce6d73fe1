"""An aggregate-field hot spot, three ways (paper Section 8).

One quantity-on-hand counter takes every update in the company. The
naive design serializes everything behind one exclusive lock; O'Neil's
escrow method (the paper's cited comparator) overlaps transactions but
stays centralized; DvP spreads the counter across the warehouses so
each sale is a local transaction.

Run:  python examples/inventory_hotspot.py
"""

from repro.baselines.common import BaselineConfig
from repro.baselines.escrow import CentralCounterSystem
from repro.core import CounterDomain, DvPSystem, SystemConfig
from repro.metrics.collector import Collector
from repro.net.link import LinkConfig
from repro.workloads.base import OpMix, WorkloadConfig, WorkloadDriver
from repro.workloads.inventory import InventoryWorkload

WAREHOUSES = [f"wh{index}" for index in range(6)]
WORK = 2.0          # time each transaction computes while holding its claim
RATE = 0.07         # arrivals per warehouse per time unit
DURATION = 500.0


def drive(system, sites) -> Collector:
    config = WorkloadConfig(arrival_rate=RATE, duration=DURATION,
                            mix=OpMix(reserve=0.75, cancel=0.25),
                            amount_low=1, amount_high=2, work=WORK)
    source = InventoryWorkload(["sku-hot"], config)
    collector = Collector()
    WorkloadDriver(system.sim, system, sites, source, config,
                   collector).install()
    system.run_for(DURATION + 120.0)
    return collector


def main() -> None:
    print(f"== One hot counter, {len(WAREHOUSES)} warehouses, "
          f"work={WORK}/txn ==\n")
    rows = []

    for mode in ("lock", "escrow"):
        system = CentralCounterSystem(
            list(WAREHOUSES), central=WAREHOUSES[0], mode=mode, seed=3,
            link=LinkConfig(base_delay=2.0),
            config=BaselineConfig(txn_timeout=30.0))
        system.add_item("sku-hot", 1_000_000)
        collector = drive(system, list(WAREHOUSES))
        system.close()  # whoever builds a system closes it
        rows.append((f"central {mode}", collector))

    system = DvPSystem(SystemConfig(
        sites=list(WAREHOUSES), seed=3, txn_timeout=30.0,
        link=LinkConfig(base_delay=2.0)))
    system.add_item("sku-hot", CounterDomain(), total=1_000_000)
    collector = drive(system, list(WAREHOUSES))
    system.auditor.assert_ok()
    system.close()
    rows.append(("DvP fragments", collector))

    print(f"  {'design':<16} {'commits':>8} {'commit%':>8} "
          f"{'throughput':>11} {'p50':>7} {'p95':>7}")
    for name, collector in rows:
        summary = collector.latency_summary()
        print(f"  {name:<16} {len(collector.committed):>8} "
              f"{100 * collector.commit_rate():>7.1f}% "
              f"{collector.throughput(DURATION):>11.3f} "
              f"{summary.p50:>7.1f} {summary.p95:>7.1f}")
    print("\n  the exclusive lock serializes the company; escrow overlaps "
          "but pays two central round trips; DvP sells out of the local "
          "fragment at local latency.")


if __name__ == "__main__":
    main()
