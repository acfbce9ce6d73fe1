"""Airline reservations straight through a network partition.

The scenario the paper's introduction motivates: ticket counters at
four airports keep selling seats while the network between coasts is
down, with zero failure-detection machinery — sites only ever see
their own timeouts. Customers go through the reservation façade:
they buy and return seats, change flights (the paper's A -> B case)
and ask how many seats are left. After the partition heals, the books
balance to the seat.

Run:  python examples/airline_partition.py
"""

from repro.apps import ReservationSystem
from repro.core import DvPSystem, SystemConfig
from repro.metrics.collector import Collector
from repro.net.link import LinkConfig
from repro.workloads.apps import AirlineAppTraffic, AppWorkloadDriver
from repro.workloads.base import OpMix, WorkloadConfig

SITES = ["JFK", "ORD", "DEN", "SFO"]
PARTITION = ([["JFK", "ORD"], ["DEN", "SFO"]], 100.0, 300.0)
FLIGHTS = {"UA100": 72, "UA200": 48}


def main() -> None:
    print("== Selling seats through a coast-to-coast partition ==")
    system = DvPSystem(SystemConfig(
        sites=list(SITES), seed=7, txn_timeout=15.0,
        link=LinkConfig(base_delay=2.0, jitter=1.0,
                        loss_probability=0.05)))
    airline = ReservationSystem(system)
    for flight, seats in FLIGHTS.items():
        airline.add_flight(flight, seats)
        print(f"  {flight}: {seats} seats split across "
              f"{', '.join(SITES)}")

    # Seat counts: an exact count drains every airport's quota; an
    # estimate may answer from a view (none here, so it counts too).
    workload_config = WorkloadConfig(
        arrival_rate=0.06, duration=400.0,
        mix=OpMix(reserve=0.55, cancel=0.25, transfer=0.15, read=0.03,
                  read_view=0.02))
    source = AirlineAppTraffic(airline, list(FLIGHTS), workload_config,
                               view_bound=20.0)
    collector = Collector()
    AppWorkloadDriver(system.sim, SITES, source, workload_config,
                      collector).install()

    groups, split_at, heal_at = PARTITION
    system.sim.at(split_at, lambda: system.network.partition(groups))
    system.sim.at(heal_at, system.network.heal)
    print(f"  partition {groups[0]} | {groups[1]} "
          f"from t={split_at} to t={heal_at}")

    system.run_until(400.0)
    system.run_for(120.0)  # settle

    window = collector.in_window(split_at, heal_at)
    print(f"\n  during the partition: {len(window.results)} transactions "
          f"decided, {len(window.committed)} committed "
          f"({100 * window.commit_rate():.1f}%)")
    per_site: dict[str, int] = {}
    for result in window.committed:
        per_site[result.site] = per_site.get(result.site, 0) + 1
    for site in SITES:
        print(f"    {site}: {per_site.get(site, 0)} commits "
              f"(group {'A' if site in groups[0] else 'B'})")

    print("\n  after healing, each airport's local quota (free to read):")
    for flight in FLIGHTS:
        quotas = ", ".join(f"{site} {airline.local_quota(site, flight)}"
                           for site in SITES)
        print(f"    {flight}: {quotas}")

    print("\n  after healing, the books:")
    for flight in FLIGHTS:
        report = system.auditor.check(flight)
        status = "balanced" if report.ok else "VIOLATION"
        print(f"    {flight}: fragments {report.per_site} + in-flight "
              f"{report.live_vm_total} = {report.observed} "
              f"(expected {report.expected}) -> {status}")
    system.auditor.assert_ok()
    summary = collector.latency_summary()
    print(f"\n  commit latency: p50={summary.p50:.1f} "
          f"p95={summary.p95:.1f} max={summary.maximum:.1f} "
          f"(timeout bound 15.0)")


if __name__ == "__main__":
    main()
