"""Workload generators for the paper's motivating applications."""

from repro.workloads.airline import AirlineWorkload
from repro.workloads.apps import (
    AirlineAppTraffic,
    AppWorkloadDriver,
    BankAppTraffic,
)
from repro.workloads.base import OpMix, WorkloadConfig, WorkloadDriver
from repro.workloads.inventory import InventoryWorkload

__all__ = [
    "AirlineAppTraffic",
    "AirlineWorkload",
    "AppWorkloadDriver",
    "BankAppTraffic",
    "InventoryWorkload",
    "OpMix",
    "WorkloadConfig",
    "WorkloadDriver",
]
