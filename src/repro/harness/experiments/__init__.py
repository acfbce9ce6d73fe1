"""One module per experiment — its cells, its table and its claims;
see DESIGN.md §4 for the index.

Modules are imported lazily so that running one experiment never pays
for (or breaks on) the others.
"""

from __future__ import annotations

import importlib

_MODULES = {
    "E1": "e01_nonblocking",
    "E2": "e02_availability",
    "E3": "e03_vm_delivery",
    "E4": "e04_serializability",
    "E5": "e05_recovery",
    "E6": "e06_hotspot",
    "E7": "e07_read_cost",
    "E8": "e08_policies",
    "E9": "e09_timeouts",
    "E10": "e10_cc_schemes",
    "E11": "e11_hybrid",
    "E12": "e12_rebalance",
    "E13": "e13_reshard",
    "E14": "e14_serving",
    "E15": "e15_commit",
    "E16": "e16_reads",
}


def get(experiment_id: str):
    """Import and return the module for an experiment id ("E1".."E16")."""
    name = _MODULES[experiment_id.upper()]
    return importlib.import_module(f"repro.harness.experiments.{name}")


def all_ids() -> list[str]:
    return list(_MODULES)
