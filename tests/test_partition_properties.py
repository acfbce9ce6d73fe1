"""Property-based tests (hypothesis) for the partition directory.

These pin the placement contracts docs/PARTITIONING.md relies on:

* consistent hashing moves minimally — a join only ever pulls items
  *toward* the joiner, a leave only moves the leaver's items, and the
  moved fraction on a join is ~1/(N+1), not a reshuffle;
* placement is a pure function of (item, site list, replicas) — no
  hidden state, no dependence on ``PYTHONHASHSEED``, identical across
  process boundaries (checked in real subprocesses with different
  hash seeds).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from repro.core.partition import (
    ConsistentHashPartitioner,
    HashPartitioner,
    RangePartitioner,
    make_partitioner,
    stable_hash,
)

SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src")

site_names = st.lists(
    st.text(alphabet="ABCDEFGHijklmn0123456789", min_size=1, max_size=6),
    min_size=2, max_size=8, unique=True)

item_names = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789:_",
            min_size=1, max_size=12),
    min_size=1, max_size=30, unique=True)

replica_counts = st.integers(min_value=1, max_value=3)


class TestConsistentHashMinimalMovement:
    @given(site_names, item_names, replica_counts)
    def test_join_only_pulls_items_toward_the_joiner(self, sites, items,
                                                     replicas):
        """Every ownership change on a join involves the joiner: the
        only site that may appear in a new owner set is the joiner, and
        it displaces at most one old owner per item."""
        partitioner = ConsistentHashPartitioner()
        joiner = "JOINER"
        before = tuple(sites)
        after = before + (joiner,)
        for item in items:
            old = set(partitioner.owners(item, before, replicas))
            new = set(partitioner.owners(item, after, replicas))
            assert new - old <= {joiner}
            assert len(old - new) <= 1
            if old != new:
                assert joiner in new

    @given(site_names, item_names, replica_counts)
    def test_leave_moves_only_the_leavers_items(self, sites, items,
                                                replicas):
        """Removing a site leaves every item it did not own untouched:
        the ring points of the survivors never move."""
        partitioner = ConsistentHashPartitioner()
        leaver = sites[0]
        before = tuple(sites)
        after = tuple(site for site in sites if site != leaver)
        for item in items:
            old = partitioner.owners(item, before, replicas)
            new = partitioner.owners(item, after, replicas)
            if leaver not in old:
                assert new == old

    def test_join_moves_about_one_nth_of_the_items(self):
        """The acceptance bound: an N -> N+1 join remaps ~1/(N+1) of
        single-owner items (allow 3x slack for hash variance)."""
        partitioner = ConsistentHashPartitioner()
        sites = tuple(f"S{index}" for index in range(16))
        items = [f"item{index}" for index in range(200)]
        before = {item: partitioner.owners(item, sites, 1)
                  for item in items}
        joined = sites + ("E0",)
        moved = sum(1 for item in items
                    if partitioner.owners(item, joined, 1) != before[item])
        assert 0 < moved <= 3 * len(items) / (len(sites) + 1)


class TestPlacementIsPure:
    @given(site_names, item_names, replica_counts,
           st.sampled_from(["hash", "range", "consistent"]))
    def test_fresh_instances_agree(self, sites, items, replicas, name):
        """Placement depends only on the inputs — two independently
        constructed partitioners of the same kind always agree."""
        first = make_partitioner(name)
        second = make_partitioner(name)
        for item in items:
            assert (first.owners(item, tuple(sites), replicas)
                    == second.owners(item, tuple(sites), replicas))

    @given(st.text(min_size=0, max_size=30))
    def test_stable_hash_is_blake2_not_builtin_hash(self, key):
        import hashlib
        expected = int.from_bytes(
            hashlib.blake2b(f"\x1f{key}".encode(), digest_size=8).digest(),
            "big")
        assert stable_hash(key) == expected

    @pytest.mark.parametrize("name", ["hash", "range", "consistent"])
    def test_owners_identical_across_hash_seeds(self, name):
        """The check PYTHONHASHSEED randomization would break if any
        placement path used builtin ``hash``: compute the same owner
        map in subprocesses pinned to two different hash seeds."""
        script = (
            "import json, sys\n"
            "from repro.core.partition import make_partitioner\n"
            "sites = tuple(f'S{i}' for i in range(7))\n"
            "p = make_partitioner(sys.argv[1])\n"
            "print(json.dumps({f'item{i}': p.owners(f'item{i}', sites, 2)"
            " for i in range(40)}))\n")
        outputs = []
        for hash_seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=SRC_DIR)
            proc = subprocess.run(
                [sys.executable, "-c", script, name],
                capture_output=True, text=True, env=env, check=True)
            outputs.append(json.loads(proc.stdout))
        assert outputs[0] == outputs[1]
        assert outputs[0]  # the map is non-trivial


class TestOwnerSetShape:
    @given(site_names, item_names, replica_counts,
           st.sampled_from(["hash", "range", "consistent"]))
    def test_owners_are_distinct_sites_with_clamped_arity(
            self, sites, items, replicas, name):
        partitioner = make_partitioner(name)
        for item in items:
            owners = partitioner.owners(item, tuple(sites), replicas)
            assert len(owners) == min(replicas, len(sites))
            assert len(set(owners)) == len(owners)
            assert set(owners) <= set(sites)

    @given(site_names, item_names)
    def test_all_partitioner_is_the_seed_topology(self, sites, items):
        partitioner = make_partitioner("all")
        for item in items:
            assert partitioner.owners(item, tuple(sites), 1) \
                == tuple(sites)
