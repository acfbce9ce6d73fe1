"""Data-value partition directory: pluggable placement + epochs.

The seed system placed every item at every site ("all sites hold
fragments of all items" — the paper's simplest reading of Π). This
module makes placement a first-class, *dynamic* mapping:

* a :class:`Partitioner` decides which sites own fragments of an item
  given the current site list (hash, range, consistent-hash, or the
  seed-compatible "all" placement);
* a :class:`Directory` wraps a partitioner with a *versioned epoch*
  that bumps on every topology change (site join/leave, replica-count
  reshard). Every site holds its system's directory and resolves
  owners through it; a transaction records the epoch it started
  under, and the migration controller fences on that.

Placement is a *planning* overlay: the conservation invariant
N = Σ fragments + Σ live Vm never depends on it. A site outside an
item's owner set simply holds the zero fragment (a combine identity),
so directory changes are conservation-neutral by construction — which
is exactly what lets the migration controller move value with ordinary
transfer-mode Vm and get auditing for free (docs/PARTITIONING.md).

All hashing goes through :func:`stable_hash` (BLAKE2b over the key
bytes), never Python's ``hash``: placement must be identical across
``PYTHONHASHSEED`` values and process boundaries (the sharded kernel's
forked workers re-derive it independently).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Any, ClassVar


def stable_hash(key: str, salt: str = "") -> int:
    """Deterministic 64-bit hash, independent of PYTHONHASHSEED."""
    digest = hashlib.blake2b(f"{salt}\x1f{key}".encode(),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big")


class Partitioner:
    """Maps an item onto an ordered tuple of owner sites."""

    name: ClassVar[str] = ""

    def owners(self, item: str, sites: tuple[str, ...],
               replicas: int) -> tuple[str, ...]:
        raise NotImplementedError


class AllPartitioner(Partitioner):
    """Every site owns every item — the seed behaviour, byte-for-byte.

    ``replicas`` is ignored: the owner set is always the full site
    list, in directory order, so routing through this partitioner is
    indistinguishable from the static ``site.peers()`` topology.
    """

    name = "all"

    def owners(self, item: str, sites: tuple[str, ...],
               replicas: int) -> tuple[str, ...]:
        return sites


class HashPartitioner(Partitioner):
    """k consecutive sites starting at ``stable_hash(item) mod N``."""

    name = "hash"

    def owners(self, item: str, sites: tuple[str, ...],
               replicas: int) -> tuple[str, ...]:
        n = len(sites)
        start = stable_hash(item) % n
        return tuple(sites[(start + offset) % n]
                     for offset in range(min(replicas, n)))


class RangePartitioner(Partitioner):
    """Order-preserving byte-fraction ranges over the site list.

    The item name's leading bytes are read as a fraction in [0, 1)
    (``Σ b[i] / 256^(i+1)``) and mapped onto N equal ranges, so
    lexicographically adjacent items land on adjacent sites — the
    classic range-partition locality property. No hashing at all, so
    seed-independence is trivial.
    """

    name = "range"

    @staticmethod
    def _fraction(item: str) -> float:
        x = 0.0
        for index, byte in enumerate(item.encode()[:6]):
            x += byte / (256 ** (index + 1))
        return x

    def owners(self, item: str, sites: tuple[str, ...],
               replicas: int) -> tuple[str, ...]:
        n = len(sites)
        start = min(int(self._fraction(item) * n), n - 1)
        return tuple(sites[(start + offset) % n]
                     for offset in range(min(replicas, n)))


class ConsistentHashPartitioner(Partitioner):
    """Virtual-node hash ring with the minimal-movement property.

    Each site contributes ``vnodes`` points at
    ``stable_hash(f"{site}#{v}")``; an item's owners are the next k
    *distinct* sites clockwise from ``stable_hash(item)``. A joining
    site only claims the ring arcs its own vnodes cut, so an N→N+1
    join moves ~1/(N+1) of the items and a leave moves only the
    leaver's items — property-tested in
    ``tests/test_partition_properties.py``.
    """

    name = "consistent"

    def __init__(self, vnodes: int = 64) -> None:
        self.vnodes = vnodes
        self._ring_for: tuple[str, ...] | None = None
        self._points: list[int] = []
        self._point_site: list[str] = []

    def _ring(self, sites: tuple[str, ...]
              ) -> tuple[list[int], list[str]]:
        if sites != self._ring_for:
            pairs = sorted(
                (stable_hash(f"{site}#{vnode}"), site)
                for site in sites for vnode in range(self.vnodes))
            self._ring_for = sites
            self._points = [point for point, _site in pairs]
            self._point_site = [site for _point, site in pairs]
        return self._points, self._point_site

    def owners(self, item: str, sites: tuple[str, ...],
               replicas: int) -> tuple[str, ...]:
        points, point_site = self._ring(sites)
        want = min(replicas, len(sites))
        index = bisect.bisect_right(points, stable_hash(item))
        picked: list[str] = []
        for offset in range(len(points)):
            site = point_site[(index + offset) % len(points)]
            if site not in picked:
                picked.append(site)
                if len(picked) == want:
                    break
        return tuple(picked)


PARTITIONERS: dict[str, type[Partitioner]] = {
    cls.name: cls for cls in (AllPartitioner, HashPartitioner,
                              RangePartitioner,
                              ConsistentHashPartitioner)
}


def make_partitioner(name: str, **kwargs: Any) -> Partitioner:
    try:
        cls = PARTITIONERS[name]
    except KeyError:
        raise ValueError(f"unknown partitioner {name!r}; "
                         f"choose from {sorted(PARTITIONERS)}") from None
    return cls(**kwargs)


class Directory:
    """Versioned item → owner-sites mapping.

    Every topology change (:meth:`add_site`, :meth:`remove_site`,
    :meth:`set_replicas`) bumps :attr:`epoch`. Transactions and view
    entries carry the epoch they were made under; a mismatch means
    their placement may be stale.
    """

    def __init__(self, partitioner: Partitioner,
                 sites: list[str] | tuple[str, ...],
                 replicas: int | None = None, epoch: int = 0) -> None:
        if len(set(sites)) != len(sites):
            raise ValueError("directory site names must be unique")
        if not sites:
            raise ValueError("directory needs at least one site")
        self.partitioner = partitioner
        self.sites: tuple[str, ...] = tuple(sites)
        self.replicas = replicas
        self.epoch = epoch

    def _k(self) -> int:
        if self.replicas is None:
            return len(self.sites)
        return max(1, min(self.replicas, len(self.sites)))

    def owners(self, item: str) -> tuple[str, ...]:
        return self.partitioner.owners(item, self.sites, self._k())

    # -- topology changes (each bumps the epoch) --------------------------

    def add_site(self, name: str) -> int:
        if name in self.sites:
            raise ValueError(f"site {name!r} already in directory")
        self.sites = self.sites + (name,)
        self.epoch += 1
        return self.epoch

    def remove_site(self, name: str) -> int:
        if name not in self.sites:
            raise KeyError(f"site {name!r} not in directory")
        if len(self.sites) == 1:
            raise ValueError("cannot remove the last directory site")
        self.sites = tuple(site for site in self.sites if site != name)
        self.epoch += 1
        return self.epoch

    def set_replicas(self, replicas: int | None) -> int:
        if replicas is not None and replicas < 1:
            raise ValueError("replicas must be >= 1 (or None for all)")
        self.replicas = replicas
        self.epoch += 1
        return self.epoch


__all__ = [
    "stable_hash", "Partitioner", "AllPartitioner", "HashPartitioner",
    "RangePartitioner", "ConsistentHashPartitioner", "PARTITIONERS",
    "make_partitioner", "Directory",
]
