"""Partitionable operators (Section 4.1).

An operator ``f`` is *partitionable* for (Γ, Π) when an effective
application to one fragment of ``Π⁻¹(d)`` changes the logical value the
same way applying it to ``d`` directly would: ``f(Π(b)) = Π(b')``.
Applications can be *ineffective* — "for reasons particular to the
argument, the result is equivalent to a no-operation" — the canonical
example being *decrement by m if the result does not fall below 0*.

Operators report effectiveness explicitly so transaction code can
distinguish "applied" from "no-op" (an ineffective bounded decrement on
an insufficient fragment is what triggers redistribution requests).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Generic, TypeVar

from repro.core.domain import Domain

V = TypeVar("V")


@dataclass(frozen=True)
class Application(Generic[V]):
    """Result of applying an operator to one fragment."""

    value: V
    effective: bool


class PartitionableOperator(ABC, Generic[V]):
    """An operator applicable to any accessible fragment of an item."""

    @abstractmethod
    def apply(self, domain: Domain[V], value: V) -> Application[V]:
        """Apply to a fragment; ineffective applications return the
        fragment unchanged with ``effective=False``."""

    def delta(self, domain: Domain[V]) -> Any:
        """Signed change to the logical value when effective.

        Returns ``(sign, magnitude)`` where sign is +1/-1; used by the
        conservation auditor to track the expected total.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class Increment(PartitionableOperator[V]):
    """'Increment the argument by m' — always effective."""

    amount: Any

    def apply(self, domain: Domain[V], value: V) -> Application[V]:
        domain.validate(self.amount)
        return Application(domain.combine(value, self.amount), True)

    def delta(self, domain: Domain[V]) -> Any:
        return (+1, self.amount)


@dataclass(frozen=True)
class BoundedDecrement(PartitionableOperator[V]):
    """'Decrement by m if the result does not fall below 0'.

    Effective only when the fragment covers the amount; otherwise a
    no-op (and the transaction machinery goes shopping for value).
    """

    amount: Any

    @staticmethod
    def remainder(domain: Domain[V], value: V, amount: Any) -> V | None:
        """What is left of *value* once *amount* is taken; None when
        the fragment does not cover it. The rule itself, for callers
        that need no operator object (``Transaction._take``)."""
        domain.validate(amount)
        if domain.covers(value, amount):
            taken, remainder = domain.split(value, amount)
            if taken == amount:
                return remainder
        return None

    def apply(self, domain: Domain[V], value: V) -> Application[V]:
        remainder = self.remainder(domain, value, self.amount)
        if remainder is None:
            return Application(value, False)
        return Application(remainder, True)

    def delta(self, domain: Domain[V]) -> Any:
        return (-1, self.amount)


@dataclass(frozen=True)
class SetToZero(PartitionableOperator[V]):
    """'Set to zero' — drains the fragment it is applied to.

    Note this is partitionable only fragment-wise (it zeroes the
    fragment, subtracting that fragment's value from the item); it is
    the building block of read-drains and always effective.
    """

    def apply(self, domain: Domain[V], value: V) -> Application[V]:
        return Application(domain.zero(), True)


def commute(domain: Domain[V], first: PartitionableOperator[V],
            second: PartitionableOperator[V], value: V) -> bool:
    """Check g(h(v)) == h(g(v)) counting effectiveness.

    Section 4.1 claims partitionable operators commute when applied to
    separate portions; on a single fragment bounded decrements may
    differ in *which* application is effective, so this helper is used
    by tests to map out exactly where commutation holds.
    """
    a = second.apply(domain, first.apply(domain, value).value).value
    b = first.apply(domain, second.apply(domain, value).value).value
    return a == b
