"""Point-to-point links with configurable failure behaviour."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class LinkConfig:
    """Behavioural parameters of a directed link.

    Delay is ``base_delay`` plus a uniform jitter in
    ``[0, jitter]``; jitter > 0 lets messages reorder. Loss and
    duplication are i.i.d. per transmission — the paper's Vm machinery
    must mask all of this.
    """

    base_delay: float = 1.0
    jitter: float = 0.0
    loss_probability: float = 0.0
    duplicate_probability: float = 0.0

    @property
    def delay_lower_bound(self) -> float:
        """The least delay any transmission on this link can have.

        Jitter only adds to ``base_delay``, so the base is the bound.
        This is what the sharded kernel's conservative lookahead is
        derived from (docs/PARALLEL.md): no cross-site message can
        arrive sooner than the minimum bound over the links that cross
        a shard boundary.
        """
        return self.base_delay

    def __post_init__(self) -> None:
        if self.base_delay < 0:
            raise ValueError("base_delay must be non-negative")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError("loss_probability must be within [0, 1]")
        if not 0.0 <= self.duplicate_probability <= 1.0:
            raise ValueError("duplicate_probability must be within [0, 1]")


class Endpoint:
    """What a network knows of one site: its partition group and its
    delivery handler. Every link touching the site shares the object,
    so a partition or a handler swap is one store — seen at once by
    sends and by deliveries already in flight."""

    __slots__ = ("group", "handler")

    def __init__(self) -> None:
        self.group: int | None = None  # None: not (yet) registered
        self.handler: Callable[[Any], None] | None = None


class Link:
    """A directed link; decides each transmission's fate.

    It also carries what a send would otherwise look up or format per
    envelope: its two endpoints and the delivery-event labels.
    """

    def __init__(self, src: str, dst: str, config: LinkConfig,
                 rng: random.Random | None,
                 src_end: Endpoint | None = None,
                 dst_end: Endpoint | None = None) -> None:
        # rng is None only where no fate is ever drawn (net.sync); a
        # link outside any network stands between two fresh endpoints.
        self.src = src
        self.dst = dst
        self.config = config
        self._rng = rng
        self._fault: LinkConfig | None = None
        self.up = True
        self.src_end = src_end or Endpoint()
        self.dst_end = dst_end or Endpoint()
        self.labels: dict[str, str] = {}
        self.transmissions = 0
        self.losses = 0
        self.duplicates = 0

    def fail(self) -> None:
        """Take the link down; messages sent while down vanish."""
        self.up = False

    def restore(self) -> None:
        self.up = True

    # -- scripted faults (chaos engine) -----------------------------------

    def inject_fault(self, config: LinkConfig) -> None:
        """Shadow the base config (loss/duplication/jitter windows).

        The RNG stream is untouched — a fault window changes only the
        probabilities each draw is compared against, so clearing the
        fault returns the link to its exact base behaviour.
        """
        self._fault = config

    def clear_fault(self) -> None:
        self._fault = None

    # -- per-transmission fate --------------------------------------------

    def fate(self) -> tuple[float, ...] | None:
        """Draw one transmission's whole fate; count it on this link.

        The draws come in one fixed order: loss, then — for a message
        that reaches its destination — its delay, the duplicate draw
        and the duplicate's delay. The loss draw is taken even while
        the link is down or a partition separates its ends, so a fault
        window never shifts the draws made after it.

        Returns the delays of the deliveries to schedule (one, or two
        when the link duplicates), or a drop: ``None`` when a partition
        separates the ends — counted once, as partitioned, even if the
        loss draw also lost it — and ``()`` when the link lost it.
        """
        config = self._fault or self.config
        rng = self._rng
        self.transmissions += 1
        lost = rng.random() < config.loss_probability or not self.up
        if lost:
            self.losses += 1
        if self.src_end.group != self.dst_end.group:
            return None
        if lost:
            return ()
        base, jitter = config.base_delay, config.jitter
        delay = base if jitter == 0 else base + rng.uniform(0.0, jitter)
        if rng.random() < config.duplicate_probability:
            self.duplicates += 1
            return delay, (base if jitter == 0
                           else base + rng.uniform(0.0, jitter))
        return (delay,)
