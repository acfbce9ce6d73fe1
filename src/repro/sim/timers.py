"""Restartable timeout handles built on kernel events.

Transactions (Section 5 of the paper) arm a timeout when they send
requests and abort when it fires; the Vm layer arms retransmission
timers. Both need cancel/restart semantics, which raw events lack.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.events import Event
from repro.sim.kernel import Simulator


class Timer:
    """A one-shot timer that can be cancelled and re-armed.

    *site* is an optional placement hint for sharded simulations
    (repro.sim.shard): a site-hinted timer always arms on the shard
    owning that site's state, even when :meth:`start` is called from
    setup code outside any event. On the single-queue kernel the hint
    is free (``call_in_site`` runs the arming immediately).
    """

    def __init__(self, sim: Simulator, action: Callable[[], Any],
                 label: str = "timer", site: str | None = None) -> None:
        self._sim = sim
        self._action = action
        self._label = label
        self._site = site
        self._event: Event | None = None

    @property
    def armed(self) -> bool:
        return self._event is not None and not self._event.cancelled

    def start(self, delay: float) -> None:
        """Arm (or re-arm) the timer to fire after *delay*."""
        self.cancel()
        if self._site is None:
            self._event = self._sim.after(delay, self._fire,
                                          label=self._label)
        else:
            self._event = self._sim.call_in_site(
                self._site,
                lambda: self._sim.after(delay, self._fire,
                                        label=self._label))

    def cancel(self) -> None:
        """Disarm the timer if armed."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def close(self) -> None:
        """Disarm for good and let go of the action.

        A timer's action is usually a bound method (or a closure) of
        its owner, which holds the timer: a reference cycle. The owner
        closes the timer when its purpose is over, and both are freed
        by reference counting instead of waiting for the cycle
        collector (DESIGN.md §7)."""
        self.cancel()
        self._action = None

    def _fire(self) -> None:
        self._event = None
        self._action()


class PeriodicTimer:
    """Fires *action* every *period* until stopped.

    Used by the Vm retransmission loop: as long as a site has
    unacknowledged virtual messages the timer keeps ticking, and each
    Vm is resent once it has gone a full period unacknowledged.
    """

    def __init__(self, sim: Simulator, period: float,
                 action: Callable[[], Any], label: str = "periodic",
                 site: str | None = None) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self._sim = sim
        self.period = period
        self._action = action
        self._label = label
        self._site = site           # placement hint, as on Timer
        self._event: Event | None = None
        self._running = False

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._schedule()

    def stop(self) -> None:
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def close(self) -> None:
        """Stop for good and let go of the action (see Timer.close)."""
        self.stop()
        self._action = None

    def _schedule(self) -> None:
        if self._site is None:
            self._event = self._sim.after(self.period, self._tick,
                                          label=self._label)
        else:
            self._event = self._sim.call_in_site(
                self._site,
                lambda: self._sim.after(self.period, self._tick,
                                        label=self._label))

    def _tick(self) -> None:
        self._event = None
        if not self._running:
            return
        self._action()
        if self._running:
            self._schedule()
