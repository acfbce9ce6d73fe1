"""Collects transaction outcomes across a run.

Works for the DvP system and for every baseline: anything that produces
:class:`~repro.core.transactions.TxnResult`-shaped objects (the
baselines reuse that dataclass) can feed a collector.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.transactions import TxnResult
from repro.metrics.stats import Summary, summarize


class CollectorInconsistency(RuntimeError):
    """More outcomes reported than requests submitted.

    A result/shed count exceeding the submit count means somebody
    double-reported (a completion callback fired twice, or a shed was
    also given a TxnResult). Pre-fix ``Collector.lost`` clamped the
    difference with ``max(0, ...)`` and the double-report passed
    silently as "nothing lost".
    """


@dataclass
class Collector:
    """Accumulates results; knows nothing about how they were produced."""

    results: list[TxnResult] = field(default_factory=list)
    submitted: int = 0
    #: Virtual time of each submission that supplied one. Windowed
    #: views need these: a submission that vanished in a crash has no
    #: TxnResult, so the only way to count it inside a window is by
    #: when it was submitted.
    submit_times: list[float] = field(default_factory=list)
    #: Requests refused by admission control (serving front-end) —
    #: decided, but never entered the system, so no TxnResult.
    shed: int = 0
    shed_times: list[float] = field(default_factory=list)

    def on_submit(self, at: float | None = None) -> None:
        self.submitted += 1
        if at is not None:
            self.submit_times.append(at)

    def on_result(self, result: TxnResult) -> None:
        self.results.append(result)

    def on_shed(self, at: float | None = None) -> None:
        self.shed += 1
        if at is not None:
            self.shed_times.append(at)

    # -- views ---------------------------------------------------------------

    @property
    def committed(self) -> list[TxnResult]:
        return [result for result in self.results if result.committed]

    @property
    def aborted(self) -> list[TxnResult]:
        return [result for result in self.results if not result.committed]

    @property
    def lost(self) -> int:
        """Submitted but never reported back (vanished in a crash).

        Raises :class:`CollectorInconsistency` when outcomes outnumber
        submissions — a double-reported result would otherwise silently
        clamp to "0 lost". Sink-only collectors (results fed without
        ``on_submit``, as some harnesses do) never tracked submissions
        and keep reporting 0.
        """
        if self.submitted == 0:
            return 0
        outcomes = len(self.results) + self.shed
        if outcomes > self.submitted:
            raise CollectorInconsistency(
                f"{len(self.results)} results + {self.shed} sheds "
                f"reported for only {self.submitted} submissions — "
                "a completion callback fired more than once")
        return self.submitted - outcomes

    def commit_rate(self) -> float:
        if not self.results:
            return 0.0
        return len(self.committed) / len(self.results)

    def abort_reasons(self) -> Counter:
        return Counter(result.reason for result in self.aborted)

    def latency_summary(self, committed_only: bool = True) -> Summary:
        pool = self.committed if committed_only else self.results
        return summarize([result.latency for result in pool])

    def max_latency(self) -> float:
        """Worst-case decision time over ALL decided transactions —
        commits and aborts alike. The non-blocking property (E1) is
        exactly the claim that this is bounded by the timeout."""
        if not self.results:
            return 0.0
        return max(result.latency for result in self.results)

    def throughput(self, duration: float) -> float:
        if duration <= 0:
            return 0.0
        return len(self.committed) / duration

    def in_window(self, start: float, end: float) -> "Collector":
        """Sub-collector of results that were *submitted* in [start, end).

        ``submitted`` (and hence ``lost``) counts the submissions whose
        recorded time fell in the window — not just the ones that came
        back: one that vanished in a crash has no result to count it
        by. A submission recorded without a time is in no window.
        """
        window = Collector()
        window.results = [result for result in self.results
                          if start <= result.submitted_at < end]
        window.submit_times = [at for at in self.submit_times
                               if start <= at < end]
        window.shed_times = [at for at in self.shed_times
                             if start <= at < end]
        window.shed = len(window.shed_times)
        window.submitted = len(window.submit_times)
        return window
