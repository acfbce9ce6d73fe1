"""The traced run: span wrappers on the program's layer boundaries.

Active only in the traced child. :meth:`Tracer.install` replaces
public methods **on the classes, before any system is built** —
handlers are bound at construction (``network.register(name,
self.deliver)``, the ``VmManager(send=...)`` lambdas), so patching an
instance later would miss them — and :meth:`Tracer.uninstall` puts the
originals back.

A span is (name, start, end, parent = enclosing span, txn id where the
receiver exposes one). A layer's *self* time is its spans' duration
minus what their child spans cover. Per span name the tracer keeps
(count, total, self) in memory; the full records of the first
``keep_events`` kernel events are kept too and written out as JSONL
when the run ends. Nothing here reads a clock the simulation can see,
so a traced run must reproduce the untraced runs' counters exactly —
the suite fails the run otherwise.

Targets the program no longer has are skipped and listed in
:attr:`Tracer.missing`, so a PR that deletes a class does not have to
edit the benchmark to keep the traced run alive.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from typing import Any, Callable

#: (layer, owner, attributes). An owner is ``module:Class`` for
#: methods or ``module`` for plain functions.
TARGETS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("sim", "repro.sim.kernel:Simulator",
     ("at", "after", "at_site", "after_for_site")),
    ("sim", "repro.sim.shard:ShardedSimulator",
     ("at", "after", "at_site", "after_for_site")),
    ("sim", "repro.sim.timers:Timer", ("start", "cancel")),
    ("net", "repro.net.network:Network", ("send", "broadcast")),
    ("net", "repro.net.sync:SynchronousNetwork", ("send", "broadcast")),
    ("net", "repro.net.outbox:Outbox", ("enqueue",)),
    ("core.site", "repro.core.site:DvPSite",
     ("submit", "deliver", "handle_request", "log_append",
      "apply_actions", "crash", "recover")),
    ("core.vm", "repro.core.vm:VmManager",
     ("on_transfer", "on_ack", "register_created", "poke", "drain")),
    ("core.transactions", "repro.core.transactions:Transaction",
     ("start", "recheck", "on_vm_absorbed")),
    ("core.locks", "repro.core.locks:LockTable", ("release_all",)),
    ("core.fragments", "repro.core.fragments:FragmentStore",
     ("value", "write")),
    ("storage", "repro.storage.log:StableLog", ("append",)),
    ("storage", "repro.storage.pages:PageStore", ("read", "write")),
    ("core.invariants", "repro.core.invariants:ConservationAuditor",
     ("on_result", "on_fragment_register", "on_fragment_write",
      "on_vm_created", "on_vm_accepted", "verify_full")),
    ("core.partition", "repro.core.partition:Router", ("route",)),
    ("core.recovery", "repro.core.recovery", ("recover_site",)),
    ("serving", "repro.serving.frontend:ServingFrontend", ("submit",)),
    ("serving", "repro.serving.queue:SiteQueue", ("offer",)),
    ("serving", "repro.serving.router:RandomRouter", ("route",)),
    ("serving", "repro.serving.router:LeastQueueRouter", ("route",)),
    ("serving", "repro.serving.router:LocalityRouter", ("route",)),
    ("serving", "repro.serving.router:ViewAwareRouter", ("route",)),
    ("serving", "repro.serving.router:DepthBoard", ("refresh",)),
    ("reads", "repro.reads.views:ViewService",
     ("publish", "fill_through")),
    ("reads", "repro.reads.views:SiteViewCache", ("serve", "absorb")),
    ("reads", "repro.reads.views:ViewStore",
     ("on_fragment_register", "on_fragment_write", "on_vm_created",
      "on_vm_accepted")),
    ("metrics", "repro.metrics.collector:Collector",
     ("on_submit", "on_result", "on_shed")),
    ("obs", "repro.obs.registry:MetricsRegistry",
     ("counter", "histogram")),
    ("chaos", "repro.chaos.runner", ("run_chaos",)),
    ("chaos", "repro.chaos.plan:FaultPlan", ("compile",)),
    ("chaos", "repro.chaos.oracles:AuditorOracle", ("check",)),
    ("chaos", "repro.chaos.oracles:SerialOracle", ("check",)),
    ("chaos", "repro.chaos.oracles:ProgressOracle", ("check",)),
    ("chaos", "repro.chaos.oracles:ViewOracle", ("check",)),
    # The façade is not one of the sixteen layers; inside the timed
    # region it only ever runs as part of a chaos plan's construction.
    ("chaos", "repro.core.system:DvPSystem", ("__init__", "add_item")),
    # Private, but the kernel calls them directly as event actions:
    # unwrapped, a commit after ``work`` or a retransmit tick would be
    # billed to the kernel loop.
    ("core.transactions", "repro.core.transactions:Transaction",
     ("_commit", "_on_timeout")),
    ("core.vm", "repro.core.vm:VmManager", ("_retransmit_tick",)),
    ("core.site", "repro.core.site:DvPSite", ("_release_freeze",)),
)

#: Kernel entry points: the root span of everything an event does. Its
#: self time is the kernel loop plus the event queue.
_ROOTS = ("repro.sim.kernel:Simulator", "repro.sim.shard:ShardedSimulator")


def _resolve(owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Aggregates spans per name; keeps the first events' full records."""

    def __init__(self, keep_events: int = 2000) -> None:
        self.keep_events = keep_events
        #: span name -> [count, total ns, self ns]
        self.totals: dict[str, list[int]] = {}
        self.layer_of: dict[str, str] = {}
        #: Lock acquisitions: [attempts, refused or queued].
        self.locks = [0, 0]
        self.records: list[tuple] = []
        self.missing: list[str] = []
        self.recording = False
        self._origin_ns = 0
        #: Open spans, innermost last: [child ns, record id].
        self._stack: list[list[int]] = []
        self._patched: list[tuple[Any, str, Any]] = []
        self._next_id = 0
        # Kernel-event numbering across every simulator of the run.
        self._sim = None
        self._steps_base = 0
        self._events_done = 0

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, layer: str, fn: Callable) -> Callable:
        totals = self.totals.setdefault(name, [0, 0, 0])
        self.layer_of[name] = layer
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def span(*args, **kwargs):
            frame = [0, 0]
            if tracer.recording:
                frame[1] = tracer._open_record()
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if frame[1]:
                    tracer._close_record(frame[1], name, start, elapsed,
                                         args)

        span.__wrapped__ = fn
        return span

    def _root(self, name: str, fn: Callable) -> Callable:
        span = self._span(name, "sim", fn)
        tracer = self

        def run_until(sim, until):
            tracer._sim = sim
            tracer._steps_base = tracer._events_done - sim.steps
            try:
                return span(sim, until)
            finally:
                tracer._events_done = tracer._steps_base + sim.steps
                tracer._sim = None

        run_until.__wrapped__ = fn
        return run_until

    def _counted(self, name: str, layer: str, fn: Callable) -> Callable:
        """Count-only: for calls too small to time without distortion."""
        totals = self.totals.setdefault(name, [0, 0, 0])
        self.layer_of[name] = layer

        def counted(*args, **kwargs):
            totals[0] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _lock_wrappers(self) -> dict[str, Callable]:
        """Spans that also count refusals; ``acquire_all_or_wait``
        calls ``try_acquire_all`` itself, so only the outermost call
        of a pair counts as an acquisition attempt."""
        locks = self.locks
        nested = [0]

        def wrap_try(name: str, fn: Callable) -> Callable:
            span = self._span(name, "core.locks", fn)

            def try_acquire_all(table, owner, items):
                granted = span(table, owner, items)
                if not nested[0]:
                    locks[0] += 1
                    locks[1] += not granted
                return granted

            try_acquire_all.__wrapped__ = fn
            return try_acquire_all

        def wrap_wait(name: str, fn: Callable) -> Callable:
            span = self._span(name, "core.locks", fn)

            def acquire_all_or_wait(table, owner, items, on_granted):
                nested[0] += 1
                try:
                    granted = span(table, owner, items, on_granted)
                finally:
                    nested[0] -= 1
                locks[0] += 1
                locks[1] += not granted
                return granted

            acquire_all_or_wait.__wrapped__ = fn
            return acquire_all_or_wait

        return {"try_acquire_all": wrap_try,
                "acquire_all_or_wait": wrap_wait}

    # -- span records -------------------------------------------------------

    def _open_record(self) -> int:
        if self._sim is not None and \
                self._steps_base + self._sim.steps > self.keep_events:
            self.recording = False
            return 0
        self._next_id += 1
        return self._next_id

    def _close_record(self, span_id: int, name: str, start: int,
                      elapsed: int, args: tuple) -> None:
        stack = self._stack
        txn = getattr(args[0], "id", None) if args else None
        event = (self._steps_base + self._sim.steps
                 if self._sim is not None else None)
        self.records.append((
            span_id, stack[-1][1] if stack else 0, name,
            start - self._origin_ns, start - self._origin_ns + elapsed,
            txn if isinstance(txn, str) else None, event))

    # -- install / uninstall ------------------------------------------------

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for owner_path in _ROOTS:
            self._install_one(owner_path, "run_until", self._root)
        self._install_one(
            "repro.sim.events:EventQueue", "push",
            lambda name, fn: self._counted("EventQueue.push", "sim", fn))
        for attr, wrap in self._lock_wrappers().items():
            self._install_one("repro.core.locks:LockTable", attr, wrap)
        for layer, owner_path, attrs in TARGETS:
            for attr in attrs:
                self._install_one(
                    owner_path, attr,
                    lambda name, fn, layer=layer: self._span(
                        name, layer, fn))

    def _install_one(self, owner_path: str, attr: str,
                     wrap: Callable[[str, Callable], Callable]) -> None:
        try:
            owner = _resolve(owner_path)
            original = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(f"{owner_path}.{attr}")
            return
        if isinstance(owner, type):
            self._patch(owner, attr,
                        wrap(f"{owner.__name__}.{attr}", original))
            return
        # A plain function: other modules hold it by name
        # (``from repro.chaos.runner import run_chaos``), so replace it
        # in every loaded ``repro`` module that does.
        wrapper = wrap(attr, original)
        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "repro" and \
                    vars(module).get(attr) is original:
                self._patch(module, attr, wrapper)

    def uninstall(self) -> list[str]:
        """Put every original back; returns the attributes that still
        hold a wrapper afterwards (must be none — the self-test
        asserts on it)."""
        touched = [(owner, attr) for owner, attr, _ in self._patched]
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr in touched
                if hasattr(vars(owner)[attr], "__wrapped__")]

    # -- the timed region ---------------------------------------------------

    def start_region(self) -> None:
        """Zero the aggregate and start keeping span records."""
        for totals in self.totals.values():
            totals[:] = [0, 0, 0]
        self.locks[:] = [0, 0]
        self.records.clear()
        self._next_id = 0
        self._events_done = 0
        self._origin_ns = time.perf_counter_ns()
        self.recording = True

    def end_region(self) -> dict[str, Any]:
        """Freeze the account of the timed region."""
        self.recording = False
        spans = {name: {"layer": self.layer_of[name], "count": count,
                        "total_ns": total, "self_ns": own}
                 for name, (count, total, own) in self.totals.items()
                 if count}
        return {"spans": spans, "lock_attempts": self.locks[0],
                "lock_refused": self.locks[1], "missing": self.missing,
                "records_kept": len(self.records)}

    def write_records(self, path: str) -> None:
        keys = ("id", "parent", "name", "start_ns", "end_ns", "txn",
                "event")
        with open(path, "w") as handle:
            for record in self.records:
                row = dict(zip(keys, record))
                row["layer"] = self.layer_of[row["name"]]
                handle.write(json.dumps(row) + "\n")
