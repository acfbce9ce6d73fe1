"""The FaultPlan DSL: typed, serializable, replayable fault schedules.

A :class:`FaultPlan` is an ordered tuple of typed fault actions — site
crashes/recoveries, directed link loss/duplication/reorder windows,
partition/heal group maps, and clock-skewed timer fires. Compiling a
plan schedules guarded callbacks on the simulator; because every action
is parameterized by plain data and every callback draws no randomness
of its own, a run is a pure function of ``(seed, plan)`` and replays
bit-identically (checked via :meth:`Simulator.trace_fingerprint`).

Plans serialize to plain dicts (``to_dicts`` / ``from_dicts``), the
``plan`` of a repro artifact (:mod:`repro.chaos.artifact`): the
shrinker writes minimized failing plans as repro artifacts under
``tests/repros/`` and CI failures replay locally from the same file.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import TYPE_CHECKING, Any, ClassVar

from repro.net.link import LinkConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import DvPSystem, System


class PlanError(ValueError):
    """A fault plan or repro artifact is malformed, or a plan references
    unknown sites."""


@dataclass(frozen=True)
class FaultAction:
    """Base class: one scripted fault at virtual time ``at``."""

    at: float

    kind: ClassVar[str] = ""

    def __post_init__(self) -> None:
        if self.at < 0:
            raise PlanError(f"{type(self).__name__}.at must be >= 0")

    def sites_used(self) -> tuple[str, ...]:
        """Site names the action references (for validation)."""
        return ()

    def schedule(self, system: "System") -> None:
        """Arm the action's guarded callback(s) on the simulator."""
        raise NotImplementedError

    def to_dict(self) -> dict[str, Any]:
        data = asdict(self)
        data["kind"] = self.kind
        return data


@dataclass(frozen=True)
class CrashSite(FaultAction):
    """Fail-stop the site at time ``at`` (no-op if already down)."""

    site: str = ""
    kind: ClassVar[str] = "crash"

    def sites_used(self) -> tuple[str, ...]:
        return (self.site,)

    def schedule(self, system: "System") -> None:
        def fire() -> None:
            if system.sites[self.site].alive:
                system.crash(self.site)

        # Site-targeted: runs on the shard owning the site.
        system.sim.at_site(self.site, self.at, fire,
                           label=f"chaos:crash:{self.site}")


@dataclass(frozen=True)
class RecoverSite(FaultAction):
    """Independently recover the site at ``at`` (no-op if alive)."""

    site: str = ""
    kind: ClassVar[str] = "recover"

    def sites_used(self) -> tuple[str, ...]:
        return (self.site,)

    def schedule(self, system: "System") -> None:
        def fire() -> None:
            if not system.sites[self.site].alive:
                system.recover(self.site)

        system.sim.at_site(self.site, self.at, fire,
                           label=f"chaos:recover:{self.site}")


@dataclass(frozen=True)
class PartitionNet(FaultAction):
    """Split connectivity into ``groups`` at ``at`` (unlisted sites
    land together in an implicit final group)."""

    groups: tuple[tuple[str, ...], ...] = ()
    kind: ClassVar[str] = "partition"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.groups:
            raise PlanError("partition needs at least one group")
        # JSON round-trips lists; freeze to tuples for hashability.
        object.__setattr__(self, "groups", tuple(
            tuple(group) for group in self.groups))

    def sites_used(self) -> tuple[str, ...]:
        return tuple(name for group in self.groups for name in group)

    def schedule(self, system: "System") -> None:
        def fire() -> None:
            system.network.partition([list(group) for group in self.groups])

        # Topology-wide: runs at a consistent cut across shards.
        system.sim.at_global(self.at, fire, label="chaos:partition")


@dataclass(frozen=True)
class HealNet(FaultAction):
    """Undo any partition at ``at``."""

    kind: ClassVar[str] = "heal"

    def schedule(self, system: "System") -> None:
        system.sim.at_global(self.at, system.network.heal,
                             label="chaos:heal")


@dataclass(frozen=True)
class LinkFaultWindow(FaultAction):
    """Degrade the directed link ``src``->``dst`` for ``duration``.

    Inside the window the link's loss probability, duplication
    probability, and jitter (reordering) are overridden; ``down=True``
    severs the link outright. The link object (and its RNG stream)
    survives the window, so the fault composes with replay.
    """

    src: str = ""
    dst: str = ""
    duration: float = 1.0
    loss: float | None = None
    duplicate: float | None = None
    jitter: float | None = None
    down: bool = False
    kind: ClassVar[str] = "link"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.duration <= 0:
            raise PlanError("link fault window needs a positive duration")
        if self.src == self.dst:
            raise PlanError("link fault src and dst must differ")

    def sites_used(self) -> tuple[str, ...]:
        return (self.src, self.dst)

    def _window_config(self, base: LinkConfig) -> LinkConfig:
        return LinkConfig(
            base_delay=base.base_delay,
            jitter=base.jitter if self.jitter is None else self.jitter,
            loss_probability=(base.loss_probability if self.loss is None
                              else self.loss),
            duplicate_probability=(base.duplicate_probability
                                   if self.duplicate is None
                                   else self.duplicate))

    def schedule(self, system: "System") -> None:
        network = system.network

        def open_window() -> None:
            link = network.link(self.src, self.dst)
            network.inject_link_fault(self.src, self.dst,
                                      self._window_config(link.config))
            if self.down:
                link.fail()

        def close_window() -> None:
            network.clear_link_fault(self.src, self.dst)
            if self.down:
                network.link(self.src, self.dst).restore()

        tag = f"{self.src}->{self.dst}"
        # Link behaviour is read by the sender at send time, so a
        # window opening mid-round would be acausal for a shard that
        # already ran past it: run both edges at global cuts.
        system.sim.at_global(self.at, open_window,
                             label=f"chaos:link-fault:{tag}")
        system.sim.at_global(self.at + self.duration, close_window,
                             label=f"chaos:link-heal:{tag}")


@dataclass(frozen=True)
class SkewTick(FaultAction):
    """Clock-skew jump at ``site``: every armed local timer fires at
    ``at`` instead of its scheduled instant (see
    :meth:`DvPSite.skew_fire_timers`)."""

    site: str = ""
    kind: ClassVar[str] = "skew"

    def sites_used(self) -> tuple[str, ...]:
        return (self.site,)

    def schedule(self, system: "DvPSystem") -> None:
        def fire() -> None:
            system.sites[self.site].skew_fire_timers()

        system.sim.at_site(self.site, self.at, fire,
                           label=f"chaos:skew:{self.site}")


@dataclass(frozen=True)
class AddSite(FaultAction):
    """Join a new site ``site`` to the topology at ``at``.

    The name is *not* validated against the config's site list — it is
    a site that does not exist yet (``sites_used`` returns nothing).
    The fire guard skips when the name is already present or another
    reshard is still migrating, so sampled schedules never fault the
    run itself.
    """

    site: str = ""
    kind: ClassVar[str] = "add-site"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.site:
            raise PlanError("add-site needs a site name")

    def schedule(self, system: "DvPSystem") -> None:
        from repro.core.migration import ReshardInProgress

        def fire() -> None:
            if self.site in system.sites:
                return
            try:
                system.add_site(self.site)
            except ReshardInProgress:
                pass

        # Topology-wide: the directory epoch bump and the new site's
        # shard adoption must happen at a consistent cut.
        system.sim.at_global(self.at, fire,
                             label=f"chaos:add-site:{self.site}")


@dataclass(frozen=True)
class RemoveSite(FaultAction):
    """Decommission ``site`` at ``at``, draining its fragments.

    The guard skips dead, already-decommissioned, or missing sites and
    overlapping reshards — removal is only *attempted* when legal, so
    any schedule the grammar samples runs to completion.
    """

    site: str = ""
    kind: ClassVar[str] = "remove-site"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.site:
            raise PlanError("remove-site needs a site name")

    def sites_used(self) -> tuple[str, ...]:
        return (self.site,)

    def schedule(self, system: "DvPSystem") -> None:
        from repro.core.migration import ReshardInProgress
        from repro.core.site import SiteDown

        def fire() -> None:
            site = system.sites.get(self.site)
            if site is None or not site.alive or site.decommissioned:
                return
            if self.site not in system.directory.sites:
                return
            if len(system.directory.sites) == 1:
                return
            try:
                system.remove_site(self.site)
            except (ReshardInProgress, SiteDown):
                pass

        system.sim.at_global(self.at, fire,
                             label=f"chaos:remove-site:{self.site}")


@dataclass(frozen=True)
class Reshard(FaultAction):
    """Change the directory's replica count to ``replicas`` at ``at``
    (None = every site owns every item), migrating fragments."""

    replicas: int | None = None
    kind: ClassVar[str] = "reshard"

    def schedule(self, system: "DvPSystem") -> None:
        from repro.core.migration import ReshardInProgress

        def fire() -> None:
            try:
                system.reshard(self.replicas)
            except ReshardInProgress:
                pass

        system.sim.at_global(self.at, fire, label="chaos:reshard")


ACTION_TYPES: dict[str, type[FaultAction]] = {
    cls.kind: cls for cls in (CrashSite, RecoverSite, PartitionNet,
                              HealNet, LinkFaultWindow, SkewTick,
                              AddSite, RemoveSite, Reshard)}


def action_from_dict(data: dict[str, Any]) -> FaultAction:
    """Inverse of :meth:`FaultAction.to_dict`."""
    payload = dict(data)
    kind = payload.pop("kind", None)
    cls = ACTION_TYPES.get(kind)
    if cls is None:
        raise PlanError(f"unknown fault action kind {kind!r}")
    allowed = {f.name for f in fields(cls)}
    unknown = set(payload) - allowed
    if unknown:
        raise PlanError(f"{kind}: unknown fields {sorted(unknown)}")
    if kind == "partition" and "groups" in payload:
        payload["groups"] = tuple(tuple(g) for g in payload["groups"])
    try:
        return cls(**payload)
    except TypeError as exc:
        raise PlanError(f"{kind}: {exc}") from exc


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, immutable schedule of fault actions."""

    actions: tuple[FaultAction, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "actions", tuple(self.actions))

    def __len__(self) -> int:
        return len(self.actions)

    def validate(self, sites: list[str]) -> None:
        """Raise :class:`PlanError` on references to unknown sites."""
        known = set(sites)
        for action in self.actions:
            unknown = set(action.sites_used()) - known
            if unknown:
                raise PlanError(
                    f"{action.kind} references unknown sites "
                    f"{sorted(unknown)}")

    def compile(self, system: "System") -> None:
        """Schedule every action's guarded callbacks on the simulator
        of any system answering the contract (the skew and elastic
        actions need a :class:`DvPSystem`)."""
        self.validate(list(system.sites))
        for action in self.actions:
            action.schedule(system)

    # -- serialization ----------------------------------------------------

    def to_dicts(self) -> list[dict[str, Any]]:
        return [action.to_dict() for action in self.actions]

    @classmethod
    def from_dicts(cls, data: list[dict[str, Any]]) -> "FaultPlan":
        return cls(tuple(action_from_dict(entry) for entry in data))

    def describe(self) -> str:
        """One line per action, for failure reports and artifacts."""
        if not self.actions:
            return "(empty plan)"
        parts = []
        for action in self.actions:
            data = action.to_dict()
            data.pop("kind")
            at = data.pop("at")
            detail = " ".join(f"{key}={value}" for key, value
                              in sorted(data.items()) if value is not None)
            parts.append(f"t={at:g} {action.kind}"
                         + (f" {detail}" if detail else ""))
        return "; ".join(parts)


__all__ = [
    "FaultAction", "FaultPlan", "PlanError", "CrashSite", "RecoverSite",
    "PartitionNet", "HealNet", "LinkFaultWindow", "SkewTick",
    "AddSite", "RemoveSite", "Reshard",
    "ACTION_TYPES", "action_from_dict",
]
