"""Serving front-end: open-loop traffic, routing, admission control.

See docs/SERVING.md. The front-end implements the same
``submit(site, spec, on_done)`` protocol as the system it fronts, so
workload drivers and the chaos engine use it unchanged.
"""

from repro.serving.frontend import ServingConfig, ServingFrontend
from repro.serving.queue import Overload, ServeSample, SiteQueue
from repro.serving.router import (
    ROUTERS,
    DepthBoard,
    LeastQueueRouter,
    LocalityRouter,
    RandomRouter,
    ViewAwareRouter,
    make_router,
)

__all__ = [
    "ROUTERS",
    "DepthBoard",
    "LeastQueueRouter",
    "LocalityRouter",
    "Overload",
    "RandomRouter",
    "ServeSample",
    "ServingConfig",
    "ServingFrontend",
    "SiteQueue",
    "ViewAwareRouter",
    "make_router",
]
