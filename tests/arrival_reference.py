"""The workload driver's arrival process, from its definition.

``WorkloadDriver`` promises that the load it offers is a function of
(seed, site) alone: a site's arrival instants are the cumulative
``expovariate`` gaps of the named stream ``{seed_stream}:gaps:{site}``
below the horizon. The tests compare the driver with this direct
transcription of that sentence (as ``tests/heap_queue.py`` is the
reference for the event queue), so no second scheduler lives in
``src/``.
"""

from repro.sim.random import RandomStreams


def reference_arrivals(seed, sites, rate, duration,
                       seed_stream="workload"):
    """site -> its arrival instants in ``[0, duration)``."""
    streams = RandomStreams(seed)
    arrivals = {}
    for site in sites:
        gaps = streams.stream(f"{seed_stream}:gaps:{site}")
        instants, time = [], gaps.expovariate(rate)
        while time < duration:
            instants.append(time)
            time += gaps.expovariate(rate)
        arrivals[site] = instants
    return arrivals


class RecordingTarget:
    """A submit target that notes what it is offered and passes it on."""

    def __init__(self, system):
        self.system = system
        self.offered = []   # (site, instant, spec), in submission order

    def submit(self, site, spec, on_done=None):
        self.offered.append((site, self.system.sim.now, spec))
        return self.system.submit(site, spec, on_done)
