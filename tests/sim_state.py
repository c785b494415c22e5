"""Read-only probes of a running :class:`~repro.sim.NoCSimulator`.

Tests use these instead of bookkeeping kept in the simulator for them:
the core tracks only what its own loop reads.
"""


def flits_in_network(sim) -> int:
    """Flits injected but not yet ejected: in input units (injection
    queues and staging/edge buffers), central-buffer queues, on the
    credit-link event wheel, in elastic link stages, and in the
    ejection pipe.  Zero exactly when every injected packet has left."""
    routers = sim.routers
    return (
        sum(len(unit.buffer) for router in routers for unit in router.in_units)
        + sum(len(queue) for router in routers for queue in router.cb_queues.values())
        + sum(len(entries) for entries in sim._event_wheel.values())
        + sum(len(stage) for link in sim._elastic_links for stage in link.stages)
        + len(sim.eject_pipe)
    )


def channel_occupancy(sim) -> dict[tuple[int, int], int]:
    """Every channel's occupancy, recounted from where its flits and
    credits are, keyed ``(src, dst)``.

    On a credit link: flits on the event wheel for the link, plus flits
    in the link's downstream input units, plus the link's credits on the
    credit wheel.  On an elastic link: the flits in its stages.
    """
    counts = [0] * len(sim.link_cycles)  # by link ordinal
    if sim.config.elastic_links:
        for ordinal, link in enumerate(sim._elastic_links):
            counts[ordinal] = sum(map(len, link.stages))
    else:
        for wheel in (sim._event_wheel, sim._credit_wheel):
            for entries in wheel.values():
                for *_, ordinal in entries:
                    counts[ordinal] += 1
        for ordinal, units in enumerate(sim._link_units):
            counts[ordinal] += sum(len(unit.buffer) for unit in units)
    return dict(zip(sim.link_cycles, counts))
