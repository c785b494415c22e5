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
