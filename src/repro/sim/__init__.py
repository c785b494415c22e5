"""Cycle-accurate NoC simulator: routers, links, flow control, measurement."""

from .config import (
    BUFFERING_STRATEGIES,
    SimConfig,
    cbr,
    eb_large,
    eb_small,
    eb_var,
    el_links,
)
from .links import CreditLink, ElasticLink, link_latency
from .network import NoCSimulator, SimResult
from .packet import Flit, Packet

__all__ = [
    "SimConfig",
    "BUFFERING_STRATEGIES",
    "eb_small",
    "eb_large",
    "eb_var",
    "el_links",
    "cbr",
    "NoCSimulator",
    "SimResult",
    "Packet",
    "Flit",
    "CreditLink",
    "ElasticLink",
    "link_latency",
]
