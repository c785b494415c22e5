"""Simulation configuration and the paper's buffering strategies.

Section 5.1 "Router Architectures" fixes the microarchitectural constants
reproduced here: a 2-stage edge-buffer router pipeline with 2 VCs, a CBR
with a 2-cycle bypass and 4-cycle buffered path, 6-flit packets, and
128-bit links (one flit per link cycle).  Its 20-flit NIC queues need
no knob: a NIC drains an ejected flit the cycle after its grant, so the
ejection queue never fills, and sources are open-loop, so a standing
injection backlog beyond :data:`SATURATION_BACKLOG` flags saturation
instead of blocking.  Section 5.1 "Buffering Strategies" names the
presets:

========== ==========================================================
EB-Small   all edge buffers 5 flits per VC
EB-Large   all edge buffers 15 flits per VC
EB-Var     per-link minimal depth for 100% utilisation (the RTT Tij)
EL-Links   elastic links only — 1-flit staging, link latches buffer
CBR-x      central-buffer router, CB capacity x flits
========== ==========================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

#: Paper defaults (section 5.1).
PACKET_FLITS = 6
LINK_WIDTH_BITS = 128
SMART_H = 9
ROUTER_DELAY = 2  # cycles before a flit arbitrates: 1 wait + 1 transfer
CBR_PENALTY = 2  # extra cycles on the CBR buffered path (4-cycle total)

#: Cycles a head flit must have stalled in staging before its packet
#: commits to the CB.  The CB has a single read and a single write port
#: (section 4.2), so it must absorb persistent head-of-line conflicts,
#: not transient ones — without patience every conflict serialises on
#: the CB port.
CBR_PATIENCE = 4

#: A run is saturated when fewer than this fraction of the packets
#: created during the measurement window were delivered by the end of
#: the drain phase, or when any NIC's standing injection backlog exceeds
#: this many flits (offered load persistently above accepted load).
SATURATION_DELIVERY_FRACTION = 0.90
SATURATION_BACKLOG = 120

#: The test for each field annotation a decoded payload may carry.  A
#: ``bool`` is not an ``int`` here, an ``int`` is a ``float``, and a
#: ``float`` must be finite.
FIELD_CHECKS = {
    "int": lambda value: type(value) is int,
    "bool": lambda value: type(value) is bool,
    "float": lambda value: type(value) in (int, float) and math.isfinite(value),
    "str": lambda value: type(value) is str,
    "str | None": lambda value: value is None or type(value) is str,
    "dict": lambda value: type(value) is dict,
    "list": lambda value: type(value) is list,
    "list[int]": lambda value: type(value) is list and set(map(type, value)) <= {int},
    "list[str]": lambda value: type(value) is list and set(map(type, value)) <= {str},
}


def check_fields(what: str, payload: object, types: dict[str, str]) -> dict:
    """Return ``payload`` if it is a dict holding exactly the keys of
    ``types``, each passing :data:`FIELD_CHECKS` for its annotation.

    Anything else raises ``ValueError`` naming ``what``: decoders of
    wire or store payloads call this so that a malformed payload fails
    as bad input, never as a ``KeyError`` or ``TypeError`` further on.
    """
    if type(payload) is not dict:
        raise ValueError(f"{what} must be an object, got {type(payload).__name__}")
    if payload.keys() != types.keys():
        missing = sorted(types.keys() - payload.keys())
        unknown = sorted(payload.keys() - types.keys())
        raise ValueError(f"{what}: missing fields {missing}, unknown fields {unknown}")
    for name, value in payload.items():
        if not FIELD_CHECKS[types[name]](value):
            raise ValueError(f"{what}.{name} must be {types[name]}, got {value!r}")
    return payload


#: The least value of each bounded :class:`SimConfig` knob.
FIELD_MINIMUMS = {
    "num_vcs": 1,
    "edge_buffer_flits": 1,
    "hops_per_cycle": 1,
    "central_buffer_flits": 0,
}


@dataclass(frozen=True)
class SimConfig:
    """The knobs of the cycle-accurate model that a figure varies.

    Attributes:
        num_vcs: Virtual channels per physical link.
        edge_buffer_flits: Input buffer depth per (port, VC); ignored when
            ``variable_edge_buffers`` or a central buffer is active.
        variable_edge_buffers: Size each input buffer to its link's RTT
            (the EB-Var strategy; SMART-aware through ``hops_per_cycle``).
        central_buffer_flits: >0 selects the CBR router with this CB size.
        elastic_links: Replace credit links + deep buffers with elastic
            pipeline latches and 1-flit staging buffers.
        hops_per_cycle: The SMART ``H`` (1 = no SMART, 9 = SMART at 45nm).

    The packet size is the spec's; the router pipeline, CBR timing and
    saturation thresholds are this module's constants.  Every field is a
    scalar whose annotation is a key of :data:`FIELD_CHECKS`, so a
    decoded config is checked field by field, and construction raises
    ``ValueError`` for a field below its :data:`FIELD_MINIMUMS` entry.
    """

    num_vcs: int = 2
    edge_buffer_flits: int = 5
    variable_edge_buffers: bool = False
    central_buffer_flits: int = 0
    elastic_links: bool = False
    hops_per_cycle: int = 1

    def __post_init__(self) -> None:
        for name, least in FIELD_MINIMUMS.items():
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"config.{name} must be >= {least}, got {value!r}")

    @property
    def uses_central_buffer(self) -> bool:
        return self.central_buffer_flits > 0

    def with_smart(self, enabled: bool = True) -> "SimConfig":
        return replace(self, hops_per_cycle=SMART_H if enabled else 1)

    def buffer_depth_for(self, link_latency: int) -> int:
        """Input-buffer depth per VC facing a link of the given latency."""
        if self.uses_central_buffer or self.elastic_links:
            return 1  # staging only; capacity lives in the CB / link latches
        if self.variable_edge_buffers:
            return 2 * link_latency + 3  # the RTT Tij of the buffer model
        return self.edge_buffer_flits


def eb_small(**kw) -> SimConfig:
    """EB-Small: 5-flit edge buffers."""
    return SimConfig(edge_buffer_flits=5, **kw)


def eb_large(**kw) -> SimConfig:
    """EB-Large: 15-flit edge buffers."""
    return SimConfig(edge_buffer_flits=15, **kw)


def eb_var(**kw) -> SimConfig:
    """EB-Var: per-link RTT-sized buffers (100% link utilisation)."""
    return SimConfig(variable_edge_buffers=True, **kw)


def el_links(**kw) -> SimConfig:
    """EL-Links: elastic links, no input buffers."""
    return SimConfig(elastic_links=True, **kw)


def cbr(cb_flits: int, **kw) -> SimConfig:
    """CBR-x: central-buffer router with elastic links (section 4.4)."""
    return SimConfig(central_buffer_flits=cb_flits, elastic_links=True, **kw)


#: Figure 11's named strategies.
BUFFERING_STRATEGIES = {
    "EB-Small": eb_small,
    "EB-Large": eb_large,
    "EB-Var": eb_var,
    "EL-Links": el_links,
    "CBR-6": lambda **kw: cbr(6, **kw),
    "CBR-40": lambda **kw: cbr(40, **kw),
}
