"""Packet-level discrete-event simulation substrate."""

from .engine import Event, Simulator
from .host import Host
from .link import Port
from .network import Network, QueueConfig
from .packet import (
    ACK,
    ACK_BYTES,
    CONTROL,
    DATA,
    GRANT,
    HEADER,
    HEADER_BYTES,
    NACK,
    NUM_PRIORITIES,
    PULL,
    Packet,
    make_ack,
)
from .queues import PriorityMux, QueueStats
from .switch import Switch
from .topology import (
    Topology,
    dumbbell,
    fat_tree,
    leaf_spine,
    star,
)

__all__ = [
    "Event", "Simulator", "Host", "Port", "Network", "QueueConfig",
    "Packet", "make_ack", "PriorityMux", "QueueStats", "Switch",
    "Topology", "dumbbell", "fat_tree", "leaf_spine", "star",
    "DATA", "ACK", "GRANT", "PULL", "HEADER", "NACK", "CONTROL",
    "ACK_BYTES", "HEADER_BYTES", "NUM_PRIORITIES",
]
