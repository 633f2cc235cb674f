"""Packet-level discrete-event simulation substrate."""

from .. import _lazy_exports

__all__ = _lazy_exports(__name__, {
    ".engine": ("Event", "Simulator"),
    ".host": ("Host",),
    ".link": ("Port",),
    ".network": ("Network", "QueueConfig"),
    ".packet": ("Packet", "make_ack", "DATA", "ACK", "GRANT", "PULL",
                "HEADER", "NACK", "CONTROL", "ACK_BYTES", "HEADER_BYTES",
                "NUM_PRIORITIES"),
    ".queues": ("PriorityMux", "QueueStats"),
    ".switch": ("Switch",),
    ".topology": ("Topology", "dumbbell", "fat_tree", "leaf_spine", "star"),
})
