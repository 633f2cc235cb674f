"""Unit helpers for the simulator.

Internally the simulator uses SI base units throughout:

* time    — seconds (float)
* size    — bytes (int)
* rate    — bits per second (float)

These helpers exist so that scenario code reads like the paper
("40 Gbps links, 120 KB buffers, 80 us RTT") instead of a soup of
magic exponents.
"""

from __future__ import annotations

# --- time -------------------------------------------------------------

SECONDS = 1.0
MILLISECONDS = 1e-3
MICROSECONDS = 1e-6
NANOSECONDS = 1e-9


def ms(value: float) -> float:
    """Milliseconds to seconds."""
    return value * MILLISECONDS


def us(value: float) -> float:
    """Microseconds to seconds."""
    return value * MICROSECONDS


def ns(value: float) -> float:
    """Nanoseconds to seconds."""
    return value * NANOSECONDS


# --- size -------------------------------------------------------------

BYTE = 1
KB = 1000
MB = 1000 * 1000
GB = 1000 * 1000 * 1000
KIB = 1024
MIB = 1024 * 1024


def kb(value: float) -> int:
    """Kilobytes (decimal) to bytes."""
    return int(value * KB)


def mb(value: float) -> int:
    """Megabytes (decimal) to bytes."""
    return int(value * MB)


# --- rate -------------------------------------------------------------

GBPS = 1e9


def gbps(value: float) -> float:
    """Gigabits per second to bits per second."""
    return value * GBPS


# --- derived quantities ------------------------------------------------


def serialization_delay(size_bytes: int, rate_bps: float) -> float:
    """Time to clock ``size_bytes`` onto a link of ``rate_bps``."""
    return size_bytes * 8.0 / rate_bps


def bdp_bytes(rate_bps: float, rtt_s: float) -> int:
    """Bandwidth-delay product in bytes."""
    return int(rate_bps * rtt_s / 8.0)


def bdp_packets(rate_bps: float, rtt_s: float, mtu_bytes: int) -> int:
    """Bandwidth-delay product in MTU-sized packets (at least 1)."""
    return max(1, bdp_bytes(rate_bps, rtt_s) // mtu_bytes)


def ecn_threshold_bytes(lam: float, rate_bps: float, rtt_s: float) -> int:
    """Paper Eq. (3): K = lambda * C * RTT, in bytes."""
    return int(lam * rate_bps * rtt_s / 8.0)
