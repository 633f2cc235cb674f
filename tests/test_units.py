"""Tests for unit helpers."""

import pytest

from repro.units import (
    bdp_bytes,
    bdp_packets,
    ecn_threshold_bytes,
    gbps,
    kb,
    mb,
    ms,
    ns,
    serialization_delay,
    us,
)


def test_time_helpers():
    assert ms(1) == pytest.approx(1e-3)
    assert us(1) == pytest.approx(1e-6)
    assert ns(1) == pytest.approx(1e-9)


def test_size_helpers():
    assert kb(1.5) == 1500
    assert mb(2) == 2_000_000


def test_rate_helpers():
    assert gbps(40) == 40e9


def test_serialization_delay():
    # 1500 bytes at 10 Gbps = 1.2 us
    assert serialization_delay(1500, gbps(10)) == pytest.approx(1.2e-6)


def test_bdp():
    # 40 Gbps * 20us = 100KB (integer truncation of the float product)
    assert bdp_bytes(gbps(40), us(20)) in (99_999, 100_000)
    assert bdp_packets(gbps(40), us(20), 1500) == 66


def test_bdp_packets_at_least_one():
    assert bdp_packets(gbps(1), ns(1), 1500) == 1


def test_ecn_threshold_eq3():
    # K = lambda * C * RTT: 0.17 * 10G * 80us / 8 = 17KB
    assert ecn_threshold_bytes(0.17, gbps(10), us(80)) == 17_000
