"""Unit tests for the packet model."""

from repro.sim.packet import (
    ACK,
    ACK_BYTES,
    DATA,
    HEADER,
    HEADER_BYTES,
    Packet,
    make_ack,
)


def test_packet_defaults():
    pkt = Packet(flow_id=7, src=1, dst=2, seq=3, size=1500)
    assert pkt.kind == DATA
    assert pkt.priority == 0
    assert pkt.ecn_capable
    assert not pkt.ecn_ce
    assert not pkt.lcp
    assert not pkt.unscheduled
    assert pkt.sack is None
    assert pkt.int_records is None


def test_trim_converts_to_header():
    pkt = Packet(1, 0, 1, 5, 1500, priority=6)
    pkt.trim()
    assert pkt.kind == HEADER
    assert pkt.size == HEADER_BYTES
    assert pkt.priority == 0
    assert pkt.seq == 5  # identity preserved for retransmission request


def test_make_ack_reverses_direction():
    data = Packet(9, src=3, dst=8, seq=4, size=1500)
    data.sent_at = 1.5e-3
    ack = make_ack(data, ack_seq=2)
    assert ack.kind == ACK
    assert ack.src == 8 and ack.dst == 3
    assert ack.seq == 4
    assert ack.ack_seq == 2
    assert ack.size == ACK_BYTES
    assert ack.sent_at == 1.5e-3


def test_make_ack_echoes_ce_and_lcp():
    data = Packet(9, 0, 1, 0, 1500)
    data.ecn_ce = True
    data.lcp = True
    ack = make_ack(data, ack_seq=0)
    assert ack.ecn_ce
    assert ack.lcp


def test_make_ack_priority_override():
    data = Packet(9, 0, 1, 0, 1500, priority=2)
    assert make_ack(data, 0).priority == 2
    assert make_ack(data, 0, priority=7).priority == 7


def test_make_ack_carries_int_records():
    data = Packet(9, 0, 1, 0, 1500)
    data.int_records = [(100, 200, 0.1, 40e9)]
    ack = make_ack(data, 0)
    assert ack.int_records == [(100, 200, 0.1, 40e9)]


def test_repr_smoke():
    pkt = Packet(1, 0, 1, 0, 1500)
    pkt.ecn_ce = True
    pkt.lcp = True
    text = repr(pkt)
    assert "DATA" in text and "CE" in text and "lcp" in text
