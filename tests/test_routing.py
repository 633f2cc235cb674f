"""Unit and property tests for ECMP hashing and the spray, flowlet and
CONGA load balancers."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_leaf_spine
from repro.sim.packet import Packet
from repro.sim.routing import (
    CongaBalancer,
    FlowletBalancer,
    SprayBalancer,
    ecmp_hash,
    flowlet_hash,
    make_balancer,
)


class _FakeMux:
    def __init__(self, occupancy=0):
        self.occupancy = occupancy


class _FakePort:
    def __init__(self, occupancy=0):
        self.mux = _FakeMux(occupancy)


def test_single_choice_is_zero():
    assert ecmp_hash(123, 4, 1) == 0
    assert ecmp_hash(123, 4, 0) == 0


def test_deterministic():
    assert ecmp_hash(42, 7, 8) == ecmp_hash(42, 7, 8)


def test_different_switches_decorrelated():
    """Two switches should not always pick the same index for the same
    flows (independent hash seeds)."""
    picks_a = [ecmp_hash(f, 1, 4) for f in range(200)]
    picks_b = [ecmp_hash(f, 2, 4) for f in range(200)]
    assert picks_a != picks_b


def test_distribution_roughly_uniform():
    n_choices = 4
    counts = Counter(ecmp_hash(f, 0, n_choices) for f in range(4000))
    for choice in range(n_choices):
        assert 800 <= counts[choice] <= 1200  # 1000 +- 20%


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.integers(0, 64),
       st.integers(min_value=1, max_value=16))
def test_hash_in_range(flow_id, switch_id, n):
    assert 0 <= ecmp_hash(flow_id, switch_id, n) < n


def _spray(spray, n):
    return spray.choose(0, [_FakePort() for _ in range(n)], 0.0, 0)


def test_spray_counter_round_robin():
    spray = SprayBalancer()
    picks = [_spray(spray, 3) for _ in range(6)]
    assert picks == [0, 1, 2, 0, 1, 2]
    assert spray.repins == 0


def test_spray_counter_single_choice():
    """A destination with one candidate never consults the balancer, so
    it does not advance the counter the multipath destinations share:
    cross-leaf packets interleaved with intra-leaf ones still alternate
    over the two spines."""
    topo = make_leaf_spine(n_spine=2)
    net = topo.network
    net.set_load_balancer(SprayBalancer)
    sink = type("E", (), {"on_packet": staticmethod(lambda p: None)})()
    local, remote = 1, topo.n_hosts - 1
    for host in (local, remote):
        net.hosts[host].default_endpoint = sink
    for seq in range(20):
        net.hosts[0].send(Packet(7, 0, local, seq, 1500))
        net.hosts[0].send(Packet(7, 0, remote, seq, 1500))
    topo.sim.run()
    spine_ports = [p for p in net.ports if p.name.startswith("leaf0->spine")]
    assert [p.pkts_sent for p in spine_ports] == [10, 10]


def test_ecmp_uniformity_chi_squared():
    """Sequential flow ids must hash uniformly: Pearson chi-squared over
    8 bins, 16000 draws.  Critical value at df=7, p=0.001 is 24.3; a
    weak mixer (e.g. hashing the raw flow id) scores in the thousands."""
    n_choices = 8
    n_draws = 16_000
    counts = Counter(ecmp_hash(f, 3, n_choices) for f in range(n_draws))
    expected = n_draws / n_choices
    chi2 = sum((counts[c] - expected) ** 2 / expected
               for c in range(n_choices))
    assert chi2 < 24.3, f"chi-squared {chi2:.1f} over {n_choices} bins"


def test_flowlet_hash_zero_flowlet_is_ecmp():
    for flow_id in range(50):
        for n in (1, 2, 4, 7):
            assert flowlet_hash(flow_id, 5, 0, n) == ecmp_hash(flow_id, 5, n)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.integers(0, 64),
       st.integers(min_value=1, max_value=16),
       st.lists(st.floats(min_value=0, max_value=1.0), min_size=1,
                max_size=20))
def test_flowlet_infinite_gap_is_per_flow_ecmp(flow_id, switch_id, n, gaps):
    """With an infinite idle gap a flow never re-pins, so the flowlet
    balancer must reproduce per-flow ECMP exactly — the property that
    makes the default mode bit-identical."""
    lb = FlowletBalancer(gap=math.inf)
    candidates = [_FakePort() for _ in range(n)]
    now = 0.0
    for gap in gaps:
        now += gap
        assert (lb.choose(flow_id, candidates, now, switch_id)
                == ecmp_hash(flow_id, switch_id, n))
    assert lb.repins == 0


def test_flowlet_single_path_within_gap():
    """Packets inside one flowlet (inter-arrival < gap) stay on one
    path; only an idle gap longer than the threshold re-pins."""
    lb = FlowletBalancer(gap=1e-3)
    candidates = [_FakePort() for _ in range(4)]
    first = lb.choose(7, candidates, 0.0, 0)
    for i in range(1, 20):
        assert lb.choose(7, candidates, i * 1e-4, 0) == first
    assert lb.repins == 0
    repinned = lb.choose(7, candidates, 0.1, 0)
    assert lb.repins == 1
    assert repinned == flowlet_hash(7, 0, 1, 4)


def test_spray_wrap_bit_identical_to_unbounded():
    """The modulo wrap must not change a single choice: run a bounded
    and an unbounded counter through the 720720 boundary with a mixed
    fan-out schedule and demand identical sequences."""
    bounded = SprayBalancer()
    unbounded_value = 0
    fanouts = [2, 3, 4, 7, 8, 16]
    candidates = {n: [_FakePort() for _ in range(n)] for n in fanouts}
    for i in range(1_500_000):
        n = fanouts[i % len(fanouts)]
        expected = unbounded_value % n
        unbounded_value += 1
        assert bounded.choose(i, candidates[n], 0.0, 0) == expected
    assert bounded._value < 720_720 * 16  # bounded even after 1.5M picks


def test_spray_wrap_extends_for_non_dividing_fanout():
    """720720 = lcm(1..16); a fan-out outside that range extends the
    modulus instead of breaking round-robin fairness."""
    spray = SprayBalancer()
    picks = [_spray(spray, 17) for _ in range(34)]
    assert picks == list(range(17)) * 2
    # widened to lcm(1..17); the wrap still never perturbs a choice
    assert spray._modulus == 720_720 * 17


def test_conga_picks_least_congested():
    lb = CongaBalancer(gap=1e-3)
    candidates = [_FakePort(500), _FakePort(100), _FakePort(300)]
    assert lb.choose(1, candidates, 0.0, 0) == 1
    # ties break to the lowest index, deterministically
    lb2 = CongaBalancer(gap=1e-3)
    assert lb2.choose(1, [_FakePort(5), _FakePort(5)], 0.0, 0) == 0


def test_conga_rechooses_when_routes_added():
    """Cache correctness: a path pinned before more equal-cost routes
    appeared must be re-evaluated against the full candidate set —
    the stale-cache bug the ECMP memo removal also fixes."""
    lb = CongaBalancer(gap=10.0)
    candidates = [_FakePort(500)]
    assert lb.choose(1, candidates, 0.0, 0) == 0
    candidates.append(_FakePort(0))  # a better route comes up
    assert lb.choose(1, candidates, 1e-6, 0) == 1


def test_conga_repins_after_idle_gap():
    lb = CongaBalancer(gap=1e-3)
    candidates = [_FakePort(100), _FakePort(500)]
    assert lb.choose(1, candidates, 0.0, 0) == 0
    candidates[0].mux.occupancy = 900
    # within the gap: pinned to the old path despite the new occupancy
    assert lb.choose(1, candidates, 1e-4, 0) == 0
    # after an idle gap: re-reads congestion and moves
    assert lb.choose(1, candidates, 0.1, 0) == 1
    assert lb.repins == 1


def test_make_balancer():
    assert make_balancer("ecmp") is None
    assert isinstance(make_balancer("flowlet"), FlowletBalancer)
    assert isinstance(make_balancer("conga"), CongaBalancer)
    custom = make_balancer("flowlet", gap=2e-3)
    assert custom.gap == 2e-3
    try:
        make_balancer("nope")
    except ValueError:
        pass
    else:
        raise AssertionError("unknown balancer must raise")


@pytest.mark.parametrize("mode", ["flowlet", "conga"])
def test_make_balancer_rejects_nan_gap(mode):
    """NaN passes a ``<= 0`` check, and no idle time exceeds a NaN gap,
    so the balancer silently never re-pinned."""
    with pytest.raises(ValueError, match="flowlet gap"):
        make_balancer(mode, gap=math.nan)
