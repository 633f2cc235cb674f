"""Tests for Aeolus (Homa + selective dropping + probe recovery)."""

from conftest import make_ctx, make_star, run_single_flow
from repro.transport.aeolus import Aeolus, AeolusSender
from repro.transport.base import Flow


def configure_with_drop_threshold(scheme, topo, threshold):
    """The scheme's fabric set-up, then a harsher selective-drop
    threshold than its quarter-buffer default, set the way
    ``configure_network`` sets it."""
    scheme.configure_network(topo.network)
    for port in topo.network.ports:
        port.mux.selective_drop_threshold = threshold


def test_configure_network_sets_selective_drop():
    scheme = Aeolus(rtt_bytes=45_000)
    topo = make_star()
    scheme.configure_network(topo.network)
    for port in topo.network.ports:
        assert port.mux.selective_drop_threshold is not None


def test_unscheduled_packets_flagged_and_lowest_priority():
    topo = make_star()
    scheme = Aeolus(rtt_bytes=45_000)
    ctx = make_ctx(topo)
    sender = AeolusSender(Flow(0, 0, 1, 100_000, 0.0), ctx, scheme)

    class FakePort:
        def __init__(self):
            self.sent = []

        def send(self, pkt):
            self.sent.append(pkt)
            return True

    fake = FakePort()
    sender.host.uplink = fake
    sender.start()
    assert fake.sent
    assert all(p.unscheduled and p.priority == 7 for p in fake.sent)


def test_completion_with_selective_dropping():
    """Aggressive dropping of the pre-credit blast must be recovered via
    the probe + grant path, not just timeouts."""
    scheme = Aeolus(rtt_bytes=45_000)
    topo = make_star(3)
    ctx = make_ctx(topo)
    configure_with_drop_threshold(scheme, topo, 5_000)
    flows = [Flow(0, 0, 2, 200_000, 0.0), Flow(1, 1, 2, 200_000, 0.0)]
    for f in flows:
        scheme.start_flow(f, ctx)
    topo.sim.run(until=5.0)
    assert all(f.completed for f in flows)


def test_probe_recovers_faster_than_timeout():
    """With heavy selective dropping, completion should happen well
    before a full min_rto (the probe path recovers in ~RTTs)."""
    scheme = Aeolus(rtt_bytes=45_000)
    topo = make_star(3)
    ctx = make_ctx(topo, min_rto=50e-3)  # timeouts are very expensive
    configure_with_drop_threshold(scheme, topo, 4_000)
    f1 = Flow(0, 0, 2, 60_000, 0.0)
    f2 = Flow(1, 1, 2, 60_000, 0.0)
    scheme.start_flow(f1, ctx)
    scheme.start_flow(f2, ctx)
    topo.sim.run(until=1.0)
    assert f1.completed and f2.completed
    assert max(f1.fct, f2.fct) < 40e-3  # did not require the timeout


def test_single_flow_clean_path():
    flow, ctx, _ = run_single_flow(Aeolus(rtt_bytes=45_000), 150_000,
                                   until=2.0)
    assert flow.completed
