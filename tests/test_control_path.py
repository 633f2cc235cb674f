"""The ideal control path's one contract, held for every control sender.

Every endpoint that sends control packets resolves
``Network.control_sender(src, dst)`` on its first one and caches it: the
pair's bound ``ControlPipe.send``, or ``network.send_control`` itself
when a test patched it on the instance (the capture seam of the manager
tests) — also when the patch went in *after* the endpoint was built.
"""

from collections.abc import Collection, Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_ctx, make_star
from repro.core.ppt import PptReceiver
from repro.sim.host import Host
from repro.sim.network import ControlPipe
from repro.sim.packet import ACK, CONTROL, GRANT, PULL, Packet
from repro.transport.aeolus import Aeolus, AeolusSender
from repro.transport.base import Flow
from repro.transport.expresspass import ExpressPassReceiverHost
from repro.transport.homa import Homa, HomaReceiverHost
from repro.transport.ndp import NdpReceiverHost
from repro.transport.window import WindowReceiver

# Each case builds its endpoint for a flow 0 -> 1 and returns
# ``(fire, sending host, peer host, packet kind)``; ``fire()`` makes the
# endpoint send exactly one control packet at the current instant.


def data(seq, lcp=False):
    pkt = Packet(0, 0, 1, seq, 1500)
    pkt.lcp = lcp
    return pkt


def window_ack(ctx):
    receiver = WindowReceiver(Flow(0, 0, 1, 200_000, 0.0), ctx)
    return (lambda: receiver.on_packet(data(0))), 1, 0, ACK


def ppt_lp_ack(ctx):
    receiver = PptReceiver(Flow(0, 0, 1, 200_000, 0.0), ctx)

    def fire():  # the 2:1 rule: the second LP packet releases the ACK
        receiver.on_packet(data(50, lcp=True))
        receiver.on_packet(data(51, lcp=True))
    return fire, 1, 0, ACK


def homa_grant(ctx):
    manager = HomaReceiverHost(1, ctx, Homa(rtt_bytes=45_000))
    # 7 packets, all granted at open: a delivery earns only the
    # pure-acknowledgement grant
    manager.add_message(Flow(0, 0, 1, 10_000, 0.0))
    return (lambda: manager.on_data(data(0))), 1, 0, GRANT


def homa_final(ctx):
    manager = HomaReceiverHost(1, ctx, Homa(rtt_bytes=45_000))
    manager.add_message(Flow(0, 0, 1, 1_000, 0.0))    # one packet
    return (lambda: manager.on_data(data(0))), 1, 0, GRANT


def aeolus_probe(ctx):
    sender = AeolusSender(Flow(0, 0, 1, 200_000, 0.0), ctx,
                          Aeolus(rtt_bytes=45_000))
    sender._probes_sent = 0     # what start() sets, without its data blast
    return sender._send_probe, 0, 1, CONTROL


def ndp_pull(ctx):
    manager = NdpReceiverHost(1, ctx)
    manager.add_message(Flow(0, 0, 1, 150_000, 0.0), first_window=30)
    return (lambda: manager.on_data(data(0))), 1, 0, PULL


def expresspass_credit(ctx):
    manager = ExpressPassReceiverHost(1, ctx)
    state = manager.add_message(Flow(0, 0, 1, 1_000, 0.0))   # one credit
    return (lambda: manager.open_message(state)), 1, 0, CONTROL


SENDERS = [window_ack, ppt_lp_ack, homa_grant, homa_final, aeolus_probe,
           ndp_pull, expresspass_credit]
sender_cases = pytest.mark.parametrize(
    "build", SENDERS, ids=[build.__name__ for build in SENDERS])

T0 = 3.7e-6     # the endpoints fire at a non-zero clock


class Recorder:
    def __init__(self, sim):
        self.sim = sim
        self.got = []

    def on_packet(self, pkt):
        self.got.append((self.sim.now, pkt))


def built(build):
    topo = make_star(3)
    fire, src, dst, kind = build(make_ctx(topo))
    recorder = Recorder(topo.sim)
    topo.network.hosts[dst].register(0, recorder)
    topo.sim.run(until=T0)
    return topo.sim, topo.network, fire, src, dst, kind, recorder


@sender_cases
def test_control_packet_arrives_after_exactly_the_base_delay(build):
    sim, net, fire, src, dst, kind, recorder = built(build)
    ops = net.hosts[src].ops_sent
    fire()
    # the paced senders (pull, credit) release on a zero-delay event
    sim.run(until=T0 + net.base_delay(src, dst))
    ((arrived, pkt),) = recorder.got
    assert arrived == T0 + net.base_delay(src, dst)      # to the bit
    assert (pkt.kind, pkt.src, pkt.dst) == (kind, src, dst)
    assert net.hosts[src].ops_sent == ops + 1


@sender_cases
def test_a_patch_installed_after_the_endpoint_was_built_captures(build):
    sim, net, fire, src, dst, kind, recorder = built(build)
    captured = []
    net.send_control = captured.append
    ops = net.hosts[src].ops_sent
    fire()
    # past the would-be arrival, short of the Aeolus re-probe one RTT on
    sim.run(until=T0 + 1.5 * net.base_delay(src, dst))
    (pkt,) = captured
    assert (pkt.kind, pkt.src, pkt.dst) == (kind, src, dst)
    assert not recorder.got and net.hosts[src].ops_sent == ops


def in_flight(sim):
    """``(arrival, src, dst, seq)`` of every control packet on the
    ideal path: each is one direct heap entry handing the packet to
    its peer host."""
    return sorted((time, pkt.src, pkt.dst, pkt.seq)
                  for time, fn, pkt in sim.live_entries()
                  if getattr(fn, "__func__", None) is Host.receive_control)


def test_send_control_and_the_cached_sender_are_the_same_pipe():
    topo = make_star(3)
    sim, net = topo.sim, topo.network
    send = net.control_sender(2, 0)
    assert send == net.control_pipe(2, 0).send
    net.send_control(Packet(1, 2, 0, 0, 64, kind=ACK))
    send(Packet(1, 2, 0, 1, 64, kind=ACK))
    arrival = net.base_delay(2, 0)
    assert in_flight(sim) == [(arrival, 2, 0, 0), (arrival, 2, 0, 1)]
    assert net.hosts[2].ops_sent == 2
    recorder = Recorder(sim)
    net.hosts[0].register(1, recorder)
    sim.run()
    assert [(time, pkt.seq) for time, pkt in recorder.got] == [
        (arrival, 0), (arrival, 1)]                     # FIFO


def test_a_control_pipe_holds_no_container():
    """One pipe per host pair (20,592 on the 144-host fabric), so a pipe
    holds only its pair's constants: the packets it sends are heap
    entries, and nothing in a pipe grows with traffic or costs a
    container per pair."""
    net = make_star(3).network
    pipe = net.control_pipe(2, 0)
    for seq in range(3):
        pipe.send(Packet(1, 2, 0, seq, 64, kind=ACK))
    assert not hasattr(pipe, "__dict__") and not hasattr(pipe, "__len__")
    held = {name: getattr(pipe, name) for name in ControlPipe.__slots__}
    assert not [name for name, value in held.items()
                if isinstance(value, (Collection, Iterator))], held


# -- heap-key equivalence ---------------------------------------------------

PAIRS = [(0, 1), (1, 0), (2, 0), (0, 2)]
scripts = st.lists(st.one_of(
    st.tuples(st.just("control"), st.sampled_from(PAIRS)),
    st.tuples(st.just("schedule"), st.floats(0.0, 3e-5)),
    st.tuples(st.just("run"), st.floats(0.0, 3e-5)),
), max_size=60)


def drive(script, cached):
    """Play ``script`` on a fresh star; returns, after every step, the
    ``(time, seq)`` keys of the heap and the control packets in flight,
    plus the delivery log."""
    topo = make_star(3)
    sim, net = topo.sim, topo.network
    log = []
    for host in net.hosts.values():
        host.default_endpoint = Recorder(sim)
    senders = {}
    snapshots = []
    for n, (op, arg) in enumerate(script):
        if op == "control":
            pkt = Packet(n, arg[0], arg[1], n, 64, kind=ACK)
            if cached:
                send = senders.get(arg)
                if send is None:
                    send = senders[arg] = net.control_sender(*arg)
                send(pkt)
            else:
                net.send_control(pkt)
        elif op == "schedule":
            sim.schedule(arg, log.append, n)
        else:
            sim.run(until=sim.now + arg)
        snapshots.append((sorted(entry[:2] for entry in sim._heap),
                          in_flight(sim)))
    sim.run()
    delivered = {host_id: [(t, pkt.seq) for t, pkt in host.default_endpoint.got]
                 for host_id, host in net.hosts.items()}
    return snapshots, log, delivered, sim.events_run


@settings(max_examples=60, deadline=None)
@given(script=scripts)
def test_cached_sender_and_send_control_make_identical_heap_keys(script):
    assert drive(script, cached=True) == drive(script, cached=False)
