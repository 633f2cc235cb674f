#!/usr/bin/env python3
"""Visualise the dual-loop dynamics of one PPT flow (Fig. 5 style).

A large PPT flow shares a downlink with a competing DCTCP-like flow.
A probe samples the sender's congestion window, DCTCP's alpha and the
LCP loop's in-flight packets; this script renders them as ASCII strips so you can watch the sawtooth and the opportunistic windows
slotted into its troughs.

Run:
    python examples/dual_loop_timeline.py
"""

import functools

from repro import Flow, TransportConfig, TransportContext
from repro.core.ppt import Ppt, PptReceiver, PptSender
from repro.metrics import Probe
from repro.sim import star
from repro.sim.network import QueueConfig
from repro.transport.dctcp import Dctcp
from repro.units import gbps, us

BARS = " ._-=+*#"


def strip(values, lo, hi, width=100):
    if hi <= lo:
        hi = lo + 1
    step = max(1, len(values) // width)
    chars = []
    for i in range(0, len(values), step):
        v = values[i]
        idx = int((v - lo) / (hi - lo) * (len(BARS) - 1) + 0.5)
        chars.append(BARS[max(0, min(idx, len(BARS) - 1))])
    return "".join(chars)


def sender_state(sender):
    """(cwnd, alpha, LCP active, LCP in-flight, LCP loops opened) while
    the flow runs, None once it has finished."""
    if sender.finished:
        return None
    lcp = sender.lcp
    return (float(sender.cwnd), sender.alpha, lcp.active,
            len(lcp.outstanding), lcp.loops_opened)


def sawtooth_cuts(series) -> int:
    """Downward cwnd steps of at least 10% — a cheap proxy for DCTCP's
    window cuts."""
    return sum(1 for prev, cur in zip(series, series[1:]) if cur < prev * 0.9)


def main() -> None:
    qcfg = QueueConfig(buffer_bytes=120_000,
                       ecn_thresholds=[96_000] * 4 + [86_000] * 4)
    topo = star(3, rate=gbps(40), prop_delay=us(4), qcfg=qcfg)
    ctx = TransportContext(topo.sim, topo.network,
                           TransportConfig(min_rto=1e-3))

    flow = Flow(0, 0, 2, 4_000_000, 0.0)
    sender = PptSender(flow, ctx, Ppt())
    receiver = PptReceiver(flow, ctx)
    ctx.network.attach(0, 0, 2, sender, receiver)
    sender.start()
    probe = Probe(topo.sim, functools.partial(sender_state, sender), 4e-6)

    # a competing flow creates the congestion that makes alpha move
    Dctcp().start_flow(Flow(1, 1, 2, 4_000_000, 0.0), ctx)
    topo.sim.run(until=5.0)

    states = [state for _time, state in probe.samples if state is not None]
    cwnd = [state[0] for state in states]
    alpha = [state[1] for state in states]
    lcp = [float(state[3]) for state in states]
    duty = sum(state[2] for state in states) / len(states)

    print(f"flow completed in {flow.fct * 1e3:.3f}ms; "
          f"{sawtooth_cuts(cwnd)} window cuts; "
          f"LCP duty cycle {duty:.0%}; "
          f"{states[-1][4]} LCP loops opened\n")
    print(f"cwnd   (0..{max(cwnd):5.1f}) |{strip(cwnd, 0, max(cwnd))}|")
    print(f"alpha  (0..{max(alpha):5.2f}) |{strip(alpha, 0, max(alpha))}|")
    print(f"LCP-in (0..{max(lcp):5.0f}) |{strip(lcp, 0, max(lcp) or 1)}|")
    print("\nRead: HCP's sawtooth on top; LCP bursts appear where the "
          "sawtooth dips (spare bandwidth) and vanish under congestion.")


if __name__ == "__main__":
    main()
