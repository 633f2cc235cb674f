"""Canonical scenario builders for every experiment in the paper.

Scale note: the paper's fabrics (144 hosts, thousands of flows, seconds
of simulated traffic) would take hours per scheme in pure Python, so the
default scenarios here are *scaled replicas*: the same topology shape,
link-speed ratio, oversubscription, buffer/ECN settings and workloads,
with fewer hosts and a few hundred flows, and heavy-tailed size
distributions capped so a run finishes in seconds.  Every builder takes
overrides, so the full-size configuration is one call away (see
``examples/full_scale.py``).  Beyond its own parameters each
``*_scenario`` builder accepts, as ``**shared``, the keywords
:func:`_traffic_scenario` declares once: faults, event budget,
streaming and tenant switches, load balancer, PFC and hybrid.

The arrival *load* is always preserved — capping sizes feeds the capped
mean back into the Poisson arrival rate (see
:class:`repro.workloads.PoissonFlowStream`).
"""

from __future__ import annotations

import functools
import importlib
import math
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Tuple, Union)

from ..core.ppt import Ppt
from ..sim.network import QueueConfig
from ..sim.queues import PfcConfig
from ..sim.routing import make_balancer
from ..sim.topology import Topology, dumbbell, leaf_spine, star
from ..transport.base import Flow, Scheme, TransportConfig
from ..transport.dctcp import Dctcp
from ..units import gbps, kb, mb, us
from ..workloads.distributions import EmpiricalCdf, WEB_SEARCH
from ..workloads.patterns import PairSampler, all_to_all, incast
from ..workloads.streams import FlowStream, TenantClass, flow_stream

#: The return type every ``build_flows`` closure may now produce.
FlowSource = Union[List[Flow], FlowStream]
from .runner import Scenario

if TYPE_CHECKING:
    from ..faults.plan import FaultPlan
    from ..sim.hybrid import HybridConfig

# ---------------------------------------------------------------------------
# fabric builders
# ---------------------------------------------------------------------------

SIM_BUFFER = 120_000          # per-port buffer, §6.2
SIM_K_HIGH = 96_000           # HCP marking threshold, §6.2
SIM_K_LOW = 86_000            # LCP marking threshold, §6.2
TESTBED_BUFFER = 925_000      # 50MB shared by 54 ports (Table 3)
TESTBED_K_HIGH = 100_000      # Table 3
TESTBED_K_LOW = 80_000        # Table 3
DEFAULT_SIZE_CAP = 2_000_000  # flow-size cap for the scaled scenarios

# Lossless (RoCEv2-style) fabric settings for the scaled leaf-spine: ECN
# engages first (the DCQCN/HPCC congestion signal), PFC backstops it —
# XOFF above the marking threshold, XON halfway down, and headroom sized
# for every ingress port's pause-propagation in-flight bytes several
# times over so a lossless class can never drop.
SIM_PFC = PfcConfig(xoff_bytes=60_000, xon_bytes=30_000,
                    headroom_bytes=480_000)
SIM_LOSSLESS_K_HIGH = 40_000  # mark well below XOFF: ECN before PAUSE
SIM_LOSSLESS_K_LOW = 35_000


def _with_features(
    fabric: Callable[[], Topology],
    *,
    lb: str = "ecmp",
    lb_gap: Optional[float] = None,
    pfc_config: Optional[PfcConfig] = None,
) -> Callable[[], Topology]:
    """Wrap a fabric builder with PFC / load-balancer configuration
    (a ``pfc_config`` switches PFC on; ``lb_gap`` is the flowlet idle
    gap, refused under a balancer without flowlets).

    With everything at defaults the original closure is returned
    untouched, so scenarios without these features stay bit-identical
    object-for-object.
    """
    if lb_gap is not None and lb not in ("flowlet", "conga"):
        raise ValueError(f"lb_gap is a flowlet idle gap: it needs lb "
                         f"'flowlet' or 'conga', not {lb!r}")
    if lb == "ecmp" and pfc_config is None:
        return fabric

    def build() -> Topology:
        topo = fabric()
        if pfc_config is not None:
            topo.network.enable_pfc(pfc_config)
        if lb != "ecmp":
            topo.network.set_load_balancer(
                functools.partial(make_balancer, lb, lb_gap))
        return topo

    return build


def sim_qcfg(buffer_bytes: int = SIM_BUFFER, k_high: int = SIM_K_HIGH,
             k_low: int = SIM_K_LOW, **kwargs) -> QueueConfig:
    return QueueConfig(buffer_bytes=buffer_bytes,
                       ecn_thresholds=[k_high] * 4 + [k_low] * 4, **kwargs)


def sim_fabric(
    *,
    n_leaf: int = 4,
    n_spine: int = 2,
    hosts_per_leaf: int = 8,
    edge_rate: float = gbps(40),
    core_rate: float = gbps(100),
    prop_delay: float = us(2),
    qcfg: Optional[QueueConfig] = None,
) -> Callable[[], Topology]:
    """Scaled replica of the §6.2 oversubscribed 40/100G fabric."""
    qcfg = qcfg or sim_qcfg()

    def build() -> Topology:
        return leaf_spine(n_leaf=n_leaf, n_spine=n_spine,
                          hosts_per_leaf=hosts_per_leaf,
                          edge_rate=edge_rate, core_rate=core_rate,
                          prop_delay=prop_delay, qcfg=qcfg)

    return build


def sim_fabric_100_400g(**overrides) -> Callable[[], Topology]:
    """Fig. 22's higher-line-rate variant."""
    params = dict(edge_rate=gbps(100), core_rate=gbps(400))
    params.update(overrides)
    return sim_fabric(**params)


def sim_fabric_non_oversubscribed(**overrides) -> Callable[[], Topology]:
    """Appendix E: 10G edge / 40G core, fully provisioned."""
    params = dict(edge_rate=gbps(10), core_rate=gbps(40),
                  qcfg=sim_qcfg(k_high=30_000, k_low=25_000))
    params.update(overrides)
    return sim_fabric(**params)


def testbed_fabric(n_hosts: int = 15) -> Callable[[], Topology]:
    """The CloudLab testbed stand-in: 15 hosts, one switch, 10G, ~80us RTT."""
    qcfg = QueueConfig(buffer_bytes=TESTBED_BUFFER,
                       ecn_thresholds=[TESTBED_K_HIGH] * 4 + [TESTBED_K_LOW] * 4)

    def build() -> Topology:
        return star(n_hosts, rate=gbps(10), prop_delay=us(19), qcfg=qcfg)

    return build


def star_fabric(
    n_hosts: int = 8,
    *,
    rate: float = gbps(10),
    prop_delay: float = us(10),
    qcfg: Optional[QueueConfig] = None,
) -> Callable[[], Topology]:
    """A small single-switch star (validation-matrix topology #1)."""
    qcfg = qcfg or sim_qcfg()

    def build() -> Topology:
        return star(n_hosts, rate=rate, prop_delay=prop_delay, qcfg=qcfg)

    return build


def dumbbell_fabric(
    *,
    rate: float = gbps(10),
    bottleneck_rate: Optional[float] = None,
    prop_delay: float = us(10),
    qcfg: Optional[QueueConfig] = None,
) -> Callable[[], Topology]:
    """host0–sw0–sw1–host1 (validation-matrix topology #2; also the
    HPCC INT regression fixture — exactly two switch hops each way)."""
    qcfg = qcfg or sim_qcfg()

    def build() -> Topology:
        return dumbbell(rate=rate, bottleneck_rate=bottleneck_rate,
                        prop_delay=prop_delay, qcfg=qcfg)

    return build


def dumbbell_scenario(
    name: str,
    cdf: EmpiricalCdf = WEB_SEARCH,
    *,
    load: float = 0.5,
    n_flows: int = 40,
    bottleneck_rate: Optional[float] = None,
    config: Optional[TransportConfig] = None,
    size_cap: Optional[int] = DEFAULT_SIZE_CAP,
    seed: int = 13,
    max_time: float = 10.0,
    **shared,
) -> Scenario:
    """Poisson traffic host0 -> host1 across the dumbbell bottleneck."""
    return _traffic_scenario(
        name, dumbbell_fabric(bottleneck_rate=bottleneck_rate),
        lambda topo: (incast([0], 1), 1, n_flows), cdf,
        load=load, seed=seed, size_cap=size_cap,
        config=config or sim_config(), max_time=max_time, **shared)


def micro_fabric(rate: float = gbps(40),
                 buffer_bytes: int = 250_000,
                 k_high: int = 120_000,
                 k_low: int = 100_000) -> Callable[[], Topology]:
    """The 2-sender/1-receiver microbenchmark fabric (Figs 1, 20, 28, 29)."""
    qcfg = sim_qcfg(buffer_bytes, k_high, k_low)

    def build() -> Topology:
        return star(3, rate=rate, prop_delay=us(5), qcfg=qcfg)

    return build


# ---------------------------------------------------------------------------
# the tail every traffic scenario shares
# ---------------------------------------------------------------------------


def _traffic_scenario(
    name: str,
    fabric: Callable[[], Topology],
    traffic: Callable[[Topology], Tuple[PairSampler, int, int]],
    cdf: EmpiricalCdf,
    *,
    load: float,
    seed: int,
    size_cap: Optional[int],
    config: TransportConfig,
    max_time: float,
    faults: Optional[FaultPlan] = None,
    event_budget: Optional[int] = None,
    stream: bool = False,
    tenants: Optional[Sequence[TenantClass]] = None,
    lb: str = "ecmp",
    lb_gap: Optional[float] = None,
    pfc_config: Optional[PfcConfig] = None,
    hybrid: Optional[HybridConfig] = None,
) -> Scenario:
    """Poisson traffic at a constant load on a fabric (§6.1): the one
    place that owns the keywords every public builder below accepts
    through ``**shared`` — ``faults``, ``event_budget``, the flow-source
    switches (``stream``, ``tenants``) and the fabric features (``lb``,
    ``lb_gap``, ``pfc_config``, ``hybrid``).

    ``traffic(topo)`` is what a builder varies: the pair pattern, the
    number of senders the load is defined against, and the flow count.

    The flows are drawn by :func:`~repro.workloads.flow_stream`.
    ``stream=True`` hands that constant-memory
    :class:`~repro.workloads.FlowStream` to the runner, which pulls it
    lazily; otherwise it is drained into a list up front.  Both give
    the same run for the same seed.
    """

    def build_flows(topo: Topology) -> FlowSource:
        pattern, n_senders, n_flows = traffic(topo)
        source = flow_stream(pattern, cdf, load=load,
                             link_rate=topo.edge_rate, n_flows=n_flows,
                             n_senders=n_senders, seed=seed,
                             size_cap=size_cap, tenants=tenants)
        return source if stream else source.materialize()

    return Scenario(name,
                    _with_features(fabric, lb=lb, lb_gap=lb_gap,
                                   pfc_config=pfc_config),
                    build_flows, config=config, max_time=max_time,
                    faults=faults, event_budget=event_budget, hybrid=hybrid)


# ---------------------------------------------------------------------------
# transport configs
# ---------------------------------------------------------------------------


def sim_config(**overrides) -> TransportConfig:
    """Large-scale-simulation defaults (§6.2): 2GB send buffer, 1ms RTO."""
    params = dict(min_rto=1e-3, send_buffer_bytes=2_000_000_000,
                  identification_threshold=100_000,
                  demotion_thresholds=(100_000, 400_000, 1_000_000))
    params.update(overrides)
    return TransportConfig(**params)


def testbed_config(**overrides) -> TransportConfig:
    """Testbed defaults (Table 3): RTOmin 10ms, 100KB thresholds."""
    params = dict(min_rto=10e-3, send_buffer_bytes=2_000_000_000,
                  identification_threshold=100_000,
                  demotion_thresholds=(100_000, 400_000, 1_000_000))
    params.update(overrides)
    return TransportConfig(**params)


# ---------------------------------------------------------------------------
# scenario builders
# ---------------------------------------------------------------------------


def all_to_all_scenario(
    name: str,
    cdf: EmpiricalCdf,
    *,
    load: float = 0.5,
    n_flows: int = 150,
    fabric: Optional[Callable[[], Topology]] = None,
    config: Optional[TransportConfig] = None,
    size_cap: Optional[int] = DEFAULT_SIZE_CAP,
    seed: int = 7,
    max_time: float = 10.0,
    **shared,
) -> Scenario:
    """All-to-all Poisson traffic on a fabric (the §6.2 shape)."""
    return _traffic_scenario(
        name, fabric or sim_fabric(),
        lambda topo: (all_to_all(topo.host_ids()), topo.n_hosts, n_flows),
        cdf, load=load, seed=seed, size_cap=size_cap,
        config=config or sim_config(), max_time=max_time, **shared)


def incast_scenario(
    name: str,
    cdf: EmpiricalCdf,
    *,
    n_senders: int,
    load: float = 0.5,
    n_flows: int = 120,
    fabric: Optional[Callable[[], Topology]] = None,
    config: Optional[TransportConfig] = None,
    size_cap: Optional[int] = DEFAULT_SIZE_CAP,
    seed: int = 11,
    max_time: float = 20.0,
    **shared,
) -> Scenario:
    """N-to-1 incast into host 0: the load is defined against its
    downlink."""
    if n_senders < 1:
        raise ValueError(f"n_senders must be >= 1, got {n_senders!r}")

    def traffic(topo: Topology):
        senders = [h for h in topo.host_ids() if h != 0]
        if n_senders > len(senders):
            raise ValueError(
                f"n_senders must be at most {len(senders)} (the "
                f"{topo.n_hosts}-host fabric but its receiver), "
                f"got {n_senders!r}")
        return incast(senders[:n_senders], 0), 1, n_flows

    return _traffic_scenario(
        name, fabric or sim_fabric(), traffic, cdf,
        load=load, seed=seed, size_cap=size_cap,
        config=config or sim_config(), max_time=max_time, **shared)


def two_to_one_scenario(
    name: str,
    cdf: EmpiricalCdf = WEB_SEARCH,
    *,
    load: float = 0.5,
    n_flows: int = 120,
    rate: float = gbps(40),
    k_high: int = 120_000,
    k_low: int = 100_000,
    buffer_bytes: int = 250_000,
    size_cap: Optional[int] = 3_000_000,
    seed: int = 3,
    max_time: float = 30.0,
    **shared,
) -> Scenario:
    """The Fig 1/20/28/29 microbenchmark: two senders, one receiver."""
    return _traffic_scenario(
        name, micro_fabric(rate, buffer_bytes, k_high, k_low),
        lambda topo: (incast([0, 1], 2), 1, n_flows), cdf,
        load=load, seed=seed, size_cap=size_cap, config=sim_config(),
        max_time=max_time, **shared)


def testbed_scenario(
    name: str,
    cdf: EmpiricalCdf,
    *,
    load: float = 0.5,
    n_flows: int = 120,
    pattern: str = "all-to-all",   # or "incast" (the 14-to-1 pattern)
    size_cap: Optional[int] = DEFAULT_SIZE_CAP,
    seed: int = 5,
    max_time: float = 60.0,
    **shared,
) -> Scenario:
    """The §6.1 testbed experiments: 15 hosts, 10G star, RTOmin 10ms."""

    def traffic(topo: Topology):
        hosts = topo.host_ids()
        if pattern == "incast":
            return incast(hosts[1:], hosts[0]), 1, n_flows
        return all_to_all(hosts), topo.n_hosts, n_flows

    return _traffic_scenario(
        name, testbed_fabric(), traffic, cdf,
        load=load, seed=seed, size_cap=size_cap, config=testbed_config(),
        max_time=max_time, **shared)


# ---------------------------------------------------------------------------
# long-horizon soak (repro.resilience)
# ---------------------------------------------------------------------------


def soak_fault_plan(
    horizon: float,
    *,
    period: float = 300.0,
) -> FaultPlan:
    """A repeating fault schedule that fires throughout ``horizon``.

    Every ``period`` simulated seconds one fault lands, rotating through
    the three injector families — a blackout of ``sw0->host1``, a
    Bernoulli loss window on ``host2->sw0``, a rate degrade of
    ``sw0->host3`` — so a soak exercises *every* fault path many
    times, not once.  Windows are short relative to ``period`` (a tenth)
    so the fabric keeps making progress and the run-health watchdog's
    fault grace never masks a real stall for long.
    """
    if not 0.0 < horizon < math.inf:
        raise ValueError(
            f"horizon must be positive and finite, got {horizon!r}")
    if not 0.0 < period < math.inf:
        raise ValueError(
            f"period must be positive and finite, got {period!r}")
    from ..faults.plan import FaultPlan, LinkDown, PacketLoss, RateDegrade
    events: List[object] = []
    width = period / 10.0
    t = period / 2.0
    k = 0
    while t < horizon:
        kind = k % 3
        if kind == 0:
            events.append(LinkDown("sw0->host1", t, min(width, 0.05)))
        elif kind == 1:
            events.append(PacketLoss("host2->sw0", 0.02, t, t + width))
        else:
            events.append(RateDegrade("sw0->host3", 0.25, t, t + width))
        k += 1
        t += period
    return FaultPlan(events, seed=17)


def soak_scenario(
    name: str = "soak",
    cdf: EmpiricalCdf = WEB_SEARCH,
    *,
    horizon: float = 3600.0,
    load: float = 0.05,
    n_hosts: int = 4,
    rate: float = gbps(0.01),
    size_cap: Optional[int] = 200_000,
    seed: int = 23,
    fault_period: Optional[float] = 300.0,
    faults: Optional[FaultPlan] = None,
    config: Optional[TransportConfig] = None,
    **shared,
) -> Scenario:
    """Hours of simulated time on a slow star, faults firing throughout.

    Built for :mod:`repro.resilience`: the flow count is derived from
    ``horizon`` so the Poisson arrival process spans ~90% of it (the
    last 10% lets the tail complete), the link rate is deliberately low
    so an hour of simulated time stays a few million events, and
    ``fault_period`` (``None`` disables) lays a
    :func:`soak_fault_plan` over the whole horizon (an explicit
    ``faults`` plan takes precedence).  Designed to run
    under ``--validate`` with periodic checkpoints — see
    ``docs/robustness.md``.
    """
    if not 0.0 < horizon < math.inf:
        raise ValueError(
            f"horizon must be positive and finite, got {horizon!r}")
    if faults is None and fault_period is not None:
        faults = soak_fault_plan(horizon, period=fault_period)

    def traffic(topo: Topology):
        hosts = topo.host_ids()
        mean_size = cdf.mean(size_cap)
        # arrival rate the generator will use (flows/sec); size it so
        # arrivals span ~90% of the horizon
        arrival_rate = load * len(hosts) * topo.edge_rate / (8.0 * mean_size)
        n_flows = max(2, int(arrival_rate * horizon * 0.9))
        return all_to_all(hosts), len(hosts), n_flows

    # The default 1ms RTO assumes a 40G fabric; at soak rates a single
    # 1500B serialization takes longer than that, so every un-ACKed
    # packet would fire a spurious RTO.  Scale RTOmin well past the slow
    # star's base RTT (~5ms at the default 10 Mbps).
    if config is None:
        config = sim_config(min_rto=0.05)
    # The stall watchdog window scales with the slice length
    # (horizon/200), so sparse soak traffic with multi-second arrival
    # gaps is already tolerated; faults get their usual grace on top.
    return _traffic_scenario(
        name, star_fabric(n_hosts, rate=rate), traffic, cdf,
        load=load, seed=seed, size_cap=size_cap, config=config,
        max_time=horizon, faults=faults, **shared)


# ---------------------------------------------------------------------------
# lossless Ethernet (RoCEv2-style) scenarios
# ---------------------------------------------------------------------------


def lossless_fabric(**overrides) -> Callable[[], Topology]:
    """The scaled leaf-spine tuned for lossless operation.

    ECN thresholds are pulled below the PFC XOFF point so DCQCN/HPCC see
    congestion marks before any PAUSE fires — PFC is the backstop, not
    the congestion signal, exactly as RoCEv2 deployments tune it.
    """
    params = dict(qcfg=sim_qcfg(k_high=SIM_LOSSLESS_K_HIGH,
                                k_low=SIM_LOSSLESS_K_LOW))
    params.update(overrides)
    return sim_fabric(**params)


def lossless_scenario(
    name: str,
    cdf: EmpiricalCdf = WEB_SEARCH,
    *,
    n_senders: int = 12,
    load: float = 0.6,
    n_flows: int = 120,
    seed: int = 11,
    max_time: float = 20.0,
    pfc_config: Optional[PfcConfig] = None,
    **overrides,
) -> Scenario:
    """RoCEv2-style incast on a PFC-enabled leaf-spine.

    The sender set spans two leaves (12 senders > 7 same-leaf peers of
    the receiver), so pauses propagate leaf -> spine -> leaf and the
    lossless guarantee is exercised across the core, not just on one
    edge queue.  Pair with DCQCN or HPCC, the schemes designed for this
    fabric.
    """
    return incast_scenario(
        name, cdf, n_senders=n_senders, load=load, n_flows=n_flows,
        fabric=lossless_fabric(), seed=seed, max_time=max_time,
        pfc_config=pfc_config or SIM_PFC, **overrides)


def pfc_storm_scenario(
    name: str,
    cdf: EmpiricalCdf = WEB_SEARCH,
    **overrides,
) -> Scenario:
    """A lossless incast with a malfunctioning-NIC PFC storm layered on.

    The storm jams ``leaf0->host0`` (the victim receiver's downlink) in
    the paused state from 2 ms to 6 ms; the leaf's shared buffer backs
    up, the leaf pauses its own ingress — spine downlinks included — and
    head-of-line blocking cascades fabric-wide until the window closes.  This is the
    classic PFC failure mode (RoCEv2 deployment papers' motivating
    incident) and the reason `repro.faults` grew a pause injector.
    """
    from ..faults.plan import FaultPlan, PfcStorm
    plan = FaultPlan([PfcStorm("leaf0->host0", 0.002, 0.004)])
    return lossless_scenario(name, cdf, faults=plan, **overrides)


# ---------------------------------------------------------------------------
# the scheme registry (paper settings)
# ---------------------------------------------------------------------------

HOMA_RTT_BYTES_SIM = 45_000       # §6.2: 45KB for the 40/100G fabric
HOMA_RTT_BYTES_TESTBED = 50_000   # §6.1: 50KB on the testbed
HOMA_OVERCOMMIT = 2               # both


def _on_call(module: str, name: str, **kwargs) -> Callable[[], Scheme]:
    """A factory that imports ``name`` from ``module`` (relative to this
    package) when first called, so a run loads only its own transport."""
    def build() -> Scheme:
        cls = getattr(importlib.import_module(module, __package__), name)
        return cls(**kwargs)
    return build


#: Every transport by name, built with the paper's §6.2 parameters: the
#: one table the CLI, the figure drivers, the validation matrix and the
#: golden tests pick their schemes from.  PPT and DCTCP are imported
#: with this module; every other scheme on its first build.
SCHEMES: Dict[str, Callable[[], Scheme]] = {
    "ppt": Ppt,
    "ppt-swift": _on_call("..core.ppt_swift", "PptSwift"),
    "ppt-hpcc": _on_call("..core.ppt_hpcc", "PptHpcc"),
    "dctcp": Dctcp,
    "dcqcn": _on_call("..transport.dcqcn", "Dcqcn"),
    "pias": _on_call("..transport.pias", "Pias"),
    "rc3": _on_call("..transport.rc3", "Rc3"),
    "swift": _on_call("..transport.swift", "Swift"),
    "timely": _on_call("..transport.timely", "Timely"),
    "hpcc": _on_call("..transport.hpcc", "Hpcc"),
    "tcp10": _on_call("..transport.tcp10", "Tcp10"),
    "halfback": _on_call("..transport.halfback", "Halfback"),
    "homa": _on_call("..transport.homa", "Homa",
                     rtt_bytes=HOMA_RTT_BYTES_SIM, overcommit=HOMA_OVERCOMMIT),
    "aeolus": _on_call("..transport.aeolus", "Aeolus",
                       rtt_bytes=HOMA_RTT_BYTES_SIM,
                       overcommit=HOMA_OVERCOMMIT),
    "ndp": _on_call("..transport.ndp", "Ndp", rtt_bytes=HOMA_RTT_BYTES_SIM),
    "expresspass": _on_call("..transport.expresspass", "ExpressPass"),
}


def testbed_params() -> List[dict]:
    """Table 3 rows."""
    return [
        {"parameter": "Switch buffer size", "setting": "50MB (925KB/port)"},
        {"parameter": "Switch port number", "setting": "54"},
        {"parameter": "RTT", "setting": "80us"},
        {"parameter": "RTO_min", "setting": "10ms"},
        {"parameter": "RTTbytes for Homa", "setting": "50KB"},
        {"parameter": "Overcommitment degree for Homa", "setting": "2"},
        {"parameter": "DCTCP's ECN threshold", "setting": "100KB"},
        {"parameter": "HCP's ECN threshold", "setting": "100KB"},
        {"parameter": "LCP's ECN threshold", "setting": "80KB"},
        {"parameter": "Identification threshold", "setting": "100KB"},
    ]
