"""Cross-module integration tests: every scheme on a loaded fabric.

These are the repository's safety net: for each transport, a small but
genuinely contended scenario must complete every flow, conserve packets,
and keep the key invariants (priorities on the wire, completion at the
receiver, determinism).
"""

import pytest

from repro.core.ppt import Ppt
from repro.core.ppt_swift import PptSwift
from repro.experiments.runner import run
from repro.experiments.scenarios import all_to_all_scenario, sim_fabric
from repro.transport.aeolus import Aeolus
from repro.transport.dcqcn import Dcqcn
from repro.transport.dctcp import Dctcp
from repro.transport.expresspass import ExpressPass
from repro.transport.halfback import Halfback
from repro.transport.homa import Homa
from repro.transport.hpcc import Hpcc
from repro.transport.ndp import Ndp
from repro.transport.pias import Pias
from repro.transport.rc3 import Rc3
from repro.transport.swift import Swift
from repro.transport.tcp10 import Tcp10
from repro.transport.timely import Timely
from repro.core.ppt_hpcc import PptHpcc
from repro.workloads.distributions import WEB_SEARCH

ALL_SCHEMES = [
    Dctcp(), Dcqcn(), Pias(), Rc3(), Swift(), Timely(), Hpcc(),
    Tcp10(), Halfback(), ExpressPass(),
    Homa(rtt_bytes=45_000), Aeolus(rtt_bytes=45_000), Ndp(),
    Ppt(), PptSwift(), PptHpcc(),
]


def loaded_scenario(seed=13):
    return all_to_all_scenario(
        "integration", WEB_SEARCH, load=0.6, n_flows=40, size_cap=600_000,
        seed=seed, fabric=sim_fabric(n_leaf=2, n_spine=2, hosts_per_leaf=4),
        max_time=20.0)


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
def test_scheme_completes_loaded_run(scheme):
    result = run(scheme, loaded_scenario())
    assert result.health.completion_rate == 1.0, (
        f"{scheme.name}: {result.completed}/{len(result.flows)}")
    assert result.stats.overall_avg > 0


@pytest.mark.parametrize("scheme", [Dctcp(), Ppt(), Homa(rtt_bytes=45_000)],
                         ids=lambda s: s.name)
def test_scheme_deterministic(scheme):
    r1 = run(type(scheme)() if scheme.name != "homa" else Homa(rtt_bytes=45_000),
             loaded_scenario())
    r2 = run(type(scheme)() if scheme.name != "homa" else Homa(rtt_bytes=45_000),
             loaded_scenario())
    assert [f.fct for f in r1.flows] == [f.fct for f in r2.flows]


def test_ppt_priorities_observed_on_fabric(attached):
    """PPT traffic uses both halves of the priority space."""
    run(Ppt(), loaded_scenario())
    priorities = set()
    for endpoint in attached.senders.values():
        n = endpoint.n_packets
        priorities.add(endpoint.priority_for(0))
        priorities.add(endpoint.priority_for(n - 1))
        if endpoint.lcp.lp_pkts_sent:
            priorities.add(endpoint.tagger.lcp_priority(0))
    assert priorities & {0, 1, 2, 3}
    assert priorities & {4, 5, 6, 7}


def test_ppt_beats_dctcp_on_small_flows_under_load():
    """The headline behaviour at test scale: PPT's small flows are
    (much) faster than DCTCP's under identical load."""
    dctcp = run(Dctcp(), loaded_scenario())
    ppt = run(Ppt(), loaded_scenario())
    assert ppt.stats.small_avg < dctcp.stats.small_avg
    assert ppt.stats.overall_avg < dctcp.stats.overall_avg * 1.05


def test_rc3_hurts_small_flow_tail_relative_to_ppt():
    """The paper's RC3 critique: aggressive LP filling damages small
    flows; PPT's EWD + scheduling protect them."""
    rc3 = run(Rc3(), loaded_scenario())
    ppt = run(Ppt(), loaded_scenario())
    assert ppt.stats.small_p99 <= rc3.stats.small_p99


def test_packet_conservation_dctcp():
    """Transmitted = delivered + dropped-in-fabric (+ still queued: none
    after completion)."""
    result = run(Dctcp(), loaded_scenario())
    sent = sum(result.table.pkts_sent)
    received = sum(result.table.pkts_received)
    dropped = result.topology.network.total_drops()
    assert sent == received + dropped
