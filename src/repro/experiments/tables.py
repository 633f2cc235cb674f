"""Tables 1-3 of the paper.

Table 1 is the qualitative design-space comparison; Table 2 is computed
from our workload distributions (so it doubles as a check that the
transcribed CDFs match the paper's summary statistics); Table 3 lists the
testbed parameters (mirrored by :func:`repro.experiments.scenarios
.testbed_params`).
"""

from __future__ import annotations

from typing import List

from ..metrics.fct import SMALL_FLOW_BYTES
from ..workloads.distributions import DATA_MINING, WEB_SEARCH, EmpiricalCdf
from .scenarios import testbed_params


def table1() -> List[dict]:
    """Table 1: qualitative comparison of prior transports and PPT."""

    def row(category, scheme, spare, sched, commodity, tcpip, nonintrusive):
        return {
            "category": category,
            "scheme": scheme,
            "spare_bw_pattern": spare,
            "sched_wo_flow_size": sched,
            "commodity_switches": commodity,
            "tcpip_compatible": tcpip,
            "non_intrusive": nonintrusive,
        }

    return [
        row("reactive", "DCTCP", "passive", "x", "yes", "yes", "yes"),
        row("reactive", "TCP-10", "passive", "x", "yes", "yes", "yes"),
        row("reactive", "Halfback", "passive", "x", "yes", "yes", "yes"),
        row("reactive", "RC3", "aggressive", "x", "yes", "yes", "yes"),
        row("reactive", "PIAS", "passive", "yes", "yes", "yes", "yes"),
        row("reactive", "HPCC", "graceful (INT required)", "x", "no",
            "no (RoCE)", "yes"),
        row("proactive", "Homa", "aggressive", "no (size required)", "yes",
            "no", "no"),
        row("proactive", "Aeolus", "aggressive", "no (size required)", "yes",
            "no", "no"),
        row("proactive", "ExpressPass", "passive (1st RTT wasted)", "x",
            "yes", "no", "no"),
        row("proactive", "NDP", "passive (1st RTT wasted)", "x", "no", "no",
            "no"),
        row("—", "PPT", "graceful", "yes", "yes", "yes", "yes"),
    ]


def table2() -> List[dict]:
    """Table 2: flow-size distribution summary, computed from our CDFs."""
    rows = []
    for cdf in (WEB_SEARCH, DATA_MINING):
        short = cdf.fraction_below(SMALL_FLOW_BYTES)
        rows.append({
            "workload": cdf.name,
            "short_flows_0_100KB": f"{short * 100:.0f}%",
            "large_flows_gt_100KB": f"{(1 - short) * 100:.0f}%",
            "average_size_MB": cdf.mean() / 1e6,
        })
    return rows


def table3() -> List[dict]:
    """Table 3: testbed parameter settings."""
    return testbed_params()


# Tables 4 and 5 (Homa-Linux lines-of-code breakdowns) are static facts
# from the paper's appendix C; they motivate PPT's deployability argument
# and are documented verbatim in EXPERIMENTS.md rather than computed.
TABLE4_HOMA_LINUX_LOC = {
    "User API": 1900,
    "Transport control": 2800,
    "GRO/GSO": 400,
    "State management": 700,
    "Memory management": 300,
    "Timeout retransmission": 300,
    "Other": 6300,
}

TABLE5_APP_CHANGES_LOC = {
    "Socket": (2080, True),
    "HTTP package header processing": (1516, False),
    "RPC": (975, True),
    "RAFT consensus protocol": (1365, False),
    "Coroutine synchronization": (145, False),
    "IO": (393, True),
    "Other": (1694, False),
}
