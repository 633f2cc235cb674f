"""Extension: lossless Ethernet (PFC) and flowlet/CONGA load balancing.

Not a paper figure — PPT itself runs on a lossy fabric.  This benchmark
characterises the two RoCEv2-era fabric features this repo models on
top of the paper's leaf-spine:

1. **PFC lossless vs lossy** — DCQCN and HPCC on the same heavy incast
   with and without PFC.  With PFC on, the lossless class must show
   *zero* drops while pauses demonstrably fire; without it the same
   offered load tail-drops.
2. **Load balancers** — per-flow ECMP vs flowlet switching vs CONGA on
   the cross-leaf all-to-all, same seed, same flows.  Flowlet/CONGA
   re-pins are counted via telemetry.
3. **PFC storm** — the jammed-receiver pause storm: head-of-line
   blocking must slow the fabric (visible as rtx/RTO recovery work) but
   never deadlock it.
"""

from conftest import run_figure
from repro.core.ppt import Ppt
from repro.experiments.runner import run
from repro.experiments.scenarios import (
    all_to_all_scenario,
    incast_scenario,
    lossless_fabric,
    lossless_scenario,
    pfc_storm_scenario,
)
from repro.transport.dcqcn import Dcqcn
from repro.transport.dctcp import Dctcp
from repro.transport.hpcc import Hpcc
from repro.workloads.distributions import WEB_SEARCH

N_FLOWS = 120
INCAST_LOAD = 0.9


def _total_drops(network):
    return sum(p.mux.stats.dropped for p in network.ports)


def _pfc_counters(network):
    drops = sum(p.mux.pfc.lossless_drops for p in network.ports
                if p.mux.pfc is not None)
    pauses = sum(p.pauses_received for p in network.ports)
    return drops, pauses


def _lossless_rows():
    rows = []
    for scheme_factory in (Dcqcn, Hpcc):
        for pfc in (False, True):
            scheme = scheme_factory()
            if pfc:
                scenario = lossless_scenario(
                    f"ext-{scheme.name}-pfc", n_flows=N_FLOWS,
                    load=INCAST_LOAD)
            else:
                scenario = incast_scenario(
                    f"ext-{scheme.name}-lossy", WEB_SEARCH, n_senders=12,
                    load=INCAST_LOAD, n_flows=N_FLOWS,
                    fabric=lossless_fabric(), seed=11, max_time=20.0)
            result = run(scheme, scenario)
            net = result.topology.network
            lossless_drops, pauses = (_pfc_counters(net) if pfc else (0, 0))
            rows.append({
                "scheme": scheme.name,
                "mode": "pfc" if pfc else "lossy",
                "completed": f"{result.completed}/{len(result.flows)}",
                "drops": _total_drops(result.topology.network),
                "lossless_drops": lossless_drops,
                "pauses": pauses,
                **result.stats.row(),
            })
    return rows


def _lb_rows():
    rows = []
    for lb in ("ecmp", "flowlet", "conga"):
        for scheme in (Dctcp(), Ppt()):
            scenario = all_to_all_scenario(
                f"ext-lb-{lb}-{scheme.name}", WEB_SEARCH, load=0.7,
                n_flows=N_FLOWS, lb=lb)
            result = run(scheme, scenario, observe=True)
            summary = result.telemetry.summary()
            rows.append({
                "scheme": scheme.name,
                "mode": lb,
                "completed": f"{result.completed}/{len(result.flows)}",
                "drops": _total_drops(result.topology.network),
                "lossless_drops": 0,
                "pauses": 0,
                "repins": summary.flowlet_repins,
                **result.stats.row(),
            })
    return rows


def _storm_row():
    scenario = pfc_storm_scenario("ext-pfc-storm", n_flows=60)
    result = run(Dcqcn(), scenario)
    drops, pauses = _pfc_counters(result.topology.network)
    h = result.health
    return {
        "scheme": "dcqcn",
        "mode": "pfc-storm",
        "completed": f"{h.completed}/{h.n_flows}",
        "drops": _total_drops(result.topology.network),
        "lossless_drops": drops,
        "pauses": pauses,
        "rtx": h.retransmits_total,
        **result.stats.row(),
        "_stalled": h.stalled,
    }


def _run_lossless_bench():
    return {"rows": _lossless_rows() + _lb_rows() + [_storm_row()]}


def test_lossless_and_lb(benchmark):
    result = run_figure(benchmark,
                        "Extension: PFC lossless + flowlet/CONGA LB",
                        _run_lossless_bench)
    rows = result["rows"]
    pfc_rows = [r for r in rows if r["mode"] == "pfc"]
    lb_rows = [r for r in rows if r["mode"] in ("flowlet", "conga")]
    storm = next(r for r in rows if r["mode"] == "pfc-storm")

    for row in pfc_rows:
        # the lossless guarantee: pauses fire instead of drops
        assert row["lossless_drops"] == 0, row
        assert row["pauses"] > 0, row
        assert row["drops"] == 0, row
    for row in lb_rows:
        # the balancers must not break completion on a healthy fabric
        completed, total = row["completed"].split("/")
        assert completed == total, row
        # and both move flows off their first path under this load
        assert row["repins"] > 0, row
    # the storm HOL-blocks but the fabric recovers, no deadlock
    assert not storm["_stalled"], storm
    completed, total = storm["completed"].split("/")
    assert completed == total, storm
    assert storm["pauses"] > 0, storm
