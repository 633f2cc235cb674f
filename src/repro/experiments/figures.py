"""Per-figure experiment drivers.

One function per table/figure in the paper's evaluation.  Each returns a
dict with ``rows`` (list of flat dicts, printable with
:func:`~repro.experiments.runner.format_table`) plus any figure-specific
data series, so the benchmark harness can both print the same rows the
paper reports and assert the reproduced *shape*.

All drivers accept scale overrides; defaults are the scaled scenarios of
:mod:`repro.experiments.scenarios` (see that module's scale note).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..core.hypothetical import HypotheticalDctcp, MwRecordingDctcp
from ..core.identification import (
    MEMCACHED_APP,
    WEB_SERVER_APP,
    identification_accuracy,
)
from ..core.ppt import Ppt
from ..core.ppt_swift import PptSwift
from ..metrics.cpu import collect_cpu
from ..metrics.efficiency import collect_efficiency
from ..metrics.fct import FctStats, reduction
from ..metrics.sampler import BufferOccupancySampler, LinkUtilizationSampler
from ..transport.aeolus import Aeolus
from ..transport.dctcp import Dctcp
from ..transport.homa import Homa
from ..transport.hpcc import Hpcc
from ..transport.ndp import Ndp
from ..transport.pias import Pias
from ..transport.rc3 import Rc3
from ..transport.swift import Swift
from ..workloads.distributions import (
    DATA_MINING,
    MEMCACHED_ETC,
    MEMCACHED_W1,
    WEB_SEARCH,
    YOUTUBE_HTTP,
    sample_sizes,
)
from .runner import run
from .scenarios import (
    HOMA_OVERCOMMIT,
    HOMA_RTT_BYTES_SIM,
    HOMA_RTT_BYTES_TESTBED,
    all_to_all_scenario,
    incast_scenario,
    sim_config,
    sim_fabric,
    sim_fabric_100_400g,
    sim_fabric_non_oversubscribed,
    sim_qcfg,
    testbed_scenario,
    two_to_one_scenario,
)

WORKLOADS = {"web-search": WEB_SEARCH, "data-mining": DATA_MINING,
             "memcached": MEMCACHED_W1}


def stats_row(scheme: str, stats: FctStats, **extra) -> dict:
    row = {
        "scheme": scheme,
        "overall_avg_ms": stats.overall_avg * 1e3,
        "small_avg_ms": stats.small_avg * 1e3,
        "small_p99_ms": stats.small_p99 * 1e3,
        "large_avg_ms": stats.large_avg * 1e3,
    }
    row.update(extra)
    return row


def sim_schemes(rtt_bytes: int = HOMA_RTT_BYTES_SIM) -> List:
    """The §6.2 comparison set: NDP, Aeolus, Homa, RC3, DCTCP, PPT."""
    return [
        Ndp(rtt_bytes=rtt_bytes),
        Aeolus(rtt_bytes=rtt_bytes, overcommit=HOMA_OVERCOMMIT),
        Homa(rtt_bytes=rtt_bytes, overcommit=HOMA_OVERCOMMIT),
        Rc3(),
        Dctcp(),
        Ppt(),
    ]


# Homa-Linux batches messages through GRO before handing them up — a
# fixed receive-side latency the paper blames for its poor small-flow
# results on the testbed (§6.1.1 remarks, appendix C).
HOMA_LINUX_GRO_DELAY = 40e-6


def testbed_schemes() -> List:
    """The §6.1 comparison set: Homa-Linux, RC3, DCTCP, PPT."""
    return [
        Homa(rtt_bytes=HOMA_RTT_BYTES_TESTBED, overcommit=HOMA_OVERCOMMIT,
             gro_delay=HOMA_LINUX_GRO_DELAY),
        Rc3(),
        Dctcp(),
        Ppt(),
    ]


# ---------------------------------------------------------------------------
# Figs 1 & 20 — link utilisation microbenchmark
# ---------------------------------------------------------------------------


def _utilization_run(scheme, scenario, interval: float = 100e-6,
                     skip: int = 10, samples: int = 50):
    holder = {}

    def instruments(topo):
        sampler = LinkUtilizationSampler(topo.sim, topo.network.port_to_host(2),
                                         interval)
        holder["sampler"] = sampler
        return sampler

    result = run(scheme, scenario, instruments=instruments)
    series = holder["sampler"].utilizations()[skip:skip + samples]
    return result, series


def fig01_link_utilization(*, load: float = 0.5, n_flows: int = 120) -> dict:
    """Fig. 1: DCTCP's utilisation fluctuates below the ideal load."""
    scenario = two_to_one_scenario("fig01", load=load, n_flows=n_flows)
    _result, series = _utilization_run(Dctcp(), scenario)
    avg = sum(series) / len(series)
    rows = [{"scheme": "dctcp", "avg_utilization": avg,
             "min_utilization": min(series), "max_utilization": max(series),
             "ideal": load}]
    return {"rows": rows, "series": {"dctcp": series}, "ideal": load}


def fig20_link_utilization(*, load: float = 0.5, n_flows: int = 120) -> dict:
    """Fig. 20: PPT vs DCTCP vs hypothetical DCTCP utilisation."""
    scenario = two_to_one_scenario("fig20", load=load, n_flows=n_flows)
    series: Dict[str, List[float]] = {}

    _res, series["dctcp"] = _utilization_run(Dctcp(), scenario)
    recorder = MwRecordingDctcp()
    run(recorder, scenario)
    _res, series["hypothetical"] = _utilization_run(
        HypotheticalDctcp(recorder.mw_table), scenario)
    _res, series["ppt"] = _utilization_run(Ppt(), scenario)

    rows = []
    for name, vals in series.items():
        rows.append({"scheme": name,
                     "avg_utilization": sum(vals) / len(vals),
                     "min_utilization": min(vals), "ideal": load})
    return {"rows": rows, "series": series, "ideal": load}


# ---------------------------------------------------------------------------
# Figs 2 & 3 — the hypothetical DCTCP motivation
# ---------------------------------------------------------------------------


def fig02_hypothetical(*, n_flows: int = 150, load: float = 0.5) -> dict:
    """Fig. 2: hypothetical DCTCP beats Homa and NDP on overall avg FCT."""
    scenario = all_to_all_scenario("fig02", WEB_SEARCH, load=load,
                                   n_flows=n_flows)
    recorder = MwRecordingDctcp()
    base = run(recorder, scenario)
    hypo = run(HypotheticalDctcp(recorder.mw_table), scenario)
    homa = run(Homa(rtt_bytes=HOMA_RTT_BYTES_SIM), scenario)
    ndp = run(Ndp(rtt_bytes=HOMA_RTT_BYTES_SIM), scenario)
    rows = [
        {"scheme": "dctcp", "overall_avg_ms": base.stats.overall_avg * 1e3},
        {"scheme": "hypothetical-dctcp",
         "overall_avg_ms": hypo.stats.overall_avg * 1e3},
        {"scheme": "homa", "overall_avg_ms": homa.stats.overall_avg * 1e3},
        {"scheme": "ndp", "overall_avg_ms": ndp.stats.overall_avg * 1e3},
    ]
    return {"rows": rows,
            "results": {"dctcp": base, "hypothetical": hypo,
                        "homa": homa, "ndp": ndp}}


def fig03_fill_factor(*, factors: Sequence[float] = (0.5, 1.0, 1.5),
                      n_flows: int = 120, load: float = 0.6) -> dict:
    """Fig. 3: filling beyond 1x MW hurts badly; 1x MW is the choice.

    Runs on plain shared tail-drop buffers (no dynamic-threshold
    protection) like the paper's ns-3 queues — under the commodity
    per-priority DT used elsewhere, an overfilling flow mostly punishes
    itself and the penalty is masked (see EXPERIMENTS.md)."""
    fabric = sim_fabric(qcfg=sim_qcfg(dt_alpha=None))
    scenario = all_to_all_scenario("fig03", DATA_MINING, load=load,
                                   n_flows=n_flows, size_cap=2_000_000,
                                   fabric=fabric)
    recorder = MwRecordingDctcp()
    run(recorder, scenario)
    rows = []
    results = {}
    for factor in factors:
        res = run(HypotheticalDctcp(recorder.mw_table, factor), scenario)
        results[factor] = res
        rows.append({"fill_factor": factor,
                     "overall_avg_ms": res.stats.overall_avg * 1e3})
    return {"rows": rows, "results": results}


# ---------------------------------------------------------------------------
# Figs 8-11 — testbed experiments (15-to-15 and 14-to-1)
# ---------------------------------------------------------------------------


def fig08_09_testbed_15to15(workload: str = "web-search",
                            *, loads: Sequence[float] = (0.5, 0.7),
                            n_flows: int = 100) -> dict:
    """Figs. 8/9: 15-to-15 FCT statistics vs load on the testbed."""
    cdf = WORKLOADS[workload]
    rows = []
    results = {}
    for load in loads:
        scenario = testbed_scenario(f"fig08-{workload}-{load}", cdf,
                                    load=load, n_flows=n_flows)
        for scheme in testbed_schemes():
            res = run(scheme, scenario)
            results[(scheme.name, load)] = res
            rows.append(stats_row(scheme.name, res.stats, load=load))
    return {"rows": rows, "results": results}


def fig10_11_testbed_14to1(workload: str = "web-search",
                           *, load: float = 0.5, n_flows: int = 100) -> dict:
    """Figs. 10/11: 14-to-1 incast FCT statistics on the testbed."""
    cdf = WORKLOADS[workload]
    scenario = testbed_scenario(f"fig10-{workload}", cdf, load=load,
                                n_flows=n_flows, pattern="incast")
    rows = []
    results = {}
    for scheme in testbed_schemes():
        res = run(scheme, scenario)
        results[scheme.name] = res
        rows.append(stats_row(scheme.name, res.stats))
    return {"rows": rows, "results": results}


# ---------------------------------------------------------------------------
# Figs 12/13 — large-scale simulations
# ---------------------------------------------------------------------------


def fig12_13_largescale(workload: str = "web-search", *, load: float = 0.5,
                        n_flows: int = 150,
                        fabric: Optional[Callable] = None,
                        schemes: Optional[List] = None) -> dict:
    """Figs. 12/13: the six-scheme comparison on the oversubscribed fabric."""
    cdf = WORKLOADS[workload]
    scenario = all_to_all_scenario(f"fig12-{workload}", cdf, load=load,
                                   n_flows=n_flows, fabric=fabric)
    rows = []
    results = {}
    for scheme in (schemes or sim_schemes()):
        res = run(scheme, scenario)
        results[scheme.name] = res
        rows.append(stats_row(scheme.name, res.stats))
    return {"rows": rows, "results": results}


# ---------------------------------------------------------------------------
# Fig 14 — PPT over a delay-based transport
# ---------------------------------------------------------------------------


def fig14_delay_based(*, load: float = 0.5, n_flows: int = 150) -> dict:
    """Fig. 14: grafting PPT's design onto a Swift-like transport."""
    scenario = all_to_all_scenario("fig14", WEB_SEARCH, load=load,
                                   n_flows=n_flows)
    base = run(Swift(), scenario)
    variant = run(PptSwift(), scenario)
    rows = [stats_row("swift", base.stats),
            stats_row("ppt-swift", variant.stats)]
    return {"rows": rows, "results": {"swift": base, "ppt-swift": variant}}


# ---------------------------------------------------------------------------
# Figs 15-18 — ablations
# ---------------------------------------------------------------------------


def _ablation(variant: Ppt, name: str, *, load: float = 0.5,
              n_flows: int = 150) -> dict:
    scenario = all_to_all_scenario(name, WEB_SEARCH, load=load,
                                   n_flows=n_flows)
    full = run(Ppt(), scenario)
    ablated = run(variant, scenario)
    rows = [stats_row("ppt", full.stats),
            stats_row(variant.name, ablated.stats)]
    return {"rows": rows, "results": {"ppt": full, variant.name: ablated}}


def fig15_ablation_lcp_ecn(**kwargs) -> dict:
    """Fig. 15: PPT without ECN for the LCP loop."""
    return _ablation(Ppt(lcp_ecn=False), "fig15", **kwargs)


def fig16_ablation_ewd(**kwargs) -> dict:
    """Fig. 16: PPT without EWD (line-rate LCP)."""
    return _ablation(Ppt(ewd=False), "fig16", **kwargs)


def fig17_ablation_scheduling(**kwargs) -> dict:
    """Fig. 17: PPT without flow scheduling (single priority per loop)."""
    return _ablation(Ppt(scheduling=False), "fig17", **kwargs)


def fig18_ablation_identification(**kwargs) -> dict:
    """Fig. 18: PPT without buffer-aware identification."""
    return _ablation(Ppt(identification=False), "fig18", **kwargs)


# ---------------------------------------------------------------------------
# Fig 19 — kernel datapath (CPU) overhead proxy
# ---------------------------------------------------------------------------


def fig19_cpu_overhead(*, loads: Sequence[float] = (0.3, 0.5, 0.7),
                       n_flows: int = 100) -> dict:
    """Fig. 19: PPT's datapath overhead vs DCTCP's, shrinking with load."""
    rows = []
    gaps = []
    for load in loads:
        scenario = testbed_scenario(f"fig19-{load}", WEB_SEARCH, load=load,
                                    n_flows=n_flows)
        usage = {}
        for scheme in (Dctcp(), Ppt()):
            res = run(scheme, scenario)
            duration = max(f.finish_time or 0.0 for f in res.flows)
            cpu = collect_cpu(res.topology.network, duration)
            usage[scheme.name] = cpu.usage_proxy()
        gap = usage["ppt"] - usage["dctcp"]
        gaps.append(gap)
        rows.append({"load": load, "dctcp_cpu_pct": usage["dctcp"],
                     "ppt_cpu_pct": usage["ppt"], "gap_pct": gap})
    return {"rows": rows, "gaps": gaps}


# ---------------------------------------------------------------------------
# Fig 21 — Memcached (all-small) workload
# ---------------------------------------------------------------------------


def fig21_memcached(*, load: float = 0.5, n_flows: int = 20_000) -> dict:
    """Fig. 21: the Facebook Memcached W1 workload (all flows <= 100KB).

    A mean-1.7KB workload at 0.5 load on a 40G fabric is a firehose of
    tiny flows (tens of millions per second fabric-wide), so this
    experiment needs a large flow count for the Poisson process to span
    many RTTs; the flows themselves are 1-2 packets, so the run stays
    cheap.  Demotion/identification thresholds are tuned to the W1 size
    distribution, exactly as PIAS (and hence PPT's aging) derives them
    per workload."""
    cfg = sim_config(demotion_thresholds=(2_000, 10_000, 30_000),
                     identification_threshold=30_000)
    scenario = all_to_all_scenario("fig21", MEMCACHED_W1, load=load,
                                   n_flows=n_flows, size_cap=None,
                                   config=cfg)
    rows = []
    results = {}
    for scheme in sim_schemes():
        res = run(scheme, scenario)
        results[scheme.name] = res
        rows.append(stats_row(scheme.name, res.stats))
    return {"rows": rows, "results": results}


# ---------------------------------------------------------------------------
# Fig 22 — 100/400G topology
# ---------------------------------------------------------------------------


def fig22_100_400g(*, load: float = 0.5, n_flows: int = 150) -> dict:
    """Fig. 22: FCT statistics at 100G edge / 400G core line rates."""
    return fig12_13_largescale("web-search", load=load, n_flows=n_flows,
                               fabric=sim_fabric_100_400g())


# ---------------------------------------------------------------------------
# Fig 23 — incast ratio sweep
# ---------------------------------------------------------------------------


def fig23_incast_sweep(*, ratios: Sequence[int] = (8, 16, 31),
                       load: float = 0.6, n_flows: int = 100) -> dict:
    """Fig. 23: N-to-1 incast (RC3 excluded: it cannot sustain heavy
    incast, per the paper)."""
    rows = []
    results = {}
    schemes = [s for s in sim_schemes() if s.name != "rc3"]
    for n in ratios:
        scenario = incast_scenario(f"fig23-{n}", WEB_SEARCH, n_senders=n,
                                   load=load, n_flows=n_flows)
        for scheme in schemes:
            res = run(scheme, scenario)
            results[(scheme.name, n)] = res
            rows.append({"scheme": scheme.name, "incast_ratio": n,
                         "overall_avg_ms": res.stats.overall_avg * 1e3})
    return {"rows": rows, "results": results}


# ---------------------------------------------------------------------------
# Fig 24 — RC3 with limited low-priority buffer
# ---------------------------------------------------------------------------


def fig24_rc3_lp_buffer(*, fractions: Sequence[float] = (0.2, 0.5, 0.8),
                        load: float = 0.5, n_flows: int = 150) -> dict:
    """Fig. 24: capping RC3's LP buffer does not save it."""
    rows = []
    results = {}
    ppt_scenario = all_to_all_scenario("fig24-ppt", WEB_SEARCH, load=load,
                                       n_flows=n_flows)
    ppt = run(Ppt(), ppt_scenario)
    results["ppt"] = ppt
    rows.append(stats_row("ppt", ppt.stats, lp_buffer_fraction="n/a"))
    from .scenarios import SIM_BUFFER
    for fraction in fractions:
        qcfg = sim_qcfg(lp_buffer_cap=int(SIM_BUFFER * fraction))
        scenario = all_to_all_scenario(
            f"fig24-rc3-{fraction}", WEB_SEARCH, load=load, n_flows=n_flows,
            fabric=sim_fabric(qcfg=qcfg))
        res = run(Rc3(), scenario)
        results[fraction] = res
        rows.append(stats_row("rc3", res.stats, lp_buffer_fraction=fraction))
    return {"rows": rows, "results": results}


# ---------------------------------------------------------------------------
# Fig 25 — PIAS and HPCC
# ---------------------------------------------------------------------------


def fig25_pias_hpcc(*, load: float = 0.5, n_flows: int = 150) -> dict:
    """Fig. 25: PPT vs PIAS vs HPCC."""
    scenario = all_to_all_scenario("fig25", WEB_SEARCH, load=load,
                                   n_flows=n_flows)
    rows = []
    results = {}
    for scheme in (Hpcc(), Pias(), Ppt()):
        res = run(scheme, scenario)
        results[scheme.name] = res
        rows.append(stats_row(scheme.name, res.stats))
    return {"rows": rows, "results": results}


# ---------------------------------------------------------------------------
# Fig 26 — non-oversubscribed topology
# ---------------------------------------------------------------------------


def fig26_non_oversubscribed(*, load: float = 0.5, n_flows: int = 150) -> dict:
    """Appendix E: the proactive-friendly fully-provisioned fabric."""
    return fig12_13_largescale("web-search", load=load, n_flows=n_flows,
                               fabric=sim_fabric_non_oversubscribed())


# ---------------------------------------------------------------------------
# Fig 27 — send-buffer sensitivity
# ---------------------------------------------------------------------------


def fig27_send_buffer(*, sizes: Sequence[int] = (128_000, 2_000_000,
                                                 2_000_000_000),
                      load: float = 0.5, n_flows: int = 150) -> dict:
    """Appendix F: PPT under different TCP send-buffer capacities."""
    rows = []
    results = {}
    for size in sizes:
        scenario = all_to_all_scenario(
            f"fig27-{size}", WEB_SEARCH, load=load, n_flows=n_flows,
            config=sim_config(send_buffer_bytes=size))
        res = run(Ppt(), scenario)
        results[size] = res
        rows.append(stats_row("ppt", res.stats, send_buffer=size))
    return {"rows": rows, "results": results}


# ---------------------------------------------------------------------------
# Figs 28/29 — ECN threshold vs buffer occupancy / transfer efficiency
# ---------------------------------------------------------------------------


def _occupancy_run(scheme, *, threshold_fraction: float, load: float,
                   n_flows: int):
    buffer_bytes = 120_000
    k = int(buffer_bytes * threshold_fraction)
    scenario = two_to_one_scenario(
        f"fig28-{scheme.name}-{threshold_fraction}",
        load=load, n_flows=n_flows, buffer_bytes=buffer_bytes,
        k_high=k, k_low=k)
    holder = {}

    def instruments(topo):
        sampler = BufferOccupancySampler(topo.sim,
                                         topo.network.port_to_host(2), 50e-6)
        holder["sampler"] = sampler
        return sampler

    result = run(scheme, scenario, instruments=instruments)
    total, high, low = holder["sampler"].averages(skip=5)
    return result, total, high, low


def fig28_buffer_occupancy(*, fractions: Sequence[float] = (0.6, 0.8),
                           load: float = 0.7, n_flows: int = 100) -> dict:
    """Appendix F: high- vs low-priority buffer occupancy per scheme."""
    rows = []
    data = {}
    for fraction in fractions:
        for scheme in (Dctcp(), Rc3(), Ppt()):
            _res, total, high, low = _occupancy_run(
                scheme, threshold_fraction=fraction, load=load,
                n_flows=n_flows)
            data[(scheme.name, fraction)] = (total, high, low)
            rows.append({"scheme": scheme.name, "ecn_fraction": fraction,
                         "avg_total_bytes": total, "avg_high_bytes": high,
                         "avg_low_bytes": low,
                         "low_share": (low / total) if total else 0.0})
    return {"rows": rows, "data": data}


def fig29_transfer_efficiency(*, fractions: Sequence[float] = (0.6, 0.8),
                              load: float = 0.7, n_flows: int = 100) -> dict:
    """Appendix F: received/sent efficiency, overall and LP-only."""
    rows = []
    data = {}
    for fraction in fractions:
        buffer_bytes = 120_000
        k = int(buffer_bytes * fraction)
        for scheme in (Dctcp(), Rc3(), Ppt()):
            scenario = two_to_one_scenario(
                f"fig29-{scheme.name}-{fraction}", load=load,
                n_flows=n_flows, buffer_bytes=buffer_bytes, k_high=k, k_low=k)
            res = run(scheme, scenario)
            eff = collect_efficiency(res.topology.network)
            data[(scheme.name, fraction)] = eff
            rows.append({"scheme": scheme.name, "ecn_fraction": fraction,
                         "overall_efficiency": eff.overall,
                         "lp_efficiency": eff.low_priority})
    return {"rows": rows, "data": data}


# ---------------------------------------------------------------------------
# §4.1 — buffer-aware identification accuracy
# ---------------------------------------------------------------------------


def sec41_identification_accuracy(*, n_messages: int = 5000,
                                  seed: int = 1) -> dict:
    """§4.1: first-syscall identification accuracy on app-shaped traces."""
    etc_sizes = sample_sizes(MEMCACHED_ETC, n_messages, seed=seed)
    http_sizes = sample_sizes(YOUTUBE_HTTP, n_messages, seed=seed + 1)
    memcached = identification_accuracy(
        etc_sizes, MEMCACHED_APP, threshold=1_000, send_buffer=16_000,
        seed=seed)
    web = identification_accuracy(
        http_sizes, WEB_SERVER_APP, threshold=10_000, send_buffer=16_000,
        seed=seed)
    rows = [
        {"application": "memcached (ETC)", "threshold": "1KB",
         "accuracy": memcached, "paper_accuracy": 0.867},
        {"application": "web server (HTTP)", "threshold": "10KB",
         "accuracy": web, "paper_accuracy": 0.843},
    ]
    return {"rows": rows, "memcached": memcached, "web": web}
