"""Per-figure experiment drivers.

One function per setup in the paper's evaluation (figures read off the
same runs share one: Figs 15-18, Figs 28/29), plus §6.3's
K_low remark and two studies beyond it (``ext_*``).  Each returns a
dict with ``rows`` (list of flat dicts, printable with
:func:`~repro.experiments.runner.format_table`) plus any figure-specific
data series, so the benchmark harness can both print the same rows the
paper reports and assert the reproduced *shape*.

The FCT-table figures (8-18, 21-27) are grid specs — a scheme dict, a
scenario factory, a variants list — handed to :func:`_fct_table`; the
measurement figures (1-3, 19, 20, 28/29, §4.1) need the live fabric or
a pass-1 table and stay on :func:`~repro.experiments.runner.run`.

All drivers accept scale overrides; defaults are the scaled scenarios of
:mod:`repro.experiments.scenarios` (see that module's scale note).
Workloads are named as in :data:`repro.workloads.distributions.WORKLOADS`.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.identification import (
    MEMCACHED_APP,
    WEB_SERVER_APP,
    identification_accuracy,
)
from ..core.ppt import Ppt
from ..metrics.cpu import collect_cpu
from ..metrics.probe import Probe
from ..transport.base import Scheme
from ..transport.homa import Homa
from ..workloads.distributions import (
    DATA_MINING,
    MEMCACHED_ETC,
    MEMCACHED_W1,
    WEB_SEARCH,
    WORKLOADS,
    YOUTUBE_HTTP,
    sample_sizes,
)
from .parallel import run_grid, scheme_grid
from .runner import RunResult, Scenario, run, two_pass
from .scenarios import (
    HOMA_OVERCOMMIT,
    HOMA_RTT_BYTES_TESTBED,
    SCHEMES,
    SIM_BUFFER,
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

SchemeSet = Dict[str, Callable[[], Scheme]]


def _pick(*names: str) -> SchemeSet:
    return {name: SCHEMES[name] for name in names}


def sim_schemes() -> SchemeSet:
    """The §6.2 comparison set: NDP, Aeolus, Homa, RC3, DCTCP, PPT."""
    return _pick("ndp", "aeolus", "homa", "rc3", "dctcp", "ppt")


# Homa-Linux batches messages through GRO before handing them up — a
# fixed receive-side latency the paper blames for its poor small-flow
# results on the testbed (§6.1.1 remarks, appendix C).
HOMA_LINUX_GRO_DELAY = 40e-6


def testbed_schemes() -> SchemeSet:
    """The §6.1 comparison set: Homa-Linux, RC3, DCTCP, PPT."""
    return {
        "homa": lambda: Homa(rtt_bytes=HOMA_RTT_BYTES_TESTBED,
                             overcommit=HOMA_OVERCOMMIT,
                             gro_delay=HOMA_LINUX_GRO_DELAY),
        **_pick("rc3", "dctcp", "ppt"),
    }


def _fct_table(schemes: SchemeSet, scenario_factory: Callable[..., Scenario],
               variants: Sequence[Dict[str, object]] = ({},)) -> dict:
    """An FCT-table figure: every scheme on every variant of one
    scenario, one forked worker per core (serial where ``fork`` is
    missing), rows in grid order — bit-identical either way."""
    summaries = run_grid(scheme_grid(schemes, scenario_factory, variants),
                         jobs=-1)
    return {"rows": [summary.row() for summary in summaries]}


# the microbenchmarks' bottleneck: the downlink to the 2-to-1 receiver
_BOTTLENECK_HOST = 2
_UTILIZATION_INTERVAL = 100e-6


def _bytes_sent(port) -> int:
    return port.bytes_sent


def _occupancy(port) -> Tuple[int, int]:
    return port.mux.occupancy, port.mux.hp_occupancy


def _probed(scenario: Scenario, read: Callable, interval: float,
            ) -> Tuple[Scenario, List[Probe]]:
    """``scenario`` with a :class:`Probe` of ``read(bottleneck port)``
    attached to every fabric it builds, and the list each build's probe
    is appended to (one per run, in run order)."""
    probes: List[Probe] = []
    build = scenario.build_topology

    def build_topology():
        topo = build()
        port = topo.network.port_to_host(_BOTTLENECK_HOST)
        probes.append(Probe(topo.sim, functools.partial(read, port),
                            interval))
        return topo

    return dataclasses.replace(scenario, build_topology=build_topology), probes


def _enough(samples: list, needed: int, what: str) -> list:
    """``samples``, once a run produced the ``needed`` its window reads."""
    if len(samples) < needed:
        raise ValueError(
            f"{what}: the run produced {len(samples)} samples, the window "
            f"needs {needed}; run more flows")
    return samples


def _utilization_series(result: RunResult, probe: Probe) -> List[float]:
    """50 utilisation samples of the bottleneck link (fraction of its
    capacity per interval), past a 10-sample warm-up."""
    port = result.topology.network.port_to_host(_BOTTLENECK_HOST)
    capacity = port.rate_bps * _UTILIZATION_INTERVAL / 8.0
    sent = [value for _time, value in probe.samples]
    utilization = [(now - before) / capacity
                   for before, now in zip(sent, sent[1:])]
    return _enough(utilization, 60, "link utilisation")[10:60]


def fig01_link_utilization(*, load: float = 0.5, n_flows: int = 120) -> dict:
    """Fig. 1: DCTCP's utilisation fluctuates below the ideal load."""
    scenario, probes = _probed(
        two_to_one_scenario("fig01", load=load, n_flows=n_flows),
        _bytes_sent, _UTILIZATION_INTERVAL)
    series = _utilization_series(run(SCHEMES["dctcp"](), scenario), probes[0])
    avg = sum(series) / len(series)
    rows = [{"scheme": "dctcp", "avg_utilization": avg,
             "min_utilization": min(series), "max_utilization": max(series),
             "ideal": load}]
    return {"rows": rows, "series": {"dctcp": series}, "ideal": load}


def fig20_link_utilization(*, load: float = 0.5, n_flows: int = 120) -> dict:
    """Fig. 20: PPT vs DCTCP vs hypothetical DCTCP utilisation."""
    scenario, probes = _probed(
        two_to_one_scenario("fig20", load=load, n_flows=n_flows),
        _bytes_sent, _UTILIZATION_INTERVAL)
    # the recording pass is packet-for-packet plain DCTCP
    results = two_pass(scenario) + (run(SCHEMES["ppt"](), scenario),)
    series = {name: _utilization_series(result, probe) for name, result, probe
              in zip(("dctcp", "hypothetical", "ppt"), results, probes)}
    rows = []
    for name, vals in series.items():
        rows.append({"scheme": name,
                     "avg_utilization": sum(vals) / len(vals),
                     "min_utilization": min(vals), "ideal": load})
    return {"rows": rows, "series": series, "ideal": load}


def fig02_hypothetical(*, n_flows: int = 150, load: float = 0.5) -> dict:
    """Fig. 2: hypothetical DCTCP beats Homa and NDP on overall avg FCT."""
    scenario = all_to_all_scenario("fig02", WEB_SEARCH, load=load,
                                   n_flows=n_flows)
    base, hypo = two_pass(scenario)
    rows = [{"scheme": "dctcp", **base.stats.row()},
            {"scheme": "hypothetical-dctcp", **hypo.stats.row()}]
    proactive = _fct_table(_pick("homa", "ndp"), lambda: scenario)
    return {"rows": rows + proactive["rows"]}


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
    _base, *filled = two_pass(scenario, *factors)
    return {"rows": [{"fill_factor": factor, **res.stats.row()}
                     for factor, res in zip(factors, filled)]}


def fig08_09_testbed_15to15(workload: str = "web-search",
                            *, loads: Sequence[float] = (0.5, 0.7),
                            n_flows: int = 100) -> dict:
    """Figs. 8/9: 15-to-15 FCT statistics vs load on the testbed."""
    cdf = WORKLOADS[workload]
    return _fct_table(
        testbed_schemes(),
        lambda load: testbed_scenario(f"fig08-{workload}-{load}", cdf,
                                      load=load, n_flows=n_flows),
        [{"load": load} for load in loads])


def fig10_11_testbed_14to1(workload: str = "web-search",
                           *, load: float = 0.5, n_flows: int = 100) -> dict:
    """Figs. 10/11: 14-to-1 incast FCT statistics on the testbed."""
    cdf = WORKLOADS[workload]
    return _fct_table(
        testbed_schemes(),
        lambda: testbed_scenario(f"fig10-{workload}", cdf, load=load,
                                 n_flows=n_flows, pattern="incast"))


def _largescale(name: str, cdf, *, load: float, n_flows: int,
                fabric: Optional[Callable] = None, seed: int = 7) -> dict:
    """The six-scheme comparison of Figs. 12/13, 22 and 26."""
    return _fct_table(
        sim_schemes(),
        lambda: all_to_all_scenario(name, cdf, load=load, n_flows=n_flows,
                                    fabric=fabric, seed=seed))


def fig12_13_largescale(workload: str = "web-search", *, load: float = 0.5,
                        n_flows: int = 150, seed: int = 7) -> dict:
    """Figs. 12/13: the six-scheme comparison on the oversubscribed fabric."""
    return _largescale(f"fig12-{workload}", WORKLOADS[workload], load=load,
                       n_flows=n_flows, seed=seed)


def fig14_delay_based(*, load: float = 0.5, n_flows: int = 150) -> dict:
    """Fig. 14: grafting PPT's design onto a Swift-like transport."""
    return _fct_table(
        _pick("swift", "ppt-swift"),
        lambda: all_to_all_scenario("fig14", WEB_SEARCH, load=load,
                                    n_flows=n_flows))


def fig15_18_ablation(*, load: float = 0.5, n_flows: int = 150) -> dict:
    """Figs. 15-18: PPT, and PPT without one mechanism each: ECN for the
    LCP loop (15), EWD (16), flow scheduling (17) and buffer-aware
    identification (18)."""
    schemes = {"ppt": SCHEMES["ppt"]}
    for flags in (dict(lcp_ecn=False), dict(ewd=False),
                  dict(scheduling=False), dict(identification=False)):
        schemes[Ppt(**flags).name] = functools.partial(Ppt, **flags)
    return _fct_table(
        schemes, lambda: all_to_all_scenario("fig15", WEB_SEARCH, load=load,
                                             n_flows=n_flows))


def fig19_cpu_overhead(*, loads: Sequence[float] = (0.3, 0.5, 0.7),
                       n_flows: int = 100) -> dict:
    """Fig. 19: PPT's datapath overhead vs DCTCP's, shrinking with load."""
    rows = []
    for load in loads:
        scenario = testbed_scenario(f"fig19-{load}", WEB_SEARCH, load=load,
                                    n_flows=n_flows)
        usage = {}
        for name in ("dctcp", "ppt"):
            res = run(SCHEMES[name](), scenario)
            duration = max(f.finish_time or 0.0 for f in res.flows)
            cpu = collect_cpu(res.topology.network, duration)
            usage[name] = cpu.usage_proxy()
        rows.append({"load": load, "dctcp_cpu_pct": usage["dctcp"],
                     "ppt_cpu_pct": usage["ppt"],
                     "gap_pct": usage["ppt"] - usage["dctcp"]})
    return {"rows": rows}


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
    return _fct_table(
        sim_schemes(),
        lambda: all_to_all_scenario("fig21", MEMCACHED_W1, load=load,
                                    n_flows=n_flows, size_cap=None,
                                    config=cfg))


def fig22_100_400g(*, load: float = 0.5, n_flows: int = 150) -> dict:
    """Fig. 22: FCT statistics at 100G edge / 400G core line rates."""
    return _largescale("fig22", WEB_SEARCH, load=load, n_flows=n_flows,
                       fabric=sim_fabric_100_400g())


def fig23_incast_sweep(*, ratios: Sequence[int] = (8, 16, 31),
                       load: float = 0.6, n_flows: int = 100) -> dict:
    """Fig. 23: N-to-1 incast (RC3 excluded: it cannot sustain heavy
    incast, per the paper)."""
    return _fct_table(
        _pick("ndp", "aeolus", "homa", "dctcp", "ppt"),
        lambda incast_ratio: incast_scenario(
            f"fig23-{incast_ratio}", WEB_SEARCH, n_senders=incast_ratio,
            load=load, n_flows=n_flows),
        [{"incast_ratio": n} for n in ratios])


def _qcfg_sweep(name: str, reference: str, swept: str, column: str,
                values: Sequence, qcfg: Callable, *, load: float,
                n_flows: int) -> dict:
    """``reference`` on the default fabric (``column`` "n/a"), ``swept``
    on ``qcfg(value)``'s queues for each of ``values``: two grids run as
    one."""

    def scenario(**variant):
        value = variant[column]
        fabric = None if value == "n/a" else sim_fabric(qcfg=qcfg(value))
        return all_to_all_scenario(f"{name}-{value}", WEB_SEARCH, load=load,
                                   n_flows=n_flows, fabric=fabric)

    tasks = scheme_grid(_pick(reference), scenario, [{column: "n/a"}])
    tasks += scheme_grid(_pick(swept), scenario,
                         [{column: value} for value in values])
    return {"rows": [summary.row()
                     for summary in run_grid(tasks, jobs=-1)]}


def fig24_rc3_lp_buffer(*, fractions: Sequence[float] = (0.2, 0.5, 0.8),
                        load: float = 0.5, n_flows: int = 150) -> dict:
    """Fig. 24: capping RC3's LP buffer does not save it."""
    return _qcfg_sweep(
        "fig24", "ppt", "rc3", "lp_buffer_fraction", fractions,
        lambda f: sim_qcfg(lp_buffer_cap=int(SIM_BUFFER * f)), load=load,
        n_flows=n_flows)


def sec63_lcp_threshold(*, k_lows: Sequence[int] = (25_000, 50_000, 86_000,
                                                    110_000),
                        load: float = 0.5, n_flows: int = 150) -> dict:
    """§6.3: PPT keeps its benefit over a wide range of K_low, the LCP
    queues' ECN threshold (86KB by default; DCTCP never uses them)."""
    return _qcfg_sweep("sec63", "dctcp", "ppt", "k_low", k_lows,
                       lambda k_low: sim_qcfg(k_low=k_low), load=load,
                       n_flows=n_flows)


def fig25_pias_hpcc(*, load: float = 0.5, n_flows: int = 150) -> dict:
    """Fig. 25: PPT vs PIAS vs HPCC."""
    return _fct_table(
        _pick("hpcc", "pias", "ppt"),
        lambda: all_to_all_scenario("fig25", WEB_SEARCH, load=load,
                                    n_flows=n_flows))


def fig26_non_oversubscribed(*, load: float = 0.5, n_flows: int = 150) -> dict:
    """Appendix E: the proactive-friendly fully-provisioned fabric."""
    return _largescale("fig26", WEB_SEARCH, load=load, n_flows=n_flows,
                       fabric=sim_fabric_non_oversubscribed())


def fig27_send_buffer(*, sizes: Sequence[int] = (128_000, 2_000_000,
                                                 2_000_000_000),
                      load: float = 0.5, n_flows: int = 150) -> dict:
    """Appendix F: PPT under different TCP send-buffer capacities."""
    return _fct_table(
        _pick("ppt"),
        lambda send_buffer: all_to_all_scenario(
            f"fig27-{send_buffer}", WEB_SEARCH, load=load, n_flows=n_flows,
            config=sim_config(send_buffer_bytes=send_buffer)),
        [{"send_buffer": size} for size in sizes])


# Appendix F's comparison set and its small-buffer microbenchmark fabric
_APPENDIX_F_SCHEMES = ("dctcp", "rc3", "ppt")
_APPENDIX_F_BUFFER = 120_000


def fig28_29_buffer_efficiency(*, fractions: Sequence[float] = (0.6, 0.8),
                               load: float = 0.7, n_flows: int = 100) -> dict:
    """Appendix F, Figs. 28/29: high- vs low-priority buffer occupancy
    and received/sent efficiency (overall and LP-only) per scheme, read
    from the same runs."""
    rows = []
    for fraction in fractions:
        k = int(_APPENDIX_F_BUFFER * fraction)  # both ECN thresholds
        for name in _APPENDIX_F_SCHEMES:
            scenario, probes = _probed(two_to_one_scenario(
                f"fig28-{name}-{fraction}", load=load, n_flows=n_flows,
                buffer_bytes=_APPENDIX_F_BUFFER, k_high=k, k_low=k),
                _occupancy, 50e-6)
            res = run(SCHEMES[name](), scenario)
            # averages past a 5-sample warm-up, in bytes
            samples = _enough(probes[0].samples, 6, "buffer occupancy")[5:]
            n = len(samples)
            total = sum(occ for _time, (occ, _hp) in samples) / n
            high = sum(hp for _time, (_occ, hp) in samples) / n
            low = sum(occ - hp for _time, (occ, hp) in samples) / n
            rows.append({"scheme": name, "ecn_fraction": fraction,
                         "avg_total_bytes": total, "avg_high_bytes": high,
                         "avg_low_bytes": low,
                         "low_share": (low / total) if total else 0.0,
                         "overall_efficiency": res.table.efficiency(),
                         "lp_efficiency": res.table.efficiency(lp=True)})
    return {"rows": rows}


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


def ext_baselines(*, load: float = 0.5, n_flows: int = 150) -> dict:
    """Extension: appendix B/C's and Table 1's other transports vs PPT."""
    return _fct_table(
        _pick("tcp10", "halfback", "expresspass", "timely", "dcqcn", "hpcc",
              "ppt-hpcc", "ppt"),
        lambda: all_to_all_scenario("ext-baselines", WEB_SEARCH, load=load,
                                    n_flows=n_flows))


# dynamic-threshold alphas: the default (scavenger P4-P7), uniform, none
BUFFER_MODELS = {"scavenger": (8.0,) * 4 + (1.0,) * 4, "uniform": 8.0,
                 "tail-drop": None}


def ext_buffer_model(*, load: float = 0.5, n_flows: int = 150) -> dict:
    """Extension: PPT and DCTCP under each buffer-sharing model."""
    return _fct_table(
        _pick("dctcp", "ppt"),
        lambda buffer_model: all_to_all_scenario(
            f"ext-buffer-model-{buffer_model}", WEB_SEARCH, load=load,
            n_flows=n_flows, fabric=sim_fabric(qcfg=sim_qcfg(
                dt_alpha=BUFFER_MODELS[buffer_model]))),
        [{"buffer_model": model} for model in BUFFER_MODELS])
