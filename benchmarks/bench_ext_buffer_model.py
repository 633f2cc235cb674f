"""Extension: sensitivity of the headline result to the buffer-sharing
model — the main modelling choice DESIGN.md calls out.

Three port-buffer models, same web-search scenario:

* ``scavenger`` (default everywhere): dynamic thresholds with alpha=8
  for P0-P3 and alpha=1 for the lossy P4-P7 — commodity switches with a
  scavenger-class profile for opportunistic queues;
* ``uniform``: one alpha for every queue (no scavenger profile);
* ``tail-drop``: no dynamic thresholds at all (closest to the paper's
  ns-3 queues).

The claim checked: PPT beats DCTCP under *every* buffer model — the
reproduction's headline is not an artefact of the buffer-sharing choice —
and the scavenger profile is the kindest to PPT's small flows (it stops
opportunistic excess earliest), which is why it is the default.
"""

from conftest import run_figure
from repro.core.ppt import Ppt
from repro.experiments.runner import run
from repro.experiments.scenarios import all_to_all_scenario, sim_fabric, sim_qcfg
from repro.transport.dctcp import Dctcp
from repro.workloads.distributions import WEB_SEARCH

MODELS = {
    "scavenger": (8.0, 8.0, 8.0, 8.0, 1.0, 1.0, 1.0, 1.0),
    "uniform": 8.0,
    "tail-drop": None,
}


def _run_models():
    rows = []
    for model, alpha in MODELS.items():
        fabric = sim_fabric(qcfg=sim_qcfg(dt_alpha=alpha))
        scenario = all_to_all_scenario(f"bufmodel-{model}", WEB_SEARCH,
                                       load=0.5, n_flows=150, fabric=fabric)
        for scheme in (Dctcp(), Ppt()):
            # the drop count needs the live network, so this stays on
            # run() rather than the grid
            result = run(scheme, scenario)
            rows.append({
                "buffer_model": model,
                "scheme": scheme.name,
                **result.stats.row(),
                "drops": result.topology.network.total_drops(),
            })
    return {"rows": rows}


def test_buffer_model_sensitivity(benchmark):
    result = run_figure(benchmark, "Extension: buffer-model sensitivity",
                        _run_models)
    data = {(r["buffer_model"], r["scheme"]): r for r in result["rows"]}
    assert all(r["flows"] == 150 for r in result["rows"])
    for model in MODELS:
        ppt = data[(model, "ppt")]
        dctcp = data[(model, "dctcp")]
        # the headline survives every buffer model
        assert ppt["overall_avg_ms"] < dctcp["overall_avg_ms"], model
        assert ppt["small_avg_ms"] < dctcp["small_avg_ms"], model
    # the scavenger profile protects PPT's small flows at least as well
    # as the alternatives
    scav = data[("scavenger", "ppt")]["small_p99_ms"]
    assert scav <= data[("uniform", "ppt")]["small_p99_ms"] * 1.05
    assert scav <= data[("tail-drop", "ppt")]["small_p99_ms"] * 1.05
