"""A run imports only what it runs.

Every package ``__init__`` resolves its public names on first use
(``repro._lazy_exports``), and the runner and the scenario builders
import telemetry, the auditor, fault injection, the two-pass oracle and
every transport but PPT's and DCTCP's where a run switches them on.
Each check runs in a fresh interpreter: the test session has long since
imported everything.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
import textwrap

import pytest

from repro.experiments.scenarios import SCHEMES
from repro.transport.base import Scheme

PACKAGES = ("repro", "repro.core", "repro.experiments", "repro.transport",
            "repro.sim", "repro.validate", "repro.faults", "repro.obs",
            "repro.metrics", "repro.workloads", "repro.resilience")

# what a bare PPT run must leave unloaded
FORBIDDEN_PREFIXES = ("repro.validate", "repro.faults")
FORBIDDEN = {"repro.obs.telemetry", "repro.core.hypothetical",
             "repro.experiments.figures", "repro.experiments.parallel",
             "repro.experiments.tables", "repro.experiments.claims",
             "multiprocessing"}
TRANSPORTS_ON_PPT_PATH = {"repro.transport", "repro.transport.base",
                          "repro.transport.window", "repro.transport.dctcp"}


def _fresh(code: str):
    """Run ``code`` in a new interpreter; return the JSON it prints."""
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_bare_import_and_ppt_run_load_only_their_path():
    loaded = _fresh("""
        import json, sys
        import repro
        bare = sorted(m for m in sys.modules if m.startswith("repro."))
        from repro import Ppt, run
        from repro.experiments.scenarios import all_to_all_scenario, sim_fabric
        from repro.workloads.distributions import WEB_SEARCH
        result = run(Ppt(), all_to_all_scenario(
            "lazy", WEB_SEARCH, n_flows=8, fabric=sim_fabric()))
        assert result.health.ok
        print(json.dumps([bare, sorted(sys.modules)]))
    """)
    bare, after_run = loaded
    assert bare == []
    unwanted = sorted(
        m for m in after_run
        if m.startswith(FORBIDDEN_PREFIXES)
        or m in FORBIDDEN or m.startswith("multiprocessing.")
        or (m.startswith("repro.transport")
            and m not in TRANSPORTS_ON_PPT_PATH))
    assert unwanted == []
    assert "repro.core.ppt" in after_run  # the run did load its own path


def test_cli_loads_no_driver_or_grid_before_a_command_needs_one():
    loaded = _fresh("""
        import json, sys
        import repro.cli
        repro.cli.main(["list-schemes"])
        print(json.dumps(sorted(sys.modules)))
    """)
    assert "repro.experiments.scenarios" in loaded
    assert sorted({"repro.experiments.figures", "repro.experiments.tables",
                   "repro.experiments.parallel", "repro.experiments.workers",
                   "repro.sim.hybrid", "multiprocessing"}
                  & set(loaded)) == []


# (module a path must load, digest of its result at the last eager-import
# commit): sha256 prefixes over sorted (flow_id, fct) plus the path's own
# counters, recorded before the imports moved
ON_DEMAND = {
    "observe": ["repro.obs.telemetry", "64030ee77a373917"],
    "validate": ["repro.validate.auditor", "132577146ad52f8b"],
    "faults": ["repro.faults.plan", "2bf60cf64e11662a"],
    "two_pass": ["repro.core.hypothetical", "b1fd3103c575256d",
                 "378a6e570bfa43ab"],
}


def test_switched_on_paths_load_their_module_and_match_the_eager_build():
    got = _fresh("""
        import hashlib, json, sys
        from repro.core.ppt import Ppt
        from repro.experiments.runner import run, two_pass
        from repro.experiments.scenarios import (
            all_to_all_scenario, pfc_storm_scenario, sim_fabric)
        from repro.transport.dctcp import Dctcp
        from repro.workloads.distributions import WEB_SEARCH

        def scenario():
            return all_to_all_scenario("lazy", WEB_SEARCH, n_flows=8,
                                       fabric=sim_fabric())

        def digest(result, *extra):
            text = (repr(sorted((f.flow_id, f.fct) for f in result.flows))
                    + repr(extra))
            return hashlib.sha256(text.encode()).hexdigest()[:16]

        def on(module, path):
            before = module in sys.modules
            digests = path()
            return [module, before, module in sys.modules, *digests]

        def observed():
            r = run(Ppt(), scenario(), observe=True)
            t = r.telemetry.summary()
            return [digest(r, t.events_seen, t.marks, t.retransmits,
                           t.flows_completed)]

        def validated():
            r = run(Ppt(), scenario(), validate=True)
            return [digest(r, r.validation.ok)]

        def faulted():
            r = run(Dctcp(), pfc_storm_scenario("storm", n_flows=8))
            return [digest(r, r.health.fault_windows, r.health.ok)]

        def oracle():
            return [digest(r) for r in two_pass(scenario())]

        print(json.dumps({
            "observe": on("repro.obs.telemetry", observed),
            "validate": on("repro.validate.auditor", validated),
            "faults": on("repro.faults.plan", faulted),
            "two_pass": on("repro.core.hypothetical", oracle),
        }))
    """)
    for path, (module, *digests) in ON_DEMAND.items():
        name, before, after, *got_digests = got[path]
        assert name == module
        assert (before, after) == (False, True), path
        assert got_digests == digests, path


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        assert getattr(module, name) is not None
        assert name in listed
    with pytest.raises(AttributeError):
        getattr(module, "no_such_name")


def test_a_subpackage_is_an_attribute_of_its_parent():
    import repro
    assert repro.sim.star is importlib.import_module("repro.sim.topology").star


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_every_registered_scheme_builds(name):
    assert isinstance(SCHEMES[name](), Scheme)
