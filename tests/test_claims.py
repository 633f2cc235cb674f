"""The claims table (``repro.experiments.claims``) against the figure
rows recorded at smoke scale in ``golden_figure_rows.json``; no driver
runs.  Smoke rows carry other variant values than the default scale
(loads, ratios, fractions), so variant *columns* are checked, not
their values."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import FIGURES
from repro.experiments.claims import CLAIMS, OPS, RED, Cell, Claim, evaluate

GOLDEN = json.loads(
    Path(__file__).with_name("golden_figure_rows.json").read_text())
SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_figure_has_a_claim_and_every_claim_a_figure():
    assert {claim.figure for claim in CLAIMS} == set(FIGURES)


def test_every_figure_key_says_whether_it_is_the_papers():
    """A key starting ``ext-`` is a study beyond the paper's evaluation;
    every other key names a paper figure or section."""
    for key in FIGURES:
        assert re.fullmatch(r"(fig|sec)\d\d|ext-[a-z-]+", key), key


def test_claim_ids_are_unique():
    ids = [claim.id for claim in CLAIMS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("claim", CLAIMS, ids=[c.id for c in CLAIMS])
def test_claim_reads_what_its_figure_records(claim):
    rows = GOLDEN[claim.figure]
    columns = set().union(*rows)
    schemes = {row.get("scheme") for row in rows}
    for cell in filter(None, (claim.lhs, claim.rhs)):
        assert cell.metric in columns
        for column, value in cell.where:
            assert column in columns
            if column == "scheme":
                assert value in schemes
    assert claim.op in OPS
    assert math.isfinite(claim.bound)
    assert claim.paper


def test_every_red_claim_is_a_strict_xfail_quoting_its_two_numbers():
    assert set(RED) <= {claim.id for claim in CLAIMS}
    for claim in CLAIMS:
        assert bool(claim.xfail) == (claim.id in RED), claim.id
        if claim.xfail:
            lhs, rhs = RED[claim.id]
            assert claim.rhs is not None, claim.id
            assert claim.xfail.startswith("ROADMAP item 6: ")
            assert f" {lhs:.4g} !{claim.op} " in claim.xfail, claim.id
            assert claim.xfail.endswith(f" {rhs:.4g}"), claim.id


def test_evaluate_states_both_numbers_and_the_verdict():
    claim = Claim("x-overall-b", "x", "a beats b",
                  Cell((("scheme", "a"), ("load", 0.7)), "fct"), "<", 1.1,
                  Cell((("scheme", "b"), ("load", 0.7)), "fct"))
    rows = [{"scheme": "a", "load": 0.7, "fct": 2.0},
            {"scheme": "b", "load": 0.7, "fct": 1.0},
            {"scheme": "b", "load": 0.5, "fct": 9.0}]
    assert evaluate(claim, rows) == (
        False, "a load=0.7 fct 2 !< 1.1 x b load=0.7 fct 1")
    assert evaluate(claim._replace(bound=2.5), rows)[0]
    constant = claim._replace(rhs=None, op=">=", bound=2.0)
    assert evaluate(constant, rows) == (True, "a load=0.7 fct 2 >= 2")
    with pytest.raises(LookupError, match="2 rows match"):
        evaluate(claim._replace(rhs=Cell((("scheme", "b"),), "fct")), rows)


def test_import_repro_does_not_load_the_claims():
    code = ("import repro, sys; "
            "assert 'repro.experiments.claims' not in sys.modules")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                   check=True)
