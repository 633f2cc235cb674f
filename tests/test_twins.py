"""The twin guard: no two golden records may say the same thing unnoticed.

Two golden cells with one per-flow FCT hash (or one ``FlowTable`` hash),
or two smoke rows of one figure driver equal on every column but
``scheme``, pin nothing that one of them alone does not: whatever tells
them apart never moves a number there.  Such a group fails here unless
``TWINS`` lists it with the reason it is kept.  No simulation runs; the
guard reads ``golden_fingerprints.json``, ``golden_flowtables.json`` and
``golden_figure_rows.json``.
"""

import json
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).parent

# (golden record, the names that share one value) -> why they are kept
TWINS = {
    ("golden cells", ("ppt-leaf-spine", "streamed")):
        "streamed and materialised schedules are bit-identical by design",
    ("fig15", ("ppt", "ppt-noecn", "ppt-nosched")):
        "at 15 flows no LP-ACK is ECE-marked and the schedule never "
        "reorders; test_ppt.py's "
        "test_lcp_ecn_flag_moves_fcts_on_tail_drop_buffers and "
        "test_scheduling_flag_moves_fcts_on_a_small_incast "
        "show each flag is live",
}


def _shared(named_values) -> set:
    """Every sorted tuple of two or more names that share one value."""
    groups = defaultdict(list)
    for name, value in named_values:
        groups[value].append(name)
    return {tuple(sorted(names)) for names in groups.values()
            if len(names) > 1}


def twins(directory: Path) -> list:
    """Every ``(record, names)`` twin group in ``directory``'s golden
    files, listed or not."""
    def read(name):
        return json.loads((directory / name).read_text())

    cells = read("golden_fingerprints.json")
    found = {("golden cells", names) for names in
             _shared((cell, row["fct_sha256"]) for cell, row in cells.items())
             | _shared(read("golden_flowtables.json").items())}
    for driver, rows in read("golden_figure_rows.json").items():
        if driver == "series":      # fig01/fig20's utilisation series
            continue
        found |= {(driver, names) for names in _shared(
            (row.get("scheme", f"row {i}"),
             json.dumps({column: value for column, value in row.items()
                         if column != "scheme"}, sort_keys=True))
            for i, row in enumerate(rows))}
    return sorted(found)


def test_no_twin_is_unlisted():
    unlisted = [twin for twin in twins(HERE) if twin not in TWINS]
    assert not unlisted, f"twins that TWINS does not list: {unlisted}"


def test_every_listed_twin_is_still_one():
    """A listed pair that stopped being twins leaves the list with its
    reason."""
    assert set(TWINS) <= set(twins(HERE))
