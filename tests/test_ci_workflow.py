"""CI runs every benchmark: each ``benchmarks/bench_*.py`` and the perf
ratchet is named by some job of ``.github/workflows/ci.yml``, and every
benchmark path the workflow names exists.  A bench that no job runs can
go red unnoticed."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMED = set(re.findall(
    r"benchmarks/[\w/.-]+\.py",
    (ROOT / ".github" / "workflows" / "ci.yml").read_text()))


def test_every_bench_is_run_by_a_ci_job():
    benches = {path.relative_to(ROOT).as_posix()
               for path in (ROOT / "benchmarks").glob("bench_*.py")}
    assert sorted((benches | {"benchmarks/perf_ratchet.py"}) - NAMED) == []


def test_every_benchmark_the_workflow_names_exists():
    assert sorted(path for path in NAMED if not (ROOT / path).is_file()) == []
