"""The example scripts run end to end.

``examples/dual_loop_timeline.py`` prints a deterministic ASCII picture
of one PPT flow's dual-loop dynamics; its stdout is held byte for byte
to ``golden_dual_loop_timeline.txt``.  ``examples/full_scale.py`` runs
the 144-host fabric at its default (small) flow count and must exit 0.
A deliberate behaviour change re-records the golden file::

    PYTHONPATH=src python examples/dual_loop_timeline.py \\
        > tests/golden_dual_loop_timeline.txt
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden_dual_loop_timeline.txt")


def run_example(name, timeout=120):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "examples" / name)],
                          capture_output=True, text=True, env=env,
                          timeout=timeout, check=False)


def test_dual_loop_timeline_prints_the_golden_picture():
    done = run_example("dual_loop_timeline.py")
    assert done.returncode == 0, done.stderr
    assert done.stdout == GOLDEN.read_text()


def test_full_scale_runs():
    done = run_example("full_scale.py")
    assert done.returncode == 0, done.stderr
    assert "ppt" in done.stdout and "dctcp" in done.stdout
