"""repro — a packet-level reproduction of
"PPT: A Pragmatic Transport for Datacenters" (SIGCOMM 2024).

Public API quick tour::

    from repro import Ppt, Dctcp, Scenario, run
    from repro.sim import star
    from repro.workloads import WEB_SEARCH, all_to_all, flow_stream

See README.md for a full walkthrough and DESIGN.md for the system
inventory.
"""

from .core import (
    HypotheticalDctcp,
    LcpController,
    MirrorTagger,
    MwRecordingDctcp,
    Ppt,
    PptHpcc,
    PptSwift,
)
from .experiments import RunResult, Scenario, format_table, run, two_pass
from .metrics import FctStats, reduction
from .transport import (
    Aeolus,
    Dctcp,
    ExpressPass,
    Flow,
    Halfback,
    Homa,
    Hpcc,
    Ndp,
    Pias,
    Rc3,
    Scheme,
    Swift,
    Tcp10,
    Timely,
    TransportConfig,
    TransportContext,
)

__version__ = "1.0.0"

__all__ = [
    "Ppt", "PptSwift", "LcpController", "MirrorTagger",
    "HypotheticalDctcp", "MwRecordingDctcp",
    "Dctcp", "Pias", "Rc3", "Swift", "Hpcc", "Homa", "Aeolus", "Ndp",
    "Tcp10", "Halfback", "ExpressPass", "Timely", "PptHpcc",
    "Flow", "Scheme", "TransportConfig", "TransportContext",
    "Scenario", "RunResult", "run", "two_pass", "format_table",
    "FctStats", "reduction",
    "__version__",
]
