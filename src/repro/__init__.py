"""repro — a packet-level reproduction of
"PPT: A Pragmatic Transport for Datacenters" (SIGCOMM 2024).

Public API quick tour::

    from repro import Ppt, Dctcp, Scenario, run
    from repro.sim import star
    from repro.workloads import WEB_SEARCH, all_to_all, flow_stream

Every name here, and in each sub-package, is imported on first use
(PEP 562, :func:`_lazy_exports`), so ``import repro`` loads no
submodule.  See README.md for a full walkthrough and DESIGN.md for the
system inventory.
"""


def _lazy_exports(package: str, table: dict) -> list:
    """Serve ``table`` (relative submodule -> the names it defines; a
    name equal to the submodule's own is the submodule) from
    ``package``'s ``__getattr__`` and return the names for ``__all__``.
    Any other name imports the submodule of that name (``repro.sim``)."""
    import importlib
    import sys
    namespace = vars(sys.modules[package])
    where = {name: sub for sub, names in table.items() for name in names}

    def __getattr__(name: str):
        sub = where.get(name, "." + name)
        try:
            value = importlib.import_module(sub, package)
        except ModuleNotFoundError as exc:
            if exc.name != package + sub:
                raise
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        if sub != "." + name:
            value = getattr(value, name)
        namespace[name] = value
        return value

    namespace["__getattr__"] = __getattr__
    namespace["__dir__"] = lambda: sorted(set(namespace) | set(where))
    return list(where)


__version__ = "1.0.0"

__all__ = _lazy_exports(__name__, {
    ".core.ppt": ("Ppt",),
    ".core.ppt_swift": ("PptSwift",),
    ".core.lcp": ("LcpController",),
    ".core.tagging": ("MirrorTagger",),
    ".core.hypothetical": ("HypotheticalDctcp", "MwRecordingDctcp"),
    ".transport.dctcp": ("Dctcp",),
    ".transport.pias": ("Pias",),
    ".transport.rc3": ("Rc3",),
    ".transport.swift": ("Swift",),
    ".transport.hpcc": ("Hpcc",),
    ".transport.homa": ("Homa",),
    ".transport.aeolus": ("Aeolus",),
    ".transport.ndp": ("Ndp",),
    ".transport.tcp10": ("Tcp10",),
    ".transport.halfback": ("Halfback",),
    ".transport.expresspass": ("ExpressPass",),
    ".transport.timely": ("Timely",),
    ".core.ppt_hpcc": ("PptHpcc",),
    ".transport.base": ("Flow", "Scheme", "TransportConfig",
                        "TransportContext"),
    ".experiments.runner": ("Scenario", "RunResult", "run", "two_pass",
                            "format_table"),
    ".metrics.fct": ("FctStats", "reduction"),
}) + ["__version__"]
