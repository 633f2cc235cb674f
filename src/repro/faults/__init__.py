"""Fault injection: deterministic network-misbehaviour schedules.

PPT's claim is that a pragmatic transport stays efficient when the
network misbehaves; this package lets every scenario in the suite be
re-run under link blackouts/flaps, seeded packet loss, port rate
degradation and PFC storms — without subclassing any simulator
primitive.  See ``docs/fault-injection.md`` for the full catalogue.

Quick start::

    from repro.faults import FaultPlan, LinkDown

    scenario.faults = FaultPlan([LinkDown("leaf0->spine0", 0.005, 0.002)])
    result = run(Dctcp(), scenario)
    print(result.health.summary())
"""

from .. import _lazy_exports

__all__ = _lazy_exports(__name__, {
    ".injectors": ("Injector", "LinkFaultInjector", "LossInjector",
                   "PfcStormInjector", "PortDegrader"),
    ".plan": ("FAULT_KINDS", "ActiveFaults", "FaultPlan", "LinkDown",
              "LinkFlap", "PacketLoss", "PfcStorm", "RateDegrade"),
})
