"""repro.validate — opt-in runtime invariant auditing.

Turn it on with ``run(scheme, scenario, validate=True)`` (audit mode:
violations accumulate into ``result.validation``), ``validate="strict"``
(first violation raises :class:`InvariantViolation`), or pass a
preconfigured :class:`RunAuditor`.  From the CLI: ``--validate`` /
``--validate-strict``.  ``python -m repro.validate.matrix`` audits the
default scenario matrix and doubles as the bare-vs-validated
bit-identity check CI runs.

See ``docs/validation.md`` for the law catalogue.
"""

from .. import _lazy_exports

__all__ = _lazy_exports(__name__, {
    ".auditor": ("RunAuditor", "audit_mux"),
    ".report": ("InvariantViolation", "ValidationReport", "Violation"),
    ".equivalence": ("EquivalenceReport", "compare_fct_distributions",
                     "ks_distance"),
})
