"""Structured results of a validated run: violations and the report.

A :class:`Violation` is one broken law, captured with the offending
counters and the simulated time it was detected at.  In **strict** mode
the auditor wraps the first violation in an :class:`InvariantViolation`
and raises it on the spot; in **audit** mode (the default) violations
accumulate into a :class:`ValidationReport` that rides the
:class:`~repro.experiments.runner.RunResult` (and, being plain data,
crosses worker pipes inside a
:class:`~repro.experiments.parallel.RunSummary`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class Violation:
    """One broken invariant: which law, where, when, and the evidence.

    ``details`` holds only plain values (ints, floats, strings) so the
    violation pickles and serialises cleanly.
    """

    law: str
    subject: str
    sim_time: float
    message: str
    details: Dict[str, object] = field(default_factory=dict)

    def describe(self) -> str:
        extra = ""
        if self.details:
            extra = " (" + ", ".join(
                f"{k}={v}" for k, v in sorted(self.details.items())) + ")"
        return (f"[{self.law}] {self.subject} @ t={self.sim_time:.9f}: "
                f"{self.message}{extra}")


class InvariantViolation(AssertionError):
    """Raised in strict mode the moment a law breaks.

    Carries the structured :class:`Violation` (``.violation``) plus the
    law name, subject and sim time as direct attributes, so handlers can
    dispatch without parsing the message.
    """

    def __init__(self, violation: Violation) -> None:
        super().__init__(violation.describe())
        self.violation = violation
        self.law = violation.law
        self.subject = violation.subject
        self.sim_time = violation.sim_time
        self.details = violation.details

    def __reduce__(self):
        # Default exception pickling would replay __init__ with the
        # formatted message instead of the Violation; strict-mode
        # failures may cross worker pipes, so rebuild from the
        # structured record.
        return (InvariantViolation, (self.violation,))


@dataclass
class ValidationReport:
    """Everything a validated run learned; picklable plain data.

    ``violations`` keeps at most ``max_kept`` full records (a broken
    invariant usually breaks on every subsequent check, and millions of
    identical records help nobody); ``counts`` and ``violations_seen``
    stay exact regardless.
    """

    strict: bool = False
    checks_run: int = 0
    violations_seen: int = 0
    counts: Dict[str, int] = field(default_factory=dict)
    violations: List[Violation] = field(default_factory=list)
    max_kept: int = 200

    @property
    def ok(self) -> bool:
        return self.violations_seen == 0

    def record(self, violation: Violation) -> None:
        """Tally ``violation``; raise instead when strict."""
        if self.strict:
            raise InvariantViolation(violation)
        self.violations_seen += 1
        self.counts[violation.law] = self.counts.get(violation.law, 0) + 1
        if len(self.violations) < self.max_kept:
            self.violations.append(violation)

    def describe(self) -> str:
        if self.ok:
            return f"ok ({self.checks_run} checks)"
        laws = ", ".join(f"{law}×{n}" for law, n in sorted(self.counts.items()))
        return (f"{self.violations_seen} violation(s) over "
                f"{self.checks_run} checks: {laws}")
