"""Chained-hook core: compose per-event callbacks instead of replacing.

Every per-event hook site in the simulator (queue drops, ECN marks,
trims, fault transitions, ...) is a single attribute that is ``None``
when nobody is listening — the hot path pays one ``None``-check and
nothing else.  When more than one consumer wants the same hook (say a
benchmark's own counting callable *and* a
:class:`~repro.obs.telemetry.Telemetry`), :func:`chain` composes them so
attaching one never silently disables the other.  Callbacks run in
attach order.

Composed hooks are :class:`Chained` instances rather than closures so a
fully instrumented run stays picklable — simulator checkpoints
(:mod:`repro.resilience`) snapshot the whole object graph, hook sites
included.
"""

from __future__ import annotations

from typing import Callable, Optional


class Chained:
    """Two hook callbacks invoked in attach order with the same args.

    A plain class (not a closure) so checkpoint pickling can traverse
    hook sites; return values are ignored — hooks observe, they do not
    veto.
    """

    __slots__ = ("first", "second")

    def __init__(self, first: Callable, second: Callable) -> None:
        self.first = first
        self.second = second

    def __call__(self, *args) -> None:
        self.first(*args)
        self.second(*args)

    def __getstate__(self):
        return (self.first, self.second)

    def __setstate__(self, state) -> None:
        self.first, self.second = state


def chain(existing: Optional[Callable], fn: Optional[Callable]) -> Optional[Callable]:
    """Compose two hook callbacks; either may be ``None``.

    Returns a callable invoking ``existing`` then ``fn`` with the same
    arguments.  ``chain(None, fn) is fn`` so a single consumer costs no
    extra frame.
    """
    if existing is None:
        return fn
    if fn is None:
        return existing
    return Chained(existing, fn)
