"""Traffic patterns: who talks to whom.

A pattern is a callable ``(rng) -> (src, dst)`` drawing one
source/destination pair per flow.  The paper uses:

* **all-to-all** — §6.2 large-scale simulations and the 15-to-15 testbed
  pattern (every host both sends and receives),
* **N-to-1 incast** — the 14-to-1 testbed pattern (§6.1.2) and the
  Fig. 23 incast sweep (N = 32..256 senders to one receiver),
* **two-to-one** — the Fig. 1/20/28/29 microbenchmarks.

Patterns are small picklable classes (the lowercase factory names are
aliases kept for the original closure-based API): a
:class:`~repro.workloads.streams.FlowStream` carries its pattern inside
checkpoint snapshots and across worker-process boundaries, so the
pattern must survive ``pickle`` — closures do not.  Every pattern is
guaranteed to never produce ``src == dst``.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence, Tuple

PairSampler = Callable[[random.Random], Tuple[int, int]]


class AllToAll:
    """Uniform random (src, dst) pairs with src != dst."""

    def __init__(self, hosts: Sequence[int]):
        self.hosts = list(hosts)
        if len(self.hosts) < 2:
            raise ValueError("all_to_all needs at least two hosts")

    def __call__(self, rng: random.Random) -> Tuple[int, int]:
        hosts = self.hosts
        src = rng.choice(hosts)
        dst = rng.choice(hosts)
        while dst == src:
            dst = rng.choice(hosts)
        return src, dst


class Incast:
    """Random sender from ``senders``, fixed ``receiver``."""

    def __init__(self, senders: Sequence[int], receiver: int):
        self.senders = [h for h in senders if h != receiver]
        self.receiver = receiver
        if not self.senders:
            raise ValueError("incast needs at least one sender != receiver")

    def __call__(self, rng: random.Random) -> Tuple[int, int]:
        return rng.choice(self.senders), self.receiver


# Original factory-function API; each returns a picklable instance.
all_to_all = AllToAll
incast = Incast
