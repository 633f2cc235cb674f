"""Routing helpers: ECMP hashing and the switch's load balancers.

Commodity switches hash the 5-tuple to pick among equal-cost uplinks.  We
model the 5-tuple with the flow id and mix in the switch id so different
switches make independent choices, exactly like independent ASIC hash seeds.

A switch with no balancer (``Switch.lb is None``) uses that stateless
per-flow hash.  Any other path choice is a balancer plugged into
:class:`~repro.sim.switch.Switch` via the ``lb`` attribute — an object
with ``choose(flow_id, candidates, now, switch_id) -> index`` and a
``repins`` count:

* :class:`FlowletBalancer` — flowlet switching: a flow's packets follow
  one path while they arrive back to back; a gap longer than the flowlet
  idle threshold starts a new flowlet, which may re-hash onto a different
  path without reordering the flow (the gap exceeds the path-delay skew).
* :class:`CongaBalancer` — CONGA-style least-congested-path choice: each
  new flowlet picks the candidate port whose output queue currently holds
  the fewest bytes (local congestion-aware, leaf-local CONGA flavour).
* :class:`SprayBalancer` — NDP's per-packet spraying across all
  equal-cost paths, round robin per switch.  NDP installs it on every
  switch in place of the scenario's balancer; it is not an ``lb`` mode.
"""

from __future__ import annotations

import math
from typing import Dict, List

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1

# lcm(1..16): any candidate count that divides this wraps the spray
# counter without perturbing ``value % n``.  Fabrics with more than 16
# equal-cost uplinks extend the modulus lazily via math.lcm below.
_SPRAY_MODULUS = 720720


def ecmp_hash(flow_id: int, switch_id: int, n_choices: int) -> int:
    """Deterministic ECMP choice for ``flow_id`` at ``switch_id``.

    A 64-bit Fibonacci/SplitMix-style mixer: cheap, stateless, and
    well-distributed for sequential flow ids (which is what the workload
    generator produces).
    """
    if n_choices <= 1:
        return 0
    x = (flow_id * _GOLDEN + switch_id * 0xBF58476D1CE4E5B9) & _MASK
    x ^= x >> 31
    x = (x * 0x94D049BB133111EB) & _MASK
    x ^= x >> 29
    return x % n_choices


def flowlet_hash(flow_id: int, switch_id: int, flowlet_id: int,
                 n_choices: int) -> int:
    """ECMP mixer with the flowlet id folded in.

    ``flowlet_id == 0`` reproduces :func:`ecmp_hash` exactly, so a flow
    that never goes idle (or a balancer with an infinite gap) is
    bit-identical to per-flow ECMP.
    """
    if n_choices <= 1:
        return 0
    x = (flow_id * _GOLDEN + switch_id * 0xBF58476D1CE4E5B9
         + flowlet_id * 0xD6E8FEB86659FD93) & _MASK
    x ^= x >> 31
    x = (x * 0x94D049BB133111EB) & _MASK
    x ^= x >> 29
    return x % n_choices


class SprayBalancer:
    """NDP-style packet spraying: a per-switch round-robin counter.

    The counter wraps modulo a common multiple of every candidate count
    it has seen (seeded with lcm(1..16) = 720720), so the choice
    sequence is bit-identical to an unbounded counter while the stored
    integer — and thus checkpoint size — stays bounded over arbitrarily
    long soaks.
    """

    #: every packet picks anew; there is no flowlet to re-pin
    repins = 0

    __slots__ = ("_value", "_modulus")

    def __init__(self) -> None:
        self._value = 0
        self._modulus = _SPRAY_MODULUS

    def choose(self, flow_id: int, candidates: list, now: float,
               switch_id: int) -> int:
        n = len(candidates)
        if self._modulus % n:
            # A candidate count > 16 that does not divide the current
            # modulus: widen it.  Choices made before the widening are
            # unaffected; ones after match the unbounded counter unless
            # the counter had already wrapped (unreachable with in-repo
            # topologies, which never exceed 16 equal-cost paths).
            self._modulus = math.lcm(self._modulus, n)
        choice = self._value % n
        self._value = (self._value + 1) % self._modulus
        return choice


class FlowletBalancer:
    """Flowlet switching: re-pin a flow to a new path after an idle gap.

    State per active flow is ``[last_seen_time, flowlet_id,
    n_candidates, choice]``.  A packet arriving more than ``gap``
    seconds after the flow's previous packet, or finding the candidate
    set resized (routes were added), starts a new flowlet
    (``flowlet_id += 1``, one re-pin), and :meth:`pick` chooses its
    path; within a flowlet the choice is sticky, so packets are not
    reordered.  Here :meth:`pick` hashes the flowlet id in, and
    ``flowlet_id == 0`` hashes identically to per-flow ECMP, so
    ``gap=inf`` is bit-identical to the default balancer.

    Entries idle longer than the gap are evicted lazily every
    ``_SWEEP_EVERY`` choices, keeping state proportional to the number
    of *concurrently active* flows, not total flows seen — an evicted
    flow that returns simply starts at flowlet 0 again, which is a
    legitimate re-pin (its gap was by definition exceeded).
    """

    _SWEEP_EVERY = 4096

    __slots__ = ("gap", "repins", "_flows", "_calls")

    def __init__(self, gap: float) -> None:
        if not gap > 0:
            raise ValueError(f"flowlet gap must be > 0, got {gap}")
        self.gap = gap
        self.repins = 0
        self._flows: Dict[int, List] = {}
        self._calls = 0

    def pick(self, flow_id: int, flowlet_id: int, candidates: list,
             switch_id: int) -> int:
        """The candidate index a new flowlet takes."""
        return flowlet_hash(flow_id, switch_id, flowlet_id, len(candidates))

    def choose(self, flow_id: int, candidates: list, now: float,
               switch_id: int) -> int:
        gap = self.gap
        n = len(candidates)
        state = self._flows.get(flow_id)
        if state is None:
            state = self._flows[flow_id] = [
                now, 0, n, self.pick(flow_id, 0, candidates, switch_id)]
        else:
            if now - state[0] > gap or state[2] != n:
                state[1] += 1
                state[2] = n
                state[3] = self.pick(flow_id, state[1], candidates,
                                     switch_id)
                self.repins += 1
            state[0] = now
        if gap != math.inf:
            self._calls += 1
            if self._calls >= self._SWEEP_EVERY:
                self._calls = 0
                cutoff = now - gap
                flows = self._flows
                for fid in [f for f, s in flows.items() if s[0] < cutoff]:
                    del flows[fid]
        return state[3]


class CongaBalancer(FlowletBalancer):
    """CONGA-style congestion-aware path choice at flowlet granularity:
    each new flowlet picks the candidate output port with the smallest
    queue occupancy, breaking ties towards the lowest index."""

    __slots__ = ()

    def pick(self, flow_id: int, flowlet_id: int, candidates: list,
             switch_id: int) -> int:
        return min(range(len(candidates)),
                   key=lambda i: (candidates[i].mux.occupancy, i))


#: Default flowlet idle gap (seconds).  Must exceed the worst-case
#: path-delay skew between equal-cost paths so re-pinning cannot reorder
#: a flow; 500us is ~100x the in-repo leaf-spine propagation delay.
DEFAULT_FLOWLET_GAP = 500e-6

#: ``lb`` mode -> balancer class (``None``: stateless per-flow ECMP)
_BALANCERS = {"ecmp": None, "flowlet": FlowletBalancer,
              "conga": CongaBalancer}
LB_MODES = tuple(_BALANCERS)


def make_balancer(mode: str, gap: float = None):
    """Build a load balancer for ``mode``; ``None`` means default ECMP."""
    if mode not in _BALANCERS:
        raise ValueError(f"unknown load-balancer mode {mode!r} "
                         f"(expected one of {LB_MODES})")
    cls = _BALANCERS[mode]
    if cls is None:
        return None
    return cls(DEFAULT_FLOWLET_GAP if gap is None else gap)
