"""The five benchmark workloads and the seeded inputs they run on.

Each workload is one scheme on one scenario, built through the
simulator's public scenario builders only.  ``make(seed, scale)``
returns a fresh ``(scheme, scenario)`` pair every call: scenarios hold a
seeded size source whose cursor must start at zero for every run.

Sizing: the parameters below were timed on a 2-core 2.1 GHz Xeon VM
under Python 3.11 so that one ``run()`` takes 0.6-2.6 s.  The size
distributions and caps are the paper's; only ``n_flows`` / ``horizon``
were scaled (see README.md for the measured rep times).
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.core.ppt import Ppt
from repro.experiments.runner import Scenario
from repro.experiments.scenarios import (
    HOMA_OVERCOMMIT,
    HOMA_RTT_BYTES_SIM,
    all_to_all_scenario,
    incast_scenario,
    sim_config,
    soak_scenario,
)
from repro.sim.hybrid import HybridConfig
from repro.transport.base import Scheme
from repro.transport.dctcp import Dctcp
from repro.transport.homa import Homa
from repro.units import gbps
from repro.workloads.distributions import (
    DATA_MINING,
    MEMCACHED_W1,
    WEB_SEARCH,
    EmpiricalCdf,
)


class StratifiedSizes:
    """A flow-size source with the CDF's exact quantiles, in seeded order.

    Why: the workloads draw a few dozen to a few hundred flows from
    heavy-tailed distributions, so with independent draws the byte total
    (and the host time to simulate it) swings by 2-5x between seeds —
    far more than any bound a regression check could use.  Systematic
    sampling fixes the size multiset to the CDF's ``n`` mid-stratum
    quantiles; the seed decides which flow gets which size, and (through
    the generator's own RNG) every arrival time and host pair.  The
    distribution the simulator sees is the paper's, discretised exactly.

    Duck-types :class:`EmpiricalCdf` for the generators, which call
    ``mean`` (arrival rate) and ``sample`` (one size per flow): ``sample``
    feeds the next quantile through the real CDF's inversion.
    """

    def __init__(self, cdf: EmpiricalCdf, n: int, seed: int) -> None:
        self.cdf = cdf
        self._us = [(i + 0.5) / n for i in range(n)]
        random.Random(seed).shuffle(self._us)
        self._cursor = 0

    def random(self) -> float:
        """The next quantile (what ``EmpiricalCdf.sample`` asks its rng for)."""
        u = self._us[self._cursor % len(self._us)]
        self._cursor += 1
        return u

    def sample(self, rng: random.Random, cap: Optional[int] = None) -> int:
        return self.cdf.sample(self, cap)

    def mean(self, cap: Optional[int] = None) -> float:
        return self.cdf.mean(cap)


@dataclass(frozen=True)
class Workload:
    """``why`` each workload exists is declared once, in BENCHMARK.json."""

    name: str
    default_seed: int
    make: Callable[[int, float], Tuple[Scheme, Scenario]]
    streamed: bool = False


def _scaled(n: int, scale: float, floor: int = 8) -> int:
    return max(floor, int(n * scale))


def _leafspine(seed: int, scale: float) -> Tuple[Scheme, Scenario]:
    n = _scaled(200, scale)
    return Ppt(), all_to_all_scenario(
        "ppt-websearch-leafspine", StratifiedSizes(WEB_SEARCH, n, seed),
        load=0.5, n_flows=n, seed=seed)


def _fullsize(seed: int, scale: float) -> Tuple[Scheme, Scenario]:
    n = _scaled(24, scale)
    return Ppt(), all_to_all_scenario(
        "ppt-websearch-fullsize", StratifiedSizes(WEB_SEARCH, n, seed),
        load=0.5, n_flows=n, size_cap=None, seed=seed, max_time=60.0)


def _homa_incast(seed: int, scale: float) -> Tuple[Scheme, Scenario]:
    n = _scaled(250, scale)
    return (Homa(rtt_bytes=HOMA_RTT_BYTES_SIM, overcommit=HOMA_OVERCOMMIT),
            incast_scenario(
                "homa-incast", StratifiedSizes(WEB_SEARCH, n, seed),
                n_senders=31, load=0.6, n_flows=n, seed=seed))


def _memcached(seed: int, scale: float,
               n_flows: int = 12_000) -> Tuple[Scheme, Scenario]:
    n = _scaled(n_flows, scale)
    return Ppt(), all_to_all_scenario(
        "memcached-churn", StratifiedSizes(MEMCACHED_W1, n, seed),
        load=0.5, n_flows=n, size_cap=None, stream=True, seed=seed,
        config=sim_config(demotion_thresholds=(2_000, 10_000, 30_000),
                          identification_threshold=30_000))


def _hybrid_soak(seed: int, scale: float) -> Tuple[Scheme, Scenario]:
    def scenario(cdf) -> Scenario:
        soak = soak_scenario(
            "hybrid-mixed-soak", cdf, horizon=10.0 * max(scale, 0.1),
            load=0.3, n_hosts=8, rate=gbps(0.1), size_cap=50_000_000,
            fault_period=None, stream=True, hybrid=HybridConfig(), seed=seed)
        # the longer max_time lets the tail finish on any seed
        return dataclasses.replace(soak, max_time=120.0)

    # soak_scenario derives its flow count from the horizon; ask the
    # plain stream for it so the strata match the flows one to one
    plain = scenario(DATA_MINING)
    n = plain.build_flows(plain.build_topology()).n_flows
    return Dctcp(), scenario(StratifiedSizes(DATA_MINING, n, seed))


def memcached_stream_scenario(seed: int, n_flows: int) -> Scenario:
    """The ``memcached-churn`` stream at another length (generator micro row)."""
    return _memcached(seed, 1.0, n_flows)[1]


WORKLOADS = {w.name: w for w in (
    Workload("ppt-websearch-leafspine", 7, _leafspine),
    Workload("ppt-websearch-fullsize", 1, _fullsize),
    Workload("homa-incast", 11, _homa_incast),
    Workload("memcached-churn", 7, _memcached, streamed=True),
    Workload("hybrid-mixed-soak", 23, _hybrid_soak, streamed=True),
)}
