"""Tests for the Poisson flow generator and traffic patterns."""

import hashlib
import random

import pytest

from repro.transport.base import Flow
from repro.units import gbps
from repro.workloads.distributions import WEB_SEARCH
from repro.workloads.patterns import all_to_all, incast
from repro.workloads.streams import flow_stream


def generated(pattern, sizes, **kwargs):
    """The generated workload as a list, the way ``stream=False``
    scenarios get it."""
    return flow_stream(pattern, sizes, **kwargs).materialize()


class _QuantileSizes:
    """A duck-typed size source shaped like the benchmark suite's
    stratified sizes: the CDF's mid-stratum quantiles in seeded order,
    fed through the real CDF's inversion."""

    def __init__(self, cdf, n, seed):
        self.cdf = cdf
        self._us = [(i + 0.5) / n for i in range(n)]
        random.Random(seed).shuffle(self._us)
        self._cursor = 0

    def random(self):
        u = self._us[self._cursor % len(self._us)]
        self._cursor += 1
        return u

    def sample(self, rng, cap=None):
        return self.cdf.sample(self, cap)

    def mean(self, cap=None):
        return self.cdf.mean(cap)


def _digest_grid():
    for seed in (1, 7, 42):
        for cap in (None, 500_000):
            yield all_to_all(range(8)), WEB_SEARCH, dict(
                n_senders=8, seed=seed, size_cap=cap)
            yield incast(range(1, 8), 0), WEB_SEARCH, dict(
                n_senders=1, seed=seed, size_cap=cap, first_flow_id=1000)
    yield all_to_all(range(8)), _QuantileSizes(WEB_SEARCH, 60, 3), dict(
        n_senders=8, seed=3, size_cap=None)


#: sha256 over every drawn flow of :func:`_digest_grid`, pinned before the
#: streams became the only generator: it holds the arrival process (ids,
#: pairs, sizes, start times to the last bit) across refactors.
GENERATOR_DIGEST = (
    "a7e6fea8d024c17c92a33a6e91e16946ca3ffed627361b460db948eaef0805b8")


def test_generator_draws_are_pinned():
    digest = hashlib.sha256()
    for pattern, sizes, kwargs in _digest_grid():
        for f in generated(pattern, sizes, load=0.5, link_rate=gbps(40),
                           n_flows=60, **kwargs):
            digest.update(repr((f.flow_id, f.src, f.dst, f.size,
                                repr(f.start_time))).encode())
    assert digest.hexdigest() == GENERATOR_DIGEST


def test_flow_count_and_ids():
    flows = generated(all_to_all(range(8)), WEB_SEARCH, load=0.5,
                      link_rate=gbps(10), n_flows=50, n_senders=8)
    assert len(flows) == 50
    assert [f.flow_id for f in flows] == list(range(50))


def test_start_times_nondecreasing_from_zero():
    flows = generated(all_to_all(range(4)), WEB_SEARCH, load=0.5,
                      link_rate=gbps(10), n_flows=30, n_senders=4)
    times = [f.start_time for f in flows]
    assert times[0] == 0.0
    assert times == sorted(times)


def test_offered_load_approximates_target():
    """Total offered bytes over the arrival horizon approximates
    load x capacity."""
    load, rate, n = 0.5, gbps(10), 3000
    flows = generated(all_to_all(range(4)), WEB_SEARCH, load=load,
                      link_rate=rate, n_flows=n, n_senders=4,
                      size_cap=1_000_000, seed=42)
    horizon = flows[-1].start_time
    offered = sum(f.size for f in flows) * 8 / horizon
    assert offered == pytest.approx(load * 4 * rate, rel=0.15)


def test_seed_determinism():
    a = generated(all_to_all(range(4)), WEB_SEARCH, load=0.5,
                  link_rate=gbps(10), n_flows=20, n_senders=4, seed=1)
    b = generated(all_to_all(range(4)), WEB_SEARCH, load=0.5,
                  link_rate=gbps(10), n_flows=20, n_senders=4, seed=1)
    assert [(f.src, f.dst, f.size, f.start_time) for f in a] == \
           [(f.src, f.dst, f.size, f.start_time) for f in b]


def test_size_cap_enforced():
    flows = generated(all_to_all(range(4)), WEB_SEARCH, load=0.5,
                      link_rate=gbps(10), n_flows=200, n_senders=4,
                      size_cap=250_000)
    assert max(f.size for f in flows) <= 250_000


def test_invalid_args_rejected():
    with pytest.raises(ValueError):
        generated(all_to_all(range(4)), WEB_SEARCH, load=0.0,
                  link_rate=gbps(10), n_flows=10)
    with pytest.raises(ValueError):
        generated(all_to_all(range(4)), WEB_SEARCH, load=0.5,
                  link_rate=gbps(10), n_flows=0)


def test_first_flow_id_offset():
    flows = generated(all_to_all(range(4)), WEB_SEARCH, load=0.5,
                      link_rate=gbps(10), n_flows=5, n_senders=4,
                      first_flow_id=100)
    assert [f.flow_id for f in flows] == [100, 101, 102, 103, 104]


# -- patterns ----------------------------------------------------------------


def test_all_to_all_no_self_pairs():
    sampler = all_to_all(range(6))
    rng = random.Random(0)
    for _ in range(500):
        src, dst = sampler(rng)
        assert src != dst
        assert 0 <= src < 6 and 0 <= dst < 6


def test_all_to_all_requires_two_hosts():
    with pytest.raises(ValueError):
        all_to_all([1])


def test_incast_fixed_receiver():
    sampler = incast(range(5), receiver=4)
    rng = random.Random(0)
    for _ in range(100):
        src, dst = sampler(rng)
        assert dst == 4
        assert src != 4


def test_incast_requires_a_sender():
    with pytest.raises(ValueError):
        incast([3], receiver=3)


def test_flow_stream_rejects_self_pair_pattern():
    with pytest.raises(ValueError, match="src == dst == 3 for flow 0"):
        generated(lambda rng: (3, 3), WEB_SEARCH, load=0.5,
                  link_rate=gbps(10), n_flows=5)


@pytest.mark.parametrize("make", [
    lambda: all_to_all(range(6)),
    lambda: incast(range(5), receiver=4),
])
def test_patterns_pickle_and_draw_identically(make):
    """Patterns ride inside FlowStreams across checkpoint and worker
    boundaries, so they must survive pickle with behaviour intact."""
    import pickle

    original = make()
    clone = pickle.loads(pickle.dumps(original))

    def draws(sampler):
        rng = random.Random(9)
        return [sampler(rng) for _ in range(50)]

    assert draws(original) == draws(clone)
