"""Unit + property tests for mirror-symmetric packet tagging (§4.2)."""

from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_ctx, make_star
from repro.core.ppt import Ppt, PptSender
from repro.core.tagging import HCP_LOWEST, LCP_OFFSET, MirrorTagger
from repro.transport.base import Flow


def test_identified_large_pinned_to_lowest():
    tagger = MirrorTagger(identified_large=True)
    assert tagger.hcp_priority(0) == 3
    assert tagger.hcp_priority(10**9) == 3
    assert tagger.lcp_priority(0) == 7


def test_unidentified_starts_at_top():
    tagger = MirrorTagger(identified_large=False)
    assert tagger.hcp_priority(0) == 0
    assert tagger.lcp_priority(0) == 4


def test_demotion_through_levels():
    tagger = MirrorTagger(False, demotion_thresholds=(100, 200, 300))
    assert tagger.hcp_priority(99) == 0
    assert tagger.hcp_priority(100) == 1
    assert tagger.hcp_priority(200) == 2
    assert tagger.hcp_priority(300) == 3
    assert tagger.hcp_priority(10**9) == 3


def test_thresholds_must_be_sorted():
    with pytest.raises(ValueError):
        MirrorTagger(False, demotion_thresholds=(300, 200, 100))


def test_exactly_three_thresholds_required():
    with pytest.raises(ValueError):
        MirrorTagger(False, demotion_thresholds=(100, 200))


@settings(max_examples=100, deadline=None)
@given(st.booleans(), st.integers(min_value=0, max_value=10**12))
def test_mirror_property(identified, bytes_sent):
    """LCP priority is always exactly HCP priority + 4 (Fig. 6)."""
    tagger = MirrorTagger(identified)
    hcp = tagger.hcp_priority(bytes_sent)
    assert tagger.lcp_priority(bytes_sent) == hcp + LCP_OFFSET
    assert 0 <= hcp <= HCP_LOWEST


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10**10), min_size=2,
                max_size=20))
def test_priority_monotone_in_bytes_sent(values):
    """More bytes sent never raises a flow's priority back up."""
    tagger = MirrorTagger(False)
    values.sort()
    priorities = [tagger.hcp_priority(v) for v in values]
    assert priorities == sorted(priorities)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10**10))
def test_lcp_always_below_every_hcp(bytes_sent):
    """Any LCP packet is strictly lower priority than any HCP packet —
    the §4.3 HCP-protection invariant."""
    for identified in (False, True):
        tagger = MirrorTagger(identified)
        assert tagger.lcp_priority(bytes_sent) > HCP_LOWEST


def _ppt_sender(flow_id, size, **cfg):
    topo = make_star()
    return PptSender(Flow(flow_id, 0, 1, size, 0.0), make_ctx(topo, **cfg),
                     Ppt())


def test_senders_with_one_key_share_one_immutable_tagger():
    small, other_small = _ppt_sender(0, 3_000), _ppt_sender(1, 5_000)
    large = _ppt_sender(2, 500_000)
    assert small.tagger is other_small.tagger
    assert large.identified_large and large.tagger is not small.tagger
    assert _ppt_sender(3, 3_000, demotion_thresholds=[10, 20, 30]).tagger \
        is _ppt_sender(4, 3_000, demotion_thresholds=(10, 20, 30)).tagger
    with pytest.raises(FrozenInstanceError):
        small.tagger.identified_large = True


@pytest.mark.parametrize("thresholds", [(300, 200, 100), (100, 200)])
def test_a_sender_with_bad_thresholds_still_raises(thresholds):
    for _ in range(2):                   # a failed key is not cached
        with pytest.raises(ValueError):
            _ppt_sender(0, 3_000, demotion_thresholds=thresholds)
