"""Property: every matching algorithm agrees with the naive oracle.

This is the load-bearing guarantee behind the paper's "minimize the
changes to the algorithms" design — the semantic layer may choose any
matcher and get identical semantics.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.matching import ClusterMatcher, CountingMatcher, NaiveMatcher, create_matcher
from repro.matching.vectorized import HAVE_NUMPY

from .strategies import events, subscriptions

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")


@given(
    subs=st.lists(subscriptions(), min_size=0, max_size=25),
    evts=st.lists(events(), min_size=1, max_size=6),
)
def test_counting_and_cluster_match_naive(subs, evts):
    matchers = [NaiveMatcher(), CountingMatcher(), ClusterMatcher()]
    for sub in subs:
        for matcher in matchers:
            # the same Subscription object (and id) goes to every matcher
            matcher.insert(sub)
    for event in evts:
        reference = matchers[0].match_ids(event)
        for matcher in matchers[1:]:
            assert matcher.match_ids(event) == reference


@given(
    subs=st.lists(subscriptions(), min_size=2, max_size=20),
    evts=st.lists(events(), min_size=1, max_size=4),
    removals=st.data(),
)
def test_agreement_survives_removals(subs, evts, removals):
    matchers = [NaiveMatcher(), CountingMatcher(), ClusterMatcher()]
    for sub in subs:
        for matcher in matchers:
            matcher.insert(sub)
    to_remove = removals.draw(
        st.lists(
            st.sampled_from([s.sub_id for s in subs]),
            min_size=0,
            max_size=len(subs),
            unique=True,
        )
    )
    for sub_id in to_remove:
        for matcher in matchers:
            matcher.remove(sub_id)
    for event in evts:
        reference = matchers[0].match_ids(event)
        for matcher in matchers[1:]:
            assert matcher.match_ids(event) == reference


@needs_numpy
@given(
    subs=st.lists(subscriptions(), min_size=1, max_size=20),
    evts=st.lists(events(), min_size=2, max_size=6),
    removals=st.data(),
)
def test_vectorized_matchers_match_naive_through_churn(subs, evts, removals):
    """The numpy cluster matcher stays agreed with the oracle across
    subscription churn happening *between* matched events — its batch
    plans must invalidate."""
    matchers = [NaiveMatcher(), create_matcher("cluster-numpy")]
    for sub in subs:
        for matcher in matchers:
            matcher.insert(sub)
    half = len(evts) // 2
    for event in evts[:half]:
        reference = matchers[0].match_ids(event)
        for matcher in matchers[1:]:
            assert matcher.match_ids(event) == reference
    to_remove = removals.draw(
        st.lists(
            st.sampled_from([s.sub_id for s in subs]),
            min_size=0,
            max_size=len(subs),
            unique=True,
        )
    )
    for sub_id in to_remove:
        for matcher in matchers:
            matcher.remove(sub_id)
    for event in evts[half:]:
        reference = matchers[0].match_ids(event)
        for matcher in matchers[1:]:
            assert matcher.match_ids(event) == reference


@given(sub=subscriptions(), event=events())
def test_matchers_agree_with_direct_evaluation(sub, event):
    expected = sub.matches(event)
    for matcher_cls in (NaiveMatcher, CountingMatcher, ClusterMatcher):
        matcher = matcher_cls()
        matcher.insert(sub)
        assert bool(matcher.match(event)) is expected
