"""Property: every matching algorithm agrees with the naive oracle.

This is the load-bearing guarantee behind the paper's "minimize the
changes to the algorithms" design — the semantic layer may choose any
matcher and get identical semantics.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.matching import CountingMatcher, NaiveMatcher

from .strategies import events, subscriptions


@given(
    subs=st.lists(subscriptions(), min_size=0, max_size=25),
    evts=st.lists(events(), min_size=1, max_size=6),
)
def test_counting_matches_naive(subs, evts):
    matchers = [NaiveMatcher(), CountingMatcher()]
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
    matchers = [NaiveMatcher(), CountingMatcher()]
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


@given(
    subs=st.lists(subscriptions(), min_size=1, max_size=20),
    evts=st.lists(events(), min_size=2, max_size=6),
    removals=st.data(),
)
def test_agreement_survives_churn_between_events(subs, evts, removals):
    """Matching, then removing, then matching again: the counting
    index's per-predicate usage counts must follow removals that happen
    after it has already matched events."""
    matchers = [NaiveMatcher(), CountingMatcher()]
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
    for matcher_cls in (NaiveMatcher, CountingMatcher):
        matcher = matcher_cls()
        matcher.insert(sub)
        assert bool(matcher.match(event)) is expected
