"""Cluster matcher in the style of "le Subscribe" (Fabret et al.,
SIGMOD 2001 — paper ref [4]).

Subscriptions containing at least one equality predicate are clustered
by an *access predicate*: the ``(attribute, value)`` of their least
selective equality conjunct is the cluster key.  Matching an event
probes, for each event pair, the single hash bucket of clusters keyed
by that pair — only subscriptions in probed clusters are evaluated, and
their access predicate is already known satisfied.

Subscriptions with no equality predicate fall back to a scan pool
(range-only subscriptions are rare in the targeted workloads; the A1
benchmark quantifies the sensitivity).

The batched path (:meth:`ClusterMatcher._match_batch`) memoizes
residual-predicate outcomes per ``(predicate, value)`` across the
semantic expansion *and across publications*: sibling derivations
differ from their parent in one pair, and workload traces repeat
pairs across events, so nearly every residual evaluation repeats
verbatim and is answered from the persistent memo instead of
re-evaluated.  Sound because predicate keys and canonical value keys
identify behavior exactly (``4`` vs ``4.0`` evaluate identically under
every operator); since ``Predicate.evaluate`` is a pure function of
that identity, subscription churn cannot stale an entry — the memo
stays warm across subscribe/unsubscribe and is only dropped on the
engine-propagated reasons (knowledge-base version changes, epoch
bumps, reconfigure) and on capacity overflow.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.matching.base import MatchingAlgorithm, register_matcher
from repro.model.events import Event
from repro.model.predicates import Operator, Predicate
from repro.model.subscriptions import Subscription
from repro.model.values import canonical_value_key

if TYPE_CHECKING:
    from repro.core.pipeline import PipelineResult
    from repro.core.provenance import DerivedEvent

__all__ = ["ClusterMatcher"]

#: Cluster key: (attribute, canonical value key).
_ClusterKey = tuple


class ClusterMatcher(MatchingAlgorithm):
    """Access-predicate clustering matcher."""

    name = "cluster"

    #: entry bound of the cross-publication residual-outcome memo
    memo_capacity = 65536

    def __init__(self) -> None:
        super().__init__()
        #: cluster key -> {sub_id: residual predicates to evaluate}
        self._clusters: dict[_ClusterKey, dict[str, tuple[Predicate, ...]]] = {}
        self._access_of: dict[str, _ClusterKey] = {}
        #: subscriptions with no equality predicate: sub_id -> predicates
        self._scan_pool: dict[str, tuple[Predicate, ...]] = {}
        #: popularity of candidate access pairs, used to pick the most
        #: selective (least popular) access predicate for new arrivals.
        self._popularity: dict[_ClusterKey, int] = {}
        #: (predicate key, canonical value key) -> evaluation outcome;
        #: survives across match_batch calls AND subscription churn.
        self._residual_memo: dict[tuple, bool] = {}
        #: value-identity function for cluster keys and memo keys; an
        #: interning engine rebinds it to the concept table's
        #: spelling-id mapping (see bind_interner).
        self._value_key = canonical_value_key

    def invalidate_memo(self, reason: str = "external") -> None:
        """Outcomes are keyed by predicate identity, which churn cannot
        stale — only engine-driven reasons drop the memo.  Entries for
        since-removed predicates are harmless and bounded by
        ``memo_capacity``."""
        if reason == "subscription-churn":
            return
        if self._residual_memo:
            self._residual_memo.clear()
            self.stats.memo_invalidations += 1

    def memo_size(self) -> int:
        return len(self._residual_memo)

    def bind_interner(self, value_key) -> None:
        """Adopt the interned value identity: rebuild every cluster
        under the new keys (re-inserting in insertion order, so access
        choices stay deterministic) and drop the residual memo, whose
        keys embed the previous identity."""
        new_key = canonical_value_key if value_key is None else value_key
        if new_key is self._value_key:
            return
        self._value_key = new_key
        self._clusters.clear()
        self._access_of.clear()
        self._scan_pool.clear()
        self._popularity.clear()
        for subscription in self.subscriptions():
            self._on_insert(subscription)
        self.invalidate_memo("interner-rebind")

    # -- maintenance -------------------------------------------------------------

    def _equality_keys(self, subscription: Subscription) -> list[tuple[_ClusterKey, Predicate]]:
        keys = []
        value_key = self._value_key
        for predicate in subscription.predicates:
            if predicate.operator is Operator.EQ:
                keys.append(((predicate.attribute, value_key(predicate.operand)), predicate))
        return keys

    def _on_insert(self, subscription: Subscription) -> None:
        candidates = self._equality_keys(subscription)
        if not candidates:
            self._scan_pool[subscription.sub_id] = subscription.predicates
            return
        # Choose the least popular access pair so clusters stay small
        # (le Subscribe picks by selectivity; popularity is its online
        # proxy).  Ties break deterministically by attribute then key.
        cluster_key, access_pred = min(
            candidates,
            key=lambda item: (self._popularity.get(item[0], 0), item[0][0], repr(item[0][1])),
        )
        self._popularity[cluster_key] = self._popularity.get(cluster_key, 0) + 1
        residual = tuple(
            predicate
            for predicate in subscription.predicates
            if predicate.key != access_pred.key
        )
        self._clusters.setdefault(cluster_key, {})[subscription.sub_id] = residual
        self._access_of[subscription.sub_id] = cluster_key

    def _on_remove(self, subscription: Subscription) -> None:
        sub_id = subscription.sub_id
        if sub_id in self._scan_pool:
            del self._scan_pool[sub_id]
            return
        cluster_key = self._access_of.pop(sub_id, None)
        if cluster_key is None:
            return
        cluster = self._clusters.get(cluster_key)
        if cluster is not None:
            cluster.pop(sub_id, None)
            if not cluster:
                del self._clusters[cluster_key]
        remaining = self._popularity.get(cluster_key, 1) - 1
        if remaining > 0:
            self._popularity[cluster_key] = remaining
        else:
            self._popularity.pop(cluster_key, None)

    # -- matching ----------------------------------------------------------------------

    def _residual_match(self, event: Event, predicates: tuple[Predicate, ...]) -> bool:
        stats = self.stats
        # predicate attributes are normalized at construction and event
        # keys are normalized at construction: probe the pair table
        # directly instead of re-normalizing per residual check.
        pairs = event._pairs
        for predicate in predicates:
            value = pairs.get(predicate.attribute)
            if value is None:  # None is not a legal value: attribute absent
                return False
            # counted only for real evaluate() calls (absent-attribute
            # rejections are dict probes), matching the batch path's
            # accounting so serial-vs-batch eval ratios are honest.
            stats.predicate_evaluations += 1
            if not predicate.evaluate(value):
                return False
        return True

    def _matched_ids(self, event: Event, residual_check) -> list[str]:
        """One event's matched ids: probe the cluster of each event
        pair, then sweep the scan pool.  *residual_check* evaluates a
        residual predicate tuple (serial or batch-memoized)."""
        stats = self.stats
        matched_ids: list[str] = []
        value_key = self._value_key
        clusters = self._clusters
        probes = 0
        for attribute, value in event._pairs.items():
            cluster = clusters.get((attribute, value_key(value)))
            probes += 1
            if not cluster:
                continue
            for sub_id, residual in cluster.items():
                stats.candidates += 1
                if residual_check(event, residual):
                    matched_ids.append(sub_id)
        stats.index_probes += probes
        for sub_id, predicates in self._scan_pool.items():
            stats.candidates += 1
            if residual_check(event, predicates):
                matched_ids.append(sub_id)
        return matched_ids

    def _match(self, event: Event) -> list[Subscription]:
        return self._ordered(self._matched_ids(event, self._residual_match))

    # -- batched matching ---------------------------------------------------------

    def _residual_match_memo(
        self, event: Event, predicates: tuple[Predicate, ...], memo: dict
    ) -> bool:
        """`_residual_match` with cross-derivation evaluation sharing:
        each ``(predicate, value)`` outcome is computed once per memo
        lifetime (the memo persists across publications)."""
        stats = self.stats
        value_key = self._value_key
        pairs = event._pairs
        for predicate in predicates:
            value = pairs.get(predicate.attribute)
            if value is None:  # None is not a legal value: attribute absent
                return False
            key = (predicate.key, value_key(value))
            outcome = memo.get(key)
            if outcome is None:
                stats.predicate_evaluations += 1
                stats.memo_misses += 1
                outcome = predicate.evaluate(value)
                if len(memo) >= self.memo_capacity:
                    memo.clear()
                    stats.memo_invalidations += 1
                memo[key] = outcome
            else:
                stats.probes_saved += 1
                stats.memo_hits += 1
            if not outcome:
                return False
        return True

    def _match_batch(self, result: "PipelineResult") -> dict[str, tuple[int, "DerivedEvent"]]:
        stats = self.stats
        memo = self._residual_memo

        def residual_check(event, predicates):
            return self._residual_match_memo(event, predicates, memo)

        best: dict[str, tuple[int, "DerivedEvent"]] = {}
        for derived in result.derived:
            matched_ids = self._matched_ids(derived.event, residual_check)
            stats.events += 1
            stats.matches += len(matched_ids)
            self._reduce_batch_matches(best, derived, matched_ids)
        return best


register_matcher(ClusterMatcher.name, ClusterMatcher)
