"""The S-ToPSS engine: semantic stage + unchanged matching algorithm.

This is the component Figure 1 depicts: subscriptions pass through the
synonym stage and land in the (unmodified) matching algorithm; each
publication is expanded by the semantic pipeline into a batch of
derived events, the whole batch is matched syntactically in one
:meth:`~repro.matching.base.MatchingAlgorithm.match_batch` pass,
and the resulting per-subscription minima — filtered by each
subscriber's generality tolerance — are the semantic match set.

Batched matching keeps the hot path linear in *new* work rather than
in the expansion factor: sibling derivations share every ``(attribute,
value)`` pair outside the one they rewrote, so a batch of hundreds
of derived events holds a few dozen distinct pairs, and the default
counting matcher answers the whole batch from one lookup per distinct
pair (one bit per derived event; ``probes_saved`` in the matcher stats
counts the lookups a memo kept warm across publications answered).
Nothing the engine derives outlives the publication that derived it; a
repeated publication is served by the dispatcher's result cache
(:mod:`repro.broker.dispatcher`) or expanded again.

The engine runs in the demo's two modes (paper §4): *semantic* (any
stage combination enabled) or *syntactic* (no stage runs; the engine
degenerates to the bare matching algorithm).  Modes can be switched at
runtime with :meth:`SToPSS.reconfigure`, which re-derives every stored
subscription's root form and rebuilds the matcher in place.

Shard-safe construction: N engine replicas may be built on one shared
:class:`~repro.ontology.knowledge_base.KnowledgeBase` and publish
concurrently, one forked worker process per replica — the sharded
broker's fan-out, :mod:`repro.broker.sharding`.  The full contract
(the replica-local mutation rule, what each executor may share, what
fork hands a worker and what crosses its pipe) lives
in ``docs/CONCURRENCY.md``; the one-line version: everything an engine
*mutates* during publish is replica-local, and a single engine
instance is **not** re-entrant.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.config import SemanticConfig
from repro.core.interest import InterestIndex
from repro.core.pipeline import PipelineResult, SemanticPipeline
from repro.core.provenance import SemanticMatch
from repro.matching.base import MatchingAlgorithm, create_matcher
from repro.model.events import Event
from repro.model.subscriptions import Subscription
from repro.ontology.knowledge_base import KnowledgeBase

__all__ = ["SToPSS"]


class SToPSS:
    """Semantic Toronto Publish/Subscribe System.

    Parameters
    ----------
    kb:
        The knowledge base (synonyms, taxonomies, mapping rules).
    matcher:
        A registered matcher name (``"counting"``, the default, or
        ``"naive"``, the reference) or a :class:`MatchingAlgorithm`
        instance.  The engine never inspects
        it beyond the public interface — the paper's "minimize the
        changes to the algorithms" goal.
    config:
        Stage toggles and tolerance knobs; defaults to full semantic
        mode.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        *,
        matcher: str | MatchingAlgorithm = "counting",
        config: SemanticConfig | None = None,
        extra_stages: tuple = (),
    ) -> None:
        self.kb = kb
        self.config = config if config is not None else SemanticConfig()
        if isinstance(matcher, str):
            self._matcher_name = matcher
            self._matcher = create_matcher(matcher)
        else:
            self._matcher_name = matcher.name
            self._matcher = matcher
        self._extra_stages = tuple(extra_stages)
        self.pipeline = SemanticPipeline(kb, self.config, extra_stages=self._extra_stages)
        #: sub_id -> the subscription as subscribed, where its root differs
        self._originals: dict[str, Subscription] = {}
        self.publications = 0
        #: whether the latest publication's expansion hit
        #: ``max_derived_events`` (``None`` before the first)
        self.last_truncated: bool | None = None
        #: derived events built over all publications, and
        #: ``{derived_count: publications}`` in first-seen bucket order
        self.derived_events = 0
        self._derived_histogram: dict[int, int] = {}
        #: locally-bumped epoch folded into the semantic version; lets a
        #: caller force-invalidate every semantic cache even when
        #: ``kb.version`` is unchanged.
        self._epoch = 0
        #: (kb.version, epoch) the cached semantic state was derived under.
        self._semantic_version = (kb.version, self._epoch)
        #: live subscription-interest index driving demand-driven
        #: expansion (None = exhaustive expansion); fed every
        #: matcher-inserted root form, handed to the pipeline per
        #: publish, rebuilt by reconfigure.
        self._interest = self._build_interest()

    def _build_interest(self) -> InterestIndex | None:
        """A fresh interest index under the active configuration, or
        ``None`` when pruning is off, pointless (syntactic mode) or
        unprovable for the stage set (the string reference of
        ``interning=False``, or an extra stage without the interest
        hook — those keep the exhaustive behavior)."""
        config = self.config
        if not config.interest_pruning or config.is_syntactic:
            return None
        if not self.pipeline.supports_interest_pruning():
            return None
        return InterestIndex(self.kb, self.config)

    def _active_interest(self) -> InterestIndex | None:
        """The interest index when it can actually prune right now —
        ``None`` when pruning is configured off, unsound for the stage
        set, or self-disabled by a mapping rule with an unknown read
        set.  The expansion handoff keys off this, so a self-disabled
        index costs no per-candidate prune checks (the index object
        stays live: removing the offending rule re-enables it through
        the semantic-version sync)."""
        interest = self._interest
        if interest is None or not interest.active:
            return None
        return interest

    # -- subscription management ---------------------------------------------------

    def subscribe(self, subscription: Subscription, seq: int | None = None) -> Subscription:
        """Register a subscription at *seq* in match order (default:
        last); returns the *root* form inserted into the matcher (the
        input itself in syntactic mode or when no attribute has synonyms)."""
        root = self.pipeline.process_subscription(subscription)
        self._matcher.insert(root, seq)
        if root is not subscription:
            self._originals[subscription.sub_id] = subscription
        if self._interest is not None:
            self._interest.add(root)
        return root

    def unsubscribe(self, sub_id: str) -> Subscription:
        """Remove a subscription by id, returning the original."""
        removed_root = self._matcher.remove(sub_id)
        if self._interest is not None:
            self._interest.remove(removed_root)
        return self._originals.pop(sub_id, removed_root)

    def __len__(self) -> int:
        return len(self._matcher)

    def __contains__(self, sub_id: str) -> bool:
        return sub_id in self._matcher

    def subscriptions(self) -> Iterator[Subscription]:
        """Original subscriptions in insertion order."""
        for root in self._matcher.subscriptions():
            yield self._originals.get(root.sub_id, root)

    def original(self, sub_id: str) -> Subscription:
        """The subscription *sub_id* was subscribed as."""
        original = self._originals.get(sub_id)
        return self._matcher.get(sub_id) if original is None else original

    # -- publishing -------------------------------------------------------------------

    def publish(self, event: Event) -> list[SemanticMatch]:
        """Match one publication, returning semantic matches in
        subscription insertion order.

        The publish hot path is one batched pass: the semantic
        expansion goes to the matcher's
        :meth:`~repro.matching.base.MatchingAlgorithm.match_batch` as
        one batch.  Each subscription is reported at most once, with
        the *least general* derivation that reached it;
        subscriptions whose personal ``max_generality`` is tighter than
        the match's generality are dropped (paper §3.2's per-user
        information-loss control).
        """
        self.publications += 1
        self._sync_semantic_version()
        result = self.pipeline.process_event(
            event,
            interest=self._active_interest(),
            # attributes no mapping rule touches ride beside the core's
            # fixpoint as alternatives when the matcher can recombine them
            factored=self._matcher.accepts_factored,
        )
        self.last_truncated = result.truncated
        derived_count = result.materialized()
        self.derived_events += derived_count
        histogram = self._derived_histogram
        histogram[derived_count] = histogram.get(derived_count, 0) + 1
        return self._collect_matches(event, result)

    def explain(self, event: Event) -> PipelineResult:
        """The full pipeline expansion for *event* (demo inspection).

        Deliberately exhaustive — no interest pruning — so the
        explanation shows every derivation the knowledge base supports,
        independent of who happens to be subscribed right now."""
        return self.pipeline.process_event(event)

    def _sync_semantic_version(self, reason: str = "kb-version") -> None:
        """Detect knowledge-base mutations (new synonyms, taxonomy
        edges, rules) or local epoch bumps and drop every cache derived
        under the old version — the matcher's cross-publication memo
        and the interest index's closures."""
        current = (self.kb.version, self._epoch)
        if current != self._semantic_version:
            self._semantic_version = current
            self._matcher.invalidate_memo(reason)
            if self._interest is not None:
                self._interest.invalidate_semantics(reason)

    def bump_semantic_epoch(self, reason: str = "external") -> None:
        """Force-invalidate all cached semantic state (matcher memo and
        interest closures) even when ``kb.version`` is unchanged.  The
        bump moves the epoch and runs the one sync every publish runs,
        so a knowledge-base write folded in by the same sync is never
        skipped."""
        self._epoch += 1
        self._sync_semantic_version(reason)

    def _collect_matches(self, event: Event, result: PipelineResult) -> list[SemanticMatch]:
        """The matcher's least general derivation per subscription,
        kept when it is within the subscriber's personal bound — the
        pipeline has already charged the system-wide budget per chain
        (paper §3.2's per-user information-loss control)."""
        matcher = self._matcher
        best = matcher.match_batch(result)
        matches: list[SemanticMatch] = []
        for sub_id, (generality, via) in best.items():
            subscription = self.original(sub_id)
            bound = subscription.max_generality
            if bound is not None and generality > bound:
                continue
            matches.append(SemanticMatch(subscription, event, via, generality))
        matches.sort(key=lambda match: matcher.sequence(match.subscription.sub_id))
        return matches

    # -- mode control --------------------------------------------------------------------

    @property
    def mode(self) -> str:
        """``"semantic"`` or ``"syntactic"`` (the demo's two modes)."""
        return self.config.mode

    def reconfigure(self, config: SemanticConfig) -> None:
        """Switch stage configuration at runtime.

        Every stored subscription is re-derived under the new config
        and the matcher is rebuilt *in place* (cleared and refilled),
        so root forms always correspond to the active synonym setting.
        Resetting the existing instance — rather than instantiating a
        fresh one from the registry — preserves instance-provided
        matchers that were never registered under a name, and keeps
        ``engine.matcher`` identity stable across every reconfigure:
        the matcher is chosen by name at construction, never by
        configuration.
        """
        new_pipeline = SemanticPipeline(self.kb, config, extra_stages=self._extra_stages)
        ordered = list(self.subscriptions())
        # Derive every new root form *before* touching the matcher, so
        # a failing derivation leaves the engine fully functional on
        # the old configuration.
        roots = [new_pipeline.process_subscription(sub) for sub in ordered]
        old_config, old_pipeline, old_originals = self.config, self.pipeline, self._originals
        matcher = self._matcher
        old_roots = list(matcher.subscriptions())
        seqs = [matcher.sequence(root.sub_id) for root in old_roots]
        self.config = config
        self.pipeline = new_pipeline
        self._originals = {sub.sub_id: sub for sub, root in zip(ordered, roots) if root is not sub}
        # a mode switch is an engine-level reason of its own: drop the
        # memo even when there is no subscription for clear() to remove.
        matcher.invalidate_memo("reconfigure")
        matcher.clear()
        try:
            for seq, root in zip(seqs, roots):
                matcher.insert(root, seq)
            self._rebuild_interest(roots)
        except BaseException:
            # a matcher that rejects one new root form must not strand
            # the engine half-built: restore the exact proven-good
            # roots captured above (no re-derivation, which could
            # itself fail if the KB moved since).
            self.config, self.pipeline = old_config, old_pipeline
            self._originals = old_originals
            matcher.clear()
            for seq, root in zip(seqs, old_roots):
                matcher.insert(root, seq)
            self._rebuild_interest(old_roots)
            raise

    def _rebuild_interest(self, roots) -> None:
        """Fresh interest index over *roots* under the active
        configuration (reconfigure path — root forms may have changed
        wholesale, so incremental churn does not apply)."""
        self._interest = self._build_interest()
        if self._interest is not None:
            for root in roots:
                self._interest.add(root)

    # -- reporting ------------------------------------------------------------------------

    @property
    def matcher(self) -> MatchingAlgorithm:
        return self._matcher

    @property
    def interest(self) -> InterestIndex | None:
        """The live subscription-interest index object (``None`` when
        pruning is configured off or unsound for the stage set — the
        :mod:`repro.core.reference` stages of ``interning=False`` are
        never pruned) — read-only, for inspection.  Note a
        live index may still be self-disabled (see
        :attr:`InterestIndex.active <repro.core.interest.InterestIndex.
        active>`); to reproduce the exact publish-path expansion, hand
        :attr:`active_interest` to :meth:`SemanticPipeline.process_event
        <repro.core.pipeline.SemanticPipeline.process_event>`."""
        return self._interest

    @property
    def active_interest(self) -> InterestIndex | None:
        """The interest view the publish path actually expands under:
        the index when it can prune, ``None`` otherwise (exactly what
        :meth:`publish` hands the pipeline)."""
        return self._active_interest()

    @property
    def semantic_version(self) -> tuple[int, int]:
        """The live ``(knowledge-base version, engine epoch)`` pair —
        every semantic cache (matcher memo, interest closures, and the
        dispatcher's result cache) is only valid for one value of it."""
        return (self.kb.version, self._epoch)

    @property
    def subscription_epoch(self) -> tuple[int, int]:
        """A value that changes on every subscribe *and* every
        unsubscribe: the monotonically increasing insertion sequence
        detects subscribes (and any subscribe+unsubscribe pair), the
        table size detects lone unsubscribes.  It never repeats, and
        the dispatcher's result cache drops every entry when it moves,
        so no cached match set survives churn."""
        return (self._matcher.next_seq, len(self._matcher))

    def interest_info(self) -> dict[str, object]:
        """Demand-driven pruning counters: how many candidate
        constructions the interest index vetoed, the consultation
        count, the hit rate, and the live index shape."""
        pruned = 0
        checks = 0
        for snapshot in self.pipeline.stage_stats().values():
            pruned += snapshot.get("candidates_pruned", 0)
            checks += snapshot.get("prune_checks", 0)
        index_stats = self._interest.stats() if self._interest is not None else {}
        return {
            "enabled": self._active_interest() is not None,
            "candidates_pruned": pruned,
            "prune_checks": checks,
            "prune_hit_rate": (pruned / checks) if checks else 0.0,
            "interest_index_size": index_stats.get("size", 0),
            "index": index_stats,
        }

    def derived_histogram(self) -> dict[int, int]:
        """Per-publication derived-event-count histogram
        (``{derived_count: publications}``)."""
        return dict(self._derived_histogram)

    def stats(self) -> dict[str, object]:
        return {
            "mode": self.mode,
            "matcher": self._matcher_name,
            "subscriptions": len(self._matcher),
            "publications": self.publications,
            "matcher_stats": self._matcher.stats.snapshot(),
            "stage_stats": self.pipeline.stage_stats(),
            "truncations": self.pipeline.truncation_count,
            "derived_events": self.derived_events,
            "derived_histogram": self.derived_histogram(),
            "interest": self.interest_info(),
            "semantic_epoch": self._epoch,
        }
