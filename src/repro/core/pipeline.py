"""The semantic pipeline: Figure 1's stage composition.

"When a new event or a subscription arrives, the synonym transformation
is always done first … We can see that mapping function and concept
hierarchy stages can be executed multiple times.  The reason for this
is that the concept hierarchy stage can create new events for which
additional mapping functions exist and vice versa" (paper §3.2).

:class:`SemanticPipeline` implements exactly that: one synonym rewrite,
then a breadth-first fixpoint over {hierarchy, mapping} expansion with

* content-keyed deduplication (the cheapest derivation — lowest
  generality, then shortest chain — is kept when several paths reach
  the same content),
* a per-chain generality budget (the tolerance knob, enforced during
  expansion so lower tolerance is genuinely cheaper),
* iteration and population caps as safety valves (recorded on the
  result, never silently).

The loop runs on the publication's derivation table
(:mod:`repro.core.derivation`): the built-in stages write compact rows
into it, and objects are built from them only when someone reads them.

**Factored expansion.**  ``max_iterations`` caps the *substitutions per
derivation chain* (every stage step is one), so a publication's derived
set is the step-capped product of what each attribute derives.  Most
attributes never meet a mapping rule: no rule that can fire reads or
writes them, and nothing renames them.  For a matcher that declares
``accepts_factored`` the pipeline therefore runs the fixpoint over the
event's **core** only — the *free* attributes ride along at their root
values, skipped by the hierarchy stage — and hands each free attribute
over as its **alternatives**: what the same fixpoint derives for that
one pair alone (:class:`Alternative`).  Charges and steps both add over
independent factors, so the matcher recombines them exactly; the one
case where a chain's length and charge trade off — a keep-cheaper
adoption — re-runs the publication with nothing free, which is the same
loop with an empty free set (what every other matcher and ``explain()``
always get).  See ``docs/ARCHITECTURE.md``, "Factored expansion".
"""

from __future__ import annotations

import logging
from functools import partial
from typing import Collection

from repro.core.config import SemanticConfig
from repro.core.derivation import Alternative, PipelineResult, expand_with
from repro.core.hierarchy import HierarchyStage
from repro.core.interest import split_reads
from repro.core.interfaces import SemanticStage
from repro.core.mappings import MappingStage
from repro.core.reference import ReferenceHierarchyStage, ReferenceSynonymStage
from repro.core.synonyms import SynonymStage
from repro.model.events import Event
from repro.model.subscriptions import Subscription
from repro.model.values import canonical_value_key
from repro.ontology.knowledge_base import KnowledgeBase

__all__ = ["SemanticPipeline", "PipelineResult", "Alternative"]

#: distinct root attribute-name sets remembered per knowledge-base
#: version before the partition memo starts over
_PARTITION_MEMO_LIMIT = 1024

_log = logging.getLogger(__name__)


class SemanticPipeline:
    """Composes the three stages per Figure 1 of the paper."""

    def __init__(
        self,
        kb: KnowledgeBase,
        config: SemanticConfig | None = None,
        *,
        extra_stages: tuple[SemanticStage, ...] = (),
    ) -> None:
        self.kb = kb
        self.config = config if config is not None else SemanticConfig()
        # the one reader of ``interning``: the string reference, or not
        if self.config.interning:
            synonyms, hierarchy = SynonymStage, HierarchyStage
        else:
            synonyms, hierarchy = ReferenceSynonymStage, ReferenceHierarchyStage
        self.synonyms = synonyms(kb)
        self.hierarchy = hierarchy(
            kb,
            value_synonyms=self.config.value_synonyms,
            generalize_attributes=self.config.generalize_attributes,
        )
        self.mappings = MappingStage(kb, self.config.mapping_context())
        self.extra_stages = extra_stages
        self.truncation_count = 0
        #: root attribute-name set -> its free attributes, for one
        #: knowledge-base version (see :meth:`_free_attributes`)
        self._partitions: dict[frozenset, frozenset] = {}
        self._partition_version = kb.version

    def supports_interest_pruning(self) -> bool:
        """Whether demand-driven pruning is sound for this stage set.

        The interest closure models only the built-in stage graph, so a
        custom stage that derives events the closure cannot predict
        would make pruning drop reachable matches.  The hierarchy stage
        (the string reference is not) and every extra stage must declare
        :attr:`~repro.core.interfaces.SemanticStage.interest_safe`
        (duck-typed stages without it count as unsafe); otherwise the
        engine keeps the exhaustive behavior for the whole pipeline.
        """
        stages = (self.hierarchy, *self.extra_stages)
        return all(getattr(stage, "interest_safe", False) for stage in stages)

    # -- subscription path (Figure 1 left) ----------------------------------------

    def process_subscription(self, subscription: Subscription) -> Subscription:
        """Only the synonym stage touches subscriptions: the "root
        subscription" feeds the matching algorithm."""
        if not self.config.enable_synonyms:
            return subscription
        return self.synonyms.rewrite_subscription(subscription)

    # -- event path (Figure 1 right) -----------------------------------------------

    def _expansion_stages(self) -> list[SemanticStage]:
        if self.config.is_syntactic:
            # The demo's syntactic mode is the bare matcher: custom
            # stages are disabled along with the built-in three.
            return []
        stages: list[SemanticStage] = []
        if self.config.enable_hierarchy:
            stages.append(self.hierarchy)
        if self.config.enable_mappings:
            stages.append(self.mappings)
        stages.extend(self.extra_stages)
        return stages

    def process_event(
        self, event: Event, *, interest=None, factored: bool = False
    ) -> PipelineResult:
        """Derive the full event set for one publication.

        ``interest`` is the engine's live
        :class:`~repro.core.interest.InterestIndex` (or ``None`` for
        the exhaustive expansion): it is bound to every stage exposing
        :meth:`~repro.core.interfaces.SemanticStage.bind_interest` for
        the duration of this publication, letting interest-aware stages
        skip constructing candidates no live predicate can reach.
        Stages without the hook — and every stage when
        ``SemanticConfig(interest_pruning=False)`` — keep today's
        exhaustive behavior.

        ``factored`` says the caller's matcher takes a factored
        :class:`PipelineResult`: attributes no mapping rule can touch
        are then carried as alternatives beside the core's fixpoint
        (see the module docstring) instead of multiplied into it.
        """
        config = self.config
        if not config.interest_pruning:
            interest = None
        if config.enable_synonyms:
            root, root_steps = self.synonyms.rename_event(event)
        else:
            root, root_steps = event, ()
        stages = self._expansion_stages()
        free: dict[str, tuple[Alternative, ...]] = {}
        if factored and stages and config.enable_hierarchy:
            names = self._free_attributes(root)
            if names:
                free = self._alternatives_of(root, names, interest)
        result = self._fixpoint(event, root, root_steps, stages, interest, free)
        if free and result.adopted:
            # chain length and charge traded off somewhere in the core:
            # which derivation survives is then path-dependent, so this
            # publication gets the product it always got
            free = {}
            result = self._fixpoint(event, root, root_steps, stages, interest, free)
        result.free = free
        if result.truncated:
            self.truncation_count += 1
            if _log.isEnabledFor(logging.DEBUG):
                _log.debug(
                    "%s truncated at max_derived_events=%d (iterations run: %d)",
                    event.event_id,
                    config.max_derived_events,
                    result.iterations,
                )
        return result

    def _fixpoint(
        self,
        original: Event,
        root: Event,
        root_steps: tuple,
        stages: list[SemanticStage],
        interest,
        free: Collection[str],
    ) -> PipelineResult:
        """Figure 1's loop from *root* over *stages*; the hierarchy
        stage leaves the attributes in *free* at their root values.
        Candidates are offered to the table as they come, so a probe
        sees every earlier discovery (same-iteration siblings too); an
        iteration that offers nothing ends the loop."""
        config = self.config
        result = PipelineResult(
            original,
            root,
            root_steps,
            step_cap=config.max_iterations,
            budget=config.max_generality,
            limit=config.max_derived_events,
        )
        if not stages:
            return result
        budget_total = config.max_generality
        frontier: list[int] = [0]
        # the built-in stages write rows; any other stage reads each row
        # as a DerivedEvent and its candidates are read back into rows
        expanders = [getattr(s, "expand_row", None) or partial(expand_with, s) for s in stages]
        self.hierarchy.skip = free
        try:
            for stage in stages:
                # duck-typed third-party stages may predate the hooks
                bind = getattr(stage, "bind_interest", None)
                if bind is not None:
                    bind(interest)
                begin = getattr(stage, "begin_publication", None)
                if begin is not None:
                    begin()
            for iteration in range(1, config.max_iterations + 1):
                offered = result.offered
                result.fresh = []
                for row in frontier:
                    # read live: a keep-cheaper adoption earlier in this
                    # pass may have re-chained the row more cheaply
                    remaining = None if budget_total is None else budget_total - result.charges[row]
                    for expand in expanders:
                        expand(result, row, remaining)
                        if result.truncated:
                            break
                    if result.truncated:
                        break
                if result.offered == offered:
                    break
                result.iterations = iteration
                if result.truncated or not result.fresh:
                    break
                frontier = result.fresh
        finally:
            self.hierarchy.skip = ()
            for stage in stages:
                end = getattr(stage, "end_publication", None)
                if end is not None:
                    end()
                bind = getattr(stage, "bind_interest", None)
                if bind is not None:
                    bind(None)
        return result

    # -- factoring -----------------------------------------------------------------

    def _free_attributes(self, root_event: Event) -> frozenset:
        """The attributes of *root_event* the fixpoint may leave at
        their root values, memoized per knowledge-base version and
        attribute-name set (the configuration is this pipeline's)."""
        version = self.kb.version
        if version != self._partition_version or len(self._partitions) >= _PARTITION_MEMO_LIMIT:
            self._partition_version = version
            self._partitions = {}
        names = frozenset(root_event.attributes())
        free = self._partitions.get(names)
        if free is None:
            free = self._partitions[names] = self._partition(names)
        return free

    def _partition(self, names: frozenset) -> frozenset:
        """Split attribute *names* into core and free; returns the free.

        A rule is *eligible* when every attribute it requires is
        present in the event or written by an eligible rule (a closure:
        presence only ever over-approximates, ``REPLACE`` rules remove
        names).  An attribute is core if an eligible rule reads or
        writes it.  Nothing is free when the outcome cannot be bounded:
        an eligible rule whose reads or outputs are unknown, a custom
        stage, or — renames compare against every name an event holds —
        any name in play that the taxonomy can generalize."""
        if self.extra_stages:
            return frozenset()
        present = set(names)
        core: set[str] = set()
        families: set[str] = set()
        if self.config.enable_mappings:
            pending = list(self.kb.rules())
            while eligible := [rule for rule in pending if rule.trigger_attributes <= present]:
                for rule in eligible:
                    if rule.reads is None or rule.fn is not None:
                        return frozenset()
                    pending.remove(rule)
                    exact, prefixes = split_reads(rule.reads)
                    written = {attribute for attribute, _ in rule.outputs}
                    core |= exact | written
                    families |= prefixes
                    present |= written
        if self.config.generalize_attributes and any(
            map(self.hierarchy.renameable, present)
        ):
            return frozenset()
        return frozenset(
            name
            for name in names
            if name not in core and not any(name.startswith(prefix) for prefix in families)
        )

    def _alternatives_of(
        self, root: Event, names: frozenset, interest
    ) -> dict[str, tuple[Alternative, ...]]:
        """The alternatives of every attribute in *names* that has any
        beyond its root value, in event order — or nothing when one of
        them cannot be factored (its own fixpoint adopted a cheaper
        chain or hit ``max_derived_events``).

        An attribute's alternatives are a pure function of the pair,
        the budget (this pipeline's ``max_generality``: a root event's
        synonym steps charge nothing), the interest set and the concept
        table, so they share the hierarchy stage's admission memo and
        its stamp (an admission's key is a triple, these are pairs)."""
        memo = self.hierarchy.memo(interest)
        free = {}
        for attribute, value in root.items():
            if attribute not in names or not isinstance(value, str):
                continue
            key = (attribute, value)
            alternatives = memo.get(key)
            if alternatives is None:
                alternatives = memo[key] = self._derive_alternatives(attribute, value, interest)
            if not alternatives:
                return {}
            if len(alternatives) > 1:
                free[attribute] = alternatives
        return free

    def _derive_alternatives(self, attribute: str, value: str, interest) -> tuple:
        """Run the hierarchy fixpoint on the pair alone; ``()`` marks a
        pair that cannot be factored."""
        signature = frozenset(((attribute, canonical_value_key(value)),))
        pair = Event._derived({attribute: value}, signature, None, "")
        alone = self._fixpoint(pair, pair, (), [self.hierarchy], interest, ())
        if alone.adopted or alone.truncated:
            return ()
        charges, depths = alone.charges, alone.depths
        return tuple(
            Alternative(alone.value(row, attribute), charges[row], depths[row], alone.chain(row)[0])
            for row in range(len(alone))
        )

    # -- reporting --------------------------------------------------------------------

    def stage_stats(self) -> dict[str, dict[str, int]]:
        stats = {
            "synonym": self.synonyms.stats.snapshot(),
            "hierarchy": self.hierarchy.stats.snapshot(),
            "mapping": self.mappings.stats.snapshot(),
        }
        for stage in self.extra_stages:
            stats[stage.name] = stage.stats.snapshot()
        return stats

