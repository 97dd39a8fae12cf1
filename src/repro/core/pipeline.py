"""The semantic pipeline: Figure 1's stage composition.

"When a new event or a subscription arrives, the synonym transformation
is always done first … We can see that mapping function and concept
hierarchy stages can be executed multiple times.  The reason for this
is that the concept hierarchy stage can create new events for which
additional mapping functions exist and vice versa" (paper §3.2).

:class:`SemanticPipeline` implements exactly that: one synonym rewrite,
then a breadth-first fixpoint over {hierarchy, mapping} expansion with

* signature-based deduplication (the cheapest derivation — lowest
  generality, then shortest chain — is kept when several paths reach
  the same content),
* a per-chain generality budget (the tolerance knob, enforced during
  expansion so lower tolerance is genuinely cheaper),
* iteration and population caps as safety valves (recorded on the
  result, never silently).

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

from dataclasses import dataclass, field
from typing import Collection, NamedTuple

from repro.core.config import SemanticConfig
from repro.core.hierarchy import HierarchyStage
from repro.core.interest import split_reads
from repro.core.interfaces import SemanticStage
from repro.core.mappings import MappingStage
from repro.core.provenance import DerivationStep, DerivedEvent
from repro.core.synonyms import SynonymStage
from repro.model.events import Event, EventSignature
from repro.model.subscriptions import Subscription
from repro.model.values import Value, canonical_value_key
from repro.ontology.knowledge_base import KnowledgeBase

__all__ = ["SemanticPipeline", "PipelineResult", "BatchDedup", "Alternative"]

#: distinct root attribute-name sets remembered per knowledge-base
#: version before the partition memo starts over
_PARTITION_MEMO_LIMIT = 1024


class Alternative(NamedTuple):
    """One value a free attribute can take, as the hierarchy fixpoint
    derives it from the root value of that pair alone: the value, the
    generality its chain charges, the substitutions the chain took
    (each draws on ``max_iterations``) and the chain itself.  A free
    attribute's first alternative is its root value at ``(0, 0, ())``."""

    value: Value
    charge: int
    depth: int
    steps: tuple[DerivationStep, ...]


class BatchDedup:
    """Per-publication duplicate probe handed to stages.

    Stages that can derive a candidate's content signature *without*
    constructing it (the hierarchy stage substitutes exactly one pair)
    ask :meth:`should_skip` first: content already integrated at a
    cheaper-or-equal ``(generality, depth)`` will be discarded by the
    pipeline's dedup anyway, so the Event/DerivedEvent construction can
    be skipped outright.  The pipeline integrates candidates as they
    are produced (not per-iteration batches), so the probe also covers
    same-iteration siblings — where most of the cross-product
    duplication lives.  ``suppressed`` counts the skips so the fixpoint
    loop still sees those iterations as productive (identical
    ``iterations`` accounting to the construct-then-dedup behavior).
    """

    __slots__ = ("_result", "suppressed")

    def __init__(self, result: "PipelineResult") -> None:
        self._result = result
        self.suppressed = 0

    def should_skip(
        self, signature: EventSignature, generality: int, depth: int
    ) -> bool:
        """Whether candidate content *signature* at chain cost
        ``(generality, depth)`` is already integrated at
        cheaper-or-equal cost (skip) or is new/cheaper (construct)."""
        result = self._result
        index = result._by_signature.get(signature)
        if index is None:
            return False
        existing = result.derived[index]
        if (generality, depth) < (existing.generality, existing.depth):
            return False
        self.suppressed += 1
        return True


@dataclass
class PipelineResult:
    """Everything the semantic stage produced for one publication.

    ``derived`` is a derivation DAG flattened in discovery order:
    entry 0 is the batch root and every later entry carries a
    ``parent`` pointer (see :class:`~repro.core.provenance.DerivedEvent`).
    Matchers read only the entries' content; the parent chains are
    provenance.  They always terminate at a parentless root, and every
    ancestor's content also appears in ``derived`` (possibly under a
    cheaper provenance — content, keyed by signature, is what matters
    to matching).

    A **factored** result (``free`` non-empty; only handed to matchers
    that declare ``accepts_factored``) stands for more events than it
    lists: ``derived`` holds the *core* events, every one carrying the
    free attributes at their root values, and ``free`` maps each free
    attribute to its :class:`Alternative` values.  The result denotes
    every core event with every combination of alternatives whose
    substitutions — the core event's discovery iteration (its chain
    depth beyond the root's: the factored path is abandoned on any
    keep-cheaper adoption, so the two coincide) plus the alternatives'
    depths — stay within ``step_cap`` and whose summed charge stays
    within ``budget``.  ``truncated`` then refers to the core events.
    """

    original: Event
    derived: list[DerivedEvent]
    iterations: int = 0
    truncated: bool = False
    #: free attribute -> its alternatives, root value first, in event
    #: attribute order (empty: ``derived`` is the whole expansion)
    free: dict[str, tuple[Alternative, ...]] = field(default_factory=dict)
    #: ``max_iterations`` / ``max_generality`` the expansion ran under
    step_cap: int = 0
    budget: int | None = None
    #: whether a keep-cheaper adoption replaced an entry's provenance
    adopted: bool = False
    #: signature -> index into ``derived`` (for dedup introspection)
    _by_signature: dict[EventSignature, int] = field(default_factory=dict, repr=False)
    #: parent signature -> indexes of entries derived from it; kept by
    #: ``_integrate`` so a keep-cheaper replacement can rewrite its
    #: descendants' chains onto the new provenance (parent pointers,
    #: steps, and ``dag_edges`` stay mutually consistent)
    _children: dict[EventSignature, list[int]] = field(default_factory=dict, repr=False)

    @classmethod
    def from_derived(cls, original: Event, derived: list[DerivedEvent]) -> "PipelineResult":
        """Package an externally built derivation list (benchmarks,
        tests) with the signature index filled in.  Unlike
        :meth:`SemanticPipeline.process_event` — whose ``_integrate``
        keeps exactly one entry per signature, preferring the cheapest
        provenance — this helper keeps the list as given and indexes
        the *first* entry per signature; batch matchers tolerate the
        duplicates (content is matched by signature)."""
        result = cls(original=original, derived=list(derived))
        for index, entry in enumerate(result.derived):
            result._by_signature.setdefault(entry.event.signature, index)
        return result

    def __len__(self) -> int:
        return len(self.derived)

    def materialized(self) -> int:
        """Events and alternatives the expansion built: the derived
        events plus, when factored, every free attribute's alternatives
        beyond its root value — a sum where the unfactored expansion
        pays the product."""
        return len(self.derived) + sum(len(values) - 1 for values in self.free.values())

    def compose(self, core: DerivedEvent, choice: tuple[int, ...]) -> DerivedEvent:
        """The derived event a factored result stands for: *core* with
        the free attributes set to the chosen alternatives (*choice*
        holds one index per free attribute, in ``free`` order; 0 keeps
        the root value), its chain extended by theirs."""
        pairs = None
        steps = core.steps
        signature = core.event.signature
        for (attribute, alternatives), index in zip(self.free.items(), choice):
            if not index:
                continue
            if pairs is None:
                pairs = dict(core.event._pairs)
            alternative = alternatives[index]
            signature = signature.difference(
                ((attribute, canonical_value_key(pairs[attribute])),)
            ).union(((attribute, canonical_value_key(alternative.value)),))
            pairs[attribute] = alternative.value
            steps += alternative.steps
        if pairs is None:
            return core
        event = Event._derived(pairs, signature, core.event.publisher_id)
        return DerivedEvent(event, steps, parent=core)

    def events(self) -> list[Event]:
        return [d.event for d in self.derived]

    def lookup(self, signature: EventSignature) -> DerivedEvent | None:
        index = self._by_signature.get(signature)
        return None if index is None else self.derived[index]

    def dag_edges(self) -> list[tuple[EventSignature, EventSignature]]:
        """``(parent_signature, child_signature)`` pairs of the
        derivation DAG (introspection/tests)."""
        return [
            (d.parent.event.signature, d.event.signature)
            for d in self.derived
            if d.parent is not None
        ]

    def distinct_pairs(self) -> int:
        """Distinct ``(attribute, value)`` pairs across the batch,
        alternatives included — the probe floor for a sharing batch
        matcher."""
        pairs = {pair for d in self.derived for pair in d.event.signature}
        return len(pairs) + sum(len(values) - 1 for values in self.free.values())


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
        self.synonyms = SynonymStage(kb, interned=self.config.interning)
        self.hierarchy = HierarchyStage(
            kb,
            value_synonyms=self.config.value_synonyms,
            generalize_attributes=self.config.generalize_attributes,
            interned=self.config.interning,
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
        would make pruning drop reachable matches.  Every extra stage
        must declare :attr:`~repro.core.interfaces.SemanticStage.
        interest_safe` (duck-typed stages without the attribute count
        as unsafe); otherwise the engine keeps the exhaustive behavior
        for the whole pipeline.
        """
        return all(getattr(stage, "interest_safe", False) for stage in self.extra_stages)

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
            root_event, steps = self.synonyms.rewrite_event(event)
            root = DerivedEvent(root_event, steps)
        else:
            root = DerivedEvent.original(event)
        stages = self._expansion_stages()
        free: dict[str, tuple[Alternative, ...]] = {}
        if factored and stages and config.enable_hierarchy:
            names = self._free_attributes(root.event)
            if names:
                free = self._alternatives_of(root, names, interest)
        result = self._fixpoint(event, root, stages, interest, free)
        if free and result.adopted:
            # chain length and charge traded off somewhere in the core:
            # which derivation survives is then path-dependent, so this
            # publication gets the product it always got
            free = {}
            result = self._fixpoint(event, root, stages, interest, free)
        result.free = free
        if result.truncated:
            self.truncation_count += 1
        return result

    def _fixpoint(
        self,
        original: Event,
        root: DerivedEvent,
        stages: list[SemanticStage],
        interest,
        free: Collection[str],
    ) -> PipelineResult:
        """Figure 1's loop from *root* over *stages*; the hierarchy
        stage leaves the attributes in *free* at their root values."""
        config = self.config
        result = PipelineResult(
            original=original,
            derived=[root],
            step_cap=config.max_iterations,
            budget=config.max_generality,
        )
        result._by_signature[root.event.signature] = 0
        if not stages:
            return result
        budget_total = config.max_generality
        frontier: list[int] = [0]
        dedup = BatchDedup(result)
        self.hierarchy.skip = free
        try:
            for stage in stages:
                # duck-typed third-party stages may predate the hooks
                bind = getattr(stage, "bind_interest", None)
                if bind is not None:
                    bind(interest)
                bind = getattr(stage, "bind_dedup", None)
                if bind is not None:
                    bind(dedup)
                begin = getattr(stage, "begin_publication", None)
                if begin is not None:
                    begin()
            for iteration in range(1, config.max_iterations + 1):
                # candidates are integrated as they are produced, so
                # the dedup probe the stages hold always reflects every
                # earlier discovery — including same-iteration siblings
                next_frontier: list[int] = []
                suppressed_before = dedup.suppressed
                produced_any = False
                for frontier_index in frontier:
                    # live lookup at expansion time: a keep-cheaper
                    # adoption earlier in this same pass may have
                    # replaced the entry, and expanding the superseded
                    # object would hand its children a stale (more
                    # expensive) chain
                    derived = result.derived[frontier_index]
                    remaining = None if budget_total is None else budget_total - derived.generality
                    for stage in stages:
                        for candidate in stage.expand(derived, generality_budget=remaining):
                            if budget_total is not None and candidate.generality > budget_total:
                                continue
                            produced_any = True
                            self._integrate(result, candidate, next_frontier)
                            if result.truncated:
                                break
                        if result.truncated:
                            break
                    if result.truncated:
                        break
                if not produced_any and dedup.suppressed == suppressed_before:
                    break
                result.iterations = iteration
                if result.truncated or not next_frontier:
                    break
                frontier = next_frontier
        finally:
            self.hierarchy.skip = ()
            for stage in stages:
                end = getattr(stage, "end_publication", None)
                if end is not None:
                    end()
                for hook in ("bind_interest", "bind_dedup"):
                    bind = getattr(stage, hook, None)
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
        self, root: DerivedEvent, names: frozenset, interest
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
        for attribute, value in root.event.items():
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
        pair = Event._derived(
            {attribute: value}, frozenset(((attribute, canonical_value_key(value)),)), None
        )
        alone = self._fixpoint(pair, DerivedEvent.original(pair), [self.hierarchy], interest, ())
        if alone.adopted or alone.truncated:
            return ()
        return tuple(
            Alternative(derived.event[attribute], derived.generality, derived.depth, derived.steps)
            for derived in alone.derived
        )

    def _integrate(
        self, result: PipelineResult, candidate: DerivedEvent, next_frontier: list[int]
    ) -> None:
        """Deduplicate one produced *candidate* into *result*,
        appending the index of genuinely new content to
        *next_frontier*."""
        signature = candidate.event.signature
        existing_index = result._by_signature.get(signature)
        if existing_index is None:
            if len(result.derived) >= self.config.max_derived_events:
                result.truncated = True
                return
            index = len(result.derived)
            result._by_signature[signature] = index
            result.derived.append(candidate)
            if candidate.parent is not None:
                result._children.setdefault(
                    candidate.parent.event.signature, []
                ).append(index)
            next_frontier.append(index)
            return
        existing = result.derived[existing_index]
        if (candidate.generality, candidate.depth) < (
            existing.generality,
            existing.depth,
        ):
            # A cheaper derivation of known content: adopt the
            # cheaper provenance but do not re-expand (the content
            # was already in some frontier).
            self._adopt_cheaper(result, existing_index, candidate)

    def _adopt_cheaper(
        self, result: PipelineResult, index: int, candidate: DerivedEvent
    ) -> None:
        """Replace entry *index* with the cheaper *candidate* and rewrite
        every recorded descendant onto the new provenance.

        Descendants were derived from the replaced object, so their
        parent pointers, steps, and generality still reflect the more
        expensive chain; leaving them would let ``dag_edges``/``explain``
        disagree with the per-entry chains (and overcharge descendants).
        Each descendant keeps its own final step — only the inherited
        prefix changes.
        """
        result.adopted = True
        old = result.derived[index]
        if old.parent is not None:
            siblings = result._children.get(old.parent.event.signature)
            if siblings is not None:
                siblings.remove(index)
        if candidate.parent is not None:
            result._children.setdefault(
                candidate.parent.event.signature, []
            ).append(index)
        result.derived[index] = candidate
        stack = [index]
        while stack:
            parent_entry = result.derived[stack.pop()]
            for child_index in result._children.get(parent_entry.event.signature, ()):
                child = result.derived[child_index]
                if child.parent is parent_entry:
                    continue  # already on the live chain
                result.derived[child_index] = DerivedEvent(
                    child.event,
                    parent_entry.steps + (child.steps[-1],),
                    parent=parent_entry,
                )
                stack.append(child_index)

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
