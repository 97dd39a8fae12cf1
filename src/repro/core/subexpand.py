"""Subscription-side expansion: the design alternative to Figure 1.

The paper (and this library's main engine) generalizes *events upward*
at publish time.  The dual design precomputes at **subscribe** time:
every equality predicate on a taxonomy term is rewritten into an ``IN``
predicate over the term and all of its *descendants*, so publish-time
matching is purely syntactic — no hierarchy stage runs per event.

Tolerance semantics — unified with the event-side engine
--------------------------------------------------------

Both engines charge ``max_generality`` as **one per-derivation-chain
budget**, the semantics the companion work ("I know what you mean",
Burcea et al.) assigns to the degree-of-generalization bound: every
generalization level between a publication and the form that matches a
subscription draws on the same budget, regardless of which attribute
climbed or on which side of the system the climb was paid.

Subscription-side, that is implemented in two halves:

* :func:`expand_subscription_charged` expands each predicate's
  descendant set to the *whole* budget (a single attribute may
  legitimately consume all of it) and records, per attribute, the
  descent depth of every admitted spelling — the *charge map*;
* at publish time the engine sums, per match, the charged depth of the
  matched event's values across all expanded attributes and rejects
  matches whose total exceeds the budget (the matcher itself stays an
  untouched black box, per the paper's §3.1 design goal).

This replaces the historical behavior of bounding each predicate's
descent independently — which admitted multi-attribute matches whose
*summed* distance exceeded the budget and made the two engines diverge
(the old ``test_designs_agree_under_tolerance`` xfail).  The charge map
also repairs a documented trade-off: matches gained through the
expansion now report their true generality instead of 0.

The publish path is the engine's batched hot path unchanged: synonym
rewriting and mapping-function derivations (inherently event-side —
they *compute* new values) run through the semantic pipeline, and the
resulting :class:`~repro.core.provenance.DerivedEvent` batch goes to
:meth:`~repro.matching.base.MatchingAlgorithm.match_batch` in one pass,
sharing per-``(attribute, value)`` predicate satisfaction across the
batch and — via the matchers' cross-publication memos — across
publications.

Remaining trade-offs (measured by ablation A3/A4):

* subscribe cost & memory grow with ``fanout^depth`` (the descendant
  set), which is why the paper's event-side design wins for bushy
  taxonomies;
* concepts added to the taxonomy *after* a subscription was expanded
  are not seen until the subscription is refreshed
  (:meth:`SubscriptionExpandingEngine.refresh`), whereas the event-side
  design always reads the live taxonomy;
* only the concept-hierarchy stage on **values** can move to the
  subscription side.  Synonyms already live there (the root rewrite);
  mapping functions still run event-side in this engine's pipeline;
  attribute-name generalization has no subscription-side encoding, so
  workloads whose attribute names are themselves taxonomy terms remain
  event-side-only.

The two engines are equivalence-tested on equality-only workloads in
``tests/unit/test_core_subexpand.py`` and property-tested — including
under tolerance bounds, as a hard invariant — in
``tests/property/test_engine_duality.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.config import SemanticConfig
from repro.core.engine import SToPSS
from repro.matching.base import MatchingAlgorithm
from repro.model.events import Event
from repro.model.predicates import Operator, Predicate
from repro.model.subscriptions import Subscription
from repro.model.values import canonical_value_key
from repro.ontology.concept_table import descent_closure
from repro.ontology.knowledge_base import KnowledgeBase

__all__ = [
    "SubscriptionExpandingEngine",
    "SubscriptionExpansion",
    "expand_subscription",
    "expand_subscription_charged",
]


def _effective_bound(subscription_bound: int | None, engine_bound: int | None) -> int | None:
    """The whole-chain budget both engines charge against: the tighter
    of the system-wide and per-subscription bounds (``None`` = both
    unbounded)."""
    if subscription_bound is None:
        return engine_bound
    if engine_bound is None:
        return subscription_bound
    return min(subscription_bound, engine_bound)


def _descend(kb: KnowledgeBase, term: str, bound: int | None) -> dict[str, int]:
    """Every spelling an event may carry to reach *term* within
    *bound* generalization levels, with its minimum total ascent depth.

    One shared implementation serves both paths — the string path calls
    :func:`~repro.ontology.concept_table.descent_closure` per predicate
    with the live bound; the interned path memoizes the unbounded
    closure per term in the concept table and depth-filters it
    (:meth:`~repro.ontology.concept_table.ConceptTable.descent_map`) —
    so the two cannot drift.  The interning equivalence property test
    still pins the end-to-end results together.
    """
    return descent_closure(kb, term, bound)


#: attribute -> canonical value key -> minimum charged descent depth
ChargeMap = dict


@dataclass(frozen=True)
class SubscriptionExpansion:
    """The result of expanding one subscription's taxonomy predicates.

    ``subscription`` is the rewritten form (``IN`` predicates over
    descendant sets); ``charges`` maps each expanded attribute to the
    generality each admissible value key costs against the chain
    budget; ``bound`` is the effective whole-chain budget the descent
    was computed under.
    """

    subscription: Subscription
    charges: ChargeMap = field(default_factory=dict)
    bound: int | None = None

    @property
    def changed(self) -> bool:
        return bool(self.charges)


def expand_subscription_charged(
    subscription: Subscription,
    kb: KnowledgeBase,
    *,
    max_generality: int | None = None,
    interned: bool = True,
) -> SubscriptionExpansion:
    """Rewrite equality predicates on taxonomy terms into ``IN``
    predicates over the term's equivalents and descendants, recording
    per-value descent depths.

    ``max_generality`` is the system-wide chain budget; the effective
    budget is the tighter of it and the subscription's personal bound.
    Each predicate's descent is expanded to the *whole* budget — a
    single attribute may consume all of it — and the cross-attribute
    sum is enforced per match by the engine's tolerance gate.

    ``interned`` serves each term's descent from the concept table's
    precomputed closure (rebuilt with the knowledge-base version)
    instead of a per-predicate BFS; ``False`` is the string reference
    path.  Both produce identical expansions.
    """
    bound = _effective_bound(subscription.max_generality, max_generality)
    table = kb.concept_table() if interned else None
    rewritten: list[Predicate] = []
    charges: ChargeMap = {}
    for predicate in subscription.predicates:
        if predicate.operator is Operator.EQ and isinstance(predicate.operand, str):
            if table is not None:
                depths = table.descent_map(predicate.operand, bound)
            else:
                depths = _descend(kb, predicate.operand, bound)
            if set(depths) != {predicate.operand}:
                rewritten.append(Predicate.isin(predicate.attribute, set(depths)))
                per_value = charges.setdefault(predicate.attribute, {})
                for spelling, depth in depths.items():
                    value_key = canonical_value_key(spelling)
                    known = per_value.get(value_key)
                    if known is None or known > depth:
                        per_value[value_key] = depth
                continue
        rewritten.append(predicate)
    if not charges:
        return SubscriptionExpansion(subscription, {}, bound)
    return SubscriptionExpansion(
        Subscription(
            rewritten,
            subscriber_id=subscription.subscriber_id,
            sub_id=subscription.sub_id,
            max_generality=subscription.max_generality,
        ),
        charges,
        bound,
    )


def expand_subscription(
    subscription: Subscription,
    kb: KnowledgeBase,
    *,
    max_generality: int | None = None,
    interned: bool = True,
) -> Subscription:
    """The rewritten subscription alone (see
    :func:`expand_subscription_charged` for the charge map)."""
    return expand_subscription_charged(
        subscription, kb, max_generality=max_generality, interned=interned
    ).subscription


class SubscriptionExpandingEngine(SToPSS):
    """An S-ToPSS variant that precomputes hierarchy semantics on the
    subscription side.

    The event-side hierarchy stage is disabled; synonym rewriting and
    mapping functions behave exactly as in :class:`SToPSS`, and publish
    uses the same batched :meth:`~repro.matching.base.
    MatchingAlgorithm.match_batch` hot path.  Hierarchy generality is
    charged at match time from the per-subscription charge maps
    recorded during expansion, against the same whole-chain budget the
    event-side engine charges — so the two designs admit identical
    match sets and report identical generalities on the workloads both
    cover (module docstring lists the exceptions).
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        *,
        matcher: str | MatchingAlgorithm = "counting",
        config: SemanticConfig | None = None,
    ) -> None:
        base = config if config is not None else SemanticConfig()
        if base.enable_hierarchy:
            # replace() copies every other field by construction, so
            # future SemanticConfig knobs survive the engine swap.
            base = replace(
                base, enable_hierarchy=False, generalize_attributes=False
            )
        super().__init__(kb, matcher=matcher, config=base)
        self._expansion_bound = self.config.max_generality
        self._kb_version_at_expand: dict[str, int] = {}
        #: sub_id -> root attribute -> canonical value key -> depth
        self._charges: dict[str, ChargeMap] = {}

    def subscribe(self, subscription: Subscription) -> Subscription:
        expansion = expand_subscription_charged(
            subscription,
            self.kb,
            max_generality=self._expansion_bound,
            interned=self.config.interning,
        )
        expanded = expansion.subscription
        root = super().subscribe(
            Subscription(
                expanded.predicates,
                subscriber_id=subscription.subscriber_id,
                sub_id=subscription.sub_id,
                # the per-sub knob is enforced by the charge-map gate in
                # :meth:`_admit`; a bound on the inserted root would be
                # re-applied by the base gate against an uncharged
                # generality and wrongly drop nothing/things at random.
                max_generality=None,
            )
        )
        # keep the true original for reporting and the tolerance gate
        self._originals[subscription.sub_id] = (
            self._originals[subscription.sub_id][0],
            subscription,
        )
        # charge maps are keyed by *root* attribute names so publish can
        # look up values on synonym-rewritten derived events directly.
        charges: ChargeMap = {}
        for attribute, per_value in expansion.charges.items():
            if self.config.enable_synonyms:
                attribute = self.kb.root_attribute(attribute)
            merged = charges.setdefault(attribute, {})
            for value_key, depth in per_value.items():
                known = merged.get(value_key)
                if known is None or known > depth:
                    merged[value_key] = depth
        if charges:
            self._charges[subscription.sub_id] = charges
        self._kb_version_at_expand[subscription.sub_id] = self.kb.version
        return root

    def unsubscribe(self, sub_id: str) -> Subscription:
        original = super().unsubscribe(sub_id)
        self._charges.pop(sub_id, None)
        self._kb_version_at_expand.pop(sub_id, None)
        return original

    # -- the unified tolerance gate --------------------------------------------------

    def _hierarchy_charge(self, sub_id: str, event: Event) -> int:
        """Summed descent depth of *event*'s values across the
        subscription's expanded attributes — the subscription-side half
        of the chain budget."""
        charges = self._charges.get(sub_id)
        if not charges:
            return 0
        total = 0
        for attribute, per_value in charges.items():
            value = event.get(attribute)
            if value is None:  # pragma: no cover - matcher guarantees presence
                continue
            total += per_value.get(canonical_value_key(value), 0)
        return total

    def _derivation_score(self, sub_id: str, derived) -> int:
        """Total chain charge of one derivation for one subscription:
        event-side generality (mapping chains) plus the descendant
        charge of the derivation's values.  Handed to ``match_batch``
        so the matcher's reduction picks the *cheapest-in-total*
        derivation per subscription — a mapping-derived form can cost
        less than the raw event when it rewrites a charged attribute
        closer to the subscribed term."""
        return derived.generality + self._hierarchy_charge(sub_id, derived.event)

    def _admit(self, original: Subscription, generality: int, derived) -> int | None:
        """Gate the already-total charge (computed by
        :meth:`_derivation_score` during the batch reduction) against
        the one chain budget."""
        if self._expansion_bound is not None and generality > self._expansion_bound:
            return None
        if original.max_generality is not None and generality > original.max_generality:
            return None
        return generality

    # -- staleness ------------------------------------------------------------------

    def stale_subscriptions(self) -> list[str]:
        """Ids whose expansion predates the latest taxonomy change."""
        return [
            sub_id
            for sub_id, version in self._kb_version_at_expand.items()
            if version != self.kb.version
        ]

    def refresh(self) -> int:
        """Re-expand every stale subscription; returns how many.

        Bumps the engine's semantic epoch afterwards, dropping the
        matcher's cross-publication memo (and shifting the dispatcher's
        result-cache key): both key on the knowledge-base version, but
        a publish between the KB edit and this refresh re-syncs that
        version while descendant sets are still stale, so the epoch
        bump guarantees no cache entry derived alongside a stale
        expansion survives the refresh.
        """
        stale = self.stale_subscriptions()
        for sub_id in stale:
            _, original = self._originals[sub_id]
            self.unsubscribe(sub_id)
            self.subscribe(original)
        if stale:
            self.bump_semantic_epoch("refresh")
        return len(stale)

    # -- reporting ------------------------------------------------------------------

    def stats(self) -> dict[str, object]:
        data = super().stats()
        data["expanded_subscriptions"] = len(self._charges)
        data["expanded_values"] = sum(
            len(per_value)
            for charges in self._charges.values()
            for per_value in charges.values()
        )
        data["stale_subscriptions"] = len(self.stale_subscriptions())
        return data
