"""Stage 1: synonym translation to root attributes.

"The synonym step involves translating all event and subscription
attributes with different names but with the same meaning, to a 'root'
attribute.  This allows syntactically different event and subscription
attributes to match" (paper §3.1).

The stage is a pure rewrite — it never multiplies events — and it is
the only stage applied to subscriptions (Figure 1: "root
subscription").  Per the paper, it "operates only at attribute level";
value-level equivalences are the hierarchy stage's distance-0 case.

The rewrite map comes from the concept table's ``attribute_roots``
dictionary — one dict probe per already-normalized name, the paper's
"substitute each term with an internal identifier" fast path; the
string lookup that re-normalizes every name per event lives on only in
:mod:`repro.core.reference`.
"""

from __future__ import annotations

from repro.core.interfaces import SemanticStage
from repro.core.provenance import STAGE_SYNONYM, SYNONYM, derivation_steps
from repro.model.events import Event
from repro.model.subscriptions import Subscription
from repro.ontology.knowledge_base import KnowledgeBase

__all__ = ["SynonymStage"]


class SynonymStage(SemanticStage):
    """Root-attribute rewriting backed by the knowledge base's
    attribute thesaurus (hash lookups only)."""

    name = STAGE_SYNONYM

    #: The synonym stage accepts the interest view (the pipeline binds
    #: it like any other stage) but never consults it: the root rewrite
    #: is a mandatory in-place normalization, not a candidate
    #: construction — subscriptions are stored in root form, so
    #: skipping it would *lose* matches, never save work.  Demand-driven
    #: pruning instead relies on the rewrite having happened: the
    #: interest index is keyed by root attributes, which is what makes
    #: one probe per candidate sufficient downstream.
    interest_safe = True

    def __init__(self, kb: KnowledgeBase) -> None:
        super().__init__()
        self._kb = kb

    def _rename_map(self, attributes) -> dict[str, str]:
        roots = self._kb.concept_table().attribute_roots
        renames: dict[str, str] = {}
        for name in attributes:
            root = roots.get(name)
            if root is not None and root != name:
                renames[name] = root
        return renames

    def rewrite_event(self, event: Event) -> tuple[Event, tuple]:
        """Rename every attribute to its root; reports one derivation
        step per renamed attribute."""
        rewritten, steps = self.rename_event(event)
        return rewritten, tuple(s for step in steps for s in derivation_steps(step))

    def rename_event(self, event: Event) -> tuple[Event, tuple]:
        """:meth:`rewrite_event` with the steps compact (see
        :mod:`repro.core.provenance`) — what the pipeline keeps."""
        self.stats.events_in += 1
        renames = self._rename_map(event.attributes())
        self.stats.lookups += len(event)
        if not renames:
            self.stats.events_out += 1
            return event, ()
        rewritten = event.with_renamed_attributes(renames)
        self.stats.rewrites += len(renames)
        self.stats.events_out += 1
        return rewritten, tuple((SYNONYM, new, 0, old) for old, new in renames.items())

    def rewrite_subscription(self, subscription: Subscription) -> Subscription:
        """Figure 1's "root subscription": predicate attributes are
        rewritten to roots; ids and tolerance are preserved."""
        renames = self._rename_map(subscription.attributes())
        self.stats.lookups += len(subscription.attributes())
        if not renames:
            return subscription
        self.stats.rewrites += len(renames)
        return subscription.with_renamed_attributes(renames)
