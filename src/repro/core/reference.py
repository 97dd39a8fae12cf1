"""The string reference: the semantic stages on the knowledge base's
string lookups, the oracle the id path is tested against.

``SemanticConfig(interning=False)`` builds these stages in place of the
fast ones (:class:`~repro.core.pipeline.SemanticPipeline` is the one
branch point).  They override only the lookups — ``attribute_rename_map``,
``canonical_term`` and ``generalizations``, a breadth-first search per
call — so expansion, derivation table and fixpoint are shared.  The
hierarchy stage never fetches the concept table and is never pruned.

Generality is a sum of per-term distances ("I know what you mean"), so
the reference is per term: a value climbs its own domains from its
synonym group, and a chain across domains composes in the fixpoint.
Read downward and bridged through synonyms, that is the interest
index's descent closure (:func:`~repro.ontology.concept_table.
descent_closure`).  The two are one relation — each descent pair is one
``ancestors`` step at the same distance, and back — unless a synonym
group or a concept bridges two domains: descent then reaches in one pair
what the fixpoint reaches in steps, each of which pruning admits
(postdoc → graduate degree at 2, through a doctorate ~ PhD ring).
"""

from __future__ import annotations

from typing import Iterator

from repro.core.hierarchy import HierarchyStage
from repro.core.provenance import CANON, GENERAL
from repro.core.synonyms import SynonymStage
from repro.model.attributes import normalize_attribute

__all__ = ["ReferenceHierarchyStage", "ReferenceSynonymStage"]


class ReferenceSynonymStage(SynonymStage):
    """Root-attribute rewriting through a string lookup."""

    def _rename_map(self, attributes) -> dict[str, str]:
        return self._kb.attribute_rename_map(attributes)


class ReferenceHierarchyStage(HierarchyStage):
    """Upward single-substitution expansion through string lookups."""

    interest_safe = False

    def begin_publication(self) -> None:
        pass  # the reference never reads the concept table

    def _values(self, attribute: str, value: str, budget: int | None) -> Iterator[tuple]:
        kb = self._kb
        self.stats.lookups += 1
        if self._value_synonyms:
            canonical = kb.canonical_term(value)
            if canonical is not None and canonical != value:
                yield CANON, 0, canonical
        if budget is not None and budget <= 0:
            return
        for general, distance in kb.generalizations(value, max_levels=budget).items():
            yield GENERAL, distance, general

    def _names(self, attribute: str, budget: int | None) -> Iterator[tuple]:
        if budget is not None and budget <= 0:
            return
        self.stats.lookups += 1
        for general, distance in self._kb.generalizations(attribute, max_levels=budget).items():
            yield distance, normalize_attribute(general.replace(" ", "_"))

    def renameable(self, attribute: str) -> bool:
        return bool(self._kb.generalizations(attribute))
