"""A custom semantic stage: morphological normalization (stemming).

The paper's three stages handle *lexical* variation through explicit
knowledge (synonym tables, taxonomies, mapping rules).  A fourth kind
of variation — morphology ("developers" vs "developer", "programming"
vs "program") — would bloat a thesaurus with every inflected form.
This module handles it structurally instead, and doubles as the
reference example for the :class:`~repro.core.interfaces.SemanticStage`
extension point: S-ToPSS accepts arbitrary extra stages
(``SToPSS(kb, extra_stages=(StemmingStage(kb),))``) without any change
to the pipeline or matcher.

The stemmer is a small suffix-stripping normalizer (a deliberately
conservative Porter-style subset): it only proposes a derived event
when the stemmed term is *known to the knowledge base* — unknown stems
would create noise matches instead of semantic ones.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.interfaces import SemanticStage
from repro.core.provenance import DerivationStep, DerivedEvent
from repro.ontology.knowledge_base import KnowledgeBase

__all__ = ["StemmingStage", "stem_word", "stem_phrase"]

#: Suffix rules, longest first; (suffix, replacement, min stem length).
_SUFFIX_RULES = (
    ("iveness", "ive", 3),
    ("fulness", "ful", 3),
    ("ization", "ize", 3),
    ("ational", "ate", 3),
    ("ingly", "", 4),
    ("edly", "", 4),
    ("ies", "y", 2),
    ("sses", "ss", 2),
    ("ing", "", 4),
    ("ers", "er", 3),
    ("ed", "", 4),
    ("es", "", 3),
    ("s", "", 3),
)

#: Words the rules must not touch ("s"-final singulars etc.).
_STOP = frozenset({"is", "was", "has", "does", "business", "bus", "class"})


def stem_word(word: str) -> str:
    """Strip one inflectional/derivational suffix from *word*.

    Conservative by design: short stems and stop-listed words pass
    through unchanged, and at most one rule applies.
    """
    lowered = word.lower()
    if lowered in _STOP or len(lowered) <= 3:
        return word
    for suffix, replacement, min_stem in _SUFFIX_RULES:
        if lowered.endswith(suffix) and len(lowered) - len(suffix) >= min_stem:
            return word[: len(word) - len(suffix)] + replacement
    return word


def stem_phrase(phrase: str) -> str:
    """Stem every word of a phrase ("senior developers" → "senior
    developer")."""
    return " ".join(stem_word(word) for word in phrase.split())


class StemmingStage(SemanticStage):
    """Derives events whose string terms are replaced by their stems —
    but only when the stem is a term the knowledge base knows (taxonomy
    member or value-synonym), so stemming feeds the hierarchy/mapping
    stages rather than inventing vocabulary."""

    name = "stemming"

    def __init__(self, kb: KnowledgeBase) -> None:
        super().__init__()
        self._kb = kb

    def expand(
        self, derived: DerivedEvent, *, generality_budget: int | None = None
    ) -> Iterator[DerivedEvent]:
        self.stats.events_in += 1
        produced = 0
        for attribute, value in derived.event.items():
            if not isinstance(value, str):
                continue
            stemmed = stem_phrase(value)
            self.stats.lookups += 1
            if stemmed == value:
                continue
            if not (self._kb.knows_term(stemmed) or self._kb.value_root(stemmed)):
                continue
            step = DerivationStep(
                stage=self.name,
                description=(
                    f"value {value!r} of {attribute!r} stemmed to {stemmed!r}"
                ),
                attribute=attribute,
                generality=0,
            )
            yield derived.extend(derived.event.with_value(attribute, stemmed), step)
            produced += 1
        self.stats.events_out += produced
