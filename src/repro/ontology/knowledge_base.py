"""The knowledge base: synonyms + taxonomies + mapping rules.

This facade is what the semantic stages in :mod:`repro.core` query.  It
aggregates the three knowledge forms of paper §3.1 and supports the
multi-domain deployment of §3.2: "the use of mapping functions allows a
single pub/sub system to be used for multiple domains simultaneously …
it is possible to provide inter-domain mapping by simply adding
additional functions."

Every lookup the matching hot path needs — root attribute, candidate
mapping rules, known-term checks — is a dictionary probe, per the
paper's "hash structures to quickly locate relevant information"
performance design.
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator

from repro.errors import UnknownDomainError
from repro.model.attributes import normalize_attribute
from repro.model.events import Event
from repro.ontology.concept_table import ConceptTable
from repro.ontology.concepts import term_key
from repro.ontology.mappingdefs import MappingRule
from repro.ontology.taxonomy import Taxonomy
from repro.ontology.thesaurus import Thesaurus

__all__ = ["KnowledgeBase"]


class KnowledgeBase:
    """Aggregated domain knowledge for a running S-ToPSS instance."""

    def __init__(self, name: str = "kb") -> None:
        self.name = name
        self._attribute_synonyms = Thesaurus()
        self._value_synonyms = Thesaurus()
        self._taxonomies: dict[str, Taxonomy] = {}
        self._rules: list[MappingRule] = []
        self._rule_names: set[str] = set()
        self._rules_by_attribute: dict[str, list[MappingRule]] = {}
        self._concept_table: ConceptTable | None = None
        #: guards the table's build and catch-up: engine replicas
        #: sharing one knowledge base (the sharded broker) must all
        #: observe the same :class:`ConceptTable` object, or their
        #: matchers would intern equal spellings under different ids.
        self._concept_table_lock = threading.Lock()

    # -- versioning ---------------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic change counter; semantic-stage caches key on it."""
        return (
            self._attribute_synonyms.version
            + self._value_synonyms.version
            + sum(t.version for t in self._taxonomies.values())
            + len(self._rules)
        )

    def concept_table(self) -> ConceptTable:
        """The interned-identifier table of this knowledge base (see
        :class:`~repro.ontology.concept_table.ConceptTable`): built on
        the first call, and from then on the *same object*, caught up
        in place whenever :attr:`version` has moved — the knowledge
        base only ever grows, so a move is an append and every id
        handed out stays valid.  Callers on the publish hot path
        re-fetch per operation — the fetch is one version compare — so
        they can never run on a stale id space."""
        table = self._concept_table
        if table is None or table.version != self.version:
            with self._concept_table_lock:
                table = self._concept_table
                if table is None:
                    table = ConceptTable(self)
                    # the build read everything; start recording what
                    # is appended from here on
                    self._take_appended()
                    self._concept_table = table
                elif table.version != self.version:
                    table.catch_up(*self._take_appended())
        return table

    def _take_appended(self) -> tuple[list, list, list]:
        """What the taxonomies and the two thesauri appended since the
        last call, in the shapes :meth:`ConceptTable.catch_up` takes:
        concepts and is-a edges, touched value-synonym groups, touched
        attribute-synonym groups."""
        concepts_and_edges = [
            item for taxonomy in self._taxonomies.values() for item in taxonomy.take_appended()
        ]
        value, attribute = self._value_synonyms, self._attribute_synonyms
        return (
            concepts_and_edges,
            [value.synonyms_of(root) for root in dict.fromkeys(value.take_appended())],
            [attribute.synonyms_of(root) for root in dict.fromkeys(attribute.take_appended())],
        )

    # -- domains -------------------------------------------------------------------

    def add_domain(self, domain: str) -> Taxonomy:
        """Get or create the taxonomy for *domain*."""
        taxonomy = self._taxonomies.get(domain)
        if taxonomy is None:
            taxonomy = Taxonomy(domain)
            if self._concept_table is not None:
                taxonomy.take_appended()  # the table follows it from birth
            self._taxonomies[domain] = taxonomy
        return taxonomy

    def taxonomy(self, domain: str) -> Taxonomy:
        try:
            return self._taxonomies[domain]
        except KeyError:
            raise UnknownDomainError(
                f"no domain {domain!r} in knowledge base {self.name!r}"
            ) from None

    def domains(self) -> tuple[str, ...]:
        return tuple(self._taxonomies)

    def _taxonomies_for(self, domain: str | None) -> Iterator[Taxonomy]:
        if domain is None:
            yield from self._taxonomies.values()
        else:
            yield self.taxonomy(domain)

    # -- attribute synonyms (stage 1 knowledge) --------------------------------------

    def add_attribute_synonyms(self, terms: Iterable[str], *, root: str | None = None) -> str:
        """Declare attribute names synonymous; returns the root
        attribute in normalized form."""
        normalized = [normalize_attribute(t) for t in terms]
        normalized_root = normalize_attribute(root) if root is not None else None
        result = self._attribute_synonyms.add_synonyms(normalized, root=normalized_root)
        return normalize_attribute(result)

    def root_attribute(self, attribute: str) -> str:
        """The root attribute for *attribute* (itself when unknown) —
        the stage-1 rewrite, one hash probe."""
        name = normalize_attribute(attribute)
        root = self._attribute_synonyms.root_of(name)
        if root is None:
            return name
        return normalize_attribute(root)

    def attribute_rename_map(self, attributes: Iterable[str]) -> dict[str, str]:
        """Rename map covering only attributes whose root differs."""
        renames: dict[str, str] = {}
        for attribute in attributes:
            name = normalize_attribute(attribute)
            root = self.root_attribute(name)
            if root != name:
                renames[name] = root
        return renames

    def attribute_synonym_groups(self) -> Iterator[frozenset[str]]:
        yield from self._attribute_synonyms.groups()

    def attribute_synonyms_of(self, attribute: str) -> frozenset[str]:
        """All spellings synonymous with *attribute* (itself included
        when known; empty set otherwise)."""
        return self._attribute_synonyms.synonyms_of(normalize_attribute(attribute))

    # -- value synonyms (distance-0 equivalences, extension) --------------------------

    def add_value_synonyms(self, terms: Iterable[str], *, root: str | None = None) -> str:
        """Declare value spellings synonymous ("car" = "automobile" =
        "auto"); the hierarchy stage treats them as the same concept."""
        return self._value_synonyms.add_synonyms(terms, root=root)

    def value_root(self, term: str) -> str | None:
        """Canonical spelling for a value term, ``None`` when unknown."""
        return self._value_synonyms.root_of(term)

    def value_synonym_groups(self) -> Iterator[frozenset[str]]:
        yield from self._value_synonyms.groups()

    def value_equivalents(self, term: str) -> frozenset[str]:
        """All spellings equivalent to *term* (synonym group plus the
        canonical taxonomy spelling), itself included."""
        spellings = set(self._value_synonyms.synonyms_of(term))
        spellings.add(term)
        for taxonomy in self._taxonomies.values():
            for spelling in tuple(spellings):
                if spelling in taxonomy:
                    spellings.add(taxonomy.canonical(spelling))
        return frozenset(spellings)

    # -- concept hierarchy (stage 2 knowledge) ------------------------------------------

    def knows_term(self, term: str, domain: str | None = None) -> bool:
        """Whether any (or the given) domain taxonomy contains *term*."""
        if not isinstance(term, str):
            return False
        try:
            for taxonomy in self._taxonomies_for(domain):
                if term in taxonomy:
                    return True
        except UnknownDomainError:
            return False
        return False

    def generalizations(
        self, term: str, *, domain: str | None = None, max_levels: int | None = None
    ) -> dict[str, int]:
        """Generalizations of *term* with minimum hop distance, merged
        across domains (minimum wins when a term appears in several).

        Value-synonym spellings of *term* are resolved first, so the
        generalizations of "auto" are those of "car".  Synonymous
        spellings themselves are **not** included — distance-0
        equivalences are reported by :meth:`value_equivalents`.
        """
        merged: dict[str, int] = {}
        # sorted: the enumeration order of the result decides which
        # candidates a truncated expansion constructs first, and must
        # not follow the hash order of a set of strings
        seeds = sorted(self.value_equivalents(term)) if isinstance(term, str) else [term]
        for taxonomy in self._taxonomies_for(domain):
            for seed in seeds:
                if seed not in taxonomy:
                    continue
                for ancestor, distance in taxonomy.ancestors(seed, max_levels).items():
                    if ancestor not in merged or merged[ancestor] > distance:
                        merged[ancestor] = distance
        self_keys = {term_key(s) for s in seeds}
        return {t: d for t, d in merged.items() if term_key(t) not in self_keys}

    def is_generalization_of(
        self, general: str, specific: str, *, domain: str | None = None
    ) -> bool:
        """Paper rule R1 test across domains, resolving value synonyms."""
        if term_key(general) in {term_key(s) for s in self.value_equivalents(specific)}:
            return False
        return general in self.generalizations(specific, domain=domain)

    def generalization_distance(
        self, specific: str, general: str, *, domain: str | None = None
    ) -> int | None:
        """Minimum upward distance, ``None`` when unrelated, ``0`` for
        synonymous/equal terms."""
        if term_key(general) in {term_key(s) for s in self.value_equivalents(specific)}:
            return 0
        return self.generalizations(specific, domain=domain).get(general)

    def canonical_term(self, term: str, *, domain: str | None = None) -> str | None:
        """Canonical display spelling of *term*: its value-synonym root
        if any, else its taxonomy spelling, else ``None`` for unknown
        terms."""
        root = self._value_synonyms.root_of(term)
        if root is not None:
            return root
        try:
            for taxonomy in self._taxonomies_for(domain):
                if term in taxonomy:
                    return taxonomy.canonical(term)
        except UnknownDomainError:
            return None
        return None

    # -- mapping rules (stage 3 knowledge) ------------------------------------------------

    def add_rule(self, rule: MappingRule) -> MappingRule:
        """Register a mapping rule; rule names must be unique."""
        if rule.name in self._rule_names:
            raise ValueError(f"mapping rule {rule.name!r} already registered")
        self._rule_names.add(rule.name)
        self._rules.append(rule)
        for attribute in rule.trigger_attributes:
            self._rules_by_attribute.setdefault(attribute, []).append(rule)
        return rule

    def add_rules(self, rules: Iterable[MappingRule]) -> None:
        for rule in rules:
            self.add_rule(rule)

    def rules(self) -> tuple[MappingRule, ...]:
        return tuple(self._rules)

    def candidate_rules(self, event: Event) -> list[MappingRule]:
        """Rules whose required attributes all appear in *event*,
        located via the per-attribute hash index (each rule is probed at
        most once; guards are checked by the caller via
        :meth:`MappingRule.applicable`)."""
        seen: set[str] = set()
        candidates: list[MappingRule] = []
        event_attrs = set(event.attributes())
        for attribute in event_attrs:
            for rule in self._rules_by_attribute.get(attribute, ()):
                if rule.name in seen:
                    continue
                seen.add(rule.name)
                if rule.trigger_attributes <= event_attrs:
                    candidates.append(rule)
        return candidates

    # -- maintenance -----------------------------------------------------------------------

    def merge(self, other: "KnowledgeBase") -> None:
        """Union another knowledge base into this one (domains merge by
        name; duplicate rule names raise)."""
        for group in other._attribute_synonyms.groups():
            root = other._attribute_synonyms.root_of(next(iter(group)))
            self._attribute_synonyms.add_synonyms(sorted(group), root=root)
        for group in other._value_synonyms.groups():
            root = other._value_synonyms.root_of(next(iter(group)))
            self._value_synonyms.add_synonyms(sorted(group), root=root)
        for domain in other.domains():
            self.add_domain(domain).merge(other.taxonomy(domain))
        for rule in other.rules():
            self.add_rule(rule)

    def stats(self) -> dict[str, object]:
        return {
            "name": self.name,
            "domains": {d: t.stats() for d, t in self._taxonomies.items()},
            "attribute_synonyms": self._attribute_synonyms.stats(),
            "value_synonyms": self._value_synonyms.stats(),
            "mapping_rules": len(self._rules),
        }
