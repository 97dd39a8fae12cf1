"""DAML+OIL ontology import/export.

The paper's future-work section: "automating translation of ontologies
expressed in DAML+OIL into a more efficient representation suitable for
S-ToPSS."  This module implements that translation for the DAML+OIL /
RDFS subset semantic pub/sub needs:

* ``daml:Class`` / ``rdfs:Class``              → taxonomy concepts
* ``rdfs:subClassOf``                          → is-a edges
* ``daml:sameClassAs`` / ``equivalentClass``   → value synonyms
* ``rdf:Property`` / ``daml:DatatypeProperty`` /
  ``daml:ObjectProperty``                      → attributes
* ``daml:samePropertyAs`` / ``equivalentProperty`` → attribute synonyms
* ``rdfs:subPropertyOf``                       → attribute is-a edges

Namespace URIs are matched by *local name only*, so documents using the
DAML, OWL, or bare-RDFS vocabularies all import.  Class identifiers in
CamelCase become spaced lowercase terms ("MainframeDeveloper" →
"mainframe developer") unless an ``rdfs:label`` provides the display
form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.errors import DamlImportError
from repro.ontology.knowledge_base import KnowledgeBase
from repro.ontology.taxonomy import Taxonomy

if TYPE_CHECKING:  # pragma: no cover - typing only; parse_daml imports it
    import xml.etree.ElementTree as ET

__all__ = ["DamlOntology", "parse_daml", "import_daml", "export_daml"]

_CLASS_TAGS = {"class"}
_PROPERTY_TAGS = {"property", "datatypeproperty", "objectproperty"}
_SUBCLASS_TAGS = {"subclassof"}
_SUBPROPERTY_TAGS = {"subpropertyof"}
_CLASS_EQUIV_TAGS = {"sameclassas", "equivalentclass", "sameas"}
_PROPERTY_EQUIV_TAGS = {"samepropertyas", "equivalentproperty"}
_LABEL_TAGS = {"label"}

_CAMEL_BOUNDARY = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")


def _local_name(tag_or_attr: str) -> str:
    """Strip an XML namespace: ``{uri}subClassOf`` → ``subclassof``."""
    if "}" in tag_or_attr:
        tag_or_attr = tag_or_attr.rsplit("}", 1)[1]
    return tag_or_attr.lower()


def _resource_name(reference: str) -> str:
    """Extract the entity name from an rdf reference: ``#Car`` → ``Car``,
    ``http://example.org/onto#Car`` → ``Car``."""
    ref = reference.strip()
    if "#" in ref:
        ref = ref.rsplit("#", 1)[1]
    elif "/" in ref:
        ref = ref.rstrip("/").rsplit("/", 1)[-1]
    if not ref:
        raise DamlImportError(f"empty rdf resource reference {reference!r}")
    return ref


def _id_to_term(identifier: str) -> str:
    """``MainframeDeveloper`` → ``mainframe developer``;
    ``graduation_year`` → ``graduation year`` stays lower-case."""
    spaced = _CAMEL_BOUNDARY.sub(" ", identifier).replace("_", " ")
    return " ".join(spaced.split()).lower()


def _find_identifier(element: ET.Element) -> str | None:
    for attr, value in element.attrib.items():
        if _local_name(attr) in ("id", "about"):
            return _resource_name(value)
    return None


def _find_reference(element: ET.Element) -> str | None:
    for attr, value in element.attrib.items():
        if _local_name(attr) == "resource":
            return _resource_name(value)
    text = (element.text or "").strip()
    if text:
        return _resource_name(text)
    return None


@dataclass
class DamlOntology:
    """Parsed, representation-independent view of a DAML+OIL document."""

    classes: dict[str, str] = field(default_factory=dict)  # term -> description
    subclass_edges: list[tuple[str, str]] = field(default_factory=list)
    class_equivalences: list[tuple[str, str]] = field(default_factory=list)
    properties: list[str] = field(default_factory=list)
    subproperty_edges: list[tuple[str, str]] = field(default_factory=list)
    property_equivalences: list[tuple[str, str]] = field(default_factory=list)

    def into_knowledge_base(self, kb: KnowledgeBase, domain: str) -> KnowledgeBase:
        """Install this ontology into *kb* under *domain* — the paper's
        "more efficient representation suitable for S-ToPSS"."""
        taxonomy = kb.add_domain(domain)
        for term, description in self.classes.items():
            taxonomy.add_concept(term, description)
        for child, parent in self.subclass_edges:
            taxonomy.add_isa(child, parent)
        for a, b in self.class_equivalences:
            kb.add_value_synonyms([a, b])
        # Attribute generalization lives in the same domain taxonomy:
        # concept hierarchies "include both attributes and values" (§3.1).
        for child, parent in self.subproperty_edges:
            taxonomy.add_isa(child, parent)
        for a, b in self.property_equivalences:
            kb.add_attribute_synonyms([a.replace(" ", "_"), b.replace(" ", "_")])
        return kb


def parse_daml(document: str) -> DamlOntology:
    """Parse a DAML+OIL XML document into a :class:`DamlOntology`.

    Raises :class:`~repro.errors.DamlImportError` on malformed XML or
    structurally invalid definitions.
    """
    import xml.etree.ElementTree as ET

    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        raise DamlImportError(f"malformed XML: {exc}") from exc

    ontology = DamlOntology()
    for element in root:
        tag = _local_name(element.tag)
        if tag in _CLASS_TAGS:
            _parse_class(element, ontology)
        elif tag in _PROPERTY_TAGS:
            _parse_property(element, ontology)
        # Unknown top-level elements (ontology headers, comments) are
        # skipped: real DAML documents carry plenty of them.
    return ontology


def _parse_class(element: ET.Element, ontology: DamlOntology) -> None:
    identifier = _find_identifier(element)
    if identifier is None:
        raise DamlImportError("class definition lacks rdf:ID/rdf:about")
    label = None
    description = ""
    term = _id_to_term(identifier)
    edges: list[tuple[str, str]] = []
    equivalences: list[tuple[str, str]] = []
    for child in element:
        child_tag = _local_name(child.tag)
        if child_tag in _LABEL_TAGS:
            label = (child.text or "").strip() or None
        elif child_tag == "comment":
            description = (child.text or "").strip()
        elif child_tag in _SUBCLASS_TAGS:
            parent_ref = _find_reference(child)
            if parent_ref is None:
                raise DamlImportError(f"subClassOf of {identifier!r} lacks a resource")
            edges.append((term, _id_to_term(parent_ref)))
        elif child_tag in _CLASS_EQUIV_TAGS:
            other = _find_reference(child)
            if other is None:
                raise DamlImportError(f"equivalence on {identifier!r} lacks a resource")
            equivalences.append((term, _id_to_term(other)))
    if label:
        term = " ".join(label.split())
        edges = [(term, parent) for _, parent in edges]
        equivalences = [(term, other) for _, other in equivalences]
    ontology.classes.setdefault(term, description)
    ontology.subclass_edges.extend(edges)
    ontology.class_equivalences.extend(equivalences)


def _parse_property(element: ET.Element, ontology: DamlOntology) -> None:
    identifier = _find_identifier(element)
    if identifier is None:
        raise DamlImportError("property definition lacks rdf:ID/rdf:about")
    term = _id_to_term(identifier)
    ontology.properties.append(term)
    for child in element:
        child_tag = _local_name(child.tag)
        if child_tag in _SUBPROPERTY_TAGS:
            parent_ref = _find_reference(child)
            if parent_ref is None:
                raise DamlImportError(f"subPropertyOf of {identifier!r} lacks a resource")
            ontology.subproperty_edges.append((term, _id_to_term(parent_ref)))
        elif child_tag in _PROPERTY_EQUIV_TAGS:
            other = _find_reference(child)
            if other is None:
                raise DamlImportError(f"samePropertyAs of {identifier!r} lacks a resource")
            ontology.property_equivalences.append((term, _id_to_term(other)))


def import_daml(document: str, kb: KnowledgeBase, domain: str) -> KnowledgeBase:
    """One-call translation: parse *document* and install it in *kb*."""
    return parse_daml(document).into_knowledge_base(kb, domain)


# ---------------------------------------------------------------------------
# Export (round-trip support)
# ---------------------------------------------------------------------------

_DAML_HEADER = (
    '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"\n'
    '         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"\n'
    '         xmlns:daml="http://www.daml.org/2001/03/daml+oil#">\n'
)


def _term_to_id(term: str) -> str:
    return "".join(part.capitalize() for part in term.split())


def export_daml(
    taxonomy: Taxonomy,
    *,
    class_equivalences: Iterable[tuple[str, str]] = (),
    property_equivalences: Iterable[tuple[str, str]] = (),
) -> str:
    """Serialize a taxonomy (plus optional equivalences) as DAML+OIL.

    :func:`parse_daml` round-trips the result: re-importing yields the
    same concepts and edges.
    """
    lines = [_DAML_HEADER]
    display = {concept.key: concept.term for concept in taxonomy}
    # each concept's parents in declaration order, the order its
    # generalizations are walked in
    parents: dict[str, list[str]] = {}
    for child, parent in taxonomy.isa_edges():
        parents.setdefault(child, []).append(display[parent])
    for concept in taxonomy:
        lines.append(f'  <daml:Class rdf:ID="{_term_to_id(concept.term)}">')
        lines.append(f"    <rdfs:label>{concept.term}</rdfs:label>")
        if concept.description:
            lines.append(f"    <rdfs:comment>{concept.description}</rdfs:comment>")
        for parent in parents.get(concept.key, ()):
            lines.append(f'    <rdfs:subClassOf rdf:resource="#{_term_to_id(parent)}"/>')
        lines.append("  </daml:Class>")
    for a, b in class_equivalences:
        lines.append(f'  <daml:Class rdf:ID="{_term_to_id(a)}">')
        lines.append(f"    <rdfs:label>{a}</rdfs:label>")
        lines.append(f'    <daml:sameClassAs rdf:resource="#{_term_to_id(b)}"/>')
        lines.append("  </daml:Class>")
    for a, b in property_equivalences:
        lines.append(f'  <daml:DatatypeProperty rdf:ID="{a.replace(" ", "_")}">')
        lines.append(f'    <daml:samePropertyAs rdf:resource="#{b.replace(" ", "_")}"/>')
        lines.append("  </daml:DatatypeProperty>")
    lines.append("</rdf:RDF>")
    return "\n".join(lines)
