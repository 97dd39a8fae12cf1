"""Unit tests for repro.ontology.daml (DAML+OIL import/export)."""

from __future__ import annotations

import pytest

from repro.errors import DamlImportError
from repro.ontology.daml import export_daml, import_daml, parse_daml
from repro.ontology.knowledge_base import KnowledgeBase
from repro.ontology.taxonomy import Taxonomy

_DOC = """<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:daml="http://www.daml.org/2001/03/daml+oil#">
  <daml:Class rdf:ID="Vehicle"/>
  <daml:Class rdf:ID="MotorVehicle">
    <rdfs:subClassOf rdf:resource="#Vehicle"/>
  </daml:Class>
  <daml:Class rdf:ID="Car">
    <rdfs:subClassOf rdf:resource="#MotorVehicle"/>
    <daml:sameClassAs rdf:resource="#Automobile"/>
    <rdfs:comment>four wheels</rdfs:comment>
  </daml:Class>
  <daml:Class rdf:about="http://example.org/onto#Sedan">
    <rdfs:subClassOf rdf:resource="http://example.org/onto#Car"/>
  </daml:Class>
  <daml:Class rdf:ID="StationWagon">
    <rdfs:label>station wagon</rdfs:label>
    <rdfs:subClassOf rdf:resource="#Car"/>
  </daml:Class>
  <daml:DatatypeProperty rdf:ID="university">
    <daml:samePropertyAs rdf:resource="#school"/>
  </daml:DatatypeProperty>
  <daml:DatatypeProperty rdf:ID="graduation_year">
    <rdfs:subPropertyOf rdf:resource="#date_info"/>
  </daml:DatatypeProperty>
  <OntologyHeader>ignored</OntologyHeader>
</rdf:RDF>"""


class TestParsing:
    def test_classes_and_edges(self):
        onto = parse_daml(_DOC)
        assert "car" in onto.classes
        assert onto.classes["car"] == "four wheels"
        assert ("motor vehicle", "vehicle") in onto.subclass_edges
        assert ("sedan", "car") in onto.subclass_edges

    def test_camel_case_split(self):
        onto = parse_daml(_DOC)
        assert "motor vehicle" in onto.classes

    def test_label_overrides_id(self):
        onto = parse_daml(_DOC)
        assert "station wagon" in onto.classes
        assert ("station wagon", "car") in onto.subclass_edges

    def test_equivalences(self):
        onto = parse_daml(_DOC)
        assert ("car", "automobile") in onto.class_equivalences
        assert ("university", "school") in onto.property_equivalences

    def test_subproperties(self):
        onto = parse_daml(_DOC)
        assert ("graduation year", "date info") in onto.subproperty_edges

    def test_unknown_top_level_skipped(self):
        parse_daml(_DOC)  # must not raise on <OntologyHeader>

    @pytest.mark.parametrize(
        "doc",
        [
            "not xml at all <",
            '<rdf:RDF xmlns:rdf="x"><rdf:Class/></rdf:RDF>',  # class without id
            (
                '<r xmlns:rdfs="ns"><Class ID="A">'
                "<rdfs:subClassOf/></Class></r>"
            ),  # subClassOf without resource
        ],
    )
    def test_rejects(self, doc):
        with pytest.raises(DamlImportError):
            parse_daml(doc)


class TestImport:
    def test_into_knowledge_base(self):
        kb = import_daml(_DOC, KnowledgeBase(), "vehicles")
        taxonomy = kb.taxonomy("vehicles")
        assert taxonomy.generalization_distance("sedan", "vehicle") == 3
        assert kb.value_root("automobile") in ("car", "automobile")
        assert kb.root_attribute("school") == kb.root_attribute("university")

    def test_attribute_hierarchy_lands_in_taxonomy(self):
        kb = import_daml(_DOC, KnowledgeBase(), "vehicles")
        assert kb.generalization_distance("graduation year", "date info") == 1


class TestExport:
    def test_round_trip(self):
        taxonomy = Taxonomy("vehicles")
        taxonomy.add_chain("sedan", "car", "vehicle")
        taxonomy.add_chain("SUV", "car")
        doc = export_daml(
            taxonomy,
            class_equivalences=[("car", "automobile")],
            property_equivalences=[("university", "school")],
        )
        kb = import_daml(doc, KnowledgeBase(), "vehicles")
        reimported = kb.taxonomy("vehicles")
        assert reimported.generalization_distance("sedan", "vehicle") == 2
        assert reimported.generalization_distance("suv", "car") == 1
        assert kb.root_attribute("school") == kb.root_attribute("university")
        assert kb.value_root("automobile") is not None

    def test_round_trip_keeps_declared_parent_order(self):
        """The parents are declared against their sorted order: a sorted
        export would hand them back as "car, family vehicle"."""
        taxonomy = Taxonomy("vehicles")
        taxonomy.add_chain("wagon", "family vehicle", "vehicle")
        taxonomy.add_chain("wagon", "car", "motor vehicle")
        kb = import_daml(export_daml(taxonomy), KnowledgeBase(), "vehicles")
        expected = [("family vehicle", 1), ("car", 1), ("vehicle", 2), ("motor vehicle", 2)]
        assert list(taxonomy.ancestors("wagon").items()) == expected
        assert list(kb.taxonomy("vehicles").ancestors("wagon").items()) == expected
        assert list(kb.generalizations("wagon").items()) == expected
