"""Knowledge substrate: taxonomies, thesauri, mapping rules, and the
knowledge-base facade the semantic stages query.

The built-in domain ontologies live in :mod:`repro.ontology.domains`;
DAML+OIL import/export (the paper's future-work item) in
:mod:`repro.ontology.daml`.
"""

from repro.ontology.concept_table import ConceptTable
from repro.ontology.concepts import Concept, normalize_term, term_key
from repro.ontology.daml import DamlOntology, export_daml, import_daml, parse_daml
from repro.ontology.knowledge_base import KnowledgeBase
from repro.ontology.mappingdefs import (
    Expr,
    MappingContext,
    MappingRule,
    OutputMode,
    Requirement,
)
from repro.ontology.serialization import kb_from_dict, kb_to_dict, load_kb, save_kb
from repro.ontology.taxonomy import Taxonomy
from repro.ontology.thesaurus import Thesaurus

__all__ = [
    "kb_to_dict",
    "kb_from_dict",
    "save_kb",
    "load_kb",
    "Concept",
    "ConceptTable",
    "normalize_term",
    "term_key",
    "Taxonomy",
    "Thesaurus",
    "KnowledgeBase",
    "Expr",
    "MappingContext",
    "MappingRule",
    "OutputMode",
    "Requirement",
    "DamlOntology",
    "parse_daml",
    "import_daml",
    "export_daml",
]
