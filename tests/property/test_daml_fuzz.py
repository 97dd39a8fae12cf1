"""Fuzz: a damaged DAML+OIL document fails loudly and locally.

The job-finder taxonomy is exported with
:func:`~repro.ontology.daml.export_daml`, then mutated — slices deleted,
duplicated or replaced by pieces of the DAML/RDF vocabulary and near
misses of it, attribute values replaced by references of every shape
(bare, ``#``-fragment, URI, empty, slashes only) — and handed to
:func:`~repro.ontology.daml.import_daml`.
It may refuse only with the library's own errors
(:class:`~repro.errors.ReproError`); a document it accepts installs
into a fresh knowledge base.
"""

from __future__ import annotations

import re

from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.ontology.daml import export_daml, import_daml
from repro.ontology.domains import build_jobs_knowledge_base
from repro.ontology.knowledge_base import KnowledgeBase

_DOCUMENT = export_daml(build_jobs_knowledge_base().taxonomy("jobs"))

#: pieces of the vocabulary (and near misses) to splice into a document
_TOKENS = (
    "<", ">", "/", "/>", '"', "'", "=", "#", " ", "\n", "&", "&amp;", "&#0;", "<!--", "-->",
    "<daml:Class", "</daml:Class>", "<rdfs:Class>", "<rdf:Property", "<daml:ObjectProperty",
    "<rdfs:subClassOf", "<rdfs:subPropertyOf", "<daml:sameClassAs", "<daml:samePropertyAs",
    "<owl:equivalentClass", "<rdfs:label>", "</rdfs:label>", " rdf:ID=", " rdf:about=",
    " rdf:resource=", '"/"', '"#"', '""', '"http://x.example/"', '"http://x.example/onto#"',
    '"#Phd"', '"Phd"', "Phd", "GraduateDegree", "_", "xmlns:rdf=", "é",
)  # fmt: skip


#: attribute values: the references an ``rdf:ID``, ``rdf:about`` or
#: ``rdf:resource`` may hold
_REFERENCES = (
    "Phd", "#Phd", "", " ", "#", "/", "//", "a/", "http://x.example/", "http://x.example/#",
    "http://x.example/onto#Phd", "http://x.example/onto/Phd/", "é#", "&amp;",
)  # fmt: skip
_VALUE = re.compile(r'="([^"]*)"')


@st.composite
def _mutated(draw) -> str:
    document = _DOCUMENT
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("delete", "duplicate", "replace", "insert", "value")))
        values = list(_VALUE.finditer(document))
        if kind == "value" and values:
            value = draw(st.sampled_from(values))
            start, end = value.span(1)
            document = document[:start] + draw(st.sampled_from(_REFERENCES)) + document[end:]
            continue
        start = draw(st.integers(0, len(document)))
        end = draw(st.integers(start, min(len(document), start + 40)))
        if kind == "delete":
            piece = ""
        elif kind == "duplicate":
            piece = document[start:end] * 2
        else:
            piece = "".join(draw(st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=4)))
            if kind == "insert":
                end = start
        document = document[:start] + piece + document[end:]
    return document


@given(document=_mutated())
@example(document=_DOCUMENT.replace('rdf:ID="Phd"', 'rdf:about="/"', 1))
@example(document=_DOCUMENT.replace('rdf:resource="#', 'rdf:resource="/', 1))
def test_a_mutated_document_raises_only_library_errors(document):
    try:
        kb = import_daml(document, KnowledgeBase(), "jobs")
    except ReproError:
        return
    assert "jobs" in kb.domains()
