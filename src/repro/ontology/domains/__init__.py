"""Built-in domain ontologies and the multi-domain demo knowledge base.

Each submodule installs one domain-specific ontology (paper §3.2 argues
for many small domain ontologies over one global one);
:func:`build_demo_knowledge_base` combines all three and adds the
*inter-domain* bridge mappings — "it is possible to provide
inter-domain mapping by simply adding additional functions."
"""

from __future__ import annotations

from repro.ontology.knowledge_base import KnowledgeBase
from repro.ontology.mappingdefs import MappingRule
from repro.ontology.domains.electronics import (
    build_electronics_knowledge_base,
    install_electronics_domain,
)
from repro.ontology.domains.jobs import (
    build_jobs_knowledge_base,
    install_jobs_domain,
)
from repro.ontology.domains.vehicles import (
    build_vehicles_knowledge_base,
    install_vehicles_domain,
)

__all__ = [
    "build_jobs_knowledge_base",
    "build_vehicles_knowledge_base",
    "build_electronics_knowledge_base",
    "install_jobs_domain",
    "install_vehicles_domain",
    "install_electronics_domain",
    "bridge_rules",
    "build_demo_knowledge_base",
]


def bridge_rules() -> tuple[MappingRule, ...]:
    """Inter-domain mapping functions connecting the three demo domains.

    A resume naming an embedded-software skill (jobs domain) also
    advertises familiarity with embedded systems (electronics domain);
    an automotive-software position links into the vehicles domain; a
    mainframe posting links to mainframe hardware.
    """
    return (
        MappingRule.equivalence(
            "bridge-embedded-skill-to-device",
            {"skill": "embedded software"},
            {"device": "embedded system"},
            domain="bridge",
            description="jobs -> electronics: embedded skill implies device familiarity",
        ),
        MappingRule.equivalence(
            "bridge-mainframe-position-to-hardware",
            {"position": "mainframe developer"},
            {"device": "mainframe"},
            domain="bridge",
            description="jobs -> electronics: mainframe developers know mainframes",
        ),
        MappingRule.equivalence(
            "bridge-automotive-skill-to-vehicles",
            {"skill": "automotive software"},
            {"body_style": "car"},
            domain="bridge",
            description="jobs -> vehicles: automotive software implies car-domain knowledge",
        ),
        MappingRule.equivalence(
            "bridge-fleet-vehicle-to-commercial",
            {"listing_kind": "fleet sale"},
            {"body_style": "commercial vehicle"},
            domain="bridge",
            description="vehicles: fleet listings are commercial-vehicle offers",
        ),
    )


def build_demo_knowledge_base() -> KnowledgeBase:
    """All three domains plus the inter-domain bridges — the knowledge
    base behind the demonstration scenario (paper §4)."""
    kb = KnowledgeBase("demo-kb")
    install_jobs_domain(kb)
    install_vehicles_domain(kb)
    install_electronics_domain(kb)
    # The bridge rules reference skill terms; make sure the jobs
    # taxonomy knows them so hierarchy + bridge compose.
    jobs = kb.taxonomy("jobs")
    jobs.add_chain("embedded software", "systems programming")
    jobs.add_chain("automotive software", "embedded software")
    kb.add_rules(bridge_rules())
    return kb
