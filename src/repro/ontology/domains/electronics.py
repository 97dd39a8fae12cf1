"""The electronics domain ontology.

A third domain exercising the multi-domain deployment of paper §3.2:
"the current trend is to have many domain-specific ontologies/concept
hierarchies, instead of a single, large and global ontology."  The
inter-domain bridge rules connecting electronics to the job-finder
domain live in :func:`repro.ontology.domains.bridges`.
"""

from __future__ import annotations

from repro.model.predicates import Predicate
from repro.ontology.knowledge_base import KnowledgeBase
from repro.ontology.mappingdefs import MappingRule

__all__ = [
    "DOMAIN",
    "build_electronics_knowledge_base",
    "install_electronics_domain",
]

DOMAIN = "electronics"

_CHAINS = (
    ("gaming laptop", "laptop", "portable computer", "computer", "electronics"),
    ("ultrabook", "laptop"),
    ("workstation", "desktop computer", "computer"),
    ("gaming desktop", "desktop computer"),
    ("server", "computer"),
    ("mainframe", "server"),
    ("tablet", "portable computer"),
    ("smartphone", "mobile phone", "phone", "electronics"),
    ("feature phone", "mobile phone"),
    ("smartwatch", "wearable", "electronics"),
    ("fitness tracker", "wearable"),
    ("microcontroller", "embedded system", "computer"),
    ("single-board computer", "embedded system"),
    ("OLED TV", "television", "display device", "electronics"),
    ("LCD TV", "television"),
    ("monitor", "display device"),
)

_ATTRIBUTE_SYNONYMS = (
    (("cpu", "processor", "chip"), "cpu"),
    (("ram", "memory", "main_memory"), "ram"),
    (("storage", "disk", "drive_capacity"), "storage"),
    (("price", "cost", "retail_price"), "price"),
    (("screen_size", "display_size", "diagonal"), "screen_size"),
    (("device", "product", "item"), "device"),
)

_VALUE_SYNONYMS = (
    (("laptop", "notebook", "notebook computer"), "laptop"),
    (("smartphone", "smart phone"), "smartphone"),
    (("television", "TV", "tv set"), "television"),
)


def _mapping_rules() -> tuple[MappingRule, ...]:
    return (
        MappingRule.computed(
            "total-storage",
            "total_storage",
            "ssd + hdd",
            domain=DOMAIN,
            description="total storage = SSD capacity + HDD capacity",
        ),
        MappingRule.equivalence(
            "large-screen",
            [Predicate.ge("screen_size", 15)],
            {"screen_class": "large screen"},
            domain=DOMAIN,
        ),
        MappingRule.equivalence(
            "compact-screen",
            [Predicate.lt("screen_size", 13)],
            {"screen_class": "compact screen"},
            domain=DOMAIN,
        ),
        MappingRule.equivalence(
            "premium-electronics",
            [Predicate.gt("price", 2000)],
            {"price_band": "premium"},
            domain=DOMAIN,
        ),
    )


def install_electronics_domain(kb: KnowledgeBase) -> KnowledgeBase:
    """Install the electronics ontology into an existing knowledge base."""
    taxonomy = kb.add_domain(DOMAIN)
    for chain in _CHAINS:
        taxonomy.add_chain(*chain)
    for terms, root in _ATTRIBUTE_SYNONYMS:
        kb.add_attribute_synonyms(terms, root=root)
    for terms, root in _VALUE_SYNONYMS:
        kb.add_value_synonyms(terms, root=root)
    kb.add_rules(_mapping_rules())
    return kb


def build_electronics_knowledge_base() -> KnowledgeBase:
    """A fresh knowledge base holding only the electronics domain."""
    return install_electronics_domain(KnowledgeBase("electronics-kb"))

