"""The vehicles domain ontology — the paper's introductory example.

"If someone is interested in a 'car', the system will not return
notifications about 'vehicles' or 'automobiles' because the matching is
based on the syntax and not on the semantics of the terms" (paper §1).
Here ``car``/``automobile``/``auto`` are value synonyms and the
taxonomy places ``car`` below ``motor vehicle`` below ``vehicle``, so a
subscription on the general term receives specialized publications
(rule R1) and not vice versa (rule R2).
"""

from __future__ import annotations

from repro.model.predicates import Predicate
from repro.ontology.knowledge_base import KnowledgeBase
from repro.ontology.mappingdefs import MappingRule

__all__ = ["DOMAIN", "build_vehicles_knowledge_base", "install_vehicles_domain"]

DOMAIN = "vehicles"

_CHAINS = (
    ("sedan", "car", "motor vehicle", "vehicle"),
    ("coupe", "car"),
    ("hatchback", "car"),
    ("station wagon", "car"),
    ("station wagon", "family vehicle"),
    ("minivan", "family vehicle", "motor vehicle"),
    ("SUV", "car"),
    ("SUV", "off-road vehicle"),
    ("off-road vehicle", "motor vehicle"),
    ("pickup truck", "truck", "commercial vehicle", "motor vehicle"),
    ("semi truck", "truck"),
    ("motorcycle", "two-wheeler", "motor vehicle"),
    ("scooter", "two-wheeler"),
    ("bicycle", "human-powered vehicle", "vehicle"),
    ("electric car", "car"),
    ("electric car", "electric vehicle"),
    ("electric vehicle", "vehicle"),
)

_ATTRIBUTE_SYNONYMS = (
    (("make", "manufacturer", "brand"), "make"),
    (("model", "model_name"), "model"),
    (("price", "cost", "asking_price"), "price"),
    (("mileage", "odometer", "kilometers"), "mileage"),
    (("year", "model_year", "vintage"), "year"),
    (("body_style", "body_type", "category"), "body_style"),
    (("color", "colour", "paint"), "color"),
)

_VALUE_SYNONYMS = (
    (("car", "automobile", "auto"), "car"),
    (("SUV", "sport utility vehicle"), "SUV"),
    (("semi truck", "eighteen wheeler", "big rig"), "semi truck"),
)


def _mapping_rules() -> tuple[MappingRule, ...]:
    return (
        MappingRule.computed(
            "vehicle-age",
            "age",
            "present_year - year",
            domain=DOMAIN,
            description="age = present year - model year",
        ),
        MappingRule.equivalence(
            "classic-car",
            [Predicate.le("year", 1975)],
            {"classification": "classic"},
            domain=DOMAIN,
        ),
        MappingRule.equivalence(
            "budget-price-band",
            [Predicate.lt("price", 10000)],
            {"price_band": "budget"},
            domain=DOMAIN,
        ),
        MappingRule.equivalence(
            "midrange-price-band",
            [Predicate.between("price", 10000, 40000)],
            {"price_band": "midrange"},
            domain=DOMAIN,
        ),
        MappingRule.equivalence(
            "luxury-price-band",
            [Predicate.gt("price", 40000)],
            {"price_band": "luxury"},
            domain=DOMAIN,
        ),
        MappingRule.computed(
            "per-year-mileage",
            "mileage_per_year",
            "mileage / max(1, present_year - year)",
            domain=DOMAIN,
        ),
    )


def install_vehicles_domain(kb: KnowledgeBase) -> KnowledgeBase:
    """Install the vehicles ontology into an existing knowledge base."""
    taxonomy = kb.add_domain(DOMAIN)
    for chain in _CHAINS:
        taxonomy.add_chain(*chain)
    for terms, root in _ATTRIBUTE_SYNONYMS:
        kb.add_attribute_synonyms(terms, root=root)
    for terms, root in _VALUE_SYNONYMS:
        kb.add_value_synonyms(terms, root=root)
    kb.add_rules(_mapping_rules())
    return kb


def build_vehicles_knowledge_base() -> KnowledgeBase:
    """A fresh knowledge base holding only the vehicles domain."""
    return install_vehicles_domain(KnowledgeBase("vehicles-kb"))

