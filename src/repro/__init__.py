"""S-ToPSS: Semantic Toronto Publish/Subscribe System — reproduction.

A full implementation of Petrovic, Burcea & Jacobsen, "S-ToPSS:
Semantic Toronto Publish/Subscribe System" (VLDB 2003): a content-based
publish/subscribe engine extended with a three-stage semantic matching
layer (synonyms, concept hierarchies, mapping functions), plus the
demonstration harness the paper describes (job-finder web application,
workload generator, multi-transport notification engine).

Quickstart::

    from repro import SToPSS, parse_event, parse_subscription
    from repro.ontology.domains import build_jobs_knowledge_base

    engine = SToPSS(build_jobs_knowledge_base())
    engine.subscribe(parse_subscription(
        "(university = Toronto) and (degree = PhD) "
        "and (professional experience >= 4)"))
    matches = engine.publish(parse_event(
        "(school, Toronto)(degree, PhD)(work_experience, true)"
        "(graduation_year, 1990)"))
    for match in matches:
        print(match.explain())
"""

from repro.core import (
    DerivationStep,
    DerivedEvent,
    PipelineResult,
    SemanticConfig,
    SemanticMatch,
    SemanticPipeline,
    SToPSS,
)
from repro.matching import create_matcher, matcher_names
from repro.model import (
    Event,
    Operator,
    Period,
    Predicate,
    Range,
    Subscription,
    parse_event,
    parse_predicate,
    parse_subscription,
)
from repro.ontology import (
    KnowledgeBase,
    MappingContext,
    MappingRule,
    Taxonomy,
    Thesaurus,
)

__version__ = "1.0.0"

__all__ = [
    "SToPSS",
    "SemanticConfig",
    "SemanticPipeline",
    "PipelineResult",
    "SemanticMatch",
    "DerivedEvent",
    "DerivationStep",
    "Event",
    "Subscription",
    "Predicate",
    "Operator",
    "Range",
    "Period",
    "parse_event",
    "parse_subscription",
    "parse_predicate",
    "KnowledgeBase",
    "Taxonomy",
    "Thesaurus",
    "MappingRule",
    "MappingContext",
    "create_matcher",
    "matcher_names",
    "__version__",
]
