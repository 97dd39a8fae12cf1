"""The paper's contribution: the semantic matching layer.

Three composable stages (synonyms, concept hierarchy, mapping
functions), the Figure 1 fixpoint pipeline, and the
:class:`~repro.core.engine.SToPSS` engine that wraps an unchanged
syntactic matcher with them.  It is the one engine: events generalize
at publish time, and subscriptions are only rewritten to their synonym
roots.
"""

from repro.core.config import SemanticConfig
from repro.core.engine import SToPSS
from repro.core.hierarchy import HierarchyStage
from repro.core.interfaces import SemanticStage, StageStats
from repro.core.mappings import MappingStage
from repro.core.pipeline import PipelineResult, SemanticPipeline
from repro.core.provenance import DerivationStep, DerivedEvent, SemanticMatch
from repro.core.stemming import StemmingStage
from repro.core.synonyms import SynonymStage

__all__ = [
    "StemmingStage",
    "SemanticConfig",
    "SToPSS",
    "SemanticStage",
    "StageStats",
    "SynonymStage",
    "HierarchyStage",
    "MappingStage",
    "SemanticPipeline",
    "PipelineResult",
    "DerivationStep",
    "DerivedEvent",
    "SemanticMatch",
]
