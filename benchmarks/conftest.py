"""Shared fixtures for the experiment/benchmark harness.

Every benchmark prints the table it reproduces (run with ``-s`` to see
them).  Workload sizes are chosen so the full suite completes in a few
minutes on a laptop while still separating the algorithmic regimes.
"""

from __future__ import annotations

import pytest

from repro.core.config import SemanticConfig
from repro.core.engine import SToPSS
from repro.model.subscriptions import Subscription
from repro.ontology.domains import build_jobs_knowledge_base
from repro.workload.generator import (
    SemanticSpec,
    SemanticWorkloadGenerator,
    SyntheticSpec,
    SyntheticWorkloadGenerator,
)


@pytest.fixture(scope="session")
def jobs_kb():
    return build_jobs_knowledge_base()


@pytest.fixture(scope="session")
def semantic_workload(jobs_kb):
    """One fixed semantic workload shared by the stage/tolerance benches."""
    generator = SemanticWorkloadGenerator(jobs_kb, SemanticSpec.jobs(seed=1701))
    return generator.subscriptions(400), generator.events(100)


@pytest.fixture(scope="session")
def synthetic_workload():
    """Scaling workload for the matcher ablation (A1)."""
    generator = SyntheticWorkloadGenerator(SyntheticSpec(seed=1702))
    return generator.subscriptions(20_000), generator.events(200)


def build_engine(kb, subscriptions, config=None, matcher="counting") -> SToPSS:
    engine = SToPSS(kb, matcher=matcher, config=config or SemanticConfig())
    for subscription in subscriptions:
        # fresh Subscription with the same content: engines cannot share
        # subscription objects' ids across repeated builds
        engine.subscribe(
            Subscription(
                subscription.predicates,
                sub_id=subscription.sub_id,
                max_generality=subscription.max_generality,
            )
        )
    return engine
