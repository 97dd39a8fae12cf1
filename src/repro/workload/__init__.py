"""Workload substrate: seeded samplers, synthetic and
knowledge-base-driven pub/sub generators, the job-finder demonstration
scenario (paper §4's workload generator) and the generated worlds with
their flash-crowd churn driver."""

from repro.workload.distributions import (
    UniformSampler,
    WeightedSampler,
    ZipfSampler,
    zipf_weights,
)
from repro.workload.generator import (
    SemanticSpec,
    SemanticWorkloadGenerator,
    SyntheticSpec,
    SyntheticWorkloadGenerator,
)
from repro.workload.jobfinder import (
    Candidate,
    Company,
    JobFinderScenario,
    JobFinderSpec,
    ScenarioReport,
)
from repro.workload.worlds import (
    FlashCrowdDriver,
    FlashCrowdReport,
    FlashCrowdSpec,
    MegaOntologySpec,
    World,
    build_world,
    engine_footprint,
    register_world,
    world_names,
    world_spec,
)

__all__ = [
    "zipf_weights",
    "ZipfSampler",
    "UniformSampler",
    "WeightedSampler",
    "SyntheticSpec",
    "SyntheticWorkloadGenerator",
    "SemanticSpec",
    "SemanticWorkloadGenerator",
    "JobFinderSpec",
    "JobFinderScenario",
    "Company",
    "Candidate",
    "ScenarioReport",
    "MegaOntologySpec",
    "World",
    "build_world",
    "world_names",
    "world_spec",
    "register_world",
    "FlashCrowdSpec",
    "FlashCrowdDriver",
    "FlashCrowdReport",
    "engine_footprint",
]
