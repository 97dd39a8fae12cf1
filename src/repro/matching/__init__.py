"""Syntactic content-based matching substrate.

These are the "existing matching algorithms" the paper extends
(§3.1): a brute-force oracle, the counting algorithm of Aguilera et
al. (paper ref [1]), and an access-predicate cluster matcher after
Fabret et al. (paper ref [4]).  All three implement
:class:`~repro.matching.base.MatchingAlgorithm` and are interchangeable
underneath the semantic layer.  When numpy is installed, a vectorized
cluster matcher registers as ``"cluster-numpy"`` (see
:mod:`repro.matching.vectorized`) — same match sets and generalities,
columnar kernel.
"""

from repro.matching.base import (
    MatchingAlgorithm,
    create_matcher,
    matcher_names,
    register_matcher,
)
from repro.matching.cluster import ClusterMatcher
from repro.matching.counting import CountingMatcher
from repro.matching.index import PredicateIndex, SatisfactionCache
from repro.matching.naive import NaiveMatcher
from repro.matching.stats import MatchStats
from repro.matching.vectorized import HAVE_NUMPY, VectorizedClusterMatcher

__all__ = [
    "MatchingAlgorithm",
    "create_matcher",
    "matcher_names",
    "register_matcher",
    "NaiveMatcher",
    "CountingMatcher",
    "ClusterMatcher",
    "VectorizedClusterMatcher",
    "HAVE_NUMPY",
    "PredicateIndex",
    "SatisfactionCache",
    "MatchStats",
]
