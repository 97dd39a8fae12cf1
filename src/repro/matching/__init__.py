"""Syntactic content-based matching substrate.

These are the "existing matching algorithms" the paper extends
(§3.1): a brute-force reference (``"naive"``) and the counting
algorithm of Aguilera et al. (paper ref [1], ``"counting"``, the
default).  Both implement :class:`~repro.matching.base.MatchingAlgorithm`
and are interchangeable underneath the semantic layer; a third-party
matcher registered with :func:`register_matcher` slots in the same way.
The access-predicate cluster matcher after Fabret et al. (paper ref
[4], "le Subscribe") is history: see ``docs/ARCHITECTURE.md``.
"""

from repro.matching.base import (
    MatchingAlgorithm,
    create_matcher,
    matcher_names,
    register_matcher,
)
from repro.matching.counting import CountingMatcher
from repro.matching.index import PredicateIndex, SatisfactionCache
from repro.matching.naive import NaiveMatcher
from repro.matching.stats import MatchStats

__all__ = [
    "MatchingAlgorithm",
    "create_matcher",
    "matcher_names",
    "register_matcher",
    "NaiveMatcher",
    "CountingMatcher",
    "PredicateIndex",
    "SatisfactionCache",
    "MatchStats",
]
