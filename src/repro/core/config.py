"""Semantic-stage configuration: the paper's tolerance knobs.

"Some users may be satisfied with fewer results for their semantic
subscriptions, if the matching would be faster.  The idea is to allow
the user to inform the system about how much information loss the user
is willing to tolerate" (paper §3.2).  :class:`SemanticConfig` exposes
exactly those degrees of freedom:

* each of the three stages toggles independently (§3.1: "each of the
  approaches can be used independently"),
* ``max_generality`` bounds concept-hierarchy match distance
  system-wide (subscriptions can carry a tighter personal bound),
* fixpoint limits bound the hierarchy↔mapping iteration of Figure 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.ontology.mappingdefs import DEFAULT_PRESENT_YEAR, MappingContext

__all__ = ["SemanticConfig"]


@dataclass(frozen=True)
class SemanticConfig:
    """Immutable semantic-layer settings.

    Parameters
    ----------
    enable_synonyms / enable_hierarchy / enable_mappings:
        Stage toggles; all three off is exactly the demo's *syntactic*
        mode.
    max_generality:
        System-wide cap on hierarchy levels a match may climb
        (``None`` = unbounded).  Also caps the event expansion itself,
        so lower tolerance is genuinely faster, not just filtered.
    max_iterations:
        Rounds of the hierarchy↔mapping fixpoint loop ("mapping
        function and concept hierarchy stages can be executed multiple
        times", §3.2).
    max_derived_events:
        Safety valve on the expansion set per publication (an ``int``,
        never unbounded); exceeding it truncates (recorded on the
        result) rather than raising.
    present_year:
        Evaluation date for mapping functions (paper's
        ``present_date``).
    interning:
        Which stages the semantic expansion runs: ``True`` the ones on
        the knowledge base's concept ids (:class:`~repro.ontology.
        concept_table.ConceptTable`: synonym canonicalization as one id
        lookup, taxonomy walks as precomputed closure arrays); ``False``
        the string reference of :mod:`repro.core.reference`, which
        expands exhaustively and so ignores ``interest_pruning``.  Same
        match sets and generalities either way (the interning
        equivalence property test is a hard invariant), only slower;
        ``False`` exists as the comparison baseline and an escape
        hatch.  :class:`~repro.core.pipeline.SemanticPipeline` is the
        one reader; the matcher never sees the setting.
    interest_pruning:
        Whether the semantic expansion is demand-driven: the engine
        keeps a live :class:`~repro.core.interest.InterestIndex` over
        the stored root subscriptions and the built-in stages skip
        constructing derived events whose substituted value cannot
        reach any live predicate through further
        synonym/hierarchy/mapping steps within the remaining chain
        budget.  Pruned and exhaustive expansion produce identical
        match sets and generalities (a hard property invariant);
        ``False`` forces today's exhaustive behavior everywhere.
        Pruning also disables itself automatically when it cannot be
        proven sound: when a custom extra stage does not declare
        ``interest_safe``, or a mapping rule's read set is unknown.
    """

    enable_synonyms: bool = True
    enable_hierarchy: bool = True
    enable_mappings: bool = True
    max_generality: int | None = None
    max_iterations: int = 4
    max_derived_events: int = 512
    present_year: int = DEFAULT_PRESENT_YEAR
    #: inert since PR 18 (the engine's LRU it sized is deleted; nothing
    #: reads it).  Still declared because ``bench/verify.py`` passes it
    #: and snapshots / journaled ``config`` records are
    #: ``dataclasses.asdict`` of this class; ROADMAP's ``[benchmark]``
    #: item ("gate deterministic work, one bench tree") removes it.
    expansion_cache_size: int = 128
    interning: bool = True
    interest_pruning: bool = True

    def __post_init__(self) -> None:
        bounds = (("max_generality", 0), ("max_iterations", 1), ("max_derived_events", 1))
        for name, least in bounds:
            value = getattr(self, name)
            if value is None and name == "max_generality":
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                kinds = "an int or None" if name == "max_generality" else "an int"
                raise ConfigError(f"{name} must be {kinds}, not {value!r}")
            if value < least:
                raise ConfigError(f"{name} must be >= {least}")
        if not (1900 <= self.present_year <= 2200):
            raise ConfigError("present_year out of plausible range")

    # -- presets ---------------------------------------------------------------

    @classmethod
    def semantic(cls, **overrides) -> "SemanticConfig":
        """The demo's *semantic* mode: all stages on."""
        return cls(**overrides)

    @classmethod
    def syntactic(cls, **overrides) -> "SemanticConfig":
        """The demo's *syntactic* mode: the unmodified matching
        algorithm — no stage runs.  *overrides* adjust the non-stage
        knobs."""
        return cls(
            enable_synonyms=False,
            enable_hierarchy=False,
            enable_mappings=False,
            **overrides,
        )

    @classmethod
    def synonyms_only(cls) -> "SemanticConfig":
        """Stage-1-only deployment (paper: "one may only want synonym
        semantics")."""
        return cls(enable_hierarchy=False, enable_mappings=False)

    @classmethod
    def hierarchy_only(cls) -> "SemanticConfig":
        return cls(enable_synonyms=False, enable_mappings=False)

    @classmethod
    def mappings_only(cls) -> "SemanticConfig":
        return cls(enable_synonyms=False, enable_hierarchy=False)

    # -- helpers ------------------------------------------------------------------

    @property
    def is_syntactic(self) -> bool:
        return not (self.enable_synonyms or self.enable_hierarchy or self.enable_mappings)

    @property
    def mode(self) -> str:
        return "syntactic" if self.is_syntactic else "semantic"

    def mapping_context(self) -> MappingContext:
        return MappingContext(present_year=self.present_year)
