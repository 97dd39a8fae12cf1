"""Concept and term primitives for the knowledge substrate.

A *concept* is a node of a domain's concept hierarchy — "all the terms
within a specific domain, which includes both attributes and values"
(paper §3.1).  Concepts are identified by a normalized *term key* so that
spelling variants ("PhD", "phd", "  PHD ") resolve to one node, while the
first-registered spelling is kept as the canonical display form emitted
into derived events.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import InvalidValueError

__all__ = ["Concept", "term_key", "normalize_term", "term_and_key"]


def normalize_term(term: str) -> str:
    """Collapse whitespace and trim; preserves case (display form)."""
    if not isinstance(term, str):
        raise InvalidValueError(f"concept terms must be str, got {type(term).__name__}")
    collapsed = " ".join(term.split())
    if not collapsed:
        raise InvalidValueError("empty concept term")
    return collapsed


def term_key(term: str) -> str:
    """Case-insensitive lookup key for a term.

    Underscores and whitespace are interchangeable, so the attribute
    ``graduation_year`` and the phrase "Graduation Year" share a key —
    concept hierarchies cover attributes and values alike.
    """
    return normalize_term(term).replace("_", " ").casefold()


def term_and_key(term: str) -> tuple[str, str]:
    """``(normalize_term(term), term_key(term))`` from one normalization.

    When the two are equal (any lower-case term without underscores)
    the key *is* the display string, so a concept holds one string, not
    two equal ones."""
    display = normalize_term(term)
    key = display.replace("_", " ").casefold()
    return display, display if key == display else key


@dataclass(frozen=True, slots=True)
class Concept:
    """A node in a domain taxonomy.

    Attributes
    ----------
    term: canonical display spelling (first registration wins).
    key: normalized lookup key (see :func:`term_key`).
    domain: owning domain name (``"jobs"``, ``"vehicles"`` …).
    description: optional human-readable gloss.
    """

    term: str
    key: str = field(compare=True)
    domain: str = ""
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "term", normalize_term(self.term))
        object.__setattr__(self, "key", term_key(self.term) if not self.key else self.key)

    @classmethod
    def of(cls, term: str, domain: str = "", description: str = "") -> "Concept":
        normalized = normalize_term(term)
        return cls(normalized, term_key(normalized), domain, description)

    @classmethod
    def _finished(cls, term: str, key: str, domain: str, description: str) -> "Concept":
        """A concept from an already normalized ``(term, key)`` pair
        (:func:`term_and_key`): no validation, nothing normalized again
        — for the taxonomy, which has just done both."""
        concept = object.__new__(cls)
        put = object.__setattr__  # the dataclass is frozen
        put(concept, "term", term)
        put(concept, "key", key)
        put(concept, "domain", domain)
        put(concept, "description", description)
        return concept

    def __str__(self) -> str:
        return self.term
