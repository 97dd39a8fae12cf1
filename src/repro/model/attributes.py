"""Attribute names and their normalization.

S-ToPSS components are decoupled and "do not necessarily speak the same
language" (paper §1): publishers write ``work experience`` where
subscribers write ``professional_experience``.  Before the *semantic*
synonym stage can unify meanings, this module unifies *spelling*:
case, surrounding whitespace, and internal whitespace-vs-underscore
variations all normalize to one canonical form, so that ``Work
Experience`` and ``work_experience`` are the same attribute.

Attributes may carry an optional domain qualifier separated by a colon
(``jobs:degree``).  Qualifiers keep multiple domain ontologies apart in
one running system (paper §3.2 multi-domain support).
"""

from __future__ import annotations

import re

from repro.errors import InvalidAttributeError

__all__ = [
    "normalize_attribute",
    "qualify",
    "split_qualified",
    "strip_qualifier",
    "ATTRIBUTE_PATTERN",
]

#: Canonical attribute names: lowercase word characters separated by
#: single underscores, optionally prefixed by ``domain:``.
ATTRIBUTE_PATTERN = re.compile(r"^(?:[a-z0-9][a-z0-9_]*:)?[a-z0-9][a-z0-9_]*$")

_WHITESPACE_RUN = re.compile(r"[\s\-]+")
_UNDERSCORE_RUN = re.compile(r"_{2,}")
_INVALID_CHARS = re.compile(r"[^a-z0-9_:]")


def normalize_attribute(name: str) -> str:
    """Normalize an attribute name to canonical form.

    Lowercases, trims, converts whitespace and hyphen runs to single
    underscores, collapses repeated underscores, and validates the
    result.  Raises :class:`~repro.errors.InvalidAttributeError` for
    names that are empty or contain characters outside
    ``[a-z0-9_:]`` after normalization.

    >>> normalize_attribute("Work Experience")
    'work_experience'
    >>> normalize_attribute("jobs:Graduation-Year")
    'jobs:graduation_year'
    """
    if not isinstance(name, str):
        raise InvalidAttributeError(f"attribute name must be str, got {type(name).__name__}")
    lowered = name.strip().lower()
    collapsed = _WHITESPACE_RUN.sub("_", lowered)
    collapsed = _UNDERSCORE_RUN.sub("_", collapsed).strip("_")
    if not collapsed:
        raise InvalidAttributeError(f"empty attribute name: {name!r}")
    if _INVALID_CHARS.search(collapsed):
        raise InvalidAttributeError(
            f"attribute {name!r} contains invalid characters "
            f"(normalized form {collapsed!r})"
        )
    if collapsed.count(":") > 1:
        raise InvalidAttributeError(f"attribute {name!r} has more than one domain qualifier")
    if not ATTRIBUTE_PATTERN.match(collapsed):
        raise InvalidAttributeError(
            f"attribute {name!r} does not normalize to a valid name "
            f"(got {collapsed!r})"
        )
    return collapsed


def qualify(domain: str, name: str) -> str:
    """Attach a domain qualifier: ``qualify("jobs", "degree") ->
    "jobs:degree"``.  An existing qualifier is replaced."""
    bare = strip_qualifier(normalize_attribute(name))
    domain_norm = normalize_attribute(domain)
    if ":" in domain_norm:
        raise InvalidAttributeError(f"domain {domain!r} may not contain ':'")
    return f"{domain_norm}:{bare}"


def split_qualified(name: str) -> tuple[str | None, str]:
    """Split ``"jobs:degree"`` into ``("jobs", "degree")``; unqualified
    names yield ``(None, name)``."""
    normalized = normalize_attribute(name)
    if ":" in normalized:
        domain, _, bare = normalized.partition(":")
        return domain, bare
    return None, normalized


def strip_qualifier(name: str) -> str:
    """Drop a domain qualifier if present."""
    return split_qualified(name)[1]
