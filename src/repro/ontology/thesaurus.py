"""Synonym store: WordNet-style synsets with root election.

The paper's first semantic stage "involves translating all event and
subscription attributes with different names but with the same meaning,
to a 'root' attribute" (§3.1).  A :class:`Thesaurus` holds disjoint
synonym groups (synsets) and elects one member of each group as the
root; lookup is a hash probe, which is the constant-time structure the
paper's performance claim (C1 in DESIGN.md) rests on.

The same structure serves attribute synonyms (stage 1 proper) and value
synonyms (an extension: distance-0 equivalences fed to the hierarchy
stage), differing only in the normalization applied by the caller.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import DuplicateConceptError, InvalidValueError
from repro.ontology.concepts import normalize_term, term_key

__all__ = ["Thesaurus"]


class _Group:
    """One synset: member keys, display spellings, and the elected root."""

    __slots__ = ("members", "display", "root_key", "root_explicit")

    def __init__(self) -> None:
        self.members: set[str] = set()
        self.display: dict[str, str] = {}
        self.root_key: str | None = None
        self.root_explicit = False


class Thesaurus:
    """Disjoint synonym groups with canonical-root election.

    Roots are chosen as follows: an explicitly designated root always
    wins; otherwise the first term of the earliest ``add_synonyms`` call
    serves.  Merging two groups that both carry *explicit* roots is an
    error (the knowledge engineer must resolve the conflict) — merging
    an explicit-root group with an implicit one keeps the explicit root.
    """

    def __init__(self) -> None:
        self._group_of: dict[str, _Group] = {}
        self.version = 0
        #: root spellings of the groups touched since
        #: :meth:`take_appended` last ran; ``None`` until someone
        #: follows this thesaurus, so building one logs nothing
        self._appended: list[str] | None = None

    # -- construction ---------------------------------------------------------

    def add_synonyms(self, terms: Iterable[str], *, root: str | None = None) -> str:
        """Declare *terms* (and optionally *root*) mutually synonymous.

        Returns the canonical root spelling of the resulting group.
        Groups touched by any of the terms are merged (synonymy is
        treated as transitive).
        """
        spellings = [normalize_term(t) for t in terms]
        if root is not None:
            root_spelling = normalize_term(root)
            spellings.insert(0, root_spelling)
        if not spellings:
            raise DuplicateConceptError("add_synonyms requires at least one term")

        groups: list[_Group] = []
        for spelling in spellings:
            group = self._group_of.get(term_key(spelling))
            if group is not None and group not in groups:
                groups.append(group)

        # both conflict rules are checked before the first mutation, so
        # a rejected call changes nothing (and logs nothing): the
        # version would not move, and every cache keyed on it would
        # keep serving the group as it was
        explicit = [group for group in groups if group.root_explicit]
        for other in explicit[1:]:
            if other.root_key != explicit[0].root_key:
                raise DuplicateConceptError(
                    "cannot merge synonym groups with conflicting explicit roots "
                    f"{explicit[0].display[explicit[0].root_key]!r} and "
                    f"{other.display[other.root_key]!r}"
                )
        if root is not None and explicit and explicit[0].root_key != term_key(root):
            raise DuplicateConceptError(
                f"synonym group already has explicit root "
                f"{explicit[0].display[explicit[0].root_key]!r}; cannot re-root to {root!r}"
            )

        if groups:
            merged = groups[0]
            for other in groups[1:]:
                self._merge(merged, other)
        else:
            merged = _Group()

        for spelling in spellings:
            key = term_key(spelling)
            if key not in merged.members:
                merged.members.add(key)
                merged.display[key] = spelling
            self._group_of[key] = merged

        if root is not None:
            merged.root_key = term_key(root)
            merged.root_explicit = True
        elif merged.root_key is None:
            merged.root_key = term_key(spellings[0])

        self.version += 1
        canonical = merged.display[merged.root_key]
        if self._appended is not None:
            self._appended.append(canonical)
        return canonical

    def _merge(self, into: _Group, other: _Group) -> None:
        if other.root_explicit:
            into.root_key = other.root_key
            into.root_explicit = True
        into.members.update(other.members)
        into.display.update(other.display)
        for key in other.members:
            self._group_of[key] = into

    def take_appended(self) -> list[str]:
        """The root spelling of every group a call touched since the
        previous call (a group's members, displays and root all live
        under it — :meth:`synonyms_of` / :meth:`root_of` read the rest),
        in order, repeats included.  The first call starts the
        recording and hands back nothing — the concept table that
        follows this thesaurus has just read all of it."""
        appended, self._appended = self._appended or [], []
        return appended

    # -- lookup ------------------------------------------------------------------

    def __contains__(self, term: str) -> bool:
        try:
            return term_key(term) in self._group_of
        except InvalidValueError:
            return False

    def __len__(self) -> int:
        """Number of terms known (not groups)."""
        return len(self._group_of)

    def root_of(self, term: str) -> str | None:
        """Canonical root spelling for *term*, or ``None`` if unknown.

        A term maps to itself when it is the root of its group, making
        the rewrite idempotent: ``root_of(root_of(t)) == root_of(t)``.
        """
        group = self._group_of.get(term_key(term))
        if group is None or group.root_key is None:
            return None
        return group.display[group.root_key]

    def synonyms_of(self, term: str) -> frozenset[str]:
        """All spellings in *term*'s group, itself included; empty set
        for unknown terms."""
        group = self._group_of.get(term_key(term))
        if group is None:
            return frozenset()
        return frozenset(group.display.values())

    def are_synonyms(self, a: str, b: str) -> bool:
        ga = self._group_of.get(term_key(a))
        gb = self._group_of.get(term_key(b))
        return ga is not None and ga is gb

    def groups(self) -> Iterator[frozenset[str]]:
        """Iterate distinct synsets (as display-spelling sets)."""
        seen: set[int] = set()
        for group in self._group_of.values():
            if id(group) not in seen:
                seen.add(id(group))
                yield frozenset(group.display.values())

    def group_count(self) -> int:
        return sum(1 for _ in self.groups())

    def stats(self) -> dict[str, int]:
        sizes = [len(g) for g in self.groups()]
        return {
            "terms": len(self._group_of),
            "groups": len(sizes),
            "largest_group": max(sizes, default=0),
        }
