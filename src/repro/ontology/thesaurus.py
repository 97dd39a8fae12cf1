"""Synonym store: WordNet-style synsets with root election.

The paper's first semantic stage "involves translating all event and
subscription attributes with different names but with the same meaning,
to a 'root' attribute" (§3.1).  A :class:`Thesaurus` holds disjoint
synonym groups (synsets) and elects one member of each group as the
root; lookup is a hash probe and a column read, which is the
constant-time structure the paper's performance claim (C1 in DESIGN.md)
rests on.

The same structure serves attribute synonyms (stage 1 proper) and value
synonyms (an extension: distance-0 equivalences fed to the hierarchy
stage), differing only in the normalization applied by the caller.
Members are term ids of the knowledge base's
:class:`~repro.ontology.concept_table.TermStore`, and a group is named
by its root's id.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, KeysView

from repro.errors import DuplicateConceptError, InvalidValueError
from repro.ontology.concept_table import TermStore
from repro.ontology.concepts import normalize_term, term_key

__all__ = ["Thesaurus"]


class Thesaurus:
    """Disjoint synonym groups with canonical-root election.

    Roots are chosen as follows: an explicitly designated root always
    wins; otherwise the first term of the earliest ``add_synonyms`` call
    serves.  Merging two groups that both carry *explicit* roots is an
    error (the knowledge engineer must resolve the conflict) — merging
    an explicit-root group with an implicit one keeps the explicit root.
    """

    def __init__(self, terms: TermStore | None = None) -> None:
        #: the id space members are interned into: the knowledge
        #: base's, or one of its own for a standalone thesaurus
        self._terms = TermStore() if terms is None else terms
        #: term id -> root id of its group (-1 = in none; ids past the
        #: end are in none either)
        self._root = array("i")
        #: root id -> the group's member ids, in the order they joined
        self._members: dict[int, array] = {}
        #: the roots that were designated rather than elected
        self._explicit: set[int] = set()
        #: member id -> its spelling here, where it is not the store's
        #: (the first spelling this thesaurus was given wins)
        self._display: dict[int, str] = {}
        self.version = 0

    # -- construction ---------------------------------------------------------

    def add_synonyms(self, terms: Iterable[str], *, root: str | None = None) -> str:
        """Declare *terms* (and optionally *root*) mutually synonymous.

        Returns the canonical root spelling of the resulting group.
        Groups touched by any of the terms are merged (synonymy is
        treated as transitive).
        """
        spellings = [normalize_term(t) for t in terms]
        if root is not None:
            spellings.insert(0, normalize_term(root))
        if not spellings:
            raise DuplicateConceptError("add_synonyms requires at least one term")
        keys = [term_key(spelling) for spelling in spellings]
        terms = self._terms
        find = terms.find
        touched = list(
            dict.fromkeys(r for r in (self._root_of(find(key)) for key in keys) if r >= 0)
        )

        # both conflict rules are checked before the first mutation —
        # interning included — so a rejected call changes nothing (and
        # logs nothing): the version would not move, and every cache
        # keyed on it would keep serving the group as it was
        explicit = [r for r in touched if r in self._explicit]
        if len(explicit) > 1:
            raise DuplicateConceptError(
                "cannot merge synonym groups with conflicting explicit roots "
                f"{self._name(explicit[0])!r} and {self._name(explicit[1])!r}"
            )
        if root is not None and explicit and explicit[0] != find(keys[0]):
            raise DuplicateConceptError(
                f"synonym group already has explicit root "
                f"{self._name(explicit[0])!r}; cannot re-root to {root!r}"
            )

        tids = [terms.intern(spelling, key) for spelling, key in zip(spellings, keys)]
        # the designated root, else the explicit group's, else the first
        # touched group's, else the first term
        new_root = tids[0] if root is not None or not touched else (explicit or touched)[0]
        members = array("i")
        for old_root in touched:
            members.extend(self._members.pop(old_root))
            self._explicit.discard(old_root)
        column = self._root
        width = max(tids) + 1
        if width > len(column):
            column.extend(array("i", (-1,)) * (width - len(column)))
        for tid, spelling in zip(tids, spellings):
            if column[tid] < 0:
                column[tid] = new_root
                members.append(tid)
                if spelling != terms.display(tid):
                    self._display[tid] = spelling
        for tid in members:
            column[tid] = new_root
        self._members[new_root] = members
        if root is not None or explicit:
            self._explicit.add(new_root)
        self.version += 1
        return self._name(new_root)

    # -- id reads (the concept table's) -----------------------------------------

    def _root_of(self, tid: int | None) -> int:
        """The root id of the term's group, -1 when it is in none."""
        column = self._root
        return column[tid] if tid is not None and tid < len(column) else -1

    def _has(self, tid: int) -> bool:
        return self._root_of(tid) >= 0

    def _group(self, tid: int) -> array | tuple:
        """The member ids of the term's group, ``()`` when in none."""
        root = self._root_of(tid)
        return self._members[root] if root >= 0 else ()

    def _groups_of(self, tids: Iterable[int]) -> dict[int, array]:
        """:meth:`_group` of each of *tids* that is in one."""
        column, members = self._root, self._members
        width = len(column)
        return {tid: members[column[tid]] for tid in tids if tid < width and column[tid] >= 0}

    def _respelled(self) -> KeysView[int]:
        """The member ids this thesaurus spells other than the store
        displays them (a set-like view)."""
        return self._display.keys()

    def _name(self, tid: int) -> str:
        """The spelling a member has in this thesaurus."""
        return self._display.get(tid) or self._terms.display(tid)

    def _of(self, term: str) -> int:
        return self._root_of(self._terms.find(term_key(term)))

    # -- lookup ------------------------------------------------------------------

    def __contains__(self, term: str) -> bool:
        try:
            return self._of(term) >= 0
        except InvalidValueError:
            return False

    def __len__(self) -> int:
        """Number of terms known (not groups)."""
        return sum(map(len, self._members.values()))

    def root_of(self, term: str) -> str | None:
        """Canonical root spelling for *term*, or ``None`` if unknown.

        A term maps to itself when it is the root of its group, making
        the rewrite idempotent: ``root_of(root_of(t)) == root_of(t)``.
        """
        root = self._of(term)
        return self._name(root) if root >= 0 else None

    def synonyms_of(self, term: str) -> frozenset[str]:
        """All spellings in *term*'s group, itself included; empty set
        for unknown terms."""
        root = self._of(term)
        if root < 0:
            return frozenset()
        return frozenset(map(self._name, self._members[root]))

    def are_synonyms(self, a: str, b: str) -> bool:
        root, other = self._of(a), self._of(b)
        return root >= 0 and root == other

    def groups(self) -> Iterator[frozenset[str]]:
        """Iterate distinct synsets (as display-spelling sets)."""
        for members in self._members.values():
            yield frozenset(map(self._name, members))

    def group_count(self) -> int:
        return len(self._members)

    def stats(self) -> dict[str, int]:
        sizes = [len(members) for members in self._members.values()]
        return {
            "terms": sum(sizes),
            "groups": len(sizes),
            "largest_group": max(sizes, default=0),
        }
