"""One publication's derivation table: what the semantic expansion
derived, as ids and small tuples until someone reads it.

A derived event is a **row**: its parent row, the compact step from it
(:mod:`repro.core.provenance`), the chain's generality and depth, and
its content — a shared *layout* of attribute names, the values in
sorted-name order and their keys (a string is its own key: an
all-string row keeps one tuple).  The content key ``(sorted names,
keys)`` is reached by equal content on any path.  A row is written once:
a content keeps one row per chain length at which it got cheaper, so
which rows exist does not depend on the order candidates arrive in (see
:meth:`PipelineResult.offer`).  No event, signature set, description or
derived event is built per candidate; a kept match holds its row's
:class:`~repro.core.provenance.Witness`.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core.provenance import (
    CUSTOM,
    MAPPING,
    DerivedEvent,
    Witness,
    custom_steps,
    derivation_steps,
    derived_event,
    step_count,
)
from repro.model.events import Event, EventSignature
from repro.model.values import Value, canonical_value_key

__all__ = ["PipelineResult", "Alternative"]


class Alternative(NamedTuple):
    """One value a free attribute can take, as the hierarchy fixpoint
    derives it from that pair alone: the value, its chain's charge, the
    substitutions it took (each draws on ``max_iterations``) and its
    compact steps.  The first alternative is the root value at
    ``(0, 0, ())``."""

    value: Value
    charge: int
    depth: int
    steps: tuple


class _Layout:
    """Attribute names in display order and sorted (``canon``); ``order``
    maps a sorted position to its display one, ``perm`` the other way."""

    __slots__ = ("names", "canon", "perm", "order")

    def __init__(self, names: tuple) -> None:
        self.names = names
        self.order = tuple(sorted(range(len(names)), key=names.__getitem__))
        self.canon = tuple(map(names.__getitem__, self.order))
        self.perm = tuple(sorted(range(len(names)), key=self.order.__getitem__))


class PipelineResult:
    """Everything the semantic stage produced for one publication.

    The rows are a derivation tree flattened in discovery order: row 0
    is the root, every later row has a parent row (none when a custom
    stage's candidate broke the chain) and its chain is the parent's
    plus its own step.  A content can be several rows, each cheaper and
    deeper than the one before.  Matchers read the content; ``derived``
    builds the tree as objects on first read.

    A **factored** result (``free`` non-empty; only handed to matchers
    that declare ``accepts_factored``) stands for more events than it
    lists: the rows are the *core* events, every one carrying the free
    attributes at their root values, and ``free`` maps each free
    attribute to its :class:`Alternative` values.  The result denotes
    every core event with every combination of alternatives whose
    substitutions — the core event's discovery iteration (its chain
    depth beyond the root's: a row is never re-chained, so the two
    coincide) plus the alternatives' depths — stay within ``step_cap``
    and whose summed charge stays within ``budget``.  ``truncated`` then
    refers to the core events.
    """

    def __init__(
        self,
        original: Event,
        root: Event,
        root_steps: tuple = (),
        *,
        step_cap: int | None = None,
        budget: int | None = None,
        limit: int | None = None,
    ) -> None:
        self.original = original
        self.iterations = 0
        self.truncated = False
        #: free attribute -> its alternatives, root value first, in event
        #: attribute order (empty: the rows are the whole expansion)
        self.free: dict[str, tuple[Alternative, ...]] = {}
        #: ``max_iterations`` / ``max_generality`` the expansion ran under
        #: (``None``: no cap / no budget)
        self.step_cap = step_cap
        self.budget = budget
        #: candidates offered within the budget (the fixpoint's progress)
        self.offered = 0
        self._limit = limit
        #: the root and the compact steps that made it from *original*
        self._root, self._root_steps = root, root_steps
        self._layouts: dict[tuple, _Layout] = {}
        #: per row: parent row (-1: none), compact step, chain generality
        #: and depth, layout, values and keys in sorted-name order
        self._parent: list[int] = []
        self._step: list = []
        self.charges: list[int] = []
        self.depths: list[int] = []
        self._layout: list[_Layout] = []
        self._values: list[tuple] = []
        self._keys: list[tuple] = []
        #: content key -> its rows
        self._index: dict[tuple, list[int]] = {}
        #: rows added since the fixpoint last took them (its next
        #: frontier): nothing is derived from them yet
        self.fresh: list[int] = []
        self._derived: list | None = None
        generality = sum(step[2] for step in root_steps)
        depth = sum(map(step_count, root_steps))
        self._append(-1, *self._content(root), None, generality, depth)

    # -- building -----------------------------------------------------------------

    def layout(self, names: tuple) -> _Layout:
        layout = self._layouts.get(names)
        if layout is None:
            layout = self._layouts[names] = _Layout(names)
        return layout

    def _content(self, event: Event) -> tuple[_Layout, tuple, tuple]:
        """*event*'s layout, values and keys."""
        pairs = event._pairs
        layout = self.layout(tuple(pairs))
        values = tuple(map(pairs.__getitem__, layout.canon))
        if all(type(value) is str for value in values):
            return layout, values, values
        keys = tuple(map(canonical_value_key, values))
        return layout, values, keys

    def _append(self, parent, layout, values, keys, step, generality, depth) -> int:
        index = len(self._parent)
        self._index.setdefault((layout.canon, keys), []).append(index)
        self._parent.append(parent)
        self._step.append(step)
        self.charges.append(generality)
        self.depths.append(depth)
        self._layout.append(layout)
        self._values.append(values)
        self._keys.append(keys)
        if self._derived is not None:
            self._derived.append(None)
        return index

    def offer(self, parent, layout, values, keys, step, generality, depth) -> bool:
        """Integrate one candidate of content K at ``(generality,
        depth)``: dropped when a row of K is no dearer and no deeper;
        written over a fresh row of K that is no cheaper and no
        shallower (nothing is derived from it yet); otherwise a new row
        (at ``max_derived_events``, sets ``truncated``).  Returns whether
        the table took it; a candidate over the budget is not even
        counted as offered."""
        if self.budget is not None and generality > self.budget:
            return False
        self.offered += 1
        rows = self._index.get((layout.canon, keys))
        if rows is not None:
            charges, depths = self.charges, self.depths
            first_fresh = len(self._parent) - len(self.fresh)
            over = None
            for index in rows:
                if charges[index] <= generality and depths[index] <= depth:
                    return False
                if index >= first_fresh and charges[index] >= generality and depths[index] >= depth:
                    over = index
            if over is not None:
                self._parent[over], self._step[over] = parent, step
                charges[over], depths[over] = generality, depth
                self._layout[over], self._values[over], self._keys[over] = layout, values, keys
                return True
        if self._limit is not None and len(self._parent) >= self._limit:
            self.truncated = True
            return False
        self.fresh.append(self._append(parent, layout, values, keys, step, generality, depth))
        return True

    def offer_derived(self, row: int, candidate: DerivedEvent) -> bool:
        """:meth:`offer` for a custom stage's candidate, derived from
        the materialized *row*: its steps beyond the row's chain become
        one compact step (the whole chain, parentless, when it does not
        extend the row's)."""
        base = self.derived_at(row).steps
        steps = candidate.steps
        if candidate.parent is not None and steps[: len(base)] == base:
            steps = steps[len(base) :]
        else:
            row = -1
        (step,) = custom_steps(steps, candidate.event.items())
        content = self._content(candidate.event)
        return self.offer(row, *content, step, candidate.generality, candidate.depth)

    # -- reading ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._parent)

    def pairs(self, row: int):
        """The ``(attribute, value)`` pairs of *row*, sorted by name."""
        return zip(self._layout[row].canon, self._values[row])

    def keyed(self, row: int):
        """The ``(attribute, value key)`` pairs of *row*, sorted by name."""
        return zip(self._layout[row].canon, self._keys[row])

    def value(self, row: int, attribute: str) -> Value:
        return self._values[row][self._layout[row].canon.index(attribute)]

    def event(self, row: int) -> Event:
        """*row*'s content as an event (the publication's id and
        publisher); row 0 is the root event itself."""
        if row == 0:
            return self._root
        layout, values = self._layout[row], self._values[row]
        shown = zip(layout.names, map(values.__getitem__, layout.perm))
        return derived_event(dict(shown), self._root)

    def chain(self, row: int) -> tuple[tuple, bool]:
        """The compact steps from the root to *row* (the root's own
        excluded) and whether the chain starts at the root."""
        chain = []
        while row > 0:
            chain.append(self._step[row])
            row = self._parent[row]
        chain.reverse()
        return tuple(chain), row == 0

    def witness(self, row: int) -> Witness:
        """What a match through *row* keeps: the root's compact steps and
        the row's chain (see :class:`~repro.core.provenance.Witness`)."""
        chain, rooted = self.chain(row)
        return Witness((*self._root_steps, *chain) if rooted else chain)

    def used_rule(self, row: int, name: str) -> bool:
        """Whether rule *name* fired along *row*'s chain."""
        chain, rooted = self.chain(row)
        return _fires(self._root_steps + chain if rooted else chain, name)

    def compose(self, row: int, choice: tuple[int, ...]) -> tuple[int, Witness]:
        """``(generality, witness)`` of what a factored result stands
        for: core *row* with the free attributes set to the chosen
        alternatives (*choice* holds one index per free attribute, in
        ``free`` order; 0 keeps the root value), its chain extended by
        theirs, one node per step."""
        picked = [alts[index] for alts, index in zip(self.free.values(), choice) if index]
        witness = self.witness(row)
        if not picked:
            return self.charges[row], witness
        charge = sum(alternative.charge for alternative in picked)
        steps = (step for alternative in picked for step in alternative.steps)
        return self.charges[row] + charge, Witness((*witness, *steps))

    # -- materialized view ------------------------------------------------------------

    def derived_at(self, row: int) -> DerivedEvent:
        """*row* as a :class:`DerivedEvent` whose ``parent`` is its
        parent row's (built once per row)."""
        if self._derived is None:
            self._derived = [None] * len(self._parent)
        made = self._derived[row]
        if made is None:
            parent = self._parent[row]
            if row == 0:
                steps = tuple(s for step in self._root_steps for s in derivation_steps(step))
                made = DerivedEvent(self._root, steps)
            else:
                above = None if parent < 0 else self.derived_at(parent)
                steps = derivation_steps(self._step[row], above and above.event._pairs)
                steps = (() if above is None else above.steps) + steps
                made = DerivedEvent(self.event(row), steps, parent=above)
            self._derived[row] = made
        return made

    @property
    def derived(self) -> list[DerivedEvent]:
        """Every row as a :class:`DerivedEvent`, in discovery order."""
        return [self.derived_at(row) for row in range(len(self))]

    @classmethod
    def from_derived(cls, original: Event, derived: list[DerivedEvent]) -> "PipelineResult":
        """An externally built derivation list (benchmarks, tests) as a
        table: entry 0 the root, every later entry a parentless row,
        duplicates kept; ``derived`` answers the given objects."""
        result = cls(original, derived[0].event, custom_steps(derived[0].steps))
        for entry in derived[1:]:
            (step,) = custom_steps(entry.steps, entry.event.items())
            layout, values, keys = result._content(entry.event)
            result._append(-1, layout, values, keys, step, entry.generality, entry.depth)
        result._derived = list(derived)
        return result

    # -- reporting --------------------------------------------------------------------

    def materialized(self) -> int:
        """The rows plus, when factored, every free attribute's
        alternatives beyond its root value (a sum where the unfactored
        expansion pays the product)."""
        return len(self) + sum(len(values) - 1 for values in self.free.values())

    def lookup(self, signature: EventSignature) -> DerivedEvent | None:
        """The cheapest row of content *signature*, then the shortest."""
        rows = [d for d in self.derived if d.event.signature == signature]
        return min(rows, key=lambda d: (d.generality, d.depth), default=None)

    def dag_edges(self) -> list[tuple[EventSignature, EventSignature]]:
        """``(parent_signature, child_signature)`` pairs of the DAG."""
        return [(d.parent.event.signature, d.event.signature) for d in self.derived if d.parent]

    def distinct_pairs(self) -> int:
        """Distinct ``(attribute, value)`` pairs across the batch,
        alternatives included — the probe floor for a sharing batch
        matcher."""
        pairs = {pair for row in range(len(self)) for pair in self.keyed(row)}
        return len(pairs) + sum(len(values) - 1 for values in self.free.values())


def _fires(steps: tuple, name: str) -> bool:
    """Whether rule *name* fired in the compact *steps*."""
    for step in steps:
        if step[0] == MAPPING and step[3] == name:
            return True
        if step[0] == CUSTOM and any(fields[4] == name for fields in step[3]):
            return True
    return False


def expand_with(stage, result: PipelineResult, row: int, budget: int | None) -> None:
    """Run a stage without ``expand_row``: *row* is built into a
    :class:`DerivedEvent` for ``expand()``, its candidates read back."""
    for candidate in stage.expand(result.derived_at(row), generality_budget=budget):
        result.offer_derived(row, candidate)
        if result.truncated:
            break


def expand_alone(stage, derived: DerivedEvent, budget: int | None) -> list[DerivedEvent]:
    """A built-in stage's ``expand()``: ``expand_row`` on a table rooted
    at *derived*, the candidates as objects (*derived* their parent)."""
    table = PipelineResult(derived.event, derived.event, custom_steps(derived.steps))
    table._derived = [derived]
    stage.begin_publication()
    try:
        stage.expand_row(table, 0, budget)
    finally:
        stage.end_publication()
    return [table.derived_at(row) for row in range(1, len(table))]
