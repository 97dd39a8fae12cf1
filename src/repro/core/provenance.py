"""Match provenance: how a derived event came to exist.

Figure 1 of the paper shows original events spawning "root" events
(synonym stage), "new events from concept hierarchy", and "new events
from mapping functions".  Every derived event here carries its full
derivation chain, which powers

* the tolerance knob — a match's *generality* is the summed hierarchy
  distance along its derivation, and subscriptions can bound it;
* the demonstration UI — "the real power of this scheme is only
  apparent by witnessing how seamlessly unrelated objects end up
  matching" (paper §4), which requires explaining *why* they matched;
* loop control — the mapping stage refuses to re-fire a rule that
  already appears in an event's own derivation chain.

A derivation is stored compactly and built into objects only when read:
each step as a small tuple (a *compact step*), a kept match as a
:class:`Witness`, the chain of its compact steps.
:func:`derivation_steps` and :meth:`Witness.derived` are the one adapter
that builds :class:`DerivationStep` / :class:`DerivedEvent` objects from
them, with the text the stages always produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.model.events import Event
from repro.model.subscriptions import Subscription
from repro.model.values import canonical_value_key, format_value

__all__ = [
    "DerivationStep",
    "DerivedEvent",
    "SemanticMatch",
    "Witness",
    "subscription_part",
    "event_part",
    "derivation_part",
]

#: Stage identifiers used in derivation steps.
STAGE_SYNONYM = "synonym"
STAGE_HIERARCHY = "hierarchy"
STAGE_MAPPING = "mapping"

#: Compact step kinds: a compact step is ``(kind, attribute, generality,
#: ...)`` followed by the new value (``CANON``, ``GENERAL``), the
#: old name (``RENAME``, ``SYNONYM``; ``attribute`` is the new one), the
#: rule's name, description and content (``MAPPING``), or a custom
#: stage's ``(stage, description, attribute, generality, rule)`` step
#: fields and content (``CUSTOM``).  Content is the pairs after the step
#: (``None``: as before).
CANON, GENERAL, RENAME, SYNONYM, MAPPING, CUSTOM = range(6)


@dataclass(frozen=True, slots=True)
class DerivationStep:
    """One semantic transformation applied to an event.

    ``generality`` is the number of generalization levels this step
    climbed in the concept hierarchy (0 for synonym rewrites, value
    canonicalizations, and mapping functions).
    """

    stage: str
    description: str
    attribute: str = ""
    generality: int = 0
    rule: str = ""

    def __str__(self) -> str:
        suffix = ""
        if self.generality:
            plural = "s" if self.generality != 1 else ""
            suffix = f" (+{self.generality} level{plural})"
        return f"[{self.stage}] {self.description}{suffix}"


@dataclass(frozen=True, slots=True)
class DerivedEvent:
    """An event plus the derivation chain that produced it.

    The *original* publication is the chain-less ``DerivedEvent``; each
    semantic stage extends the chain by one step.  Of several chains
    reaching the same content the pipeline keeps only those cheaper
    than every shorter one; equality is the event's signature and the
    steps.

    ``parent`` is the event this one was expanded from (``None`` for
    the batch root); :meth:`~repro.core.pipeline.PipelineResult.dag_edges`
    walks it.  It is excluded from equality/hashing — identity remains
    (event, steps).
    """

    event: Event
    steps: tuple[DerivationStep, ...] = ()
    parent: "DerivedEvent | None" = field(default=None, compare=False, repr=False)
    # computed once: the publish hot path reads it per budget check,
    # batch reduction, and dedup probe (out of equality/repr, which
    # remain (event, steps))
    _generality: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_generality", sum(step.generality for step in self.steps)
        )

    @classmethod
    def original(cls, event: Event) -> "DerivedEvent":
        return cls(event, ())

    @property
    def is_original(self) -> bool:
        return not self.steps

    @property
    def generality(self) -> int:
        """Total hierarchy levels climbed along the derivation."""
        return self._generality

    @property
    def depth(self) -> int:
        """Number of derivation steps applied."""
        return len(self.steps)

    def extend(self, event: Event, step: DerivationStep) -> "DerivedEvent":
        """The derived event obtained by applying one more step; the
        child records this event as its ``parent``."""
        return DerivedEvent(event, self.steps + (step,), parent=self)

    def used_rule(self, rule_name: str) -> bool:
        """Whether *rule_name* already fired along this chain."""
        return any(step.rule == rule_name for step in self.steps)

    def explain(self) -> str:
        """Multi-line, human-readable derivation trace."""
        if self.is_original:
            return f"original event {self.event.format()}"
        lines = [f"derived event {self.event.format()} via:"]
        lines.extend(f"  {i + 1}. {step}" for i, step in enumerate(self.steps))
        return "\n".join(lines)


#: description of each single-step kind, formatted with the step and
#: the value it replaced
_TEXT = {
    CANON: "value {4!r} of {1!r} canonicalized to synonym {3!r}",
    GENERAL: "value {4!r} of {1!r} generalized to {3!r}",
    RENAME: "attribute {3!r} generalized to {1!r}",
    SYNONYM: "attribute {3!r} rewritten to root {1!r}",
}


def derivation_steps(step: tuple, before: dict | None = None) -> tuple[DerivationStep, ...]:
    """The :class:`DerivationStep` objects one compact step stands for
    (one, except a custom stage's several); *before* is the content it
    applied to (a value step names what it replaced)."""
    kind = step[0]
    if kind == CUSTOM:
        return tuple(DerivationStep(*fields) for fields in step[3])
    if kind == MAPPING:
        text = f"mapping function {step[3]!r}" + (f": {step[4]}" if step[4] else "")
        return (DerivationStep(STAGE_MAPPING, text, rule=step[3]),)
    stage = STAGE_SYNONYM if kind == SYNONYM else STAGE_HIERARCHY
    old = before[step[1]] if kind == CANON or kind == GENERAL else None
    return (DerivationStep(stage, _TEXT[kind].format(*step, old), step[1], step[2]),)


def step_count(step: tuple) -> int:
    """How many :class:`DerivationStep` objects a compact step stands
    for — what it adds to a chain's depth."""
    return len(step[3]) if step[0] == CUSTOM else 1


def custom_steps(steps: Iterable[DerivationStep], content=None) -> tuple:
    """Arbitrary steps (a custom stage's) as one compact step in a tuple
    (empty for no steps) that leaves the pairs as *content*."""
    fields = tuple((s.stage, s.description, s.attribute, s.generality, s.rule) for s in steps)
    return ((CUSTOM, "", sum(f[3] for f in fields), fields, content),) if fields else ()


def step_from(raw, decode) -> tuple:
    """The compact step *raw* spells — as JSON does, lists for tuples —
    with *decode* applied to each value it holds (a value step's new
    value, a rule's or custom stage's content); raises ``ValueError`` or
    ``TypeError`` for one of an unknown kind, a wrong arity or a field of
    the wrong type."""
    kind = raw[0] if type(raw) is list and raw else None
    tails = _TAILS.get(kind, False) if type(kind) is int else False
    if tails is False:
        raise ValueError(f"not a compact step: {raw!r}")
    types = tuple(map(type, raw))
    if types[:3] != _HEAD or (len(raw) != 4 if tails is None else types[3:] not in tails):
        raise ValueError(f"a compact step of kind {kind} of the wrong form: {raw!r}")
    if kind <= GENERAL:
        return (*raw[:3], decode(raw[3]))
    if kind <= SYNONYM:
        return tuple(raw)
    content = raw[-1]
    if content is not None:
        pairs = [pair for pair in content if type(pair) is list and len(pair) == 2]
        if len(pairs) != len(content) or {type(name) for name, _ in pairs} - {str}:
            raise TypeError(f"content that is not pairs: {content!r}")
        content = tuple((name, decode(value)) for name, value in pairs)
    if kind == MAPPING:
        return (*raw[:5], content)
    fields = raw[3]
    if any(type(step) is not list or tuple(map(type, step)) != _CUSTOM for step in fields):
        raise TypeError(f"custom steps of the wrong form: {fields!r}")
    return (*raw[:3], tuple(map(tuple, fields)), content)


#: the field types every compact step starts with, and per kind the
#: forms of the fields after them (``None``: one value, which the
#: decoder checks)
_HEAD = (int, str, int)
_TAILS = {
    CANON: None,
    GENERAL: None,
    RENAME: ((str,),),
    SYNONYM: ((str,),),
    MAPPING: ((str, str, list),),
    CUSTOM: ((list, list), (list, type(None))),
}
#: a custom stage's ``(stage, description, attribute, generality, rule)``
_CUSTOM = (str, str, str, int, str)


def replay(pairs: dict, step: tuple) -> dict:
    """The event pairs after *step*, given the pairs before it (the
    argument may be changed in place and is returned)."""
    kind = step[0]
    if kind == GENERAL or kind == CANON:
        pairs[step[1]] = step[3]
    elif kind == RENAME or kind == SYNONYM:
        # a root rewrite may merge two names into one (equal values)
        pairs = {step[1] if name == step[3] else name: v for name, v in pairs.items()}
    elif step[-1] is not None:
        pairs = dict(step[-1])
    return pairs


def derived_event(pairs: dict, like: Event) -> Event:
    """An event of normalized *pairs* with *like*'s id and publisher."""
    signature = frozenset((name, canonical_value_key(value)) for name, value in pairs.items())
    return Event._derived(pairs, signature, like.publisher_id, like.event_id)


class Witness(tuple):
    """How a kept match came about: its compact steps, each a single
    step, the root's synonym rewrite (the leading ``SYNONYM`` steps, one
    node) then one per node.
    It holds strings, numbers and tuples only (pickles as is, compares by
    content, keeps no event alive): the publication supplies the content."""

    __slots__ = ()

    @property
    def is_original(self) -> bool:
        return not self

    @property
    def generality(self) -> int:
        return sum(step[2] for step in self)

    def derived(self, event: Event) -> DerivedEvent:
        """A :class:`DerivedEvent` per node, each the next one's parent,
        for publication *event* (an unrewritten root is *event* itself)."""
        roots = next((i for i, step in enumerate(self) if step[0] != SYNONYM), len(self))
        pairs = dict(event.items())
        for step in self[:roots]:
            pairs = replay(pairs, step)
        root = derived_event(dict(pairs), event) if roots else event
        node = DerivedEvent(root, tuple(s for step in self[:roots] for s in derivation_steps(step)))
        for step in self[roots:]:
            steps = node.steps + derivation_steps(step, pairs)
            pairs = replay(pairs, step)
            node = DerivedEvent(derived_event(dict(pairs), event), steps, parent=node)
        return node

    def explain(self, event: Event) -> str:
        """:meth:`DerivedEvent.explain` of :meth:`derived`, rendered
        from the record (the content replayed as pairs, no event built)."""
        pairs, steps = dict(event.items()), []
        for step in self:
            steps += derivation_steps(step, pairs)
            pairs = replay(pairs, step)
        shown = "".join(f"({name}, {format_value(value)})" for name, value in pairs.items())
        if self.is_original:
            return f"original event {shown}"
        lines = [f"derived event {shown} via:"]
        lines.extend(f"  {i + 1}. {step}" for i, step in enumerate(steps))
        return "\n".join(lines)


@dataclass(frozen=True, slots=True)
class SemanticMatch:
    """One (subscription, publication) match produced by the engine.

    ``subscription`` is the subscriber's *original* subscription (not
    the root-rewritten form); ``event`` the original publication;
    ``via`` the :class:`Witness` of the derivation the syntactic matcher
    accepted (empty for purely syntactic matches); ``generality`` the
    hierarchy distance of that derivation (0 = exact/synonym/mapping
    match).  ``matched_via`` builds the derived event at every read.
    """

    subscription: Subscription
    event: Event
    via: Witness = field(compare=False, repr=False)
    generality: int = 0

    @property
    def matched_via(self) -> DerivedEvent:
        """The derived event the matcher accepted (``event`` itself for
        a syntactic match), its ``parent`` chain one event per node."""
        return self.via.derived(self.event)

    @property
    def is_semantic(self) -> bool:
        """Whether the semantic stage was necessary for this match."""
        return not self.via.is_original

    def explain(self) -> str:
        """Demo-facing narrative: what matched and why."""
        return "".join(self.explain_parts())

    def explain_parts(self) -> tuple[str, str, str]:
        """:meth:`explain` as three strings that concatenate to it,
        split by what each depends on — the subscription, the
        publication, the derivation — so a fan-out renders the second
        once and the others once per distinct subscription and
        derivation instead of once per notification."""
        return (
            subscription_part(self.subscription),
            event_part(self.event),
            derivation_part(self.via, self.event),
        )


def subscription_part(subscription: Subscription) -> str:
    """What :meth:`SemanticMatch.explain` says up to the event id: the
    same for every publication the subscription matches."""
    return f"subscription {subscription.sub_id} [{subscription.format()}] matched event "


def event_part(event: Event) -> str:
    """The publication's id and content: the same for every
    subscription one publication matches."""
    return f"{event.event_id} [{event.format()}]"


def derivation_part(via: Witness, event: Event) -> str:
    """How the match came about for publication *event*: the same for
    every subscription that accepted the same derivation."""
    if via.is_original:
        return " — exact syntactic match"
    return "\n" + via.explain(event)
