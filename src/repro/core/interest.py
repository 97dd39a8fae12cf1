"""Subscription interest index: demand-driven expansion pruning.

Both S-ToPSS and its companion work ("I know what you mean", Burcea et
al.) frame event-side generalization as matching *toward subscriber
interests* — yet an exhaustive Figure 1 fixpoint materializes every
synonym/hierarchy/mapping combination whether or not anyone subscribed
to the result.  On heavy full-semantic traffic most derived events
match zero subscriptions; constructing them is the single largest
publish-path cost left after batching and interning.

:class:`InterestIndex` makes the expansion demand-driven.  It is an
inverted index over the *live root subscriptions* (the forms actually
stored in the matcher) answering two questions the pipeline's stages
ask before constructing a candidate derived event:

* :meth:`value_interesting` — could a substituted value on this
  attribute ever satisfy a live predicate, either directly or after
  further synonym/hierarchy/mapping steps within the remaining
  per-chain generality budget?
* :meth:`rule_relevant` — could this mapping rule's outputs ever reach
  a live predicate (directly, through value/attribute generalization of
  its outputs, or by feeding another relevant rule)?

Soundness model
---------------

A candidate that substitutes one attribute's *value* can only add
matching power through that pair: subscriptions that do not constrain
the attribute match the candidate iff they match its (cheaper-or-equal)
parent, which the batch reduction already reported.  So a
value-substitution candidate may be skipped exactly when its new value
cannot **reach** any value a live predicate could accept.  Two
derivation kinds are exempt because they *remove* pairs, and a freed
attribute name can unblock a later attribute rename onto it (renames
require the target name to be absent): attribute-generalization
candidates are never pruned by the hierarchy stage, and ``REPLACE``
mapping rules are never relevance-skipped.  Reachability:

* *direct acceptance* is spelling-exact — the set of
  ``EQ``/``IN`` operand identities on the attribute (spelling ids via
  :meth:`~repro.ontology.concept_table.ConceptTable.value_key`, which
  answers :func:`~repro.model.values.canonical_value_key` for a value
  the table does not know);
* *reachability* is pre-closed over the stage graph once per attribute:
  the union of the accepted terms' **descent closures** (taxonomy
  descent composed with distance-0 value-synonym hops — one
  multi-source :meth:`~repro.ontology.concept_table.ConceptTable.
  descent_depths` pass on ids), recording each spelling's minimum climb
  distance in a packed :class:`~repro.ontology.concept_table.Reach`
  (sorted spelling ids and depths in two ``array('i')``, 8 bytes a
  reached spelling), filtered per query by the chain budget remaining
  after the candidate's own step;
* non-enumerable predicates (``NE``, orderings, ranges, string
  operators, ``EXISTS``) accept open value sets, so they mark their
  attribute **wildcard** — never pruned;
* relevant mapping rules contribute their enumerable (``EQ``/``IN``)
  guard operands to the accepted set (a value that can climb to a guard
  fires the rule) and wildcard every other attribute they *read*
  (:attr:`~repro.ontology.mappingdefs.MappingRule.reads`) — including
  whole attribute-name prefix families for trailing-``*`` declarations
  (``reads=("period*",)`` scans schema-unbounded attribute sets); a
  rule whose read set is unknown (``reads is None``) disables pruning
  entirely while installed — the engine cannot bound what the rule
  observes.

Rule relevance is a fixpoint over the rule graph: a rule matters if any
of its output attributes carries a live predicate (or, with attribute
generalization enabled, can be *renamed* to one), or is read by another
relevant rule; function-backed rules with unknown output attributes are
always relevant.

Refcounted contributions keep subscribe/unsubscribe incremental: churn
adjusts only the touched attributes' accepted multisets, and drops an
attribute's closure (and bumps :attr:`InterestIndex.generation`) only
when its accepted key set or its open flag changes — a refcount moving
between positive values changes no answer; the per-attribute closures
and the rule-relevance state rebuild lazily on the next query, and a
rule analysis that churn re-runs keeps every closure if it comes out equal.
Knowledge-base motion (the engine's semantic-version/epoch plumbing)
drops every derived structure via :meth:`invalidate_semantics`, logged
at DEBUG, while the predicate-derived refcounts survive.

Everything here deliberately **over-approximates** interest: an entry
too many only costs an unpruned candidate, an entry too few would change
match sets.  The pruned ≡ unpruned invariant is pinned as a hard
property test (``tests/property/test_interest_pruning_equivalence.py``).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.model.predicates import Operator, Predicate
from repro.model.values import Value, canonical_value_key
from repro.ontology.concept_table import Reach, pairs
from repro.ontology.mappingdefs import OutputMode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import SemanticConfig
    from repro.model.subscriptions import Subscription
    from repro.ontology.knowledge_base import KnowledgeBase
    from repro.ontology.mappingdefs import MappingRule

__all__ = ["InterestIndex"]

_log = logging.getLogger(__name__)

#: the reach of an attribute nothing can be accepted on, shared
_NO_REACH = Reach({}, {})

#: operators whose accepted values are enumerable from the operand
_ENUMERABLE = (Operator.EQ, Operator.IN)


def _operand_values(predicate: Predicate) -> tuple:
    """The concrete values an enumerable predicate accepts."""
    if predicate.operator is Operator.EQ:
        return (predicate.operand,)
    return tuple(predicate.operand)  # IN: frozenset of members


def split_reads(reads: Iterable[str]) -> tuple[set, set]:
    """Partition a rule's read declarations into exact attribute names
    and open prefix families (trailing-``*`` entries, star stripped —
    see :attr:`~repro.ontology.mappingdefs.MappingRule.reads`)."""
    exact: set[str] = set()
    prefixes: set[str] = set()
    for entry in reads:
        if entry.endswith("*"):
            prefixes.add(entry[:-1])
        else:
            exact.add(entry)
    return exact, prefixes


class _AttributeInterest:
    """Refcounted predicate contributions for one attribute."""

    __slots__ = ("spellings", "direct", "open")

    def __init__(self) -> None:
        #: string operand spelling -> number of live predicates accepting it
        self.spellings: dict[str, int] = {}
        #: canonical key of a non-string operand -> live predicate count
        self.direct: dict[object, int] = {}
        #: live predicates with non-enumerable acceptance (NE, orderings,
        #: ranges, string ops, EXISTS) — any value could matter
        self.open = 0

    @property
    def empty(self) -> bool:
        return not (self.spellings or self.direct or self.open)


@dataclass(frozen=True)
class _RuleState:
    """Mapping-rule analysis under one (subscriptions, KB) snapshot."""

    #: why pruning is unsound with the installed rules (``None`` = sound)
    disabled_reason: str | None = None
    #: names of rules whose outputs can reach a live predicate
    relevant: frozenset = frozenset()
    #: rules installed in total (for reporting)
    total: int = 0
    #: attributes a relevant rule reads without an enumerable guard
    wildcard: frozenset = frozenset()
    #: attribute-name prefixes a relevant rule reads as an open family
    #: (``reads=("period*",)``) — prefix-matched, never pruned
    wildcard_prefixes: frozenset = frozenset()
    #: attribute -> enumerable guard operands of relevant rules
    accepted: dict = field(default_factory=dict)


class InterestIndex:
    """Live-subscription interest index (see module docstring).

    The engine owns one instance per configuration, feeds it every
    matcher-inserted root subscription (:meth:`add`/:meth:`remove`),
    invalidates its derived state whenever the knowledge-base version
    or semantic epoch moves (:meth:`invalidate_semantics`), and hands
    it to :meth:`SemanticPipeline.process_event
    <repro.core.pipeline.SemanticPipeline.process_event>` as the prune
    hook for interest-aware stages.
    """

    def __init__(self, kb: "KnowledgeBase", config: "SemanticConfig") -> None:
        self._kb = kb
        #: one object for the knowledge base's life (its value keys read
        #: the live store), so it is fetched once
        self._table = kb.concept_table()
        self._config = config
        self._attributes: dict[str, _AttributeInterest] = {}
        #: attribute -> its packed reach (value key -> min climb
        #: distance to acceptance)
        self._closures: dict[str, Reach] = {}
        self._rules: _RuleState | None = None
        #: the last analysis run, kept across churn that re-runs it
        self._analyzed: _RuleState | None = None
        #: bumped whenever an answer may change (an accepted key set or
        #: an open flag moved, an invalidation) — stages key their
        #: per-(attribute, term, budget) admission memos on it so a memo
        #: can never serve decisions from a superseded interest set
        self.generation = 0

    # -- subscription churn (incremental) ----------------------------------------

    def add(self, subscription: "Subscription") -> None:
        self._apply(subscription.predicates, +1)

    def remove(self, subscription: "Subscription") -> None:
        self._apply(subscription.predicates, -1)

    def _apply(self, predicates: Iterable[Predicate], sign: int) -> None:
        """Move the refcounts.  An attribute's reach depends only on its
        accepted key set and on whether it has an open predicate, so
        the reach is dropped, and the generation bumped, only when a
        refcount crosses zero; one moving between positive values (a
        second subscription on the same operand) changes no answer."""
        changed = False
        for predicate in predicates:
            attribute = predicate.attribute
            entry = self._attributes.get(attribute)
            if entry is None:
                entry = self._attributes[attribute] = _AttributeInterest()
                # a newly constrained attribute can flip rule relevance
                self._rules = None
                changed = True
            moved = False
            if predicate.operator in _ENUMERABLE:
                for value in _operand_values(predicate):
                    bucket: dict = (
                        entry.spellings
                        if isinstance(value, str)
                        else entry.direct
                    )
                    key = value if isinstance(value, str) else canonical_value_key(value)
                    count = bucket.get(key, 0) + sign
                    if count > 0:
                        bucket[key] = count
                    else:
                        bucket.pop(key, None)
                    # a key arrives at 1 and leaves at 0
                    moved |= count == (1 if sign > 0 else 0)
            else:
                was_open = entry.open > 0
                entry.open = max(0, entry.open + sign)
                moved = was_open != (entry.open > 0)
            if moved:
                self._closures.pop(attribute, None)
                changed = True
            if entry.empty:
                del self._attributes[attribute]
                self._rules = None
        if changed:
            self.generation += 1

    # -- knowledge-base motion -----------------------------------------------------

    def invalidate_semantics(self, reason: str = "external") -> None:
        """Drop every structure derived from the knowledge base (descent
        closures, rule analysis).  The engine
        calls this whenever its semantic version moves (*reason* says
        why); the refcounted predicate contributions are pure
        subscription data and stay.  Logs one DEBUG record with the
        closures and entries dropped."""
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug(
                "%s interest reach dropped (%s): %d closures, %d entries",
                self._kb.name,
                reason,
                len(self._closures),
                sum(map(len, self._closures.values())),
            )
        self.generation += 1
        self._closures.clear()
        self._rules = self._analyzed = None

    # -- queries (the prune hook) -----------------------------------------------------

    @property
    def active(self) -> bool:
        """Whether the index can prune at all under the installed
        rules.  ``False`` means a rule's unknown read set
        (``reads is None``) forces exhaustive expansion — every query
        would answer "interesting", so the engine should not pay prune
        checks for this index."""
        return self._rule_state().disabled_reason is None

    def value_interesting(
        self, attribute: str, value: Value, remaining: int | None = None
    ) -> bool:
        """Whether a candidate carrying ``attribute = value`` could still
        reach a live predicate within *remaining* further generalization
        levels (``None`` = unbounded).

        Reachability — not just direct acceptance — is required even
        for plain value substitutions: an intermediate spelling whose
        *synonym* continues climbing in another taxonomy (or from
        another node) is how the fixpoint composes cross-domain chains,
        and ``kb.generalizations`` does not cross those bridges
        transitively, so the intermediate may be the only path to an
        accepted ancestor.  The descent closures bake those bridge hops
        in (they are built by the same BFS as
        :func:`~repro.ontology.concept_table.descent_closure`), which is
        what makes "depth within remaining"
        exactly the right admission test."""
        reach = self.reach(attribute)
        if reach is None:
            return True
        if not reach:
            return False
        depth = reach.get(self._table.value_key(value))
        return depth is not None and (remaining is None or depth <= remaining)

    def reach(self, attribute: str) -> Reach | None:
        """What :meth:`value_interesting` decides for *attribute*, once
        for all its values: ``None`` when every value is interesting
        (pruning disabled, an open predicate, a wildcard read), else a
        packed :class:`~repro.ontology.concept_table.Reach` ``{value
        key: min climb distance to acceptance}`` — the one shared empty
        reach when nothing on the attribute can be accepted.  Keys are
        :meth:`~repro.ontology.concept_table.ConceptTable.value_key`
        identities, so a known spelling's id is its own key."""
        state = self._rule_state()
        if state.disabled_reason is not None:
            return None
        entry = self._attributes.get(attribute)
        if (entry is not None and entry.open) or attribute in state.wildcard:
            return None
        if any(attribute.startswith(prefix) for prefix in state.wildcard_prefixes):
            return None
        if entry is None and attribute not in state.accepted:
            return _NO_REACH
        return self._closure_for(attribute, state)

    def rule_relevant(self, rule_name: str) -> bool:
        """Whether the named mapping rule's derivations could ever reach
        a live predicate (``True`` whenever pruning is disabled)."""
        state = self._rule_state()
        return state.disabled_reason is not None or rule_name in state.relevant

    # -- rule analysis ---------------------------------------------------------------

    def _rule_state(self) -> _RuleState:
        state = self._rules
        if state is None:
            state = self._analyze_rules()
            # rule contributions feed other attributes' closures: they
            # stay only when the analysis came out as it did last time
            if state != self._analyzed:
                self._closures.clear()
            self._rules = self._analyzed = state
        return state

    def _output_attributes(self, rule: "MappingRule") -> tuple[str, ...] | None:
        """Known output attributes, ``None`` when unknowable (fn rules)."""
        if rule.fn is not None:
            return None
        return tuple(attribute for attribute, _ in rule.outputs)

    def _attribute_matters(self, attribute: str) -> bool:
        """Whether values under *attribute* can reach a live predicate:
        the attribute is constrained, or (with the hierarchy on) renames
        upward to a constrained one."""
        if attribute in self._attributes:
            return True
        if self._config.enable_hierarchy:
            # fetched, not the held table: rule analysis runs before the
            # publish's own fetch, and a fetch drops memos a write staled
            table = self._kb.concept_table()
            tid = table.term_id_of_value(attribute)
            if tid is not None:
                for sid, _ in pairs(table.ancestors(tid)):
                    if table.attribute_form(sid) in self._attributes:
                        return True
        return False

    def _analyze_rules(self) -> _RuleState:
        if not self._config.enable_mappings:
            return _RuleState()
        rules = self._kb.rules()
        for rule in rules:
            if rule.reads is None:
                # the rule may read any attribute: no substitution is
                # provably irrelevant while it is installed
                return _RuleState(
                    disabled_reason=f"rule {rule.name!r} has an unknown read set",
                    relevant=frozenset(r.name for r in rules),
                    total=len(rules),
                )
        relevant: dict[str, "MappingRule"] = {}
        while True:
            demanded: set[str] = set()
            demanded_prefixes: set[str] = set()
            for accepted_rule in relevant.values():
                exact, prefixes = split_reads(accepted_rule.reads)  # type: ignore[arg-type]
                demanded |= exact
                demanded_prefixes |= prefixes
            added = False
            for rule in rules:
                if rule.name in relevant:
                    continue
                outputs = self._output_attributes(rule)
                # REPLACE rules are always relevant regardless of where
                # their outputs reach: MappingStage always runs them
                # (dropping input pairs frees attribute names), so the
                # enumerable guards that *fire* them must feed the
                # accepted sets below — otherwise the hierarchy stage
                # would prune the very value climb a REPLACE derivation
                # needs, defeating the stage-level exemption
                if (
                    rule.mode is OutputMode.REPLACE
                    or outputs is None
                    or any(
                        attribute in demanded
                        or any(attribute.startswith(p) for p in demanded_prefixes)
                        or self._attribute_matters(attribute)
                        for attribute in outputs
                    )
                ):
                    relevant[rule.name] = rule
                    added = True
            if not added:
                break
        wildcard: set[str] = set()
        wildcard_prefixes: set[str] = set()
        accepted: dict[str, list] = {}
        for rule in relevant.values():
            enumerable: dict[str, list] = {}
            for requirement in rule.requires:
                predicate = requirement.predicate
                if predicate is not None and predicate.operator in _ENUMERABLE:
                    enumerable.setdefault(requirement.attribute, []).extend(
                        _operand_values(predicate)
                    )
            exact, prefixes = split_reads(rule.reads)  # type: ignore[arg-type]
            # a prefix family is an open read by construction: the
            # exact-guard intersection below cannot bound it
            wildcard_prefixes |= prefixes
            for attribute in exact:
                values = enumerable.get(attribute)
                if values is None:
                    # read without an enumerable guard: any value of the
                    # attribute can influence the rule's output
                    wildcard.add(attribute)
                else:
                    accepted.setdefault(attribute, []).extend(values)
        return _RuleState(
            relevant=frozenset(relevant),
            total=len(rules),
            wildcard=frozenset(wildcard),
            wildcard_prefixes=frozenset(wildcard_prefixes),
            accepted=accepted,
        )

    # -- reachability closures ----------------------------------------------------------

    def _closure_for(self, attribute: str, state: _RuleState) -> Reach:
        """The attribute's reach, built on first use: one multi-source
        descent pass over the region its accepted terms can reach,
        keyed by value key and packed once; the few non-string keys
        (all at depth 0, the minimum) go into the reach's side dict."""
        closure = self._closures.get(attribute)
        if closure is not None:
            return closure
        direct: set = set()
        spellings: set[str] = set()
        entry = self._attributes.get(attribute)
        if entry is not None:
            spellings.update(entry.spellings)
            direct.update(entry.direct)
        for value in state.accepted.get(attribute, ()):
            if isinstance(value, str):
                spellings.add(value)
            else:
                direct.add(canonical_value_key(value))
        closure = self._kb.concept_table().descent_depths(spellings, direct)
        self._closures[attribute] = closure
        return closure

    # -- reporting ------------------------------------------------------------------------

    def stats(self) -> dict[str, object]:
        """Deterministic shape counters for engine/dispatcher stats."""
        state = self._rule_state()
        accepted_values = sum(
            len(entry.spellings) + len(entry.direct)
            for entry in self._attributes.values()
        )
        wildcard_attributes = set(state.wildcard)
        wildcard_attributes.update(
            attribute
            for attribute, entry in self._attributes.items()
            if entry.open
        )
        return {
            "attributes": len(self._attributes),
            "accepted_values": accepted_values,
            "wildcard_attributes": len(wildcard_attributes),
            "wildcard_prefixes": len(state.wildcard_prefixes),
            # the headline size: distinct accepted identities plus
            # wildcard slots (exact and prefix-family) — stable across
            # lazy closure building
            "size": accepted_values
            + len(wildcard_attributes)
            + len(state.wildcard_prefixes),
            "closure_keys": sum(len(c) for c in self._closures.values()),
            "closure_bytes": sum(c.nbytes for c in self._closures.values()),
            "relevant_rules": len(state.relevant),
            "pruned_rules": max(0, state.total - len(state.relevant)),
            "disabled": state.disabled_reason or "",
        }
