"""Stage 3: mapping-function application.

"Mapping functions can specify relationships which otherwise cannot be
specified using a concept hierarchy or a synonym relationship … a
many-to-many function that correlates one or more attribute-value pairs
to one or more semantically related attribute-value pairs" (paper §3.1).

Candidate rules are located through the knowledge base's per-attribute
hash index (the paper's "hash structures" design), guards are checked,
and each firing rule contributes one derived event carrying the rule
name in its provenance.  A rule never re-fires along a derivation chain
it already contributed to — that is what keeps REPLACE-mode rewrite
pairs (e.g. unit conversions in both directions) from ping-ponging
forever inside the Figure 1 fixpoint loop.
"""

from __future__ import annotations

from repro.core.derivation import PipelineResult
from repro.core.interfaces import SemanticStage
from repro.core.provenance import MAPPING, STAGE_MAPPING
from repro.ontology.knowledge_base import KnowledgeBase
from repro.ontology.mappingdefs import MappingContext, OutputMode

__all__ = ["MappingStage"]


class MappingStage(SemanticStage):
    """Applies expert-defined mapping rules to derived events.

    With an interest view bound (see
    :meth:`~repro.core.interfaces.SemanticStage.bind_interest`),
    ``AUGMENT`` rules the view reports irrelevant — no live predicate
    can be reached from their outputs, directly, through
    generalization, or by feeding another relevant rule — are skipped
    before :meth:`MappingRule.apply
    <repro.ontology.mappingdefs.MappingRule.apply>` runs, so their
    derived events (and the whole expansion subtrees those would seed)
    are never constructed.  Relevance skipping is sound for ``AUGMENT``
    only: such a derivation's sole new matching power is its output
    pairs (the relevance fixpoint covers every way those can matter).
    ``REPLACE`` rules always run — dropping their input pairs frees
    attribute names, which can unblock a later attribute rename onto a
    freed name regardless of where the outputs reach; see
    :mod:`repro.core.interest`.
    """

    name = STAGE_MAPPING

    #: consults the bound interest view before applying each rule
    interest_safe = True

    def __init__(self, kb: KnowledgeBase, context: MappingContext | None = None) -> None:
        super().__init__()
        self._kb = kb
        self._context = context if context is not None else MappingContext()
        #: attribute names -> candidate rules, for one publication
        self._candidates: dict[tuple, list] = {}

    @property
    def context(self) -> MappingContext:
        return self._context

    def begin_publication(self) -> None:
        self._candidates = {}

    def expand_row(self, result: PipelineResult, row: int, budget: int | None) -> None:
        """Offer what each candidate rule derives from *row*: the rules
        are looked up once per attribute layout of a publication, and the
        row is built into an event only for a rule that will apply."""
        self.stats.events_in += 1
        interest = self._interest
        names = result._layout[row].names
        candidates = self._candidates.get(names)
        if candidates is None:
            candidates = self._candidates[names] = self._kb.candidate_rules(names)
        self.stats.lookups += 1
        produced = 0
        event = None
        for rule in candidates:
            if result.used_rule(row, rule.name):
                continue
            # REPLACE rules are never relevance-skipped: dropping their
            # input pairs frees attribute names, which can unblock a
            # later attribute rename even when the rule's own outputs
            # reach no predicate
            if interest is not None and rule.mode is not OutputMode.REPLACE:
                self.stats.bump("prune_checks")
                if not interest.rule_relevant(rule.name):
                    self.stats.bump("candidates_pruned")
                    continue
            if event is None:
                event = result.event(row)
            new_event = rule.apply(event, self._context)
            self.stats.bump("rule_attempts")
            if new_event is None:
                continue
            step = (MAPPING, "", 0, rule.name, rule.description, new_event.items())
            content = result._content(new_event)
            result.offer(row, *content, step, result.charges[row], result.depths[row] + 1)
            produced += 1
            if result.truncated:
                break
        self.stats.events_out += produced
