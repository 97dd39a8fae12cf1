"""Unit tests for the semantic pipeline (Figure 1 composition)."""

from __future__ import annotations

from repro.core.config import SemanticConfig
from repro.core.engine import SToPSS
from repro.core.interest import InterestIndex
from repro.core.pipeline import SemanticPipeline
from repro.model.events import Event
from repro.model.parser import parse_subscription
from repro.model.predicates import Predicate
from repro.model.subscriptions import Subscription
from repro.ontology.knowledge_base import KnowledgeBase
from repro.ontology.mappingdefs import MappingRule, OutputMode


def _kb() -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.add_attribute_synonyms(["school"], root="university")
    jobs = kb.add_domain("jobs")
    jobs.add_chain("PhD", "graduate degree", "degree")
    jobs.add_chain("COBOL programming", "software development")
    kb.add_rule(
        MappingRule.computed(
            "exp", "professional_experience", "present_year - graduation_year"
        )
    )
    # A rule that triggers on a *generalized* value: only reachable after
    # the hierarchy stage ran, proving the fixpoint loop composes stages.
    kb.add_rule(
        MappingRule.equivalence(
            "grad-flag", {"degree": "graduate degree"}, {"is_graduate": True}
        )
    )
    return kb


class TestSynonymFirst:
    def test_root_event_is_first(self):
        pipeline = SemanticPipeline(_kb(), SemanticConfig(present_year=2003))
        result = pipeline.process_event(Event({"school": "Toronto"}))
        assert result.derived[0].event["university"] == "Toronto"
        assert result.derived[0].steps  # synonym step recorded

    def test_subscription_only_synonym_stage(self):
        pipeline = SemanticPipeline(_kb(), SemanticConfig())
        sub = parse_subscription("(school = Toronto) and (degree = PhD)")
        root = pipeline.process_subscription(sub)
        assert root.attributes() == ("university", "degree")
        # hierarchy/mapping must NOT touch subscriptions
        assert len(root) == 2

    def test_subscription_untouched_when_synonyms_disabled(self):
        pipeline = SemanticPipeline(_kb(), SemanticConfig(enable_synonyms=False))
        sub = parse_subscription("(school = Toronto)")
        assert pipeline.process_subscription(sub) is sub


class TestFixpoint:
    def test_hierarchy_feeds_mappings(self):
        # PhD --hierarchy--> graduate degree --mapping--> is_graduate
        pipeline = SemanticPipeline(_kb(), SemanticConfig(present_year=2003))
        result = pipeline.process_event(Event({"degree": "PhD"}))
        flagged = [d for d in result.derived if d.event.get("is_graduate") is True]
        assert flagged, "mapping on generalized value must fire in a later iteration"
        assert result.iterations >= 2

    def test_mapping_feeds_hierarchy(self):
        kb = _kb()
        kb.add_rule(
            MappingRule.equivalence(
                "skillify", {"language": "COBOL"}, {"skill": "COBOL programming"}
            )
        )
        pipeline = SemanticPipeline(kb, SemanticConfig())
        result = pipeline.process_event(Event({"language": "COBOL"}))
        generalized = [d for d in result.derived if d.event.get("skill") == "software development"]
        assert generalized, "hierarchy must generalize mapping-produced values"

    def test_termination_without_new_events(self):
        pipeline = SemanticPipeline(_kb(), SemanticConfig())
        result = pipeline.process_event(Event({"unrelated": 42}))
        assert len(result.derived) == 1
        assert result.iterations == 0

    def test_iteration_cap_respected(self):
        pipeline = SemanticPipeline(_kb(), SemanticConfig(max_iterations=1))
        result = pipeline.process_event(Event({"degree": "PhD"}))
        assert result.iterations <= 1
        assert all(d.event.get("is_graduate") is None for d in result.derived)


class TestDeduplication:
    def test_same_content_once(self):
        kb = KnowledgeBase()
        domain = kb.add_domain("d")
        # diamond: two paths to "top"
        domain.add_chain("x", "left", "top")
        domain.add_chain("x", "right", "top")
        pipeline = SemanticPipeline(kb, SemanticConfig())
        result = pipeline.process_event(Event({"v": "x"}))
        tops = [d for d in result.derived if d.event["v"] == "top"]
        assert len(tops) == 1

    def test_cheapest_derivation_kept(self):
        kb = KnowledgeBase()
        domain = kb.add_domain("d")
        domain.add_chain("x", "mid", "top")
        domain.add_isa("x", "top")  # direct shortcut, distance 1
        pipeline = SemanticPipeline(kb, SemanticConfig())
        result = pipeline.process_event(Event({"v": "x"}))
        top = next(d for d in result.derived if d.event["v"] == "top")
        assert top.generality == 1

    def test_signature_lookup(self):
        pipeline = SemanticPipeline(_kb(), SemanticConfig())
        result = pipeline.process_event(Event({"degree": "PhD"}))
        some = result.derived[-1]
        assert result.lookup(some.event.signature) is some
        assert result.lookup(frozenset({("nope", ("num", 1))})) is None


class TestBudgets:
    def test_generality_budget_prunes_expansion(self):
        pipeline = SemanticPipeline(_kb(), SemanticConfig(max_generality=1))
        result = pipeline.process_event(Event({"degree": "PhD"}))
        assert all(d.generality <= 1 for d in result.derived)
        values = {d.event["degree"] for d in result.derived}
        assert "degree" not in values  # distance 2 is pruned

    def test_budget_composes_across_iterations(self):
        pipeline = SemanticPipeline(_kb(), SemanticConfig(max_generality=2))
        result = pipeline.process_event(Event({"degree": "PhD"}))
        assert all(d.generality <= 2 for d in result.derived)
        values = {d.event["degree"] for d in result.derived}
        assert "degree" in values  # reachable via 1+1 or direct 2

    def test_truncation_flag(self):
        config = SemanticConfig(max_derived_events=2)
        pipeline = SemanticPipeline(_kb(), config)
        result = pipeline.process_event(Event({"degree": "PhD", "graduation_year": 1993}))
        assert result.truncated
        assert len(result.derived) <= 2
        assert pipeline.truncation_count == 1


class TestResultViews:

    def test_events_view(self):
        pipeline = SemanticPipeline(_kb(), SemanticConfig())
        result = pipeline.process_event(Event({"degree": "PhD"}))
        derived = result.derived
        assert len(derived) == len(result) > 1
        assert [d.event for d in derived] == [result.event(row) for row in range(len(result))]

    def test_stage_stats_shape(self):
        pipeline = SemanticPipeline(_kb(), SemanticConfig())
        pipeline.process_event(Event({"degree": "PhD"}))
        stats = pipeline.stage_stats()
        assert set(stats) == {"synonym", "hierarchy", "mapping"}

    def test_dag_edges_are_parent_child_pairs(self):
        """One ``(parent, child)`` signature pair per derived event:
        the hierarchy stage derives each ancestor of PhD from PhD."""
        pipeline = SemanticPipeline(_kb(), SemanticConfig.hierarchy_only())
        result = pipeline.process_event(Event({"degree": "PhD"}))
        signature = {
            value: Event({"degree": value}).signature
            for value in ("PhD", "graduate degree", "degree")
        }
        assert result.dag_edges() == [
            (signature["PhD"], signature["graduate degree"]),
            (signature["PhD"], signature["degree"]),
        ]


class TestStageToggles:
    def test_syntactic_mode_is_identity(self):
        pipeline = SemanticPipeline(_kb(), SemanticConfig.syntactic())
        event = Event({"school": "Toronto", "degree": "PhD"})
        result = pipeline.process_event(event)
        assert len(result.derived) == 1
        assert result.derived[0].event is event

    def test_hierarchy_only(self):
        pipeline = SemanticPipeline(_kb(), SemanticConfig.hierarchy_only())
        result = pipeline.process_event(Event({"school": "x", "degree": "PhD"}))
        assert all("school" in d.event for d in result.derived)  # no synonym rewrite
        assert any(d.event["degree"] == "degree" for d in result.derived)
        assert all("professional_experience" not in d.event for d in result.derived)

    def test_mappings_only(self):
        pipeline = SemanticPipeline(_kb(), SemanticConfig.mappings_only())
        result = pipeline.process_event(Event({"graduation_year": 1993}))
        assert any("professional_experience" in d.event for d in result.derived)
        assert all(d.generality == 0 for d in result.derived)


def _assert_provenance_consistent(result) -> None:
    """Every entry's parent pointer must be the *live* entry for the
    parent's content, its step chain must extend that entry's chain by
    exactly its own step, and every DAG edge must resolve — the
    invariant the keep-cheaper re-parenting maintains."""
    for derived in result.derived:
        if derived.parent is None:
            continue
        live_parent = result.lookup(derived.parent.event.signature)
        assert live_parent is derived.parent, (
            f"stale parent for {derived.event.format()}: chain runs through a "
            f"replaced provenance"
        )
        assert derived.steps[: len(derived.steps) - 1] == live_parent.steps
    for parent_sig, child_sig in result.dag_edges():
        assert result.lookup(parent_sig) is not None
        assert result.lookup(child_sig) is not None


class TestKeepCheaperProvenance:
    """A cheaper derivation replacing an already-expanded entry must
    rewrite its descendants' chains too (PR 4 satellite: dag_edges /
    provenance staleness)."""

    @staticmethod
    def _kb() -> KnowledgeBase:
        kb = KnowledgeBase()
        kb.add_domain("d").add_chain("v", "w")
        # generality-0 two-step route to the same content the hierarchy
        # reaches at generality 1 — arrives one iteration later, after
        # the hierarchy's entry has already been expanded by r3
        kb.add_rule(
            MappingRule.equivalence(
                "r1", {"a": "v"}, {"b": "x"}, mode=OutputMode.REPLACE
            )
        )
        kb.add_rule(
            MappingRule.equivalence(
                "r2", {"b": "x"}, {"a": "w"}, mode=OutputMode.REPLACE
            )
        )
        kb.add_rule(MappingRule.equivalence("r3", {"a": "w"}, {"c": "z"}))
        return kb

    def test_descendants_reparented_onto_cheaper_chain(self):
        pipeline = SemanticPipeline(self._kb(), SemanticConfig())
        result = pipeline.process_event(Event({"a": "v"}))
        replaced = result.lookup(Event({"a": "w"}).signature)
        assert replaced is not None
        # the mapping route (generality 0) replaced the hierarchy climb
        assert replaced.generality == 0
        assert [step.rule for step in replaced.steps] == ["r1", "r2"]
        child = result.lookup(Event({"a": "w", "c": "z"}).signature)
        assert child is not None
        # pre-fix the child kept the replaced hierarchy chain: parent
        # pointed at an object no longer in the result and its summed
        # generality stayed 1
        assert child.parent is replaced
        assert child.generality == 0
        assert [step.rule for step in child.steps] == ["r1", "r2", "r3"]
        _assert_provenance_consistent(result)

    def test_whole_expansion_is_provenance_consistent(self):
        pipeline = SemanticPipeline(_kb(), SemanticConfig(present_year=2003))
        result = pipeline.process_event(
            Event({"degree": "PhD", "graduation_year": 1993})
        )
        _assert_provenance_consistent(result)

    def test_same_pass_adoption_seen_by_later_frontier_sibling(self):
        """An adoption can land *before* the replaced entry's own turn in
        the same frontier pass (the descendant walk cannot help — the
        children do not exist yet): the sibling must expand under the
        live cheaper chain, not the superseded object it was enqueued
        as.  Pre-fix the child below kept the g=2 hierarchy chain and a
        dead parent pointer."""
        kb = KnowledgeBase()
        kb.add_domain("d").add_chain("v", "w", "u")
        # canonical variant (g0) integrates before the +2 climb (g2),
        # so its mapping route can replace the climb mid-pass
        kb.add_value_synonyms(["car", "automobile"], root="automobile")
        kb.add_rule(
            MappingRule.equivalence(
                "r_cheap",
                {"p": "automobile", "a": "v"},
                {"p": "car", "a": "u"},
                mode=OutputMode.REPLACE,
            )
        )
        kb.add_rule(MappingRule.equivalence("r3", {"a": "u"}, {"c": "z"}))
        pipeline = SemanticPipeline(kb, SemanticConfig())
        result = pipeline.process_event(Event({"p": "car", "a": "v"}))
        adopted = result.lookup(Event({"p": "car", "a": "u"}).signature)
        assert adopted is not None and adopted.generality == 0
        assert [step.rule or step.stage for step in adopted.steps] == ["hierarchy", "r_cheap"]
        child = result.lookup(Event({"p": "car", "a": "u", "c": "z"}).signature)
        assert child is not None
        assert child.parent is adopted
        assert child.generality == 0
        _assert_provenance_consistent(result)


class TestKeepCheaperWithinStepCap:
    """A keep-cheaper adoption can swap a row's chain for a cheaper but
    longer one.  ``max_iterations`` caps the substitutions per chain, so
    neither the row's existing descendants nor the candidates it offers
    afterwards may run past the cap: they keep the row's former chain."""

    @staticmethod
    def _rows(result) -> dict:
        return {d.event.format(): d for d in result.derived}

    @staticmethod
    def _path(derived) -> list[str]:
        return [step.rule or step.description for step in derived.steps]

    def test_candidates_of_a_row_adopted_to_the_cap_extend_its_former_chain(self):
        # (b, t0) costs 3 as one climb, 2 as climb-to-t1 + r-replace; the
        # cheaper route lands one step from the cap before the row expands
        kb = KnowledgeBase()
        kb.add_domain("d").add_chain("t4", "t3", "t1", "t0")
        kb.add_rule(
            MappingRule.equivalence("r-replace", {"b": "t1"}, {"b": "t0"}, mode=OutputMode.REPLACE)
        )
        kb.add_rule(MappingRule.equivalence("r4", {"a": "t4", "b": "t0"}, {"e": "y"}))
        pipeline = SemanticPipeline(kb, SemanticConfig(max_iterations=2))
        result = pipeline.process_event(Event({"a": "t4", "b": "t4"}))
        assert result.adopted
        assert max(d.depth for d in result.derived) == 2
        rows = self._rows(result)
        adopted = rows["(a, t4)(b, t0)"]
        assert (adopted.generality, adopted.depth) == (2, 2)
        assert self._path(adopted) == ["value 't4' of 'b' generalized to 't1'", "r-replace"]
        both = rows["(a, t0)(b, t0)"]
        assert (both.generality, both.depth) == (6, 2)
        assert self._path(both) == [
            "value 't4' of 'a' generalized to 't0'",
            "value 't4' of 'b' generalized to 't0'",
        ]
        # r4 fires on the adopted row alone: on its cheaper chain that is
        # a third step, so the one-climb chain is extended instead
        rebased = rows["(a, t4)(b, t0)(e, y)"]
        assert (rebased.generality, rebased.depth) == (3, 2)
        assert self._path(rebased) == ["value 't4' of 'b' generalized to 't0'", "r4"]
        assert rebased.parent is result.derived[0]

    def test_descendants_the_cheaper_chain_would_take_past_the_cap_keep_theirs(self):
        # (b, t0)(c, u1) is expanded (r3, the c climb) before the mapping
        # route r reaches it at generality 1 and depth 2
        kb = KnowledgeBase()
        kb.add_domain("d").add_chain("t4", "t3", "t0")
        kb.add_domain("e").add_chain("u1", "u2")
        kb.add_rule(
            MappingRule.equivalence(
                "r", {"b": "t4", "c": "u2"}, {"b": "t0", "c": "u1"}, mode=OutputMode.REPLACE
            )
        )
        kb.add_rule(MappingRule.equivalence("r3", {"b": "t0"}, {"d": "z"}))
        pipeline = SemanticPipeline(kb, SemanticConfig(max_iterations=2))
        result = pipeline.process_event(Event({"b": "t4", "c": "u1"}))
        assert result.adopted
        assert max(d.depth for d in result.derived) == 2
        rows = self._rows(result)
        adopted = rows["(b, t0)(c, u1)"]
        assert (adopted.generality, adopted.depth) == (1, 2)
        assert self._path(adopted) == ["value 'u1' of 'c' generalized to 'u2'", "r"]
        kept = rows["(b, t0)(c, u1)(d, z)"]
        assert (kept.generality, kept.depth) == (2, 2)
        assert self._path(kept) == ["value 't4' of 'b' generalized to 't0'", "r3"]
        assert kept.parent is result.derived[0]
        climbed = rows["(b, t0)(c, u2)"]
        assert (climbed.generality, climbed.depth) == (3, 2)

    def test_a_match_reports_the_chain_within_the_cap(self):
        kb = KnowledgeBase()
        kb.add_domain("d").add_chain("t4", "t3", "t1", "t0")
        kb.add_rule(
            MappingRule.equivalence("r-replace", {"b": "t1"}, {"b": "t0"}, mode=OutputMode.REPLACE)
        )
        engine = SToPSS(kb, config=SemanticConfig(max_iterations=2))
        engine.subscribe(parse_subscription("(a = t0) and (b = t0)"))
        event = Event({"a": "t4", "b": "t4"})
        (match,) = engine.publish(event)
        assert (match.generality, match.matched_via.depth) == (6, 2)
        twin = engine.explain(event).lookup(match.matched_via.event.signature)
        assert twin.steps == match.matched_via.steps


class TestTruncationAndPruning:
    """The max_derived_events cap, its counter, and the documented
    interaction with demand-driven pruning (PR 4 satellite)."""

    @staticmethod
    def _wide_kb() -> KnowledgeBase:
        kb = KnowledgeBase()
        taxonomy = kb.add_domain("d")
        # eight parents nobody subscribes to, enumerated before the
        # chain that leads to the subscribed term
        for index in range(8):
            taxonomy.add_isa("t0", f"u{index}")
        taxonomy.add_chain("t0", "s1", "s2")
        return kb

    def _interest(self, kb) -> InterestIndex:
        index = InterestIndex(kb, SemanticConfig())
        index.add(Subscription([Predicate.eq("v", "s2")], sub_id="s"))
        return index

    def test_truncation_count_accumulates(self):
        pipeline = SemanticPipeline(self._wide_kb(), SemanticConfig(max_derived_events=3))
        first = pipeline.process_event(Event({"v": "t0"}))
        second = pipeline.process_event(Event({"v": "t0"}, event_id="again"))
        assert first.truncated and second.truncated
        assert len(first.derived) == 3
        assert pipeline.truncation_count == 2

    def test_cap_is_exact_and_orderly(self):
        pipeline = SemanticPipeline(self._wide_kb(), SemanticConfig(max_derived_events=5))
        result = pipeline.process_event(Event({"v": "t0"}))
        assert result.truncated
        assert len(result.derived) == 5
        # discovery order: root, then the first four enumerated parents
        assert result.derived[0].event["v"] == "t0"

    def test_pruning_dodges_truncation(self):
        kb = self._wide_kb()
        config = SemanticConfig(max_derived_events=6)
        exhaustive = SemanticPipeline(kb, config).process_event(Event({"v": "t0"}))
        pruned = SemanticPipeline(kb, config).process_event(
            Event({"v": "t0"}), interest=self._interest(kb)
        )
        # the exhaustive run burns the cap on uninteresting parents and
        # never derives the subscribed form...
        assert exhaustive.truncated
        assert all(d.event["v"] != "s2" for d in exhaustive.derived)
        # ...the pruned run skips them, stays under the cap, and keeps
        # the subscriber-reachable branch — the one case where pruned
        # and exhaustive match sets legitimately diverge
        assert not pruned.truncated
        assert {d.event["v"] for d in pruned.derived} == {"t0", "s1", "s2"}

    def test_interest_pruning_off_forces_exhaustive(self):
        kb = self._wide_kb()
        config = SemanticConfig(max_derived_events=6, interest_pruning=False)
        result = SemanticPipeline(kb, config).process_event(
            Event({"v": "t0"}), interest=self._interest(kb)
        )
        # the global kill switch wins even when a caller passes an index
        assert result.truncated
