"""Unit tests for the subscription interest index (demand-driven
expansion pruning): accepted sets, wildcard operators, descent-closure
reachability with budgets, incremental churn, and the mapping-rule
relevance fixpoint."""

from __future__ import annotations

import logging
import tracemalloc

import pytest

from repro.core.config import SemanticConfig
from repro.core.engine import SToPSS
from repro.core.interest import InterestIndex
from repro.model.events import Event
from repro.model.predicates import Predicate
from repro.model.subscriptions import Subscription
from repro.ontology.knowledge_base import KnowledgeBase
from repro.ontology.mappingdefs import MappingRule
from repro.workload.worlds import build_world


def _kb() -> KnowledgeBase:
    kb = KnowledgeBase()
    taxonomy = kb.add_domain("d")
    taxonomy.add_chain("leaf", "mid", "top")
    taxonomy.add_chain("other", "elsewhere")
    kb.add_value_synonyms(["leaf", "leaf-syn"], root="leaf")
    return kb


def _index(kb=None, config=None, *subs) -> InterestIndex:
    index = InterestIndex(kb if kb is not None else _kb(), config or SemanticConfig())
    for sub in subs:
        index.add(sub)
    return index


class TestValueInterest:
    def test_empty_index_accepts_nothing(self):
        index = _index()
        assert not index.value_interesting("x", "leaf")

    def test_descent_closure_and_budget(self):
        index = _index(None, None, Subscription([Predicate.eq("x", "top")], sub_id="s"))
        # anything that can climb to "top" is interesting, within budget
        assert index.value_interesting("x", "top", 0)
        assert index.value_interesting("x", "mid", 1)
        assert index.value_interesting("x", "leaf", 2)
        assert not index.value_interesting("x", "leaf", 1)
        assert index.value_interesting("x", "leaf", None)
        # unrelated branch / unconstrained attribute stay uninteresting
        assert not index.value_interesting("x", "other", None)
        assert not index.value_interesting("y", "top", None)

    def test_value_synonyms_are_distance_zero(self):
        index = _index(None, None, Subscription([Predicate.eq("x", "leaf")], sub_id="s"))
        assert index.value_interesting("x", "leaf-syn", 0)

    def test_in_predicate_members_accepted(self):
        index = _index(
            None, None, Subscription([Predicate.isin("x", ["mid", "zzz"])], sub_id="s")
        )
        assert index.value_interesting("x", "leaf", 1)
        assert index.value_interesting("x", "zzz", 0)
        assert not index.value_interesting("x", "other", None)

    def test_numeric_operands_match_by_canonical_key(self):
        index = _index(None, None, Subscription([Predicate.eq("n", 4)], sub_id="s"))
        assert index.value_interesting("n", 4.0, 0)
        assert not index.value_interesting("n", 5, None)

    @pytest.mark.parametrize(
        "predicate",
        [
            Predicate.ne("x", "leaf"),
            Predicate.ge("x", 4),
            Predicate.between("x", 1, 9),
            Predicate.prefix("x", "le"),
            Predicate.exists("x"),
        ],
    )
    def test_open_operators_wildcard_their_attribute(self, predicate):
        index = _index(None, None, Subscription([predicate], sub_id="s"))
        assert index.value_interesting("x", "anything at all", 0)
        assert not index.value_interesting("y", "anything at all", None)


class TestChurn:
    def test_remove_decays_refcounts(self):
        sub = Subscription([Predicate.eq("x", "top")], sub_id="s")
        index = _index(None, None, sub)
        assert index.value_interesting("x", "leaf", None)
        index.remove(sub)
        assert not index.value_interesting("x", "leaf", None)

    def test_shared_operand_survives_partial_removal(self):
        a = Subscription([Predicate.eq("x", "top")], sub_id="a")
        b = Subscription([Predicate.eq("x", "top")], sub_id="b")
        index = _index(None, None, a, b)
        index.remove(a)
        assert index.value_interesting("x", "leaf", None)
        index.remove(b)
        assert not index.value_interesting("x", "leaf", None)

    def test_generation_moves_on_churn_and_invalidation(self):
        index = _index()
        before = index.generation
        sub = Subscription([Predicate.eq("x", "top")], sub_id="s")
        index.add(sub)
        assert index.generation > before
        before = index.generation
        index.invalidate_semantics()
        assert index.generation > before

    def test_only_a_refcount_crossing_zero_drops_the_reach(self):
        a = Subscription([Predicate.eq("x", "top")], sub_id="a")
        b = Subscription([Predicate.eq("x", "top")], sub_id="b")
        index = _index(None, None, a)
        reach, generation = index.reach("x"), index.generation
        # the same operand again: the accepted key set does not move
        index.add(b)
        index.remove(a)
        assert index.generation == generation
        assert index.reach("x") is reach
        # the last one leaves: "top" is no longer accepted
        index.remove(b)
        assert index.generation > generation
        assert index.reach("x") is not reach and not index.reach("x")

    def test_an_open_predicate_drops_the_reach_only_when_it_opens_or_closes(self):
        a = Subscription([Predicate.ge("x", 1)], sub_id="a")
        b = Subscription([Predicate.ge("x", 2)], sub_id="b")
        index = _index(None, None, Subscription([Predicate.eq("x", "top")], sub_id="s"), a)
        generation = index.generation
        index.add(b)
        assert index.generation == generation and index.reach("x") is None
        index.remove(a)
        index.remove(b)
        assert index.generation > generation and index.reach("x")

    def test_an_equal_rule_analysis_keeps_every_reach(self, monkeypatch):
        """A first predicate on another attribute re-runs the rule
        analysis; it comes out equal, so the reach already built stays
        and no descent pass runs again.  Knowledge-base motion still
        drops it."""
        from repro.ontology.concept_table import ConceptTable

        kb = _kb()
        kb.add_rule(MappingRule.equivalence("r", {"a": "leaf"}, {"x": "top"}))
        calls = []
        descend = ConceptTable.descent_depths

        def counted(table, *args):
            calls.append(args)
            return descend(table, *args)

        monkeypatch.setattr(ConceptTable, "descent_depths", counted)
        index = _index(kb, None, Subscription([Predicate.eq("x", "top")], sub_id="s"))
        reach = index.reach("x")
        assert reach and len(calls) == 1
        other = Subscription([Predicate.eq("y", "mid")], sub_id="o")
        for _ in range(3):
            index.add(other)  # y's first predicate: the analysis re-runs ...
            assert index.reach("x") is reach  # ... and equals the last one
            index.remove(other)  # y's last one leaves: it re-runs again
            assert index.reach("x") is reach
        assert len(calls) == 1
        index.invalidate_semantics()
        assert index.reach("x") == reach and len(calls) == 2

    def test_invalidate_semantics_sees_new_taxonomy(self):
        kb = _kb()
        index = _index(kb, None, Subscription([Predicate.eq("x", "top")], sub_id="s"))
        assert not index.value_interesting("x", "fresh", None)
        kb.taxonomy("d").add_chain("fresh", "top")
        index.invalidate_semantics()
        assert index.value_interesting("x", "fresh", 1)


class TestInvalidationRecord:
    def test_kb_motion_logs_the_reach_it_drops(self, caplog):
        kb = _kb()
        engine = SToPSS(kb)
        engine.subscribe(Subscription([Predicate.eq("x", "top")], sub_id="s"))
        event = Event({"x": "leaf"})
        with caplog.at_level(logging.DEBUG, logger="repro.core.interest"):
            engine.publish(event)
            engine.publish(event)
            assert caplog.records == []  # a plain publish drops nothing
            entries = len(engine.interest.reach("x"))
            kb.taxonomy("d").add_chain("fresh", "top")
            engine.publish(event)
        (record,) = caplog.records
        assert record.levelno == logging.DEBUG
        assert record.getMessage().endswith(f"(kb-version): 1 closures, {entries} entries")


class TestRuleRelevance:
    def test_rule_with_constrained_output_is_relevant(self):
        kb = _kb()
        kb.add_rule(MappingRule.equivalence("r", {"a": "x"}, {"hit": "y"}))
        index = _index(kb, None, Subscription([Predicate.exists("hit")], sub_id="s"))
        assert index.rule_relevant("r")

    def test_rule_with_unconstrained_output_is_pruned(self):
        kb = _kb()
        kb.add_rule(MappingRule.equivalence("r", {"a": "x"}, {"nobody": "y"}))
        index = _index(kb, None, Subscription([Predicate.exists("hit")], sub_id="s"))
        assert not index.rule_relevant("r")
        assert index.stats()["pruned_rules"] == 1

    def test_relevance_chains_through_rule_graph(self):
        kb = _kb()
        kb.add_rule(MappingRule.equivalence("first", {"a": "x"}, {"link": "y"}))
        kb.add_rule(MappingRule.equivalence("second", {"link": "y"}, {"hit": "z"}))
        index = _index(kb, None, Subscription([Predicate.exists("hit")], sub_id="s"))
        assert index.rule_relevant("second")
        # relevant only because its output feeds the relevant "second"
        assert index.rule_relevant("first")

    def test_relevant_rule_guards_feed_accepted_set(self):
        kb = _kb()
        kb.add_rule(MappingRule.equivalence("r", {"x": "mid"}, {"hit": "y"}))
        index = _index(kb, None, Subscription([Predicate.exists("hit")], sub_id="s"))
        # "leaf" can climb to the guard value "mid", firing the rule
        assert index.value_interesting("x", "leaf", 1)
        assert not index.value_interesting("x", "other", None)

    def test_relevant_function_rule_wildcards_its_reads(self):
        kb = _kb()
        kb.add_rule(
            MappingRule.function(
                "fn",
                ["a"],
                lambda event, context: (("hit", 1),),
                reads=["a", "extra"],
            )
        )
        index = _index(kb, None, Subscription([Predicate.exists("hit")], sub_id="s"))
        # unknown outputs: always relevant; unguarded reads: wildcard
        assert index.rule_relevant("fn")
        assert index.value_interesting("a", "whatever", 0)
        assert index.value_interesting("extra", "whatever", 0)
        assert not index.value_interesting("b", "whatever", None)

    def test_prefix_family_read_wildcards_every_member(self):
        kb = _kb()
        kb.add_rule(
            MappingRule.function(
                "fn",
                ["period1"],
                lambda event, context: (("hit", 1),),
                reads=["period*"],
            )
        )
        index = _index(kb, None, Subscription([Predicate.exists("hit")], sub_id="s"))
        assert index.rule_relevant("fn")
        # the family is open-ended: every periodN stays unpruned,
        # including members far beyond any enumerated schema shape
        assert index.value_interesting("period", "whatever", 0)
        assert index.value_interesting("period7", "whatever", 0)
        assert index.value_interesting("period12", "whatever", 0)
        assert not index.value_interesting("salary", "whatever", None)
        assert index.stats()["wildcard_prefixes"] == 1

    def test_prefix_family_chains_rule_relevance(self):
        kb = _kb()
        kb.add_rule(
            MappingRule.function(
                "consumer",
                ["period1"],
                lambda event, context: (("hit", 1),),
                reads=["period*"],
            )
        )
        # producer's output lands inside the consumer's prefix family
        kb.add_rule(MappingRule.equivalence("producer", {"a": "x"}, {"period10": "y"}))
        index = _index(kb, None, Subscription([Predicate.exists("hit")], sub_id="s"))
        assert index.rule_relevant("producer")

    def test_unknown_reads_disable_pruning(self):
        kb = _kb()
        kb.add_rule(MappingRule.function("fn", ["a"], lambda e, c: None))
        index = _index(kb)
        assert index.stats()["disabled"]
        assert index.value_interesting("anything", "at all", 0)
        assert index.rule_relevant("fn")

    def test_mappings_disabled_ignores_rules(self):
        kb = _kb()
        kb.add_rule(MappingRule.function("fn", ["a"], lambda e, c: None))
        index = _index(kb, SemanticConfig(enable_mappings=False))
        assert not index.stats()["disabled"]
        assert not index.value_interesting("a", "whatever", None)

    def test_output_matters_through_attribute_generalization(self):
        kb = KnowledgeBase()
        kb.add_domain("d").add_chain("narrow name", "broad name")
        kb.add_rule(MappingRule.equivalence("r", {"a": "x"}, {"narrow_name": "y"}))
        index = _index(
            kb, None, Subscription([Predicate.exists("broad_name")], sub_id="s")
        )
        # the output attribute can be *renamed* to the constrained one
        assert index.rule_relevant("r")

    def test_churn_refreshes_relevance(self):
        kb = _kb()
        kb.add_rule(MappingRule.equivalence("r", {"a": "x"}, {"hit": "y"}))
        sub = Subscription([Predicate.exists("hit")], sub_id="s")
        index = _index(kb, None, sub)
        assert index.rule_relevant("r")
        index.remove(sub)
        assert not index.rule_relevant("r")


class TestMalformedGeneralizations:
    """A generalization that is no attribute name is skipped when rule
    relevance asks whether an output attribute renames onto a live one;
    any other error propagates."""

    @staticmethod
    def _index():
        kb = _kb()
        kb.add_domain("d").add_chain("deg", "Ph.D.", "hit")
        kb.add_rule(MappingRule.equivalence("r", {"a": "x"}, {"deg": "y"}))
        return _index(kb, None, Subscription([Predicate.exists("hit")], sub_id="s"))

    def test_a_spelling_that_is_no_attribute_is_skipped(self):
        # "Ph.D." does not normalize; "hit", one level further, does
        assert self._index().rule_relevant("r")

    def test_an_unrelated_error_propagates(self, monkeypatch):
        index = self._index()

        def broken(name):
            raise RuntimeError("not an attribute error")

        monkeypatch.setattr("repro.ontology.concept_table.normalize_attribute", broken)
        with pytest.raises(RuntimeError, match="not an attribute error"):
            index.rule_relevant("r")


class TestReach:
    def test_reach_decides_every_value_of_an_attribute_at_once(self):
        index = _index(
            None,
            None,
            Subscription([Predicate.eq("x", "top"), Predicate.ge("n", 4)], sub_id="s"),
        )
        table = index._kb.concept_table()
        reach = index.reach("x")
        assert reach[table.value_key("leaf")] == 2 and table.value_key("other") not in reach
        assert index.reach("n") is None  # an open predicate: every value
        assert not index.reach("nobody")  # nothing can be accepted


class TestReachFootprint:
    """A reach is two packed ``array('i')`` columns (spelling id, min
    depth): 8 bytes per entry plus a fixed overhead (the reach object,
    its array headers, its empty side dict and the index's slot for it).
    Pinned in traced bytes per built reach on the ``mega-small`` world,
    where a dict of the same 420 entries held 21–27 KB above 8 bytes an
    entry."""

    SUBSCRIPTIONS, FIXED = 200, 2048

    def test_a_reach_holds_eight_bytes_an_entry(self):
        world = build_world("mega-small")
        subscriptions = world.generator(seed=7).subscriptions(self.SUBSCRIPTIONS)
        index = _index(world.kb, None, *subscriptions)
        attributes = sorted({p.attribute for s in subscriptions for p in s.predicates})
        index.stats()  # the rule analysis, outside the measurement
        built = []
        tracemalloc.start()
        try:
            for attribute in attributes:
                before = tracemalloc.get_traced_memory()[0]
                reach = index.reach(attribute)
                if reach is not None:
                    held = tracemalloc.get_traced_memory()[0] - before
                    built.append((attribute, reach, held))
        finally:
            tracemalloc.stop()
        assert len(built) >= 2
        for attribute, reach, held in built:
            assert len(reach) == len(dict(reach.items())) > 0
            assert held <= 8 * len(reach) + self.FIXED, (attribute, len(reach), held)
        stats = index.stats()
        assert stats["closure_keys"] == sum(len(reach) for _, reach, _ in built)
        assert stats["closure_bytes"] == 8 * stats["closure_keys"]  # no non-string operand


class TestInterning:
    def test_value_interesting_within_budget(self):
        """The interned path: the string path builds no interest index
        (``interning=False`` is the exhaustive reference)."""
        index = _index(
            _kb(),
            SemanticConfig(interning=True),
            Subscription([Predicate.eq("x", "top")], sub_id="s"),
        )
        assert index.value_interesting("x", "leaf", 2)
        assert not index.value_interesting("x", "leaf", 1)
        assert not index.value_interesting("x", "other", None)


class TestStats:
    def test_shape_counters(self):
        index = _index(
            None,
            None,
            Subscription(
                [Predicate.eq("x", "top"), Predicate.ge("n", 4)], sub_id="s"
            ),
        )
        stats = index.stats()
        assert stats["attributes"] == 2
        assert stats["accepted_values"] == 1
        assert stats["wildcard_attributes"] == 1
        assert stats["size"] == 2
        assert stats["disabled"] == ""
        assert stats["closure_bytes"] == 0
        # touching a closure materializes its keys into the stats
        index.value_interesting("x", "leaf", None)
        stats = index.stats()
        assert stats["closure_keys"] >= 3
        assert stats["closure_bytes"] == 8 * stats["closure_keys"]
