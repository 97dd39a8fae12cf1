"""Unit tests for the subscription interest index (demand-driven
expansion pruning): accepted sets, wildcard operators, descent-closure
reachability with budgets, incremental churn, and the mapping-rule
relevance fixpoint."""

from __future__ import annotations

import pytest

from repro.core.config import SemanticConfig
from repro.core.interest import InterestIndex
from repro.model.predicates import Predicate
from repro.model.subscriptions import Subscription
from repro.ontology.knowledge_base import KnowledgeBase
from repro.ontology.mappingdefs import MappingRule


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

    def test_invalidate_semantics_sees_new_taxonomy(self):
        kb = _kb()
        index = _index(kb, None, Subscription([Predicate.eq("x", "top")], sub_id="s"))
        assert not index.value_interesting("x", "fresh", None)
        kb.taxonomy("d").add_chain("fresh", "top")
        index.invalidate_semantics()
        assert index.value_interesting("x", "fresh", 1)


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
        # touching a closure materializes its keys into the stats
        index.value_interesting("x", "leaf", None)
        assert index.stats()["closure_keys"] >= 3
