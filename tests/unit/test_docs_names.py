"""Every code name the docs backtick is a name the code still has.

Prose goes stale quietly: a rename or a deletion leaves the docs naming
something that is not there.  This check reads every inline backticked
span in ``docs/*.md`` and ``README.md`` (fenced blocks are
``test_docs_snippets.py``'s) and keeps the *code-like* ones: dotted
identifiers, or identifiers with an underscore, a call's ``()`` or
camel case — ``CountingMatcher._users``, ``match_batch()``,
``ShardedEngine`` — not plain words such as ``serial``.  Each part of
such a name must occur as an identifier in the code: ``src/``,
``bench/``, ``tests/``, the legacy ``benchmarks/`` suite, the CI file,
or a runnable snippet of the docs themselves.  A name that is a file of
the code (``test_sharding.py``, ``test_closure_kernel``) or starts with
a standard-library module passes too.

Names that only the history sections still need — what earlier changes
deleted or renamed — are listed in ``HISTORY``.  The list may only
shrink: an entry that now resolves, or that its document no longer
mentions, fails the check until it is taken off.
"""

from __future__ import annotations

import pathlib
import re
import sys

import pytest

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
_DOC_FILES = sorted(_REPO_ROOT.glob("docs/*.md")) + [_REPO_ROOT / "README.md"]
_CODE_DIRS = ("src", "bench", "tests", "benchmarks")
_CI_FILE = _REPO_ROOT / ".github" / "workflows" / "ci.yml"

_FENCE = re.compile(r"^```.*?^```$", re.MULTILINE | re.DOTALL)
_SPAN = re.compile(r"`([^`]+)`")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*(?:\(\))?")
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: document -> names that only its history still needs
HISTORY = {
    "ARCHITECTURE.md": frozenset(
        {
            "_adopt",
            "_adopt_cheaper",
            "_appended",
            "_attribute_sizes",
            "_basis",
            "_canonical_sid",
            "_concept_table_lock",
            "_concepts",
            "_decode_config",
            "_deepest",
            "_down_closure",
            "_extend",
            "_log_entry",
            "_matcher_spec",
            "_merge_rows",
            "_more_sids",
            "_move",
            "_nid_number",
            "_parents",
            "_peers",
            "_rebase",
            "_reconfigure_with_matcher",
            "_record_failure",
            "_reduce_batch_matches",
            "_report",
            "_require_numpy",
            "_restored_pending",
            "_seq_of",
            "_shard_replica_spec",
            "_sizes",
            "_snapshot",
            "_stale",
            "_subs_by_id",
            "_subscriber_of",
            "_supervised_publish",
            "_term_sids",
            "_tid_by_spelling",
            "_usable_fast",
            "_usages",
            "added_pairs",
            "adopt_snapshot",
            "appended_spellings",
            "appended_terms",
            "attributes.is_normalized_attribute",
            "AttributeSpec",
            "BatchDedup",
            "begin_replay",
            "bench_a2",
            "bench_a3",
            "bench_c2",
            "bench_fig1",
            "BernoulliSampler",
            "bind_dedup",
            "breaker_opens",
            "catch_up",
            "catch_ups",
            "child_rows",
            "ClusterMatcher",
            "concept_rows",
            "ConceptTable._extend",
            "ConceptTable.catch_up",
            "CounterRegistry",
            "DerivedEvent.removed_pairs",
            "DetachedTableError",
            "DomainBuilder",
            "durability._decode_config",
            "electronics_schema",
            "errors.PipelineLimitError",
            "errors.SchemaError",
            "Event.to_dict",
            "expand_subscription",
            "expand_subscription_charged",
            "expansion_cache_hit_rate",
            "expansion_cache_info",
            "export_shared",
            "extend_delta",
            "format_subscription",
            "from_chains",
            "GaussianIntSampler",
            "HAVE_NUMPY",
            "IntRangeSampler",
            "jobs_schema",
            "JOURNAL_WINDOW",
            "keep_own",
            "KnowledgeBase._take_appended",
            "KnowledgeBase.has_domain",
            "KnowledgeBaseBuilder",
            "matching.index.equality_key",
            "MatchingAlgorithm._batch_score",
            "not_found",
            "parser.format_event",
            "Period.is_open",
            "PipelineResult.semantic_only",
            "PipelineResult.witness_of",
            "Predicate._key",
            "PredicateIndex.equality_profile",
            "ProcessExecutor",
            "publish_retries",
            "READABLE_FORMATS",
            "resolve_backend",
            "Response.redirect",
            "rules_triggered_by",
            "scalar_fallbacks",
            "SchemaRegistry",
            "SemanticConfig.with_tolerance",
            "SemanticPipeline.has_stateful_stages",
            "SemanticStage.stateful",
            "SerialExecutor",
            "ShardedEngine._engine_factory",
            "SharedClosureSnapshot",
            "SmtpTransport.sent_mail",
            "snapshot_fallbacks",
            "SnapshotMismatchError",
            "stage_names",
            "stale_subscriptions",
            "start_method",
            "state_for",
            "state_of",
            "SToPSS._derivation_score",
            "SToPSS._resolve_matcher",
            "Subscription.by_attribute",
            "Subscription.equality_pairs",
            "SubscriptionExpandingEngine",
            "SubscriptionExpansion",
            "take_appended",
            "Taxonomy.concept_rows",
            "Taxonomy.lowest_common_ancestor",
            "test_a_table_holds_its_knowledge_base_weakly",
            "test_catch_up_equals_rebuild",
            "test_vectorized_backend_equals_scalar",
            "test_vectorized_matchers_match_naive_through_churn",
            "test_wire_codec.py",
            "TestRetiredConfigKey",
            "Thesaurus._peers",
            "Thesaurus.take_appended",
            "ThreadedExecutor",
            "TraceOp",
            "UnknownSchemaError",
            "VectorizedClusterMatcher",
            "VectorizedCountingMatcher",
            "vehicles_schema",
            "warm_closures",
            "webapp.forms.optional_bool",
        }
    ),
    "PERFORMANCE.md": frozenset(
        {
            "_attribute_sizes",
            "_extend",
            "_Group",
            "_pair_contributions",
            "_seq_of",
            "_sizes",
            "_subs_by_id",
            "_subscriber_of",
            "_tid_by_spelling",
            "_usages",
            "added_pairs",
            "catch_up",
            "CountingMatcher._attribute_sizes",
            "CountingMatcher._sizes",
            "CountingMatcher._usages",
            "harness.publish_p50",
            "Predicate._key",
            "publish_p50",
            "removed_pairs",
            "ShardedEngine._seq_of",
            "ShardedEngine._subs_by_id",
            "state_for",
        }
    ),
}

#: the one-record change deleted these; the docs name them as history only
ONE_RECORD_DELETED = (
    "_subscriber_of",
    "_seq_of",
    "_subs_by_id",
    "_sizes",
    "_attribute_sizes",
    "_usages",
    "Predicate._key",
)


def _code_like(span: str) -> bool:
    return bool(_NAME.fullmatch(span)) and (
        "_" in span or "." in span or span.endswith("()") or bool(re.search("[a-z][A-Z]", span))
    )


def _corpus() -> tuple[set[str], set[str]]:
    """(identifiers the code and the runnable snippets use, code file
    names and stems)."""
    this = pathlib.Path(__file__).resolve()
    texts = [_CI_FILE.read_text()]
    files: set[str] = set()
    for directory in _CODE_DIRS:
        for path in (_REPO_ROOT / directory).rglob("*.py"):
            files.update((path.name, path.stem))
            if path.resolve() != this:
                texts.append(path.read_text())
    for doc in _DOC_FILES:
        texts.extend(_FENCE.findall(doc.read_text()))
    return set(_IDENTIFIER.findall("\n".join(texts))), files


_IDENTIFIERS, _FILES = _corpus()


def _resolves(name: str) -> bool:
    name = name.removesuffix("()")
    if name in _FILES:
        return True
    parts = name.split(".")
    return parts[0] in sys.stdlib_module_names or all(part in _IDENTIFIERS for part in parts)


def _unresolved(doc: pathlib.Path) -> set[str]:
    prose = _FENCE.sub("", doc.read_text())
    # a dotted name the prose wrapped after its dot is one name
    spans = (re.sub(r"(?<=\.)\s+", "", span) for span in _SPAN.findall(prose))
    return {span.removesuffix("()") for span in spans if _code_like(span) and not _resolves(span)}


@pytest.mark.parametrize("doc", _DOC_FILES, ids=lambda doc: doc.name)
def test_every_backticked_name_resolves(doc):
    stale = _unresolved(doc) - HISTORY.get(doc.name, frozenset())
    assert not stale, f"{doc.name} names what the code does not have: {sorted(stale)}"


@pytest.mark.parametrize("name", sorted(HISTORY))
def test_the_history_list_only_shrinks(name):
    listed = HISTORY[name]
    still_needed = _unresolved(_REPO_ROOT / "docs" / name)
    assert listed <= still_needed, (
        f"take these off HISTORY[{name!r}]: {sorted(listed - still_needed)}"
    )


def test_names_the_one_record_change_deleted_are_history():
    for name in ONE_RECORD_DELETED:
        assert not _resolves(name), name
        assert name in HISTORY["ARCHITECTURE.md"], name
