"""Knowledge-base persistence: JSON save/load.

DAML+OIL (:mod:`repro.ontology.daml`) is the *interchange* format the
paper targets; this module is the *operational* format — a complete,
versioned JSON snapshot of a knowledge base (domains, synonym groups,
and declarative mapping rules) so a deployment can persist and reload
its knowledge without re-running builder code.

Function-backed mapping rules (``MappingRule.function``) cannot be
serialized — they carry arbitrary Python callables.  ``save`` rejects
them by default; pass ``skip_unserializable=True`` to persist everything
else and report what was dropped.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import OntologyError
from repro.model.predicates import Operator, Predicate, Range
from repro.model.values import Period, Value
from repro.ontology.knowledge_base import KnowledgeBase
from repro.ontology.mappingdefs import Expr, MappingRule, OutputMode, Requirement

__all__ = ["kb_to_dict", "kb_from_dict", "save_kb", "load_kb"]

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# value encoding (JSON cannot hold Periods or distinguish 4 from 4.0 intent)
# ---------------------------------------------------------------------------

def _encode_value(value: Value) -> object:
    if isinstance(value, Period):
        return {"__period__": [value.start, value.end]}
    return value


def _decode_value(raw: object) -> Value:
    if isinstance(raw, dict) and "__period__" in raw:
        start, end = raw["__period__"]
        return Period(start, end)
    return raw  # type: ignore[return-value]


def _encode_predicate(predicate: Predicate) -> dict:
    data: dict = {"attribute": predicate.attribute, "operator": predicate.operator.name}
    if predicate.operator is Operator.RANGE:
        rng = predicate.operand
        data["operand"] = {
            "low": _encode_value(rng.low),  # type: ignore[union-attr]
            "high": _encode_value(rng.high),  # type: ignore[union-attr]
        }
    elif predicate.operator is Operator.IN:
        data["operand"] = sorted(
            (_encode_value(v) for v in predicate.operand),  # type: ignore[union-attr]
            key=repr,
        )
    elif predicate.operator is not Operator.EXISTS:
        data["operand"] = _encode_value(predicate.operand)  # type: ignore[arg-type]
    return data


def _decode_predicate(data: dict) -> Predicate:
    operator = Operator[data["operator"]]
    if operator is Operator.EXISTS:
        return Predicate.exists(data["attribute"])
    if operator is Operator.RANGE:
        rng = data["operand"]
        return Predicate(
            data["attribute"],
            operator,
            Range(_decode_value(rng["low"]), _decode_value(rng["high"])),
        )
    if operator is Operator.IN:
        return Predicate(
            data["attribute"],
            operator,
            frozenset(_decode_value(v) for v in data["operand"]),
        )
    return Predicate(data["attribute"], operator, _decode_value(data["operand"]))


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------

def _encode_rule(rule: MappingRule) -> dict | None:
    """Encode a declarative rule; ``None`` for function-backed rules."""
    if rule.fn is not None:
        return None
    outputs = []
    for attribute, producer in rule.outputs:
        if isinstance(producer, Expr):
            outputs.append({"attribute": attribute, "expr": producer.text})
        elif callable(producer):
            return None  # callable producer: not serializable
        else:
            outputs.append({"attribute": attribute, "const": _encode_value(producer)})
    return {
        "name": rule.name,
        "domain": rule.domain,
        "description": rule.description,
        "mode": rule.mode.value,
        "requires": [
            {
                "attribute": req.attribute,
                "predicate": _encode_predicate(req.predicate) if req.predicate else None,
            }
            for req in rule.requires
        ],
        "outputs": outputs,
    }


def _decode_rule(data: dict) -> MappingRule:
    requires = tuple(
        Requirement(
            entry["attribute"],
            _decode_predicate(entry["predicate"]) if entry.get("predicate") else None,
        )
        for entry in data["requires"]
    )
    outputs = []
    for entry in data["outputs"]:
        if "expr" in entry:
            outputs.append((entry["attribute"], Expr.parse(entry["expr"])))
        else:
            outputs.append((entry["attribute"], _decode_value(entry["const"])))
    return MappingRule(
        name=data["name"],
        requires=requires,
        outputs=tuple(outputs),
        mode=OutputMode(data["mode"]),
        domain=data.get("domain", ""),
        description=data.get("description", ""),
    )


# ---------------------------------------------------------------------------
# knowledge base
# ---------------------------------------------------------------------------

def kb_to_dict(kb: KnowledgeBase, *, skip_unserializable: bool = False) -> dict:
    """Snapshot *kb* as a JSON-compatible dict.

    Raises :class:`~repro.errors.OntologyError` when a function-backed
    rule is present and ``skip_unserializable`` is false.
    """
    domains = {}
    for domain in kb.domains():
        taxonomy = kb.taxonomy(domain)
        display = {concept.key: concept.term for concept in taxonomy}
        domains[domain] = {
            "concepts": [
                {"term": concept.term, "description": concept.description}
                for concept in taxonomy
            ],
            # in declaration order: a concept's parents are walked in the
            # order they were declared, and that order decides which
            # generalizations survive ``max_derived_events``
            "edges": [[display[child], display[parent]] for child, parent in taxonomy.isa_edges()],
        }
    rules = []
    dropped = []
    for rule in kb.rules():
        encoded = _encode_rule(rule)
        if encoded is None:
            dropped.append(rule.name)
        else:
            rules.append(encoded)
    if dropped and not skip_unserializable:
        raise OntologyError("cannot serialize function-backed mapping rules: " + ", ".join(dropped))
    return {
        "format_version": FORMAT_VERSION,
        "name": kb.name,
        "attribute_synonyms": [
            {"root": kb.root_attribute(next(iter(group))), "terms": sorted(group)}
            for group in kb.attribute_synonym_groups()
        ],
        "value_synonyms": [
            {"root": kb.value_root(next(iter(group))), "terms": sorted(group)}
            for group in kb.value_synonym_groups()
        ],
        "domains": domains,
        "rules": rules,
        "dropped_rules": dropped,
    }


def kb_from_dict(data: dict) -> KnowledgeBase:
    """Rebuild a knowledge base from :func:`kb_to_dict` output."""
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise OntologyError(f"unsupported knowledge-base format version {version!r}")
    kb = KnowledgeBase(data.get("name", "kb"))
    for group in data.get("attribute_synonyms", ()):
        kb.add_attribute_synonyms(group["terms"], root=group["root"])
    for group in data.get("value_synonyms", ()):
        kb.add_value_synonyms(group["terms"], root=group["root"])
    for domain, payload in data.get("domains", {}).items():
        taxonomy = kb.add_domain(domain)
        for concept in payload.get("concepts", ()):
            taxonomy.add_concept(concept["term"], concept.get("description", ""))
        for child, parent in payload.get("edges", ()):
            taxonomy.add_isa(child, parent)
    for rule_data in data.get("rules", ()):
        kb.add_rule(_decode_rule(rule_data))
    return kb


def save_kb(kb: KnowledgeBase, path: str | Path, *, skip_unserializable: bool = False) -> None:
    """Write *kb* to *path* as JSON."""
    payload = kb_to_dict(kb, skip_unserializable=skip_unserializable)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")


def load_kb(path: str | Path) -> KnowledgeBase:
    """Read a knowledge base previously written by :func:`save_kb`."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise OntologyError(f"malformed knowledge-base file {path}: {exc}") from exc
    return kb_from_dict(data)
