"""The untimed verification pass.

The script is replayed into a reference engine on a separately built
identical world — the naive matcher over an exhaustive, un-interned,
un-pruned, un-cached expansion (ROADMAP item 4's reference semantics) —
and the ``(sub_id, generality)`` sets recorded during the timed run are
compared with the reference's at the same point in the churn /
ontology-write stream.

A publication whose expansion hit ``max_derived_events`` is excluded and
counted: what survives truncation depends on expansion order, which
pruning changes on purpose.  The pruned expansion is a subset of the
exhaustive one, so a publication that truncated in the system under test
truncates here too; the recorded flag only saves the reference the work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import SemanticConfig
from repro.core.engine import SToPSS
from repro.model.parser import parse_event

from bench.workloads import KB, PUB, SUB, UNSUB, Plan

__all__ = ["Verification", "replay"]


@dataclass
class Verification:
    compared: int = 0
    mismatches: int = 0
    truncated_skipped: int = 0
    #: the first few disagreements, for the failure message
    examples: list[dict] = field(default_factory=list)

    def summary(self) -> dict[str, object]:
        return {
            "compared": self.compared,
            "mismatches": self.mismatches,
            "truncated_skipped": self.truncated_skipped,
            "examples": self.examples,
        }


def replay(plan: Plan, samples: dict[int, tuple]) -> Verification:
    kb = plan.reference_world.kb
    reference = SToPSS(
        kb,
        matcher="naive",
        config=SemanticConfig(interning=False, interest_pruning=False, expansion_cache_size=0),
    )
    held = plan.reference_ids
    for _, subscription in plan.residents:
        if subscription.sub_id in held:
            reference.subscribe(subscription)
    result = Verification()
    for index, op in enumerate(plan.ops):
        code = op[0]
        if code == SUB:
            if op[2].sub_id in held:
                reference.subscribe(op[2])
        elif code == UNSUB:
            if op[1] in held:
                reference.unsubscribe(op[1])
        elif code == KB:
            kb.add_value_synonyms([op[1], op[2]], root=op[1])
        elif code == PUB and index in samples:
            observed, truncated = samples[index]
            if truncated:
                result.truncated_skipped += 1
                continue
            event = parse_event(op[1]) if isinstance(op[1], str) else op[1]
            before = reference.pipeline.truncation_count
            expected = frozenset(
                (match.subscription.sub_id, match.generality) for match in reference.publish(event)
            )
            if reference.pipeline.truncation_count > before:
                result.truncated_skipped += 1
                continue
            result.compared += 1
            if observed != expected:
                result.mismatches += 1
                if len(result.examples) < 3:
                    result.examples.append(
                        {
                            "op": index,
                            "missing": sorted(expected - observed),
                            "unexpected": sorted(observed - expected),
                        }
                    )
    return result
