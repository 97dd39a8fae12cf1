"""Tier-1 smoke test of the benchmark: all four workloads at ``--smoke``
scale (``mega-small`` standing in for the deep world), traced, in this
process.  It checks the shape of what the benchmark reports, not the
numbers."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from bench.harness import END_TO_END, HEADLINE, PER_LAYER, RECORDED, run_workload
from bench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
DECLARED = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_declaration_matches_the_harness():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    for section, catalog in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in DECLARED[section]} == catalog
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    names += [w["name"] for w in DECLARED["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in DECLARED["end_to_end"] + DECLARED["per_layer"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in DECLARED["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in DECLARED["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in DECLARED["workloads"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run(name, tmp_path):
    trace_file = tmp_path / "trace.json"
    result = run_workload(name, seed=7, seconds=1, traced=True, smoke=True, trace_path=trace_file)

    assert set(result.end_to_end) == set(END_TO_END)
    assert set(result.headline) == set(HEADLINE)
    assert set(result.per_layer) == set(PER_LAYER)
    assert set(result.recorded) == set(RECORDED)
    assert all(value > 0 for value in [*result.end_to_end.values(), *result.headline.values()])
    assert result.failed == 0 and result.attempted > 0

    # verification ran, and agreed
    assert result.correct, result.notes["verify"]
    assert result.per_layer["verify.compared"] >= 4

    # the layers this workload has, and only those
    workload = WORKLOADS[name]
    assert (result.per_layer["sharding.share"] > 0) == bool(workload.shards)
    assert (result.recorded["sharding.publish_ms"] > 0) == bool(workload.shards)
    assert (result.per_layer["durability.share"] > 0) == workload.durable
    assert (result.notes["recover_s"] > 0) == workload.durable
    assert (result.recorded["model.parse_event_us"] > 0) == workload.text_events

    # the span tree: self times sum to the root span
    payload = json.loads(trace_file.read_text())
    fields = payload["fields"]
    spans = [dict(zip(fields, span)) for span in payload["spans"]]
    assert any(span["name"] == "broker.publish" and span["parent"] < 0 for span in spans)
    root_of: list[int] = []
    self_sum: dict[int, float] = {}
    for index, span in enumerate(spans):
        assert span["parent"] < index
        root = index if span["parent"] < 0 else root_of[span["parent"]]
        root_of.append(root)
        self_sum[root] = self_sum.get(root, 0.0) + span["self_s"]
    for root, total in self_sum.items():
        busy = spans[root]["end"] - spans[root]["start"]
        assert abs(total - busy) <= 0.02 * busy + 1e-9
