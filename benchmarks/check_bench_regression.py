"""CI benchmark-regression gate for the batched publish path.

Compares a freshly generated ``BENCH_publish.json`` (written by
``bench_c1_stage_overhead.py::test_c1_batch_vs_serial_publish``, output
path overridable via ``STOPSS_BENCH_OUTPUT``) against the committed
baseline, per ``(configuration, matcher)`` row:

* ``batch_predicate_evaluations`` must not increase by more than the
  tolerance — the number of predicate evaluations one trace pass costs
  is the deterministic proxy for publish cost;
* ``probes_saved`` (and its two-pass variant, which exercises the
  cross-publication memo on a trace replay) must not decrease by more
  than the tolerance;
* ``candidates_pruned`` — the demand-driven expansion's savings
  counter — must likewise not decrease by more than the tolerance: a
  drop means the interest index stopped vetoing derivations nobody
  subscribed to and the publish path slid back toward exhaustive
  expansion (same 10% policy as the predicate-eval counters).

The same gate serves ``BENCH_kernel.json`` (written by
``test_c1_kernel_backends``): one ``counting`` row, gated on the same
counters.  Every field is ``.get``-checked against the baseline row,
so a row that lacks a counter and old baselines never KeyError.

And ``BENCH_worlds.json`` (written by ``bench_worlds.py``): its
``world:*`` rows carry the deterministic world-build shape counters
(``world_concepts``, ``world_edges``, …), which are gated for **exact**
equality — a generated world that silently changes shape invalidates
every number measured against it, so no tolerance applies — and
``closure_fill_steps``, the terms the concept table's descent kernel
settled during the sweep, bound above like the predicate evaluations:
a rise means closures are being filled again that one pass used to
cover.

Counters are deterministic and machine-independent, so the tolerance
only absorbs intentional drift; tighten it if rows start flapping.

Wall-clock throughput (``publish_seconds`` / ``events_per_second`` per
row) is **recorded, not gated**: it is printed with every run and
written to the ``--report`` JSON (uploaded as a CI artifact) so the
throughput trajectory accumulates across PRs, but machine noise never
fails the gate.

Usage::

    python benchmarks/check_bench_regression.py BASELINE FRESH \
        [--tolerance 0.10] [--report throughput.json]

Exit status 0 = within tolerance, 1 = regression, 2 = usage/shape error.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

#: rows where the baseline counter is tiny are skipped for the
#: lower-bound checks — a saved-probe count of 3 dropping to 2 is not a
#: regression signal, it is noise around an irrelevant code path.
MIN_BASELINE = 20

#: cost counters: must not *increase* past tolerance.  Fields are
#: looked up with ``.get`` and skipped when absent from the baseline
#: row, so one gate serves every payload family — every row carries
#: the predicate-evaluation counter, ``BENCH_worlds`` rows add the
#: closure fill steps.
UPPER_FIELDS = (
    "batch_predicate_evaluations",
    "closure_fill_steps",
)

#: savings counters: must not *decrease* past tolerance.
LOWER_FIELDS = (
    "probes_saved",
    "probes_saved_two_passes",
    "candidates_pruned",
)

#: deterministic world-build shape counters (``BENCH_worlds`` rows):
#: a seeded world must rebuild *identically*, so these are compared for
#: exact equality whenever the baseline row carries them.
EXACT_FIELDS = (
    "world_concepts",
    "world_edges",
    "world_leaves",
    "world_depth",
    "world_synonym_spellings",
    "world_rules",
    "world_terms",
)


def _rows(payload: dict) -> dict[tuple[str, str], dict]:
    return {
        (entry["configuration"], entry["matcher"]): entry
        for entry in payload.get("configurations", [])
    }


def compare(baseline: dict, fresh: dict, tolerance: float) -> list[str]:
    """Human-readable regression descriptions (empty = gate passes)."""
    failures: list[str] = []
    base_rows = _rows(baseline)
    fresh_rows = _rows(fresh)
    missing = sorted(set(base_rows) - set(fresh_rows))
    if missing:
        failures.append(f"rows missing from fresh run: {missing}")
    for key in sorted(set(base_rows) & set(fresh_rows)):
        base, new = base_rows[key], fresh_rows[key]
        label = "/".join(key)

        for field in EXACT_FIELDS:
            if field not in base:
                continue
            if new.get(field) != base[field]:
                failures.append(
                    f"{label}: {field} changed {base[field]} -> {new.get(field)} "
                    "(deterministic world shape; must match exactly)"
                )

        for field in UPPER_FIELDS:
            if field not in base:
                continue
            base_cost = base[field]
            new_cost = new.get(field, 0)
            if new_cost > base_cost * (1 + tolerance):
                failures.append(
                    f"{label}: {field} regressed {base_cost} -> {new_cost} "
                    f"(+{100 * (new_cost / max(base_cost, 1) - 1):.1f}%)"
                )

        for field in LOWER_FIELDS:
            base_saved = base.get(field, 0)
            new_saved = new.get(field, 0)
            if base_saved < MIN_BASELINE:
                continue
            if new_saved < base_saved * (1 - tolerance):
                failures.append(
                    f"{label}: {field} regressed {base_saved} -> {new_saved} "
                    f"(-{100 * (1 - new_saved / base_saved):.1f}%)"
                )
    return failures


def throughput_report(baseline: dict, fresh: dict) -> dict:
    """Record-only wall-clock summary per row: fresh seconds and
    events/sec next to the committed baseline's, with the speedup
    ratio.  Never gates — wall-clock is machine-dependent."""
    base_rows = _rows(baseline)
    rows = []
    for key, entry in sorted(_rows(fresh).items()):
        base = base_rows.get(key, {})
        base_eps = base.get("events_per_second", 0.0)
        fresh_eps = entry.get("events_per_second", 0.0)
        rows.append({
            "configuration": key[0],
            "matcher": key[1],
            "publish_seconds": entry.get("publish_seconds", 0.0),
            "publish_seconds_two_passes": entry.get("publish_seconds_two_passes", 0.0),
            "events_per_second": fresh_eps,
            "events_per_second_first_pass": entry.get("events_per_second_first_pass", 0.0),
            "baseline_events_per_second": base_eps,
            "speedup_vs_baseline": (fresh_eps / base_eps) if base_eps else None,
        })
    return {"throughput": rows}


def _print_throughput(report: dict) -> None:
    print("publish throughput (record-only, not gated):")
    for row in report["throughput"]:
        speedup = row["speedup_vs_baseline"]
        suffix = f" ({speedup:.2f}x vs baseline)" if speedup else ""
        print(
            f"  {row['configuration']}/{row['matcher']}: "
            f"{row['events_per_second']:.1f} events/s "
            f"({row['publish_seconds_two_passes']:.3f}s two-pass){suffix}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=pathlib.Path)
    parser.add_argument("fresh", type=pathlib.Path)
    parser.add_argument("--tolerance", type=float, default=0.10)
    parser.add_argument(
        "--report",
        type=pathlib.Path,
        default=None,
        help="write the record-only throughput summary to this JSON path",
    )
    args = parser.parse_args(argv)

    try:
        baseline = json.loads(args.baseline.read_text())
        fresh = json.loads(args.fresh.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot load benchmark payloads: {exc}", file=sys.stderr)
        return 2
    if not _rows(baseline) or not _rows(fresh):
        print("benchmark payloads carry no configuration rows", file=sys.stderr)
        return 2

    report = throughput_report(baseline, fresh)
    _print_throughput(report)
    if args.report is not None:
        args.report.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote throughput report to {args.report}")

    failures = compare(baseline, fresh, args.tolerance)
    if failures:
        print(f"benchmark regression gate FAILED ({len(failures)} finding(s)):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    rows = len(_rows(fresh))
    print(
        f"benchmark regression gate passed: {rows} rows within "
        f"{100 * args.tolerance:.0f}% of baseline"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
