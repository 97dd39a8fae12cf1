"""Command line of the benchmark.

One run of one workload, the form ``BENCHMARK.json``'s ``command``
takes (the last line printed is the result object)::

    python3 bench/run.py --workload steady-churn --seed 7 --seconds 15 --trace 0

The whole suite — every workload ``--repeat`` times untraced plus once
traced, each run in a fresh child process, with the determinism check
on the count block — written to ``bench/out/results.json``::

    python3 bench/run.py --seed 2003 [--repeat 3] [--smoke] [--out PATH]

Two result files side by side, against the bounds in ``BENCHMARK.json``::

    python3 bench/run.py --compare A.json B.json

``PYTHONPATH=src python -m bench.run`` from the repo root is the same
program.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

try:
    from bench.harness import END_TO_END, HEADLINE, OUT_DIR, PER_LAYER, RECORDED, run_workload
    from bench.workloads import REFERENCE_SECONDS, WORKLOADS
except ImportError as error:  # no src/ beside bench/: nothing to measure
    print(f"bench: cannot import the program under test ({ROOT / 'src'}): {error}", file=sys.stderr)
    sys.exit(2)

DEFAULT_SEED = 2003
RESULT_PREFIX = "result: "


# ---------------------------------------------------------------------------
# one run (the driver's contract)
# ---------------------------------------------------------------------------

UNITS = {name: unit for name, (unit, _) in {**END_TO_END, **HEADLINE, **PER_LAYER}.items()}
UNITS.update(RECORDED)


def _print_metrics(title: str, values: dict[str, float]) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:42s} {value:16.6f} {UNITS[name]}")


def run_one(args) -> int:
    result = run_workload(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        traced=bool(args.trace),
        smoke=args.smoke,
    )
    notes = result.notes
    print(f"workload {result.workload} seed={result.seed} seconds={result.seconds}")
    print(f"  why: {WORKLOADS[result.workload].why}")
    print(f"  world {notes['world']}, {notes['publications']} timed publications")
    print("  closed loop, one caller; " + ("traced run" if result.traced else "untraced run"))
    if result.traced:
        values = result.per_layer
        _print_metrics("per-layer metrics (traced run)", values)
        _print_metrics("recorded, not declared (workload-specific)", result.recorded)
    else:
        values = result.end_to_end
        _print_metrics("end-to-end metrics (gated)", values)
        _print_metrics("end-to-end metrics (recorded, not gated)", result.headline)
    print(f"contention ratio {notes['contention_ratio']:.3f} (1.0 = an undisturbed machine)")
    print(f"recorded tails {notes['tails']}")
    if notes["recover_s"]:
        print(f"recorded recover_s {notes['recover_s']:.6f} s")
    print("counts (exact for this seed and --seconds)")
    for name, value in result.counts.items():
        print(f"  {name:42s} {value:16d}")
    print(f"verification {notes['verify']}")
    print(f"operations attempted={result.attempted} failed={result.failed} {notes['raised']}")
    print(RESULT_PREFIX + json.dumps(result.__dict__))
    metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------

def _child(workload: str, args, *, traced: bool, hash_seed: int) -> dict:
    """One run in a fresh process: clean caches, its own ``ru_maxrss``."""
    command = [sys.executable, str(Path(__file__).resolve())]
    command += ["--workload", workload, "--seed", str(args.seed)]
    command += ["--seconds", str(args.seconds), "--trace", "1" if traced else "0"]
    if args.smoke:
        command.append("--smoke")
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: run failed\n{done.stdout}\n{done.stderr}")
    for line in done.stdout.splitlines():
        if line.startswith(RESULT_PREFIX):
            return json.loads(line[len(RESULT_PREFIX) :])
    raise SystemExit(f"{workload}: run printed no result\n{done.stdout}")


def _spread(values: list[float]) -> float | None:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return None
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def run_suite(args) -> int:
    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    payload = {
        "meta": {
            "seed": args.seed,
            "seconds": args.seconds,
            "smoke": args.smoke,
            "repeat": args.repeat,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": importlib.util.find_spec("numpy") is not None,
        },
        "workloads": {},
    }
    failures = []
    for name in names:
        # every child gets its own hash seed: counts must not depend on it
        runs = [_child(name, args, traced=False, hash_seed=rep + 1) for rep in range(args.repeat)]
        traced = _child(name, args, traced=True, hash_seed=0)
        counts = runs[0]["counts"]
        for run in [*runs, traced]:
            if run["counts"] != counts:
                failures.append(f"{name}: counts differ: {counts} vs {run['counts']}")
            if not run["correct"]:
                failures.append(f"{name}: not correct: {run['notes']} failed={run['failed']}")
        untraced_wall = statistics.median(run["notes"]["timed_wall_s"] for run in runs)
        recorded = dict(traced["recorded"])
        recorded["recover_s"] = statistics.median(run["notes"]["recover_s"] for run in runs)
        for tail in runs[0]["notes"]["tails"]:
            recorded[tail] = statistics.median(run["notes"]["tails"][tail] for run in runs)
        entry = payload["workloads"][name] = {
            "why": WORKLOADS[name].why,
            "counts": counts,
            "runs": [
                {
                    "end_to_end": {**run["end_to_end"], **run["headline"]},
                    "contention_ratio": run["notes"]["contention_ratio"],
                    "cpu_wall_ratio": run["notes"]["cpu_wall_ratio"],
                }
                for run in runs
            ],
            "per_layer": traced["per_layer"],
            "recorded": recorded,
            # measured, where the traced run itself can only estimate
            "trace_overhead_measured": traced["notes"]["timed_wall_s"] / untraced_wall,
            "attempted": runs[0]["attempted"],
            "failed": max(run["failed"] for run in [*runs, traced]),
        }
        print(f"== {name}: {WORKLOADS[name].why}")
        print(f"{'end-to-end metric':28s} {'median':>14s} {'unit':6s} {'spread':>8s}")
        for metric in [*END_TO_END, *HEADLINE]:
            values = [{**run["end_to_end"], **run["headline"]}[metric] for run in runs]
            spread = _spread(values)
            shown = "n/a" if spread is None else f"{spread:8.3f}"
            gated = "gated" if metric in END_TO_END else "recorded"
            print(
                f"{metric:28s} {statistics.median(values):14.4f} {UNITS[metric]:6s} "
                f"{shown:>8s}  {gated}"
            )
        print(f"{'per-layer metric (traced)':42s} {'value':>16s} unit")
        for metric, value in traced["per_layer"].items():
            print(f"{metric:42s} {value:16.6f} {PER_LAYER[metric][0]}")
        print(f"recorded, not declared: {recorded}")
        print(f"trace overhead, traced / untraced wall: {entry['trace_overhead_measured']:.3f}")
        print(f"counts {counts}")
        print(f"cpu/wall per run {[round(run['notes']['cpu_wall_ratio'], 3) for run in runs]}")
        print(f"contention per run {[round(run['notes']['contention_ratio'], 3) for run in runs]}")
    out = Path(args.out) if args.out else OUT_DIR / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=1))
    print(f"wrote {out}")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def compare(first_path: str, second_path: str) -> int:
    """One row per (workload, end-to-end metric): both medians, the
    bound, and ``ok`` / ``worse`` / ``unresolved`` (a spread wider than
    the bound cannot resolve a change of the bound's size).  The
    recorded metrics are judged against the contract's largest bound,
    for information: only a gated metric can make the exit code 1."""
    first = json.loads(Path(first_path).read_text())
    second = json.loads(Path(second_path).read_text())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    gated = {metric["name"] for metric in declared}
    for name, (unit, better) in HEADLINE.items():
        declared.append({"name": name, "unit": unit, "better": better, "bound": 0.25})
    worse = 0
    print(
        f"{'workload':16s} {'metric':22s} {'A median':>12s} {'B median':>12s} "
        f"{'change':>8s} {'bound':>6s}  status"
    )
    for name, entry in first["workloads"].items():
        other = second["workloads"].get(name)
        if other is None:
            continue
        for metric in declared:
            a = [run["end_to_end"][metric["name"]] for run in entry["runs"]]
            b = [run["end_to_end"][metric["name"]] for run in other["runs"]]
            median_a, median_b = statistics.median(a), statistics.median(b)
            # positive = B is worse
            change = (median_b - median_a) / median_a
            if metric["better"] == "higher":
                change = -change
            spreads = [spread for spread in (_spread(a), _spread(b)) if spread is not None]
            if change > metric["bound"]:
                status = "worse"
                worse += metric["name"] in gated
            elif spreads and max(spreads) > metric["bound"]:
                status = "unresolved"
            else:
                status = "ok"
            if metric["name"] not in gated:
                status += " (recorded)"
            print(
                f"{name:16s} {metric['name']:22s} {median_a:12.4f} {median_b:12.4f} "
                f"{change:+8.3f} {metric['bound']:6.2f}  {status}"
            )
        same = entry["counts"] == other["counts"]
        print(f"{name:16s} {'counts':22s} {'identical' if same else 'DIFFER'}")
        worse += 0 if same else 1
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run this one workload here")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds",
        type=float,
        default=REFERENCE_SECONDS,
        help="run length the streams are sized for (scales publication counts)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tier-1 scale (seconds for all four)")
    parser.add_argument("--repeat", type=int, default=3, help="suite: untraced runs per workload")
    parser.add_argument("--workloads", help="suite: comma-separated subset")
    parser.add_argument("--out", help="suite: result file (default bench/out/results.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        return run_one(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
