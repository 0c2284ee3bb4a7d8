"""Paired A/B comparison of two checkouts on the end-to-end benchmark.

Runs ``benchmarks/e2e/run.py --workload W --seed S`` in a base checkout (for
example ``git worktree add ../base HEAD~1``) and in this checkout (head),
``--pairs`` times each, alternating which side runs first.  Each run is a
fresh process tree importing its own checkout's ``src/`` and runs for the
benchmark's own length.  Runs go one after another, never in parallel, so
the two sides share the host alike.

For every end-to-end metric in ``BENCHMARK.json`` it prints each side's
median and quartiles, how many pairs head won, tied and lost (in the
metric's ``better`` direction), the relative change of the medians, and a
verdict by the comparison protocol in ``benchmarks/e2e/README.md``:

* ``gain``: at least 10 pairs ran, head wins at least 9 in 10 of all of
  them (a pair in which either run failed is not a win), the medians differ
  by more than the base's quartile spread (q3 - q1), and in no pair did
  head fail more ops than base;
* ``better``: not a gain, but every head run beats every base run in the
  metric's direction and in no pair did head fail more ops than base (an
  unclaimed improvement, however wide the base's spread);
* ``worse``: head's median is worse than the base's by more than the
  metric's bound;
* ``unresolved``: neither, and the base's quartile spread is wider than the
  bound, so the runs cannot tell;
* ``same``: identical in every pair (the virtual metrics, for one seed);
* ``within bound`` otherwise.

Usage::

    python benchmarks/compare.py --base ../base --workload paper_migrate \\
        --seed 0 --pairs 10

Exits 0 when every run passed its checks, 1 when a run failed, 2 on a usage
error.  Quartiles are ``statistics.quantiles(values, n=4)``, as in
``benchmarks/e2e/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNNER = Path("benchmarks") / "e2e" / "run.py"
#: A claimed gain needs at least this many pairs and must win this share of them.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True,
                        help="checkout to compare against (e.g. a worktree of the parent)")
    parser.add_argument("--workload", required=True, help="one workload from BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs (default 10)")
    return parser.parse_args(argv)


def _run(checkout: Path, args: argparse.Namespace) -> dict:
    """One benchmark run in ``checkout``; its final JSON line, or a failure.

    A run that prints no report counts as failing every op (``failed`` is
    infinite), so it fails more ops than any run that reported.
    """
    command = [sys.executable, str(RUNNER), "--workload", args.workload,
               "--seed", str(args.seed)]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "failed": math.inf, "metrics": {},
                "error": proc.stderr.strip()[-500:]}
    prefix = f"{args.workload}/"
    report["metrics"] = {
        name.removeprefix(prefix): entry["value"] for name, entry in report["metrics"].items()
    }
    report["correct"] = report.get("correct", False) and proc.returncode == 0
    return report


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _summarize(metric: dict, base: list[float], head: list[float], pairs: int,
               more_failures: bool) -> dict:
    """Per-metric statistics and verdict for the complete pairs ``base[i]``/``head[i]``.

    ``pairs`` is the number of pairs run, complete or not; ``more_failures``
    is whether head failed more ops than base in any of them.
    """
    sign = 1 if metric["better"] == "higher" else -1
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    ties = sum(h == b for b, h in zip(base, head))
    b_q1, b_med, b_q3 = _quartiles(base)
    h_q1, h_med, h_q3 = _quartiles(head)
    change = (h_med - b_med) / b_med if b_med else 0.0
    spread = b_q3 - b_q1
    if ties == len(base):
        verdict = "same"
    elif (pairs >= MIN_PAIRS and not more_failures and wins >= WIN_SHARE * pairs
          and sign * (h_med - b_med) > spread):
        verdict = "gain"
    elif not more_failures and all(sign * (h - b) > 0 for h in head for b in base):
        verdict = "better"
    elif -sign * change > metric["bound"]:
        verdict = "worse"
    elif b_med and spread / abs(b_med) > metric["bound"]:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "base": {"q1": b_q1, "median": b_med, "q3": b_q3},
        "head": {"q1": h_q1, "median": h_med, "q3": h_q3},
        "wins": wins, "ties": ties, "losses": len(base) - wins - ties,
        "change": change, "verdict": verdict,
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    args.base = args.base.resolve()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; one of {workloads}", file=sys.stderr)
        return 2
    for checkout in (args.base, ROOT):
        if not (checkout / RUNNER).is_file():
            print(f"error: no {RUNNER} under {checkout}", file=sys.stderr)
            return 2
    if args.pairs < 1:
        print("error: --pairs must be at least 1", file=sys.stderr)
        return 2

    runs: dict[str, list[dict]] = {"base": [], "head": []}
    for i in range(args.pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            report = _run(args.base if side == "base" else ROOT, args)
            runs[side].append(report)
            status = "ok" if report["correct"] else (
                f"FAILED ({report['failed']} ops failed) {report.get('error', '')}")
            print(f"pair {i + 1}/{args.pairs} {side}: {status}", flush=True)

    failed = [side for side in runs for report in runs[side] if not report["correct"]]
    more_failures = [
        i + 1 for i, (b, h) in enumerate(zip(runs["base"], runs["head"]))
        if h["failed"] > b["failed"]
    ]
    complete = [
        i for i in range(args.pairs)
        if runs["base"][i]["correct"] and runs["head"][i]["correct"]
    ]
    print(f"\n{args.workload}, seed {args.seed}: {len(complete)} complete pairs "
          f"(base {args.base}, head {ROOT})")
    print(f"{'metric':<30} {'base q1/median/q3':>30} {'head q1/median/q3':>30} "
          f"{'w/t/l':>8} {'change':>8}  verdict")
    for metric in spec["end_to_end"] if complete else ():
        name = metric["name"]
        base = [runs["base"][i]["metrics"][name] for i in complete]
        head = [runs["head"][i]["metrics"][name] for i in complete]
        row = _summarize(metric, base, head, args.pairs, bool(more_failures))
        b, h = row["base"], row["head"]
        print(f"{name:<30} {b['q1']:>9.4g} {b['median']:>9.4g} {b['q3']:>9.4g}  "
              f"{h['q1']:>9.4g} {h['median']:>9.4g} {h['q3']:>9.4g}  "
              f"{row['wins']:>2}/{row['ties']}/{row['losses']:<2} {row['change']:>+8.2%}  "
              f"{row['verdict']}")
    if more_failures:
        print(f"head failed more ops than base in pair(s) {more_failures}: no gain")
    if failed:
        print(f"{len(failed)} run(s) failed their checks: {sorted(set(failed))}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
