"""End-to-end benchmark: four persistent-state migration workloads.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace 0|1] [--trace-dir DIR] [--smoke]

Each workload runs in a fresh child process, one at a time, so module-level
caches (AES key schedules, GHASH tables, modexp tables) and peak RSS stay
separate per workload.  The child imports ``repro`` from this checkout's
``src/`` and nowhere else.

``--trace 0`` (the default) prints every end-to-end metric by name and unit.
``--trace 1`` measures per layer instead: an untraced child runs the timed
phase first, then a traced child replays exactly as many ops with every
layer's entry points wrapped, writes a Chrome trace, and must reproduce the
untraced run's virtual results and network odometers bit for bit.

Every run checks the program's outputs (migrations complete, counters and
sealed data survive, stale snapshots are refused, fleet placements match the
plan) and exits non-zero if any check fails.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md for the metrics, clocks and the
comparison protocol.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

WORKLOADS = ("paper_migrate", "kv_churn", "window_drain", "evacuate_resumed")
#: Timed-phase length of one run (BENCHMARK.json ``run_seconds``).
RUN_SECONDS = 15
#: Every child of one workload (two for ``--trace 1``) must end within this.
WORKLOAD_TIMEOUT_S = 170


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help=f"timed-phase length per workload (default {RUN_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--trace-dir", type=Path, default=HERE / "out",
                        help="where --trace 1 writes trace-<workload>-seed<N>.json "
                             "(Chrome trace-event format; default benchmarks/e2e/out)")
    parser.add_argument("--smoke", action="store_true",
                        help="about 1/20 size, fixed op counts, one set-up")
    # Internal: run one workload in this process and print its raw report.
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--measure-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--ops", type=int, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _trace_path(args: argparse.Namespace, name: str) -> Path:
    return args.trace_dir.resolve() / f"trace-{name}-seed{args.seed}.json"


# ------------------------------------------------------------------- child
def _child(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    report = workloads.run(
        args.workload,
        args.seed,
        seconds=args.seconds,
        smoke=args.smoke,
        measure_setup=args.measure_setup,
        ops=args.ops,
        tracer=tracer,
    )
    report["units"] = workloads.END_TO_END_UNITS
    if tracer is not None:
        report["layer_units"] = tracing.PER_LAYER_UNITS
        path = _trace_path(args, args.workload)
        path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_chrome_trace(path, seed=args.seed)
    print(json.dumps(report))
    return 0


def _spawn(args: argparse.Namespace, name: str, *, trace: bool, measure_setup: bool,
           deadline: float, ops: int | None = None) -> dict:
    """Run one workload in a fresh interpreter, killed at ``deadline``
    (``time.monotonic``); return its report."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", "1" if trace else "0", "--trace-dir", str(args.trace_dir.resolve()),
    ]
    if args.smoke:
        command.append("--smoke")
    if measure_setup:
        command.append("--measure-setup")
    if ops is not None:
        command += ["--ops", str(ops)]
    # Set iteration order must not differ between the untraced and the
    # traced child, or the same seed could schedule differently.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    completed = subprocess.run(
        command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0), check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{name}: child exited {completed.returncode}")
    return json.loads(lines[-1])


# ------------------------------------------------------------------ parent
def _print_metrics(report: dict) -> None:
    samples = report["samples"]
    print(
        f"== {report['workload']} (seed {report['seed']}): {samples['timed_ops']} timed ops "
        f"in {report['timed_wall_s']:.2f} s after {samples['warmup_ops']} warm-up ops, "
        f"{samples['migrations']} migrations in {samples['migration_calls']} calls, "
        f"{samples['ecalls']} application ECALLs"
    )
    for name, value in report["metrics"].items():
        print(f"  {name:<40} {value:>14.6g} {report['units'][name]}")
    failed, attempted = report["failed"], report["attempted"]
    print(f"  failed_frac {failed / attempted if attempted else 0:.6g} "
          f"({failed} of {attempted} ops attempted)")


def _untraced(args: argparse.Namespace, name: str, deadline: float) -> dict:
    report = _spawn(args, name, trace=False, measure_setup=not args.smoke, deadline=deadline)
    _print_metrics(report)
    raw, samples = report["raw"], report["samples"]
    print(f"  wall metrics are in reference seconds ({samples['probes']} host probes, "
          f"median {raw['probe_ms_median']:.3f} ms, reference {raw['probe_reference_ms']:g} ms); "
          f"setup_s is the median of {samples['setup_reps']} set-ups, the rates the "
          f"median of {samples['chunks']} chunks; virtual metrics cover the first "
          f"{samples['virtual_window_ops']} timed ops")
    print("  for reference, in wall seconds:")
    setups = ", ".join(f"{s:.3f}" for s in raw["setup_s_each"])
    print(f"  {'setup_s_each':<40} {setups} s")
    for metric, unit in (
        ("wall_migrations_per_s", "1/s"),
        ("wall_ecalls_per_s", "1/s"),
        ("wall_ms_per_migration_p50", "ms"),
        ("wall_ms_per_migration_p90", "ms"),
    ):
        if raw[metric] is not None:
            print(f"  {metric:<40} {raw[metric]:>14.6g} {unit}")
    if report["virtual_s_per_migration_p90"] is not None:
        print(f"  {'virtual_s_per_migration_p90':<40} "
              f"{report['virtual_s_per_migration_p90']:>14.6g} s")
    return report


def _traced(args: argparse.Namespace, name: str, deadline: float) -> dict:
    baseline = _spawn(args, name, trace=False, measure_setup=False, deadline=deadline)
    report = _spawn(args, name, trace=True, measure_setup=False, deadline=deadline,
                    ops=baseline["ops"])
    report["violations"] = baseline["violations"] + report["violations"]
    if report["fingerprint"] != baseline["fingerprint"]:
        report["violations"].append(
            f"{name}: the traced run diverged from the untraced one: "
            f"{report['fingerprint']} != {baseline['fingerprint']}"
        )
    report["metrics"], report["units"] = report["per_layer"], report["layer_units"]
    # Both in reference seconds, so host drift between the two children cancels.
    report["metrics"]["trace_overhead_pct"] = 100 * (
        report["timed_reference_s"] / baseline["timed_reference_s"] - 1
    )
    _print_metrics(report)
    print(f"  Chrome trace: {_trace_path(args, name)}")
    return report


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.child:
        return _child(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    reports = []
    for name in names:
        deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
        try:
            run_one = _traced if args.trace else _untraced
            reports.append(run_one(args, name, deadline))
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    violations = [v for report in reports for v in report["violations"]]
    for violation in violations:
        print(f"CHECK FAILED: {violation}")
    print("checks: " + ("all passed" if not violations else f"{len(violations)} failed"))

    def keyed(report: dict, metric: str) -> str:
        return metric if len(reports) == 1 else f"{report['workload']}/{metric}"

    print(json.dumps({
        "correct": not violations,
        "attempted": sum(report["attempted"] for report in reports),
        "failed": sum(report["failed"] for report in reports),
        "metrics": {
            keyed(report, metric): {"value": value, "unit": report["units"][metric]}
            for report in reports
            for metric, value in report["metrics"].items()
        },
    }))
    return 0 if not violations else 1


if __name__ == "__main__":
    sys.exit(main())
