"""Fleet-scale migration throughput (wall clock + virtual clock).

Unlike the figure benchmarks (virtual clock only), this one reports how many
end-to-end migrations per *wall-clock* second the simulator sustains — the
gauge for simulator-throughput work, where the seeded virtual-time output
must stay byte-identical while the wall cost drops.

Six sweeps are recorded:

- ``baseline``            ring plan, one ``migrate`` per app, full RA per
                          migration (the paper's protocol).
- ``session_resumption``  same, with the attested-session cache (ablation).
- ``wave_sequential``     drain plan (round r evacuates machine r % n onto
                          its ring successor), still one migrate per app.
- ``wave_batched``        drain plan, one ``migrate_group`` wave per round —
                          N records over ONE attested ME<->ME session.
- ``orchestrated``        the same drain rounds routed through the fleet
                          control plane (planner + pre-flight + journaled
                          waves), so the control plane's overhead is priced
                          against ``wave_batched``.
- ``scale``               orchestrator-scale scaling curve: serial vs
                          pipelined dispatch at growing fleet sizes (up
                          to 64 machines x 512 enclaves) over three
                          shapes — a multi-round maintenance-window
                          ``drain`` (``apply_many`` plan factories), a
                          cap-split ``evacuate`` (many small waves), and a
                          ``multi_tenant`` row (two pod-confined tenants'
                          evacuations interleaved on one scheduler) — plus
                          a wall-clock planner throughput microbench (heap
                          vs retired scan) at 100x today's fleet.

Usage::

    python benchmarks/bench_fleet.py                 # full run, writes JSON
    python benchmarks/bench_fleet.py --smoke         # tiny run for CI
    python benchmarks/bench_fleet.py --smoke --scale-only -o /tmp/scale.json
    python benchmarks/bench_fleet.py -o out.json --enclaves 16
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from repro.bench.harness import FleetBenchConfig, run_fleet_bench

#: (n_machines, n_enclaves) rows of the scale sweep; the last row is the
#: acceptance point (>= 64 machines x >= 512 enclaves).
SCALE_CONFIGS = ((16, 128), (32, 256), (64, 512))
SMOKE_SCALE_CONFIGS = ((4, 16),)

#: Planner microbench: a fleet ~100x today's benchmark scale (machines,
#: members on the drained machine).
PLANNER_SCALE = (6400, 512)
SMOKE_PLANNER_SCALE = (400, 64)


def _scale_scenarios(n_machines: int) -> list[tuple[str, dict]]:
    """The scale sweep's (scenario, config knobs) rows, each run under
    serial and pipelined dispatch.

    * ``drain`` — a multi-round maintenance window via ``apply_many`` plan
      factories: each round drains one machine, every round's machine is
      excluded from destinations (so drained hosts stay empty and the
      rounds' claims stay mostly disjoint — the shape where pipelined
      admission overlaps rounds across the wave barrier).
    * ``evacuate`` — one tenant's evacuation split into many small waves by
      ``wave_caps=4``; pipelined overlaps the claim-disjoint waves the caps
      artificially serialized.
    * ``multi_tenant`` — ``apply_many`` of two tenants' evacuations with
      pod-confined tenants (disjoint source claims), where plan-level
      overlap is the whole point.
    """
    drain_reps = min(4, max(2, n_machines // 2))
    pods = 2 if n_machines < 16 else 8
    return [
        ("drain", dict(plan="drain", reps=drain_reps, multi_plan=True)),
        ("evacuate", dict(plan="evacuate", reps=1, wave_caps=4)),
        (
            "multi_tenant",
            dict(plan="evacuate", reps=2, multi_plan=True, tenant_pods=pods),
        ),
    ]


def run_scale_sweep(seed: int, configs) -> dict:
    """Serial vs pipelined dispatch across fleet sizes.

    For each (machines, enclaves) row and each workload shape (see
    :func:`_scale_scenarios`), runs the orchestrated fleet bench once per
    dispatch mode and reports the virtual-time speedups.  Same seed, same
    plans, same wire bytes — only the timing model differs, so the speedup
    is exactly the overlap the discrete-event scheduler finds.
    """
    rows = []
    for n_machines, n_enclaves in configs:
        for scenario, knobs in _scale_scenarios(n_machines):
            row: dict = {
                "n_machines": n_machines,
                "n_enclaves": n_enclaves,
                "scenario": scenario,
            }
            for dispatch in ("serial", "pipelined"):
                result = run_fleet_bench(
                    FleetBenchConfig(
                        n_enclaves=n_enclaves,
                        n_machines=n_machines,
                        seed=seed,
                        orchestrated=True,
                        dispatch=dispatch,
                        **knobs,
                    )
                )
                row[dispatch] = {
                    "migrations": result["migrations"],
                    "virtual_seconds_total": result["virtual_seconds_total"],
                    "wall_seconds": result["wall_seconds"],
                    "utilization": result["utilization"],
                }
            serial = row["serial"]["virtual_seconds_total"]
            pipelined = row["pipelined"]["virtual_seconds_total"]
            row["pipelined_virtual_speedup"] = (
                serial / pipelined if pipelined else 0.0
            )
            rows.append(row)
            print(
                f"  scale {n_machines:>3}m x {n_enclaves:>4}e "
                f"{scenario:>12}: {row['serial']['migrations']} moves, "
                f"serial {serial:.3f}s -> pipelined {pipelined:.3f}s virtual "
                f"({row['pipelined_virtual_speedup']:.2f}x)"
            )
    return {"rows": rows}


def run_planner_throughput(n_machines: int, n_moves: int) -> dict:
    """Wall-clock planner throughput: heap fast path vs the retired scan.

    Synthetic fleet (planner runs on plain member records, no enclaves):
    ``n_moves`` members crowd the drained machine, one background member
    sits on every other machine.  Asserts both paths produce the identical
    plan before reporting their wall times.
    """
    import gc
    import time
    from types import SimpleNamespace

    from repro.fleet.model import FleetConstraints
    from repro.fleet.planner import plan_drain

    machines = [f"m-{i:05d}" for i in range(n_machines)]
    members = [
        SimpleNamespace(
            name=f"drained-{i:06d}", machine=machines[0], tenant="t",
            anti_affinity_group=None,
        )
        for i in range(n_moves)
    ]
    members += [
        SimpleNamespace(
            name=f"resident-{i:06d}", machine=machines[i], tenant="t",
            anti_affinity_group=None,
        )
        for i in range(1, n_machines)
    ]
    constraints = FleetConstraints(
        machine_capacity=max(16, n_moves),
        max_moves_per_machine=n_moves,
        tenant_wave_quota=n_moves,
    )
    # Collect the earlier sweeps' garbage first: otherwise a full collection
    # can fire inside the ~10 ms heap run and dominate it (0.17 s measured
    # after the full sweep set on the 2-CPU bench host).
    gc.collect()
    start = time.perf_counter()
    heap_plan = plan_drain(members, machines, machines[0], constraints)
    heap_seconds = time.perf_counter() - start
    start = time.perf_counter()
    scan_plan = plan_drain(members, machines, machines[0], constraints, fast=False)
    scan_seconds = time.perf_counter() - start
    if heap_plan.to_dict() != scan_plan.to_dict():
        raise RuntimeError("heap fast path diverged from the scan oracle")
    return {
        "n_machines": n_machines,
        "n_members": len(members),
        "n_moves": n_moves,
        "heap_seconds": heap_seconds,
        "scan_seconds": scan_seconds,
        "planner_wall_speedup": scan_seconds / heap_seconds if heap_seconds else 0.0,
        "heap_moves_per_sec": n_moves / heap_seconds if heap_seconds else 0.0,
    }


def _git_commit() -> str:
    """Current HEAD hash, or "unknown" outside a usable git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--enclaves", type=int, default=8, help="fleet size")
    parser.add_argument("--machines", type=int, default=4, help="data-center size")
    parser.add_argument("--reps", type=int, default=3, help="migration rounds (ring: each app moves once per round; drain: one machine evacuated per round)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny configuration for CI (2 enclaves, 2 machines, 1 round)",
    )
    parser.add_argument(
        "--scale-only", action="store_true",
        help="run only the scale sweep + planner microbench (skip the five "
        "throughput sweeps); with --smoke this is `make bench-scale-smoke`",
    )
    parser.add_argument(
        "-o", "--output", type=Path, default=Path("BENCH_fleet.json"),
        help="where to write the JSON report (default: BENCH_fleet.json)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        args.enclaves, args.machines, args.reps = 2, 2, 1

    report = {
        "benchmark": "fleet_migration_throughput",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
        "cpu_count": os.cpu_count(),
        "git_commit": _git_commit(),
        # The base knob set, verbatim from FleetBenchConfig; each run below
        # additionally records its own full config dict (result["config"]).
        "config": FleetBenchConfig.from_args(args).as_dict(),
        "runs": {},
    }

    scale_configs = SMOKE_SCALE_CONFIGS if args.smoke else SCALE_CONFIGS
    planner_scale = SMOKE_PLANNER_SCALE if args.smoke else PLANNER_SCALE

    if args.scale_only:
        print("scale sweep (serial vs pipelined dispatch):")
        report["runs"]["scale"] = run_scale_sweep(args.seed, scale_configs)
        report["runs"]["planner_throughput"] = run_planner_throughput(*planner_scale)
        _summarize_scale(report)
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.output}")
        return 0

    sweeps = (
        ("baseline", dict(session_resumption=False)),
        ("session_resumption", dict(session_resumption=True)),
        ("wave_sequential", dict(plan="drain")),
        ("wave_batched", dict(plan="drain", batch=True)),
        ("orchestrated", dict(plan="drain", orchestrated=True)),
    )
    for label, extra in sweeps:
        result = run_fleet_bench(FleetBenchConfig.from_args(args, **extra))
        report["runs"][label] = result
        print(
            f"{label:>18}: {result['migrations']} migrations, "
            f"{result['wall_migrations_per_sec']:.2f} mig/s wall, "
            f"{result['virtual_seconds_mean']:.3f} s virtual/migration"
        )

    runs = report["runs"]
    baseline = runs["baseline"]
    resumed = runs["session_resumption"]
    if baseline["wall_seconds"] > 0:
        report["resumption_wall_speedup"] = (
            resumed["wall_migrations_per_sec"] / baseline["wall_migrations_per_sec"]
        )
        print(f"resumption ablation wall speedup: {report['resumption_wall_speedup']:.2f}x")
    if runs["wave_batched"]["virtual_seconds_mean"] > 0:
        report["batch_virtual_speedup"] = (
            runs["wave_sequential"]["virtual_seconds_mean"]
            / runs["wave_batched"]["virtual_seconds_mean"]
        )
        report["batch_vs_baseline_virtual_speedup"] = (
            baseline["virtual_seconds_mean"]
            / runs["wave_batched"]["virtual_seconds_mean"]
        )
        print(
            f"batched wave virtual speedup: {report['batch_virtual_speedup']:.2f}x "
            f"vs wave_sequential, {report['batch_vs_baseline_virtual_speedup']:.2f}x "
            f"vs baseline"
        )
    if runs["orchestrated"]["virtual_seconds_mean"] > 0 and runs["wave_batched"]["virtual_seconds_mean"] > 0:
        report["orchestration_virtual_overhead"] = (
            runs["orchestrated"]["virtual_seconds_mean"]
            / runs["wave_batched"]["virtual_seconds_mean"]
        )
        print(
            f"control-plane virtual overhead vs wave_batched: "
            f"{report['orchestration_virtual_overhead']:.2f}x"
        )

    print("scale sweep (serial vs pipelined dispatch):")
    report["runs"]["scale"] = run_scale_sweep(args.seed, scale_configs)
    report["runs"]["planner_throughput"] = run_planner_throughput(*planner_scale)
    _summarize_scale(report)

    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


def _summarize_scale(report: dict) -> None:
    """Headline keys from the scale sweep + planner microbench."""
    rows = report["runs"]["scale"]["rows"]
    largest = max(r["n_machines"] * r["n_enclaves"] for r in rows)
    for row in rows:
        if row["n_machines"] * row["n_enclaves"] != largest:
            continue
        scenario = row["scenario"]
        report[f"scale_{scenario}_pipelined_speedup"] = row[
            "pipelined_virtual_speedup"
        ]
        print(
            f"pipelined virtual speedup over serial at "
            f"{row['n_machines']}x{row['n_enclaves']} ({scenario}): "
            f"{row['pipelined_virtual_speedup']:.2f}x"
        )
    planner = report["runs"]["planner_throughput"]
    report["planner_wall_speedup"] = planner["planner_wall_speedup"]
    print(
        f"planner heap vs scan at {planner['n_machines']} machines / "
        f"{planner['n_moves']} moves: {planner['planner_wall_speedup']:.1f}x wall "
        f"({planner['heap_moves_per_sec']:.0f} moves/s)"
    )


if __name__ == "__main__":
    sys.exit(main())
