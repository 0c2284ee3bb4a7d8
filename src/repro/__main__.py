"""``python -m repro`` — guided tour of the reproduction.

Subcommands:

* ``demo``      — run the quickstart scenario end to end
* ``attacks``   — print the Section III attack matrix
* ``figures``   — alias for ``python -m repro.bench.figures all``
* ``tables``    — print Tables I and II + the TCB report (fast)
* ``analyze``   — alias for ``python -m repro.analysis`` (SEC001-SEC004,
  SEC006-SEC010)
* ``bench``     — run the migration benchmark; ``--profile`` wraps it in
  cProfile and dumps the top functions by cumulative time
* ``fleet``     — fleet control plane: ``plan`` prints a seeded drain plan
  as JSON, ``apply`` executes it end to end (4 machines, 16 enclaves),
  ``status`` shows placements and the plan journal
"""

from __future__ import annotations

import sys


def _run_bench(argv: list[str]) -> int:
    """``python -m repro bench [--reps N] [--seed N] [--profile [TOP]]``."""
    import argparse
    import time

    parser = argparse.ArgumentParser(prog="repro bench")
    parser.add_argument("--reps", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--profile", nargs="?", const=25, type=int, default=None, metavar="TOP",
        help="profile under cProfile and print the TOP functions by "
        "cumulative time (default 25)",
    )
    args = parser.parse_args(argv)

    from repro.bench.harness import run_migration_bench

    if args.profile is not None:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        data = run_migration_bench(reps=args.reps, seed=args.seed)
        profiler.disable()
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(args.profile)
    else:
        start = time.perf_counter()
        data = run_migration_bench(reps=args.reps, seed=args.seed)
        print(f"wall: {time.perf_counter() - start:.3f} s")
    samples = data["enclave_migration"]
    print(
        f"enclave migration: {len(samples)} reps, "
        f"virtual mean {sum(samples) / len(samples):.3f} s"
    )
    return 0


def _run_fleet(argv: list[str]) -> int:
    """``python -m repro fleet plan|apply|status [--seed N] [--intent I]``.

    Builds the seeded demo fleet (4 machines, 16 enclaves, durable MEs)
    and runs the control plane against it: ``plan`` prints the
    :class:`~repro.fleet.model.MigrationPlan` as JSON, ``apply`` executes
    it wave by wave through the batched migration path and verifies every
    enclave's state survived, ``status`` prints placements + journal.
    """
    import argparse
    import json

    parser = argparse.ArgumentParser(prog="repro fleet")
    parser.add_argument("action", choices=["plan", "apply", "status"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--intent", default="drain:fleet-0",
        help="drain:<machine>, rebalance, or evacuate:<tenant> "
        "(default drain:fleet-0)",
    )
    parser.add_argument(
        "--dispatch", choices=["serial", "pipelined"],
        default="serial",
        help="group execution mode: serial groups on the virtual clock, or "
        "plan-wide pipelined admission on the scheduler (default serial)",
    )
    args = parser.parse_args(argv)

    from repro.fleet.demo import build_demo_fleet, counter_values

    demo = build_demo_fleet(seed=args.seed, dispatch=args.dispatch)
    service = demo.service
    if args.action == "status":
        print(service.status())
        return 0

    intent, _, operand = args.intent.partition(":")
    if intent == "drain":
        plan = service.plan_drain(operand or "fleet-0")
    elif intent == "rebalance":
        plan = service.plan_rebalance()
    elif intent == "evacuate":
        plan = service.plan_evacuate(operand or "tenant-a")
    else:
        parser.error(f"unknown intent {args.intent!r}")
    if args.action == "plan":
        print(json.dumps(plan.to_dict(), indent=2))
        return 0

    before = counter_values(demo)
    result = service.apply(plan)
    after = counter_values(demo)
    print(result.summary())
    if after != before:
        print("STATE DIVERGED after migration")
        return 1
    print(f"state intact: {len(after)} enclaves re-served their counters")
    return 0 if result.completed else 1


def main(argv: list[str] | None = None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    command = argv[0] if argv else "tables"
    if command == "demo":
        import runpy

        runpy.run_path("examples/quickstart.py", run_name="__main__")
        return 0
    if command == "attacks":
        from repro.bench.figures import attacks

        print(attacks()[0])
        return 0
    if command == "figures":
        from repro.bench.figures import main as figures_main

        return figures_main(["all"] + argv[1:])
    if command == "analyze":
        from repro.analysis.cli import main as analyze_main

        return analyze_main(argv[1:])
    if command == "bench":
        return _run_bench(argv[1:])
    if command == "fleet":
        return _run_fleet(argv[1:])
    if command == "tables":
        from repro.bench.figures import table1, table2, tcb

        for fn in (table1, table2, tcb):
            print(fn()[0])
            print()
        return 0
    print(__doc__)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
