"""The chaos sweep: every migration message under drop and crash faults.

This is the acceptance harness for the crash-safe protocol: the sweep
replays one enclave migration once per (message, fault) pair and asserts
the paper's R3 (never two operational instances) and R4 (counters never
regress) invariants after recovery.  Slow by design — it builds a fresh
data center per scenario — but it is the test that makes the Section VI-C
correctness argument executable.
"""

import pytest

from repro.apps.counter_app import MigratableBenchEnclave
from repro.core.protocol import MigratableApp
from repro.faults.chaos import (
    DEFAULT_KINDS,
    DESTINATION,
    MessageScenario,
    build_world,
    check_invariants,
    enumerate_message_scenarios,
    main,
    probe_message_sequence,
    run_scenario,
    sweep,
)

SEED = 2018


@pytest.fixture(scope="module")
def trace():
    return probe_message_sequence(SEED)


@pytest.fixture(scope="module")
def reports(trace):
    # Drop + both crash kinds at every message; duplicates are exercised
    # separately (they only apply to request legs).
    return sweep(
        enumerate_message_scenarios(SEED, kinds=("drop", "crash-source", "crash-dest")),
        SEED,
    )


class TestProbe:
    def test_probe_records_the_full_protocol(self, trace):
        assert len(trace) >= 20
        types = [m.msg_type for m in trace if m.msg_type]
        # Every protocol phase shows up: local attestation, ME-to-ME
        # transfer, and the completion notice.
        for expected in ("la_hello", "la_msg1", "la_rec", "ra_msg1", "ra_rec", "done_notice"):
            assert expected in types, f"probe trace misses {expected}"
        assert [m.seq for m in trace] == list(range(len(trace)))


class TestSweepCoverage:
    def test_every_message_swept_with_drop_and_both_crashes(self, trace, reports):
        for kind in ("drop", "crash-source", "crash-dest"):
            swept = {r.scenario.seq for r in reports if r.scenario.kind == kind}
            assert swept == set(range(len(trace))), f"{kind} sweep has gaps"

    def test_duplicate_is_part_of_the_default_sweep(self):
        assert "duplicate" in DEFAULT_KINDS


class TestInvariants:
    def test_no_scenario_violates_r3_or_r4(self, reports):
        failures = [r for r in reports if r.violations]
        details = "\n".join(
            f"{r.scenario.row(r)}: {r.violations}" for r in failures
        )
        assert not failures, f"invariant violations:\n{details}"

    def test_every_scenario_ends_with_a_live_instance(self, reports):
        # check_invariants flags missing liveness as a violation, so a clean
        # sweep implies recovery always produced exactly one serving enclave.
        for report in reports:
            assert report.recovery_outcome in ("not-needed", "resumed"), (
                report.scenario.row(report)
            )

    def test_duplicate_request_is_harmless(self, trace):
        first_request = next(m for m in trace if m.direction == "request")
        scenario = MessageScenario(
            "duplicate", first_request.seq, first_request.msg_type, "request", 0
        )
        report = run_scenario(scenario, SEED)
        assert report.ok
        assert report.migrate_outcome == "completed"

    def test_r4_is_checked_on_every_serving_instance(self):
        """A second instance serving the tracked counter at a regressed value
        is both an R3 and an R4 violation, not only R3."""
        world = build_world(SEED)
        rogue = MigratableApp.deploy(
            world.dc,
            world.dc.machine(DESTINATION),
            MigratableBenchEnclave,
            world.dev_key,
            vm_name="rogue-vm",
            app_name="rogue-app",
        )
        enclave = rogue.start_new()
        counter_id, _ = enclave.ecall("create_counter")
        assert counter_id == world.counter_id
        enclave.ecall("increment_counter", counter_id)
        assert check_invariants(world) == [
            "R3: 2 operational instances serve enclave 0",
            "R4: enclave 0 counter regressed to 1 (expected 3)",
        ]


class TestBatchedSweep:
    """Spot checks on the wave (migrate_group) trace; the exhaustive
    batched sweep — every leg × every fault × both resumption modes — runs
    as ``python -m repro.faults.chaos --batched`` in ``make ci``."""

    @pytest.fixture(scope="class")
    def batched_trace(self):
        return probe_message_sequence(SEED, batched=True)

    def test_probe_records_the_wave_protocol(self, batched_trace):
        types = [m.msg_type for m in batched_trace if m.msg_type]
        assert "flush_staged" in types
        # One attested ME<->ME session for the whole wave, but one
        # done_notice per member.
        assert types.count("ra_msg1") == 1
        assert types.count("done_notice") == 2

    def test_faults_on_key_wave_legs_uphold_invariants(self, batched_trace):
        flush = next(m for m in batched_trace if m.msg_type == "flush_staged")
        # The transfer_batch exchange is the ra_rec request after the flush
        # (the handshake's own legs come first).
        batch_legs = [
            m
            for m in batched_trace
            if m.msg_type == "ra_rec" and m.seq > flush.seq
        ]
        request_ordinals = {}
        ordinal = 0
        for leg in batched_trace:
            if leg.direction == "request":
                request_ordinals[leg.seq] = ordinal
                ordinal += 1
        scenarios = [
            ("drop", flush),
            ("drop", batch_legs[-1]),  # the transfer_batch exchange itself
            ("crash-source", batch_legs[-1]),  # mid-batch machine crash
            ("crash-dest", batch_legs[-1]),
        ]
        for kind, leg in scenarios:
            scenario = MessageScenario(
                kind,
                leg.seq,
                leg.msg_type,
                leg.direction,
                request_ordinals.get(leg.seq, 0),
                batched=True,
            )
            report = run_scenario(scenario, SEED)
            assert report.ok, (
                f"{kind} at seq {leg.seq} ({leg.msg_type}): {report.violations}"
            )


class TestCli:
    def test_unknown_flag_is_a_usage_error_not_a_violation(self, capsys):
        """Exit 1 means "a scenario violated an invariant"; a mistyped flag
        must exit 2 with usage instead of reading as a safety failure."""
        with pytest.raises(SystemExit) as exc:
            main(["--clones"])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_one_family_per_run(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--disk", "--fleet"])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err
