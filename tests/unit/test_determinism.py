"""Reproducibility: every experiment is a pure function of its seed."""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.bench.harness import (
    FleetBenchConfig,
    run_fig3,
    run_fleet_bench,
    run_migration_bench,
)
from repro.cloud.datacenter import DataCenter
from repro.sgx.enclave import EnclaveBase, ecall
from repro.sgx.identity import SigningKey

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"


class ProbeEnclave(EnclaveBase):
    @ecall
    def probe(self) -> bytes:
        return self.sdk.seal_data(b"probe")


class TestSeedDeterminism:
    def test_fig3_samples_identical_under_seed(self):
        a = run_fig3(reps=15, seed=9)
        b = run_fig3(reps=15, seed=9)
        assert a == b

    def test_fig3_samples_differ_across_seeds(self):
        a = run_fig3(reps=15, seed=9)
        b = run_fig3(reps=15, seed=10)
        assert a != b

    def test_migration_bench_identical_under_seed(self):
        a = run_migration_bench(reps=3, num_counters=1, seed=4)
        b = run_migration_bench(reps=3, num_counters=1, seed=4)
        assert a["enclave_migration"] == b["enclave_migration"]

    def test_migration_bench_matches_golden_file(self):
        """Wall-clock optimizations must not move the virtual clock.

        The golden file was captured from run_migration_bench(reps=5,
        seed=0) *before* the fast-modexp / AEAD-cache / measurement-memo
        work landed; the samples must stay bit-identical (floats compared
        exactly — the virtual clock is pure bookkeeping, not measurement).
        """
        golden = json.loads((GOLDEN_DIR / "migration_bench_seed0.json").read_text())
        data = run_migration_bench(reps=5, seed=0)
        assert data["enclave_migration"] == golden["enclave_migration"]

    def test_fleet_bench_virtual_time_identical_under_seed(self):
        config = FleetBenchConfig(n_enclaves=2, n_machines=2, reps=1, seed=7)
        a = run_fleet_bench(config)
        b = run_fleet_bench(config)
        assert (
            a["virtual_seconds_per_migration"] == b["virtual_seconds_per_migration"]
        )

    def test_fleet_wave_bench_matches_golden_file(self):
        """The batched (migrate_group) fleet path gets the same pin as the
        sequential one: the wave protocol must not drift the virtual clock
        between commits (floats compared exactly)."""
        golden = json.loads((GOLDEN_DIR / "fleet_wave_seed0.json").read_text())
        data = run_fleet_bench(
            FleetBenchConfig(
                n_enclaves=4, n_machines=2, reps=2, seed=0, batch=True, plan="drain"
            )
        )
        assert data["migrations"] == golden["migrations"]
        assert (
            data["virtual_seconds_per_migration"]
            == golden["virtual_seconds_per_migration"]
        )
        assert data["virtual_seconds_total"] == golden["virtual_seconds_total"]

    @pytest.mark.parametrize(
        "family", ["messages", "batched", "disk", "fleet", "clone"]
    )
    def test_chaos_enumeration_matches_golden_file(self, family):
        """Every chaos sweep's scenario grid is part of the contract:
        silently losing a cell (a message leg, an artifact x fault x phase,
        a planner-kill boundary, a cloning window) means silently losing
        coverage.  The golden files pin the full seed-2018 enumerations;
        the message grids in both session-resumption modes."""
        from repro.faults import chaos

        def grid(scenarios):
            rows = [asdict(scenario) for scenario in scenarios]
            return {"scenario_count": len(rows), "scenarios": rows}

        golden = json.loads(
            (GOLDEN_DIR / f"chaos_{family}_seed2018.json").read_text()
        )
        if family in ("messages", "batched"):
            actual = {
                f"session_resumption_{'on' if resumption else 'off'}": grid(
                    chaos.enumerate_message_scenarios(
                        2018, resumption, batched=family == "batched"
                    )
                )
                for resumption in (False, True)
            }
            assert actual == golden["modes"]
        else:
            enumerate_family = getattr(chaos, f"enumerate_{family}_scenarios")
            actual = grid(enumerate_family(2018))
            assert actual["scenario_count"] == golden["scenario_count"]
            assert actual["scenarios"] == golden["scenarios"]

    def test_chaos_disk_smoke_rows_match_golden_file(self):
        """The disk grid's outcomes, not only its enumeration: each
        smoke-slice row (fired count, migrate and recovery outcome,
        corrupt-read count) is pinned against the seed-2018 capture, so a
        change to the durable-write or corrupt-read paths that moves any
        outcome fails here rather than only in the full ``--disk`` run."""
        from repro.faults.chaos import enumerate_disk_scenarios, sweep

        golden = json.loads(
            (GOLDEN_DIR / "chaos_disk_smoke_rows_seed2018.json").read_text()
        )
        reports = sweep(enumerate_disk_scenarios(2018), 2018, smoke=True)
        rows = [report.scenario.row(report) for report in reports]
        assert len(rows) == golden["row_count"]
        assert rows == golden["rows"]

    def test_chaos_disk_scenario_report_identical_under_seed(self):
        """One full fault scenario (injected tear + machine crash + healing
        recovery) replayed twice from the same seed must produce the
        identical report — the sweep's reproducibility in miniature."""
        from repro.faults.chaos import enumerate_disk_scenarios, run_scenario

        scenario = next(
            s
            for s in enumerate_disk_scenarios(2018)
            if s.artifact == "journal-source" and s.kind == "torn_write"
        )
        a = run_scenario(scenario, seed=2018)
        b = run_scenario(scenario, seed=2018)
        assert asdict(a) == asdict(b)

    def test_chaos_clone_scenario_report_identical_under_seed(self):
        """One full cloning campaign (clone launched mid-window, fenced by
        the registry, invariants checked) replayed twice from the same
        seed must produce the identical report — detection latency in
        virtual time included."""
        from repro.faults.chaos import enumerate_clone_scenarios, run_scenario

        scenario = next(
            s
            for s in enumerate_clone_scenarios(2018)
            if s.campaign == "restore-window" and s.fault == "drop"
        )
        a = run_scenario(scenario, seed=2018)
        b = run_scenario(scenario, seed=2018)
        assert asdict(a) == asdict(b)

    def test_datacenter_key_material_deterministic(self):
        dc1 = DataCenter(name="same", seed=5)
        dc2 = DataCenter(name="same", seed=5)
        assert dc1.ca_public_key == dc2.ca_public_key
        assert dc1.ias.report_public_key == dc2.ias.report_public_key

    def test_sealed_blobs_deterministic_under_seed(self):
        blobs = []
        for _ in range(2):
            dc = DataCenter(name="d", seed=6)
            machine = dc.add_machine("m")
            vm = machine.create_vm("v")
            app = vm.launch_application("a")
            key = SigningKey.generate(dc.rng.child("k"))
            enclave = app.launch_enclave(ProbeEnclave, key)
            blobs.append(enclave.ecall("probe"))
        assert blobs[0] == blobs[1]

    def test_different_datacenter_names_different_keys(self):
        dc1 = DataCenter(name="alpha", seed=5)
        dc2 = DataCenter(name="beta", seed=5)
        assert dc1.ca_public_key != dc2.ca_public_key
