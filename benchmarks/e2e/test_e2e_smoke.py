"""Smoke test of the end-to-end benchmark at about 1/20 size.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.  It drives
``run.py --smoke`` as a user would (in subprocesses) and checks that every
metric ``BENCHMARK.json`` declares is emitted with its unit, that every
correctness and reconciliation check passes, and that the virtual clock is
deterministic per seed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(*args: str) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def untraced() -> list[dict]:
    return [_run("--trace", "0"), _run("--trace", "0")]


@pytest.fixture(scope="module")
def traced(tmp_path_factory) -> tuple[dict, Path]:
    trace_dir = tmp_path_factory.mktemp("traces")
    return _run("--trace", "1", "--trace-dir", str(trace_dir)), trace_dir


def _assert_declared(result: dict, section: str) -> None:
    for workload in WORKLOADS:
        for metric in SPEC[section]:
            emitted = result["metrics"][f"{workload}/{metric['name']}"]
            assert emitted["unit"] == metric["unit"], (workload, metric)
            assert isinstance(emitted["value"], (int, float)), (workload, metric)


def test_every_declared_metric_is_emitted_with_its_unit(untraced, traced):
    _assert_declared(untraced[0], "end_to_end")
    _assert_declared(traced[0], "per_layer")


def test_all_checks_pass_and_chrome_traces_load(untraced, traced):
    result, trace_dir = traced
    for run in (*untraced, result):
        assert run["correct"] is True
        assert run["failed"] == 0 and run["attempted"] > 0
    for workload in WORKLOADS:
        with open(trace_dir / f"trace-{workload}-seed0.json", encoding="utf-8") as handle:
            events = json.load(handle)["traceEvents"]
        assert any(event.get("cat") == "sgx.ecall" for event in events)


def test_virtual_metrics_are_identical_across_runs_of_one_seed(untraced):
    first, second = untraced
    virtual = [key for key in first["metrics"] if key.split("/")[1].startswith("virtual_")]
    assert len(virtual) == 2 * len(WORKLOADS)
    for key in virtual:
        assert first["metrics"][key] == second["metrics"][key], key
