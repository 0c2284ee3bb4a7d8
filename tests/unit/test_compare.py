"""The verdicts of ``benchmarks/compare.py``, from fake run reports.

``compare._run`` is replaced by a function that hands back canned reports,
so ``main`` runs its whole comparison in-process without a benchmark run.
"""

from __future__ import annotations

import json

import pytest

from benchmarks import compare

SPEC = json.loads((compare.ROOT / "BENCHMARK.json").read_text())
METRICS = [metric["name"] for metric in SPEC["end_to_end"]]


def _verdicts(monkeypatch, tmp_path, capsys, base_runs, head_runs, head_failed=()):
    """Run ``main`` on reports whose ``setup_s`` takes the given values.

    Every other metric is 1.0 on both sides.  Head fails one op in the runs
    whose index is in ``head_failed``.  Returns the verdict per metric.
    """
    runner = tmp_path / compare.RUNNER
    runner.parent.mkdir(parents=True)
    runner.touch()
    sides = {tmp_path.resolve(): iter(base_runs), compare.ROOT: iter(head_runs)}
    head_index = iter(range(len(head_runs)))

    def fake_run(checkout, args):
        setup_s = next(sides[checkout])
        failed = int(checkout == compare.ROOT and next(head_index) in head_failed)
        metrics = dict.fromkeys(METRICS, 1.0) | {"setup_s": setup_s}
        return {"correct": True, "failed": failed, "metrics": metrics}

    monkeypatch.setattr(compare, "_run", fake_run)
    code = compare.main(["--base", str(tmp_path), "--workload", "kv_churn",
                         "--pairs", str(len(base_runs))])
    assert code == 0
    rows = [line for line in capsys.readouterr().out.splitlines()
            if line.split(" ", 1)[0] in METRICS]
    return {row.split(" ", 1)[0]: row.rsplit("%  ", 1)[1] for row in rows}


# The base's spread is far wider than setup_s's 25 % bound.
BASE = [0.9, 0.5, 1.3, 0.7, 1.1]


@pytest.mark.parametrize(
    ("head", "head_failed", "expected"),
    [
        ([0.45, 0.48, 0.44, 0.47, 0.46], (), "better"),
        ([0.45, 0.48, 0.44, 0.47, 0.46], (2,), "unresolved"),
        ([0.45, 0.48, 0.44, 0.47, 0.55], (), "unresolved"),
    ],
    ids=["every-run-beats-every-base-run", "head-failed-more-ops", "one-run-overlaps"],
)
def test_better_needs_every_head_run_to_beat_every_base_run(
    monkeypatch, tmp_path, capsys, head, head_failed, expected
):
    verdicts = _verdicts(monkeypatch, tmp_path, capsys, BASE, head, head_failed)
    assert verdicts["setup_s"] == expected
    assert {verdicts[name] for name in METRICS if name != "setup_s"} == {"same"}


def test_gain_takes_precedence_over_better(monkeypatch, tmp_path, capsys):
    verdicts = _verdicts(monkeypatch, tmp_path, capsys, BASE * 2, [0.2] * 10)
    assert verdicts["setup_s"] == "gain"
