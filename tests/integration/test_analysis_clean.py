"""Integration gate: the repository itself must be analysis-clean.

This is the tier-1 enforcement of the ISSUE-1 invariants: running the
analyzer over ``src/repro``, ``examples`` and ``benchmarks`` must produce
zero findings beyond the checked-in baseline.  A PR that introduces a
secret-flow, boundary, nonce, timing, counter-order, or protocol violation
fails here before it can rot the paper's security argument.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import Baseline
from repro.analysis.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parents[2]
ANALYZED = [REPO_ROOT / "src" / "repro", REPO_ROOT / "examples", REPO_ROOT / "benchmarks"]


def test_repository_is_clean_modulo_baseline(tree_findings):
    baseline = Baseline.load(REPO_ROOT / ".analysis-baseline.json")
    new, _ = baseline.filter(tree_findings)
    assert new == [], "new static-analysis findings:\n" + "\n".join(
        f.format_text() for f in new
    )


def test_cli_exits_zero_on_repository(capsys):
    code = cli_main(
        ["--baseline", str(REPO_ROOT / ".analysis-baseline.json")]
        + [str(path) for path in ANALYZED]
    )
    capsys.readouterr()
    assert code == 0


def test_cli_exits_nonzero_on_seeded_violation(tmp_path, capsys):
    """Acceptance check: a seeded violation per rule family trips the gate."""
    seeded = tmp_path / "src" / "repro" / "cloud" / "seeded.py"
    seeded.parent.mkdir(parents=True)
    seeded.write_text(
        "def all_six(enclave, aead, state, self_like):\n"
        "    print(state.msk)                                  # SEC001\n"
        "    enclave.trusted.balance = 0                       # SEC002\n"
        "    aead.encrypt(b'\\x00' * 12, b'payload')           # SEC003\n"
        "    ok = state.mac == b'expected'                     # SEC004\n"
        "    blob = self_like.seal_data(b's', b'aad')          # SEC005\n"
        "    self_like.increment_monotonic_counter(b'uuid')    # SEC005\n"
        "    lib = MigrationLibrary(self_like)\n"
        "    lib.migration_start('dest')                       # SEC006\n"
        "    return ok, blob\n"
    )
    code = cli_main(["--format", "json", "--no-baseline", str(seeded)])
    out = capsys.readouterr().out
    assert code == 1
    for rule in ("SEC001", "SEC002", "SEC003", "SEC004", "SEC005", "SEC006"):
        assert rule in out
