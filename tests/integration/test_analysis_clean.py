"""Integration gate: the repository itself must be analysis-clean.

This is the tier-1 enforcement of the paper's R1-R4 invariants:
analyzing ``src/repro``, ``examples`` and ``benchmarks`` must produce zero
findings once ``# repro: ignore[...]`` pragmas are applied.  A change that
introduces a secret-flow, boundary, nonce, timing, counter-order, or
protocol violation fails here before it can rot the paper's security
argument.
"""

from __future__ import annotations

from repro.analysis.cli import main as cli_main


def test_repository_is_clean(tree_findings):
    assert tree_findings == [], "static-analysis findings:\n" + "\n".join(
        f.format_text() for f in tree_findings
    )


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
    code = cli_main(["--format", "json", str(seeded)])
    out = capsys.readouterr().out
    assert code == 1
    for rule in ("SEC001", "SEC002", "SEC003", "SEC004", "SEC005", "SEC006"):
        assert rule in out
