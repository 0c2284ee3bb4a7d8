"""Integration gate: the repository itself must be analysis-clean.

This is the tier-1 enforcement of the paper's R1-R4 invariants:
analyzing ``src/repro``, ``examples`` and ``benchmarks`` must produce zero
findings once ``# repro: ignore[...]`` pragmas are applied.  A change that
introduces a secret-flow, boundary, nonce, timing, counter-order, or
protocol violation fails here before it can rot the paper's security
argument.
"""

from __future__ import annotations

import json

from repro.analysis.cli import main as cli_main


def test_repository_is_clean(tree_findings):
    assert tree_findings == [], "static-analysis findings:\n" + "\n".join(
        f.format_text() for f in tree_findings
    )


def test_cli_exits_nonzero_on_seeded_violation(tmp_path, capsys):
    """Acceptance check: a seeded violation per rule family trips the gate,
    each on its own line."""
    seeded = tmp_path / "src" / "repro" / "cloud" / "seeded.py"
    seeded.parent.mkdir(parents=True)
    seeded.write_text(
        "def all_rules(enclave, aead, state, self_like):\n"
        "    print(state.msk)                                  # SEC001\n"
        "    enclave.trusted.balance = 0                       # SEC002\n"
        "    aead.encrypt(b'\\x00' * 12, b'payload')           # SEC003\n"
        "    ok = state.mac == b'expected'                     # SEC004\n"
        "    mode = InitState.RESUME                           # SEC006\n"
        "    blob = self_like.seal_data(b's', b'aad')\n"
        "    self_like.increment_monotonic_counter(b'uuid')    # SEC009\n"
        "    lib = MigrationLibrary(self_like)\n"
        "    lib.migration_start('dest')                       # SEC009\n"
        "    return ok, blob, mode\n"
    )
    code = cli_main(["--format", "json", str(seeded)])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    found = {(f["rule"], f["line"]) for f in report["findings"]}
    expected = {
        ("SEC001", 2), ("SEC002", 3), ("SEC003", 4), ("SEC004", 5),
        ("SEC006", 6), ("SEC009", 8), ("SEC009", 10),
    }
    assert expected <= found
