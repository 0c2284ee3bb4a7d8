"""Unit tests for the per-module static-analysis rules (SEC001-SEC004,
SEC006, SEC007) and for SEC009 on paths inside one function.

Each rule gets at least one known-violating and one known-clean fixture,
plus tests for the pragma suppression and the CLI surface.  The
cross-function fixtures are in ``test_analysis_interproc.py``.
"""

from __future__ import annotations

import json
from textwrap import dedent

import pytest

from repro.analysis import AnalysisEngine, analyze_source, zone_for
from repro.analysis.cli import main as cli_main
from repro.analysis.rules import ALL_RULE_CLASSES


def rules_in(source: str, path: str = "src/repro/mod.py") -> list[str]:
    return [f.rule for f in analyze_source(dedent(source), path)]


# --------------------------------------------------------------- SEC001
class TestSecretFlow:
    def test_print_of_msk_flags(self):
        assert "SEC001" in rules_in(
            """
            def leak(state):
                print("msk is", state.msk)
            """
        )

    def test_fstring_in_log_flags(self):
        assert "SEC001" in rules_in(
            """
            import logging
            def leak(session_key):
                logging.info(f"derived {session_key!r}")
            """
        )

    def test_ocall_with_raw_key_flags(self):
        assert "SEC001" in rules_in(
            """
            def leak(self):
                self.sdk.ocall("store", self._state.msk)
            """
        )

    def test_sealed_ocall_is_clean(self):
        assert rules_in(
            """
            def persist(self):
                blob = self.sdk.seal_data(self._state.msk, b"aad")
                self.sdk.ocall("save_library_state", blob)
            """
        ) == []

    def test_public_key_print_is_clean(self):
        assert rules_in(
            """
            def show(identity):
                print("verifier:", identity.public_key)
            """
        ) == []

    def test_ocall_name_position_not_flagged(self):
        # args[0] is the OCALL *name*; only payload positions are sinks.
        assert rules_in(
            """
            def fine(self, payload):
                self.sdk.ocall("request_key", payload)
            """
        ) == []


# --------------------------------------------------------------- SEC002
class TestEnclaveBoundary:
    VIOLATION = """
        def attack(enclave):
            return enclave.trusted.balance
        """

    def test_untrusted_access_flags(self):
        assert "SEC002" in rules_in(self.VIOLATION, "src/repro/cloud/evil.py")
        assert "SEC002" in rules_in(self.VIOLATION, "examples/demo.py")

    def test_trusted_module_exempt(self):
        # The enclave runtime itself may manage .trusted.
        assert rules_in(self.VIOLATION, "src/repro/sgx/enclave.py") == []

    def test_ecall_path_is_clean(self):
        assert rules_in(
            """
            def ok(enclave):
                return enclave.ecall("balance")
            """,
            "src/repro/cloud/ok.py",
        ) == []

    def test_write_access_flags(self):
        assert "SEC002" in rules_in(
            """
            def attack(enclave):
                enclave.trusted = None
            """,
            "benchmarks/bench_evil.py",
        )

    def test_zone_classification(self):
        assert zone_for("src/repro/cloud/vm.py") == "untrusted"
        assert zone_for("examples/quickstart.py") == "untrusted"
        assert zone_for("src/repro/core/protocol.py") == "trusted"


# --------------------------------------------------------------- SEC003
class TestNonceHygiene:
    def test_literal_iv_flags(self):
        assert "SEC003" in rules_in(
            """
            def bad(aead, plaintext):
                return aead.encrypt(b"\\x00" * 12, plaintext)
            """
        )

    def test_constant_variable_iv_flags(self):
        assert "SEC003" in rules_in(
            """
            def bad(aead, plaintext):
                iv = b"fixed-iv-12b"
                return aead.encrypt(iv, plaintext)
            """
        )

    def test_reused_iv_flags(self):
        assert "SEC003" in rules_in(
            """
            def bad(aead, rng, a, b):
                iv = rng.random_bytes(12)
                first = aead.encrypt(iv, a)
                second = aead.encrypt(iv, b)
                return first, second
            """
        )

    def test_random_iv_is_clean(self):
        assert rules_in(
            """
            def good(aead, rng, a, b):
                iv = rng.random_bytes(12)
                first = aead.encrypt(iv, a)
                iv = rng.random_bytes(12)
                second = aead.encrypt(iv, b)
                return first, second
            """
        ) == []

    def test_sequence_derived_iv_is_clean(self):
        # The secure channel's construction: constant prefix + live counter.
        assert rules_in(
            """
            def send(self, plaintext):
                seq = self._send.sequence
                iv = b"\\x00" * 4 + seq.to_bytes(8, "big")
                return self._send.aead.encrypt(iv, plaintext)
            """
        ) == []

    def test_decrypt_with_fixed_iv_is_clean(self):
        assert rules_in(
            """
            def recv(aead, record):
                return aead.decrypt(b"\\x00" * 12, record, b"tagtagtagtagtagg")
            """
        ) == []


# --------------------------------------------------------------- SEC004
class TestConstantTime:
    def test_tag_equality_flags(self):
        assert "SEC004" in rules_in(
            """
            def verify(expected_tag, tag):
                return expected_tag == tag
            """
        )

    def test_digest_subscript_flags(self):
        assert "SEC004" in rules_in(
            """
            def verify(fields, computed):
                if fields["tag"] != computed:
                    raise ValueError("bad")
            """
        )

    def test_constant_time_equal_is_clean(self):
        assert rules_in(
            """
            from repro.crypto.bytesutil import constant_time_equal
            def verify(expected_tag, tag):
                return constant_time_equal(expected_tag, tag)
            """
        ) == []

    def test_length_check_is_clean(self):
        assert rules_in(
            """
            def check(tag):
                if len(tag) != 16:
                    raise ValueError("bad length")
            """
        ) == []

    def test_mrenclave_policy_check_is_clean(self):
        # Public identity measurements are deliberately out of scope.
        assert rules_in(
            """
            def accept(identity, expected):
                return identity.mrenclave == expected.mrenclave
            """
        ) == []


# ----------------------------------------------- SEC009 in one function
class TestCounterDiscipline:
    """The increment-before-release order inside one function is SEC009's,
    as on any longer call path."""

    def test_seal_before_increment_flags(self):
        assert "SEC009" in rules_in(
            """
            def persist(self):
                blob = self.miglib.seal_migratable_data(self.state)
                self.miglib.increment_migratable_counter(self._counter_id)
                return blob
            """
        )

    def test_increment_then_seal_is_clean(self):
        assert rules_in(
            """
            def persist(self):
                version = self.miglib.increment_migratable_counter(self._counter_id)
                return self.miglib.seal_migratable_data(self.state, version.to_bytes(4, "big"))
            """
        ) == []

    def test_native_primitives_also_checked(self):
        assert "SEC009" in rules_in(
            """
            def persist(self):
                blob = self.sdk.seal_data(self.state, b"aad")
                self.sdk.increment_monotonic_counter(self._uuid)
                return blob
            """
        )

    def test_seal_without_counter_is_clean(self):
        assert rules_in(
            """
            def persist(self):
                return self.sdk.seal_data(self.state, b"aad")
            """
        ) == []

    def test_two_seals_before_one_increment_flag_once_at_the_increment(self):
        findings = analyze_source(dedent(
            """
            def persist(self):
                first = self.sdk.seal_data(self.a, b"aad")
                second = self.sdk.seal_data(self.b, b"aad")
                self.sdk.increment_monotonic_counter(self._uuid)
                return first, second
            """
        ), "src/repro/mod.py")
        assert [(f.rule, f.line) for f in findings] == [("SEC009", 5)]

    @pytest.mark.parametrize("seal", ["self.libs[index].seal_data", "seal_data"])
    def test_seal_on_any_receiver_before_increment_flags(self, seal):
        # A release counts on any receiver, not only on a dotted name.
        assert "SEC009" in rules_in(
            f"""
            def persist(self, index):
                blob = {seal}(self.state, b"aad")
                self.sdk.increment_monotonic_counter(self._uuid)
                return blob
            """
        )


# ---------------------------------------------------- SEC006 and SEC009
class TestProtocolState:
    """SEC006 checks the declared init states at every ``migration_init``;
    the library lifecycle inside one function is SEC009's."""

    def test_unknown_init_state_flags(self):
        assert "SEC006" in rules_in(
            """
            from repro.core.migration_library import InitState
            def boot(lib):
                lib.migration_init(None, InitState.RESUME, "me")
            """
        )

    def test_declared_members_are_clean(self):
        assert rules_in(
            """
            from repro.core.migration_library import InitState
            STATES = [InitState.NEW, InitState.RESTORE, InitState.MIGRATE]
            """
        ) == []

    def test_operation_before_init_flags(self):
        assert "SEC009" in rules_in(
            """
            def boot(sdk):
                lib = MigrationLibrary(sdk)
                lib.seal_migratable_data(b"state")
            """
        )

    def test_operation_after_start_flags(self):
        assert "SEC009" in rules_in(
            """
            def migrate(sdk):
                lib = MigrationLibrary(sdk)
                lib.migration_init(None, InitState.NEW, "me")
                lib.migration_start("dest")
                lib.seal_migratable_data(b"state")
            """
        )

    def test_double_init_flags(self):
        assert "SEC009" in rules_in(
            """
            def boot(sdk):
                lib = MigrationLibrary(sdk)
                lib.migration_init(None, InitState.NEW, "me")
                lib.migration_init(None, InitState.NEW, "me")
            """
        )

    def test_init_retried_in_except_is_clean(self):
        # The first init may have raised, so the retry is not a second init.
        assert rules_in(
            """
            def boot(sdk, report):
                lib = MigrationLibrary(sdk)
                try:
                    lib.migration_init(report, InitState.NEW, "me")
                except MigrationError:
                    lib.migration_init(report, InitState.NEW, "me")
            """
        ) == []

    def test_operation_after_start_inside_try_flags(self):
        # The call may raise, but it is still judged against the known state.
        assert "SEC009" in rules_in(
            """
            def migrate(sdk, report):
                lib = MigrationLibrary(sdk)
                lib.migration_init(report, InitState.NEW, "me")
                lib.migration_start("dest")
                try:
                    lib.seal_migratable_data(b"state")
                except MigrationError:
                    pass
            """
        )

    def test_start_before_init_inside_try_flags(self):
        assert "SEC009" in rules_in(
            """
            def boot(sdk):
                lib = MigrationLibrary(sdk)
                try:
                    lib.migration_start("dest")
                except MigrationError:
                    pass
            """
        )

    def test_restore_without_buffer_flags(self):
        assert "SEC006" in rules_in(
            """
            def boot(sdk):
                lib = MigrationLibrary(sdk)
                lib.migration_init(None, InitState.RESTORE, "me")
            """
        )

    def test_restore_without_buffer_on_any_receiver_flags(self):
        # Not only on a library constructed in the same function.
        assert "SEC006" in rules_in(
            """
            def boot(enclave):
                enclave.miglib.migration_init(None, InitState.RESTORE, "me")
            """
        )

    def test_legal_lifecycle_is_clean(self):
        assert rules_in(
            """
            def lifecycle(sdk, buffer):
                lib = MigrationLibrary(sdk)
                lib.migration_init(buffer, InitState.RESTORE, "me")
                lib.create_migratable_counter()
                lib.seal_migratable_data(b"state")
                lib.migration_start("dest")
                lib.migration_start("dest-retry")
            """
        ) == []


# --------------------------------------------------------------- SEC007
class TestDurableWrite:
    def test_journal_write_without_sync_flags(self):
        assert "SEC007" in rules_in(
            """
            def persist(self, record):
                self.storage.write("app/migration_txn", record.to_bytes())
            """
        )

    def test_checkpoint_write_without_sync_flags(self):
        assert "SEC007" in rules_in(
            """
            def checkpoint(machine, blob):
                machine.storage.write("migration-service/me_checkpoint.a", blob)
            """
        )

    def test_constant_path_argument_flags(self):
        assert "SEC007" in rules_in(
            """
            def persist(app, blob):
                app.machine.storage.write(LIBRARY_STATE_PATH, blob)
            """
        )

    def test_write_followed_by_sync_is_clean(self):
        assert rules_in(
            """
            def persist(self, record):
                self.storage.write("app/migration_txn.tmp", record.to_bytes())
                self.storage.sync("app/migration_txn.tmp")
                self.storage.rename("app/migration_txn.tmp", "app/migration_txn")
            """
        ) == []

    def test_durable_wrapper_is_clean(self):
        assert rules_in(
            """
            def persist(app, blob):
                app.store_atomic("miglib_state", blob)
            """
        ) == []

    def test_non_critical_path_is_clean(self):
        assert rules_in(
            """
            def snapshot(machine, blob):
                machine.storage.write("backups/kv", blob)
            """
        ) == []

    def test_sync_before_the_write_does_not_count(self):
        assert "SEC007" in rules_in(
            """
            def persist(self, record):
                self.storage.sync()
                self.storage.write("app/migration_txn", record.to_bytes())
            """
        )


# ----------------------------------------------------------- suppression
class TestPragmas:
    def test_same_line_pragma_suppresses(self):
        assert rules_in(
            """
            def attack(enclave):
                return enclave.trusted.balance  # repro: ignore[SEC002]
            """,
            "src/repro/cloud/evil.py",
        ) == []

    def test_preceding_comment_pragma_suppresses(self):
        assert rules_in(
            """
            def attack(enclave):
                # loader infrastructure, see machine.load_enclave
                # repro: ignore[SEC002]
                return enclave.trusted.balance
            """,
            "src/repro/cloud/evil.py",
        ) == []

    def test_pragma_only_silences_named_rule(self):
        findings = rules_in(
            """
            def leak(enclave, msk):
                print(enclave.trusted, msk)  # repro: ignore[SEC002]
            """,
            "src/repro/cloud/evil.py",
        )
        assert "SEC001" in findings and "SEC002" not in findings

    def test_star_pragma_silences_everything(self):
        assert rules_in(
            """
            def leak(enclave, msk):
                print(enclave.trusted, msk)  # repro: ignore[*]
            """,
            "src/repro/cloud/evil.py",
        ) == []


# -------------------------------------------------------------------- CLI
class TestCli:
    def _violating_file(self, tmp_path):
        target = tmp_path / "src" / "repro" / "mod.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "def verify(expected_tag, tag):\n    return expected_tag == tag\n"
        )
        return target

    def test_exit_one_and_json_on_finding(self, tmp_path, capsys):
        target = self._violating_file(tmp_path)
        code = cli_main(["--format", "json", str(target)])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["total"] == 1
        assert report["findings"][0]["rule"] == "SEC004"

    def test_exit_zero_on_clean_file(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("def add(a, b):\n    return a + b\n")
        assert cli_main([str(target)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_missing_path_is_usage_error(self, tmp_path):
        assert cli_main([str(tmp_path / "nope")]) == 2

    def test_list_rules_names_full_catalog(self, capsys):
        assert cli_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for cls in ALL_RULE_CLASSES:
            assert cls.rule_id in out

    def test_syntax_error_reported_as_parse_finding(self, tmp_path, capsys):
        target = tmp_path / "broken.py"
        target.write_text("def broken(:\n")
        assert cli_main([str(target)]) == 1
        assert "PARSE" in capsys.readouterr().out


def test_every_rule_has_catalog_metadata():
    ids = [cls.rule_id for cls in ALL_RULE_CLASSES]
    assert ids == sorted(ids) and len(set(ids)) == len(ids)
    for cls in ALL_RULE_CLASSES:
        assert cls.rule_id.startswith("SEC")
        assert cls.title and cls.fix_hint
        assert cls.requirement in {"R1", "R2", "R3", "R4"}
