"""Cross-function fixtures for the PR-6 interprocedural engine.

Every new rule (SEC008-SEC010) and every dataflow-rewritten rule (SEC001,
SEC003) gets at least one *cross-function* positive and negative: the
violation/cleanliness must be established through a helper call, not
visible in any single function.  Plus the call-graph contract on the real
tree: every ``@ecall`` method is reachable through the string-dispatch
edge.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from textwrap import dedent

import pytest

from repro.analysis import analyze_source
from repro.analysis.cli import main as cli_main
from repro.analysis.engine import AnalysisEngine

REPO_ROOT = Path(__file__).resolve().parents[2]


def rules_in(source: str, path: str = "src/repro/mod.py") -> list[str]:
    return [f.rule for f in analyze_source(dedent(source), path)]


def findings_in(source: str, path: str = "src/repro/mod.py"):
    return analyze_source(dedent(source), path)


# ------------------------------------------------------------------ SEC008
class TestTaintedReturnCrossFunction:
    LEAK = """
        from repro.sgx.enclave import ecall

        class Vault:
            def _raw(self):
                return self._msk

            def _wrap(self):
                return self._raw()

            @ecall
            def export(self):
                return self._wrap()
        """

    def test_secret_through_two_helpers_flags(self):
        assert "SEC008" in rules_in(self.LEAK)

    def test_trace_is_multi_hop(self):
        finding = next(
            f for f in findings_in(self.LEAK) if f.rule == "SEC008"
        )
        assert len(finding.trace) >= 3  # read -> helper hop(s) -> boundary
        rendered = finding.format_text(explain=True)
        assert "flow:" in rendered
        assert "_msk" in rendered

    def test_sealed_return_is_clean(self):
        assert "SEC008" not in rules_in(
            """
            from repro.sgx.enclave import ecall

            class Vault:
                def _packed(self):
                    return self.sdk.seal_data(self._msk, b"aad")

                @ecall
                def export(self):
                    return self._packed()
            """
        )

    def test_network_send_through_helper_flags(self):
        assert "SEC008" in rules_in(
            """
            class Router:
                def _frame(self):
                    return self._session_key

                def flush(self, network):
                    network.send(self._frame())
            """
        )

    @pytest.mark.parametrize("sink", ["write", "write_atomic"])
    def test_storage_write_through_helper_flags(self, sink):
        assert "SEC008" in rules_in(
            f"""
            class Keeper:
                def _material(self):
                    return self._sealing_key

                def persist(self, storage):
                    storage.{sink}("app/key", self._material())
            """
        )

    def test_channel_send_is_clean(self):
        # the attested secure channel encrypts inside send()
        assert "SEC008" not in rules_in(
            """
            class Router:
                def flush(self, channel):
                    channel.send(self._session_key)
            """
        )

    def test_lookup_key_param_is_not_a_secret(self):
        assert "SEC008" not in rules_in(
            """
            from repro.sgx.enclave import ecall

            class Store:
                @ecall
                def get(self, key):
                    return self._data[key]
            """
        )


# ------------------------------------------------------------------ SEC009
class TestLifecycleCrossFunction:
    def test_start_on_uninitialized_library_through_helper_flags(self):
        assert "SEC009" in rules_in(
            """
            def freeze(lib):
                lib.migration_start("dest")

            def deploy(sdk):
                lib = MigrationLibrary(sdk)
                freeze(lib)
            """
        )

    def test_init_before_helper_start_is_clean(self):
        assert "SEC009" not in rules_in(
            """
            def freeze(lib):
                lib.migration_start("dest")

            def deploy(sdk, report):
                lib = MigrationLibrary(sdk)
                lib.migration_init(report)
                freeze(lib)
            """
        )

    def test_helper_seal_before_root_increment_flags(self):
        assert "SEC009" in rules_in(
            """
            class App:
                def _snapshot(self):
                    return self.miglib.seal_migratable_data(self._blob, b"v")

                def checkpoint(self):
                    blob = self._snapshot()
                    self.miglib.increment_migratable_counter(self._cid)
                    return blob
            """
        )

    def test_increment_before_helper_seal_is_clean(self):
        assert "SEC009" not in rules_in(
            """
            class App:
                def _snapshot(self):
                    return self.miglib.seal_migratable_data(self._blob, b"v")

                def checkpoint(self):
                    self.miglib.increment_migratable_counter(self._cid)
                    return self._snapshot()
            """
        )

    def test_rebinding_resets_receiver_state(self):
        # after `enclave = relaunch()` the old FROZEN state must not stick
        assert "SEC009" not in rules_in(
            """
            def helper_op(lib):
                lib.seal_migratable_data(b"x", b"v")

            def run(sdk, report, relaunch):
                lib = MigrationLibrary(sdk)
                lib.migration_init(report)
                lib.migration_start("dest")
                lib = relaunch()
                helper_op(lib)
            """
        )

    def test_operation_after_freeze_through_helper_flags(self):
        assert "SEC009" in rules_in(
            """
            def helper_op(lib):
                lib.seal_migratable_data(b"x", b"v")

            def run(sdk, report):
                lib = MigrationLibrary(sdk)
                lib.migration_init(report)
                lib.migration_start("dest")
                helper_op(lib)
            """
        )

    def test_violation_inside_helper_reported_once_not_per_caller(self):
        findings = findings_in(
            """
            class App:
                def _finish(self):
                    self.miglib.migration_start("dest")
                    self.miglib.seal_migratable_data(b"x", b"v")

                def first(self):
                    self._finish()

                def second(self):
                    self._finish()
            """
        )
        assert [(f.rule, f.line) for f in findings] == [("SEC009", 5)]

    def test_violation_inside_parameter_helper_reported_once(self):
        findings = findings_in(
            """
            def helper(lib):
                lib.migration_start("dest")
                lib.seal_migratable_data(b"x", b"v")

            def build(sdk, report):
                lib = MigrationLibrary(sdk)
                lib.migration_init(report)
                helper(lib)
            """
        )
        assert [(f.rule, f.line) for f in findings] == [("SEC009", 4)]

    def test_init_helper_called_twice_flags_at_the_caller(self):
        # Each call of the helper is legal alone; only the caller sees both.
        findings = findings_in(
            """
            def setup(lib, report):
                lib.migration_init(report)

            def boot(sdk, report):
                lib = MigrationLibrary(sdk)
                setup(lib, report)
                setup(lib, report)
            """
        )
        assert [(f.rule, f.line) for f in findings] == [("SEC009", 8)]


# ---------------------------------------------------------- SEC003 rewrite
class TestNonceCrossFunction:
    def test_iv_reuse_through_helper_flags(self):
        assert "SEC003" in rules_in(
            """
            def wrap(sdk, data, iv):
                return sdk.encrypt(iv, data)

            def leak(sdk, payload):
                iv = sdk.random_bytes(12)
                first = wrap(sdk, payload, iv)
                second = sdk.encrypt(iv, payload)
                return first, second
            """
        )

    def test_helper_encrypting_twice_with_one_nonce_param_flags(self):
        assert "SEC003" in rules_in(
            """
            def wrap(sdk, data, iv):
                a = sdk.encrypt(iv, data)
                b = sdk.encrypt(iv, data)
                return a, b
            """
        )

    def test_constant_returning_helper_as_iv_flags(self):
        assert "SEC003" in rules_in(
            """
            def make_iv():
                return b"\\x00" * 12

            def seal_once(sdk, data):
                return sdk.encrypt(make_iv(), data)
            """
        )

    def test_fresh_iv_per_helper_call_is_clean(self):
        assert "SEC003" not in rules_in(
            """
            def wrap(sdk, data, iv):
                return sdk.encrypt(iv, data)

            def ok(sdk, payload):
                first = wrap(sdk, payload, sdk.random_bytes(12))
                second = wrap(sdk, payload, sdk.random_bytes(12))
                return first, second
            """
        )

    def test_reassigned_iv_between_helper_calls_is_clean(self):
        assert "SEC003" not in rules_in(
            """
            def wrap(sdk, data, iv):
                return sdk.encrypt(iv, data)

            def ok(sdk, payload):
                iv = sdk.random_bytes(12)
                first = wrap(sdk, payload, iv)
                iv = sdk.random_bytes(12)
                second = wrap(sdk, payload, iv)
                return first, second
            """
        )


# ------------------------------------------------- SEC002 alias / reflective
class TestBoundaryAliasing:
    def test_aliased_trusted_access_flags(self):
        assert "SEC002" in rules_in(
            """
            def poke(enclave):
                handle = enclave
                handle.trusted.balance = 0
            """,
            path="src/repro/cloud/attack.py",
        )

    def test_getattr_trusted_access_flags(self):
        assert "SEC002" in rules_in(
            """
            def peek(enclave):
                return getattr(enclave, "trusted")
            """,
            path="src/repro/cloud/attack.py",
        )

    def test_setattr_trusted_access_flags(self):
        assert "SEC002" in rules_in(
            """
            def clobber(enclave, evil):
                setattr(enclave, "trusted", evil)
            """,
            path="src/repro/cloud/attack.py",
        )

    def test_getattr_other_attribute_is_clean(self):
        assert "SEC002" not in rules_in(
            """
            def fine(enclave):
                return getattr(enclave, "enclave_id")
            """,
            path="src/repro/cloud/attack.py",
        )


# ------------------------------------------------- SEC001 via shared engine
class TestSecretFlowCrossFunction:
    def test_secret_through_helper_return_flags(self):
        assert "SEC001" in rules_in(
            """
            class Lib:
                def _fetch(self):
                    return self._state.msk

                def debug_dump(self):
                    value = self._fetch()
                    print("state:", value)
            """
        )

    def test_helper_that_seals_is_clean(self):
        assert "SEC001" not in rules_in(
            """
            class Lib:
                def _fetch(self):
                    return self.sdk.seal_data(self._state.msk, b"aad")

                def debug_dump(self):
                    print("state:", self._fetch())
            """
        )


# ------------------------------------------------------ SEC010 reachability
class TestReachability:
    def test_dead_ecall_handler_flags(self):
        source = """
            from repro.sgx.enclave import ecall

            class App:
                @ecall
                def used(self):
                    return 1

                @ecall
                def never_dispatched(self):
                    return 2

            def host(enclave):
                return enclave.ecall("used")
            """
        findings = findings_in(source)
        assert any(
            f.rule == "SEC010" and "never_dispatched" in f.message
            for f in findings
        )
        assert not any(
            f.rule == "SEC010" and "'App.used'" in f.message for f in findings
        )

    def test_unreachable_trusted_method_flags(self):
        assert "SEC010" in rules_in(
            """
            from repro.sgx.enclave import ecall

            class App:
                @ecall
                def entry(self):
                    return self._helper()

                def _helper(self):
                    return 1

                def _orphan(self):
                    return 2

            def host(enclave):
                return enclave.ecall("entry")
            """
        )

    def test_fully_wired_enclave_is_clean(self):
        assert "SEC010" not in rules_in(
            """
            from repro.sgx.enclave import ecall

            class App:
                @ecall
                def entry(self):
                    return self._helper()

                def _helper(self):
                    return 1

            def host(enclave):
                return enclave.ecall("entry")
            """
        )


# ----------------------------------------------- call graph on the real tree
class TestRealTreeCallGraph:
    def test_every_ecall_method_reachable_via_string_dispatch(self):
        """Satellite contract: each ``@ecall`` in src/repro is the target of
        at least one ``Enclave.ecall("name", ...)`` dispatch edge (the tests
        count as context), and the dispatch table is exact."""
        project = AnalysisEngine(rules=[]).build_project(["src/repro"])
        dispatched = {
            site.dispatch_name
            for site in project.call_sites
            if site.kind == "dispatch"
        }
        missing = [
            fn.qualname
            for fn in project.functions.values()
            if fn.is_ecall
            and fn.module.zone == "trusted"
            and not fn.is_context
            and fn.name not in dispatched
        ]
        assert missing == []
        # and the dispatch edge lands on the decorated method itself
        for site in project.call_sites:
            if site.kind != "dispatch" or not site.callees:
                continue
            for callee in site.callees:
                fn = project.function_at(callee)
                assert fn is not None and fn.is_ecall

    def test_fleet_control_plane_dispatches_resolve(self):
        """The fleet control plane (planner/pre-flight/executor/demo) is a
        new host-side entry surface in front of the enclaves: every string
        dispatch it issues must resolve to a known ``@ecall`` method, so a
        fleet code path can never drift off the dispatch table unnoticed."""
        project = AnalysisEngine(rules=[]).build_project(["src/repro"])
        fleet_sites = [
            site
            for site in project.call_sites
            if site.kind == "dispatch"
            and "src/repro/fleet/" in site.module.display_path
        ]
        # The fleet package genuinely drives enclaves (the demo world's
        # counter workload); losing those sites means losing the contract.
        assert fleet_sites, "no dispatch sites found under src/repro/fleet"
        for site in fleet_sites:
            assert site.callees, (
                f"unresolved fleet dispatch {site.dispatch_name!r} in "
                f"{site.module.display_path}"
            )
            for callee in site.callees:
                fn = project.function_at(callee)
                assert fn is not None and fn.is_ecall
        # The executor itself must stay free of direct enclave dispatches:
        # it talks to enclaves only through the wave request and each
        # member's resume(), never by invoking ECALLs of its own.
        for site in fleet_sites:
            assert not site.module.display_path.endswith(
                ("service.py", "preflight.py", "journal.py", "planner.py")
            ), (
                f"control-plane module issues a raw enclave dispatch: "
                f"{site.module.display_path}"
            )


# ---------------------------------------------------------------- golden pin
class TestGoldenPin:
    def test_raw_finding_counts_match_seed(self, raw_tree_findings):
        """Pin the per-rule finding counts over the real tree with pragma
        suppression disabled.  A new finding is a regression to fix (or a
        deliberate pin update); a *vanished* finding means a rule silently
        stopped firing on a known-bad, pragma-justified site."""
        golden = json.loads(
            (REPO_ROOT / "tests" / "golden" / "analysis_seed.json").read_text()
        )
        # The session's raw scan (tests/conftest.py) is the one this file describes.
        assert golden["apply_pragmas"] is False
        assert golden["paths"] == ["src/repro", "examples", "benchmarks"]
        findings = raw_tree_findings
        counts = dict(sorted(Counter(f.rule for f in findings).items()))
        assert counts == golden["counts"], "\n".join(
            f"{f.path}:{f.line} {f.rule} {f.message}" for f in findings
        )

    def test_filtered_raw_run_equals_pragma_on_run(self, tmp_path, monkeypatch):
        """``filter_pragmas`` over a pragma-off run gives exactly a pragma-on
        run's findings: same-line, comment-line and wildcard pragmas drop
        theirs, and a file that does not parse keeps its PARSE finding."""
        cloud = tmp_path / "src" / "repro" / "cloud"
        cloud.mkdir(parents=True)
        (cloud / "host.py").write_text(dedent("""
            def touch(enclave, state):
                enclave.trusted.balance = 0  # repro: ignore[SEC002]
                # repro: ignore[SEC004]
                ok = state.mac == b"expected"
                enclave.trusted.other = 1
                return ok == (state.tag == b"tag")
        """))
        (cloud / "wild.py").write_text(dedent("""
            def poke(enclave):
                enclave.trusted.x = 0  # repro: ignore[*]
                return enclave.trusted.y
        """))
        (cloud / "broken.py").write_text("def broken(:  # repro: ignore[*]\n")
        monkeypatch.chdir(tmp_path)
        raw = AnalysisEngine(apply_pragmas=False, context_paths=[]).analyze_paths(["src"])
        direct = AnalysisEngine(context_paths=[]).analyze_paths(["src"])
        assert AnalysisEngine.filter_pragmas(raw) == direct
        assert len(direct) < len(raw)
        assert {f.rule for f in direct} == {"PARSE", "SEC002", "SEC004"}


# ----------------------------------------------------------------------- CLI
class TestCliInterproc:
    LEAK = dedent(TestTaintedReturnCrossFunction.LEAK)

    def _write(self, tmp_path):
        target = tmp_path / "vault.py"
        target.write_text(self.LEAK)
        return target

    def test_explain_prints_multi_hop_flow(self, tmp_path, capsys):
        target = self._write(tmp_path)
        code = cli_main(["--explain", str(target)])
        out = capsys.readouterr().out
        assert code == 1
        assert "SEC008" in out
        assert "flow:" in out
        # the flow crosses both helpers on its way to the ECALL boundary
        assert "_raw" in out and "_wrap" in out
        flow = out.split("flow:", 1)[1]
        steps = [ln for ln in flow.splitlines() if "vault.py:" in ln]
        assert len(steps) >= 3  # secret read -> helper hop(s) -> boundary

    def test_rule_filter_selects_single_rule(self, tmp_path, capsys):
        target = self._write(tmp_path)
        assert cli_main(["--rule", "SEC003", str(target)]) == 0
        code = cli_main(["--rule", "SEC008", str(target)])
        out = capsys.readouterr().out
        assert code == 1
        assert "SEC008" in out and "SEC010" not in out

    def test_sarif_output_carries_code_flow(self, tmp_path, capsys):
        target = self._write(tmp_path)
        code = cli_main(["--format", "sarif", str(target)])
        assert code == 1
        sarif = json.loads(capsys.readouterr().out)
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        results = run["results"]
        assert any(r["ruleId"] == "SEC008" for r in results)
        leak = next(r for r in results if r["ruleId"] == "SEC008")
        assert "reproFlow/v1" in leak["partialFingerprints"]
        locations = leak["codeFlows"][0]["threadFlows"][0]["locations"]
        assert len(locations) >= 3
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert "SEC008" in rule_ids

    def test_json_output_round_trips(self, tmp_path, capsys):
        target = self._write(tmp_path)
        cli_main(["--format", "json", str(target)])
        payload = json.loads(capsys.readouterr().out)
        assert any(f["rule"] == "SEC008" for f in payload["findings"])
