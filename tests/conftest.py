"""Shared fixtures for the test suite.

World-building is relatively expensive (Diffie-Hellman, EPID joins), so
fixtures that only *read* from a world are module-scoped where safe; any
test that mutates shared state builds its own world.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import AnalysisEngine
from repro.cloud.datacenter import DataCenter
from repro.crypto import native
from repro.sgx.cpu import SgxCpu
from repro.sgx.identity import SigningKey
from repro.sgx.platform_services import PlatformServices
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostMeter, CostModel
from repro.sim.rng import DeterministicRng


@pytest.fixture
def rng() -> DeterministicRng:
    return DeterministicRng(1234, "tests")


@pytest.fixture
def reference_backend(monkeypatch):
    """Run AES-GCM, AES-CMAC and modular exponentiation on their from-scratch
    references: the libcrypto loader, its cache cleared, finds no library."""
    monkeypatch.setattr(native, "_candidates", lambda: iter(()))
    native.libcrypto.cache_clear()
    assert native.libcrypto() is None
    yield
    native.libcrypto.cache_clear()


@pytest.fixture
def clock() -> VirtualClock:
    return VirtualClock()


@pytest.fixture
def meter(clock, rng) -> CostMeter:
    return CostMeter(CostModel(), clock, rng.child("meter"))


class ChargeLog:
    """A meter recorder (attach with ``CostMeter.recording``) that keeps
    every charge as ``(label, seconds)``, in order."""

    def __init__(self) -> None:
        self.charges: list[tuple[str, float]] = []

    def record(self, label, seconds, location, link) -> None:
        self.charges.append((label, seconds))


@pytest.fixture
def charge_log() -> ChargeLog:
    return ChargeLog()


@pytest.fixture
def cpu(rng, meter) -> SgxCpu:
    return SgxCpu("test-machine", rng.child("cpu"), meter)


@pytest.fixture
def cpu_b(rng, meter) -> SgxCpu:
    return SgxCpu("other-machine", rng.child("cpu-b"), meter)


@pytest.fixture
def pse(rng, meter) -> PlatformServices:
    return PlatformServices("test-machine", rng.child("pse"), meter)


@pytest.fixture
def signing_key(rng) -> SigningKey:
    return SigningKey.generate(rng.child("signer"))


REPO_ROOT = Path(__file__).resolve().parents[1]


#: The trees the analyzer gates on, relative to the repository root.
ANALYZED_PATHS = ("src/repro", "examples", "benchmarks")


@pytest.fixture(scope="session")
def raw_tree_findings() -> list:
    """Findings of the pragma-off analysis of ``src/repro``, ``examples``
    and ``benchmarks``: the whole-tree scan, run once per session for every
    test that gates on it."""
    return AnalysisEngine(apply_pragmas=False).analyze_paths(
        [REPO_ROOT / path for path in ANALYZED_PATHS]
    )


@pytest.fixture(scope="session")
def tree_findings(raw_tree_findings) -> list:
    """Findings of the default (pragma-on) analysis of the same trees,
    derived from the raw scan by the engine's own pragma filter."""
    return AnalysisEngine.filter_pragmas(raw_tree_findings)


@pytest.fixture
def datacenter() -> DataCenter:
    dc = DataCenter(name="test-dc", seed=42)
    dc.add_machine("machine-a")
    dc.add_machine("machine-b")
    return dc
