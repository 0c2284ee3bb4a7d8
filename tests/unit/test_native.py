"""The shared libcrypto loader (:mod:`repro.crypto.native`).

AES-GCM, AES-CMAC and modular exponentiation fall back to their
from-scratch references when the loader returns ``None``, which keeps
every result right but makes tier-1, the chaos grids and the benchmark
run the slow path without a word; the first test here fails instead.
"""

from __future__ import annotations

import _json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.crypto import native
from repro.crypto.gcm import AesGcm

SRC = Path(__file__).resolve().parents[2] / "src"


def test_libcrypto_loads_with_every_declared_symbol():
    """Wherever ``_hashlib`` imports, libcrypto loads with every function
    in ``SIGNATURES`` declared."""
    pytest.importorskip("_hashlib")
    lib = native.libcrypto()
    assert lib is not None
    for symbol, (restype, argtypes) in native.SIGNATURES.items():
        function = getattr(lib, symbol)
        assert (function.restype, function.argtypes) == (restype, argtypes), symbol


def test_skips_candidates_that_do_not_load_or_lack_a_symbol(monkeypatch):
    """A missing file, then an extension without libcrypto's symbols."""
    pytest.importorskip("_hashlib")
    real = next(native._candidates())
    candidates = ["/nonexistent/libcrypto.so", _json.__file__, real]
    monkeypatch.setattr(native, "_candidates", lambda: iter(candidates))
    native.libcrypto.cache_clear()
    try:
        assert native.libcrypto()._name == real
    finally:
        native.libcrypto.cache_clear()


def test_a_refused_iv_leaves_no_libcrypto_error():
    """libcrypto refuses a 129-byte GCM IV and queues an error, which
    ``AesGcm`` clears before it runs the reference instead."""
    lib = native.libcrypto()
    if lib is None:
        pytest.skip("no libcrypto on this host")
    lib.ERR_clear_error()  # whatever an earlier call in this thread left
    AesGcm(bytes(16)).encrypt(bytes(129), b"payload")
    assert lib.ERR_get_error() == 0


_NO_PROCESS = """
import subprocess
import sys

sys.path.insert(0, {src!r})


def refuse(*args, **kwargs):
    raise AssertionError(f"started a process: {{args!r}}")


subprocess.Popen = refuse
import repro.crypto.schnorr
from repro.crypto import native
from repro.crypto.gcm import AesGcm

AesGcm(bytes(16)).seal(bytes(12), b"payload")
assert native.libcrypto() is not None
"""


def test_loads_without_starting_a_process():
    """Importing ``repro.crypto.schnorr`` runs a native exponentiation (its
    generator's order check); neither it nor a seal may spawn ``ldconfig``."""
    pytest.importorskip("_hashlib")
    result = subprocess.run(
        [sys.executable, "-c", _NO_PROCESS.format(src=str(SRC))],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
