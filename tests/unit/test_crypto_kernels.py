"""Golden pin for the crypto kernels every migration runs.

``tests/golden/crypto_kernels_seed0.json`` holds the outputs of, for seeded
inputs:

* ``AES.encrypt_block`` under 16-, 24- and 32-byte keys;
* ``ctr_transform`` over 0-48 blocks (whole and partial last blocks), from
  an ordinary initial counter and from one whose low 32 bits wrap
  mid-stream;
* ``AesGcm.seal`` over the same lengths, on libcrypto and, with the
  ``reference_backend`` fixture, on the from-scratch reference;
* ``AesGcm.seal`` over long inputs (``gcm_long``): 64 consecutive block
  counts around the GHASH lane-path switch, whole and with a short last
  block, so every lane residue up to 64 lanes is hit, plus the sealed KV
  store's 66,669-byte snapshot and the Fig. 4 100,000-byte payload, under
  AES-128 and AES-256 keys with 0- and 20-byte AAD;
* ``AesGcm.seal`` over mid-size inputs (``gcm_mid``), under the same keys
  and AAD: 64 consecutive block counts (80-143) around the GHASH lane-path
  switch at its fresh-key crossover, whole and with a short last block,
  plus the lengths of the workloads' mid-size GCM inputs, the 4 KiB sealed
  blob (4,096 bytes: 259 GHASH blocks with 20-byte AAD) and a Migration
  Library persist (5,393 bytes: 341);
* ``AesGcm.seal`` over wide inputs (``gcm_wide``), under the same keys and
  AAD: 64 consecutive block counts (1,760-1,823) around the switch to the
  256-lane GHASH pass at 1,792 blocks, whole and with a short last block,
  plus 2,556-2,560 blocks, whose GHASH inputs (one or three more blocks)
  hit the residues 0, 1 and 255 mod 256 with either AAD;
* ``modexp.verify_product`` for seeded Schnorr signatures, for the responses
  0, 1 and q-1, and for a short response (nonce ``k > x*e``), so both sides
  of the generator table's short-side choice are pinned.

CTR and GCM outputs are stored as SHA-256 digests.  The file was captured
from ``kernel_outputs()`` before the T-table AES, the scalar CTR path and
the short-side generator exponentiation landed, ``gcm_long`` before the
lane-parallel GHASH path landed, ``gcm_mid`` while that path still
started at 1,024 blocks, and ``gcm_wide`` before the 256-lane pass landed;
every value must stay equal; AES-GCM has since moved to libcrypto.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.crypto import modexp, schnorr
from repro.crypto.aes import AES
from repro.crypto.ctr import ctr_transform
from repro.crypto.dh import MODP_2048_P, MODP_2048_Q
from repro.crypto.gcm import AesGcm
from repro.sim.rng import DeterministicRng

GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "crypto_kernels_seed0.json"

KEY_SIZES = (16, 24, 32)
# Byte lengths of 0-48 blocks, whole and with a short last block.
LENGTHS = [16 * n for n in range(49)] + [16 * n - 5 for n in range(1, 49)]
# Byte lengths of 992-1055 blocks, whole and short, then the sealed KV
# store's snapshot and the Fig. 4 payload.
LONG_LENGTHS = (
    [16 * n for n in range(992, 1056)] + [16 * n - 5 for n in range(992, 1056)] + [66_669, 100_000]
)
# Byte lengths of 80-143 blocks, whole and short, then the 4 KiB sealed blob
# and a Migration Library persist.
MID_LENGTHS = [16 * n for n in range(80, 144)] + [16 * n - 5 for n in range(80, 144)] + [4096, 5393]
# Byte lengths of 1,760-1,823 blocks, whole and short, then 2,556-2,560
# whole blocks.
WIDE_LENGTHS = (
    [16 * n for n in range(1760, 1824)]
    + [16 * n - 5 for n in range(1760, 1824)]
    + [16 * n for n in range(2556, 2561)]
)


def _rng(label: str) -> DeterministicRng:
    return DeterministicRng(0, "crypto-kernels").child(label)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _encrypt_block_outputs() -> dict:
    out = {}
    for size in KEY_SIZES:
        rng = _rng(f"block-{size}")
        cipher = AES(rng.random_bytes(size))
        out[str(size)] = [cipher.encrypt_block(rng.random_bytes(16)).hex() for _ in range(8)]
    return out


def _ctr_outputs() -> dict:
    out = {}
    for size in KEY_SIZES:
        rng = _rng(f"ctr-{size}")
        cipher = AES(rng.random_bytes(size))
        counters = {
            "plain": int.from_bytes(rng.random_bytes(16), "big"),
            # Low 32 bits wrap to zero at the ninth block.
            "wrap": (int.from_bytes(rng.random_bytes(12), "big") << 32) | 0xFFFFFFF8,
        }
        for name, counter in counters.items():
            out[f"{size}/{name}"] = {
                str(length): _digest(ctr_transform(cipher, counter, rng.random_bytes(length)))
                for length in LENGTHS
            }
    return out


def _gcm_seal_outputs() -> dict:
    out = {}
    for size in (16, 32):
        rng = _rng(f"gcm-{size}")
        aead = AesGcm(rng.random_bytes(size))
        out[str(size)] = {
            str(length): _digest(
                aead.seal(rng.random_bytes(12), rng.random_bytes(length), rng.random_bytes(20))
            )
            for length in LENGTHS
        }
    return out


def _gcm_sweep_outputs(label: str, lengths: list[int]) -> dict:
    out = {}
    for size in (16, 32):
        for aad_len in (0, 20):
            rng = _rng(f"{label}-{size}-{aad_len}")
            aead = AesGcm(rng.random_bytes(size))
            aad = rng.random_bytes(aad_len)
            plaintext = rng.random_bytes(max(lengths))
            out[f"{size}/aad{aad_len}"] = {
                str(length): _digest(aead.seal(rng.random_bytes(12), plaintext[:length], aad))
                for length in lengths
            }
    return out


def _gcm_long_outputs() -> dict:
    return _gcm_sweep_outputs("gcm-long", LONG_LENGTHS)


def _gcm_mid_outputs() -> dict:
    return _gcm_sweep_outputs("gcm-mid", MID_LENGTHS)


def _gcm_wide_outputs() -> dict:
    return _gcm_sweep_outputs("gcm-wide", WIDE_LENGTHS)


def _verify_product_outputs() -> dict:
    p, q = MODP_2048_P, MODP_2048_Q
    rng = _rng("schnorr")
    signatures = []
    for i in range(4):
        keypair = schnorr.generate_keypair(rng.child(f"key-{i}"))
        sig = schnorr.sign(keypair.private, rng.random_bytes(48))
        signatures.append(
            format(modexp.verify_product(4, sig.response, keypair.public, sig.challenge, p), "x")
        )
    public = schnorr.generate_keypair(rng.child("responses")).public
    challenge = int.from_bytes(rng.random_bytes(32), "big") % q
    responses = {
        name: format(modexp.verify_product(4, s, public, challenge, p), "x")
        for name, s in (("0", 0), ("1", 1), ("q-1", q - 1))
    }
    # A nonce larger than x*e leaves s = k - x*e short without the mod-q wrap.
    x = int.from_bytes(rng.random_bytes(5), "big") | 1
    e = int.from_bytes(rng.random_bytes(32), "big") % q
    k = int.from_bytes(rng.random_bytes(40), "big") | (1 << 319)
    assert k > x * e
    responses["k>xe"] = format(modexp.verify_product(4, k - x * e, pow(4, x, p), e, p), "x")
    return {"signatures": signatures, "responses": responses}


KERNELS = {
    "encrypt_block": _encrypt_block_outputs,
    "ctr_transform": _ctr_outputs,
    "gcm_seal": _gcm_seal_outputs,
    "gcm_long": _gcm_long_outputs,
    "gcm_mid": _gcm_mid_outputs,
    "gcm_wide": _gcm_wide_outputs,
    "verify_product": _verify_product_outputs,
}


def kernel_outputs() -> dict:
    return {name: compute() for name, compute in KERNELS.items()}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_outputs_match_golden_file(kernel):
    golden = json.loads(GOLDEN.read_text())
    assert KERNELS[kernel]() == golden[kernel]


def test_gcm_seal_on_reference_matches_golden_file(reference_backend):
    golden = json.loads(GOLDEN.read_text())
    assert _gcm_seal_outputs() == golden["gcm_seal"]
