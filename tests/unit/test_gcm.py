"""AES-GCM known-answer tests (NIST / GCM spec test cases) + behaviour.

``AesGcm`` runs on libcrypto wherever it loads; each known-answer,
differential and tamper class also runs on the from-scratch reference
through a subclass that uses the ``reference_backend`` fixture.
"""

import random

import pytest

from repro.crypto import gcm as gcm_module
from repro.crypto.aes import AES
from repro.crypto.bytesutil import xor_bytes
from repro.crypto.gcm import AesGcm, _GhashKey, gf_mult, reference_decrypt, reference_encrypt
from repro.errors import CryptoError

KEY = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
IV = bytes.fromhex("cafebabefacedbaddecaf888")
PT = bytes.fromhex(
    "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
    "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255"
)
CT = bytes.fromhex(
    "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
    "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
)
AAD = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")
# Plaintext lengths whose GHASH input, with a 1-block AAD and the length
# block, is 112, 1,024 and 1,792 blocks with a 1-byte last block.
BYTES_112_BLOCKS = 16 * (112 - 3) + 1
BYTES_1024_BLOCKS = 16 * (1024 - 3) + 1
BYTES_1792_BLOCKS = 16 * (1792 - 3) + 1


class TestKnownAnswers:
    def test_case1_empty_everything(self):
        ciphertext, tag = AesGcm(bytes(16)).encrypt(bytes(12), b"")
        assert ciphertext == b""
        assert tag.hex() == "58e2fccefa7e3061367f1d57a4e7455a"

    def test_case2_single_zero_block(self):
        ciphertext, tag = AesGcm(bytes(16)).encrypt(bytes(12), bytes(16))
        assert ciphertext.hex() == "0388dace60b6a392f328c2b971b2fe78"
        assert tag.hex() == "ab6e47d42cec13bdf53a67b21257bddf"

    def test_case3_full_blocks(self):
        ciphertext, tag = AesGcm(KEY).encrypt(IV, PT)
        assert ciphertext == CT
        assert tag.hex() == "4d5c2af327cd64a62cf35abd2ba6fab4"

    def test_case4_with_aad_and_partial_block(self):
        ciphertext, tag = AesGcm(KEY).encrypt(IV, PT[:60], AAD)
        assert ciphertext == CT[:60]
        assert tag.hex() == "5bc94fbc3221a5db94fae95ae7121a47"

    def test_case6_long_iv(self):
        long_iv = bytes.fromhex(
            "9313225df88406e555909c5aff5269aa6a7a9538534f7da1e4c303d2a318a728"
            "c3c0c95156809539fcf0e2429a6b525416aedbf5a0de6a57a637b39b"
        )
        _, tag = AesGcm(KEY).encrypt(long_iv, PT[:60], AAD)
        assert tag.hex() == "619cc5aefffe0bfa462af43c1699d050"


@pytest.mark.usefixtures("reference_backend")
class TestKnownAnswersOnReference(TestKnownAnswers):
    """The same vectors on the from-scratch reference."""


def _gf_inverse(h: int) -> int:
    """``H^-1 = H^(2^128 - 2)`` in GF(2^128), by square-and-multiply."""
    result, base, exponent = 1 << 127, h, (1 << 128) - 2
    while exponent:
        if exponent & 1:
            result = gf_mult(result, base)
        base = gf_mult(base, base)
        exponent >>= 1
    return result


class TestCounterBlocks:
    def test_first_counter_is_inc32_of_j0(self):
        """The counter after J0 wraps its low 32 bits and leaves the upper 96.

        A 16-byte IV is GHASHed with its length block L into
        ``J0 = IV * H^2 + L * H``, so ``IV = (J0 + L * H) * H^-2`` yields a
        chosen J0; this one ends in 32 one bits.
        """
        key = bytes(range(16))
        cipher = AES(key)
        gcm = AesGcm(key)
        h = int.from_bytes(cipher.encrypt_block(bytes(16)), "big")
        h_inv = _gf_inverse(h)
        assert gf_mult(h, h_inv) == 1 << 127
        j0 = 0x0123456789ABCDEF01234567_FFFFFFFF
        length_block = 16 * 8  # 0^64 || [len(IV) in bits]_64
        iv = gf_mult(j0 ^ gf_mult(length_block, h), gf_mult(h_inv, h_inv)).to_bytes(16, "big")
        assert gcm_module._j0(_GhashKey(h), iv) == j0

        plaintext = bytes(range(40))
        ciphertext, tag = gcm.encrypt(iv, plaintext, b"hdr")
        assert reference_encrypt(key, iv, plaintext, b"hdr") == (ciphertext, tag)
        upper = j0 & ~0xFFFFFFFF
        for i in range(3):
            keystream = cipher.encrypt_block((upper | i).to_bytes(16, "big"))
            block = slice(16 * i, 16 * i + 16)
            assert ciphertext[block] == xor_bytes(plaintext[block], keystream[: len(plaintext[block])])
        assert gcm.decrypt(iv, ciphertext, tag, b"hdr") == plaintext
        assert reference_decrypt(key, iv, ciphertext, tag, b"hdr") == plaintext


class TestRoundTrips:
    @pytest.mark.parametrize(
        "size",
        [
            0, 1, 15, 16, 17, 100, 4096,
            BYTES_112_BLOCKS - 1, BYTES_112_BLOCKS, BYTES_112_BLOCKS + 15,
            BYTES_1024_BLOCKS - 1, BYTES_1024_BLOCKS, BYTES_1024_BLOCKS + 15,
            BYTES_1792_BLOCKS - 1, BYTES_1792_BLOCKS, BYTES_1792_BLOCKS + 15,
            100_000,
        ],
    )
    def test_roundtrip_sizes(self, size):
        gcm = AesGcm(KEY)
        plaintext = bytes(range(256)) * (size // 256 + 1)
        plaintext = plaintext[:size]
        ciphertext, tag = gcm.encrypt(IV, plaintext, b"hdr")
        assert gcm.decrypt(IV, ciphertext, tag, b"hdr") == plaintext

    def test_seal_open(self):
        gcm = AesGcm(KEY)
        sealed = gcm.seal(IV, b"secret", b"aad")
        assert gcm.open(IV, sealed, b"aad") == b"secret"

    def test_open_too_short(self):
        with pytest.raises(CryptoError):
            AesGcm(KEY).open(IV, b"short")


class TestTamperDetection:
    """Each tamper case runs on a one-block payload, a 1.7 KB one and a 28 KB
    one; none may return plaintext."""

    PAYLOADS = (
        b"attack at dawn!!",
        bytes(range(256)) * (BYTES_112_BLOCKS // 256 + 1),
        bytes(range(256)) * (BYTES_1792_BLOCKS // 256 + 1),
    )

    def _sealed(self):
        for payload in self.PAYLOADS:
            gcm = AesGcm(KEY)
            ciphertext, tag = gcm.encrypt(IV, payload, b"header")
            yield gcm, ciphertext, tag

    def test_ciphertext_tamper(self):
        for gcm, ciphertext, tag in self._sealed():
            bad = bytes([ciphertext[0] ^ 1]) + ciphertext[1:]
            with pytest.raises(CryptoError):
                gcm.decrypt(IV, bad, tag, b"header")

    def test_tag_tamper(self):
        for gcm, ciphertext, tag in self._sealed():
            bad = bytes([tag[0] ^ 1]) + tag[1:]
            with pytest.raises(CryptoError):
                gcm.decrypt(IV, ciphertext, bad, b"header")

    def test_aad_tamper(self):
        for gcm, ciphertext, tag in self._sealed():
            with pytest.raises(CryptoError):
                gcm.decrypt(IV, ciphertext, tag, b"hEader")

    def test_wrong_key(self):
        for _, ciphertext, tag in self._sealed():
            with pytest.raises(CryptoError):
                AesGcm(bytes(16)).decrypt(IV, ciphertext, tag, b"header")

    def test_wrong_iv(self):
        for gcm, ciphertext, tag in self._sealed():
            with pytest.raises(CryptoError):
                gcm.decrypt(bytes(12), ciphertext, tag, b"header")

    def test_bad_tag_length(self):
        for gcm, ciphertext, _ in self._sealed():
            with pytest.raises(CryptoError):
                gcm.decrypt(IV, ciphertext, b"short", b"header")

    def test_inputs_of_another_type_are_refused(self):
        """A channel record's fields may decode to any wire type; a string,
        list, integer or boolean is refused as forged, on either backend."""
        gcm = AesGcm(KEY)
        ciphertext, tag = gcm.encrypt(IV, self.PAYLOADS[0], b"header")
        for forged in ("x" * 16, list(tag), 16, True):
            for args in (
                (forged, ciphertext, tag, b"header"),
                (IV, forged, tag, b"header"),
                (IV, ciphertext, forged, b"header"),
                (IV, ciphertext, tag, forged),
            ):
                with pytest.raises(CryptoError):
                    gcm.decrypt(*args)
            for args in ((forged, b"data", b""), (IV, forged, b""), (IV, b"data", forged)):
                with pytest.raises(CryptoError):
                    gcm.encrypt(*args)


@pytest.mark.usefixtures("reference_backend")
class TestTamperDetectionOnReference(TestTamperDetection):
    """The same tampering against the from-scratch reference."""


class TestGhash:
    def test_table_matches_bitwise_reference(self):
        h = 0x66E94BD4EF8A2C3B884CFA59CA342B2E
        key = _GhashKey(h)
        values = [0, 1, 1 << 127, (1 << 128) - 1, 0xDEADBEEF << 64]
        for value in values:
            assert key.mult(value) == gf_mult(value, h)

    def test_gf_mult_identity(self):
        # x^0 (the MSB in GCM bit order) is the multiplicative identity.
        one = 1 << 127
        assert gf_mult(one, 0x1234) == 0x1234
        assert gf_mult(0x1234, one) == 0x1234

    def test_gf_mult_commutative(self):
        a, b = 0x0123456789ABCDEF << 32, 0xFEDCBA987654321 << 16
        assert gf_mult(a, b) == gf_mult(b, a)


class TestAgainstCryptography:
    """``AesGcm`` against the ``cryptography`` package."""

    # Empty, short, 4.8 KB, 28 KB, and the Fig. 4 payload (short last block).
    LENGTHS = (0, 17, 16 * 300 + 5, 16 * 1792, 100_000)

    @pytest.mark.parametrize("key_size", [16, 24, 32])
    @pytest.mark.parametrize("iv_size", [12, 16, 60])
    def test_seal_and_open_match(self, key_size, iv_size):
        aead = pytest.importorskip("cryptography.hazmat.primitives.ciphers.aead")
        rng = random.Random(key_size * 100 + iv_size)
        key = rng.randbytes(key_size)
        ours, reference = AesGcm(key), aead.AESGCM(key)
        for length in self.LENGTHS:
            for aad in (b"", rng.randbytes(20)):
                iv, plaintext = rng.randbytes(iv_size), rng.randbytes(length)
                sealed = reference.encrypt(iv, plaintext, aad)
                assert ours.seal(iv, plaintext, aad) == sealed
                assert ours.open(iv, sealed, aad) == plaintext


@pytest.mark.usefixtures("reference_backend")
class TestAgainstCryptographyOnReference(TestAgainstCryptography):
    """The from-scratch reference against the ``cryptography`` package."""


class TestNativeAgainstReference:
    """libcrypto's AES-GCM against the from-scratch reference, byte for byte."""

    # 0-48 blocks, whole and with a short last block, then the 4 KiB sealed
    # blob, a Migration Library persist, the sealed KV store's snapshot and
    # the Fig. 4 payload.
    LENGTHS = (
        [16 * n for n in range(49)] + [16 * n - 5 for n in range(1, 49)]
        + [4096, 5393, 66_669, 100_000]
    )

    @pytest.mark.parametrize("key_size", [16, 24, 32])
    @pytest.mark.parametrize("aad_size", [0, 20, 33])
    def test_seal_and_open_match(self, key_size, aad_size):
        rng = random.Random(key_size * 100 + aad_size)
        key = rng.randbytes(key_size)
        aead = AesGcm(key)
        for length in self.LENGTHS:
            iv, plaintext, aad = rng.randbytes(12), rng.randbytes(length), rng.randbytes(aad_size)
            ciphertext, tag = aead.encrypt(iv, plaintext, aad)
            assert reference_encrypt(key, iv, plaintext, aad) == (ciphertext, tag)
            assert reference_decrypt(key, iv, ciphertext, tag, aad) == plaintext
            assert aead.decrypt(iv, ciphertext, tag, aad) == plaintext

    @pytest.mark.parametrize("iv_size", [0, 1, 12, 16, 60, 128, 129, 4096])
    def test_every_iv_length_matches(self, iv_size):
        """OpenSSL 3 takes IVs of 1-128 bytes; ``AesGcm`` runs the reference
        on the rest, so every IV a host hands in behaves the same."""
        rng = random.Random(iv_size)
        key, iv = rng.randbytes(16), rng.randbytes(iv_size)
        aead = AesGcm(key)
        for length in (0, 17, 4096):
            plaintext, aad = rng.randbytes(length), rng.randbytes(20)
            sealed = aead.seal(iv, plaintext, aad)
            ciphertext, tag = reference_encrypt(key, iv, plaintext, aad)
            assert sealed == ciphertext + tag
            assert aead.open(iv, sealed, aad) == plaintext
            with pytest.raises(CryptoError):
                aead.decrypt(iv, ciphertext, bytes([tag[0] ^ 1]) + tag[1:], aad)

    def test_rejects_bad_key_length(self):
        for size in (0, 15, 17, 33):
            with pytest.raises(CryptoError):
                AesGcm(bytes(size))
