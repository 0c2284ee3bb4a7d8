"""AES-CMAC (RFC 4493) and KDF (HKDF RFC 5869) known-answer tests."""

import random

import pytest

from repro.crypto.cmac import AesCmac, _cbc_mac, aes_cmac, reference_cbc_mac
from repro.crypto.kdf import HkdfSha256, derive_key_cmac, sha256
from repro.errors import CryptoError

RFC4493_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
RFC4493_MSG = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710"
)


class TestCmacVectors:
    @pytest.mark.parametrize(
        "length,expected",
        [
            (0, "bb1d6929e95937287fa37d129b756746"),
            (16, "070a16b46b4d4144f79bdd9dd04a287c"),
            (40, "dfa66747de9ae63030ca32611497c827"),
            (64, "51f0bebf7e3b9d92fc49741779363cfe"),
        ],
    )
    def test_rfc4493(self, length, expected):
        assert aes_cmac(RFC4493_KEY, RFC4493_MSG[:length]).hex() == expected

    def test_verify_accepts(self):
        mac = aes_cmac(RFC4493_KEY, b"hello")
        assert AesCmac(RFC4493_KEY).verify(b"hello", mac)

    def test_verify_rejects_wrong_message(self):
        mac = aes_cmac(RFC4493_KEY, b"hello")
        assert not AesCmac(RFC4493_KEY).verify(b"hellO", mac)

    def test_verify_rejects_wrong_key(self):
        mac = aes_cmac(RFC4493_KEY, b"hello")
        assert not AesCmac(bytes(16)).verify(b"hello", mac)

    def test_verify_rejects_bad_tag_length(self):
        with pytest.raises(CryptoError):
            AesCmac(RFC4493_KEY).verify(b"hello", b"short")

    def test_refuses_a_message_that_is_not_bytes(self):
        for message in ("hello", [104, 105], 16):
            with pytest.raises(CryptoError):
                AesCmac(RFC4493_KEY).mac(message)

    @pytest.mark.parametrize("key_size", [16, 24, 32])
    def test_matches_cryptography(self, key_size):
        """Against the ``cryptography`` package, whole and partial last blocks."""
        cmac = pytest.importorskip("cryptography.hazmat.primitives.cmac")
        ciphers = pytest.importorskip("cryptography.hazmat.primitives.ciphers")
        rng = random.Random(key_size)
        key = rng.randbytes(key_size)
        for length in (0, 1, 15, 16, 17, 32, 100, 4096):
            message = rng.randbytes(length)
            reference = cmac.CMAC(ciphers.algorithms.AES(key))
            reference.update(message)
            assert aes_cmac(key, message) == reference.finalize()


@pytest.mark.usefixtures("reference_backend")
class TestCmacVectorsOnReference(TestCmacVectors):
    """The same vectors and checks on the from-scratch reference."""


class TestCmacNativeAgainstReference:
    @pytest.mark.parametrize("key_size", [16, 24, 32])
    def test_tags_match(self, key_size, request):
        """libcrypto's CBC-MAC against the reference block loop, whole and
        partial last blocks up to the 384-byte REPORT body."""
        rng = random.Random(key_size)
        key = rng.randbytes(key_size)
        messages = [rng.randbytes(length) for length in (0, 1, 15, 16, 17, 100, 384)]
        for blocks in (bytes(16), rng.randbytes(384)):
            assert _cbc_mac(key, blocks) == reference_cbc_mac(key, blocks)
        native_tags = [aes_cmac(key, message) for message in messages]
        request.getfixturevalue("reference_backend")
        assert [aes_cmac(key, message) for message in messages] == native_tags

    def test_rejects_bad_key_length(self):
        for size in (0, 15, 17, 33):
            with pytest.raises(CryptoError):
                AesCmac(bytes(size))


class TestSp800108Kdf:
    def test_deterministic(self):
        key1 = derive_key_cmac(bytes(16), b"LABEL", b"ctx")
        key2 = derive_key_cmac(bytes(16), b"LABEL", b"ctx")
        assert key1 == key2 and len(key1) == 16

    def test_label_separation(self):
        assert derive_key_cmac(bytes(16), b"A", b"ctx") != derive_key_cmac(
            bytes(16), b"B", b"ctx"
        )

    def test_context_separation(self):
        assert derive_key_cmac(bytes(16), b"L", b"c1") != derive_key_cmac(
            bytes(16), b"L", b"c2"
        )

    def test_key_separation(self):
        assert derive_key_cmac(bytes(16), b"L", b"c") != derive_key_cmac(
            b"\x01" * 16, b"L", b"c"
        )

    def test_long_output(self):
        key = derive_key_cmac(bytes(16), b"L", b"c", length=48)
        assert len(key) == 48

    def test_length_is_bound_into_derivation(self):
        # SP 800-108 includes [L] in the PRF input, so a 48-byte derivation
        # is NOT a prefix-extension of the 16-byte one.
        long_key = derive_key_cmac(bytes(16), b"L", b"c", length=48)
        short_key = derive_key_cmac(bytes(16), b"L", b"c", length=16)
        assert long_key[:16] != short_key

    def test_invalid_length(self):
        with pytest.raises(CryptoError):
            derive_key_cmac(bytes(16), b"L", b"c", length=0)


class TestHkdf:
    def test_rfc5869_case1(self):
        ikm = bytes.fromhex("0b" * 22)
        salt = bytes.fromhex("000102030405060708090a0b0c")
        info = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9")
        okm = HkdfSha256.derive(ikm, salt, info, 42)
        assert okm.hex() == (
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865"
        )

    def test_rfc5869_case3_empty_salt_info(self):
        okm = HkdfSha256.derive(bytes.fromhex("0b" * 22), b"", b"", 42)
        assert okm.hex() == (
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8"
        )

    def test_output_too_long(self):
        with pytest.raises(CryptoError):
            HkdfSha256.expand(bytes(32), b"", 256 * 32)

    def test_sha256(self):
        assert sha256(b"abc").hex() == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )
