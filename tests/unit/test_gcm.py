"""AES-GCM known-answer tests (NIST / GCM spec test cases) + behaviour."""

import pytest

from repro.crypto import gcm as gcm_module
from repro.crypto.aes import AES
from repro.crypto.bytesutil import xor_bytes
from repro.crypto.gcm import LANE_MIN_BLOCKS, AesGcm, _GhashKey, gf_mult
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
# Plaintext bytes from which GHASH, with a 1-block AAD and the length block,
# reaches LANE_MIN_BLOCKS and takes the lane path.
LANE_BYTES = 16 * (LANE_MIN_BLOCKS - 3) + 1


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
        assert gcm._j0(iv) == j0

        plaintext = bytes(range(40))
        ciphertext, tag = gcm.encrypt(iv, plaintext, b"hdr")
        upper = j0 & ~0xFFFFFFFF
        for i in range(3):
            keystream = cipher.encrypt_block((upper | i).to_bytes(16, "big"))
            block = slice(16 * i, 16 * i + 16)
            assert ciphertext[block] == xor_bytes(plaintext[block], keystream[: len(plaintext[block])])
        assert gcm.decrypt(iv, ciphertext, tag, b"hdr") == plaintext


class TestRoundTrips:
    @pytest.mark.parametrize(
        "size",
        [0, 1, 15, 16, 17, 100, 4096, LANE_BYTES - 1, LANE_BYTES, LANE_BYTES + 15, 100_000],
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
    """Each tamper case runs on a one-block payload and on a long one."""

    PAYLOADS = (b"attack at dawn!!", bytes(range(256)) * (LANE_BYTES // 256 + 1))

    @pytest.fixture(autouse=True)
    def long_tags_from_lanes(self, monkeypatch):
        """Fail if a long payload's tag, on seal or on open, skips the lane path."""
        horner, lanes = gcm_module._ghash_horner, gcm_module._ghash_lanes
        lane_calls = []

        def horner_short_only(key, blocks):
            assert len(blocks) < len(self.PAYLOADS[1])
            return horner(key, blocks)

        def counted_lanes(key, blocks):
            lane_calls.append(len(blocks))
            return lanes(key, blocks)

        monkeypatch.setattr(gcm_module, "_ghash_horner", horner_short_only)
        monkeypatch.setattr(gcm_module, "_ghash_lanes", counted_lanes)
        yield
        assert lane_calls

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


class TestGhashTableCache:
    def test_hits_misses_and_sharing(self):
        from repro.crypto import gcm

        gcm.clear_ghash_table_cache()
        a = AesGcm(b"k" * 16)
        b = AesGcm(b"k" * 16)  # same key -> same H -> cache hit
        c = AesGcm(b"x" * 16)
        stats = gcm.ghash_table_cache_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 2
        assert stats["size"] == 2
        assert stats["capacity"] == 512
        assert a._ghash_key is b._ghash_key
        assert a._ghash_key is not c._ghash_key
        # Shared tables still authenticate correctly.
        iv = bytes(12)
        ciphertext, tag = a.encrypt(iv, b"payload", b"aad")
        assert b.decrypt(iv, ciphertext, tag, b"aad") == b"payload"
        gcm.clear_ghash_table_cache()
        assert gcm.ghash_table_cache_stats() == {
            "hits": 0, "misses": 0, "size": 0, "capacity": 512,
        }

    def test_lru_eviction_is_bounded(self, monkeypatch):
        from repro.crypto import gcm

        gcm.clear_ghash_table_cache()
        monkeypatch.setattr(gcm, "_GHASH_TABLE_CACHE_MAX", 2)
        keys = [bytes([i]) * 16 for i in range(3)]
        aeads = [AesGcm(key) for key in keys]
        stats = gcm.ghash_table_cache_stats()
        assert stats["size"] == 2  # oldest H evicted
        assert stats["misses"] == 3
        # The evicted key's AEAD keeps its (now uncached) tables and still
        # round-trips; re-instantiating it is a miss, not an error.
        iv = bytes(12)
        ciphertext, tag = aeads[0].encrypt(iv, b"data")
        assert AesGcm(keys[0]).decrypt(iv, ciphertext, tag) == b"data"
        assert gcm.ghash_table_cache_stats()["misses"] == 4
        gcm.clear_ghash_table_cache()

    def test_lane_cache_is_bounded(self):
        from repro.crypto import gcm

        gcm.clear_ghash_table_cache()
        capacity = gcm._LANE_TABLE_CACHE_MAX
        payload = bytes(16 * LANE_MIN_BLOCKS)
        iv = bytes(12)
        sealed = []
        for i in range(capacity + 3):
            aead = AesGcm(bytes([i]) * 16)
            sealed.append((aead, aead.seal(iv, payload)))
            assert len(gcm._LANE_TABLE_CACHE) == min(i + 1, capacity)
        assert sealed[0][0]._ghash_key.h not in gcm._LANE_TABLE_CACHE
        # Evicted keys rebuild their lane table and still round-trip.
        for aead, blob in sealed:
            assert aead.open(iv, blob) == payload
            assert len(gcm._LANE_TABLE_CACHE) == capacity
        gcm.clear_ghash_table_cache()
        assert not gcm._LANE_TABLE_CACHE
