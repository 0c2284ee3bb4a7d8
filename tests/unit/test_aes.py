"""AES known-answer tests (FIPS 197) and structural checks."""

import numpy as np
import pytest

from repro.crypto.aes import AES, INV_SBOX, SBOX
from repro.crypto.ctr import SCALAR_MAX_BLOCKS, ctr_transform
from repro.errors import CryptoError

FIPS_128_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
FIPS_128_PT = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
FIPS_128_CT = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")

APPENDIX_C_PT = bytes.fromhex("00112233445566778899aabbccddeeff")
APPENDIX_C_KEY_128 = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
APPENDIX_C_CT_128 = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
APPENDIX_C_KEY_192 = bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617")
APPENDIX_C_CT_192 = bytes.fromhex("dda97ca4864cdfe06eaf70a0ec0d7191")
APPENDIX_C_KEY_256 = bytes.fromhex(
    "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
)
APPENDIX_C_CT_256 = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")


class TestKnownAnswers:
    def test_fips197_appendix_b(self):
        assert AES(FIPS_128_KEY).encrypt_block(FIPS_128_PT) == FIPS_128_CT

    def test_fips197_appendix_c1_aes128(self):
        assert AES(APPENDIX_C_KEY_128).encrypt_block(APPENDIX_C_PT) == APPENDIX_C_CT_128

    def test_fips197_appendix_c2_aes192(self):
        assert AES(APPENDIX_C_KEY_192).encrypt_block(APPENDIX_C_PT) == APPENDIX_C_CT_192

    def test_fips197_appendix_c3_aes256(self):
        assert AES(APPENDIX_C_KEY_256).encrypt_block(APPENDIX_C_PT) == APPENDIX_C_CT_256

    @pytest.mark.parametrize(
        "key,ct",
        [
            (APPENDIX_C_KEY_128, APPENDIX_C_CT_128),
            (APPENDIX_C_KEY_192, APPENDIX_C_CT_192),
            (APPENDIX_C_KEY_256, APPENDIX_C_CT_256),
        ],
    )
    def test_decrypt_inverts_encrypt(self, key, ct):
        assert AES(key).decrypt_block(ct) == APPENDIX_C_PT


class TestSbox:
    def test_sbox_is_permutation(self):
        assert sorted(SBOX) == list(range(256))

    def test_inverse_sbox(self):
        for value in range(256):
            assert INV_SBOX[SBOX[value]] == value

    def test_known_sbox_entries(self):
        # S(0x00) = 0x63, S(0x53) = 0xed (FIPS 197 table)
        assert SBOX[0x00] == 0x63
        assert SBOX[0x53] == 0xED


class TestBatchPath:
    def test_batch_matches_scalar(self):
        cipher = AES(FIPS_128_KEY)
        blocks = np.frombuffer(FIPS_128_PT * 64, dtype=np.uint8).reshape(-1, 16).copy()
        out = cipher.encrypt_blocks(blocks)
        for row in out:
            assert bytes(row) == FIPS_128_CT

    def test_batch_distinct_blocks(self):
        """0, 1, 2 and 32 blocks, and blocks strided in both dimensions."""
        blocks = (np.arange(16 * 64).reshape(-1, 16) % 251).astype(np.uint8)
        wide = (np.arange(32 * 16).reshape(16, 32) % 253).astype(np.uint8)
        inputs = [blocks[:count] for count in (0, 1, 2, 32)] + [blocks[::2], wide[::3, ::2]]
        assert not inputs[-1].flags.c_contiguous
        for key in (FIPS_128_KEY, APPENDIX_C_KEY_192, APPENDIX_C_KEY_256):
            cipher = AES(key)
            for batch in inputs:
                out = cipher.encrypt_blocks(batch)
                assert out.shape == batch.shape and out.dtype == np.uint8
                assert [bytes(row) for row in out] == [
                    cipher.encrypt_block(bytes(row)) for row in batch
                ]

    def test_batch_rejects_bad_shape(self):
        with pytest.raises(CryptoError):
            AES(FIPS_128_KEY).encrypt_blocks(np.zeros((4, 8), dtype=np.uint8))

    def test_batch_rejects_bad_dtype(self):
        with pytest.raises(CryptoError):
            AES(FIPS_128_KEY).encrypt_blocks(np.zeros((4, 16), dtype=np.uint16))


class TestCtrPathSwitch:
    """``ctr_transform`` picks the AES path by input length alone."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Count scalar blocks and batch calls made by any AES instance."""
        block, blocks = AES.encrypt_block, AES.encrypt_blocks
        counts = {"encrypt_block": 0, "encrypt_blocks": 0}

        def counted_block(cipher, data):
            counts["encrypt_block"] += 1
            return block(cipher, data)

        def counted_blocks(cipher, data):
            counts["encrypt_blocks"] += 1
            return blocks(cipher, data)

        monkeypatch.setattr(AES, "encrypt_block", counted_block)
        monkeypatch.setattr(AES, "encrypt_blocks", counted_blocks)
        return counts

    @pytest.mark.parametrize("key", [FIPS_128_KEY, APPENDIX_C_KEY_256], ids=["aes128", "aes256"])
    def test_short_inputs_stay_scalar(self, calls, key):
        cipher = AES(key)
        for length in (1, 16 * SCALAR_MAX_BLOCKS - 15, 16 * SCALAR_MAX_BLOCKS):
            ctr_transform(cipher, 0xFFFFFFFF, bytes(length))
        assert calls["encrypt_blocks"] == 0
        assert calls["encrypt_block"] == 1 + 2 * SCALAR_MAX_BLOCKS

    @pytest.mark.parametrize("key", [FIPS_128_KEY, APPENDIX_C_KEY_256], ids=["aes128", "aes256"])
    def test_longer_inputs_take_one_batch_call(self, calls, key):
        cipher = AES(key)
        for length in (16 * SCALAR_MAX_BLOCKS + 1, 16 * (SCALAR_MAX_BLOCKS + 1)):
            ctr_transform(cipher, 0xFFFFFFFF, bytes(length))
        assert calls == {"encrypt_block": 0, "encrypt_blocks": 2}


class TestValidation:
    def test_invalid_key_length(self):
        with pytest.raises(CryptoError):
            AES(b"short")

    @pytest.mark.parametrize("size", [0, 15, 17, 32])
    def test_invalid_block_length(self, size):
        with pytest.raises(CryptoError):
            AES(FIPS_128_KEY).encrypt_block(bytes(size))
        with pytest.raises(CryptoError):
            AES(FIPS_128_KEY).decrypt_block(bytes(size))

    def test_round_counts(self):
        assert AES(bytes(16)).rounds == 10
        assert AES(bytes(24)).rounds == 12
        assert AES(bytes(32)).rounds == 14
