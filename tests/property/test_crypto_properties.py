"""Property-based tests over the crypto substrate."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES
from repro.crypto.cmac import aes_cmac
from repro.crypto.ctr import ctr_transform
from repro.crypto.gcm import AesGcm, _GhashKey, gf_mult
from repro import wire

import pytest

from repro.errors import CryptoError

keys = st.binary(min_size=16, max_size=16)
ivs = st.binary(min_size=12, max_size=12)
payloads = st.binary(max_size=2048)
aads = st.binary(max_size=128)


class TestGcmProperties:
    @given(key=keys, iv=ivs, plaintext=payloads, aad=aads)
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, key, iv, plaintext, aad):
        gcm = AesGcm(key)
        ciphertext, tag = gcm.encrypt(iv, plaintext, aad)
        assert gcm.decrypt(iv, ciphertext, tag, aad) == plaintext

    @given(key=keys, iv=ivs, plaintext=st.binary(min_size=1, max_size=512),
           flip=st.integers(min_value=0))
    @settings(max_examples=60, deadline=None)
    def test_any_ciphertext_flip_detected(self, key, iv, plaintext, flip):
        gcm = AesGcm(key)
        ciphertext, tag = gcm.encrypt(iv, plaintext)
        index = flip % len(ciphertext)
        bad = bytearray(ciphertext)
        bad[index] ^= 0x01
        with pytest.raises(CryptoError):
            gcm.decrypt(iv, bytes(bad), tag)

    @given(key=keys, iv=ivs, plaintext=payloads, flip=st.integers(0, 15))
    @settings(max_examples=40, deadline=None)
    def test_any_tag_flip_detected(self, key, iv, plaintext, flip):
        gcm = AesGcm(key)
        ciphertext, tag = gcm.encrypt(iv, plaintext)
        bad = bytearray(tag)
        bad[flip] ^= 0x80
        with pytest.raises(CryptoError):
            gcm.decrypt(iv, ciphertext, bytes(bad))

    @given(key=keys, plaintext=payloads)
    @settings(max_examples=30, deadline=None)
    def test_distinct_ivs_distinct_ciphertexts(self, key, plaintext):
        if not plaintext:
            return
        gcm = AesGcm(key)
        ct1, tag1 = gcm.encrypt(b"\x00" * 12, plaintext)
        ct2, tag2 = gcm.encrypt(b"\x01" * 12, plaintext)
        # Short plaintexts can collide on the keystream bytes alone
        # (1/256 per byte); the IV-keyed tag is what distinguishes the
        # two encryptions unconditionally.
        assert (ct1, tag1) != (ct2, tag2)


class TestCtrProperties:
    @given(key=keys, counter=st.integers(min_value=0, max_value=2**128 - 1),
           data=payloads)
    @settings(max_examples=60, deadline=None)
    def test_involution(self, key, counter, data):
        cipher = AES(key)
        assert ctr_transform(cipher, counter, ctr_transform(cipher, counter, data)) == data

    @given(key=keys, start=st.integers(min_value=0, max_value=2**128 - 1),
           count=st.integers(min_value=1, max_value=20))
    @example(key=bytes(16), start=(0xABCD << 32) | 0xFFFFFFFE, count=4)
    @settings(max_examples=60, deadline=None)
    def test_counter_blocks_low32_wrap(self, key, start, count):
        """Block ``i`` of the keystream encrypts ``start`` with ``i`` added to
        its low 32 bits mod 2^32 (``inc32``); the upper 96 bits never carry."""
        cipher = AES(key)
        keystream = ctr_transform(cipher, start, bytes(16 * count))
        upper = (start >> 32) << 32
        for offset in range(count):
            counter = upper | ((start + offset) & 0xFFFFFFFF)
            block = cipher.encrypt_block(counter.to_bytes(16, "big"))
            assert keystream[16 * offset : 16 * offset + 16] == block


class TestGhashProperties:
    @given(h=st.integers(min_value=1, max_value=2**128 - 1),
           x=st.integers(min_value=0, max_value=2**128 - 1))
    @settings(max_examples=40, deadline=None)
    def test_table_agrees_with_reference(self, h, x):
        assert _GhashKey(h).mult(x) == gf_mult(x, h)

    @given(a=st.integers(min_value=0, max_value=2**128 - 1),
           b=st.integers(min_value=0, max_value=2**128 - 1),
           c=st.integers(min_value=0, max_value=2**128 - 1))
    @settings(max_examples=30, deadline=None)
    def test_distributive(self, a, b, c):
        assert gf_mult(a ^ b, c) == gf_mult(a, c) ^ gf_mult(b, c)


class TestCmacProperties:
    @given(key=keys, m1=payloads, m2=payloads)
    @settings(max_examples=60, deadline=None)
    def test_distinct_messages_distinct_macs(self, key, m1, m2):
        if m1 == m2:
            return
        assert aes_cmac(key, m1) != aes_cmac(key, m2)

    @given(k1=keys, k2=keys, message=payloads)
    @settings(max_examples=40, deadline=None)
    def test_distinct_keys_distinct_macs(self, k1, k2, message):
        if k1 == k2:
            return
        assert aes_cmac(k1, message) != aes_cmac(k2, message)


wire_values = st.recursive(
    st.one_of(
        st.binary(max_size=64),
        st.integers(min_value=-(2**63), max_value=2**64 - 1),
        st.text(max_size=32),
        st.booleans(),
    ),
    lambda children: st.lists(children, max_size=5),
    max_leaves=10,
)


class TestWireProperties:
    @given(message=st.dictionaries(st.text(min_size=1, max_size=16), wire_values, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, message):
        assert wire.decode(wire.encode(message)) == message
