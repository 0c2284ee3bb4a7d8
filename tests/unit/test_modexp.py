"""Known-answer tests for the fast modular-exponentiation paths.

Every fast path in :mod:`repro.crypto.modexp` must be bit-exact with
``builtins.pow`` — these tests pin that over the RFC 3526 2048-bit group the
simulator actually uses (Schnorr generator g=4, DH generator g=2), including
the edge exponents 0, 1 and q-1, both sides of the order-aware table's
short-side switch, and the on-demand row build, plus the cache bookkeeping
the benchmarks rely on and the keying of the verification-product memo.
"""

import random

import pytest

from repro.crypto import modexp
from repro.crypto.aes import (
    AES,
    clear_key_schedule_cache,
    key_schedule_cache_stats,
)
from repro.crypto.dh import MODP_2048_G, MODP_2048_P, MODP_2048_Q
from repro.errors import CryptoError

_P = MODP_2048_P
_Q = MODP_2048_Q

EDGE_EXPONENTS = (
    0,
    1,
    2,
    _Q - 1,
    _Q,
    1 << 255,
    (1 << 2046) - 1,
    # Either side of the short-side switch of an order-aware table, and a
    # random full-length exponent.
    1 << 575,
    _Q - (1 << 575),
    random.Random(2046).getrandbits(2046),
)


class TestFixedBaseTable:
    @pytest.mark.parametrize("exponent", EDGE_EXPONENTS)
    def test_matches_pow_for_schnorr_generator(self, exponent):
        for order in (None, _Q):
            table = modexp.FixedBaseTable(4, _P, max_bits=2048, order=order)
            assert table.pow(exponent) == pow(4, exponent, _P), order

    @pytest.mark.parametrize("exponent", EDGE_EXPONENTS)
    def test_matches_pow_for_dh_generator(self, exponent):
        table = modexp.FixedBaseTable(MODP_2048_G, _P, max_bits=2048)
        assert table.pow(exponent) == pow(MODP_2048_G, exponent, _P)

    def test_rows_built_on_demand(self):
        table = modexp.FixedBaseTable(4, _P, max_bits=2048, order=_Q)
        assert len(table._rows) == 0
        exponent = (1 << 319) | 12345
        assert table.pow(exponent) == pow(4, exponent, _P)
        assert len(table._rows) == 54  # ceil(320 / 6)
        # q - 1 takes the short side (exponent 1) and builds nothing more.
        assert table.pow(_Q - 1) == pow(4, _Q - 1, _P)
        assert len(table._rows) == 54

    def test_order_must_annihilate_base(self):
        with pytest.raises(CryptoError):
            modexp.FixedBaseTable(4, _P, order=_Q - 1)
        with pytest.raises(CryptoError):
            modexp.FixedBaseTable(4, _P, order=0)

    def test_oversized_exponent_falls_back_to_pow(self):
        table = modexp.FixedBaseTable(4, _P, max_bits=16)
        exponent = 1 << 100  # way past max_bits
        assert table.pow(exponent) == pow(4, exponent, _P)

    def test_negative_exponent_rejected(self):
        table = modexp.FixedBaseTable(4, _P)
        with pytest.raises(CryptoError):
            table.pow(-1)

    def test_random_exponents_match_pow(self):
        rng = random.Random(1234)
        table = modexp.FixedBaseTable(4, _P, max_bits=2048)
        for _ in range(10):
            exponent = rng.getrandbits(2046)
            assert table.pow(exponent) == pow(4, exponent, _P)


class TestShamir:
    def test_mul2_powmod_matches_pow_product(self):
        rng = random.Random(99)
        for _ in range(5):
            b1, b2 = rng.getrandbits(2040), rng.getrandbits(2040)
            e1, e2 = rng.getrandbits(2046), rng.getrandbits(256)
            expected = pow(b1, e1, _P) * pow(b2, e2, _P) % _P
            assert modexp.mul2_powmod(b1, e1, b2, e2, _P) == expected

    @pytest.mark.parametrize("e1,e2", [(0, 0), (0, 1), (1, 0), (_Q - 1, 1)])
    def test_mul2_powmod_edge_exponents(self, e1, e2):
        expected = pow(4, e1, _P) * pow(9, e2, _P) % _P
        assert modexp.mul2_powmod(4, e1, 9, e2, _P) == expected

    def test_verify_product_matches_pow(self):
        modexp.clear_public_key_cache()
        public = pow(4, 0xDEADBEEF, _P)
        s, e = (1 << 2000) + 12345, (1 << 255) + 7
        expected = pow(4, s, _P) * pow(public, e, _P) % _P
        assert modexp.verify_product(4, s, public, e, _P) == expected


class TestPublicKeyLru:
    def test_hits_and_misses_counted(self):
        """A key's first use is served by built-in pow, its second builds
        the table (a miss) and its third reuses it (a hit)."""
        modexp.clear_public_key_cache()
        public = pow(4, 31337, _P)
        modexp.verify_product(4, 5, public, 6, _P)
        modexp.verify_product(4, 7, public, 8, _P)
        modexp.verify_product(4, 9, public, 10, _P)
        stats = modexp.public_key_cache_stats()
        assert stats["first_uses"] == 1
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["size"] == 1

    def test_one_shot_key_builds_no_table(self):
        modexp.clear_public_key_cache()
        modexp.verify_product(4, 5, pow(4, 4242, _P), 6, _P)
        stats = modexp.public_key_cache_stats()
        assert (stats["first_uses"], stats["misses"], stats["hits"], stats["size"]) == (1, 0, 0, 0)

    def test_second_use_builds_the_table(self):
        modexp.clear_public_key_cache()
        public = pow(4, 4243, _P)
        modexp.verify_product(4, 5, public, 6, _P)
        modexp.verify_product(4, 5, public, 7, _P)
        stats = modexp.public_key_cache_stats()
        assert (stats["first_uses"], stats["misses"], stats["hits"], stats["size"]) == (1, 1, 0, 1)

    def test_every_path_equals_pow(self):
        """First use (pow), second (fresh table), third (cached table), a
        warmed key and a key forgotten by clear all give ``pow``'s product."""
        modexp.clear_public_key_cache()
        public, warmed = pow(4, 4244, _P), pow(4, 4245, _P)
        modexp.warm_public_key(warmed, _P)
        e = (1 << 255) + 12345
        for s in range(3):
            assert modexp.verify_product(4, s, public, e + s, _P) == _product(4, s, public, e + s, _P)
            assert modexp.verify_product(4, s, warmed, e + s, _P) == _product(4, s, warmed, e + s, _P)
        modexp.clear_public_key_cache()
        assert modexp.verify_product(4, 9, public, e, _P) == _product(4, 9, public, e, _P)
        stats = modexp.public_key_cache_stats()
        assert (stats["first_uses"], stats["misses"], stats["size"]) == (1, 0, 0)

    def test_warmed_key_builds_up_front(self):
        modexp.clear_public_key_cache()
        modexp.warm_public_key(pow(4, 4246, _P), _P)
        stats = modexp.public_key_cache_stats()
        assert (stats["first_uses"], stats["misses"], stats["size"]) == (0, 1, 1)

    def test_first_seen_keys_bounded(self, monkeypatch):
        modexp.clear_public_key_cache()
        monkeypatch.setattr(modexp, "FIRST_SEEN_CAPACITY", 2)
        keys = [pow(4, 5000 + i, _P) for i in range(3)]
        for public in keys:
            modexp.verify_product(4, 5, public, 6, _P)
        # The oldest key was forgotten: its second use is a first use again.
        modexp.verify_product(4, 5, keys[0], 7, _P)
        assert modexp.public_key_cache_stats()["first_uses"] == 4
        # The newest was remembered: its second use builds the table.
        modexp.verify_product(4, 5, keys[2], 7, _P)
        assert modexp.public_key_cache_stats()["misses"] == 1
        modexp.clear_public_key_cache()

    def test_capacity_bounded(self):
        modexp.clear_public_key_cache()
        for i in range(modexp.LRU_CAPACITY + 8):
            modexp.warm_public_key(2 + i, _P)
        assert modexp.public_key_cache_stats()["size"] == modexp.LRU_CAPACITY


def _product(g, s, y, e, modulus):
    return pow(g, s, modulus) * pow(y, e, modulus) % modulus


# One verification's arguments, and for each position a value that differs.
_ARGS = (4, (1 << 600) + 12345, pow(4, 0xC0FFEE, _P), (1 << 255) + 99, _P)
_OTHER = (MODP_2048_G, _ARGS[1] + 1, pow(4, 0xC0FFEF, _P), _ARGS[3] + 1, _P - 2)


class TestProductMemo:
    def test_repeat_hits_and_returns_same_value(self):
        modexp.clear_public_key_cache()
        first = modexp.verify_product(*_ARGS)
        assert first == _product(*_ARGS)
        tables = modexp.public_key_cache_stats()
        assert modexp.verify_product(*_ARGS) == first
        stats = modexp.product_memo_stats()
        assert (stats["hits"], stats["misses"], stats["size"]) == (1, 1, 1)
        # A hit touches no table.
        assert modexp.public_key_cache_stats() == tables

    @pytest.mark.parametrize("position", range(5), ids=["g", "s", "y", "e", "modulus"])
    def test_change_in_any_argument_misses(self, position):
        modexp.clear_public_key_cache()
        modexp.verify_product(*_ARGS)
        args = list(_ARGS)
        args[position] = _OTHER[position]
        assert modexp.verify_product(*args) == _product(*args)
        stats = modexp.product_memo_stats()
        assert (stats["hits"], stats["misses"], stats["size"]) == (0, 2, 2)

    def test_capacity_bounded(self):
        modexp.clear_public_key_cache()
        g, _, y, e, p = _ARGS
        capacity = modexp.PRODUCT_MEMO_CAPACITY
        for s in range(capacity + 8):
            assert modexp.verify_product(g, s, y, e, p) == _product(g, s, y, e, p)
        assert modexp.product_memo_stats()["size"] == capacity
        # The oldest products were evicted: asking again recomputes them.
        assert modexp.verify_product(g, 0, y, e, p) == _product(g, 0, y, e, p)
        assert modexp.product_memo_stats()["misses"] == capacity + 9
        assert modexp.product_memo_stats()["size"] == capacity

    def test_clear_empties_memo(self):
        modexp.clear_public_key_cache()
        modexp.verify_product(*_ARGS)
        modexp.verify_product(*_ARGS)
        modexp.clear_public_key_cache()
        assert modexp.product_memo_stats() == {
            "hits": 0, "misses": 0, "size": 0, "capacity": modexp.PRODUCT_MEMO_CAPACITY,
        }
        assert modexp.verify_product(*_ARGS) == _product(*_ARGS)
        assert modexp.product_memo_stats()["misses"] == 1


class TestKeyScheduleCache:
    def test_hit_and_miss_accounting(self):
        clear_key_schedule_cache()
        key = bytes(range(16))
        first = AES(key)
        stats = key_schedule_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 0
        second = AES(key)
        stats = key_schedule_cache_stats()
        assert stats["hits"] == 1
        # Same schedule object, and identical ciphertext either way.
        assert first._round_keys is second._round_keys
        block = b"\x00" * 16
        assert first.encrypt_block(block) == second.encrypt_block(block)

    def test_distinct_keys_distinct_schedules(self):
        clear_key_schedule_cache()
        a = AES(b"\x00" * 16)
        b = AES(b"\x01" * 16)
        assert a._round_keys != b._round_keys
        assert key_schedule_cache_stats()["misses"] == 2
