"""Known-answer tests for modular exponentiation.

Every path in :mod:`repro.crypto.modexp` must be bit-exact with
``builtins.pow``: the native libcrypto call (``powmod``), the registered
generator's short side (``FixedBaseTable``), the two-exponentiation product
and the verification-product memo, over the RFC 3526 2048-bit group the
simulator uses (Schnorr generator g=4, DH generator g=2) and other odd
moduli, plus the built-in ``pow`` fallback for inputs the native call does
not take and for a host without libcrypto.
"""

import ctypes.util
import random
import sys

import pytest

from repro.crypto import modexp, native
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
    # Around the switch itself (q/2), and at or above the order.
    _Q // 2 - 1,
    _Q // 2,
    _Q // 2 + 1,
    _Q // 2 + 2,
    _Q + 1,
    2 * _Q - 1,
    2 * _Q + 5,
    (1 << 2048) - 1,
)


class TestFixedBaseTable:
    @pytest.mark.parametrize("exponent", EDGE_EXPONENTS)
    def test_matches_pow_for_schnorr_generator(self, exponent):
        table = modexp.FixedBaseTable(4, _P, order=_Q)
        assert table.pow(exponent) == pow(4, exponent, _P)

    @pytest.mark.parametrize("exponent", EDGE_EXPONENTS)
    def test_matches_pow_for_dh_generator(self, exponent):
        table = modexp.FixedBaseTable(MODP_2048_G, _P, order=_Q)
        assert table.pow(exponent) == pow(MODP_2048_G, exponent, _P)

    def test_order_must_annihilate_base(self):
        with pytest.raises(CryptoError):
            modexp.FixedBaseTable(4, _P, order=_Q - 1)
        with pytest.raises(CryptoError):
            modexp.FixedBaseTable(4, _P, order=0)

    def test_negative_exponent_rejected(self):
        table = modexp.FixedBaseTable(4, _P, order=_Q)
        with pytest.raises(CryptoError):
            table.pow(-1)

    def test_random_exponents_match_pow(self):
        rng = random.Random(1234)
        table = modexp.FixedBaseTable(4, _P, order=_Q)
        for _ in range(10):
            exponent = rng.getrandbits(2046)
            assert table.pow(exponent) == pow(4, exponent, _P)


_RNG = random.Random(3526)
_ODD_MODULI = {
    "3": 3,
    "mersenne61": (1 << 61) - 1,
    "random1024": _RNG.getrandbits(1024) | (1 << 1023) | 1,
    "rfc3526": _P,
}
_EXPONENTS = [0, 1, _Q - 1, _Q, _Q + 1] + [
    _RNG.getrandbits(bits) | (1 << (bits - 1)) for bits in (255, 256, 320, 575, 2047, 2048)
]


class TestPowmod:
    @pytest.mark.parametrize("modulus", _ODD_MODULI.values(), ids=_ODD_MODULI.keys())
    def test_matches_pow(self, modulus):
        rng = random.Random(modulus)
        bases = [0, 1, 2, 4, modulus - 1, modulus, modulus + 5]
        bases += [rng.getrandbits(modulus.bit_length() + 8) for _ in range(3)]
        for base in bases:
            for exponent in _EXPONENTS:
                expected = pow(base, exponent, modulus)
                assert modexp.powmod(base, exponent, modulus) == expected, (base, exponent)
                # The public (not constant-time) path, through mul2_powmod.
                assert modexp.mul2_powmod(base, exponent, 1, 0, modulus) == expected

    @pytest.mark.parametrize("base,exponent,modulus", [
        (4, -1, _P),  # negative exponent: pow inverts
        (3, -5, 1 << 64),  # negative exponent, even modulus
        (12345, 678, 1 << 64),  # even modulus
        (12345, 678, _P + 1),
        (12345, 678, 1),  # modulus 1: everything is 0
        (-3, 5, 1),
    ])
    def test_inputs_the_native_call_does_not_take_give_pow_result(self, base, exponent, modulus):
        assert modexp.powmod(base, exponent, modulus) == pow(base, exponent, modulus)

    @pytest.mark.parametrize("base,exponent,modulus", [
        (2, -1, 1 << 64),  # not invertible
        (5, 3, 0),
        (0, -1, _P),
    ])
    def test_inputs_the_native_call_does_not_take_raise_pow_exception(
        self, base, exponent, modulus
    ):
        with pytest.raises(ValueError) as expected:
            pow(base, exponent, modulus)
        with pytest.raises(type(expected.value)):
            modexp.powmod(base, exponent, modulus)

    def test_loads_wherever_find_library_finds_it(self, monkeypatch):
        """Where ``_hashlib`` does not import, the library ``find_library``
        names is loaded, and exponentiation runs on it."""
        pytest.importorskip("_hashlib")
        real = next(native._candidates())
        asked = []
        monkeypatch.setitem(sys.modules, "_hashlib", None)
        monkeypatch.setattr(ctypes.util, "find_library", lambda name: asked.append(name) or real)
        native.libcrypto.cache_clear()
        try:
            assert native.libcrypto()._name == real
            assert asked == ["crypto"]
            assert modexp.powmod(_P - 7, _Q - 1, _P) == pow(_P - 7, _Q - 1, _P)
        finally:
            native.libcrypto.cache_clear()

    def test_no_libcrypto_falls_back_to_pow(self, reference_backend):
        try:
            for exponent in _EXPONENTS:
                assert modexp.powmod(_P - 7, exponent, _P) == pow(_P - 7, exponent, _P)
            modexp.clear_product_memo()
            s, y, e = (1 << 574) + 3, pow(4, 0xFEED, _P), (1 << 255) + 1
            assert modexp.verify_product(4, s, y, e, _P) == _product(4, s, y, e, _P)
            assert modexp.verify_product(4, _Q - s, y, e, _P) == _product(4, _Q - s, y, e, _P)
        finally:
            modexp.clear_product_memo()


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
        modexp.clear_product_memo()
        public = pow(4, 0xDEADBEEF, _P)
        s, e = (1 << 2000) + 12345, (1 << 255) + 7
        expected = pow(4, s, _P) * pow(public, e, _P) % _P
        assert modexp.verify_product(4, s, public, e, _P) == expected

def test_public_key_cache_stats_read_zero():
    """The benchmark tracer reads these keys; there is no per-key cache."""
    modexp.verify_product(4, 5, pow(4, 31337, _P), 6, _P)
    stats = modexp.public_key_cache_stats()
    assert stats == dict.fromkeys(("hits", "misses", "size", "capacity", "first_uses"), 0)


def _product(g, s, y, e, modulus):
    return pow(g, s, modulus) * pow(y, e, modulus) % modulus


# One verification's arguments, and for each position a value that differs.
_ARGS = (4, (1 << 600) + 12345, pow(4, 0xC0FFEE, _P), (1 << 255) + 99, _P)
_OTHER = (MODP_2048_G, _ARGS[1] + 1, pow(4, 0xC0FFEF, _P), _ARGS[3] + 1, _P - 2)


class TestProductMemo:
    def test_repeat_hits_and_returns_same_value(self, monkeypatch):
        modexp.clear_product_memo()
        first = modexp.verify_product(*_ARGS)
        assert first == _product(*_ARGS)

        def no_exponentiation(*args):
            raise AssertionError("a memo hit exponentiated")

        monkeypatch.setattr(modexp, "mul2_powmod", no_exponentiation)
        assert modexp.verify_product(*_ARGS) == first
        stats = modexp.product_memo_stats()
        assert (stats["hits"], stats["misses"], stats["size"]) == (1, 1, 1)

    @pytest.mark.parametrize("position", range(5), ids=["g", "s", "y", "e", "modulus"])
    def test_change_in_any_argument_misses(self, position):
        modexp.clear_product_memo()
        modexp.verify_product(*_ARGS)
        args = list(_ARGS)
        args[position] = _OTHER[position]
        assert modexp.verify_product(*args) == _product(*args)
        stats = modexp.product_memo_stats()
        assert (stats["hits"], stats["misses"], stats["size"]) == (0, 2, 2)

    def test_capacity_bounded(self):
        modexp.clear_product_memo()
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
        modexp.clear_product_memo()
        modexp.verify_product(*_ARGS)
        modexp.verify_product(*_ARGS)
        modexp.clear_product_memo()
        assert modexp.product_memo_stats() == {
            "hits": 0, "misses": 0, "size": 0, "capacity": modexp.PRODUCT_MEMO_CAPACITY,
        }
        assert modexp.verify_product(*_ARGS) == _product(*_ARGS)
        assert modexp.product_memo_stats()["misses"] == 1
