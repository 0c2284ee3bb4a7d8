"""Known-answer tests for modular exponentiation.

Every path in :mod:`repro.crypto.modexp` must be bit-exact with
``builtins.pow``: the native libcrypto call (``powmod``), the registered
generator's short side (``FixedBaseTable``: its table of Montgomery-form
powers up to 576 bits, the native call past them), the two-exponentiation
product, a recurring key's table fused with the generator's into one
Montgomery chain, and the verification-product memo, over the RFC 3526
2048-bit group the simulator uses (Schnorr generator g=4, DH generator
g=2) and other odd moduli, plus the built-in ``pow`` fallback for inputs
the native call does not take and for a host without libcrypto.
"""

import ctypes.util
import gc
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import modexp, native, schnorr
from repro.crypto.dh import MODP_2048_G, MODP_2048_P, MODP_2048_Q
from repro.errors import CryptoError
from repro.sim.rng import DeterministicRng

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
    # The longest short sides the 576-bit generator table takes, and the
    # shortest that go past it.
    (1 << 576) - 1,
    1 << 576,
    _Q - ((1 << 576) - 1),
    _Q - (1 << 576),
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

    def test_short_sides_take_the_table_and_longer_ones_the_native_call(self, monkeypatch):
        table = modexp.FixedBaseTable(4, _P, order=_Q)
        native_calls = []
        native_pow = modexp._pow

        def spy(base, exponent, modulus, *, secret):
            native_calls.append(exponent)
            return native_pow(base, exponent, modulus, secret=secret)

        monkeypatch.setattr(modexp, "_pow", spy)
        for exponent in (1, (1 << 576) - 1, _Q - 1, _Q - ((1 << 576) - 1)):
            assert table.pow(exponent) == pow(4, exponent, _P)
        assert native_calls == []
        for exponent in (1 << 576, _Q - (1 << 576)):
            assert table.pow(exponent) == pow(4, exponent, _P)
        assert native_calls == [1 << 576, 1 << 576]

    def test_each_side_is_built_once_and_freed_with_the_table(self, monkeypatch):
        built, freed = [], []
        build, free = modexp._build_powers, modexp._free_bignums
        monkeypatch.setattr(
            modexp, "_build_powers",
            lambda lib, base, modulus, windows: (
                built.append(base) or build(lib, base, modulus, windows)
            ),
        )
        monkeypatch.setattr(
            modexp, "_free_bignums",
            lambda lib, bignums: freed.append(len(bignums)) or free(lib, bignums),
        )
        table = modexp.FixedBaseTable(4, _P, order=_Q)
        for exponent in (5, 6, _Q - 5, _Q - 6):
            assert table.pow(exponent) == pow(4, exponent, _P)
        assert built == [4, table.inverse]
        assert freed == []
        del table
        gc.collect()
        assert freed == [2160, 2160]  # 144 windows x 15 powers, per side


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

@pytest.fixture(params=["libcrypto", "reference"])
def backend(request):
    """Each test runs on libcrypto and on the from-scratch fallback."""
    if request.param == "reference":
        request.getfixturevalue("reference_backend")
    modexp.clear_product_memo()
    yield request.param
    modexp.clear_product_memo()


class TestSchnorrVerify:
    """``schnorr.verify`` through the generator table and past it."""

    def test_valid_signature_verifies(self, backend):
        keypair = schnorr.generate_keypair(DeterministicRng(31, "valid"))
        signature = schnorr.sign(keypair.private, b"message")
        s = signature.response
        assert min(s, _Q - s).bit_length() <= modexp.TABLE_BITS
        assert schnorr.verify(keypair.public, b"message", signature)

    def test_forged_full_length_response_is_rejected(self, backend, monkeypatch):
        keypair = schnorr.generate_keypair(DeterministicRng(31, "forged"))
        signature = schnorr.sign(keypair.private, b"message")
        forged = schnorr.SchnorrSignature(
            challenge=signature.challenge,
            response=(signature.response + (1 << 2000)) % _Q,
        )
        s = forged.response
        assert min(s, _Q - s).bit_length() > modexp.TABLE_BITS
        exponents = []
        native_pow = modexp._pow

        def spy(base, exponent, modulus, *, secret):
            exponents.append(exponent)
            return native_pow(base, exponent, modulus, secret=secret)

        monkeypatch.setattr(modexp, "_pow", spy)
        assert not schnorr.verify(keypair.public, b"message", forged)
        assert min(s, _Q - s) in exponents


def test_public_key_cache_stats_count_the_key_tables():
    """The benchmark tracer reads these keys: products before a key's table
    (``first_uses``), tables built (``misses``) and products a table served
    (``hits``)."""
    modexp.clear_key_tables()
    modexp.clear_product_memo()
    try:
        y = pow(4, 31337, _P)
        for e in range(modexp.KEY_TABLE_USES + 2):
            assert modexp.verify_product(4, 5, y, e, _P) == _product(4, 5, y, e, _P)
        assert modexp.public_key_cache_stats() == {
            "hits": 2,
            "misses": 1,
            "size": 1,
            "capacity": modexp.KEY_TABLE_CAPACITY,
            "first_uses": modexp.KEY_TABLE_USES - 1,
        }
        # A memo hit is not a fresh product: no key-table counter moves.
        modexp.verify_product(4, 5, y, 0, _P)
        assert modexp.public_key_cache_stats()["hits"] == 2
    finally:
        modexp.clear_key_tables()
        modexp.clear_product_memo()


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


# A response's short side on the generator table, on each of its sides.
_SHORT_S = (1 << 574) + 3
_KEY_RNG = random.Random(256)


def _fresh_key() -> int:
    return pow(4, _KEY_RNG.getrandbits(320), _P)


def _admit(y: int) -> None:
    """Make ``y``'s fresh products up to and including the one that builds
    its table."""
    for _ in range(modexp.KEY_TABLE_USES):
        assert modexp.mul2_powmod(4, _SHORT_S, y, 1, _P) == _product(4, _SHORT_S, y, 1, _P)


class TestKeyTables:
    """A recurring verification key's table, fused with the generator's."""

    @pytest.fixture(autouse=True)
    def empty_tables(self):
        modexp.clear_key_tables()
        yield
        modexp.clear_key_tables()

    @pytest.fixture
    def spies(self, monkeypatch):
        """Record every ``_build_powers`` (base, windows, powers) and every
        ``_free_bignums`` length.  Both sides of the generator's table are
        built first, so only key tables are recorded."""
        generator = modexp.register_fixed_base(4, _P, order=_Q)
        generator.pow(_SHORT_S)
        generator.pow(_Q - _SHORT_S)
        built, freed = [], []
        build, free = modexp._build_powers, modexp._free_bignums

        def spy_build(lib, base, modulus, windows):
            powers = build(lib, base, modulus, windows)
            built.append((base, windows, len(powers)))
            return powers

        monkeypatch.setattr(modexp, "_build_powers", spy_build)
        monkeypatch.setattr(
            modexp, "_free_bignums",
            lambda lib, bignums: freed.append(len(bignums)) or free(lib, bignums),
        )
        return built, freed

    @pytest.mark.parametrize("y", [1, 2, _P - 1, _P + 5, _fresh_key()],
                             ids=["1", "2", "p-1", "p+5", "random"])
    def test_table_products_match_pow(self, y, monkeypatch):
        _admit(y)
        native_calls = []
        native_pow = modexp._pow

        def spy(base, exponent, modulus, *, secret):
            native_calls.append(exponent)
            return native_pow(base, exponent, modulus, secret=secret)

        monkeypatch.setattr(modexp, "_pow", spy)
        hits = modexp.public_key_cache_stats()["hits"]
        for e in (0, 1, 1 << 255, (1 << 256) - 1):
            for s in (_SHORT_S, _Q - _SHORT_S):
                assert modexp.mul2_powmod(4, s, y, e, _P) == _product(4, s, y, e, _P)
        assert native_calls == []
        assert modexp.public_key_cache_stats()["hits"] == hits + 8
        # A challenge past the key table takes the native exponentiation.
        assert modexp.mul2_powmod(4, _SHORT_S, y, 1 << 256, _P) == _product(
            4, _SHORT_S, y, 1 << 256, _P
        )
        assert native_calls == [1 << 256]
        assert modexp.public_key_cache_stats()["hits"] == hits + 8

    def test_sixteenth_fresh_product_builds_the_table(self, spies):
        built, _ = spies
        y = _fresh_key()
        for use in range(1, modexp.KEY_TABLE_USES):
            assert modexp.mul2_powmod(4, _SHORT_S, y, use, _P) == _product(4, _SHORT_S, y, use, _P)
        stats = modexp.public_key_cache_stats()
        assert (stats["first_uses"], stats["misses"], stats["size"]) == (15, 0, 0)
        assert built == []
        assert modexp.mul2_powmod(4, _SHORT_S, y, 16, _P) == _product(4, _SHORT_S, y, 16, _P)
        # The generator's side was built long before; the key's table now.
        assert built == [(y, 64, 960)]  # 64 windows x 15 powers
        stats = modexp.public_key_cache_stats()
        assert (stats["first_uses"], stats["misses"], stats["hits"], stats["size"]) == (
            15, 1, 0, 1,
        )
        modexp.mul2_powmod(4, _SHORT_S, y, 17, _P)
        assert modexp.public_key_cache_stats()["hits"] == 1
        assert len(built) == 1

    def test_products_the_tables_cannot_take_do_not_count(self):
        y = _fresh_key()
        long_s = _Q // 2  # a forged response: short side past 576 bits
        for _ in range(modexp.KEY_TABLE_USES):
            modexp.mul2_powmod(4, long_s, y, 1, _P)
            modexp.mul2_powmod(4, _SHORT_S, y, 1 << 256, _P)
            modexp.mul2_powmod(3, _SHORT_S, y, 1, _P)  # no registered generator
        assert modexp.public_key_cache_stats() == {
            "hits": 0, "misses": 0, "size": 0,
            "capacity": modexp.KEY_TABLE_CAPACITY, "first_uses": 0,
        }

    def test_lru_evicts_and_frees_and_clear_frees_all(self, spies):
        built, freed = spies
        keys = [_fresh_key() for _ in range(modexp.KEY_TABLE_CAPACITY + 1)]
        for y in keys[:-1]:
            _admit(y)
        assert modexp.public_key_cache_stats()["size"] == modexp.KEY_TABLE_CAPACITY
        assert freed == []
        # Touch the oldest table, so the second oldest is the least recent.
        modexp.mul2_powmod(4, _SHORT_S, keys[0], 2, _P)
        _admit(keys[-1])
        assert freed == [960]
        assert modexp.public_key_cache_stats()["size"] == modexp.KEY_TABLE_CAPACITY
        hits = modexp.public_key_cache_stats()["hits"]
        modexp.mul2_powmod(4, _SHORT_S, keys[0], 3, _P)
        assert modexp.public_key_cache_stats()["hits"] == hits + 1
        # The evicted key counts from zero again.
        first_uses = modexp.public_key_cache_stats()["first_uses"]
        assert modexp.mul2_powmod(4, _SHORT_S, keys[1], 3, _P) == _product(
            4, _SHORT_S, keys[1], 3, _P
        )
        assert modexp.public_key_cache_stats()["first_uses"] == first_uses + 1
        modexp.clear_key_tables()
        assert freed == [960] * (1 + modexp.KEY_TABLE_CAPACITY)
        assert modexp.public_key_cache_stats() == {
            "hits": 0, "misses": 0, "size": 0,
            "capacity": modexp.KEY_TABLE_CAPACITY, "first_uses": 0,
        }
        assert len(built) == modexp.KEY_TABLE_CAPACITY + 1

    def test_use_counts_forget_the_oldest_key(self, monkeypatch):
        monkeypatch.setattr(modexp, "KEY_USES_CAPACITY", 2)
        keys = [_fresh_key() for _ in range(3)]
        for y in keys:
            modexp.mul2_powmod(4, _SHORT_S, y, 1, _P)
        # keys[0]'s first product was forgotten, so 15 more do not build
        # its table; a 16th does.
        for _ in range(modexp.KEY_TABLE_USES - 1):
            modexp.mul2_powmod(4, _SHORT_S, keys[0], 1, _P)
        assert modexp.public_key_cache_stats()["misses"] == 0
        modexp.mul2_powmod(4, _SHORT_S, keys[0], 1, _P)
        assert modexp.public_key_cache_stats()["misses"] == 1

    def test_reference_backend_products_match_pow(self, reference_backend):
        y = _fresh_key()
        for e in range(modexp.KEY_TABLE_USES + 4):
            for s in (_SHORT_S, _Q - _SHORT_S):
                assert modexp.mul2_powmod(4, s, y, e, _P) == _product(4, s, y, e, _P)
        assert modexp.public_key_cache_stats()["misses"] == 0

    def test_products_match_pow_past_admission(self):
        keys = [_fresh_key() for _ in range(3)]

        @given(
            index=st.integers(0, len(keys) - 1),
            short=st.integers(0, (1 << modexp.TABLE_BITS) - 1),
            inverse_side=st.booleans(),
            e=st.integers(0, (1 << modexp.KEY_TABLE_BITS) - 1),
        )
        @settings(max_examples=100, deadline=None, database=None)
        def product_matches_pow(index, short, inverse_side, e):
            y, s = keys[index], _Q - short if inverse_side else short
            assert modexp.mul2_powmod(4, s, y, e, _P) == _product(4, s, y, e, _P)

        product_matches_pow()
        # 100 products over 3 keys: at least one key passed its 16th.
        stats = modexp.public_key_cache_stats()
        assert stats["misses"] >= 1 and stats["hits"] >= 1
