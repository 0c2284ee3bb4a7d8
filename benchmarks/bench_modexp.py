"""Per-shape cost of the modular exponentiations a migration makes.

One test per row of the table in the :mod:`repro.crypto.modexp` docstring,
each over 40 inputs of the shape the protocol produces (RFC 3526 group,
seeded): DH keygen and shared secret and the Schnorr sign nonce raise
secret exponents (``powmod``); a verification product raises the
generator ``g = 4`` to a response's short side and a key ``y`` to a
256-bit challenge, natively, from a key table, or fused into one
Montgomery chain.  Each test checks every input's result against built-in
``pow`` and asserts no timing.  ``make bench-shapes`` runs each once with
timing off; ``python -m pytest benchmarks/bench_modexp.py`` times one
input per round, in turn.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.crypto import modexp
from repro.crypto.dh import MODP_2048_G, MODP_2048_P, MODP_2048_Q
from repro.crypto.native import libcrypto

_P, _Q, _G = MODP_2048_P, MODP_2048_Q, 4
_INPUTS = 40
_ROUNDS = 200
_RNG = random.Random(2018)
_KEYS = [pow(_G, _RNG.getrandbits(320), _P) for _ in range(4)]


def _response() -> int:
    """A Schnorr response ``k - x*e mod q``: 320-bit ``k`` and ``x``,
    256-bit ``e``."""
    return (_RNG.getrandbits(320) - _RNG.getrandbits(320) * _RNG.getrandbits(256)) % _Q


# (secret exponent, fresh base) for the powmod shapes; (s, y, e) for the
# verification shapes, the keys in turn.
_SECRETS = [(_RNG.getrandbits(256) | 1, _RNG.randrange(2, _P - 1)) for _ in range(_INPUTS)]
_NONCES = [_RNG.getrandbits(320) for _ in range(_INPUTS)]
_PRODUCTS = [
    (_response(), _KEYS[i % len(_KEYS)], _RNG.getrandbits(256)) for i in range(_INPUTS)
]


def _run(benchmark, shape, inputs, expected):
    """Time ``shape`` over ``inputs`` in turn, one call per round after a
    few untimed ones (which build the generator's table), and check every
    input's result."""
    turn = itertools.cycle(inputs)
    benchmark.pedantic(
        shape, setup=lambda: (next(turn), {}), rounds=_ROUNDS, warmup_rounds=4
    )
    assert [shape(*args) for args in inputs] == expected


@pytest.fixture
def warm_keys():
    """Every key past its table's admission, and the tables freed after."""
    if libcrypto() is None:
        pytest.skip("no libcrypto on this host")
    modexp.clear_key_tables()
    for key in _KEYS:
        for _ in range(modexp.KEY_TABLE_USES):
            modexp.mul2_powmod(_G, 0, key, 1, _P)
    assert modexp.public_key_cache_stats()["size"] == len(_KEYS)
    yield
    modexp.clear_key_tables()


def test_dh_keygen(benchmark):
    inputs = [(x,) for x, _ in _SECRETS]
    _run(
        benchmark, lambda x: modexp.powmod(MODP_2048_G, x, _P), inputs,
        [pow(MODP_2048_G, x, _P) for (x,) in inputs],
    )


def test_dh_shared_secret(benchmark):
    _run(
        benchmark, lambda x, peer: modexp.powmod(peer, x, _P), _SECRETS,
        [pow(peer, x, _P) for x, peer in _SECRETS],
    )


def test_schnorr_sign_nonce(benchmark):
    inputs = [(k,) for k in _NONCES]
    _run(
        benchmark, lambda k: modexp.powmod(_G, k, _P), inputs,
        [pow(_G, k, _P) for (k,) in inputs],
    )


def test_generator_table(benchmark):
    table = modexp.register_fixed_base(_G, _P, order=_Q)
    inputs = [(s,) for s, _, _ in _PRODUCTS]
    _run(benchmark, table.pow, inputs, [pow(_G, s, _P) for (s,) in inputs])


def test_key_power_native(benchmark):
    inputs = [(y, e) for _, y, e in _PRODUCTS]
    _run(
        benchmark, lambda y, e: modexp._pow(y, e, _P, secret=False), inputs,
        [pow(y, e, _P) for y, e in inputs],
    )


def test_key_power_from_key_table(benchmark, warm_keys):
    # g**0 takes no power from the generator table, so the chain is y**e
    # from the key table alone.
    inputs = [(y, e) for _, y, e in _PRODUCTS]
    _run(
        benchmark, lambda y, e: modexp.mul2_powmod(_G, 0, y, e, _P), inputs,
        [pow(y, e, _P) for y, e in inputs],
    )


def test_fused_product(benchmark, warm_keys):
    hits = modexp.public_key_cache_stats()["hits"]
    _run(
        benchmark, lambda s, y, e: modexp.mul2_powmod(_G, s, y, e, _P), _PRODUCTS,
        [pow(_G, s, _P) * pow(y, e, _P) % _P for s, y, e in _PRODUCTS],
    )
    assert modexp.public_key_cache_stats()["hits"] > hits
