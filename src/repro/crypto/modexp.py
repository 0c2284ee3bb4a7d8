"""Modular exponentiation for the simulator's crypto: one native call.

Every exponentiation modulo an odd modulus runs OpenSSL ``libcrypto``'s
Montgomery exponentiation through :mod:`ctypes` — the library this
interpreter's ``hashlib`` and ``ssl`` already link, loaded by
:mod:`repro.crypto.native` — and is bit-exact with ``builtins.pow``.
Measured per shape on a 2-vCPU x86-64 VM (CPython 3.11, libcrypto 3.0,
40 exponents each, best of 3), with the count per ``paper_migrate``
migration in brackets:

=================================================  ==================  =========
exponentiation                                      replaced            libcrypto
=================================================  ==================  =========
DH shared secret, fresh base, 256-bit (4)           5.08 ms, ``pow``    0.51 ms
DH keygen, g = 2, 256-bit (4)                       0.83 ms, table      0.57 ms
Schnorr sign, g = 4, 320-bit nonce (6)              1.22 ms, table      0.70 ms
verification ``g**s``, 575-bit short side (6)       2.82 ms, table      1.19 ms
verification ``y**e``, 256-bit (6)                  1.18 ms, key table  0.53 ms
=================================================  ==================  =========

libcrypto wins every shape, so no windowed table, per-key table cache or
Shamir loop is kept beside it.  What remains:

* :func:`powmod` raises a secret exponent (DH and Schnorr private keys,
  Schnorr nonces) with ``BN_mod_exp_mont_consttime``.
* The short side.  The Schnorr generator ``g = 4`` has order
  ``q = (p - 1)/2`` in the RFC 3526 group, and a response
  ``s = k - x*e mod q`` (320-bit ``k`` and ``x``, 256-bit ``e``) always has
  ``min(s, q - s) < 2**576``.  Its registered :class:`FixedBaseTable` raises
  ``g`` to ``s`` or a precomputed ``g**-1`` to ``q - s``, whichever exponent
  is shorter: equal because ``g**q == 1``, which registration checks, and
  1.2 ms where a 2,047-bit exponent takes 3.5 ms.
* The product memo: a bounded LRU of :func:`verify_product` results, keyed
  by all five arguments ``(g, s, y, e, modulus)``.  An enclave's SIGSTRUCT
  at every launch and each Migration Enclave's provider credential at every
  ME authentication are checked again and again: 3 of the 9 products of a
  ``paper_migrate`` migration.  Every argument is public, so a hit tells a
  caller only that the same signature was checked before; ``schnorr.verify``
  still runs its range checks, challenge hash and constant-time compare.
  ``powmod`` has no memo: its exponents are secrets.
* Built-in ``pow`` for what the native call does not take — a negative
  exponent, an even modulus or a modulus <= 1 (only tests pass these) — and
  on a host where no libcrypto loads, decided once, at first use.

``benchmarks/e2e/tracing.py`` wraps ``FixedBaseTable.pow``, :func:`powmod`
and :func:`mul2_powmod` and reads :func:`public_key_cache_stats`, so these
four names stay and its ``crypto.modexp`` attribution carries over:
``FixedBaseTable`` is the registered generator, ``mul2_powmod`` is two
exponentiations, and the per-key cache statistics read zero because there
is no per-key cache.

Everything here only changes *wall-clock* cost.  Virtual-time charges are
made by the cost meter, never by measuring this code, so seeded simulation
results are unchanged (asserted by ``tests/unit/test_determinism.py``).
"""

from __future__ import annotations

import ctypes
from collections import OrderedDict

from repro.crypto.native import libcrypto
from repro.errors import CryptoError

#: Maximum number of verification products memoized at once.
PRODUCT_MEMO_CAPACITY = 256

# modulus -> its BIGNUM and Montgomery context, built once and kept for the
# life of the process.  The program raises modulo one prime (RFC 3526).
_MODULI: dict[int, tuple[int, int]] = {}


def _montgomery(lib, modulus: int, ctx: int) -> tuple[int, int]:
    cached = _MODULI.get(modulus)
    if cached is not None:
        return cached
    width = (modulus.bit_length() + 7) // 8
    bn = lib.BN_bin2bn(modulus.to_bytes(width, "big"), width, None)
    mont = lib.BN_MONT_CTX_new()
    if not bn or not mont or lib.BN_MONT_CTX_set(mont, bn, ctx) != 1:
        lib.BN_clear_free(bn)
        lib.BN_MONT_CTX_free(mont)
        raise CryptoError("libcrypto could not set up the modulus")
    _MODULI[modulus] = (bn, mont)
    return bn, mont


def _pow(base: int, exponent: int, modulus: int, *, secret: bool) -> int:
    """``pow(base, exponent, modulus)``, natively when libcrypto takes it;
    ``secret`` exponents take the constant-time exponentiation."""
    lib = libcrypto()
    if lib is None or exponent < 0 or modulus <= 1 or not modulus & 1:
        return pow(base, exponent, modulus)
    width = (modulus.bit_length() + 7) // 8
    ctx = lib.BN_CTX_new()
    a = p = r = None
    try:
        if not ctx:
            raise CryptoError("libcrypto could not allocate a BN_CTX")
        m, mont = _montgomery(lib, modulus, ctx)
        a = lib.BN_bin2bn((base % modulus).to_bytes(width, "big"), width, None)
        size = (exponent.bit_length() + 7) // 8
        p = lib.BN_bin2bn(exponent.to_bytes(size, "big"), size, None)
        r = lib.BN_new()
        if not (a and p and r):
            raise CryptoError("libcrypto could not allocate a BIGNUM")
        exp = lib.BN_mod_exp_mont_consttime if secret else lib.BN_mod_exp_mont
        if exp(r, a, p, m, ctx, mont) != 1:
            raise CryptoError("libcrypto modular exponentiation failed")
        out = ctypes.create_string_buffer(width)
        if lib.BN_bn2binpad(r, out, width) != width:
            raise CryptoError("libcrypto result does not fit the modulus width")
        return int.from_bytes(out.raw, "big")
    finally:
        for bn in (a, p, r):
            lib.BN_clear_free(bn)  # a no-op on NULL
        lib.BN_CTX_free(ctx)


# ------------------------------------------------------------ generators
class FixedBaseTable:
    """A registered generator ``base`` of order ``order`` modulo ``modulus``.

    ``pow(exponent)`` returns exactly ``pow(base, exponent, modulus)`` for
    any non-negative exponent.  It reduces the exponent mod ``order`` and,
    when ``order - e`` is the shorter of the two, raises the precomputed
    ``inverse = base**-1`` to ``order - e`` instead, which is equal because
    ``base ** order == 1`` (checked here).  Exponents are public: the call
    is not constant-time.
    """

    __slots__ = ("base", "modulus", "order", "inverse")

    def __init__(self, base: int, modulus: int, *, order: int):
        if modulus <= 1:
            raise CryptoError("modulus must be > 1")
        self.base = base % modulus
        if order < 1 or _pow(self.base, order, modulus, secret=False) != 1:
            raise CryptoError("base ** order must be 1 modulo the modulus")
        self.modulus = modulus
        self.order = order
        self.inverse = pow(self.base, -1, modulus)

    def pow(self, exponent: int) -> int:
        """``base ** exponent % modulus`` by the shorter side."""
        if exponent < 0:
            raise CryptoError("negative exponent")
        order = self.order
        exponent %= order
        if order - exponent < exponent:
            return _pow(self.inverse, order - exponent, self.modulus, secret=False)
        return _pow(self.base, exponent, self.modulus, secret=False)


_GENERATORS: dict[tuple[int, int], FixedBaseTable] = {}


def register_fixed_base(base: int, modulus: int, *, order: int) -> FixedBaseTable:
    """Register (idempotently) a well-known generator and its order, so that
    public exponentiations of it take the short side (see FixedBaseTable)."""
    key = (base % modulus, modulus)
    table = _GENERATORS.get(key)
    if table is None:
        table = _GENERATORS[key] = FixedBaseTable(base, modulus, order=order)
    return table


def powmod(base: int, exponent: int, modulus: int) -> int:
    """``pow(base, exponent, modulus)`` for a secret exponent (a private key
    or a nonce): constant-time, and never memoized."""
    return _pow(base, exponent, modulus, secret=True)


def _public_pow(base: int, exponent: int, modulus: int) -> int:
    table = _GENERATORS.get((base % modulus, modulus))
    if table is not None:
        return table.pow(exponent)
    return _pow(base, exponent, modulus, secret=False)


def mul2_powmod(b1: int, e1: int, b2: int, e2: int, modulus: int) -> int:
    """``b1**e1 * b2**e2 % modulus`` for public exponents: two
    exponentiations, a registered generator's by its shorter side."""
    if modulus <= 1:
        raise CryptoError("modulus must be > 1")
    if e1 < 0 or e2 < 0:
        raise CryptoError("negative exponent")
    return _public_pow(b1, e1, modulus) * _public_pow(b2, e2, modulus) % modulus


# -------------------------------------------------------------- products
class _Lru:
    """Bounded least-recently-used map with hit and miss counters."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def lookup(self, key):
        """The entry for ``key`` (a hit), or ``None`` (a miss)."""
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
            self._entries.move_to_end(key)
        return value

    def store(self, key, value) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._entries),
            "capacity": self.capacity,
        }

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


# (g, s, y, e, modulus) -> g**s * y**e % modulus: public values only (a
# generator, a signature and a verification key; see the module docstring).
_PRODUCTS = _Lru(PRODUCT_MEMO_CAPACITY)


def public_key_cache_stats() -> dict[str, int]:
    """Zero counts under the keys of the per-public-key table cache that
    native exponentiation replaced.  Its only reader is the frozen benchmark
    tracer (``benchmarks/e2e/tracing.py``)."""
    return {"hits": 0, "misses": 0, "size": 0, "capacity": 0, "first_uses": 0}


def product_memo_stats() -> dict[str, int]:
    """Hit/miss/size counters for the verification-product memo (tests, tuning)."""
    return _PRODUCTS.stats()


def clear_product_memo() -> None:
    """Empty the verification-product memo and zero its counters."""
    _PRODUCTS.clear()


def verify_product(g: int, s: int, y: int, e: int, modulus: int) -> int:
    """``g**s * y**e % modulus`` — the Schnorr verification equation.

    A repeat of all five arguments is served from the product memo;
    otherwise :func:`mul2_powmod` computes it.
    """
    key = (g, s, y, e, modulus)
    product = _PRODUCTS.lookup(key)
    if product is None:
        product = mul2_powmod(g, s, y, e, modulus)
        _PRODUCTS.store(key, product)
    return product
