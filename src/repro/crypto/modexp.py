"""Modular exponentiation for the simulator's crypto: libcrypto, plus
fixed-base tables for the Schnorr generator and recurring verification
keys.

Every exponentiation modulo an odd modulus runs on OpenSSL ``libcrypto``
through :mod:`ctypes` — the library this interpreter's ``hashlib`` and
``ssl`` already link, loaded by :mod:`repro.crypto.native` — and is
bit-exact with ``builtins.pow``.  Per shape, one test each in
``benchmarks/bench_modexp.py`` (40 seeded inputs in turn, 200 rounds;
median of four runs' medians on a 2-vCPU x86-64 VM, CPython 3.11,
libcrypto 3.0), with the count per ``paper_migrate`` migration in
brackets:

===============================================  ================================  =======
shape                                            ``bench_modexp.py`` test          median
===============================================  ================================  =======
DH keygen, g = 2, 256-bit (4)                    ``test_dh_keygen``                0.32 ms
DH shared secret, fresh base, 256-bit (4)        ``test_dh_shared_secret``         0.32 ms
Schnorr sign, g = 4, 320-bit nonce (6)           ``test_schnorr_sign_nonce``       0.37 ms
``g**s`` from the generator table                ``test_generator_table``          0.24 ms
``y**e``, 256-bit, one exponentiation            ``test_key_power_native``         0.29 ms
``y**e`` from a key table                        ``test_key_power_from_key_table`` 0.12 ms
``g**s * y**e`` as one chain (6)                 ``test_fused_product``            0.36 ms
===============================================  ================================  =======

The first three are one Montgomery exponentiation each (they replaced
pure-Python windowed tables and built-in ``pow``).  A verification
product is ``g**s`` from the generator table times ``y**e``: by one
exponentiation (0.24 + 0.29 ms) for a key's first 15 fresh products,
and as one chain over both tables after that.  What there is:

* :func:`powmod` raises a secret exponent (DH and Schnorr private keys,
  Schnorr nonces) with ``BN_mod_exp_mont_consttime``.
* The generator table.  The Schnorr generator ``g = 4`` has order
  ``q = (p - 1)/2`` in the RFC 3526 group, and a response
  ``s = k - x*e mod q`` (320-bit ``k`` and ``x``, 256-bit ``e``) always has
  ``min(s, q - s) < 2**576``.  Its registered :class:`FixedBaseTable` raises
  ``g`` to ``s`` or a precomputed ``g**-1`` to ``q - s``, whichever exponent
  is shorter: equal because ``g**q == 1``, which registration checks.  At
  a side's first use it builds that side's powers ``side**(j * 16**i)``
  (``j`` = 1..15, 144 four-bit windows: 2,160 ``BIGNUM``s in Montgomery
  form, ~0.7 MB, ~7 ms); a short side is then one
  ``BN_mod_mul_montgomery`` per nonzero digit, ~135 of them.  In practice
  only the ``g**-1`` side is built.  A short side past 576 bits (only a
  forged response has one) takes ``BN_mod_exp_mont``.
* The key tables.  A challenge ``e`` is a SHA-256 digest reduced mod
  ``q``, so ``e < 2**256``, and a migration checks its 6 fresh signatures
  under 4 long-lived keys (the EPID group key and the IAS report key
  twice each, each Migration Enclave's key once).  A key gets a table of
  64 four-bit windows (960 ``BIGNUM``s, ~0.3 MB, ~2.2 ms), built by the
  generator's code, at its 16th fresh product, when its exponentiations
  have cost about what the table costs.  A key used fewer times never
  gets one: a CA key checks each ME's credential once, while a world is
  set up, so only a world of 16 machines or more builds its table.
  :func:`mul2_powmod` then picks the generator's powers for the short
  side and the key's for ``e`` and multiplies them as one chain: one
  ``BN_CTX``, one ``BN_copy``, ~200 ``BN_mod_mul_montgomery``, one
  ``BN_from_montgomery``.  The tables sit in an LRU of 16, and an evicted
  table's ``BIGNUM``s are freed; :func:`public_key_cache_stats` counts
  it and :func:`clear_key_tables` empties it.  A key's first 15 fresh
  products, an ``e`` of 2**256 or more, a short side past 576 bits, an
  even modulus and a host without libcrypto take the two
  exponentiations.
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
four names stay and its ``crypto.modexp`` attribution carries over: its
``crypto.modexp.tables_built`` counts the key tables built and
``crypto.modexp_pk_cache.*`` the products they served.

Everything here only changes *wall-clock* cost.  Virtual-time charges are
made by the cost meter, never by measuring this code, so seeded simulation
results are unchanged (asserted by ``tests/unit/test_determinism.py``).
"""

from __future__ import annotations

import ctypes
import weakref
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


# ------------------------------------------------------------ tables
#: A generator table covers exponents up to 576 bits, the short side of
#: every Schnorr response, in 4-bit digits (two per byte): 144 windows of
#: 15 powers each.
TABLE_BITS = 576
_ENTRIES = 15
_WINDOWS = TABLE_BITS // 4


def _free_bignums(lib, bignums: list[int]) -> None:
    for bn in bignums:
        lib.BN_clear_free(bn)


def _build_powers(lib, base: int, modulus: int, windows: int) -> list[int]:
    """``BIGNUM``s holding ``base ** (j * 16**i)`` in Montgomery form, for
    window ``i < windows`` and digit ``1 <= j <= 15`` at index
    ``15*i + j - 1``."""
    width = (modulus.bit_length() + 7) // 8
    ctx = lib.BN_CTX_new()
    powers: list[int] = []
    try:
        if not ctx:
            raise CryptoError("libcrypto could not allocate a BN_CTX")
        _, mont = _montgomery(lib, modulus, ctx)
        first = lib.BN_bin2bn(base.to_bytes(width, "big"), width, None)
        if not first:
            raise CryptoError("libcrypto could not allocate a BIGNUM")
        powers.append(first)
        if lib.BN_to_montgomery(first, first, mont, ctx) != 1:
            raise CryptoError("libcrypto could not enter Montgomery form")
        for index in range(1, windows * _ENTRIES):
            power = lib.BN_new()
            if not power:
                raise CryptoError("libcrypto could not allocate a BIGNUM")
            powers.append(power)
            window, digit = divmod(index, _ENTRIES)
            # Digit j of a window is digit j - 1 times digit 1; digit 1 of
            # the next window is digit 15 times digit 1 (base ** 16**i).
            step = powers[index - _ENTRIES if digit == 0 else window * _ENTRIES]
            if lib.BN_mod_mul_montgomery(power, powers[index - 1], step, mont, ctx) != 1:
                raise CryptoError("libcrypto Montgomery product failed")
        return powers
    except BaseException:
        _free_bignums(lib, powers)
        raise
    finally:
        lib.BN_CTX_free(ctx)


def _picks(powers: list[int], exponent: int, windows: int) -> list[int]:
    """The powers whose product is ``base ** exponent``, for
    ``exponent < 16**windows``: one per nonzero 4-bit digit."""
    picks = []
    offset = -1  # digit j of window i is powers[15*i + j - 1]
    for byte in exponent.to_bytes(windows // 2, "little"):
        if byte & 15:
            picks.append(powers[offset + (byte & 15)])
        if byte >> 4:
            picks.append(powers[offset + _ENTRIES + (byte >> 4)])
        offset += 2 * _ENTRIES
    return picks


def _chain(lib, picks: list[int], modulus: int) -> int:
    """The product of the Montgomery-form ``picks`` modulo ``modulus``: one
    ``BN_mod_mul_montgomery`` per pick after the first, then one
    ``BN_from_montgomery``."""
    if not picks:
        return 1
    width = (modulus.bit_length() + 7) // 8
    ctx = lib.BN_CTX_new()
    r = lib.BN_new()
    try:
        if not (ctx and r):
            raise CryptoError("libcrypto could not allocate a BIGNUM")
        _, mont = _montgomery(lib, modulus, ctx)
        if not lib.BN_copy(r, picks[0]):
            raise CryptoError("libcrypto could not copy a BIGNUM")
        multiply = lib.BN_mod_mul_montgomery
        for power in picks[1:]:
            if multiply(r, r, power, mont, ctx) != 1:
                raise CryptoError("libcrypto Montgomery product failed")
        if lib.BN_from_montgomery(r, r, mont, ctx) != 1:
            raise CryptoError("libcrypto could not leave Montgomery form")
        out = ctypes.create_string_buffer(width)
        if lib.BN_bn2binpad(r, out, width) != width:
            raise CryptoError("libcrypto result does not fit the modulus width")
        return int.from_bytes(out.raw, "big")
    finally:
        lib.BN_clear_free(r)
        lib.BN_CTX_free(ctx)


class FixedBaseTable:
    """A registered generator ``base`` of order ``order`` modulo ``modulus``.

    ``pow(exponent)`` returns exactly ``pow(base, exponent, modulus)`` for
    any non-negative exponent.  It reduces the exponent mod ``order`` and,
    when ``order - e`` is the shorter of the two, raises the precomputed
    ``inverse = base**-1`` to ``order - e`` instead, which is equal because
    ``base ** order == 1`` (checked here).  A short side below
    ``2**TABLE_BITS`` is one libcrypto Montgomery product per nonzero 4-bit
    digit, over that side's powers ``base ** (j * 16**i)``, built at its
    first such use (2,160 ``BIGNUM``s, ~0.7 MB) and freed with the
    instance; a longer one, an even modulus or a host without libcrypto
    takes :func:`_pow`.  :func:`mul2_powmod` reads the same powers through
    :meth:`short_side` and :meth:`powers`.  Exponents are public: the call
    is not constant-time.
    """

    __slots__ = ("base", "modulus", "order", "inverse", "_powers", "__weakref__")

    def __init__(self, base: int, modulus: int, *, order: int):
        if modulus <= 1:
            raise CryptoError("modulus must be > 1")
        self.base = base % modulus
        if order < 1 or _pow(self.base, order, modulus, secret=False) != 1:
            raise CryptoError("base ** order must be 1 modulo the modulus")
        self.modulus = modulus
        self.order = order
        self.inverse = pow(self.base, -1, modulus)
        # side -> (the libcrypto that built its powers, the powers)
        self._powers: dict[int, tuple[object, list[int]]] = {}
        weakref.finalize(self, _free_tables, self._powers)

    def pow(self, exponent: int) -> int:
        """``base ** exponent % modulus`` by the shorter side."""
        if exponent < 0:
            raise CryptoError("negative exponent")
        side, exponent = self.short_side(exponent)
        modulus = self.modulus
        lib = libcrypto()
        if lib is None or exponent >> TABLE_BITS or not modulus & 1:
            return _pow(side, exponent, modulus, secret=False)
        return _chain(lib, _picks(self.powers(lib, side), exponent, _WINDOWS), modulus)

    def short_side(self, exponent: int) -> tuple[int, int]:
        """``(side, short)`` with ``side ** short == base ** exponent``:
        ``base`` or ``inverse``, whichever takes the shorter exponent."""
        order = self.order
        exponent %= order
        if order - exponent < exponent:
            return self.inverse, order - exponent
        return self.base, exponent

    def powers(self, lib, side: int) -> list[int]:
        """``side``'s Montgomery-form powers, built at their first use."""
        built = self._powers.get(side)
        if built is None:
            built = self._powers[side] = (lib, _build_powers(lib, side, self.modulus, _WINDOWS))
        return built[1]


def _free_tables(tables: dict) -> None:
    for lib, powers in tables.values():
        _free_bignums(lib, powers)


_GENERATORS: dict[tuple[int, int], FixedBaseTable] = {}


def register_fixed_base(base: int, modulus: int, *, order: int) -> FixedBaseTable:
    """Register (idempotently) a well-known generator and its order, so that
    public exponentiations of it take the short side (see FixedBaseTable)."""
    key = (base % modulus, modulus)
    table = _GENERATORS.get(key)
    if table is None:
        table = _GENERATORS[key] = FixedBaseTable(base, modulus, order=order)
    return table


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
            self._evict(self._entries.popitem(last=False)[1])

    def _evict(self, value) -> None:
        """Release an entry that the capacity pushed out."""

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


#: A key table covers a challenge ``e``, a SHA-256 digest reduced mod q, so
#: below 2**256: 64 windows of 15 powers (960 ``BIGNUM``s).
KEY_TABLE_BITS = 256
_KEY_WINDOWS = KEY_TABLE_BITS // 4
#: A verification key gets its table at this fresh product (a memo miss).
KEY_TABLE_USES = 16
#: Maximum number of key tables held at once.
KEY_TABLE_CAPACITY = 16
#: Maximum number of keys whose fresh products are counted before a table.
KEY_USES_CAPACITY = 256


class _KeyTables(_Lru):
    """The tables of recurring verification keys: an LRU of
    ``(key, modulus) -> (the libcrypto that built them, the powers)``.

    :meth:`powers` counts a key's fresh products and answers ``None`` (a
    first use) until the ``KEY_TABLE_USES``-th, which builds the table.
    ``hits`` counts the products a built table served and ``misses`` the
    tables built.  An evicted table's ``BIGNUM``s are freed, and its key
    counts from zero again; the counts themselves are bounded, oldest key
    forgotten first.
    """

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._uses: OrderedDict = OrderedDict()
        self.first_uses = 0

    def powers(self, lib, key: int, modulus: int) -> list[int] | None:
        """``key``'s Montgomery-form powers, or ``None`` before its table."""
        entry = (key, modulus)
        table = self._entries.get(entry)
        if table is not None:
            self.hits += 1
            self._entries.move_to_end(entry)
            return table[1]
        uses = self._uses.pop(entry, 0) + 1
        if uses < KEY_TABLE_USES:
            self.first_uses += 1
            self._uses[entry] = uses
            if len(self._uses) > KEY_USES_CAPACITY:
                self._uses.popitem(last=False)
            return None
        self.misses += 1
        powers = _build_powers(lib, key, modulus, _KEY_WINDOWS)
        self.store(entry, (lib, powers))
        return powers

    def _evict(self, value) -> None:
        _free_bignums(*value)

    def stats(self) -> dict[str, int]:
        return {**super().stats(), "first_uses": self.first_uses}

    def clear(self) -> None:
        for value in self._entries.values():
            self._evict(value)
        super().clear()
        self._uses.clear()
        self.first_uses = 0


_KEY_TABLES = _KeyTables(KEY_TABLE_CAPACITY)


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
    """``b1**e1 * b2**e2 % modulus`` for public exponents.

    With ``b1`` a registered generator whose short side of ``e1`` fits its
    table, ``e2 < 2**KEY_TABLE_BITS``, an odd modulus and libcrypto, the
    product counts as a use of the key ``b2``; once ``b2`` has its table it
    is one Montgomery chain over the generator's and the key's powers.
    Otherwise two exponentiations, a registered generator's by its shorter
    side.
    """
    if modulus <= 1:
        raise CryptoError("modulus must be > 1")
    if e1 < 0 or e2 < 0:
        raise CryptoError("negative exponent")
    generator = _GENERATORS.get((b1 % modulus, modulus))
    lib = libcrypto()
    if generator is not None and lib is not None and modulus & 1 and not e2 >> KEY_TABLE_BITS:
        side, short = generator.short_side(e1)
        if not short >> TABLE_BITS:
            key_powers = _KEY_TABLES.powers(lib, b2 % modulus, modulus)
            if key_powers is not None:
                picks = _picks(generator.powers(lib, side), short, _WINDOWS)
                return _chain(lib, picks + _picks(key_powers, e2, _KEY_WINDOWS), modulus)
    return _public_pow(b1, e1, modulus) * _public_pow(b2, e2, modulus) % modulus


# -------------------------------------------------------------- products
# (g, s, y, e, modulus) -> g**s * y**e % modulus: public values only (a
# generator, a signature and a verification key; see the module docstring).
_PRODUCTS = _Lru(PRODUCT_MEMO_CAPACITY)


def public_key_cache_stats() -> dict[str, int]:
    """Counters of the key-table LRU: ``hits`` (products a key table
    served), ``misses`` (tables built), ``first_uses`` (products of a key
    that had no table), ``size`` and ``capacity``.  The benchmark tracer
    (``benchmarks/e2e/tracing.py``) reads them."""
    return _KEY_TABLES.stats()


def product_memo_stats() -> dict[str, int]:
    """Hit/miss/size counters for the verification-product memo (tests, tuning)."""
    return _PRODUCTS.stats()


def clear_product_memo() -> None:
    """Empty the verification-product memo and zero its counters."""
    _PRODUCTS.clear()


def clear_key_tables() -> None:
    """Free every key table, forget every key's uses and zero the counters."""
    _KEY_TABLES.clear()


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
