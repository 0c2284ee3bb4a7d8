"""Fast modular exponentiation for the simulator's hot crypto paths.

Profiling ``run_migration_bench`` shows big-integer ``pow`` dominating
wall-clock time: every ME<->ME remote attestation redoes Schnorr/EPID
verification from scratch, and almost all of those exponentiations share a
handful of bases — the group generators (``g = 2`` for DH, ``g = 4`` for
Schnorr) and a small set of long-lived public keys (the EPID group key, the
IAS report key, the provider CA key, the ME signing keys).

Four techniques, all bit-exact with ``builtins.pow``:

* :class:`FixedBaseTable` — windowed fixed-base precomputation.  For a base
  used with many exponents, precompute ``base**(d << (w*i))`` for every
  window position ``i`` and digit ``d``; an exponentiation then costs one
  modular multiplication per window instead of one squaring per bit.  Rows
  are built on demand, up to the highest window an exponent has needed.
  A table that knows its base's order ``q`` (registered with ``order=``)
  reduces the exponent mod ``q`` and, when ``q - e`` is shorter than ``e``,
  computes ``base**(q - e)`` and inverts it with ``pow(x, -1, p)``.  This is
  exact only because ``base**q == 1 (mod p)``, which the table checks when
  it is built; the Schnorr generator ``g = 4`` has order ``q = (p - 1)/2``
  in the RFC 3526 group.  Schnorr responses ``s = k - x*e mod q`` (320-bit
  ``k`` and ``x``, 256-bit ``e``) always have ``min(s, q - s) < 2**576``, so
  a verification's ``g**s`` takes at most 96 six-bit windows instead of 342,
  and the table holds about 96 rows (1.8 MiB) instead of 342 (6.3 MiB).
  Measured on a 2-vCPU x86-64 VM under CPython 3.11: 6.7 ms -> 3.1 ms per
  Schnorr verification, of which the inversion is 0.4 ms.
* :func:`mul2_powmod` — Shamir's trick (simultaneous multi-exponentiation):
  ``b1**e1 * b2**e2 mod m`` in a single interleaved square-and-multiply
  pass, sharing the squaring chain between both exponents.  Only the
  fallback of :func:`verify_product` when no generator table is registered.
* a bounded LRU of per-public-key tables — verification keys recur across
  attestations, so their (short-exponent) tables pay for themselves after a
  few uses and are evicted least-recently-used once :data:`LRU_CAPACITY`
  keys are live.  A table is built on a key's second use, not its first:
  many keys are checked once only (the developer and ME-build signing
  keys, whose later SIGSTRUCT checks the product memo serves), and a
  build plus one use costs ~19.8 ms where built-in ``pow`` costs ~5.0 ms
  and a cached table ~1.2 ms per use.  The first use is served by ``pow``
  (bit-exact) and only recorded in a bounded set of first-seen keys.
  Keys known to recur from the start (the EPID group key) are built up
  front by :func:`warm_public_key`.
* a bounded LRU of :func:`verify_product` results, keyed by all five
  arguments ``(g, s, y, e, modulus)`` and checked before any table.  Some
  signatures are checked again and again with the same key: an enclave's
  SIGSTRUCT at every launch, each Migration Enclave's provider credential
  at every ME authentication.  Those are 3 of the 9 products a
  ``paper_migrate`` migration computes (3.1 ms each; a hit costs a few
  microseconds).  Every argument is public, so a hit tells a caller only
  that the same signature was checked before.  ``powmod`` has no memo: its
  exponents are private keys and nonces.  The memo returns the product
  only; ``schnorr.verify`` still runs its range checks, challenge hash and
  constant-time compare on every call.

Everything here only changes *wall-clock* cost.  Virtual-time charges are
made by the cost meter, never by measuring this code, so seeded simulation
results are unchanged (asserted by ``tests/unit/test_determinism.py``).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import CryptoError

#: Window width (bits) for full-length (2048-bit) exponents.
DEFAULT_WINDOW = 6

#: Window width for the short (<= 256-bit) exponents of cached public keys.
SHORT_WINDOW = 4

#: Maximum number of per-public-key tables kept alive at once.
LRU_CAPACITY = 64

#: Maximum number of keys remembered as used once, without a table.
FIRST_SEEN_CAPACITY = 256

#: Maximum number of verification products memoized at once.
PRODUCT_MEMO_CAPACITY = 256


class FixedBaseTable:
    """Windowed fixed-base precomputation for one ``(base, modulus)`` pair.

    ``pow(exponent)`` returns exactly ``pow(base, exponent, modulus)`` for
    any non-negative exponent; exponents longer than ``max_bits`` fall back
    to ``builtins.pow`` rather than failing.  Rows are built on demand, up to
    the highest window an exponent has needed so far.

    With ``order`` (``base ** order == 1 mod modulus``, checked here), the
    exponent is reduced mod ``order`` and, when ``order - e`` is the shorter
    of the two, the table computes ``base ** (order - e)`` and returns its
    modular inverse, which equals ``base ** e``.
    """

    __slots__ = ("base", "modulus", "window", "max_bits", "order", "_rows", "_step")

    def __init__(
        self,
        base: int,
        modulus: int,
        *,
        window: int = DEFAULT_WINDOW,
        max_bits: int = 2048,
        order: int | None = None,
    ):
        if modulus <= 1:
            raise CryptoError("modulus must be > 1")
        if window < 1 or max_bits < 1:
            raise CryptoError("window and max_bits must be positive")
        self.base = base % modulus
        if order is not None and (order < 1 or pow(self.base, order, modulus) != 1):
            raise CryptoError("base ** order must be 1 modulo the modulus")
        self.modulus = modulus
        self.window = window
        self.max_bits = max_bits
        self.order = order
        self._rows: list[list[int]] = []
        self._step = self.base  # base**(radix**len(_rows)): the next row's unit

    def _extend_rows(self, count: int) -> None:
        """Build rows until there are ``count``: row ``i`` holds
        ``base**(d << (window*i))`` for every digit ``d``."""
        modulus = self.modulus
        radix = 1 << self.window
        rows = self._rows
        step = self._step
        while len(rows) < count:
            row = [1] * radix
            acc = 1
            for digit in range(1, radix):
                acc = acc * step % modulus
                row[digit] = acc
            rows.append(row)
            step = acc * step % modulus
        self._step = step

    def pow(self, exponent: int) -> int:
        """``base ** exponent % modulus`` via table lookups."""
        if exponent < 0:
            raise CryptoError("negative exponent")
        order = self.order
        invert = False
        if order is not None:
            exponent %= order
            if order - exponent < exponent:
                exponent = order - exponent
                invert = True
        bits = exponent.bit_length()
        modulus = self.modulus
        if bits > self.max_bits:
            acc = pow(self.base, exponent, modulus)
        else:
            window = self.window
            rows = self._rows
            if len(rows) * window < bits:
                self._extend_rows(-(-bits // window))
            acc = 1
            mask = (1 << window) - 1
            for row in rows:
                if not exponent:
                    break
                digit = exponent & mask
                if digit:
                    acc = acc * row[digit] % modulus
                exponent >>= window
        return pow(acc, -1, modulus) if invert else acc


def mul2_powmod(b1: int, e1: int, b2: int, e2: int, modulus: int) -> int:
    """``b1**e1 * b2**e2 % modulus`` — Shamir simultaneous exponentiation.

    One shared squaring chain of ``max(bits(e1), bits(e2))`` steps with a
    3-entry product table, instead of two independent square-and-multiply
    passes.
    """
    if modulus <= 1:
        raise CryptoError("modulus must be > 1")
    if e1 < 0 or e2 < 0:
        raise CryptoError("negative exponent")
    b1 %= modulus
    b2 %= modulus
    products = (None, b1, b2, b1 * b2 % modulus)
    acc = 1
    for i in range(max(e1.bit_length(), e2.bit_length()) - 1, -1, -1):
        acc = acc * acc % modulus
        index = ((e1 >> i) & 1) | (((e2 >> i) & 1) << 1)
        if index:
            acc = acc * products[index] % modulus
    return acc


# ------------------------------------------------------------ shared bases
# Tables for the group generators, registered once at crypto-module import.
_SHARED_TABLES: dict[tuple[int, int], FixedBaseTable] = {}


def register_fixed_base(
    base: int,
    modulus: int,
    *,
    window: int = DEFAULT_WINDOW,
    max_bits: int = 2048,
    order: int | None = None,
) -> FixedBaseTable:
    """Register (idempotently) a shared table for a well-known generator;
    ``order`` enables the short-side exponentiation (see FixedBaseTable)."""
    key = (base % modulus, modulus)
    table = _SHARED_TABLES.get(key)
    if table is None:
        table = FixedBaseTable(
            base, modulus, window=window, max_bits=max_bits, order=order
        )
        _SHARED_TABLES[key] = table
    return table


def powmod(base: int, exponent: int, modulus: int) -> int:
    """Drop-in ``pow(base, exponent, modulus)`` that uses a shared table
    when one is registered for ``(base, modulus)``."""
    if exponent < 0 or modulus <= 1:
        return pow(base, exponent, modulus)
    table = _SHARED_TABLES.get((base % modulus, modulus))
    if table is not None:
        return table.pow(exponent)
    return pow(base, exponent, modulus)


# ------------------------------------------ per-public-key tables, products
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


class _LruTableCache(_Lru):
    """Bounded LRU of :class:`FixedBaseTable` keyed by ``(base, modulus)``,
    built for keys that recur.

    :meth:`get` returns ``None`` on a key's first lookup and only records
    the key (in a bounded set, oldest forgotten first); its next lookup
    builds the table.  ``misses`` counts tables built and ``first_uses``
    the lookups answered ``None``.
    """

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._first_seen: OrderedDict = OrderedDict()
        self.first_uses = 0

    def get(
        self, base: int, modulus: int, *, max_bits: int, build: bool = False
    ) -> FixedBaseTable | None:
        """The key's table, or ``None`` on its first lookup (``build=True``
        builds one even then)."""
        key = (base % modulus, modulus)
        table = self._entries.get(key)
        if table is not None and table.max_bits >= max_bits:
            self.hits += 1
            self._entries.move_to_end(key)
            return table
        if table is None and not build and key not in self._first_seen:
            self.first_uses += 1
            self._first_seen[key] = None
            while len(self._first_seen) > FIRST_SEEN_CAPACITY:
                self._first_seen.popitem(last=False)
            return None
        self._first_seen.pop(key, None)
        self.misses += 1
        table = FixedBaseTable(base, modulus, window=SHORT_WINDOW, max_bits=max_bits)
        self.store(key, table)
        return table

    def stats(self) -> dict[str, int]:
        return {**super().stats(), "first_uses": self.first_uses}

    def clear(self) -> None:
        super().clear()
        self._first_seen.clear()
        self.first_uses = 0


_PUBLIC_KEY_TABLES = _LruTableCache(LRU_CAPACITY)
# (g, s, y, e, modulus) -> g**s * y**e % modulus: public values only (a
# generator, a signature and a verification key; see the module docstring).
_PRODUCTS = _Lru(PRODUCT_MEMO_CAPACITY)


def warm_public_key(public: int, modulus: int, *, max_bits: int = 256) -> None:
    """Pre-build the verification table for a key known to recur (e.g. the
    EPID group key, against which every quote is verified)."""
    _PUBLIC_KEY_TABLES.get(public, modulus, max_bits=max_bits, build=True)


def public_key_cache_stats() -> dict[str, int]:
    """Hit/miss/size counters for the per-public-key LRU (tests, tuning):
    ``misses`` counts tables built, ``first_uses`` keys served by ``pow``."""
    return _PUBLIC_KEY_TABLES.stats()


def product_memo_stats() -> dict[str, int]:
    """Hit/miss/size counters for the verification-product memo (tests, tuning)."""
    return _PRODUCTS.stats()


def clear_public_key_cache() -> None:
    """Empty the per-public-key tables, the first-seen keys and the product
    memo, and zero their counters."""
    _PUBLIC_KEY_TABLES.clear()
    _PRODUCTS.clear()


def verify_product(g: int, s: int, y: int, e: int, modulus: int) -> int:
    """``g**s * y**e % modulus`` — the Schnorr verification equation.

    A repeat of all five arguments is served from the product memo.
    Otherwise: the generator's shared table for ``g**s`` times ``y**e``
    from a per-key LRU table (sized to the 256-bit challenge), or from
    built-in ``pow`` on the key's first use; without a shared generator
    table, one Shamir pass.
    """
    key = (g, s, y, e, modulus)
    product = _PRODUCTS.lookup(key)
    if product is None:
        g_table = _SHARED_TABLES.get((g % modulus, modulus))
        if g_table is None:
            product = mul2_powmod(g, s, y, e, modulus)
        else:
            y_table = _PUBLIC_KEY_TABLES.get(y, modulus, max_bits=max(e.bit_length(), 256))
            y_e = pow(y, e, modulus) if y_table is None else y_table.pow(e)
            product = g_table.pow(s) * y_e % modulus
        _PRODUCTS.store(key, product)
    return product
