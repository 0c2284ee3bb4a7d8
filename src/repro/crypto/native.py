"""OpenSSL ``libcrypto`` through :mod:`ctypes`: the one loader.

:mod:`repro.crypto.gcm` (AES-GCM), :mod:`repro.crypto.cmac` (AES-CBC for
CMAC) and :mod:`repro.crypto.modexp` (Montgomery exponentiation) call the
libcrypto this interpreter's ``hashlib`` already links, so there is no
dependency, flag or environment variable.  :func:`libcrypto` loads it once,
at first use, with every function in :data:`SIGNATURES` declared, or
returns ``None``; each caller then runs its from-scratch reference instead.

The library is looked up through the ``_hashlib`` extension's own handle,
which resolves the libcrypto it links without starting a process.
``ctypes.util.find_library`` (which on Linux spawns ``ldconfig``) is only
asked when that fails: a ``_hashlib`` built in, linked statically or absent.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import functools

from repro.errors import CryptoError

_PTR = ctypes.c_void_p  # BIGNUM *, BN_CTX *, EVP_CIPHER_CTX *, ...: opaque
_INT = ctypes.c_int
_BUF = ctypes.c_char_p
_EXP = (_INT, [_PTR] * 6)  # (r, a, p, m, ctx, mont)

#: ``name -> (restype, argtypes)`` of every libcrypto function called.
SIGNATURES = {
    "BN_CTX_new": (_PTR, []),
    "BN_CTX_free": (None, [_PTR]),
    "BN_new": (_PTR, []),
    "BN_bin2bn": (_PTR, [_BUF, _INT, _PTR]),
    "BN_bn2binpad": (_INT, [_PTR, _BUF, _INT]),
    "BN_clear_free": (None, [_PTR]),
    "BN_MONT_CTX_new": (_PTR, []),
    "BN_MONT_CTX_set": (_INT, [_PTR, _PTR, _PTR]),
    "BN_MONT_CTX_free": (None, [_PTR]),
    "BN_mod_exp_mont": _EXP,
    "BN_mod_exp_mont_consttime": _EXP,
    "EVP_CIPHER_CTX_new": (_PTR, []),
    "EVP_CIPHER_CTX_free": (None, [_PTR]),
    "EVP_CIPHER_CTX_ctrl": (_INT, [_PTR, _INT, _INT, _BUF]),
    "EVP_CIPHER_CTX_set_padding": (_INT, [_PTR, _INT]),
    "EVP_CipherInit_ex": (_INT, [_PTR, _PTR, _PTR, _BUF, _BUF, _INT]),
    "EVP_CipherUpdate": (_INT, [_PTR, _BUF, ctypes.POINTER(_INT), _BUF, _INT]),
    "EVP_CipherFinal_ex": (_INT, [_PTR, _BUF, ctypes.POINTER(_INT)]),
    "ERR_clear_error": (None, []),
    "ERR_get_error": (ctypes.c_ulong, []),
    **{
        f"EVP_aes_{bits}_{mode}": (_PTR, [])
        for bits in (128, 192, 256)
        for mode in ("gcm", "cbc")
    },
}


def _candidates():
    """Library paths to try, in order; a generator, so ``find_library``
    runs only when the ``_hashlib`` handle does not serve."""
    try:
        import _hashlib
    except ImportError:
        pass
    else:
        path = getattr(_hashlib, "__file__", None)
        if path is not None:
            yield path
    name = ctypes.util.find_library("crypto")
    if name is not None:
        yield name


@functools.cache
def libcrypto():
    """libcrypto with every function in :data:`SIGNATURES` declared, or
    ``None`` when no candidate loads with all of them."""
    for path in _candidates():
        try:
            lib = ctypes.CDLL(path)
            for symbol, (restype, argtypes) in SIGNATURES.items():
                function = getattr(lib, symbol)
                function.restype = restype
                function.argtypes = argtypes
        except (OSError, AttributeError):
            continue
        return lib
    return None


def aes_cipher(lib, key: bytes, mode: str):
    """The ``EVP_CIPHER *`` of AES in ``mode`` (``"gcm"`` or ``"cbc"``) for
    ``key``'s length, which :func:`repro.crypto.aes.check_key` has checked."""
    return getattr(lib, f"EVP_aes_{8 * len(key)}_{mode}")()


def cipher_context(lib):
    """A new ``EVP_CIPHER_CTX``; the caller frees it in ``finally``."""
    ctx = lib.EVP_CIPHER_CTX_new()
    if not ctx:
        raise CryptoError("libcrypto could not allocate a cipher context")
    return ctx
