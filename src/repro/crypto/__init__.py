"""Cryptographic primitives used by the simulated SGX platform.

Block cipher (AES), AEAD (AES-GCM), MAC (AES-CMAC), KDFs (SP 800-108 CMAC
counter mode, HKDF-SHA256), finite-field Diffie-Hellman, Schnorr signatures,
and a simulated EPID group-signature scheme.  AES-GCM, AES-CMAC and modular
exponentiation run on the OpenSSL libcrypto that ``hashlib`` links
(:mod:`repro.crypto.native`); each keeps a from-scratch reference, which
tests compare against and which runs where libcrypto does not.
"""

from repro.crypto.aes import AES
from repro.crypto.cmac import AesCmac, aes_cmac
from repro.crypto.dh import DiffieHellman
from repro.crypto.epid import EpidGroup, EpidMemberKey, EpidSignature
from repro.crypto.gcm import AesGcm
from repro.crypto.kdf import HkdfSha256, derive_key_cmac, sha256

__all__ = [
    "AES",
    "AesCmac",
    "aes_cmac",
    "DiffieHellman",
    "EpidGroup",
    "EpidMemberKey",
    "EpidSignature",
    "AesGcm",
    "HkdfSha256",
    "derive_key_cmac",
    "sha256",
]
