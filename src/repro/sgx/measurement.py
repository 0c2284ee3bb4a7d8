"""Enclave measurement: the EADD/EEXTEND analogue producing MRENCLAVE.

On real SGX, each page added to an enclave is measured — its content and
page properties are folded into a running SHA-256 — yielding a value that is
*deterministic across machines* for the same enclave build.  That property
is what lets the destination Migration Enclave check that migration data is
only released to "exactly the same enclave" (Section VI-A).

In the simulator an enclave build is a set of :class:`EnclavePage` objects.
For enclaves written as Python classes, :func:`measure_source` derives the
pages from the class source code, so two machines loading the same class get
identical MRENCLAVEs while any code change yields a new identity.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

from repro.crypto.kdf import sha256
from repro.errors import InvalidParameterError

PAGE_SIZE = 4096


@dataclass(frozen=True)
class PageProperties:
    """The measured page attributes (RWX + page type)."""

    read: bool = True
    write: bool = False
    execute: bool = False
    page_type: str = "REG"  # REG | TCS | SECS

    def to_bytes(self) -> bytes:
        flags = (self.read << 0) | (self.write << 1) | (self.execute << 2)
        return bytes([flags]) + self.page_type.encode("ascii").ljust(4, b"\x00")


@dataclass(frozen=True)
class EnclavePage:
    """One 4 KiB page of initial enclave contents."""

    content: bytes
    properties: PageProperties = PageProperties()

    def __post_init__(self) -> None:
        if len(self.content) > PAGE_SIZE:
            raise InvalidParameterError(f"page content exceeds {PAGE_SIZE} bytes")

    def padded(self) -> bytes:
        return self.content + b"\x00" * (PAGE_SIZE - len(self.content))


def measure_pages(pages: list[EnclavePage]) -> bytes:
    """Fold pages into MRENCLAVE: SHA-256 chain of EADD/EEXTEND records."""
    digest = sha256(b"ECREATE")
    for index, page in enumerate(pages):
        eadd = b"EADD" + index.to_bytes(8, "big") + page.properties.to_bytes()
        digest = sha256(digest + eadd)
        padded = page.padded()
        # EEXTEND measures the page in 256-byte chunks.
        for offset in range(0, PAGE_SIZE, 256):
            record = b"EEXTEND" + offset.to_bytes(8, "big") + padded[offset : offset + 256]
            digest = sha256(digest + record)
    return digest


def pages_from_blob(blob: bytes, properties: PageProperties | None = None) -> list[EnclavePage]:
    """Split an arbitrary byte blob into measured pages."""
    props = properties or PageProperties(read=True, execute=True)
    pages = []
    for offset in range(0, max(len(blob), 1), PAGE_SIZE):
        pages.append(EnclavePage(content=blob[offset : offset + PAGE_SIZE], properties=props))
    return pages


# Class sources cannot change within one interpreter run, so measuring the
# same (class, config) twice always yields the same MRENCLAVE; without the
# memo every enclave launch re-tokenizes the class source via inspect, which
# dominates relaunch-heavy paths like migration benchmarks.
_MEASUREMENT_MEMO: dict[tuple[type, bytes], bytes] = {}


def measure_source(enclave_class: type, config: bytes = b"") -> bytes:
    """MRENCLAVE of an enclave written as a Python class.

    The measured blob is the class source plus the sources of any classes it
    lists in ``MEASURED_LIBRARIES`` (e.g. the Migration Library — the paper's
    library is linked *into* the enclave and therefore part of its identity),
    plus an optional build ``config``.
    """
    memo_key = (enclave_class, config)
    measurement = _MEASUREMENT_MEMO.get(memo_key)
    if measurement is None:
        sources = [_class_blob(enclave_class)]
        for library in getattr(enclave_class, "MEASURED_LIBRARIES", ()):
            sources.append(_class_blob(library))
        blob = b"\n".join(sources) + b"\x00" + config
        measurement = measure_pages(pages_from_blob(blob))
        _MEASUREMENT_MEMO[memo_key] = measurement
    return measurement


def _class_blob(cls: type) -> bytes:
    """Deterministic byte representation of a class's code.

    Prefers the source text; classes created without a source file (e.g. in
    a REPL) fall back to their methods' bytecode, which is equally
    deterministic within one interpreter version.
    """
    try:
        return inspect.getsource(cls).encode("utf-8")
    except (OSError, TypeError):
        parts = [cls.__qualname__.encode("utf-8")]
        for name in sorted(vars(cls)):
            member = inspect.unwrap(vars(cls)[name])
            code = getattr(member, "__code__", None)
            if code is not None:
                parts.append(name.encode("utf-8"))
                parts.append(code.co_code)
                parts.append(repr(code.co_consts).encode("utf-8"))
        return b"|".join(parts)
