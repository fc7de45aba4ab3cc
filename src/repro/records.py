"""The one CRC-checked record format every persisted line uses.

A record is a payload's exact bytes behind the CRC-32 of those bytes, as
8 lower-case hex digits, and one space: ``b"%08x " % crc32(payload) +
payload``.  :class:`repro.service.diskcache.DiskCache` segments and
:class:`repro.obs.TraceLog` files hold one record a line, so a payload
holds no newline.  CRC-32 guards against accidental damage to a file (a
torn write, bit rot on disk); it is not a cryptographic seal.

This module imports nothing from the package, so ``repro.obs`` and
``repro.service`` can both use it.
"""

from __future__ import annotations

import zlib

__all__ = ["decode", "encode"]


def encode(payload: bytes) -> bytes:
    """The record line (no newline) for ``payload``."""
    return b"%08x " % zlib.crc32(payload) + payload


def decode(line: bytes) -> bytes | None:
    """The payload of one record line, or ``None`` if it cannot be trusted.

    The header must be exactly the bytes :func:`encode` writes, so a
    header digit flipped to upper case is damage too.
    """
    payload = line[9:]
    if line[8:9] == b" " and line[:8] == b"%08x" % zlib.crc32(payload):
        return payload
    return None
