"""The one CRC-checked JSON record format every persisted value uses.

A record is one line of canonical JSON (sorted keys, no spaces,
``default=str``)::

    {"crc": <CRC-32 of the canonical JSON of v>, "v": <value>}

:class:`repro.service.diskcache.DiskCache` segments and
:class:`repro.obs.TraceLog` files are made of these lines.  CRC-32 guards
against accidental and injected damage (bit rot, torn writes, a chaos
fault); it is not a cryptographic seal.

A disk-cache record carries an entry as its JSON text, a string, so the
key sorting here never reaches it: the bytes the in-memory
:class:`repro.service.cache.ResultCache` keeps (insertion order, CRC-32
over exactly those bytes) come back from disk unchanged.

This module imports nothing from the package, so ``repro.obs`` and
``repro.service`` can both use it.
"""

from __future__ import annotations

import json
import zlib

__all__ = ["decode", "encode"]


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)


def encode(value) -> str:
    """The record line (no newline) for ``value``: ``{"crc":C,"v":value}``."""
    body = _canonical(value)
    # Byte-identical to _canonical({"crc": ..., "v": value}): "crc" sorts
    # first, and a nested value serializes as it does on its own.
    return f'{{"crc":{zlib.crc32(body.encode("utf-8"))},"v":{body}}}'


def decode(line: bytes | str):
    """The value of one record line, or ``None`` if it cannot be trusted.

    A line is trusted only if it is exactly :func:`encode` of the value it
    parses to.  That covers the CRC check, and it also rejects damage that
    leaves the parsed value unchanged (say, the case of a ``\\u`` escape's
    hex digit).  Bad UTF-8, bad or too deeply nested JSON and a non-object
    all give ``None``; nothing raises.
    """
    try:
        text = line.decode("utf-8") if isinstance(line, bytes) else line
        record = json.loads(text)
        if isinstance(record, dict) and "v" in record:
            value = record["v"]
            if encode(value) == text:
                return value
    except (ValueError, RecursionError):  # UnicodeDecodeError is a ValueError
        pass
    return None
