"""HTTP/1.1 header blocks, read as ``http.client`` reads them.

One reader serves both ends of the service: the server parses request
heads with it, and :class:`~repro.service.client.ServiceClient` parses
response heads with it.  It keeps ``http.client``'s limits and field
values but skips its ``email.parser`` pass.
"""

from __future__ import annotations

import re
from http.client import HTTPException, LineTooLong

__all__ = ["MAX_LINE", "Headers", "read_headers"]

#: ``http.client``'s bounds on a header block: bytes per line (a status,
#: chunk-size or trailer line too), and lines (the blank line that ends
#: the block counts as one).
MAX_LINE = 65536
_MAX_HEADERS = 100

#: A field name as ``email.parser`` accepts it: visible ASCII but ``:``.
_FIELD_NAME = re.compile(r"[!-9;-~]+")


class Headers(dict):
    """A message's header fields by lower-cased name, first value of each.

    ``get``, ``in`` and ``[]`` take a name in any case.
    """

    def __getitem__(self, name: str) -> str:
        return super().__getitem__(name.lower())

    def __contains__(self, name) -> bool:
        return super().__contains__(name.lower())

    def get(self, name: str, default=None):
        return super().get(name.lower(), default)


def read_headers(rfile) -> Headers:
    """Read a header block from ``rfile`` through its blank line.

    Reads as ``http.client.parse_headers`` does: a line longer than
    65,536 bytes raises ``LineTooLong``, more than 100 lines raise
    ``HTTPException``.  Each field's first value is kept, as
    ``email.parser`` would give it: leading blanks stripped, an obs-fold
    line joined on with one space.  A line that is not a field ends the
    fields, as it ends ``email.parser``'s headers; a field with no name is
    skipped.
    """
    lines = []
    while True:
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise LineTooLong("header line")
        lines.append(line)
        if len(lines) > _MAX_HEADERS:
            raise HTTPException(f"got more than {_MAX_HEADERS} headers")
        if line in (b"\r\n", b"\n", b""):
            break
    values: dict[str, str] = {}
    name = None  # the field an obs-fold line continues, if its value is kept
    for raw in lines:
        line = str(raw, "iso-8859-1").rstrip("\r\n")
        if not line:
            break
        if line[0] in " \t":
            if name is not None:
                values[name] += " " + line.lstrip(" \t")
            continue
        key, colon, value = line.partition(":")
        if not colon:
            break
        if not key:
            name = None
            continue
        if not _FIELD_NAME.fullmatch(key):
            break
        name = key.lower()
        if name in values:
            name = None
        else:
            values[name] = value.lstrip(" \t")
    return Headers(values)
