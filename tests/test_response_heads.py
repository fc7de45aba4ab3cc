"""Response heads the server writes: status line and header names in order.

Raw sockets, so the head is seen exactly as it leaves the server.  The
``Date`` value is an IMF-fixdate in English whatever the process locale.
"""

from __future__ import annotations

import contextlib
import email.utils
import locale
import re
import socket

import pytest

from repro.service.server import LabelingServer

_BASE = ["Server", "Date", "Content-Type", "Content-Length"]

#: RFC 9110's preferred HTTP-date form, English day and month names.
_IMF_FIXDATE = re.compile(
    r"(Mon|Tue|Wed|Thu|Fri|Sat|Sun), \d\d "
    r"(Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec) \d{4} "
    r"\d\d:\d\d:\d\d GMT"
)


def _post(path: bytes, body: bytes, length: int | None = None) -> bytes:
    length = len(body) if length is None else length
    return (
        b"POST " + path + b" HTTP/1.1\r\nHost: test\r\n"
        b"Content-Length: " + str(length).encode() + b"\r\n\r\n" + body
    )


def _head(server: LabelingServer, request: bytes) -> tuple[str, list[tuple[str, str]]]:
    """The status line and the (name, value) header lines of the first
    response to ``request``, sent on a fresh connection."""
    with socket.create_connection((server.host, server.port), timeout=10) as sock:
        sock.sendall(request)
        raw = b""
        while b"\r\n\r\n" not in raw:
            data = sock.recv(65536)
            if not data:
                break
            raw += data
    lines = raw.partition(b"\r\n\r\n")[0].decode("latin-1").split("\r\n")
    fields = [tuple(part.strip() for part in line.split(":", 1)) for line in lines[1:]]
    return lines[0], fields


@pytest.fixture(scope="module")
def server():
    with LabelingServer(port=0, cache_size=4, max_concurrent=1, max_queue=0) as running:
        yield running


_CASES = {
    "200-label": (
        _post(b"/label", b'{"domain": "airline", "seed": 0}'),
        "HTTP/1.1 200 OK", [*_BASE, "X-Request-Id"],
    ),
    "400-bad-json": (
        _post(b"/label", b"{not json"),
        "HTTP/1.1 400 Bad Request", [*_BASE, "X-Request-Id"],
    ),
    "404-get": (
        b"GET /nowhere HTTP/1.1\r\nHost: test\r\n\r\n",
        "HTTP/1.1 404 Not Found", _BASE,
    ),
    "413": (
        _post(b"/label", b"", length=64 * 1024 * 1024),
        "HTTP/1.1 413 Request Entity Too Large",
        [*_BASE, "X-Request-Id", "Connection"],
    ),
    "414": (
        b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
        "HTTP/1.1 414 Request-URI Too Long",
        [*_BASE, "X-Request-Id", "Connection"],
    ),
    "431": (
        b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n",
        "HTTP/1.1 431 Request Header Fields Too Large",
        [*_BASE, "X-Request-Id", "Connection"],
    ),
    "501-head": (
        b"HEAD /healthz HTTP/1.1\r\nHost: test\r\n\r\n",
        "HTTP/1.1 501 Not Implemented", [*_BASE, "X-Request-Id", "Connection"],
    ),
    "505": (
        b"GET / HTTP/2.0\r\n\r\n",
        "HTTP/1.1 505 HTTP Version Not Supported",
        [*_BASE, "X-Request-Id", "Connection"],
    ),
}


@pytest.mark.parametrize("case", list(_CASES))
def test_status_line_and_header_order(server, case):
    request, status_line, names = _CASES[case]
    got_line, fields = _head(server, request)
    assert got_line == status_line
    assert [name for name, _ in fields] == names
    values = dict(fields)
    assert values["Content-Type"] == "application/json"
    assert int(values["Content-Length"]) > 0
    if "Connection" in values:
        assert values["Connection"] == "close"


def test_shed_names_retry_after_before_the_request_id(server):
    admission = server._httpd.admission
    assert admission.acquire()  # the one slot is taken, and nothing may queue
    try:
        status_line, fields = _head(server, _post(b"/label", b'{"domain": "airline"}'))
    finally:
        admission.release()
    assert status_line == "HTTP/1.1 429 Too Many Requests"
    assert [name for name, _ in fields] == [*_BASE, "Retry-After", "X-Request-Id"]
    assert float(dict(fields)["Retry-After"]) > 0


def _assert_english_imf_fixdate(value: str) -> None:
    assert _IMF_FIXDATE.fullmatch(value), value
    assert email.utils.parsedate_to_datetime(value).tzname() == "UTC"


def test_date_is_an_imf_fixdate(server):
    _, fields = _head(server, b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
    _assert_english_imf_fixdate(dict(fields)["Date"])


_NON_ENGLISH = ["de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8",
                "es_ES.UTF-8", "ja_JP.UTF-8", "ru_RU.UTF-8"]


def test_date_stays_english_under_a_non_english_time_locale(server):
    saved = locale.setlocale(locale.LC_TIME)
    for name in _NON_ENGLISH:
        with contextlib.suppress(locale.Error):
            locale.setlocale(locale.LC_TIME, name)
            break
    else:
        pytest.skip("no non-English LC_TIME locale is installed on this host")
    try:
        _, fields = _head(server, b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
    finally:
        locale.setlocale(locale.LC_TIME, saved)
    _assert_english_imf_fixdate(dict(fields)["Date"])
