"""A serving process loads no HTTP stack but its own.

The server reads and writes HTTP/1.1 itself, and ``repro.service``
imports its submodules on first use, so ``repro serve`` never loads
``http.server``, ``http.client``, ``ssl`` or ``email``; nor does it load
``repro.testing``, so test-only code stays off the serving path.  Checked
in a fresh interpreter, since this test process has loaded them already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

#: Modules a serving process must not load: the stdlib HTTP stack, and
#: the test-only oracles package (loaded only by ``verify="strict"``).
_STACKS = [
    "ssl", "http.client", "http.server", "email.parser", "email.utils",
    "repro.testing",
]

_SERVE = """
import json, socket, sys
import repro.cli
from repro.service.server import LabelingServer

def exchange(server, request):
    with socket.create_connection((server.host, server.port), timeout=30) as sock:
        sock.sendall(request)
        raw = b""
        while True:
            data = sock.recv(65536)
            if not data:
                return raw
            raw += data

def post(path, body):
    return (b"POST " + path + b" HTTP/1.1\\r\\nConnection: close\\r\\n"
            b"Content-Length: %d\\r\\n\\r\\n" % len(body) + body)

server = LabelingServer(port=0).start()
try:
    statuses = [
        exchange(server, request).split(b" ", 2)[1].decode()
        for request in (
            b"GET /healthz HTTP/1.1\\r\\nConnection: close\\r\\n\\r\\n",
            post(b"/label", b'{"domain": "hotels"}'),
            post(b"/batch", b'{"requests": [{"domain": "airline"}]}'),
            b"GET /metrics HTTP/1.1\\r\\nConnection: close\\r\\n\\r\\n",
        )
    ]
finally:
    server.stop()
print(json.dumps({
    "statuses": statuses,
    "loaded": [name for name in sys.argv[1:] if name in sys.modules],
}))
"""


def test_serving_loads_no_stdlib_http_stack():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", _SERVE, *_STACKS],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["statuses"] == ["200"] * 4
    assert report["loaded"] == []
