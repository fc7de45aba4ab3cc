"""Machine-speed calibration: a fixed stdlib loop, timed between load slices.

The benchmark's host is shared.  The speed of a fixed CPU loop on it moves
by 15% from one second to the next and by up to 40% between minutes, and
a workload that runs on one CPU moves with it.  :func:`speed` runs a fixed
round of the operations the service's hit path is made of (``deepcopy`` of
nested dicts and lists, ``json.dumps``/``loads``, sha256) for a short,
fixed time and returns rounds per second.  Nothing of ``src/`` runs here,
so a change to the program cannot change the calibration.

A time ``t`` measured while the machine ran the calibration at ``s``
rounds/s is reported as ``t * s / REFERENCE_SPEED``: what it would have
taken on a machine that runs the calibration at the reference speed.
"""

from __future__ import annotations

import copy
import hashlib
import json
import time

#: Calibration rounds per second the scaled figures refer to (about the
#: median of this loop on a 2-vCPU x86-64 KVM guest of a shared host).
REFERENCE_SPEED = 3000.0

#: Seconds one calibration runs.
CALIBRATION_S = 0.2

_PAYLOAD = {
    f"field{i}": {
        "labels": [f"label {i} {j}" for j in range(6)],
        "weight": i / 7.0,
        "children": [{"name": f"n{i}.{k}", "leaf": k % 2 == 0} for k in range(3)],
    }
    for i in range(12)
}


def _round() -> None:
    text = json.dumps(copy.deepcopy(_PAYLOAD), sort_keys=True)
    hashlib.sha256(text.encode()).hexdigest()
    json.loads(text)


def speed(seconds: float = CALIBRATION_S) -> float:
    """Calibration rounds per second, measured for ``seconds``."""
    rounds = 0
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        for _ in range(8):
            _round()
        rounds += 8
        now = time.perf_counter()
        if now >= deadline:
            return rounds / (now - start)
