"""Closed-loop load generator: N client threads, one request in flight each.

Every client owns a :class:`repro.service.client.ServiceClient` (no
retries: a shed or failed request counts as failed) and pulls the next
item of the shared, deterministic stream only after its previous request
returned.  Per request it keeps the latency and, per corpus answered, the
``cached`` flag and the labels digest the checks need afterwards.

The window is cut into load slices of :data:`SLICE_S` seconds.  Between
two slices the clients take no new item, the requests in flight finish,
and the machine's speed is measured (:func:`calibrate.speed`) while the
server is idle.  Each slice keeps its busy time and the mean of the two
speeds around it, so its times can be scaled to the reference speed.
"""

from __future__ import annotations

import json
import threading
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import calibrate
from workloads import labels_digest

#: Seconds the clients send requests between two calibrations.
SLICE_S = 1.2


@dataclass
class Sample:
    index: int  # position in the stream
    item: dict
    latency_ms: float
    answers: list[tuple[bool, bool, str]]  # (ok, cached, labels digest) per corpus
    error: str | None = None
    response_bytes: int = 0
    slice_no: int = 0


@dataclass
class Slice:
    busy_s: float  # from releasing the clients until the last request returned
    speed: float  # calibration rounds/s, mean of the measurements before and after


@dataclass
class LoadResult:
    samples: list[Sample] = field(default_factory=list)
    slices: list[Slice] = field(default_factory=list)
    cpu_s: float = 0.0  # load generator CPU during the slices
    probed: float | None = None  # ``probe()`` after ``probe_after`` requests

    @property
    def wall_s(self) -> float:
        """Seconds the clients were busy, calibrations left out."""
        return sum(s.busy_s for s in self.slices)

    def scale(self, slice_no: int) -> float:
        """Factor that takes a time measured in slice ``slice_no`` to the
        reference speed."""
        return self.slices[slice_no].speed / calibrate.REFERENCE_SPEED

    @property
    def scaled_wall_s(self) -> float:
        return sum(s.busy_s * self.scale(n) for n, s in enumerate(self.slices))


def run(
    url: str,
    endpoint: str,
    items: Iterator[dict],
    clients: int,
    seconds: float,
    probe_after: int,
    probe: Callable[[], float],
    measure_bytes: bool = False,
) -> LoadResult:
    """Drive ``items`` at ``url`` for ``seconds``; every started request completes.

    ``probe`` is called once, by the client that completes request number
    ``probe_after``; its value lands in :attr:`LoadResult.probed`.
    """
    from repro.service.client import ServiceClient, ServiceError

    cond = threading.Condition()
    counter = iter(enumerate(items))
    completed = in_flight = slice_no = 0
    go = done = False
    result = LoadResult()
    failures: list[BaseException] = []

    def client_loop() -> None:
        nonlocal completed, in_flight
        client = ServiceClient(url, timeout=120.0, retries=0)
        local: list[Sample] = []
        try:
            while True:
                with cond:
                    while not (go or done):
                        cond.wait()
                    if done:
                        return
                    in_flight += 1
                    current = slice_no
                try:
                    with cond:
                        index, item = next(counter)
                    start = time.perf_counter()
                    try:
                        body = client.request("POST", endpoint, item)
                    except ServiceError as exc:
                        elapsed = (time.perf_counter() - start) * 1000.0
                        local.append(Sample(index, item, elapsed, [], error=str(exc),
                                            slice_no=current))
                        continue
                    elapsed = (time.perf_counter() - start) * 1000.0
                    results = body.get("results", [body]) if endpoint == "/batch" else [body]
                    answers = [
                        (bool(r.get("ok")), bool(r.get("cached")), labels_digest(r))
                        for r in results
                    ]
                    size = len(json.dumps(body).encode()) if measure_bytes else 0
                    local.append(Sample(index, item, elapsed, answers,
                                        response_bytes=size, slice_no=current))
                    with cond:
                        completed += 1
                        if completed == probe_after:
                            result.probed = probe()
                finally:
                    with cond:
                        in_flight -= 1
                        cond.notify_all()
        except BaseException as exc:  # noqa: BLE001 - surfaced by the caller
            failures.append(exc)
        finally:
            with cond:
                result.samples.extend(local)
                cond.notify_all()

    threads = [
        threading.Thread(target=client_loop, name=f"client-{n}", daemon=True)
        for n in range(clients)
    ]
    for thread in threads:
        thread.start()
    deadline = time.perf_counter() + seconds
    speeds = [calibrate.speed()]
    try:
        while not failures and (
            not result.slices
            or time.perf_counter() + SLICE_S + calibrate.CALIBRATION_S <= deadline
        ):
            cpu0 = time.process_time()
            start = time.perf_counter()
            with cond:
                slice_no = len(result.slices)
                go = True
                cond.notify_all()
            time.sleep(SLICE_S)
            with cond:
                go = False
                while in_flight:
                    cond.wait()
            busy = time.perf_counter() - start
            result.cpu_s += time.process_time() - cpu0
            speeds.append(calibrate.speed())
            result.slices.append(Slice(busy, (speeds[-2] + speeds[-1]) / 2.0))
    finally:
        with cond:
            go, done = False, True
            cond.notify_all()
        for thread in threads:
            thread.join()
    if failures:
        raise failures[0]
    result.samples.sort(key=lambda s: s.index)
    return result
