"""The traced run: replay a request stream in-process, layer by layer.

No program code changes.  While a :class:`LayerTimes` is installed it
wraps, for one engine, the public calls each layer is made of —
``LabelingRequest.from_payload``, corpus materialization
(``load_domain``), ``corpus_fingerprint``, the result cache's
``get``/``put``, the engine's ``deepcopy``, the disk tier's ``put`` — and
``label_corpus``, inside which it opens a :meth:`repro.obs.Trace.scope` to
read the phase spans the pipeline already emits.  The replay itself times
``json.dumps`` of each response, as the server serializes it.

Each request runs on a fresh thread, as ``ThreadingHTTPServer`` runs each
connection, so per-thread engine state behaves as it does behind HTTP.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import threading
import time
import types
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

from serveproc import TMP_PREFIX
from workloads import NON_JOB

#: Pool size of the ``batch_process`` server (``--jobs 2``) and of the probe.
JOBS = 2

#: Batches of a batch workload the executor probe re-runs.
PROBE_BATCHES = 3

#: Span names under ``label_corpus`` that become ``<name>_ms`` metrics
#: (``:`` is not allowed in a metric name, so ``phase:x`` reports as ``phase.x``).
PIPELINE_SPANS = (
    "merge",
    "phase:partitions",
    "phase:group_relations",
    "phase:combine_closure",
    "isolated_clusters",
    "phase:internal_inference",
    "phase:conflict_repair",
)


def span_metric(name: str) -> str:
    return name.replace(":", ".") + "_ms"


class LayerTimes:
    """Busy time per layer: every timed call's duration, by metric name."""

    def __init__(self) -> None:
        self.calls: dict[str, list[float]] = defaultdict(list)
        self._lock = threading.Lock()

    def add(self, name: str, ms: float) -> None:
        with self._lock:
            self.calls[name].append(ms)

    def mean_ms(self, name: str) -> float:
        values = self.calls.get(name) or []
        return sum(values) / len(values) if values else 0.0

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(name, (time.perf_counter() - start) * 1000.0)

        return wrapper

    def _traced_label_corpus(self, real):
        from repro.obs import Trace

        def label_corpus(*args, **kwargs):
            trace = Trace(name="label_corpus")
            start = time.perf_counter()
            with trace.scope():
                out = real(*args, **kwargs)
            self.add("pipeline_ms", (time.perf_counter() - start) * 1000.0)
            busy: dict[str, float] = dict.fromkeys(PIPELINE_SPANS, 0.0)
            for sp in trace.root.iter_spans():
                if sp.name in busy:
                    busy[sp.name] += (sp.end_s - sp.start_s) * 1000.0
            for name, ms in busy.items():
                self.add(span_metric(name), ms)
            return out

        return label_corpus

    @contextmanager
    def installed(self, engine):
        """Wrap the layer calls ``engine`` makes; restore everything on exit."""
        import repro.datasets.registry as registry
        import repro.service.engine as engine_mod

        request_cls = engine_mod.LabelingRequest
        patches = [
            (request_cls, "from_payload", classmethod(
                self.timed("parse.from_payload_ms", request_cls.from_payload.__func__))),
            (registry, "load_domain", self.timed("parse.load_domain_ms", registry.load_domain)),
            (engine_mod, "corpus_fingerprint",
             self.timed("fingerprint_ms", engine_mod.corpus_fingerprint)),
            (engine_mod, "label_corpus", self._traced_label_corpus(engine_mod.label_corpus)),
            (engine_mod, "copy", types.SimpleNamespace(
                deepcopy=self.timed("cache.copy_ms", engine_mod.copy.deepcopy))),
            (engine.cache, "get", self.timed("cache.lookup_ms", engine.cache.get)),
            (engine.cache, "put", self.timed("cache.put_ms", engine.cache.put)),
        ]
        if engine.disk is not None:
            patches.append((engine.disk, "put", self.timed("disk.put_ms", engine.disk.put)))
        saved = [(obj, attr, obj.__dict__.get(attr)) for obj, attr, _ in patches]
        try:
            for obj, attr, value in patches:
                setattr(obj, attr, value)
            yield self
        finally:
            for obj, attr, value in saved:
                if value is None:  # an instance attribute shadowing a method
                    delattr(obj, attr)
                else:
                    setattr(obj, attr, value)


def _on_fresh_thread(fn):
    box: dict = {}

    def body():
        try:
            box["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box["error"] = exc

    thread = threading.Thread(target=body)
    thread.start()
    thread.join()
    if "error" in box:
        raise box["error"]
    return box["value"]


def _serve_one(engine, workload, item, dumps=json.dumps) -> bytes:
    """What the server does for one POST: engine call, then serialize."""
    if workload.endpoint == "/batch":
        call = lambda: {"results": engine.label_batch(item["requests"])}  # noqa: E731
    else:
        call = lambda: engine.label(item)  # noqa: E731
    return dumps(_on_fresh_thread(call)).encode()


def replay(root: Path, workload, prime, items, times: LayerTimes | None = None,
           budget_s: float | None = None) -> tuple[float, int]:
    """Prime a fresh engine configured like the workload's server, then
    serve ``items`` (stopping early once ``budget_s`` is spent).

    Returns the seconds spent serving and how many items were served.
    """
    from repro.service.engine import LabelingEngine

    tmp = Path(tempfile.mkdtemp(prefix=TMP_PREFIX, dir=root))
    executor = "process" if "process" in workload.serve_args else "thread"
    engine = LabelingEngine(
        cache_size=128, jobs=JOBS, executor=executor, disk_cache=tmp / "disk"
    )
    dumps = json.dumps if times is None else times.timed("serialize_ms", json.dumps)
    try:
        with times.installed(engine) if times is not None else nullcontext():
            for item in prime:
                _serve_one(engine, workload, item, dumps)
            served = 0
            start = time.perf_counter()
            for item in items:
                _serve_one(engine, workload, item, dumps)
                served += 1
                if budget_s is not None and time.perf_counter() - start >= budget_s:
                    break
            return time.perf_counter() - start, served
    finally:
        engine.close()
        shutil.rmtree(tmp, ignore_errors=True)


@dataclass
class Probe:
    batch_wall_ms: float  # mean over the batches
    efficiency: float  # inline item time / (JOBS x batch wall), summed
    times: LayerTimes  # layer times of the inline run
    semantics: dict  # comparator statistics of the inline run


def executor_probe(batches: list[list[dict]]) -> Probe:
    """Each batch through a process executor, and inline under layer timers."""
    from repro.service.engine import LabelingEngine

    inline = LabelingEngine(cache_size=0)
    pooled = LabelingEngine(cache_size=0, executor="process", jobs=JOBS)
    times = LayerTimes()
    inline_ms = wall_ms = 0.0
    with times.installed(inline):
        for batch in batches:
            start = time.perf_counter()
            for payload in batch:
                inline.label(payload)
            inline_ms += (time.perf_counter() - start) * 1000.0
    for batch in batches:
        start = time.perf_counter()
        results = pooled.label_batch(batch)
        wall_ms += (time.perf_counter() - start) * 1000.0
        if not all(r.get("ok") for r in results):
            raise RuntimeError("executor probe batch failed")
    return Probe(wall_ms / len(batches), inline_ms / (JOBS * wall_ms), times,
                 inline.stats()["semantics"])


def probe_batches(workload, prime, items) -> list[list[dict]]:
    """What the executor probe ships: the first batches of a batch workload,
    else one batch of the primed corpus of each non-Job domain."""
    if workload.endpoint == "/batch":
        return [item["requests"] for item in items[:PROBE_BATCHES]] or [prime[0]["requests"]]
    first = {}
    for corpus in prime:
        first.setdefault(corpus["domain"], corpus)
    return [[first[d] for d in NON_JOB]]
