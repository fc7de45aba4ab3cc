"""End-to-end HTTP benchmark of the labeling service.

    python3 httpbench/run.py --workload all --seconds 10       # every workload
    python3 httpbench/run.py --workload hit_heavy --seed 3 --seconds 10 --trace 0
    python3 httpbench/run.py --workload miss_mix --trace 1      # per-layer numbers
    python3 httpbench/run.py --self-test                        # harness check

Each run starts ``repro serve`` (from ``src/`` of this checkout) as a child
process, primes it, drives one workload's seeded request stream from
closed-loop client threads for ``--seconds``, checks every answer, stops
the server and verifies that no process or temp directory outlived it.
The benchmark and the server run pinned to one CPU; the window is cut into
load slices between machine-speed calibrations, and every time is reported
scaled to a reference speed (``calibrate.py``).
``--trace 1`` adds the in-process, layer-by-layer replay (``layers.py``).
The last line of stdout is the JSON result; see ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

sys.dont_write_bytecode = True  # leave the checkout as it was found

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import calibrate  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402
import serveproc  # noqa: E402
from workloads import WORKLOADS, corpora, labels_digest, priming, stream, stream_digest  # noqa: E402

#: End-to-end metrics (``--trace 0``), name -> unit.  The table also prints
#: ``error_rate``, ``latency_p90_ms`` and ``latency_p99_ms`` (see README.md).
END_TO_END = {
    "corpora_per_s": "1/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "server_rss_mb": "MiB",
}

#: Per-layer metrics (``--trace 1``), name -> unit.
PER_LAYER = {
    "http.transport_ms": "ms",
    "http.response_bytes": "bytes",
    "admission.shed": "count",
    "parse.from_payload_ms": "ms",
    "parse.load_domain_ms": "ms",
    "fingerprint_ms": "ms",
    "cache.lookup_ms": "ms",
    "cache.copy_ms": "ms",
    "cache.hit_ratio": "ratio",
    "cache.put_ms": "ms",
    "disk.put_ms": "ms",
    "cache.evictions": "count",
    "serialize_ms": "ms",
    "pipeline_ms": "ms",
    **{layers.span_metric(name): "ms" for name in layers.PIPELINE_SPANS},
    "semantics.comparators_per_miss": "ratio",
    "semantics.relations.hit_rate": "ratio",
    "semantics.labels.hit_rate": "ratio",
    "executor.batch_wall_ms": "ms",
    "executor.efficiency": "ratio",
    "engine.computations": "count",
    "engine.errors": "count",
    "loadgen.cpu_share": "ratio",
    "trace.overhead_pct": "%",
}

PIPELINE_METRICS = {layers.span_metric(name) for name in layers.PIPELINE_SPANS}

#: Percentiles only where at least this many samples exist (ten beyond p99).
P99_MIN_SAMPLES = 1000

#: Server set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: Answers re-computed in-process after the window, per fresh-corpus run.
RECHECK_SAMPLE = 6


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without spawning git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def in_process_digests(payloads: list[dict]) -> list[str]:
    """Labels digests of a cache-less in-process engine for ``payloads``."""
    from repro.service.engine import LabelingEngine

    engine = LabelingEngine(cache_size=0)
    return [labels_digest(engine.label(p)) for p in payloads]


def start_primed(workload, seed: int):
    """Spawn, wait until ready, prime: the set-up that ``setup_s`` times."""
    from repro.service.client import ServiceClient

    server = serveproc.ServeProcess(ROOT, workload.serve_args)
    start = time.perf_counter()
    try:
        url = server.start()
        client = ServiceClient(url, timeout=120.0, retries=0)
        client.healthz()
        with ThreadPoolExecutor(max_workers=workload.clients) as pool:
            bodies = list(pool.map(
                lambda item: client.request("POST", workload.endpoint, item),
                priming(workload, seed),
            ))
        if not all(b.get("ok") for b in bodies):
            raise RuntimeError(f"priming {workload.name} failed: {bodies}")
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - start


@contextmanager
def one_cpu():
    """Pin this process, and so the server it spawns, to one CPU.

    On a shared VM each hand-off between two virtual CPUs waits for the
    host to wake the idle one, so two CPUs measure the host's scheduler
    more than the service; on one, the service's speed follows the
    calibration loop's, and scaling by it takes the host's drift out.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def run_workload(workload, seed: int, seconds: float, trace: bool, setups: int) -> dict:
    from repro.service.client import ServiceClient

    prime = priming(workload, seed)
    reference = {}
    if workload.expect_cached:  # every hit is compared with in-process labels
        reference = dict(zip(map(json.dumps, prime), in_process_digests(prime)))

    setup_times, setup_speeds = [], []
    with one_cpu():
        speeds = [calibrate.speed()]
        server = None
        for _ in range(setups):
            if server is not None:
                server.stop()
            server, elapsed = start_primed(workload, seed)
            try:
                speeds.append(calibrate.speed())
            except BaseException:
                server.stop()
                raise
            setup_times.append(elapsed)
            setup_speeds.append((speeds[-2] + speeds[-1]) / 2.0)
        try:
            rss = lambda: serveproc.rss_mb(server.members())  # noqa: E731
            load = loadgen.run(server.url, workload.endpoint, stream(workload, seed),
                               workload.clients, seconds, workload.rss_after, rss,
                               measure_bytes=trace)
            if load.probed is None:  # fewer requests than rss_after: read it now
                load.probed = rss()
            metrics = ServiceClient(server.url, retries=0).metrics()
        finally:
            server.stop()

    # ---- checks (outside the timed window) --------------------------------
    attempted = failed = 0
    ok_latencies: list[float] = []
    ok_samples: list[tuple[int, float]] = []  # (slice, latency) of ok_latencies
    answered: list[tuple[dict, str]] = []  # (corpus payload, labels digest)
    for sample in load.samples:
        items = corpora(sample.item)
        attempted += len(items)
        if sample.error is not None or len(sample.answers) != len(items):
            failed += len(items)
            continue
        good = True
        for payload, (ok, cached, digest) in zip(items, sample.answers):
            wrong = not ok or cached != workload.expect_cached
            if reference:
                wrong = wrong or reference.get(json.dumps(payload)) != digest
            if wrong:
                failed += 1
                good = False
            else:
                answered.append((payload, digest))
        if good:
            ok_latencies.append(sample.latency_ms)
            ok_samples.append((sample.slice_no, sample.latency_ms))
    engine_stats = metrics["engine"]
    memory, disk_hits = engine_stats["cache"], engine_stats["disk"]["hits"]
    checks_ok = engine_stats["errors"] == 0
    if workload.expect_cached:
        # Every window answer came from the memory LRU, none from disk: the
        # only misses are the priming computations.
        checks_ok = (checks_ok and disk_hits == 0 and memory["misses"] == len(prime)
                     and memory["hits"] == attempted)
    else:
        checks_ok = checks_ok and memory["hits"] + disk_hits == 0
        rng = random.Random(f"recheck:{workload.name}:{seed}")
        sample = rng.sample(answered, min(RECHECK_SAMPLE, len(answered)))
        fresh = in_process_digests([payload for payload, _ in sample])
        failed += sum(1 for (_, got), want in zip(sample, fresh) if got != want)
    correct = checks_ok and failed == 0 and bool(ok_latencies)

    ok_corpora = attempted - failed
    unscaled = {
        "corpora_per_s": ok_corpora / load.wall_s,
        "latency_p50_ms": percentile(ok_latencies, 50) if ok_latencies else 0.0,
        "setup_s": statistics.median(setup_times),
    }
    # Every time at the reference speed, by the calibrations around it.
    latencies = [latency * load.scale(n) for n, latency in ok_samples]
    e2e = {
        "corpora_per_s": ok_corpora / load.scaled_wall_s,
        "latency_p50_ms": percentile(latencies, 50) if latencies else 0.0,
        "setup_s": statistics.median(
            t * s / calibrate.REFERENCE_SPEED for t, s in zip(setup_times, setup_speeds)),
        "server_rss_mb": load.probed,
    }
    extra = {
        "error_rate": failed / attempted if attempted else 1.0,
        "latency_p90_ms": percentile(latencies, 90) if latencies else 0.0,
        "latency_p99_ms": (percentile(latencies, 99)
                           if len(latencies) >= P99_MIN_SAMPLES else None),
    }
    sent = [s.item for s in load.samples]
    context = {
        "workload": workload.name,
        "workload_seed": seed,
        "nproc": nproc(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "clients": workload.clients,
        "cpus": 1,
        "loop": "closed",
        "seconds": seconds,
        "requests": len(load.samples),
        "stream_digest": stream_digest(sent),
        "latency_samples": len(ok_latencies),
        "setup_samples": len(setup_times),
        "loadgen_cpu_share": load.cpu_s / load.wall_s,
        "slices": len(load.slices),
        "reference_speed": calibrate.REFERENCE_SPEED,
        "calibration_speed_median": statistics.median(s.speed for s in load.slices),
        "unscaled": unscaled,
    }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "e2e": e2e,
        "extra": extra,
        "context": context,
    }
    if trace:
        result["per_layer"] = per_layer(workload, seconds, prime, sent,
                                        load, metrics, ok_latencies)
    return result


def per_layer(workload, seconds, prime, sent, load, metrics, latencies) -> dict:
    """Layer metrics: server/client counters from the live run, then the
    in-process replay of the same stream, untraced and traced."""
    engine = metrics["engine"]
    cache = engine["cache"]

    def ratio(stats: dict) -> float:
        lookups = stats["hits"] + stats["misses"]
        return stats["hits"] / lookups if lookups else 0.0

    sizes = [s.response_bytes for s in load.samples if s.response_bytes]
    client_p50 = percentile(latencies, 50) if latencies else 0.0
    out = {
        "http.transport_ms": client_p50 - metrics["http"]["latency"]["p50_ms"],
        "http.response_bytes": sum(sizes) / len(sizes) if sizes else 0.0,
        "admission.shed": metrics["admission"]["shed"],
        "cache.hit_ratio": ratio(cache),
        "cache.evictions": cache["evictions"],
        "semantics.comparators_per_miss": (
            engine["semantics"]["comparators"] / max(1, engine["computations"])),
        "engine.computations": engine["computations"],
        "engine.errors": engine["errors"],
        "loadgen.cpu_share": load.cpu_s / load.wall_s,
    }

    budget = seconds / 2.0
    plain_s, served = layers.replay(ROOT, workload, prime, sent, budget_s=budget)
    times = layers.LayerTimes()
    traced_s, _ = layers.replay(ROOT, workload, prime, sent[:served], times=times)
    probe = layers.executor_probe(layers.probe_batches(workload, prime, sent))
    # Under the process executor the server computes nothing itself: its
    # pipeline spans and comparator memos live in pool workers, so those
    # layers are read from the probe's in-process run of the same corpora.
    semantics = engine["semantics"]
    if "relations" not in semantics:
        semantics = probe.semantics
    out["semantics.relations.hit_rate"] = ratio(semantics["relations"])
    out["semantics.labels.hit_rate"] = ratio(semantics["labels"])
    pipeline_source = times if times.calls.get("pipeline_ms") else probe.times
    for name in PER_LAYER:
        if name in out:
            continue
        is_span = name == "pipeline_ms" or name in PIPELINE_METRICS
        source = pipeline_source if is_span else times
        if name in source.calls:
            out[name] = source.mean_ms(name)
    out["executor.batch_wall_ms"] = probe.batch_wall_ms
    out["executor.efficiency"] = probe.efficiency
    out["trace.overhead_pct"] = (traced_s / plain_s - 1.0) * 100.0
    return out


def check_no_leftovers() -> None:
    """No child of this process and no temp directory of this run remain."""
    kids = serveproc.wait_gone(lambda: serveproc.children_of(os.getpid()))
    if kids:
        raise serveproc.HygieneError(f"child processes survived: {kids}")
    left = sorted(p.name for p in ROOT.glob(serveproc.TMP_PREFIX + "*"))
    if left:
        raise serveproc.HygieneError(f"temp directories left behind: {left}")


def report(result: dict, trace: bool) -> dict:
    """The contract's last-line object for one workload run."""
    values = result["per_layer"] if trace else result["e2e"]
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def table_row(name: str, result: dict) -> str:
    cells = [f"{k}={v:.4g} {END_TO_END[k]}" for k, v in result["e2e"].items()]
    cells.append(f"error_rate={result['extra']['error_rate']:.4g}")
    cells.append(f"latency_p90_ms={result['extra']['latency_p90_ms']:.4g} ms")
    p99 = result["extra"]["latency_p99_ms"]
    if p99 is not None:
        cells.append(f"latency_p99_ms={p99:.4g} ms")
    cells.append(f"(n={result['context']['latency_samples']})")
    return f"{name:<14} " + "  ".join(cells)


def _expect(condition: bool, what: str) -> None:
    if not condition:
        raise RuntimeError(f"self-test failed: {what}")


def self_test() -> int:
    """Run every workload briefly, plain and traced; check the contract."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    _expect({m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END,
            "BENCHMARK.json end_to_end matches END_TO_END")
    _expect({m["name"]: m["unit"] for m in declared["per_layer"]} == PER_LAYER,
            "BENCHMARK.json per_layer matches PER_LAYER")
    _expect({w["name"]: w["why"] for w in declared["workloads"]}
            == {w.name: w.why for w in WORKLOADS.values()},
            "BENCHMARK.json workloads match WORKLOADS")
    for workload in WORKLOADS.values():
        for trace in (False, True):
            result = run_workload(workload, 0, 2.0, trace, setups=1)
            check_no_leftovers()
            line = report(result, trace)
            tag = f"{workload.name} trace={int(trace)}"
            units = PER_LAYER if trace else END_TO_END
            _expect({k: v["unit"] for k, v in line["metrics"].items()} == units,
                    f"{tag}: every metric present with its unit")
            _expect(all(isinstance(v["value"], (int, float))
                        for v in line["metrics"].values()), f"{tag}: numeric values")
            _expect(line["correct"] and line["failed"] == 0,
                    f"{tag}: error_rate 0 ({line['failed']}/{line['attempted']} failed)")
            print(f"self-test ok: {tag} attempted={line['attempted']}")
    print(json.dumps({"self_test": "ok"}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"httpbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" or args.self_test else [args.workload]
    for name in names:
        if WORKLOADS[name].clients > nproc():
            print(f"httpbench: refusing {WORKLOADS[name].clients} client threads "
                  f"of {name} on {nproc()} CPUs", file=sys.stderr)
            return 2
    # SIGTERM unwinds like Ctrl-C, through the ``finally`` that stops the server.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.path.insert(0, str(ROOT / "src"))
    serveproc.become_subreaper()
    if args.self_test:
        return self_test()

    results = {}
    for name in names:
        results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                     bool(args.trace), SETUPS)
        check_no_leftovers()
        print("context " + json.dumps(results[name]["context"]))
    for name, result in results.items():
        print(table_row(name, result))
    if len(names) == 1:
        print(json.dumps(report(results[names[0]], bool(args.trace))))
    else:
        print(json.dumps({name: report(r, bool(args.trace)) for name, r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
