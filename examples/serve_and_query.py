#!/usr/bin/env python3
"""The labeling service end to end: serve, query, hit the cache, read metrics.

The ROADMAP's north star is labeling as an *online* service: a deep-web
integrator crawls query interfaces continuously and labels each freshly
integrated batch.  This walkthrough starts the real HTTP server on an
ephemeral port (the same thing ``python -m repro serve`` runs), then talks
to it with the stdlib keep-alive client (one HTTP/1.1 connection, reused):

1. liveness (``GET /healthz``);
2. a cold ``POST /label`` for a domain corpus — the pipeline runs;
3. the identical request again — served from the LRU result cache;
4. a raw-corpus request with lint findings included;
5. a ``POST /batch`` with a poisoned item, isolated as an error entry;
6. ``GET /metrics``: request counts, latency percentiles, cache counters.

Run:  python examples/serve_and_query.py
"""

from repro.datasets.registry import load_domain
from repro.schema.serialize import corpus_to_dict
from repro.service import LabelingServer, ServiceClient


def main() -> None:
    print("=" * 72)
    print("repro.service — the naming pipeline as a long-lived HTTP service")
    print("=" * 72)

    with LabelingServer(port=0, cache_size=32) as server:
        client = ServiceClient(server.url)
        print(f"\nserver up on {server.url}")

        health = client.healthz()
        print(f"GET /healthz -> {health['status']}")

        print("\n--- POST /label (cold: the pipeline runs) ---")
        cold = client.label(domain="airline", seed=0)
        stats = cold["stats"]
        print(f"airline: {cold['classification']}, "
              f"{stats['labeled_fields']}/{stats['leaves']} fields labeled "
              f"in {stats['elapsed_ms']:.0f} ms (cached={cold['cached']})")
        for cluster, label in list(cold["field_labels"].items())[:5]:
            print(f"  {cluster:<16} -> {label!r}")

        print("\n--- POST /label again (warm: served from the LRU cache) ---")
        warm = client.label(domain="airline", seed=0)
        print(f"same fingerprint: {warm['fingerprint'] == cold['fingerprint']}, "
              f"cached={warm['cached']}")

        print("\n--- POST /label with a raw corpus document + lint ---")
        dataset = load_domain("auto", seed=0)
        document = corpus_to_dict(dataset.interfaces, dataset.mapping)
        response = client.label(corpus=document, lint=True)
        warns = [f for f in response["lint"] if f["severity"] == "warn"]
        print(f"auto corpus ({response['stats']['interfaces']} interfaces): "
              f"{response['classification']}, "
              f"{len(response['lint'])} lint finding(s), {len(warns)} warn(s)")

        print("\n--- POST /batch: one poisoned item cannot kill the batch ---")
        batch = client.batch(
            [
                {"domain": "job", "seed": 0},
                {"domain": "atlantis"},        # no such domain
                {"domain": "hotels", "seed": 0},
            ],
            jobs=2,
        )
        for i, result in enumerate(batch["results"]):
            if result.get("ok"):
                print(f"  item {i}: ok    {result['classification']}")
            else:
                print(f"  item {i}: ERROR {result['error']}")

        print("\n--- GET /metrics ---")
        metrics = client.metrics()
        http, engine = metrics["http"], metrics["engine"]
        print(f"requests: {http['requests_total']}  "
              f"by endpoint: {http['by_endpoint']}")
        latency = http["latency"]
        print(f"latency p50/p90/max: {latency['p50_ms']:.1f}/"
              f"{latency['p90_ms']:.1f}/{latency['max_ms']:.1f} ms "
              f"(window {latency['window']})")
        cache = engine["cache"]
        print(f"cache: {cache['hits']} hit(s), {cache['misses']} miss(es), "
              f"hit rate {cache['hit_rate']:.0%}, size {cache['size']}")
        client.close()  # release the kept-alive socket before the server stops

    print("\nserver stopped cleanly")


if __name__ == "__main__":
    main()
