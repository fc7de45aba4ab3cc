"""Command-line interface: experiments and labeling from the shell.

::

    python -m repro table6                 # the paper's main results table
    python -m repro figure10               # inference-rule involvement
    python -m repro domain airline --tree  # one domain, labeled tree printed
    python -m repro generate auto -o corpus.json
    python -m repro label corpus.json --html out.html
    python -m repro parse page.html        # extract forms from HTML
    python -m repro serve --port 8080      # the HTTP labeling service
    python -m repro batch a.json b.json --jobs 4
    python -m repro profile -o BENCH_perf.json
    python -m repro trace corpus.json      # span tree with per-phase timings
    python -m repro chaos --plans 10 --rate 0.1   # seeded fault sweep

Every command accepts ``--seed`` where a corpus is generated.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core.inference import InferenceRule
from .core.pipeline import label_corpus
from .core.semantics import SemanticComparator
from .datasets.registry import DOMAIN_TITLES, DOMAINS, load_domain
from .experiment import run_all_domains, run_domain
from .html import parse_forms, render_form
from .schema.serialize import load_corpus, save_corpus
from .service.parallel import EXECUTORS, default_jobs, normalize_jobs

__all__ = ["main", "build_parser"]

#: Shared ``--jobs`` default for the concurrent subcommands (``batch``,
#: ``serve``, ``chaos``): derived from the usable CPU count, capped at 8.
DEFAULT_JOBS = default_jobs()


def _jobs_arg(value: str) -> int:
    """argparse type for ``--jobs``: 0 clamps to 1, negatives are rejected."""
    try:
        return normalize_jobs(int(value) if value.lstrip("-").isdecimal() else value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Meaningful Labeling of Integrated Query "
            "Interfaces' (Dragut, Yu, Meng; VLDB 2006)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table6 = sub.add_parser("table6", help="regenerate the paper's Table 6")
    table6.add_argument("--seed", type=int, default=0)
    table6.add_argument(
        "--respondents", type=int, default=11,
        help="simulated survey size (the paper used 11)",
    )

    figure10 = sub.add_parser("figure10", help="inference-rule involvement")
    figure10.add_argument("--seed", type=int, default=0)

    domain = sub.add_parser("domain", help="run one domain end to end")
    domain.add_argument("name", choices=sorted(DOMAINS))
    domain.add_argument("--seed", type=int, default=0)
    domain.add_argument("--tree", action="store_true",
                        help="print the labeled integrated tree")
    domain.add_argument("--html", type=Path, default=None,
                        help="write the labeled interface as an HTML form")

    generate = sub.add_parser("generate", help="save a synthetic corpus as JSON")
    generate.add_argument("name", choices=sorted(DOMAINS))
    generate.add_argument("-o", "--out", type=Path, required=True)
    generate.add_argument("--seed", type=int, default=0)

    label = sub.add_parser("label", help="merge + label a saved corpus")
    label.add_argument("corpus", type=Path)
    label.add_argument("--html", type=Path, default=None)
    label.add_argument("--lexicon", type=Path, default=None,
                       help="extra synsets/hypernyms (JSON) merged over the "
                            "built-in lexicon")

    parse = sub.add_parser("parse", help="extract query interfaces from HTML")
    parse.add_argument("page", type=Path)
    parse.add_argument("--json", action="store_true",
                       help="emit the schema trees as JSON")

    describe = sub.add_parser("describe", help="corpus statistics for a domain")
    describe.add_argument("name", choices=sorted(DOMAINS))
    describe.add_argument("--seed", type=int, default=0)

    sweep = sub.add_parser("sweep", help="Table 6 metrics across corpus seeds")
    sweep.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    sweep.add_argument("--respondents", type=int, default=5)

    lint = sub.add_parser(
        "lint", help="check a form/corpus against the well-designedness properties"
    )
    lint.add_argument("page", type=Path,
                      help="an HTML page with a form, or a corpus JSON")

    report = sub.add_parser("report", help="full Markdown report for a domain")
    report.add_argument("name", choices=sorted(DOMAINS))
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("-o", "--out", type=Path, default=None,
                        help="write to a file instead of stdout")

    serve = sub.add_parser(
        "serve", help="run the HTTP labeling service (POST /label, /batch)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8777,
                       help="0 picks an ephemeral port")
    serve.add_argument("--cache-size", type=int, default=128,
                       help="LRU result-cache capacity (0 disables caching)")
    serve.add_argument("--jobs", type=_jobs_arg, default=DEFAULT_JOBS,
                       help="default batch concurrency for POST /batch "
                            "(default: usable CPUs, capped at 8)")
    serve.add_argument("--executor", choices=EXECUTORS, default="thread",
                       help="accepted for compatibility and ignored: every "
                            "batch computes in the server process")
    serve.add_argument("--disk-cache", type=Path, default=None,
                       help="persistent result-cache directory (warm "
                            "restarts answer from disk)")
    serve.add_argument("--max-concurrent", type=int, default=8,
                       help="admission cap: concurrent requests in flight")
    serve.add_argument("--max-queue", type=int, default=32,
                       help="admission queue depth; beyond it requests are "
                            "shed with HTTP 429")
    serve.add_argument("--verbose", action="store_true",
                       help="log one line per HTTP request")
    serve.add_argument("--trace", action="store_true",
                       help="request-scoped span tracing: every POST runs "
                            "under a trace retrievable via "
                            "GET /trace/<request_id>")
    serve.add_argument("--trace-log", type=Path, default=None,
                       help="append every request's spans to DIR/spans.jsonl "
                            "(one CRC-checked line per span; implies --trace)")

    batch = sub.add_parser(
        "batch", help="merge + label many saved corpora concurrently"
    )
    batch.add_argument("corpora", type=Path, nargs="+")
    batch.add_argument("--jobs", type=_jobs_arg, default=DEFAULT_JOBS,
                       help="corpora labeled concurrently "
                            "(default: usable CPUs, capped at 8)")
    batch.add_argument("--timeout", type=float, default=None,
                       help="per-corpus time budget in seconds")
    batch.add_argument("--lint", action="store_true",
                       help="include well-designedness findings per corpus")

    profile = sub.add_parser(
        "profile",
        help="cold-vs-warm labeling profile + cache hit ratios (perf report)",
    )
    profile.add_argument("--domains", nargs="+", default=None,
                         choices=sorted(DOMAINS),
                         help="domains to profile (default: all)")
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--repeats", type=int, default=3,
                         help="warm labelings per domain after the cold one")
    profile.add_argument("-o", "--out", type=Path, default=None,
                         help="also write the report as JSON (BENCH_perf.json)")
    profile.add_argument("--json", action="store_true",
                         help="print the JSON report instead of the summary")

    trace = sub.add_parser(
        "trace",
        help="label once under a span trace and print the span tree "
             "(per-phase timings)",
    )
    trace.add_argument("corpus", type=Path, nargs="?", default=None,
                       help="a saved corpus JSON (see 'repro generate')")
    trace.add_argument("--domain", choices=sorted(DOMAINS), default=None,
                       help="trace a registered domain instead of a corpus file")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--json", action="store_true",
                       help="emit the trace as JSON instead of the tree view")
    trace.add_argument("--chrome", type=Path, default=None,
                       help="also write a chrome://tracing JSON array")

    chaos = sub.add_parser(
        "chaos",
        help="sweep seeded fault plans through the service stack "
             "(fault injection + retry/breaker verification)",
    )
    chaos.add_argument("--plans", type=int, default=10,
                       help="how many seeded fault plans to run")
    chaos.add_argument("--seed", type=int, default=0,
                       help="base seed; plan i uses seed+i")
    chaos.add_argument("--rate", type=float, default=0.1,
                       help="per-item fault probability at each injection point")
    chaos.add_argument("--jobs", type=_jobs_arg, default=DEFAULT_JOBS,
                       help="batch concurrency per plan "
                            "(default: usable CPUs, capped at 8)")
    chaos.add_argument("--domains", nargs="+", default=None,
                       choices=sorted(DOMAINS),
                       help="seed domains per plan (default: all)")
    chaos.add_argument("-o", "--out", type=Path, default=None,
                       help="also write the full JSON report")

    return parser


# ----------------------------------------------------------------------
# Commands.
# ----------------------------------------------------------------------


def _cmd_table6(args) -> int:
    runs = run_all_domains(seed=args.seed, respondent_count=args.respondents)
    header = (
        f"{'Domain':<12} {'srcL':>5} {'LQ':>4} {'intL':>5} {'grp':>4} "
        f"{'FldAcc':>7} {'IntAcc':>7} {'HA':>6} {'HA*':>6}  class"
    )
    print(header)
    print("-" * len(header))
    for name, run in runs.items():
        stats = run.integrated
        print(
            f"{DOMAIN_TITLES[name]:<12} {run.avg_leaves:>5.1f} {run.lq:>4.0%} "
            f"{stats.leaves:>5} {stats.groups:>4} {run.fld_acc:>7.0%} "
            f"{run.int_acc:>7.0%} {run.ha:>6.1%} {run.ha_star:>6.1%}  "
            f"{run.classification}"
        )
    return 0


def _cmd_figure10(args) -> int:
    runs = run_all_domains(seed=args.seed, respondent_count=1)
    combined = {}
    for run in runs.values():
        for rule, count in run.inference_log.counts.items():
            combined[rule] = combined.get(rule, 0) + count
    total = sum(combined.values()) or 1
    print(f"{'Rule':<5} {'Count':>6} {'Share':>7}")
    print("-" * 20)
    for rule in InferenceRule:
        count = combined.get(rule, 0)
        print(f"{rule.value:<5} {count:>6} {count / total:>7.1%}")
    return 0


def _cmd_domain(args) -> int:
    run = run_domain(args.name, seed=args.seed)
    print(f"{DOMAIN_TITLES[args.name]}: {run.classification}")
    print(f"  FldAcc {run.fld_acc:.0%} | IntAcc {run.int_acc:.0%} | "
          f"HA {run.ha:.1%} | HA* {run.ha_star:.1%}")
    if args.tree:
        print(run.labeling.root.pretty())
    if args.html is not None:
        html = render_form(
            run.labeling.root,
            title=f"Integrated {DOMAIN_TITLES[args.name]} Search",
        )
        args.html.write_text(html)
        print(f"wrote {args.html}")
    return 0


def _cmd_generate(args) -> int:
    dataset = load_domain(args.name, seed=args.seed)
    save_corpus(args.out, dataset.interfaces, dataset.mapping)
    print(f"wrote {args.out}: {len(dataset.interfaces)} interfaces, "
          f"{len(dataset.mapping)} clusters")
    return 0


def _cmd_label(args) -> int:
    interfaces, mapping = load_corpus(args.corpus)
    comparator = SemanticComparator()
    if args.lexicon is not None:
        from .core.label import LabelAnalyzer
        from .lexicon.io import load_wordnet

        comparator = SemanticComparator(LabelAnalyzer(load_wordnet(args.lexicon)))
    root, result = label_corpus(interfaces, mapping, comparator)
    print(root.pretty())
    print(f"classification: {result.classification.value}")
    if args.html is not None:
        args.html.write_text(render_form(root))
        print(f"wrote {args.html}")
    return 0


def _cmd_describe(args) -> int:
    from .core.metrics import labeling_quality

    dataset = load_domain(args.name, seed=args.seed)
    interfaces = dataset.interfaces
    print(f"{DOMAIN_TITLES[args.name]} (seed {args.seed}): "
          f"{len(interfaces)} interfaces")
    avg_leaves = sum(qi.leaf_count() for qi in interfaces) / len(interfaces)
    avg_int = sum(qi.internal_node_count() for qi in interfaces) / len(interfaces)
    avg_depth = sum(qi.depth() for qi in interfaces) / len(interfaces)
    print(f"  avg fields {avg_leaves:.1f} | avg internal nodes {avg_int:.1f} | "
          f"avg depth {avg_depth:.1f} | LQ {labeling_quality(interfaces):.0%}")
    dataset.prepare()
    print(f"  clusters: {len(dataset.mapping)}"
          f" | 1:m reductions: {len(dataset.mapping.expansions)}")
    print("  cluster frequencies (top 10):")
    clusters = sorted(
        dataset.mapping.clusters, key=lambda c: -c.frequency()
    )[:10]
    for cluster in clusters:
        labels = ", ".join(cluster.labels()[:4])
        print(f"    {cluster.name:<22} x{cluster.frequency():<3} {labels}")
    return 0


def _cmd_sweep(args) -> int:
    from .experiment import sweep_seeds

    rows = sweep_seeds(seeds=tuple(args.seeds), respondent_count=args.respondents)
    header = (
        f"{'Domain':<12} {'FldAcc':>14} {'IntAcc':>14} {'HA':>6}  classes"
    )
    print(f"seeds: {args.seeds}")
    print(header)
    print("-" * len(header))
    for name, row in rows.items():
        classes = ", ".join(
            f"{c}x{n}" for c, n in sorted(row.classifications.items())
        )
        print(
            f"{DOMAIN_TITLES[name]:<12} "
            f"{row.fld_acc_mean:>6.1%}/{row.fld_acc_min:<6.1%} "
            f"{row.int_acc_mean:>6.1%}/{row.int_acc_min:<6.1%} "
            f"{row.ha_mean:>6.1%}  {classes}"
        )
    return 0


def _cmd_lint(args) -> int:
    from .lint import lint_interface

    text = args.page.read_text()
    roots = []
    if text.lstrip().startswith("{"):
        interfaces, __ = load_corpus(args.page)
        roots = [(qi.name, qi.root) for qi in interfaces]
    else:
        roots = [
            (qi.name, qi.root) for qi in parse_forms(text, args.page.stem)
        ]
    if not roots:
        print("nothing to lint", file=sys.stderr)
        return 1
    total_warns = 0
    for name, root in roots:
        findings = lint_interface(root)
        print(f"[{name}] {len(findings)} finding(s)")
        for finding in findings:
            print(f"  {finding}")
            if finding.severity == "warn":
                total_warns += 1
    return 1 if total_warns else 0


def _cmd_report(args) -> int:
    from .report import domain_report

    run = run_domain(args.name, seed=args.seed)
    document = domain_report(run)
    if args.out is not None:
        args.out.write_text(document)
        print(f"wrote {args.out}")
    else:
        print(document)
    return 0


def _cmd_parse(args) -> int:
    html = args.page.read_text()
    interfaces = parse_forms(html, name_prefix=args.page.stem)
    if not interfaces:
        print("no forms found", file=sys.stderr)
        return 1
    if args.json:
        from .schema.serialize import interface_to_dict

        print(json.dumps([interface_to_dict(qi) for qi in interfaces], indent=2))
    else:
        for qi in interfaces:
            print(f"[{qi.name}] {qi.leaf_count()} fields, "
                  f"LQ {qi.labeling_quality():.0%}")
            print(qi.root.pretty())
    return 0


def _cmd_serve(args) -> int:
    from .service.server import LabelingServer

    server = LabelingServer(
        host=args.host,
        port=args.port,
        cache_size=args.cache_size,
        jobs=args.jobs,
        quiet=not args.verbose,
        max_concurrent=args.max_concurrent,
        max_queue=args.max_queue,
        executor=args.executor,
        disk_cache=args.disk_cache,
        tracing=args.trace,
        trace_log=args.trace_log,
    )
    print(f"repro labeling service on {server.url}")
    print("  POST /label   POST /batch   GET /healthz   GET /metrics"
          + ("   GET /trace/<id>" if args.trace or args.trace_log else ""))
    if args.trace_log is not None:
        print(f"  trace log: {server.trace_log.path}")
    print(f"  cache capacity {args.cache_size}, default batch jobs {args.jobs}")
    if args.executor != "thread":
        print(f"  --executor {args.executor} is ignored: batches compute in "
              "this process")
    if args.disk_cache is not None:
        disk = server.engine.disk.stats()
        print(f"  disk cache: {disk['entries']} warm entr(ies) from "
              f"{args.disk_cache} in {disk['load_ms']:.0f} ms")
    print(f"  admission: {args.max_concurrent} concurrent, "
          f"queue {args.max_queue} (429 beyond)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.stop()
    return 0


def _cmd_batch(args) -> int:
    from .service.engine import LabelingEngine

    payloads = []
    for path in args.corpora:
        try:
            payload: dict = {"corpus": json.loads(path.read_text())}
        except (OSError, json.JSONDecodeError) as exc:
            payload = {"__error__": f"{path}: {exc}"}
        if args.lint:
            payload["lint"] = True
        payloads.append(payload)

    engine = LabelingEngine(cache_size=0)
    results = engine.label_batch(
        [p for p in payloads if "__error__" not in p],
        jobs=args.jobs,
        timeout=args.timeout,
    )
    # Re-interleave unreadable files with engine results, in input order.
    merged: list[dict] = []
    it = iter(results)
    for payload in payloads:
        if "__error__" in payload:
            merged.append({"ok": False, "error": payload["__error__"],
                           "error_type": "unreadable"})
        else:
            merged.append(next(it))

    failures = 0
    for path, result in zip(args.corpora, merged):
        if result.get("ok"):
            stats = result["stats"]
            line = (
                f"[{path.name}] {result['classification']} | "
                f"{stats['labeled_fields']}/{stats['leaves']} fields labeled | "
                f"{stats['elapsed_ms']:.0f} ms"
            )
            if args.lint:
                warns = sum(
                    1 for f in result.get("lint", []) if f["severity"] == "warn"
                )
                line += f" | {warns} lint warn(s)"
            print(line)
        else:
            failures += 1
            print(f"[{path.name}] ERROR ({result.get('error_type')}): "
                  f"{result.get('error')}")
    print(f"{len(merged) - failures}/{len(merged)} corpora labeled "
          f"(jobs={args.jobs})")
    return 1 if failures else 0


def _cmd_profile(args) -> int:
    from .perf import profile_labeling

    report = profile_labeling(
        domains=args.domains, seed=args.seed, repeats=args.repeats
    )
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    if args.json:
        print(json.dumps(report, indent=2))
        if args.out is not None:
            print(f"wrote {args.out}", file=sys.stderr)
        return 0

    print(f"{'Domain':<12} {'cold ms':>9} {'warm ms':>9} {'speedup':>8}")
    print("-" * 40)
    for name, row in report["domains"].items():
        print(
            f"{DOMAIN_TITLES[name]:<12} {row['cold_ms']:>9.1f} "
            f"{row['warm_ms']:>9.1f} {row['speedup']:>7.1f}x"
        )
    totals = report["totals"]
    print("-" * 40)
    print(
        f"{'TOTAL':<12} {totals['cold_ms']:>9.1f} {totals['warm_ms']:>9.1f} "
        f"{totals['speedup']:>7.1f}x"
    )
    print(f"warm labelings/s: {totals['warm_labelings_per_s']}")
    print("\ncache hit rates (one shared comparator):")
    for cache_name, warm_misses in totals["warm_misses"].items():
        stats = report["caches"][cache_name]
        print(
            f"  {cache_name:<18} {stats['hit_rate']:>7.1%}  "
            f"({stats['hits']} hits / {stats['misses']} misses, "
            f"{warm_misses} in warm passes)"
        )
    if args.out is not None:
        print(f"\nwrote {args.out}")
    return 0


def _cmd_trace(args) -> int:
    from .obs import Trace, chrome_trace, format_trace
    from .service.engine import LabelingEngine, RequestError

    if (args.corpus is None) == (args.domain is None):
        print("trace needs exactly one of a corpus file or --domain",
              file=sys.stderr)
        return 2
    if args.corpus is not None:
        try:
            payload: dict = {"corpus": json.loads(args.corpus.read_text())}
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read corpus {args.corpus}: {exc}", file=sys.stderr)
            return 1
    else:
        payload = {"domain": args.domain, "seed": args.seed}

    engine = LabelingEngine(cache_size=0)
    trace = Trace(name="trace")
    try:
        with trace.scope():
            engine.label(payload)
    except RequestError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return 1
    record = trace.to_dict()
    if args.json:
        print(json.dumps(record, indent=2))
    else:
        print(format_trace(record))
        phases = [
            s for s in trace.root.iter_spans() if s.name.startswith("phase:")
        ]
        if phases:
            total = trace.root.duration_ms or 1.0
            print()
            print(f"{'phase':<26} {'ms':>10} {'share':>7}")
            print("-" * 45)
            for sp in phases:
                print(f"{sp.name:<26} {sp.duration_ms:>10.3f} "
                      f"{sp.duration_ms / total:>7.1%}")
    if args.chrome is not None:
        args.chrome.write_text(
            json.dumps(chrome_trace([record]), indent=2) + "\n"
        )
        print(f"wrote {args.chrome}", file=sys.stderr)
    return 0


def _cmd_chaos(args) -> int:
    from .testing.chaos import run_chaos_sweep

    comparator = SemanticComparator()
    report = run_chaos_sweep(
        plans=args.plans,
        seed=args.seed,
        rate=args.rate,
        jobs=args.jobs,
        domains=args.domains,
        comparator=comparator,
    )
    print(
        f"chaos sweep: {report['plans']} plans x {report['items_per_plan']} "
        f"items (rate {args.rate:g}, jobs {args.jobs})"
    )
    print(
        f"  ok {report['ok_items']} | failed {report['failed_items']} | "
        f"recovered {report['recovered_items']} | "
        f"byte-identical {report['identical_items']} | "
        f"injected faults {report['injected_faults']}"
    )
    if report["anomalies"]:
        print(f"  {len(report['anomalies'])} ANOMALY(IES):")
        for anomaly in report["anomalies"][:20]:
            print(
                f"    [{anomaly['plan']}#{anomaly['item']}] "
                f"{anomaly['kind']}: {anomaly['message']}"
            )
    else:
        print("  degradation contract held for every plan")
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 1 if report["anomalies"] else 0


_COMMANDS = {
    "table6": _cmd_table6,
    "figure10": _cmd_figure10,
    "domain": _cmd_domain,
    "generate": _cmd_generate,
    "label": _cmd_label,
    "parse": _cmd_parse,
    "report": _cmd_report,
    "sweep": _cmd_sweep,
    "describe": _cmd_describe,
    "lint": _cmd_lint,
    "serve": _cmd_serve,
    "batch": _cmd_batch,
    "profile": _cmd_profile,
    "trace": _cmd_trace,
    "chaos": _cmd_chaos,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests/test_cli
    raise SystemExit(main())
