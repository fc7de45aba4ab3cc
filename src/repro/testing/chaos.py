"""The chaos harness: seeded fault plans driven through the whole stack.

One sweep = one fault-free baseline + ``plans`` seeded
:class:`~repro.resilience.FaultPlan` runs over the same batch of payloads.
For every run the harness asserts the service's degradation contract:

* the batch response is **complete and well-formed** — one entry per
  payload, in order, each either ``ok`` or a classified error; no item is
  ever silently dropped;
* every successful item is **byte-identical** to the baseline (the
  pipeline is deterministic and injected faults either heal or fail — they
  must never skew a result that is reported as a success);
* successful items still satisfy the **vertical oracles** over their
  serialized trees;
* failed items carry structured provenance: a message, a classified
  ``error_type``, and — for transient exhaustion — the injected-fault
  trail that killed them.

Violations are collected as ``anomalies`` rather than raised, so a CLI
sweep reports everything it saw; the pytest suites assert the list is
empty.
"""

from __future__ import annotations

from ..resilience import FaultPlan, RetryPolicy
from .oracles import OracleViolation, canonical_response, check_tree_dict

__all__ = ["run_chaos_sweep"]

#: error_type values a degraded batch entry may legitimately carry.
_KNOWN_ERROR_TYPES = {
    "invalid_request",
    "internal",
    "timeout",
    "transient",
    "circuit_open",
}

#: A fast backoff curve so sweeps spend their time labeling, not sleeping.
_SWEEP_RETRY = RetryPolicy(base_delay_s=0.001, max_delay_s=0.005)


def run_chaos_sweep(
    plans: int = 10,
    seed: int = 0,
    rate: float = 0.1,
    jobs: int = 2,
    domains=None,
    dataset_seed: int = 0,
    payloads=None,
    cache_size: int = 64,
    comparator=None,
    latency_s: float = 0.001,
    max_fires: int | None = 1,
    retry: RetryPolicy | None = None,
    check_trees: bool = True,
) -> dict:
    """Run ``plans`` seeded fault plans over a payload batch; full accounting.

    ``payloads`` overrides the default seed-domain batch (``domains`` +
    ``dataset_seed``).  A shared ``comparator`` keeps lexicon analysis warm
    across the baseline and every plan — essential for large sweeps.
    Returns a JSON-ready report whose ``anomalies`` list is empty iff every
    degradation-contract property held for every plan.
    """
    from ..service.engine import LabelingEngine

    if payloads is None:
        from ..datasets.registry import DOMAINS

        names = list(domains) if domains else sorted(DOMAINS)
        payloads = [{"domain": name, "seed": dataset_seed} for name in names]
    payloads = list(payloads)
    if not payloads:
        raise ValueError("chaos sweep needs at least one payload")
    retry = retry or _SWEEP_RETRY

    # The no-fault truth every successful chaos item must reproduce.
    baseline_engine = LabelingEngine(cache_size=0, comparator=comparator)
    baseline = [
        canonical_response(baseline_engine.label(payload)) for payload in payloads
    ]

    anomalies: list[dict] = []
    per_plan: list[dict] = []
    totals = {"ok": 0, "failed": 0, "recovered": 0, "identical": 0, "injected": 0}

    def anomaly(plan: FaultPlan, index: int, kind: str, message: str) -> None:
        anomalies.append(
            {
                "plan": plan.name,
                "seed": plan.seed,
                "item": index,
                "kind": kind,
                "message": message,
            }
        )

    for plan_index in range(max(1, int(plans))):
        plan = FaultPlan.random(
            seed + plan_index, rate=rate, max_fires=max_fires, latency_s=latency_s
        )
        engine = LabelingEngine(
            cache_size=cache_size,
            jobs=jobs,
            fault_plan=plan,
            retry=retry,
            comparator=comparator,
        )
        responses = engine.label_batch(payloads, jobs=jobs)

        if len(responses) != len(payloads):
            anomaly(
                plan,
                -1,
                "dropped",
                f"batch returned {len(responses)} entries for "
                f"{len(payloads)} payloads",
            )
        counts = {"ok": 0, "failed": 0, "recovered": 0, "identical": 0}
        for index, response in enumerate(responses):
            if not isinstance(response, dict) or "ok" not in response:
                anomaly(plan, index, "malformed", f"not a response dict: {response!r}")
                continue
            resilience = response.get("resilience")
            if response["ok"]:
                counts["ok"] += 1
                if resilience and (
                    resilience.get("attempts", 1) > 1 or resilience.get("faults")
                ):
                    counts["recovered"] += 1
                if canonical_response(response) == baseline[index]:
                    counts["identical"] += 1
                else:
                    anomaly(
                        plan,
                        index,
                        "divergence",
                        "successful item differs from the no-fault baseline",
                    )
                if check_trees:
                    violations: list[OracleViolation] = check_tree_dict(
                        response["tree"],
                        comparator or baseline_engine.comparator,
                    )
                    for violation in violations:
                        anomaly(plan, index, "oracle", str(violation))
            else:
                counts["failed"] += 1
                if not response.get("error") or response.get("error_type") not in (
                    _KNOWN_ERROR_TYPES
                ):
                    anomaly(
                        plan,
                        index,
                        "unclassified",
                        f"degraded entry lacks classification: {response!r}",
                    )
                if response.get("error_type") == "transient" and not (
                    resilience and resilience.get("faults")
                ):
                    anomaly(
                        plan,
                        index,
                        "no-provenance",
                        "transient failure without an injected-fault trail",
                    )
        injected = plan.stats()
        per_plan.append({"plan": plan.name, "seed": plan.seed, **counts,
                         "injected": injected["injected"]})
        for key in ("ok", "failed", "recovered", "identical"):
            totals[key] += counts[key]
        totals["injected"] += injected["injected"]

    report = {
        "plans": max(1, int(plans)),
        "seed": seed,
        "rate": rate,
        "jobs": jobs,
        "items_per_plan": len(payloads),
        "items": max(1, int(plans)) * len(payloads),
        "ok_items": totals["ok"],
        "failed_items": totals["failed"],
        "recovered_items": totals["recovered"],
        "identical_items": totals["identical"],
        "injected_faults": totals["injected"],
        "anomalies": anomalies,
        "ok": not anomalies,
        "per_plan": per_plan,
    }
    return report
