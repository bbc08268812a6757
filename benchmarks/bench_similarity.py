"""Similarity-layer benchmark: embedding determinism, index throughput, merges.

Measures and pins the plan-similarity subsystem (PR 10):

* **embedding determinism** — plans independently re-converted from the
  same raw EXPLAIN text must embed to bit-identical vectors (the content
  purity the whole nearest-neighbour layer rests on);
* **index queries** — nearest-neighbour throughput over a populated
  :class:`~repro.similarity.PlanIndex`, plus the numpy-vs-list
  bit-identity check (integer-valued embeddings make cosine arithmetic
  exact, so the two paths must agree exactly, not approximately);
* **interleaved query-then-add** — the novelty loop's access pattern: each
  plan is queried (k=1 and k=3) and then added, on the numpy path and on
  the list path; the answers must be identical step for step while the
  dense matrix grows in place between queries;
* **merge algebra** — first-wins payload merges across mismatched shard
  layouts and orders must land on identical indexes (the sharded
  campaign's handoff);
* **campaign modes** — ``novelty="exact"`` campaigns must be inert
  (coverage and Table V independent of trigger-plan capture), and
  ``novelty="similarity"`` campaigns deterministic run to run.

Run via ``run_benchmarks.py [--only similarity]``; the snapshot lands in
``BENCH_similarity.json``.
"""

from __future__ import annotations

import os
import platform
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro import __version__  # noqa: E402
from repro.converters import ConverterHub  # noqa: E402
from repro.dialects import create_dialect  # noqa: E402
from repro.engine import arrays  # noqa: E402
from repro.similarity import (  # noqa: E402
    EMBEDDING_DIMENSIONS,
    PlanIndex,
    embed_plan,
)
from repro.testing import TestingCampaign  # noqa: E402
from repro.testing.generator import GeneratorConfig, RandomQueryGenerator  # noqa: E402

#: Conservative enforced floor for nearest-neighbour queries per second.
#: The pure-list path over the benchmark index clears this by orders of
#: magnitude on any host; a miss means the index went accidentally
#: quadratic, not that the machine is slow.
QUERY_THROUGHPUT_FLOOR = 25.0


def _plan_corpus(count):
    """Distinct unified plans converted from generated EXPLAIN outputs."""
    dialect = create_dialect("postgresql")
    generator = RandomQueryGenerator(seed=31, config=GeneratorConfig(max_tables=2))
    for statement in generator.schema_statements():
        try:
            dialect.execute(statement)
        except Exception:
            continue
    hub = ConverterHub()
    fmt = hub.converter("postgresql").formats[0]
    raws = []
    plans = []
    seen = set()
    attempts = 0
    while len(plans) < count and attempts < count * 30:
        attempts += 1
        query = generator.select_query()
        try:
            output = dialect.explain(query, format=fmt)
        except Exception:
            continue
        plan = hub.convert("postgresql", output.text, fmt)
        fingerprint = plan.fingerprint()
        if fingerprint in seen:
            continue
        seen.add(fingerprint)
        raws.append(output.text)
        plans.append(plan)
    return raws, plans, fmt


def measure_embedding_determinism(raws, fmt):
    """Re-convert every raw text through two fresh hubs; embed both."""
    first_hub, second_hub = ConverterHub(), ConverterHub()
    identical = True
    integer_valued = True
    started = time.perf_counter()
    for raw in raws:
        a = embed_plan(first_hub.convert("postgresql", raw, fmt))
        b = embed_plan(second_hub.convert("postgresql", raw, fmt))
        identical = identical and a == b
        integer_valued = integer_valued and all(v == int(v) and v >= 0 for v in a)
    elapsed = time.perf_counter() - started
    return {
        "plans": len(raws),
        "dimensions": EMBEDDING_DIMENSIONS,
        "seconds": elapsed,
        "deterministic": identical,
        "integer_valued": integer_valued,
    }


def measure_index_queries(plans, probes):
    """NN throughput plus the numpy/list bit-identity comparison."""
    index = PlanIndex()
    for position, plan in enumerate(plans):
        index.add(f"{position:06d}-{plan.fingerprint()}", embed_plan(plan))
    vectors = [embed_plan(plan) for plan in plans[:probes]]

    def run_queries():
        started = time.perf_counter()
        results = [index.query(vector, k=3) for vector in vectors]
        return results, time.perf_counter() - started

    ambient_results, seconds = run_queries()
    numpy_list_identical = True
    numpy_available = arrays.numpy_available()
    if numpy_available:
        enabled = arrays.numpy_enabled()
        try:
            arrays.set_numpy_enabled(True)
            with_numpy, _ = run_queries()
            arrays.set_numpy_enabled(False)
            without_numpy, _ = run_queries()
        finally:
            arrays.set_numpy_enabled(enabled)
        numpy_list_identical = with_numpy == without_numpy
    return {
        "entries": len(index),
        "probes": len(vectors),
        "k": 3,
        "seconds": seconds,
        "queries_per_second": len(vectors) / seconds if seconds else float("inf"),
        "numpy_available": numpy_available,
        "numpy_list_identical": numpy_list_identical,
        "self_nearest_all_zero": all(
            result[0][1] == 0.0 for result in ambient_results
        ),
    }


def measure_interleaved_identity(plans):
    """Query-then-add over the same plans on both paths; answers must match."""

    def run_stream(numpy_on):
        arrays.set_numpy_enabled(numpy_on)
        index = PlanIndex()
        answers = []
        started = time.perf_counter()
        for position, plan in enumerate(plans):
            vector = embed_plan(plan)
            answers.append((index.query(vector, k=1), index.query(vector, k=3)))
            index.add(f"{position:06d}-{plan.fingerprint()}", vector)
        return answers, time.perf_counter() - started

    numpy_available = arrays.numpy_available()
    enabled = arrays.numpy_enabled()
    try:
        list_answers, list_seconds = run_stream(False)
        numpy_answers, numpy_seconds = (
            run_stream(True) if numpy_available else (list_answers, None)
        )
    finally:
        arrays.set_numpy_enabled(enabled)
    return {
        "steps": len(plans),
        "queries_per_step": 2,
        "numpy_available": numpy_available,
        "numpy_seconds": numpy_seconds,
        "list_seconds": list_seconds,
        "interleaved_numpy_list_identical": numpy_answers == list_answers,
    }


def measure_merge_identity(plans):
    """Merge thirds across shard layouts and orders; all must agree."""
    vectors = {
        f"{position:06d}-{plan.fingerprint()}": embed_plan(plan)
        for position, plan in enumerate(plans)
    }
    keys = sorted(vectors)
    thirds = [keys[0::3], keys[1::3], keys[2::3]]
    layouts = [(3, 16, 5), (16, 1, 3)]
    payloads = []
    for layout in layouts:
        parts = []
        for shard_count, chunk in zip(layout, thirds):
            part = PlanIndex(shard_count=shard_count)
            for key in chunk:
                part.add(key, vectors[key])
            parts.append(part)
        forward = PlanIndex(shard_count=8)
        for part in parts:
            forward.merge(part)
        backward = PlanIndex(shard_count=2)
        for part in reversed(parts):
            backward.merge_payload(part.to_payload())
        payloads.append((forward.to_payload(), backward.to_payload()))
    union_exact = all(
        len(forward["entries"]) == len(vectors) for forward, _ in payloads
    )
    order_and_layout_independent = all(
        forward == backward for forward, backward in payloads
    ) and payloads[0][0] == payloads[1][0]
    rebuilt = PlanIndex(shard_count=8)
    rebuilt.merge_payload(payloads[0][0])
    idempotent = rebuilt.merge_payload(payloads[0][0]) == 0
    return {
        "entries": len(vectors),
        "layouts": [list(layout) for layout in layouts],
        "union_exact": union_exact,
        "order_and_layout_independent": order_and_layout_independent,
        "idempotent": idempotent,
    }


def measure_campaign_modes(quick):
    """Exact-mode inertness and similarity-mode determinism, end to end."""
    settings = dict(
        queries_per_dbms=12 if quick else 40,
        cert_pairs_per_dbms=5 if quick else 15,
        bound_checks_per_dbms=3 if quick else 8,
    )
    capture_on = TestingCampaign(**settings).run()
    capture_off = TestingCampaign(capture_trigger_plans=False, **settings).run()
    exact_inert = (
        capture_on.table5_rows() == capture_off.table5_rows()
        and capture_on.plan_fingerprints == capture_off.plan_fingerprints
        and capture_on.conversions == capture_off.conversions
        and capture_on.conversion_cache_hits == capture_off.conversion_cache_hits
        and capture_on.novelty_reward_total == 0.0
        and capture_on.index_payload is None
    )
    first = TestingCampaign(novelty="similarity", **settings).run()
    second = TestingCampaign(novelty="similarity", **settings).run()
    deterministic = (
        first.novelty_reward_total == second.novelty_reward_total
        and first.index_payload == second.index_payload
        and first.table5_rows() == second.table5_rows()
    )
    cluster_sizes = sorted(len(cluster) for cluster in first.cluster_reports())
    return {
        "settings": settings,
        "exact_reports": len(capture_on.reports),
        "exact_mode_inert": exact_inert,
        "similarity_reports": len(first.reports),
        "similarity_indexed_plans": len(first.index_payload["entries"]),
        "novelty_reward_total": first.novelty_reward_total,
        "similarity_deterministic": deterministic,
        "cluster_sizes": cluster_sizes,
        "clusters_cover_all_reports": sum(cluster_sizes) == len(first.reports),
    }


def collect_snapshot(quick: bool = False) -> dict:
    corpus_size = 40 if quick else 150
    raws, plans, fmt = _plan_corpus(corpus_size)
    embedding = measure_embedding_determinism(raws, fmt)
    queries = measure_index_queries(plans, probes=min(len(plans), 20 if quick else 60))
    interleaved = measure_interleaved_identity(plans)
    merges = measure_merge_identity(plans)
    campaigns = measure_campaign_modes(quick)
    return {
        "benchmark": "similarity",
        "version": __version__,
        "python": platform.python_version(),
        "quick": quick,
        "numpy_available": arrays.numpy_available(),
        "embedding": embedding,
        "index_queries": queries,
        "interleaved": interleaved,
        "merge_identity": merges,
        "campaign_modes": campaigns,
        "tracked": {
            "query_throughput": queries["queries_per_second"],
            "indexed_entries": queries["entries"],
        },
        "invariants": {
            "embedding_deterministic": embedding["deterministic"],
            "embedding_integer_valued": embedding["integer_valued"],
            "numpy_list_identical": queries["numpy_list_identical"],
            "self_nearest_all_zero": queries["self_nearest_all_zero"],
            "interleaved_numpy_list_identical": interleaved[
                "interleaved_numpy_list_identical"
            ],
            "merge_union_exact": merges["union_exact"],
            "merge_order_and_layout_independent": merges[
                "order_and_layout_independent"
            ],
            "merge_idempotent": merges["idempotent"],
            "exact_mode_inert": campaigns["exact_mode_inert"],
            "similarity_campaign_deterministic": campaigns[
                "similarity_deterministic"
            ],
            "clusters_cover_all_reports": campaigns["clusters_cover_all_reports"],
            "query_throughput_at_least_25_per_second": (
                queries["queries_per_second"] >= QUERY_THROUGHPUT_FLOOR
            ),
        },
    }


if __name__ == "__main__":
    import json

    print(json.dumps(collect_snapshot(quick="--quick" in sys.argv), indent=2))
