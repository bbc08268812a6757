"""The repository's end-to-end benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/workloads.py``): ``campaign``, ``ingest`` and
``service_mixed``.  The run sets the workload up several times (the median
is ``setup_s``), measures closed loops for ``--seconds`` seconds, checks the
program's outputs, and prints three JSON lines: a header (seed, commit,
host, repeats), the details (every workload-specific figure, the checks),
and last the result ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
spans installed.  With ``--trace 1`` spans wrap the program's public layer
functions (``perfbench/tracing.py``) and the metrics are the per-layer self
times and counts; the first units (or a shorter service window) are then
re-run untraced to show that tracing changed no result and to measure its
overhead.  The traced run does not probe the host.

The command exits 0 only when every check passed; it exits 2 without a
result when the program's sources (``src/repro``) are not there.

End-to-end metrics, printed by every workload.  On a shared 2-vCPU host
the same pure-Python work takes from 1x to 2x its time, in spells of a
fraction of a second to minutes, as neighbours come and go, and no run is
long enough to average that out.  So every workload reports its times at
the reference host speed: a fixed probe of interpreter work runs between
the program's operations (before every fourth generated query, novelty
verdict or service request, after every ingest batch), and each time is
divided by the probe's slowness over its span -- its mean time over
``workloads.PROBE_REFERENCE_S``, the probe's time on an undisturbed core;
set-up times by the slowness over the whole measured window.  Probe time is never counted as the program's; the
measured figures are in the details (``*measured*``, ``host.slowness*``).
Run as a script, the benchmark runs on one CPU (``pin_to_one_cpu``).

* ``setup_s``: module import plus the median of three set-ups.
* ``peak_rss_mb``: the process's peak resident set.
* ``ops_per_s``: throughput -- generated queries per second of the
  campaigns (``campaign``); raw plan texts per second of the passes,
  replay plus novelty loop (``ingest``); requests completed per second of
  the window (``service_mixed``).
* ``p50_ms``: the median latency of the operation a caller waits for -- one
  generated query, from its generation to the next by the same oracle loop
  (``campaign``); one novelty verdict, embed plus ``nearest_distance`` plus
  ``add``, per unique plan (``ingest``); one read request, as the read
  kinds' medians weighted by the mix (``service_mixed``).

Tails are printed in the details, not gated: ``tail_ms`` is the highest
percentile with at least ten samples beyond it, taken per distinct campaign,
over the pass, or per fifth of the service window, median over those;
``latency`` gives the pooled tail with its percentile and sample count.  On
a 2-vCPU virtual machine these tails are set by the host's scheduling
hiccups and spread 0.17-0.64 across seeds, beyond the largest bound a gated
metric may have.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 3
#: Spans written out at the end of a traced run (the earliest ones).
SPAN_DUMP_LIMIT = 50_000

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
)

#: Per-layer metrics: (name, unit, span names summed as self time | None).
PER_LAYER = (
    ("sqlparser.lex_s", "s", ("sqlparser.lex",)),
    ("sqlparser.parse_s", "s", ("sqlparser.parse",)),
    ("sqlparser.parse_calls", "count", None),
    ("optimizer.plan_s", "s", ("optimizer.plan",)),
    ("optimizer.plan_calls", "count", None),
    ("dialects.shape_s", "s", ("dialects.shape",)),
    ("dialects.serialize_s", "s", ("dialects.serialize",)),
    ("dialects.execute_s", "s", ("dialects.execute",)),
    ("dialects.explain_s", "s", ("dialects.explain",)),
    ("dialects.prepared.ast_hit_ratio", "ratio", None),
    ("dialects.prepared.plan_hit_ratio", "ratio", None),
    ("testing.generate_s", "s", ("testing.generate",)),
    ("testing.qpg_observe_s", "s", ("testing.qpg_observe",)),
    ("testing.tlp_s", "s", ("testing.tlp",)),
    ("testing.cert_s", "s", ("testing.cert",)),
    ("testing.bound_s", "s", ("testing.bound",)),
    ("testing.rejected", "count", None),
    ("testing.new_plan_ratio", "ratio", None),
    ("engine.execute_s", "s", ("engine.execute",)),
    ("engine.execute_calls", "count", None),
    ("engine.rows_out", "count", None),
    ("storage.snapshot_builds", "count", None),
    ("storage.snapshot_build_s", "s", ("storage.snapshot_build",)),
    ("storage.snapshot_hit_ratio", "ratio", None),
    ("catalog.analyze_s", "s", ("catalog.analyze",)),
    ("catalog.analyze_calls", "count", None),
    ("converters.convert_s", "s", ("converters.convert",)),
    ("converters.conversions", "count", None),
    ("converters.cache_hit_ratio", "ratio", None),
    ("converters.evictions", "count", None),
    ("core.fingerprint_s", "s", ("core.fingerprint",)),
    ("pipeline.ingest_s", "s", ("pipeline.ingest",)),
    ("pipeline.coverage_add_s", "s", ("pipeline.coverage_add",)),
    ("pipeline.checkpoint_s", "s", ("pipeline.checkpoint",)),
    ("pipeline.dedup_ratio", "ratio", None),
    ("pipeline.store_bytes", "B", None),
    ("similarity.embed_s", "s", ("similarity.embed",)),
    ("similarity.nearest_s", "s", ("similarity.nearest",)),
    ("similarity.add_s", "s", ("similarity.add",)),
    ("service.decode_s", "s", ("service.decode",)),
    ("service.encode_s", "s", ("service.encode",)),
    ("service.bytes_out", "B", None),
    ("service.gate_read_wait_s", "s", ("service.gate_read_wait",)),
    ("service.gate_write_wait_s", "s", ("service.gate_write_wait",)),
    ("service.queue_s", "s", None),
    ("other_s", "s", None),
    ("trace.wall_s", "s", None),
    ("trace.overhead_ratio", "ratio", None),
)


def layer_self_names() -> List[str]:
    from perfbench.tracing import LAYERS

    return [f"{layer}.self_s" for layer in LAYERS]


def per_layer_units() -> Dict[str, str]:
    units = {name: unit for name, unit, _ in PER_LAYER}
    units.update({name: "s" for name in layer_self_names()})
    return units


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer_metrics(tracer, inst, measurement, workload, overhead_ratio: float):
    """Per-layer figures of a traced window, and whether they add up."""
    from perfbench.tracing import LAYER_OF_SPAN, LAYERS, root_time, self_times

    spans = tracer.spans()
    selfs = self_times(spans)
    wall = measurement.wall_s
    queue_s = 0.0
    if inst.client_threads:
        # Clients and server share the process: account the clients'
        # timeline.  A round trip's self time is server-side work plus
        # waiting; the server-side spans are subtracted to leave the wait.
        client_spans, server_spans = [], []
        for ident, _, thread_spans in tracer.threads():
            (client_spans if ident in inst.client_threads else server_spans).extend(thread_spans)
        queue_s = selfs.pop("service.roundtrip", 0.0) - root_time(server_spans)
        covered = root_time(client_spans)
    else:
        covered = root_time(spans)
    unknown = set(selfs) - set(LAYER_OF_SPAN)
    if unknown:
        raise RuntimeError(f"spans without a layer: {sorted(unknown)}")
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, seconds in selfs.items():
        layer_self[LAYER_OF_SPAN[name]] += seconds
    layer_self["service"] += queue_s
    other_s = wall - covered

    counters = inst.counters.values
    ast_hits, ast_misses, plan_hits, plan_misses = inst.prepared_totals()
    hub_hits, hub_misses, hub_evictions = inst.hub_totals()
    builds = sum(1 for span in spans if span.name == "storage.snapshot_build")
    snapshot_calls = builds + sum(1 for span in spans if span.name == "storage.snapshot_hit")
    computed = {
        "sqlparser.parse_calls": counters["sqlparser.parse_calls"],
        "optimizer.plan_calls": counters["optimizer.plan_calls"],
        "dialects.prepared.ast_hit_ratio": _ratio(ast_hits, ast_hits + ast_misses),
        "dialects.prepared.plan_hit_ratio": _ratio(plan_hits, plan_hits + plan_misses),
        "testing.rejected": sum(inst.counters.rejected.values()),
        "testing.new_plan_ratio": _ratio(counters["testing.new_plans"], counters["testing.observed"]),
        "engine.execute_calls": counters["engine.execute_calls"],
        "engine.rows_out": counters["engine.rows_out"],
        "storage.snapshot_builds": builds,
        "storage.snapshot_hit_ratio": _ratio(snapshot_calls - builds, snapshot_calls),
        "catalog.analyze_calls": counters["catalog.analyze_calls"],
        "converters.conversions": counters["converters.conversions"],
        "converters.cache_hit_ratio": _ratio(hub_hits, hub_hits + hub_misses),
        "converters.evictions": hub_evictions,
        "pipeline.dedup_ratio": 1.0
        - _ratio(counters["pipeline.new_fingerprints"], counters["pipeline.sources"])
        if counters["pipeline.sources"]
        else 0.0,
        "pipeline.store_bytes": workload.store_bytes() if hasattr(workload, "store_bytes") else 0,
        "service.bytes_out": counters["service.bytes_out"],
        "service.queue_s": queue_s,
        "other_s": other_s,
        "trace.wall_s": wall,
        "trace.overhead_ratio": overhead_ratio,
    }
    metrics: Dict[str, float] = {}
    for name, _, span_names in PER_LAYER:
        if span_names is None:
            metrics[name] = float(computed[name])
        else:
            metrics[name] = sum(selfs.get(span_name, 0.0) for span_name in span_names)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    accounted = sum(layer_self.values()) + other_s
    return metrics, accounted, {
        "testing.rejected_by_class": dict(sorted(inst.counters.rejected.items())),
        "testing.crashes_by_class": dict(sorted(inst.counters.crashes.items())),
        "trace.spans": len(spans),
        "trace.accounted_s": accounted,
    }


def _source_digest() -> str:
    digest = hashlib.sha256()
    for directory, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def _commit() -> Optional[str]:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip() or None


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _write_spans(tracer, workload_name: str, seed: int) -> str:
    from perfbench.tracing import dump

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload_name}-seed{seed}.json")
    records = dump(tracer)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"total": len(records), "spans": records[:SPAN_DUMP_LIMIT]}, handle)
    return os.path.relpath(path, ROOT)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("campaign", "ingest", "service_mixed"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true", help="small inputs and one repeat (for the tests)"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}/repro", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    import numpy

    import repro  # noqa: F401  (the import is part of set-up)
    from perfbench import tracing, workloads
    from repro.engine import arrays

    import_s = time.perf_counter() - _PROCESS_START
    workload = workloads.WORKLOADS[args.workload](args.seed, quick=args.quick, root=ROOT)
    try:
        setup_samples = []
        for _ in range(1 if args.quick else SETUP_REPEATS):
            started = time.perf_counter()
            workload.setup()
            setup_samples.append(time.perf_counter() - started)
        tracer = inst = None
        if args.trace:
            tracer = tracing.Tracer()
            inst = tracing.instrument(tracer, watch=workload.watch())
        try:
            measurement = workload.measure(args.seconds, tracer, inst)
        finally:
            if inst is not None:
                inst.uninstall()
        checks = []
        details: Dict[str, Any] = dict(measurement.details)
        if args.trace:
            reference_s, identity = workload.reference()
            checks.extend(identity)
            overhead = measurement.compared_s / reference_s - 1.0 if reference_s else 0.0
            metrics, accounted, extra = per_layer_metrics(
                tracer, inst, measurement, workload, overhead
            )
            details.update(extra)
            checks.append(
                workloads.Check(
                    "trace.layers_add_up",
                    abs(accounted - measurement.wall_s) <= 1e-6 * max(1.0, measurement.wall_s),
                    {"accounted_s": accounted, "wall_s": measurement.wall_s},
                )
            )
            details["trace.spans_file"] = _write_spans(tracer, args.workload, args.seed)
            units = per_layer_units()
        else:
            latency = workloads.summarize(measurement.latencies)
            details.update(
                {
                    "latency": latency,
                    "tail_ms": statistics.median(measurement.tails),
                    "tails_by_repeat_ms": measurement.tails,
                }
            )
            metrics = {
                # At the host's mean speed over the measured window: probes
                # around a set-up sample the host at two instants only.
                "setup_s": (import_s + statistics.median(setup_samples)) / measurement.slowness,
                "peak_rss_mb": _peak_rss_mb(),
                "ops_per_s": measurement.rate,
                "p50_ms": measurement.p50_ms,
            }
            units = dict(END_TO_END)
        checks.extend(workload.check())
        details["results_digest"] = workload.results_digest()
    finally:
        workload.close()

    attempted = max(1, measurement.attempted)
    details["failed_ratio"] = measurement.failed / attempted
    details["checks"] = [check.to_dict() for check in checks]
    correct = all(check.ok for check in checks) and measurement.failed == 0
    header = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "commit": _commit(),
        "src_digest": _source_digest(),
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_enabled": arrays.numpy_enabled(),
        "import_s": import_s,
        "setup_samples_s": setup_samples,
        "slowness": measurement.slowness,
        "repeats": len(measurement.unit_rates),
        "repeat_rates": measurement.unit_rates,
        "repeat_median": statistics.median(measurement.unit_rates),
        "repeat_spread": workloads.spread(measurement.unit_rates),
    }
    print(json.dumps({"header": header}))
    print(json.dumps({"details": details}, default=str))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": measurement.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    sys.stdout.flush()
    return 0 if correct else 1


def pin_to_one_cpu() -> None:
    """Run every thread of the benchmark on one CPU.

    On a virtual machine a thread woken on an idle vCPU waits for the host
    to schedule that vCPU, for a time set by the neighbours; the service's
    requests hand off between threads several times each, and numpy may
    start a thread pool.  On one CPU the hand-offs are plain context
    switches, and the host-speed probe runs where the program runs.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


if __name__ == "__main__":
    pin_to_one_cpu()
    sys.exit(main())
