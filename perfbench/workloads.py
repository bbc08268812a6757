"""The benchmark's three workloads.

Each workload builds its inputs from the seed in :meth:`setup`, runs closed
loops (every caller waits for its reply) in :meth:`measure`, and verifies the
program's outputs in :meth:`check`.  Work is organised in *units* that are
fully determined by ``(seed, unit index)``: a traced run can re-run its first
units untraced with :meth:`reference` and compare results and times.  Untraced,
every workload probes the host's speed between operations and reports its
times at the reference speed (:class:`HostSpeed`).

* ``campaign`` -- one caller runs :class:`TestingCampaign` s in the default
  configuration (QPG + TLP, CERT and the bound oracle, exact novelty,
  vectorized executor, caches on) over the six relational dialects, one
  campaign per unit.
* ``ingest`` -- a cross-DBMS corpus of raw EXPLAIN texts is replayed into a
  durable :class:`CoverageStore` in fixed-size batches with a checkpoint
  after each, then the QPG similarity-novelty loop (``nearest_distance``
  then ``add``) runs over the unique plans in ingest order; one pass per
  unit, the same stream every pass.
* ``service_mixed`` -- one client drives an in-process :class:`QueryService`
  (``nproc`` workers) with reads, EXPLAINs and single-row INSERTs.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import shutil
import statistics
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

clock = time.perf_counter

#: The Table V rows every campaign run must reproduce, as a count.
EXPECTED_TABLE5_REPORTS = 17

#: The query budget of one campaign: a third of the default one per
#: dialect, so a window holds three times as many generated schemas (one
#: default campaign's speed varies by +-15% with its seed).  Everything
#: else is the default configuration.
CAMPAIGN_BUDGET = {"queries_per_dbms": 50, "cert_pairs_per_dbms": 20, "bound_checks_per_dbms": 7}
#: Roughly how long one campaign takes on a 2-vCPU host; sets how many
#: distinct campaigns fit in a window.
CAMPAIGN_NOMINAL_S = 1.2
#: Campaigns a traced run re-runs untraced to measure the tracing overhead.
CAMPAIGN_COMPARED_UNITS = 5

#: The host-speed probe (:class:`HostSpeed`): its work, and its time on an
#: undisturbed core of the 2-vCPU development host (4th-generation Xeon,
#: Python 3.11), which defines the reference speed.
PROBE_ITERATIONS = 1500
PROBE_REFERENCE_S = 140e-6
#: A probe runs before every this many generated queries or novelty
#: verdicts, and after every ingest batch.
PROBE_EVERY = 4


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Median and tail of latency samples (seconds in, milliseconds out).

    The tail is the highest percentile that has at least ten samples beyond
    it; its percentile and sample count are recorded beside it.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if not count:
        return {"p50_ms": 0.0, "tail_ms": 0.0, "tail_pct": 0.0, "samples": 0}
    tail_index = count - 11 if count > 10 else count - 1
    return {
        "p50_ms": statistics.median(ordered) * 1000.0,
        "tail_ms": ordered[tail_index] * 1000.0,
        "tail_pct": 100.0 * (tail_index + 1) / count,
        "samples": count,
    }


class HostSpeed:
    """How fast the host runs Python right now, sampled between operations.

    On a shared 2-vCPU host the same pure-Python work takes from 1x to 2x
    its time, in spells of a fraction of a second to minutes, as neighbours
    come and go; no run is long enough to average that out.  The probe is a
    fixed piece of interpreter work (dict updates) run between the
    program's operations; its mean time over a span divided by
    ``PROBE_REFERENCE_S`` is the host's slowness over that span, and the
    program's times divided by it are its times at the reference speed.
    Probe time is never counted as the program's.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def probe(self) -> float:
        started = clock()
        table: Dict[int, int] = {}
        for i in range(PROBE_ITERATIONS):
            table[i % 97] = table.get(i % 97, 0) + i
        elapsed = clock() - started
        self.samples.append(elapsed)
        return elapsed

    def slowness(self, since: int = 0, until: Optional[int] = None) -> float:
        """Mean probe time of ``samples[since:until]`` over the reference."""
        window = self.samples[since:until]
        return statistics.fmean(window) / PROBE_REFERENCE_S


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 below 2 values)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / middle if middle else 0.0


class Check:
    """One output check: a name, whether it held, and what was seen."""

    def __init__(self, name: str, ok: bool, detail: Any = None) -> None:
        self.name = name
        self.ok = bool(ok)
        self.detail = detail

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


class Measurement:
    """What one measured window produced."""

    def __init__(self) -> None:
        #: Per-unit primary rates (ops/s), for the median and its spread.
        self.unit_rates: List[float] = []
        #: Latency samples (seconds) of the workload's primary operation.
        self.latencies: List[float] = []
        #: The tail latency (ms) of each unit; their median is reported,
        #: which a few slow outliers in one unit cannot move.
        self.tails: List[float] = []
        self.attempted = 0
        self.failed = 0
        #: Main-thread (or client-thread) time covered by the units.
        self.wall_s = 0.0
        #: Wall time of the work :meth:`reference` re-runs untraced, for the
        #: tracing-overhead comparison.
        self.compared_s = 0.0
        self.details: Dict[str, Any] = {}
        #: The end-to-end throughput (ops/s).
        self.rate = 0.0
        #: The end-to-end median latency (ms).
        self.p50_ms = 0.0
        #: The host's slowness over the whole window (1.0 when traced).
        self.slowness = 1.0


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------


class CampaignWorkload:
    name = "campaign"

    def __init__(self, seed: int, quick: bool = False, root: str = ".") -> None:
        from repro.dialects import RELATIONAL_DIALECTS

        self.seed = seed
        self.dbms_names = list(RELATIONAL_DIALECTS)
        self.quick = quick
        self.units: List[Dict[str, Any]] = []
        self.unit0_fingerprints: Optional[frozenset] = None
        self.unit0_rows: Optional[List[Dict[str, str]]] = None

    def plan(self, seconds: float) -> int:
        """Distinct campaigns for a window of ``seconds``."""
        if self.quick:
            return 2
        return max(2, round(seconds / CAMPAIGN_NOMINAL_S))

    def unit_seed(self, unit: int) -> int:
        # Rounds use seed+i, seed+100+i and seed+200+i for i < 6, so units
        # 1000 apart never share a generator seed.
        return self.seed + unit * 1000

    def _campaign(self, unit: int, **budget):
        from repro.testing import TestingCampaign

        return TestingCampaign(dbms_names=self.dbms_names, seed=self.unit_seed(unit), **budget)

    def setup(self) -> None:
        # A short campaign: dialect construction, lazy imports and
        # first-use compilation, i.e. the time to a first small result.
        self._campaign(
            999, queries_per_dbms=10, cert_pairs_per_dbms=4, bound_checks_per_dbms=2
        ).run()

    def watch(self) -> list:
        return []

    def _run_unit(self, unit: int, stamps: List[Tuple[int, float, float]], host=None):
        """One campaign: its result, its time and its per-query latencies,
        both less the probes' time, and the host's slowness meanwhile.

        ``stamps`` gets one ``(oracle loop, arrived, resumed)`` per generated
        query, where a probe may run between arrival and resumption.  One
        latency per generated query: from its generation to the next by the
        same oracle loop.  The last query of each loop is not timed: its
        interval would include the next round's dialect and schema set-up,
        which ops_per_s accounts instead.
        """
        campaign = self._campaign(unit, **CAMPAIGN_BUDGET)
        first = len(stamps)
        probes = len(host.samples) if host is not None else 0
        started = clock()
        result = campaign.run()
        ended = clock()
        own = stamps[first:]
        latencies = [
            arrived - resumed
            for (source, _, resumed), (next_source, arrived, _) in zip(own, own[1:])
            if source == next_source
        ]
        if host is None or len(host.samples) == probes:
            return result, ended - started, latencies, 1.0
        probe_s = sum(host.samples[probes:])
        return result, ended - started - probe_s, latencies, host.slowness(probes)

    def measure(self, seconds: float, tracer=None, inst=None) -> Measurement:
        from repro.testing.generator import RandomQueryGenerator

        measurement = Measurement()
        # Probes only in the untraced run: there they would be time that no
        # span covers.
        host = HostSpeed() if tracer is None else None
        stamps: List[Tuple[int, float, float]] = []
        original = RandomQueryGenerator.select_query

        def select_query(generator):
            arrived = clock()
            if host is not None and len(stamps) % PROBE_EVERY == 0:
                host.probe()
            if tracer is not None:
                # The spans of one generated query share its id.
                tracer.set_request(f"q{len(stamps)}")
            stamps.append((id(generator), arrived, clock()))
            return original(generator)

        RandomQueryGenerator.select_query = select_query
        try:
            for unit in range(self.plan(seconds)):
                # Garbage of the previous campaign is not this one's cost.
                gc.collect()
                result, elapsed, latencies, slowness = self._run_unit(unit, stamps, host)
                del stamps[:]
                self._record(unit, result, elapsed, slowness, measurement)
                measurement.latencies.extend(latency / slowness for latency in latencies)
                measurement.tails.append(summarize(latencies)["tail_ms"] / slowness)
        finally:
            RandomQueryGenerator.select_query = original
        units = self.units
        queries = [item["queries"] for item in units]
        unique = [item["unique_plans"] for item in units]
        reference_s = sum(item["seconds"] / item["slowness"] for item in units)
        measurement.rate = sum(queries) / reference_s
        measurement.p50_ms = summarize(measurement.latencies)["p50_ms"]
        if host is not None:
            measurement.slowness = host.slowness()
        measurement.details = {
            "campaign.queries_per_s": measurement.rate,
            "campaign.unique_plans_per_s": sum(unique) / reference_s,
            "campaign.unique_plans": statistics.median(unique),
            "campaign.unique_plans_by_unit": unique,
            "campaign.queries_per_unit": queries[0],
            "campaign.unit_seeds": [item["seed"] for item in units],
            "campaign.budget": CAMPAIGN_BUDGET,
            "campaign.measured_queries_per_s": sum(queries) / sum(item["seconds"] for item in units),
            "host.slowness_by_unit": [item["slowness"] for item in units],
        }
        return measurement

    def _record(
        self, unit: int, result, elapsed: float, slowness: float, measurement: Measurement
    ) -> None:
        rows = result.table5_rows()
        self.units.append(
            {
                "seed": self.unit_seed(unit),
                "queries": result.queries_generated,
                "unique_plans": result.unique_plans,
                "seconds": elapsed,
                "slowness": slowness,
                "rows": rows,
            }
        )
        if unit == 0:
            self.unit0_fingerprints = frozenset(result.plan_fingerprints)
            self.unit0_rows = rows
        if unit < CAMPAIGN_COMPARED_UNITS:
            measurement.compared_s += elapsed
        measurement.unit_rates.append(result.queries_generated * slowness / elapsed)
        measurement.attempted += result.queries_generated
        measurement.wall_s += elapsed

    def reference(self) -> Tuple[float, List[Check]]:
        """Re-run the first units untraced; their time and the identity
        checks (coverage of unit 0, Table V rows of every unit re-run)."""
        gc.collect()
        result, elapsed, _, _ = self._run_unit(0, [])
        coverage = frozenset(result.plan_fingerprints)
        same_rows = result.table5_rows() == self.unit0_rows
        for unit in range(1, min(CAMPAIGN_COMPARED_UNITS, len(self.units))):
            gc.collect()
            result, seconds, _, _ = self._run_unit(unit, [])
            elapsed += seconds
            same_rows &= result.table5_rows() == self.units[unit]["rows"]
        checks = [
            Check(
                "campaign.trace_identical_coverage",
                coverage == self.unit0_fingerprints,
                len(coverage),
            ),
            Check("campaign.trace_identical_table5", same_rows),
        ]
        return elapsed, checks

    def results_digest(self) -> str:
        payload = json.dumps([sorted(self.unit0_fingerprints), self.unit0_rows], sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def check(self) -> List[Check]:
        from repro.testing.bugs import KNOWN_BUGS

        known = {(bug.dbms, bug.found_by, bug.bug_id, bug.status, bug.severity) for bug in KNOWN_BUGS}
        found = set()
        unknown = []
        for item in self.units:
            for row in item["rows"]:
                key = (row["DBMS"], row["Found by"], row["Bug ID"], row["Status"], row["Severity"])
                if key in known:
                    found.add(key)
                else:
                    unknown.append(key)
        return [
            Check("campaign.reports_are_table5", not unknown, unknown[:5]),
            Check(
                "campaign.table5_reports",
                len(found) == EXPECTED_TABLE5_REPORTS,
                {"found": len(found), "expected": EXPECTED_TABLE5_REPORTS},
            ),
        ]

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

INGEST_BATCH = 128
TPCH_SCALE = 0.05
#: Distinct texts of the stream; every seed's corpus has 1370-1510.
INGEST_DISTINCT = 1300
#: Roughly how long one pass over the stream takes on a 2-vCPU host; sets
#: how many passes fit in a window.
INGEST_NOMINAL_S = 4.0


class IngestWorkload:
    name = "ingest"

    def __init__(self, seed: int, quick: bool = False, root: str = ".") -> None:
        self.seed = seed
        self.queries_per_dialect = 20 if quick else 100
        self.quick = quick
        self.scratch = os.path.join(root, ".perfbench_tmp", f"ingest-{os.getpid()}")
        self.stream: List[Any] = []
        self.corpus_stats: Dict[str, Any] = {}
        self.passes: List[Dict[str, Any]] = []

    # -- inputs ------------------------------------------------------------------

    def build_corpus(self) -> Tuple[List[Any], Dict[str, Any]]:
        """Raw EXPLAIN texts of every relational dialect in every format its
        converter parses (TPC-H and generator queries), plus the MongoDB and
        Neo4j TPC-H rewrites."""
        from repro.benchmarking import tpch
        from repro.converters import ConverterHub
        from repro.dialects import RELATIONAL_DIALECTS, create_dialect
        from repro.errors import ReproError
        from repro.pipeline import PlanSource
        from repro.testing.generator import GeneratorConfig, RandomQueryGenerator

        hub = ConverterHub()
        sources: List[Any] = []
        rejected: Dict[str, int] = {}

        def explain_all(dialect, name: str, queries, formats) -> None:
            for query in queries:
                for format_name in formats:
                    try:
                        output = dialect.explain(query, format=format_name)
                    except ReproError as exc:  # generator queries a dialect rejects
                        rejected[type(exc).__name__] = rejected.get(type(exc).__name__, 0) + 1
                        continue
                    sources.append(PlanSource(name, output.text, format_name))

        for index, name in enumerate(RELATIONAL_DIALECTS):
            dialect = create_dialect(name)
            formats = [f for f in hub.converter(name).formats if f in dialect.plan_formats]
            tpch.load_into(dialect, scale=TPCH_SCALE, seed=self.seed)
            explain_all(dialect, name, tpch.QUERIES.values(), formats)
            generator = RandomQueryGenerator(
                seed=self.seed * 100 + index, config=GeneratorConfig(max_tables=2)
            )
            dialect = create_dialect(name)
            for statement in generator.schema_statements():
                dialect.execute(statement)
            dialect.analyze_tables()
            queries = [generator.select_query() for _ in range(self.queries_per_dialect)]
            explain_all(dialect, name, queries, formats)
        mongodb = create_dialect("mongodb")
        tpch.load_mongodb(mongodb, scale=TPCH_SCALE, seed=self.seed)
        commands = [
            json.dumps({"aggregate": collection, "pipeline": pipeline})
            for collection, pipeline in tpch.MONGODB_PIPELINES.values()
        ]
        explain_all(mongodb, "mongodb", commands, hub.converter("mongodb").formats)
        neo4j = create_dialect("neo4j")
        tpch.load_neo4j(neo4j, scale=TPCH_SCALE, seed=self.seed)
        explain_all(neo4j, "neo4j", tpch.NEO4J_QUERIES.values(), hub.converter("neo4j").formats)
        return sources, rejected

    def setup(self) -> None:
        sources, rejected = self.build_corpus()
        distinct = list({(s.dbms, s.format, s.text): s for s in sources}.values())
        rng = random.Random(self.seed)
        rng.shuffle(distinct)
        # A fixed number of distinct texts, so every seed's pass does the
        # same amount of work: the novelty loop's cost grows faster than the
        # number of unique plans.
        distinct = distinct[:INGEST_DISTINCT]
        # Every distinct text is followed by one repeat of a text drawn from
        # the stream so far: half of the stream is duplicates, some of them
        # far enough back to have left the 1024-entry conversion cache.
        stream: List[Any] = []
        for source in distinct:
            stream.append(source)
            stream.append(stream[rng.randrange(len(stream))])
        self.stream = stream
        self._warm_up(stream[:2 * INGEST_BATCH])
        self.corpus_stats = {
            "texts": len(stream),
            "distinct_texts": len(distinct),
            "duplicate_share": (len(stream) - len(distinct)) / len(stream),
            "batch": INGEST_BATCH,
            "corpus_rejected": rejected,
        }

    @staticmethod
    def _warm_up(sources) -> None:
        """Convert, embed and index a slice in memory: first-use costs
        (lazy imports, compiled patterns) belong to set-up, not the passes."""
        from repro.converters import ConverterHub
        from repro.pipeline import PlanIngestService
        from repro.similarity import PlanIndex, embedding

        index = PlanIndex()
        with PlanIngestService(hub=ConverterHub(), max_workers=1) as service:
            for entry in service.ingest_batch(sources).entries:
                if entry.ok and entry.duplicate_of is None and entry.plan is not None:
                    vector = embedding.embed_plan(entry.plan)
                    index.nearest_distance(vector)
                    index.add(entry.fingerprint, vector)

    def watch(self) -> list:
        return []

    # -- one pass ------------------------------------------------------------------

    def _run_pass(self, unit: int, tracer=None, host=None) -> Dict[str, Any]:
        """One pass: replay the stream in batches, then the novelty loop.

        With ``host``, a probe runs after every batch and before every
        ``PROBE_EVERY``-th novelty verdict; no time below includes one.
        """
        from repro.converters import ConverterHub
        from repro.pipeline import PlanIngestService
        from repro.similarity import PlanIndex, embedding

        path = os.path.join(self.scratch, f"pass-{unit}-{len(self.passes)}")
        shutil.rmtree(path, ignore_errors=True)
        # One conversion worker, so the pass does the same work on any host
        # (parallel conversion is outside this benchmark).
        service = PlanIngestService(hub=ConverterHub(), max_workers=1, persist_to=path)
        batch_latencies: List[float] = []
        verdict_latencies: List[float] = []
        unique: List[Tuple[str, Any]] = []
        seen = set()
        failed = 0
        probes = len(host.samples) if host is not None else 0
        started = clock()
        try:
            for number, offset in enumerate(range(0, len(self.stream), INGEST_BATCH)):
                if tracer is not None:
                    tracer.set_request(f"u{unit}/b{number}")
                batch_start = clock()
                report = service.ingest_batch(self.stream[offset:offset + INGEST_BATCH])
                service.checkpoint()
                batch_latencies.append(clock() - batch_start)
                for entry in report.entries:
                    if not entry.ok:
                        failed += 1
                    elif entry.fingerprint not in seen:
                        seen.add(entry.fingerprint)
                        unique.append((entry.fingerprint, entry.plan))
                if host is not None:
                    host.probe()
            ingested = clock()
            ingest_probes = len(host.samples) if host is not None else 0
            index = PlanIndex()
            distances: List[float] = []
            for number, (fingerprint, plan) in enumerate(unique):
                if host is not None and number % PROBE_EVERY == 0:
                    host.probe()
                if tracer is not None:
                    tracer.set_request(f"u{unit}/p{number}")
                if plan is None:
                    failed += 1
                    continue
                step_start = clock()
                vector = embedding.embed_plan(plan)
                distances.append(index.nearest_distance(vector))
                index.add(fingerprint, vector)
                verdict_latencies.append(clock() - step_start)
            ended = clock()
        finally:
            service.close()
        ingest_s, novelty_s = ingested - started, ended - ingested
        ingest_slowness = novelty_slowness = 1.0
        if host is not None:
            # Each part at the host's speed during that part.
            ingest_s -= sum(host.samples[probes:ingest_probes])
            novelty_s -= sum(host.samples[ingest_probes:])
            ingest_slowness = host.slowness(probes, ingest_probes)
            if len(host.samples) > ingest_probes:
                novelty_slowness = host.slowness(ingest_probes)
        return {
            "path": path,
            "texts": len(self.stream),
            "ingest_s": ingest_s,
            "novelty_s": novelty_s,
            "seconds": ingest_s + novelty_s,
            "ingest_slowness": ingest_slowness,
            "novelty_slowness": novelty_slowness,
            "batch_latencies": batch_latencies,
            "verdict_latencies": verdict_latencies,
            "unique": [fingerprint for fingerprint, _ in unique],
            "distances": distances,
            "failed": failed,
            "store_bytes": _tree_bytes(path),
            "hub": service.hub.cache_snapshot().to_dict(),
        }

    def plan(self, seconds: float) -> int:
        """Passes over the stream for a window of ``seconds``."""
        if self.quick:
            return 1
        return max(2, round(seconds / INGEST_NOMINAL_S))

    def measure(self, seconds: float, tracer=None, inst=None) -> Measurement:
        measurement = Measurement()
        # Probes only in the untraced run: there they would be time that no
        # span covers.
        host = HostSpeed() if tracer is None else None
        batch_latencies: List[float] = []
        for unit in range(self.plan(seconds)):
            # Garbage of the previous pass is not this one's cost.
            gc.collect()
            result = self._run_pass(unit, tracer, host)
            self.passes.append(result)
            slowness = result["novelty_slowness"]
            if unit == 0:
                measurement.compared_s = result["seconds"]
            measurement.unit_rates.append(
                result["texts"]
                / (
                    result["ingest_s"] / result["ingest_slowness"]
                    + result["novelty_s"] / slowness
                )
            )
            verdicts = [latency / slowness for latency in result["verdict_latencies"]]
            measurement.latencies.extend(verdicts)
            measurement.tails.append(summarize(verdicts)["tail_ms"])
            batch_latencies.extend(
                latency / result["ingest_slowness"] for latency in result["batch_latencies"]
            )
            measurement.attempted += result["texts"] + len(result["unique"])
            measurement.failed += result["failed"]
            measurement.wall_s += result["seconds"]
        passes = self.passes
        ingest_s = sum(p["ingest_s"] / p["ingest_slowness"] for p in passes)
        novelty_s = sum(p["novelty_s"] / p["novelty_slowness"] for p in passes)
        measurement.rate = sum(p["texts"] for p in passes) / (ingest_s + novelty_s)
        measurement.p50_ms = summarize(measurement.latencies)["p50_ms"]
        if host is not None:
            measurement.slowness = host.slowness()
        measurement.details = dict(
            self.corpus_stats,
            **{
                "ingest.plans_per_s": sum(p["texts"] for p in passes) / ingest_s,
                "ingest.nn_queries_per_s": sum(len(p["distances"]) for p in passes) / novelty_s,
                "ingest.store_bytes_per_plan": statistics.median(
                    p["store_bytes"] / len(p["unique"]) for p in passes
                ),
                "ingest.unique_plans": len(passes[0]["unique"]),
                "ingest.batch_latency": summarize(batch_latencies),
                "ingest.conversion_cache": passes[0]["hub"],
                "ingest.passes": len(passes),
                "ingest.measured_texts_per_s": sum(p["texts"] for p in passes)
                / sum(p["seconds"] for p in passes),
                "host.slowness_by_pass": [
                    [p["ingest_slowness"], p["novelty_slowness"]] for p in passes
                ],
                "ingest.flush_policy": "ingest_batch flushes appends; checkpoint() (fsync'd atomic save) after every batch",
            },
        )
        return measurement

    def store_bytes(self) -> float:
        return statistics.median(p["store_bytes"] for p in self.passes)

    def reference(self) -> Tuple[float, List[Check]]:
        gc.collect()
        result = self._run_pass(0)
        first = self.passes[0]
        checks = [
            Check(
                "ingest.trace_identical_plans",
                result["unique"] == first["unique"],
                len(result["unique"]),
            ),
            Check("ingest.trace_identical_distances", result["distances"] == first["distances"]),
        ]
        self.passes.append(result)
        return result["seconds"], checks

    def results_digest(self) -> str:
        first = self.passes[0]
        payload = json.dumps([first["unique"], first["distances"]])
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def check(self) -> List[Check]:
        from repro.pipeline.coverage import CoverageStore

        checks = [
            Check(
                "ingest.every_source_converts",
                all(p["failed"] == 0 for p in self.passes),
                [p["failed"] for p in self.passes],
            )
        ]
        reopened_ok = True
        for result in self.passes:
            store = CoverageStore(path=result["path"])
            try:
                reopened_ok &= set(store.fingerprints()) == set(result["unique"])
            finally:
                store.close()
        checks.append(Check("ingest.reopened_store_matches", reopened_ok, len(self.passes)))
        return checks

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)
        parent = os.path.dirname(self.scratch)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)


def _tree_bytes(path: str) -> int:
    total = 0
    for directory, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(directory, name))
    return total


# ---------------------------------------------------------------------------
# service_mixed
# ---------------------------------------------------------------------------

WRITE_SHARE = 0.10
EXPLAIN_SHARE = 0.10
#: Read kinds and their shares of the reads.
READ_MIX = (("point", 0.25), ("group", 0.25), ("topn", 0.25), ("join", 0.25))
READ_KINDS = tuple(kind for kind, _ in READ_MIX)
READ_WEIGHTS = tuple(weight for _, weight in READ_MIX)
#: Closed-loop clients.  One: with two, the clients and the server's loop
#: and worker threads contend for one interpreter lock, a request's time is
#: mostly hand-offs between threads, and the request rate spread 0.56
#: (IQR over median) across ten seeds on a 2-vCPU host.  With one client
#: the server is idle between requests, so the client can probe the host.
SERVICE_CLIENTS = 1
#: Slices of the window whose completion rates are the service's repeats.
SLICES = 5


def build_service_dialect(seed: int, rows: int, registry=None):
    """The service's PostgreSQL dialect, loaded with seeded data.

    ``items`` is the read table, ``cats`` its join partner and ``events``
    the separate table that INSERTs go to.
    """
    from repro.dialects import create_dialect

    rng = random.Random(seed)
    if registry is not None:
        dialect = registry.catalog("bench").dialect("postgresql")
    else:
        dialect = create_dialect("postgresql")
    dialect.execute("CREATE TABLE items (id INT PRIMARY KEY, grp INT, cat INT, val FLOAT, qty INT)")
    dialect.execute("CREATE TABLE cats (cid INT PRIMARY KEY, cname TEXT, region INT)")
    dialect.execute("CREATE TABLE events (eid INT PRIMARY KEY, client INT, amount FLOAT)")
    database = dialect.database
    database.insert_rows(
        "items",
        [
            {
                "id": key,
                "grp": rng.randrange(50),
                "cat": rng.randrange(200),
                "val": round(rng.uniform(0, 1000), 2),
                "qty": rng.randrange(100),
            }
            for key in range(rows)
        ],
    )
    database.insert_rows(
        "cats", [{"cid": key, "cname": f"c{key}", "region": key % 7} for key in range(200)]
    )
    dialect.analyze_tables()
    return dialect


def read_pool(seed: int, rows: int) -> Dict[str, List[str]]:
    """The distinct read texts of one seed, by kind.

    Filter constants are drawn from fixed strata (2-17% of ``items``
    qualify), so every seed's pool has the same spread of selectivities and
    only the exact values vary.
    """
    rng = random.Random(seed * 7 + 1)
    strata = [2 + 2 * step + rng.randrange(2) for step in range(8)]
    return {
        "point": [
            f"SELECT id, grp, cat, val, qty FROM items WHERE id = {rng.randrange(rows)}"
            for _ in range(64)
        ],
        "group": [
            "SELECT grp, COUNT(*) AS n, SUM(val) AS total FROM items "
            f"WHERE qty < {limit} GROUP BY grp ORDER BY grp"
            for limit in strata
        ],
        "topn": [
            f"SELECT id, val FROM items WHERE grp = {rng.randrange(50)} "
            "ORDER BY val DESC, id LIMIT 10"
            for _ in range(8)
        ],
        "join": [
            "SELECT c.region, COUNT(*) AS n, SUM(i.val) AS total FROM items i "
            f"JOIN cats c ON i.cat = c.cid WHERE i.qty < {limit} "
            "GROUP BY c.region ORDER BY c.region"
            for limit in reversed(strata)
        ],
    }


class ServiceWorkload:
    name = "service_mixed"

    def __init__(self, seed: int, quick: bool = False, root: str = ".") -> None:
        self.seed = seed
        self.rows = 2_000 if quick else 20_000
        self.workers = os.cpu_count() or 1
        self.clients = SERVICE_CLIENTS
        self.pool = read_pool(seed, self.rows)
        self.service = None
        self.dialect = None
        self.sessions: List[Any] = []
        #: Distinct serialized results seen per read text.
        self.results: Dict[str, set] = {}
        self.results_lock = threading.Lock()
        self.acknowledged_writes = 0
        self.next_event = 0
        self.windows: List[Dict[str, Any]] = []

    # -- lifecycle -----------------------------------------------------------------

    def _start(self):
        from repro.service import QueryService, ServiceClient
        from repro.service.tenants import TenantRegistry

        registry = TenantRegistry()
        dialect = build_service_dialect(self.seed, self.rows, registry)
        service = QueryService(
            max_workers=self.workers, read_dispatch="thread", registry=registry
        ).start()
        sessions = []
        for _ in range(self.clients):
            client = ServiceClient(service.address)
            sessions.append(client.open_session("postgresql", tenant="bench"))
        # Warm-up: every distinct read text once, so the window starts with
        # parsed statements and built snapshots.
        for texts in self.pool.values():
            for text in texts:
                sessions[0].execute(text)
        return service, dialect, sessions

    def setup(self) -> None:
        self.close()
        self.service, self.dialect, self.sessions = self._start()

    def watch(self) -> list:
        return [self.dialect.prepared]

    def close(self) -> None:
        for session in self.sessions:
            session.client.close()
        self.sessions = []
        if self.service is not None:
            self.service.stop()
            self.service = None

    # -- the closed loops --------------------------------------------------------------

    def _client_loop(self, number: int, session, deadline: float, out, tracer, inst, host):
        """One client's closed loop until ``deadline``.

        With ``host``, the client probes the host before every
        ``PROBE_EVERY``-th request, while the server is idle; the probes'
        time is not the client's.
        """
        from repro.service.client import ServiceError

        if inst is not None:
            inst.client_threads.add(threading.get_ident())
        rng = random.Random(self.seed * 1_000 + number * 17 + len(self.windows))
        samples: Dict[str, List[float]] = {
            name: [] for name in ("read", "write", "explain") + READ_KINDS
        }
        completions: List[float] = []
        seen: Dict[str, set] = {}
        failed = 0
        writes = 0
        probe_s = 0.0
        started = clock()
        sequence = 0
        while clock() < deadline:
            if host is not None and sequence % PROBE_EVERY == 0:
                probe_s += host.probe()
            draw = rng.random()
            read_kind = None
            if draw < WRITE_SHARE:
                kind = "write"
                with self.results_lock:
                    event = self.next_event
                    self.next_event += 1
                text = (
                    "INSERT INTO events (eid, client, amount) "
                    f"VALUES ({event}, {number}, {round(rng.uniform(0, 100), 2)})"
                )
            else:
                read_kind = rng.choices(READ_KINDS, READ_WEIGHTS)[0]
                texts = self.pool[read_kind]
                text = texts[rng.randrange(len(texts))]
                kind = "explain" if draw < WRITE_SHARE + EXPLAIN_SHARE else "read"
            span = None
            if tracer is not None:
                tracer.set_request(f"c{number}/{sequence}")
                span = tracer.begin("service.roundtrip")
            sequence += 1
            begin = clock()
            try:
                if kind == "explain":
                    session.explain(text)
                    result = None
                else:
                    result = session.execute(text)
                ok = True
            except ServiceError:
                ok = False
            end = clock()
            if span is not None:
                tracer.end(span)
            # A failed request never answered: it counts toward the tail.
            latency = end - begin if ok else float(deadline - started)
            samples[kind].append(latency)
            if kind == "read":
                samples[read_kind].append(latency)
            if ok:
                completions.append(end)
                if kind == "read":
                    seen.setdefault(text, set()).add(json.dumps(result, sort_keys=False))
                elif kind == "write":
                    writes += 1
            else:
                failed += 1
        out.update(
            samples=samples,
            completions=completions,
            seen=seen,
            failed=failed,
            writes=writes,
            attempted=sequence,
            client_s=clock() - started - probe_s,
            probe_s=probe_s,
        )

    def _window(self, seconds: float, tracer=None, inst=None) -> Dict[str, Any]:
        # Probes only in the untraced run: there they would be time that no
        # span covers.
        host = HostSpeed() if tracer is None else None
        outs: List[Dict[str, Any]] = [dict() for _ in self.sessions]
        deadline = clock() + seconds
        threads = [
            threading.Thread(
                target=self._client_loop,
                args=(number, session, deadline, outs[number], tracer, inst, host),
                name=f"perfbench-client-{number}",
            )
            for number, session in enumerate(self.sessions)
        ]
        window_start = clock()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        kinds = ("read", "write", "explain") + READ_KINDS
        merged: Dict[str, List[float]] = {kind: [] for kind in kinds}
        completions: List[float] = []
        window = {"failed": 0, "writes": 0, "attempted": 0, "client_s": 0.0, "probe_s": 0.0}
        for out in outs:
            if not out:
                raise RuntimeError("a client thread ended without a result")
            for kind in kinds:
                merged[kind].extend(out["samples"][kind])
            completions.extend(out["completions"])
            for key in ("failed", "writes", "attempted", "client_s", "probe_s"):
                window[key] += out[key]
            with self.results_lock:
                for text, encodings in out["seen"].items():
                    self.results.setdefault(text, set()).update(encodings)
        self.acknowledged_writes += window["writes"]
        # One slowness for the window: the probes sample it evenly.
        slowness = host.slowness() if host is not None and host.samples else 1.0
        window.update({kind: [x / slowness for x in merged[kind]] for kind in kinds})
        window["seconds"] = window["client_s"] / len(self.sessions)
        window["completed"] = len(completions)
        window["slowness"] = slowness
        window["rate"] = len(completions) * slowness / window["seconds"]
        window["measured_rate"] = len(completions) / window["seconds"]
        # Five equal slices of the window are the repeats: their completion
        # rates give the spread the header reports.
        slice_s = seconds / SLICES
        buckets = [0] * SLICES
        for stamp in completions:
            buckets[min(int((stamp - window_start) / slice_s), SLICES - 1)] += 1
        window["rates"] = [count * slowness / slice_s for count in buckets]
        self.windows.append(window)
        return window

    def measure(self, seconds: float, tracer=None, inst=None) -> Measurement:
        window = self._window(seconds, tracer, inst)
        measurement = Measurement()
        measurement.unit_rates = window["rates"]
        measurement.rate = window["rate"]
        measurement.slowness = window["slowness"]
        measurement.latencies = window["read"]
        measurement.attempted = window["attempted"]
        measurement.failed = window["failed"]
        measurement.wall_s = window["client_s"]
        measurement.compared_s = window["seconds"] / max(1, window["completed"])
        write, explain = summarize(window["write"]), summarize(window["explain"])
        read = summarize(window["read"])
        by_kind = {kind: summarize(window[kind]) for kind in READ_KINDS}
        # The read kinds' medians, weighted by the mix: the pooled median
        # falls in the gap between the fast point and top-N reads (~1 ms)
        # and the slow aggregates (~5 ms), where it jumps with the few reads
        # on either edge (+-12% across seeds).
        measurement.p50_ms = sum(
            weight * by_kind[kind]["p50_ms"] for kind, weight in READ_MIX
        ) / sum(READ_WEIGHTS)
        measurement.tails = [read["tail_ms"]]
        measurement.details = {
            "service.ops_per_s": window["rate"],
            "service.measured_ops_per_s": window["measured_rate"],
            "service.read_p50_ms": read["p50_ms"],
            "service.read_tail_ms": read["tail_ms"],
            "service.read_tail": read,
            "service.write_p50_ms": write["p50_ms"],
            "service.write_tail_ms": write["tail_ms"],
            "service.write_tail": write,
            "service.explain_p50_ms": explain["p50_ms"],
            "service.explain_tail_ms": explain["tail_ms"],
            "service.explain_tail": explain,
            "service.read_by_kind": by_kind,
            "service.read_mix": dict(READ_MIX),
            "service.clients": self.clients,
            "service.max_workers": self.workers,
            "service.read_rows": self.rows,
            "service.write_share": WRITE_SHARE,
            "service.explain_share": EXPLAIN_SHARE,
            "service.write_target": "events (reads use items and cats)",
            "host.slowness": window["slowness"],
        }
        return measurement

    def reference(self) -> Tuple[float, List[Check]]:
        """An untraced window a quarter as long; its seconds per request."""
        window = self._window(max(1.0, self.windows[0]["seconds"] / 4))
        return window["seconds"] / max(1, window["completed"]), []

    def results_digest(self) -> str:
        payload = json.dumps({text: sorted(values) for text, values in sorted(self.results.items())})
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def check(self) -> List[Check]:
        from repro.service.protocol import encode_message

        # Every pool text is compared, so the digest covers the same texts
        # on every run; texts the window never drew are read once here.
        for texts in self.pool.values():
            for text in texts:
                if text not in self.results:
                    rows = self.sessions[0].execute(text)
                    self.results[text] = {json.dumps(rows)}
        reference = build_service_dialect(self.seed, self.rows)
        mismatched = []
        for text, encodings in sorted(self.results.items()):
            rows = reference.execute(text)
            # Through the wire encoder, as the service returns it.
            expected = json.dumps(json.loads(encode_message({"r": rows})[4:])["r"])
            if encodings != {expected}:
                mismatched.append(text)
        count = self.sessions[0].execute("SELECT COUNT(*) AS n FROM events")[0]["n"]
        return [
            Check("service.reads_match_reference", not mismatched, mismatched[:3]),
            Check(
                "service.write_count",
                count == self.acknowledged_writes,
                {"count": count, "acknowledged": self.acknowledged_writes},
            ),
            Check("service.no_failed_requests", all(w["failed"] == 0 for w in self.windows)),
        ]


WORKLOADS = {
    workload.name: workload
    for workload in (CampaignWorkload, IngestWorkload, ServiceWorkload)
}
