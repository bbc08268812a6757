"""Spans around the program's public functions, installed from outside.

:func:`instrument` replaces a fixed list of public functions and methods of
the ``repro`` package with wrappers that record one span per call, and
returns an :class:`Instrumentation` whose ``uninstall()`` puts the originals
back.  Nothing under ``src/`` is edited: the wrappers are attribute patches
made by the benchmark process and live only as long as the traced run.

A span records its name, start, end, the span that caused it (the enclosing
span on the same thread), a request id and, when the call raised, the
exception class.  Spans are kept in memory on a per-thread stack, because
client and server threads of the service workload share one process, and
are written out when the run ends.  A span's *self time* is its duration
minus the durations of its children, so the self times of all spans on a
thread add up to the time that thread spent inside spans.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


class Span:
    """One call of a wrapped function."""

    __slots__ = ("name", "start", "end", "parent", "rid", "error", "children_s")

    def __init__(self, name: str, start: float, parent: Optional["Span"], rid: Any) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rid = rid
        self.error: Optional[str] = None
        self.children_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.children_s


class Tracer:
    """In-memory span recorder with one span stack per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: List[Tuple[int, str, List[Span]]] = []
        self._lock = threading.Lock()

    def _state(self):
        state = self._local
        if not hasattr(state, "stack"):
            state.stack = []
            state.spans = []
            state.rid = None
            with self._lock:
                thread = threading.current_thread()
                self._threads.append((thread.ident, thread.name, state.spans))
        return state

    def set_request(self, rid: Any) -> None:
        """Tag the spans this thread opens from now on with *rid*."""
        self._state().rid = rid

    def begin(self, name: str) -> Span:
        state = self._state()
        stack = state.stack
        span = Span(name, _clock(), stack[-1] if stack else None, state.rid)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = _clock()
        state = self._local
        state.stack.pop()
        state.spans.append(span)
        if span.parent is not None:
            span.parent.children_s += span.end - span.start

    def threads(self) -> List[Tuple[int, str, List[Span]]]:
        """``(thread id, thread name, finished spans)`` per thread that traced."""
        with self._lock:
            return list(self._threads)

    def spans(self) -> List[Span]:
        return [span for _, _, spans in self.threads() for span in spans]


def self_times(spans) -> Dict[str, float]:
    """Sum of self time per span name."""
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += span.self_s
    return dict(totals)


def root_time(spans) -> float:
    """Time covered by spans that have no parent (self times telescope)."""
    return sum(span.duration for span in spans if span.parent is None)


def dump(tracer: Tracer) -> List[Dict[str, Any]]:
    """Spans as JSON-ready records, with ids local to the dump."""
    records: List[Dict[str, Any]] = []
    ids: Dict[int, int] = {}
    for _, thread_name, spans in tracer.threads():
        for span in sorted(spans, key=lambda item: item.start):
            ids[id(span)] = len(records)
            records.append(
                {
                    "id": len(records),
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": id(span.parent) if span.parent is not None else None,
                    "rid": span.rid,
                    "thread": thread_name,
                    "error": span.error,
                }
            )
    for record in records:
        if record["parent"] is not None:
            record["parent"] = ids.get(record["parent"])
    return records


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------


class Counters:
    """Counts taken at the same boundaries as the spans."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.values: Dict[str, float] = defaultdict(float)
        #: Exceptions that a dialect call raised back into testing code,
        #: by class name: the program's typed errors are the campaign's
        #: expected SQL rejections, any other class is a crash it hid.
        self.rejected: Dict[str, int] = defaultdict(int)
        self.crashes: Dict[str, int] = defaultdict(int)

    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.values[name] += amount


def _span_wrapper(tracer: Tracer, name: str, fn: Callable, after=None, on_error=None) -> Callable:
    """Wrap *fn* so each call records a span named *name*.

    *after(span, args, result)* runs after a successful call and
    *on_error(span, exc)* after a failed one, both once the span has ended.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            tracer.end(span)
            if on_error is not None:
                on_error(span, exc)
            raise
        tracer.end(span)
        if after is not None:
            after(span, args, result)
        return result

    return wrapper


class Instrumentation:
    """The installed patches; ``uninstall()`` restores the originals."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.counters = Counters()
        self._patches: List[Tuple[Any, str, Any]] = []
        #: Cache-statistics owners seen during the run, with the counters
        #: they held when first seen (deltas are reported).
        self.prepared_caches: Dict[int, Tuple[Any, Tuple[int, int, int, int]]] = {}
        self.hubs: Dict[int, Tuple[Any, Tuple[int, int, int]]] = {}
        #: Threads whose spans are the service clients' timeline.
        self.client_threads: set = set()

    def patch(self, owner: Any, attr: str, name: str, after=None, on_error=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, _span_wrapper(self.tracer, name, original, after, on_error))

    def patch_raw(self, owner: Any, attr: str, replacement: Callable) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- cache statistics -----------------------------------------------------------

    def watch_prepared(self, cache) -> None:
        if id(cache) not in self.prepared_caches:
            ast_stats, plan_stats = cache.ast_stats, cache.plan_stats
            self.prepared_caches[id(cache)] = (
                cache,
                (ast_stats.hits, ast_stats.misses, plan_stats.hits, plan_stats.misses),
            )

    def watch_hub(self, hub) -> None:
        if id(hub) not in self.hubs:
            stats = hub.cache_stats
            self.hubs[id(hub)] = (hub, (stats.hits, stats.misses, stats.evictions))

    def prepared_totals(self) -> Tuple[int, int, int, int]:
        totals = [0, 0, 0, 0]
        for cache, base in self.prepared_caches.values():
            ast_stats, plan_stats = cache.ast_stats, cache.plan_stats
            now = (ast_stats.hits, ast_stats.misses, plan_stats.hits, plan_stats.misses)
            for position in range(4):
                totals[position] += now[position] - base[position]
        return tuple(totals)

    def hub_totals(self) -> Tuple[int, int, int]:
        totals = [0, 0, 0]
        for hub, base in self.hubs.values():
            stats = hub.cache_stats
            now = (stats.hits, stats.misses, stats.evictions)
            for position in range(3):
                totals[position] += now[position] - base[position]
        return tuple(totals)


#: Span name -> layer.  Every span the instrumentation records is listed.
LAYER_OF_SPAN = {
    "sqlparser.lex": "sqlparser",
    "sqlparser.parse": "sqlparser",
    "optimizer.plan": "optimizer",
    "engine.execute": "engine",
    "dialects.shape": "dialects",
    "dialects.serialize": "dialects",
    "dialects.execute": "dialects",
    "dialects.explain": "dialects",
    "catalog.analyze": "catalog",
    "storage.snapshot_build": "storage",
    "storage.snapshot_hit": "storage",
    "converters.convert": "converters",
    "pipeline.ingest": "pipeline",
    "pipeline.coverage_add": "pipeline",
    "pipeline.checkpoint": "pipeline",
    "core.fingerprint": "core",
    "similarity.embed": "similarity",
    "similarity.nearest": "similarity",
    "similarity.add": "similarity",
    "testing.generate": "testing",
    "testing.qpg_observe": "testing",
    "testing.tlp": "testing",
    "testing.cert": "testing",
    "testing.bound": "testing",
    "service.decode": "service",
    "service.encode": "service",
    "service.gate_read_wait": "service",
    "service.gate_write_wait": "service",
}

LAYERS = (
    "sqlparser",
    "dialects",
    "optimizer",
    "engine",
    "catalog",
    "storage",
    "converters",
    "core",
    "pipeline",
    "similarity",
    "testing",
    "service",
)


def instrument(tracer: Tracer, watch=()) -> Instrumentation:
    """Install spans around the program's public layer functions.

    *watch* lists objects created before the run whose cache statistics
    belong to it (dialects' prepared caches, converter hubs).
    """
    import repro.dialects.prepared as prepared_module
    import repro.pipeline.ingest as ingest_module
    import repro.similarity.embedding as embedding_module
    import repro.sqlparser.parser as parser_module
    import repro.testing.qpg as qpg_module
    from repro.catalog.database import Database
    from repro.converters.base import ConverterHub, PlanConverter
    from repro.core.concurrency import ReadWriteGate
    from repro.dialects.base import RelationalDialect
    from repro.dialects.prepared import PreparedQueryCache
    from repro.engine.executor import Executor
    from repro.engine.vectorized import VectorizedExecutor
    from repro.errors import ReproError
    from repro.optimizer.planner import Planner
    from repro.pipeline.coverage import CoverageStore
    from repro.pipeline.ingest import PlanIngestService
    from repro.service import protocol
    from repro.similarity.index import PlanIndex
    from repro.storage.table import HeapTable
    from repro.testing.bound import SizeBoundChecker
    from repro.testing.cert import CardinalityRestrictionTester
    from repro.testing.generator import RandomQueryGenerator
    from repro.testing.qpg import QueryPlanGuidance

    inst = Instrumentation(tracer)
    counters = inst.counters
    for item in watch:
        if isinstance(item, PreparedQueryCache):
            inst.watch_prepared(item)
        elif isinstance(item, ConverterHub):
            inst.watch_hub(item)

    # -- sqlparser / optimizer ---------------------------------------------------
    inst.patch(parser_module, "tokenize", "sqlparser.lex")
    inst.patch(
        prepared_module,
        "parse_sql",
        "sqlparser.parse",
        after=lambda span, args, result: counters.add("sqlparser.parse_calls"),
    )
    inst.patch(
        Planner,
        "plan_statement",
        "optimizer.plan",
        after=lambda span, args, result: counters.add("optimizer.plan_calls"),
    )

    # -- engine: count only the outermost call of a nested execute --------------
    def after_execute(span, args, result):
        if span.parent is None or span.parent.name != "engine.execute":
            counters.add("engine.execute_calls")
            counters.add("engine.rows_out", len(result) if result is not None else 0)

    inst.patch(Executor, "execute", "engine.execute", after=after_execute)
    inst.patch(VectorizedExecutor, "execute", "engine.execute", after=after_execute)

    # -- dialects ------------------------------------------------------------------
    def rejection(span, exc):
        if isinstance(exc, Exception) and (
            span.parent is None or span.parent.name.startswith("testing.")
        ):
            # Raised straight back into the testing loop, which skips the
            # query.
            kind = counters.rejected if isinstance(exc, ReproError) else counters.crashes
            kind[type(exc).__name__] += 1

    inst.patch(RelationalDialect, "execute", "dialects.execute", on_error=rejection)
    inst.patch(RelationalDialect, "explain", "dialects.explain", on_error=rejection)
    for cls in _subclasses(RelationalDialect):
        for attr, name in (("shape_plan", "dialects.shape"), ("serialize_plan", "dialects.serialize")):
            if attr in cls.__dict__:
                inst.patch(cls, attr, name)

    original_prepared_init = PreparedQueryCache.__init__

    @functools.wraps(original_prepared_init)
    def prepared_init(self, *args, **kwargs):
        original_prepared_init(self, *args, **kwargs)
        inst.watch_prepared(self)

    inst.patch_raw(PreparedQueryCache, "__init__", prepared_init)

    # -- catalog / storage -----------------------------------------------------------
    inst.patch(
        Database,
        "analyze",
        "catalog.analyze",
        after=lambda span, args, result: counters.add("catalog.analyze_calls"),
    )
    original_column_batch = HeapTable.__dict__["column_batch"]

    @functools.wraps(original_column_batch)
    def column_batch(self, version):
        before = getattr(self, "_snapshot", None)
        span = tracer.begin("storage.snapshot_hit")
        try:
            result = original_column_batch(self, version)
        finally:
            tracer.end(span)
        if result is not before:
            span.name = "storage.snapshot_build"
        return result

    inst.patch_raw(HeapTable, "column_batch", column_batch)

    # -- converters / core / pipeline ------------------------------------------------------
    inst.patch(
        PlanConverter,
        "convert",
        "converters.convert",
        after=lambda span, args, result: counters.add("converters.conversions"),
    )
    original_hub_init = ConverterHub.__init__

    @functools.wraps(original_hub_init)
    def hub_init(self, *args, **kwargs):
        original_hub_init(self, *args, **kwargs)
        inst.watch_hub(self)

    inst.patch_raw(ConverterHub, "__init__", hub_init)
    inst.patch(qpg_module, "structural_fingerprint", "core.fingerprint")
    inst.patch(ingest_module, "structural_fingerprint", "core.fingerprint")

    def after_batch(span, args, result):
        counters.add("pipeline.sources", len(result.entries))
        counters.add("pipeline.new_fingerprints", result.new_fingerprints)

    inst.patch(PlanIngestService, "ingest", "pipeline.ingest")
    inst.patch(PlanIngestService, "ingest_batch", "pipeline.ingest", after=after_batch)
    inst.patch(CoverageStore, "add", "pipeline.coverage_add")
    inst.patch(CoverageStore, "save", "pipeline.checkpoint")

    # -- similarity --------------------------------------------------------------------------
    inst.patch(embedding_module, "embed_plan", "similarity.embed")
    inst.patch(qpg_module, "embed_plan", "similarity.embed")
    inst.patch(PlanIndex, "nearest_distance", "similarity.nearest")
    inst.patch(PlanIndex, "add", "similarity.add")

    # -- testing --------------------------------------------------------------------------------
    inst.patch(RandomQueryGenerator, "select_query", "testing.generate")
    inst.patch(qpg_module, "check_tlp", "testing.tlp")
    inst.patch(CardinalityRestrictionTester, "check_pair", "testing.cert")
    inst.patch(SizeBoundChecker, "check_query", "testing.bound")

    def after_observe(span, args, result):
        counters.add("testing.observed")
        if result:
            counters.add("testing.new_plans")

    inst.patch(QueryPlanGuidance, "observe_plan", "testing.qpg_observe", after=after_observe)

    # -- service ----------------------------------------------------------------------------------
    def after_encode(span, args, result):
        if threading.get_ident() not in inst.client_threads:
            counters.add("service.bytes_out", len(result))

    inst.patch(protocol, "encode_message", "service.encode", after=after_encode)
    inst.patch(protocol, "decode_payload", "service.decode")
    # read_locked()/write_locked() hold the gate for the statement; the
    # acquire_* calls they make are exactly the wait for the lock.
    inst.patch(ReadWriteGate, "acquire_read", "service.gate_read_wait")
    inst.patch(ReadWriteGate, "acquire_write", "service.gate_write_wait")
    return inst


def _subclasses(cls) -> List[type]:
    found: List[type] = []
    pending = list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        if sub not in found:
            found.append(sub)
            pending.extend(sub.__subclasses__())
    return found
