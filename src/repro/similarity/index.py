"""Cosine nearest-neighbour index over plan embeddings.

:class:`PlanIndex` maps fingerprints to embedding vectors and answers
nearest-neighbour queries under cosine distance.  It is built to the same
three contracts as the structures it sits beside:

* **Soft numpy dependency** (the :mod:`repro.engine.arrays` contract) —
  when numpy is importable and enabled, queries run as one matrix·vector
  product over a dense matrix; otherwise a pure-list loop computes the same
  distances.  Embedding vectors are integer-valued by construction
  (:mod:`repro.similarity.embedding`), so every product and partial sum is
  exact in float64 and the two paths return **bit-identical** distances —
  not merely close ones.  ``REPRO_DISABLE_NUMPY`` and
  :func:`repro.engine.arrays.set_numpy_enabled` govern this index too.
* **Append-only dense buffers** — the matrix, its squared norms and its
  fingerprint list grow in place (capacity doubling) on every add, load
  and merge, and are never rebuilt, so an add-then-query loop costs one
  matrix·vector product per verdict.  Rows sit in insertion order, which
  is safe only because results break distance ties by fingerprint (next
  contract).  The buffers are kept whenever numpy is importable, even
  while it is disabled, so re-enabling it never exposes a stale matrix.
* **Deterministic ordering** — query results sort by ``(distance,
  fingerprint)``: exact distance ties break by fingerprint, so results are
  stable across shard layouts, insertion orders, numpy on/off, and process
  boundaries.
* **CoverageStore sidecar durability** — with a ``path`` the index persists
  next to a :class:`~repro.pipeline.coverage.CoverageStore`'s segments as
  append-only ``sim-NNN.jsonl`` shards (keyed by the same
  :func:`~repro.pipeline.coverage.shard_for`) plus a ``SIMILARITY.json``
  manifest written last, using the store's tmp-file + ``os.replace``
  primitives.  Loads tolerate a torn final line; :meth:`compact` heals it.
  Merging (:meth:`merge` / :meth:`to_payload` / :meth:`merge_payload`) is
  first-wins exact set union over fingerprints — commutative, associative,
  and idempotent — so :class:`repro.parallel.ShardedCampaign` workers hand
  indexes back to the parent exactly like coverage payloads.
"""

from __future__ import annotations

import json
import math
import os
import threading
from heapq import nsmallest
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.engine import arrays
from repro.pipeline.coverage import (
    DEFAULT_SHARD_COUNT,
    atomic_write_json,
    atomic_write_lines,
    shard_for,
)

try:  # pragma: no cover - exercised via both CI jobs
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

_MANIFEST_NAME = "SIMILARITY.json"
_MANIFEST_VERSION = 1

#: Rows the dense buffers start with; they double whenever they fill up.
_INITIAL_CAPACITY = 16

#: Below this many entries the list loop beats the product's fixed numpy
#: call overhead.  On a 2-vCPU host (Python 3.11, numpy 2.4) a k=1 query
#: over 1-3 entries took 11-26 us, and the list loop answered 1-5 us
#: sooner; over 6-8 entries numpy took 20-27 us against the list's
#: 37-51 us.  Both paths return the same bits.
_DENSE_MIN_ENTRIES = 4


class PlanIndexError(Exception):
    """Raised for unrecoverable index problems (shard/dimension mismatch)."""


def cosine_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Cosine distance between two equal-width vectors.

    Zero vectors compare at distance 0 to each other and 1 to everything
    else.  For integer-valued vectors the arithmetic is exact (see module
    docstring), which is what makes the numpy path reproducible.
    """
    if len(a) != len(b):
        raise PlanIndexError(
            f"vector width mismatch: {len(a)} vs {len(b)}"
        )
    dot = 0.0
    norm_a = 0.0
    norm_b = 0.0
    for x, y in zip(a, b):
        dot += x * y
        norm_a += x * x
        norm_b += y * y
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0 if norm_a == norm_b else 1.0
    # sqrt(norm_a * norm_b) — one sqrt of the exact product, never
    # sqrt(a)*sqrt(b): for identical vectors the product is a perfect
    # square, whose IEEE sqrt is exact, so self-distance is exactly 0.0.
    # The clamp guards the remaining one-rounding case a few ulps under 0.
    return max(0.0, 1.0 - dot / math.sqrt(norm_a * norm_b))


class PlanIndex:
    """A sharded, optionally durable fingerprint → embedding index.

    Parameters
    ----------
    path:
        Directory to persist into — typically a :class:`CoverageStore`
        directory, where the index's ``sim-*.jsonl`` segments ride as
        sidecars.  ``None`` keeps the index in memory.
    shard_count:
        Number of segment files; must match an existing index's manifest
        (and, when sharing a directory, conventionally the store's).
    """

    def __init__(
        self, path: Optional[str] = None, shard_count: int = DEFAULT_SHARD_COUNT
    ) -> None:
        if shard_count <= 0:
            raise ValueError("shard_count must be positive")
        self.path = path
        self.shard_count = shard_count
        self.dimensions: Optional[int] = None
        self._lock = threading.RLock()
        self._shards: List[Dict[str, Tuple[float, ...]]] = [
            dict() for _ in range(shard_count)
        ]
        self._handles: List[Optional[object]] = [None] * shard_count
        self._dirty = False
        # The append-only dense mirror of the shards (numpy query path):
        # row i of the matrix and of the squared norms is _fingerprints[i].
        self._fingerprints: List[str] = []
        self._matrix = None
        self._norms_sq = None
        self._zero_rows: List[int] = []
        if path is not None:
            self._attach(path)

    # -- lifecycle -------------------------------------------------------------

    def _attach(self, path: str) -> None:
        os.makedirs(path, exist_ok=True)
        manifest_path = os.path.join(path, _MANIFEST_NAME)
        if os.path.exists(manifest_path):
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
            stored = int(manifest.get("shard_count", self.shard_count))
            if stored != self.shard_count:
                raise PlanIndexError(
                    f"index at {path!r} has {stored} shards, "
                    f"requested {self.shard_count}"
                )
        else:
            # Crashed before the first save: segments without a manifest.
            # Detect out-of-range segments before silently dropping them.
            for name in os.listdir(path):
                if not (name.startswith("sim-") and name.endswith(".jsonl")):
                    continue
                try:
                    index = int(name[len("sim-"): -len(".jsonl")])
                except ValueError:
                    continue
                if index >= self.shard_count:
                    raise PlanIndexError(
                        f"index at {path!r} has segment {name} outside the "
                        f"requested {self.shard_count} shards"
                    )
            self._write_manifest(path)
        self.path = path
        for shard in range(self.shard_count):
            segment = self._segment_path(shard)
            if not os.path.exists(segment):
                continue
            with open(segment, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except ValueError:
                        # Torn tail from a crashed writer; everything before
                        # it already loaded.  compact() heals the segment.
                        continue
                    self._apply_record(shard, record)

    @classmethod
    def open(
        cls, path: str, shard_count: int = DEFAULT_SHARD_COUNT
    ) -> "PlanIndex":
        """Open (creating if absent) the index persisted at *path*."""
        return cls(path=path, shard_count=shard_count)

    def close(self) -> None:
        """Flush and close the segment file handles."""
        with self._lock:
            self._close_handles()
            self._handles = [None] * self.shard_count

    def _close_handles(self) -> None:
        for handle in getattr(self, "_handles", []):
            if handle is not None:
                try:
                    handle.close()
                except OSError:
                    pass

    def __enter__(self) -> "PlanIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort; close() is the real API
        try:
            self._close_handles()
        except Exception:
            pass

    # -- record plumbing -------------------------------------------------------

    def _segment_path(self, shard: int, root: Optional[str] = None) -> str:
        return os.path.join(root or self.path, f"sim-{shard:03d}.jsonl")

    def _check_dimensions(self, vector: Tuple[float, ...]) -> None:
        if self.dimensions is None:
            self.dimensions = len(vector)
        elif len(vector) != self.dimensions:
            raise PlanIndexError(
                f"vector width {len(vector)} does not match the index "
                f"width {self.dimensions}"
            )

    def _apply_record(self, shard: int, record: Dict[str, object]) -> bool:
        fingerprint = record.get("f")
        vector = record.get("v")
        if not isinstance(fingerprint, str) or not isinstance(vector, list):
            return False
        if fingerprint in self._shards[shard]:
            return False
        values = tuple(float(value) for value in vector)
        self._check_dimensions(values)
        self._insert(shard, fingerprint, values)
        return True

    def _insert(self, shard: int, fingerprint: str, values: Tuple[float, ...]) -> None:
        """Index a new entry and append its row to the dense buffers."""
        self._shards[shard][fingerprint] = values
        if _np is None:
            return
        row = len(self._fingerprints)
        if self._matrix is None or row == len(self._matrix):
            capacity = max(_INITIAL_CAPACITY, 2 * row)
            matrix = _np.zeros((capacity, len(values)), dtype=_np.float64)
            norms_sq = _np.zeros(capacity, dtype=_np.float64)
            if row:
                matrix[:row] = self._matrix
                norms_sq[:row] = self._norms_sq
            self._matrix, self._norms_sq = matrix, norms_sq
        # The squared norm summed exactly as the list path sums it.
        norm_sq = 0.0
        for value in values:
            norm_sq += value * value
        self._matrix[row] = values
        self._norms_sq[row] = norm_sq
        if norm_sq == 0.0:
            self._zero_rows.append(row)
        self._fingerprints.append(fingerprint)

    def _append(self, shard: int, fingerprint: str, vector: Tuple[float, ...]) -> None:
        if self.path is None:
            return
        handle = self._handles[shard]
        if handle is None:
            handle = open(self._segment_path(shard), "a", encoding="utf-8")
            self._handles[shard] = handle
        record = {"f": fingerprint, "v": list(vector)}
        handle.write(json.dumps(record, sort_keys=True, separators=(",", ":")))
        handle.write("\n")
        self._dirty = True

    # -- core API --------------------------------------------------------------

    def add(self, fingerprint: str, vector: Sequence[float]) -> bool:
        """Record *fingerprint* → *vector*; True when the entry is new.

        First write wins: re-adding an indexed fingerprint never replaces
        its vector (embeddings are content-derived, so conflicting vectors
        for one fingerprint cannot arise from correct callers), which makes
        merges idempotent.
        """
        values = tuple(float(value) for value in vector)
        with self._lock:
            self._check_dimensions(values)
            shard = shard_for(fingerprint, self.shard_count)
            if fingerprint in self._shards[shard]:
                return False
            self._insert(shard, fingerprint, values)
            self._append(shard, fingerprint, values)
            return True

    def contains(self, fingerprint: str) -> bool:
        """Whether *fingerprint* is indexed."""
        with self._lock:
            shard = shard_for(fingerprint, self.shard_count)
            return fingerprint in self._shards[shard]

    __contains__ = contains

    def get(self, fingerprint: str) -> Optional[Tuple[float, ...]]:
        """The vector indexed for *fingerprint* (None when absent)."""
        with self._lock:
            shard = shard_for(fingerprint, self.shard_count)
            return self._shards[shard].get(fingerprint)

    def __len__(self) -> int:
        with self._lock:
            return sum(len(shard) for shard in self._shards)

    def __iter__(self) -> Iterator[str]:
        return iter(self.fingerprints())

    def fingerprints(self) -> List[str]:
        """Every indexed fingerprint, sorted (layout-independent order)."""
        with self._lock:
            collected: List[str] = []
            for shard in self._shards:
                collected.extend(shard)
            collected.sort()
            return collected

    # -- queries ---------------------------------------------------------------

    def _nearest_dense(
        self, query: Tuple[float, ...], query_norm_sq: float, k: int
    ) -> List[Tuple[float, str]]:
        """The *k* smallest ``(distance, fingerprint)`` pairs, via numpy."""
        count = len(self._fingerprints)
        norms_sq = self._norms_sq[:count]
        dots = self._matrix[:count].dot(_np.asarray(query, dtype=_np.float64))
        if query_norm_sq == 0.0:
            distances = (norms_sq != 0.0).astype(_np.float64)
        else:
            scale = norms_sq * query_norm_sq
            # A zero row's dot is exactly 0, so any positive scale puts it
            # at distance 1.0 — the cosine_distance zero-vector rule.
            if self._zero_rows:
                scale[self._zero_rows] = 1.0
            # One sqrt of the exact norms_sq product, exactly like the list
            # path and cosine_distance — a perfect square for a
            # self-comparison, so self-distance is exactly 0.0.
            distances = 1.0 - dots / _np.sqrt(scale)
            _np.maximum(distances, 0.0, out=distances)
        # Candidates: every row at or below the k-th smallest distance, so
        # the fingerprint tie-break below sees every row tied at the cut.
        if k == 1:
            candidates = _np.flatnonzero(distances == distances.min())
        else:
            cut = min(k, count) - 1
            kth = _np.partition(distances, cut)[cut]
            candidates = _np.flatnonzero(distances <= kth)
        fingerprints = self._fingerprints
        return nsmallest(
            k,
            zip(
                distances[candidates].tolist(),
                [fingerprints[row] for row in candidates.tolist()],
            ),
        )

    def _list_distances(
        self, query: Tuple[float, ...], query_norm_sq: float
    ) -> List[Tuple[float, str]]:
        """``(distance, fingerprint)`` for every entry (unordered)."""
        pairs: List[Tuple[float, str]] = []
        for shard in self._shards:
            for fingerprint, vector in shard.items():
                dot = 0.0
                norm_sq = 0.0
                for x, y in zip(vector, query):
                    dot += x * y
                    norm_sq += x * x
                if norm_sq == 0.0 or query_norm_sq == 0.0:
                    distance = 0.0 if norm_sq == query_norm_sq else 1.0
                else:
                    distance = max(
                        0.0, 1.0 - dot / math.sqrt(norm_sq * query_norm_sq)
                    )
                pairs.append((distance, fingerprint))
        return pairs

    def query(
        self, vector: Sequence[float], k: int = 1
    ) -> List[Tuple[str, float]]:
        """The *k* nearest entries as ``(fingerprint, distance)`` pairs.

        Results sort by ``(distance, fingerprint)`` — the fingerprint
        tie-break makes the ordering deterministic across shard layouts,
        insertion orders, numpy on/off, and processes.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        query = tuple(float(value) for value in vector)
        query_norm_sq = 0.0
        for value in query:
            query_norm_sq += value * value
        with self._lock:
            if self.dimensions is not None and len(query) != self.dimensions:
                raise PlanIndexError(
                    f"query width {len(query)} does not match the index "
                    f"width {self.dimensions}"
                )
            if (
                _np is not None
                and arrays.numpy_enabled()
                and len(self._fingerprints) >= _DENSE_MIN_ENTRIES
            ):
                best = self._nearest_dense(query, query_norm_sq, k)
            else:
                best = nsmallest(k, self._list_distances(query, query_norm_sq))
        return [(fingerprint, distance) for distance, fingerprint in best]

    def nearest(self, vector: Sequence[float]) -> Optional[Tuple[str, float]]:
        """The nearest entry, or None for an empty index."""
        results = self.query(vector, k=1)
        return results[0] if results else None

    def nearest_distance(self, vector: Sequence[float]) -> float:
        """Distance to the nearest entry; 1.0 (maximal) for an empty index."""
        nearest = self.nearest(vector)
        return 1.0 if nearest is None else nearest[1]

    # -- merge / payload handoff -----------------------------------------------

    def merge(
        self, other: Union["PlanIndex", Dict[str, Sequence[float]]]
    ) -> int:
        """Union *other* into this index; returns newly indexed fingerprints.

        First-wins exact set union: commutative and associative over the
        indexed fingerprint *sets*, idempotent, and independent of either
        side's shard layout.
        """
        if isinstance(other, PlanIndex):
            with other._lock:
                entries = [
                    (fingerprint, vector)
                    for shard in other._shards
                    for fingerprint, vector in shard.items()
                ]
        else:
            entries = list(other.items())
        added = 0
        for fingerprint, vector in entries:
            if self.add(fingerprint, vector):
                added += 1
        return added

    def to_payload(self) -> Dict[str, object]:
        """Export the index as one picklable, layout-independent payload.

        This is what a sharded-campaign worker ships back to its parent;
        plain dicts/lists only, suitable for :meth:`merge_payload` on any
        other index.  Floats survive JSON round-trips exactly (json emits
        ``repr``-faithful doubles), so payloads may also ride inside the
        campaign's persisted round files.
        """
        with self._lock:
            return {
                "entries": {
                    fingerprint: list(vector)
                    for shard in self._shards
                    for fingerprint, vector in shard.items()
                },
            }

    def merge_payload(self, payload: Dict[str, object]) -> int:
        """Union a :meth:`to_payload` export into this index."""
        added = 0
        for fingerprint in sorted(payload.get("entries", {})):
            if self.add(fingerprint, payload["entries"][fingerprint]):
                added += 1
        return added

    # -- persistence -----------------------------------------------------------

    def flush(self) -> None:
        """Flush buffered appends to disk (no-op in memory / when clean).

        Also refreshes the manifest so its entry count tracks the durable
        state at every checkpoint, not just after save()/compact().
        """
        if self.path is None or not self._dirty:
            return
        with self._lock:
            for handle in self._handles:
                if handle is not None:
                    handle.flush()
            self._write_manifest(self.path)
            self._dirty = False

    def _shard_lines(self, shard: int) -> Iterable[str]:
        for fingerprint in sorted(self._shards[shard]):
            record = {
                "f": fingerprint,
                "v": list(self._shards[shard][fingerprint]),
            }
            yield json.dumps(record, sort_keys=True, separators=(",", ":"))

    def _write_manifest(self, root: str) -> None:
        atomic_write_json(
            os.path.join(root, _MANIFEST_NAME),
            {
                "version": _MANIFEST_VERSION,
                "shard_count": self.shard_count,
                "entries": sum(len(shard) for shard in self._shards),
                "dimensions": self.dimensions,
            },
        )

    def save(self, path: Optional[str] = None) -> str:
        """Atomically persist the index; returns the directory written.

        Mirrors :meth:`CoverageStore.save`: every segment rewrites through
        a tmp file + ``os.replace`` and the manifest lands last, so readers
        see the old complete state or the new one, never a torn mix.
        Saving an in-memory index to a directory holding a *different*
        index fails loudly instead of clobbering it.
        """
        with self._lock:
            root = path or self.path
            if root is None:
                raise PlanIndexError("in-memory index: save() needs a path")
            if root != self.path and os.path.exists(
                os.path.join(root, _MANIFEST_NAME)
            ):
                raise PlanIndexError(
                    f"{root!r} already holds a similarity index; open it "
                    "and merge() instead of overwriting"
                )
            os.makedirs(root, exist_ok=True)
            if root == self.path:
                self._close_handles()
                self._handles = [None] * self.shard_count
            for shard in range(self.shard_count):
                atomic_write_lines(
                    self._segment_path(shard, root), self._shard_lines(shard)
                )
            self._write_manifest(root)
            if self.path is None:
                self.path = root
            return root

    def compact(self) -> Tuple[int, int]:
        """Rewrite segments dropping duplicate/torn lines.

        Returns ``(lines_before, lines_after)`` summed over all segments.
        """
        with self._lock:
            if self.path is None:
                total = sum(len(shard) for shard in self._shards)
                return (total, total)
            before = 0
            for shard in range(self.shard_count):
                segment = self._segment_path(shard)
                if os.path.exists(segment):
                    with open(segment, "r", encoding="utf-8") as handle:
                        before += sum(1 for _ in handle)
            self._close_handles()
            self._handles = [None] * self.shard_count
            after = 0
            for shard in range(self.shard_count):
                after += atomic_write_lines(
                    self._segment_path(shard), self._shard_lines(shard)
                )
            self._write_manifest(self.path)
            return (before, after)
