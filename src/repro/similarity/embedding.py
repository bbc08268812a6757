"""Deterministic plan embeddings: unified plans as fixed-width feature vectors.

:func:`embed_plan` maps a :class:`~repro.core.model.UnifiedPlan` to a fixed
``EMBEDDING_DIMENSIONS``-wide tuple of floats over three feature families:

* **operation-category counts** — one dimension per category in the
  grammar's canonical ``OPERATION_CATEGORY_ORDER`` (Table II's order);
* **property-category counts** — one dimension per category in the
  canonical ``PROPERTY_CATEGORY_ORDER`` (``Cardinality, Cost,
  Configuration, Status``), over plan- and operation-associated properties;
* **tree shape** — node count, depth, leaf count, maximum fan-out, and
  internal-node count;
* **operator-name histogram** — unified operator names (interned through
  :func:`repro.core.naming.intern_identifier`, unstable ``_N`` suffixes
  stripped exactly as the structural fingerprint strips them) hashed into
  ``HISTOGRAM_BUCKETS`` buckets with a content-stable blake2b bucket key.

Determinism contract:

* The embedding is a pure function of plan *content* — ``source_dbms`` and
  ``query`` never contribute, hashing uses blake2b (never Python's
  randomized ``hash()``), so the vector is byte-identical across processes
  and runs, like the Merkle fingerprints.
* Every dimension is an exact non-negative **integer count** represented as
  a float.  This is load-bearing: cosine arithmetic over integer-valued
  float64 vectors (products and sums far below 2**53) is exact, so the
  numpy and pure-list paths of :class:`repro.similarity.PlanIndex` produce
  bit-identical distances.
* The vector is memoised on the plan through the
  :meth:`~repro.core.model.UnifiedPlan.content_cache_get` hooks — the same
  self-validating, dropped-on-pickle cache the fingerprints use — under a
  version-stamped key, so re-embedding a frozen plan is O(1) and a cached
  vector never survives mutation or a format bump.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Tuple

from repro.core.categories import (
    OPERATION_CATEGORY_ORDER,
    PROPERTY_CATEGORY_ORDER,
)
from repro.core.compare import strip_unstable_suffix
from repro.core.model import UnifiedPlan
from repro.core.naming import intern_identifier

#: Bump when the feature layout changes; stamped into the cache key and the
#: index manifest so stale vectors are never mixed with current ones.
EMBEDDING_VERSION = 1

#: Operator-name histogram width.  Small enough that vectors stay cheap,
#: large enough that the ~40-name unified vocabulary rarely collides.
HISTOGRAM_BUCKETS = 24

_OPERATION_DIMS = len(OPERATION_CATEGORY_ORDER)
_PROPERTY_DIMS = len(PROPERTY_CATEGORY_ORDER)
_SHAPE_DIMS = 5

#: Total embedding width: 7 operation categories + 4 property categories
#: + 5 tree-shape features + the operator-name histogram.
EMBEDDING_DIMENSIONS = _OPERATION_DIMS + _PROPERTY_DIMS + _SHAPE_DIMS + HISTOGRAM_BUCKETS

_CACHE_KEY = f"embedding:v{EMBEDDING_VERSION}"

#: Feature position of every operation and property category.
_CATEGORY_POSITION = {
    **{category: position for position, category in enumerate(OPERATION_CATEGORY_ORDER)},
    **{
        category: _OPERATION_DIMS + position
        for position, category in enumerate(PROPERTY_CATEGORY_ORDER)
    },
}
_SHAPE_BASE = _OPERATION_DIMS + _PROPERTY_DIMS
_HISTOGRAM_BASE = _SHAPE_BASE + _SHAPE_DIMS

#: Histogram feature position per ``(category, raw identifier)``.  The
#: blake2b bucket keys are content-stable, so the hot path (one embedding
#: per observed plan) strips, interns and hashes each vocabulary name once
#: per process.
_BUCKET_CACHE: Dict[Tuple[object, str], int] = {}


def _histogram_position(operation) -> int:
    key = (operation.category, operation.identifier)
    position = _BUCKET_CACHE.get(key)
    if position is None:
        name = intern_identifier(strip_unstable_suffix(operation.identifier))
        label = operation.category.value + "->" + name
        digest = hashlib.blake2b(label.encode("utf-8"), digest_size=4).hexdigest()
        position = _HISTOGRAM_BASE + int(digest, 16) % HISTOGRAM_BUCKETS
        if len(_BUCKET_CACHE) < 65536:  # mirror the identifier pool's bound
            _BUCKET_CACHE[key] = position
    return position


def embed_plan(plan: UnifiedPlan) -> Tuple[float, ...]:
    """Embed *plan* as a deterministic ``EMBEDDING_DIMENSIONS``-tuple.

    The vector is cached on the plan (see module docstring); plans must be
    treated as frozen once embedded, exactly like fingerprinted plans.
    One iterative walk over the tree fills every feature; each is a count,
    so the visiting order cannot change a bit of the result.
    """
    cached = plan.content_cache_get(_CACHE_KEY)
    if cached is not None:
        return cached
    features = [0.0] * EMBEDDING_DIMENSIONS
    category_position = _CATEGORY_POSITION
    histogram_position = _histogram_position
    for prop in plan.properties:
        features[category_position[prop.category]] += 1.0
    node_count = leaf_count = max_fanout = depth = 0
    stack = [] if plan.root is None else [(plan.root, 1)]
    while stack:
        node, level = stack.pop()
        node_count += 1
        if level > depth:
            depth = level
        children = node.children
        fanout = len(children)
        if fanout == 0:
            leaf_count += 1
        else:
            if fanout > max_fanout:
                max_fanout = fanout
            for child in children:
                stack.append((child, level + 1))
        operation = node.operation
        features[category_position[operation.category]] += 1.0
        for prop in node.properties:
            features[category_position[prop.category]] += 1.0
        features[histogram_position(operation)] += 1.0
    features[_SHAPE_BASE] = float(node_count)
    features[_SHAPE_BASE + 1] = float(depth)
    features[_SHAPE_BASE + 2] = float(leaf_count)
    features[_SHAPE_BASE + 3] = float(max_fanout)
    features[_SHAPE_BASE + 4] = float(node_count - leaf_count)

    vector = tuple(features)
    plan.content_cache_put(_CACHE_KEY, vector)
    return vector
