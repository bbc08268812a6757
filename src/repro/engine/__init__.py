"""Execution engine substrate: expression evaluation and the plan executors.

Two interchangeable executors interpret physical plans: the row-at-a-time
:class:`~repro.engine.executor.Executor` (the correctness oracle) and the
columnar :class:`~repro.engine.vectorized.VectorizedExecutor` (the fast
path).  ``create_executor`` picks one by name — the ``executor=`` toggle
the dialects and campaigns expose."""

from repro.engine import arrays
from repro.engine.arrays import (
    ArrayColumn,
    numpy_available,
    numpy_enabled,
    set_numpy_enabled,
)
from repro.engine.expressions import (
    BatchContext,
    EvaluationContext,
    compile_expression_batch,
    compile_predicate_batch,
    evaluate,
    evaluate_predicate,
    resolve_column,
)
from repro.engine.executor import Executor
from repro.engine.vectorized import RowBatch, VectorizedExecutor

#: The executor implementations selectable by name.
EXECUTORS = {
    "row": Executor,
    "vectorized": VectorizedExecutor,
}


def create_executor(kind: str, database, planner=None) -> Executor:
    """Instantiate the executor implementation called *kind*."""
    try:
        implementation = EXECUTORS[kind.lower()]
    except KeyError as exc:
        raise ValueError(
            f"unknown executor {kind!r}; available: {sorted(EXECUTORS)}"
        ) from exc
    return implementation(database, planner)


__all__ = [
    "arrays",
    "ArrayColumn",
    "numpy_available",
    "numpy_enabled",
    "set_numpy_enabled",
    "BatchContext",
    "EvaluationContext",
    "compile_expression_batch",
    "compile_predicate_batch",
    "evaluate",
    "evaluate_predicate",
    "resolve_column",
    "Executor",
    "RowBatch",
    "VectorizedExecutor",
    "EXECUTORS",
    "create_executor",
]
