"""Ternary Logic Partitioning (TLP) — the logic-bug test oracle.

TLP partitions a query's rows by a predicate ``p`` into the rows where ``p``
is true, false, and NULL.  The union of the three partitions must equal the
unpartitioned result; any difference indicates a logic bug.  The paper uses
TLP as the oracle that surfaces the Listing 3 MySQL bug found with QPG.

The base and partition queries are sent as
:class:`~repro.sqlparser.carried.ParsedText`, so the dialect plans them
without re-parsing; :class:`TLPResult` keeps their plain text.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.sqlparser import ast_nodes as ast
from repro.sqlparser.carried import ParsedText, as_parsed
from repro.sqlparser.printer import print_expression


@dataclass
class TLPResult:
    """Outcome of one TLP check."""

    passed: bool
    query: str
    partition_queries: Tuple[str, str, str]
    base_count: int
    partition_count: int
    message: str = ""


def _row_key(row: dict) -> Tuple:
    return tuple(
        (key, repr(value)) for key, value in sorted(row.items(), key=lambda item: item[0])
    )


def _select_star(text: str, table: str, where: Optional[ast.Expression] = None) -> ParsedText:
    """``SELECT * FROM table [WHERE ...]`` carrying its parse."""
    core = ast.SelectCore([ast.SelectItem(ast.Star())], ast.TableRef(table), where)
    return ParsedText(text, [ast.SelectStatement(core)])


def partition_queries(table: str, predicate: ast.Expression) -> Tuple[str, str, str]:
    """Build the three partition queries for ``SELECT * FROM table``.

    Each is a :class:`~repro.sqlparser.carried.ParsedText`; the three share
    the predicate's parsed form, which nobody mutates.
    """
    predicate_text = print_expression(predicate)
    condition = as_parsed(predicate)
    return (
        _select_star(f"SELECT * FROM {table} WHERE {predicate_text}", table, condition),
        _select_star(
            f"SELECT * FROM {table} WHERE NOT ({predicate_text})",
            table,
            ast.UnaryOp("NOT", condition),
        ),
        _select_star(
            f"SELECT * FROM {table} WHERE ({predicate_text}) IS NULL",
            table,
            ast.IsNull(condition),
        ),
    )


def check_tlp(dialect, table: str, predicate: ast.Expression) -> TLPResult:
    """Run a TLP check for one table/predicate pair against *dialect*."""
    base_query = _select_star(f"SELECT * FROM {table}", table)
    partitions = partition_queries(table, predicate)

    base_rows = dialect.execute(base_query)
    partition_rows: List[dict] = []
    for query in partitions:
        partition_rows.extend(dialect.execute(query))

    base_counter = Counter(_row_key(row) for row in base_rows)
    partition_counter = Counter(_row_key(row) for row in partition_rows)
    passed = base_counter == partition_counter
    message = ""
    if not passed:
        missing = base_counter - partition_counter
        extra = partition_counter - base_counter
        message = (
            f"partitioned result differs from base result "
            f"(missing={sum(missing.values())}, extra={sum(extra.values())})"
        )
    return TLPResult(
        passed=passed,
        query=str(base_query),
        partition_queries=tuple(str(query) for query in partitions),
        base_count=sum(base_counter.values()),
        partition_count=sum(partition_counter.values()),
        message=message,
    )
