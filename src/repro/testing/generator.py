"""Random schema, data, and query generation (the SQLancer role).

QPG and CERT need a stream of randomly generated databases and queries.  The
generator is deliberately simple but produces the constructs the oracles care
about: filtered scans, joins, grouping, set operations, and index creation /
row mutation statements used as database-state mutations by QPG.

Every statement is returned as a :class:`~repro.sqlparser.carried.ParsedText`:
the SQL text (byte-identical to the historical f-string output) carrying the
statement list ``parse_sql`` would produce for it, built from the generator's
own AST via :func:`~repro.sqlparser.carried.as_parsed`.  Dialects with a
prepared-query cache use the carried list instead of re-lexing and
re-parsing the text.  The text remains the identity; the carried AST is an
optimisation that ``tests/test_carried_ast.py`` holds equal to the parse.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.sqlparser import ast_nodes as ast
from repro.sqlparser.carried import ParsedText, as_parsed
from repro.sqlparser.printer import print_expression, print_statement


@dataclass
class GeneratorConfig:
    """Knobs of the random generator."""

    max_tables: int = 3
    max_columns: int = 4
    max_rows_per_table: int = 60
    max_predicates: int = 3
    max_join_tables: int = 3
    integer_range: int = 100
    allow_group_by: bool = True
    allow_set_operations: bool = True
    allow_subqueries: bool = True


class RandomQueryGenerator:
    """Generates random schemas, rows, mutations, and SELECT queries."""

    def __init__(self, seed: int = 0, config: Optional[GeneratorConfig] = None) -> None:
        self.random = random.Random(seed)
        self.config = config or GeneratorConfig()
        self.tables: List[str] = []
        self.columns: dict = {}
        self._index_counter = 0

    # ------------------------------------------------------------------ schema / data

    def schema_statements(self) -> List[str]:
        """Generate CREATE TABLE + INSERT statements for a fresh database."""
        statements: List[str] = []
        self.tables = []
        self.columns = {}
        table_count = self.random.randint(1, self.config.max_tables)
        for table_index in range(table_count):
            table = f"t{table_index}"
            column_count = self.random.randint(1, self.config.max_columns)
            columns = [f"c{i}" for i in range(column_count)]
            self.tables.append(table)
            self.columns[table] = columns
            # Primary keys are added on the first column of some tables; their
            # values are then generated unique and non-null below.
            with_primary_key = self.random.random() < 0.3
            create = ast.CreateTable(
                table,
                [
                    ast.ColumnDef(column, "INT", primary_key=i == 0 and with_primary_key)
                    for i, column in enumerate(columns)
                ],
            )
            statements.append(ParsedText(print_statement(create), [create]))
            row_count = self.random.randint(1, self.config.max_rows_per_table)
            rows = [
                [
                    ast.Literal(row_index + 1)
                    if (i == 0 and with_primary_key)
                    else self._random_value(allow_null=True)
                    for i in range(column_count)
                ]
                for row_index in range(row_count)
            ]
            statements.append(_insert(table, columns, rows))
        return statements

    def _random_value(self, allow_null: bool = False) -> ast.Literal:
        if allow_null and self.random.random() < 0.08:
            return ast.Literal(None)
        return ast.Literal(
            self.random.randint(-self.config.integer_range, self.config.integer_range)
        )

    # ------------------------------------------------------------------ mutations (QPG)

    def mutation_statement(self) -> str:
        """Generate a database-state mutation (index, insert, update, delete)."""
        table = self.random.choice(self.tables)
        columns = self.columns[table]
        choice = self.random.random()
        if choice < 0.4:
            self._index_counter += 1
            column = self.random.choice(columns)
            name = f"i{self._index_counter}"
            return ParsedText(
                f"CREATE INDEX {name} ON {table}({column})",
                [ast.CreateIndex(name, table, [column])],
            )
        if choice < 0.7:
            return _insert(
                table, columns, [[self._random_value(allow_null=True) for _ in columns]]
            )
        if choice < 0.85:
            column = self.random.choice(columns)
            value = self._random_value()
            where_column = self.random.choice(columns)
            bound = self._random_value()
            return ParsedText(
                f"UPDATE {table} SET {column} = {print_expression(value)} "
                f"WHERE {where_column} < {print_expression(bound)}",
                [
                    ast.Update(
                        table,
                        [(column, as_parsed(value))],
                        ast.BinaryOp("<", ast.ColumnRef(where_column), as_parsed(bound)),
                    )
                ],
            )
        where_column = self.random.choice(columns)
        bound = self._random_value()
        return ParsedText(
            f"DELETE FROM {table} WHERE {where_column} > {print_expression(bound)}",
            [ast.Delete(table, ast.BinaryOp(">", ast.ColumnRef(where_column), as_parsed(bound)))],
        )

    # ------------------------------------------------------------------ predicates

    def random_predicate(self, table: str) -> ast.Expression:
        """Generate a random predicate over *table*'s columns."""
        column = ast.ColumnRef(self.random.choice(self.columns[table]), table)
        roll = self.random.random()
        constant = ast.Literal(self.random.randint(-self.config.integer_range, self.config.integer_range))
        if roll < 0.35:
            operator = self.random.choice(["<", "<=", ">", ">=", "=", "<>"])
            return ast.BinaryOp(operator, column, constant)
        if roll < 0.5:
            low = self.random.randint(-self.config.integer_range, 0)
            high = self.random.randint(0, self.config.integer_range)
            return ast.Between(column, ast.Literal(low), ast.Literal(high))
        if roll < 0.65:
            items = [
                ast.Literal(self.random.randint(-self.config.integer_range, self.config.integer_range))
                for _ in range(self.random.randint(1, 4))
            ]
            return ast.InList(column, items, negated=self.random.random() < 0.3)
        if roll < 0.75:
            return ast.IsNull(column, negated=self.random.random() < 0.5)
        if roll < 0.9:
            left = self.random_predicate(table)
            right = self.random_predicate(table)
            return ast.BinaryOp(self.random.choice(["AND", "OR"]), left, right)
        function = ast.FunctionCall(
            "GREATEST", [ast.Literal(round(self.random.random(), 1)), ast.Literal(round(self.random.random(), 1))]
        )
        return ast.InList(column, [function], negated=False)

    def subquery_predicate(self, tables: Sequence[str]) -> ast.Expression:
        """An ``IN`` / ``NOT IN`` / ``[NOT] EXISTS`` subquery predicate.

        The subqueries are uncorrelated — every reference is qualified with
        the inner table — so the planner's decorrelation rewrite applies and
        campaigns steer toward the semi/anti-join plan shapes; with
        ``decorrelate=False`` the same queries exercise the per-row oracle
        path.  Inner tables keep their normal NULL rate, which makes the
        ``NOT IN`` + inner-NULL trap a routinely generated case.
        """
        outer = self.random.choice(list(tables))
        inner = self.random.choice(self.tables)
        inner_column = ast.ColumnRef(self.random.choice(self.columns[inner]), inner)
        inner_where = (
            self.random_predicate(inner) if self.random.random() < 0.5 else None
        )
        subquery = ast.SelectStatement(
            body=ast.SelectCore(
                items=[ast.SelectItem(inner_column)],
                from_clause=ast.TableRef(inner),
                where=inner_where,
            )
        )
        roll = self.random.random()
        if roll < 0.6:
            probe = ast.ColumnRef(self.random.choice(self.columns[outer]), outer)
            return ast.InSubquery(probe, subquery, negated=self.random.random() < 0.4)
        exists = ast.Exists(subquery)
        if self.random.random() < 0.5:
            return ast.UnaryOp("NOT", exists)
        return exists

    def where_clause(self, tables: Sequence[str]) -> Optional[ast.Expression]:
        """Generate a conjunction of random predicates over *tables*."""
        predicate_count = self.random.randint(0, self.config.max_predicates)
        predicates = [
            self.random_predicate(self.random.choice(list(tables)))
            for _ in range(predicate_count)
        ]
        return ast.conjoin(predicates)

    # ------------------------------------------------------------------ queries

    def select_query(self) -> str:
        """Generate a random SELECT statement as SQL text (a :class:`ParsedText`).

        FROM, JOIN, GROUP BY, set operations and ORDER BY/LIMIT are spelled
        with f-strings (the text is pinned by tests/test_carried_ast.py); the
        carried statement is built alongside in the parser's form.
        """
        table_count = self.random.randint(1, min(self.config.max_join_tables, len(self.tables)))
        chosen = self.random.sample(self.tables, table_count)
        from_table: ast.TableExpression = ast.TableRef(chosen[0])
        if table_count > 1 and self.random.random() < 0.3:
            from_clause = " , ".join(chosen)
            for other in chosen[1:]:
                from_table = ast.Join(from_table, ast.TableRef(other), "CROSS")
        elif table_count > 1:
            base = chosen[0]
            joins = []
            for other in chosen[1:]:
                left_column = self.random.choice(self.columns[base])
                right_column = self.random.choice(self.columns[other])
                joins.append(f"INNER JOIN {other} ON {base}.{left_column} = {other}.{right_column}")
                condition = ast.BinaryOp(
                    "=", ast.ColumnRef(left_column, base), ast.ColumnRef(right_column, other)
                )
                from_table = ast.Join(from_table, ast.TableRef(other), "INNER", condition)
            from_clause = f"{base} {' '.join(joins)}"
        else:
            from_clause = chosen[0]

        target_table = chosen[0]
        target_column = self.random.choice(self.columns[target_table])
        target = ast.SelectItem(ast.ColumnRef(target_column, target_table))
        select_list = f"{target_table}.{target_column}"
        item = target
        if self.random.random() < 0.25:
            select_list = "*"
            item = ast.SelectItem(ast.Star())

        where = self.where_clause(chosen)
        if self.config.allow_subqueries and self.random.random() < 0.15:
            quantified = self.subquery_predicate(chosen)
            where = (
                quantified if where is None else ast.BinaryOp("AND", where, quantified)
            )
        where_text = f" WHERE {print_expression(where)}" if where is not None else ""
        parsed_where = as_parsed(where) if where is not None else None

        group_text = ""
        group_by: List[ast.Expression] = []
        if self.config.allow_group_by and self.random.random() < 0.3 and select_list != "*":
            group_text = f" GROUP BY {select_list}"
            group_by = [target.expression]

        query = f"SELECT {select_list} FROM {from_clause}{where_text}{group_text}"
        body: ast.Node = ast.SelectCore([item], from_table, parsed_where, group_by)

        if self.config.allow_set_operations and self.random.random() < 0.15:
            other_table = self.random.choice(self.tables)
            other_column = self.random.choice(self.columns[other_table])
            operator = self.random.choice(["UNION", "UNION ALL", "INTERSECT", "EXCEPT"])
            if select_list == "*":
                query = f"SELECT {target_table}.{target_column} FROM {from_clause}{where_text}"
                body = ast.SelectCore([target], from_table, parsed_where)
            query = f"{query} {operator} SELECT {other_table}.{other_column} FROM {other_table}"
            other = ast.SelectCore(
                [ast.SelectItem(ast.ColumnRef(other_column, other_table))],
                ast.TableRef(other_table),
            )
            body = ast.SetOperation(operator, body, other)

        statement = ast.SelectStatement(body)
        if self.random.random() < 0.2:
            limit = self.random.randint(1, 10)
            query += f" ORDER BY 1 LIMIT {limit}"
            statement.order_by = [ast.OrderItem(ast.Literal(1))]
            statement.limit = ast.Literal(limit)
        return ParsedText(query, [statement])

    def restricted_query(self, query: ParsedText, table: str) -> str:
        """Return a strictly more restrictive version of *query* (for CERT).

        *query* is a :meth:`select_query` result.  The restriction
        ``table.column < n`` is conjoined in front of its first SELECT
        block's WHERE (or becomes it); the carried statement copies that
        block with the new WHERE, never mutating the shared input AST.
        """
        column = self.random.choice(self.columns[table])
        bound = self.random.randint(0, self.config.integer_range)
        extra_text = f"{table}.{column} < {bound}"
        upper = query.upper()
        if " WHERE " in upper:
            position = upper.index(" WHERE ") + len(" WHERE ")
            text = query[:position] + f"({extra_text}) AND " + query[position:]
        else:
            insert_at = len(query)
            for keyword in (" GROUP BY ", " ORDER BY ", " UNION", " INTERSECT", " EXCEPT", " LIMIT "):
                index = upper.find(keyword)
                if index != -1:
                    insert_at = min(insert_at, index)
            text = query[:insert_at] + f" WHERE {extra_text}" + query[insert_at:]
        extra = ast.BinaryOp("<", ast.ColumnRef(column, table), ast.Literal(bound))
        statement = query.statements[0]
        return ParsedText(text, [replace(statement, body=_restrict(statement.body, extra))])


def _restrict(body: ast.Node, extra: ast.Expression) -> ast.Node:
    """A copy of *body* with *extra* conjoined onto its first block's WHERE."""
    if isinstance(body, ast.SetOperation):
        return replace(body, left=_restrict(body.left, extra))
    where = extra if body.where is None else ast.BinaryOp("AND", extra, body.where)
    return replace(body, where=where)


def _insert(table: str, columns: Sequence[str], rows: List[List[ast.Literal]]) -> ParsedText:
    """``INSERT INTO table (columns) VALUES ...`` as printed text plus parse."""
    statement = ast.Insert(table, list(columns), rows)
    parsed = ast.Insert(table, list(columns), [[as_parsed(value) for value in row] for row in rows])
    return ParsedText(print_statement(statement), [parsed])
