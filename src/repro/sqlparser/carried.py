"""SQL text that carries its own parse.

Generated SQL is built as an AST and printed, so the builder already knows
the parse of the text it prints.  :class:`ParsedText` lets it hand both to a
dialect: the value *is* the text (a ``str``, byte-identical to what would
otherwise be sent), and its :attr:`~ParsedText.statements` attribute holds
the statement list that :func:`~repro.sqlparser.parser.parse_sql` would
return for that text.  The prepared-query cache uses the carried list on a
parse-cache miss instead of lexing and parsing the text again.

The text stays the only identity: cache keys, fault triggers, reports and
the service wire all see the string.  Any string operation (``upper``,
concatenation, slicing) yields a plain ``str``, and pickling or copying a
:class:`ParsedText` yields a plain ``str`` too, so a carried AST never
reaches anything stored or shipped.

A builder's AST is not the parser's: the printer adds parentheses and prints
``Literal(-5)`` as ``-5``, which parses as ``UnaryOp('-', Literal(5))``.
:func:`as_parsed` maps an expression to the form the parser returns for its
printed text, so carried lists compare equal (dataclass ``==``) to
``parse_sql(text)``.  Carried lists are shared, exactly like cached parses:
nobody may mutate them.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

from repro.sqlparser import ast_nodes as ast
from repro.sqlparser.tokens import KEYWORDS


class ParsedText(str):
    """A SQL string together with the statements it parses to."""

    def __new__(cls, text: str, statements: List[ast.Statement]) -> "ParsedText":
        self = super().__new__(cls, text)
        #: Equal to ``parse_sql(text)``; shared, never mutated.
        self.statements = statements
        return self

    def __reduce__(self):
        # Pickles (and copies) as the plain text: the AST stays in-process.
        return (str, (str(self),))


def as_parsed(expression: ast.Expression) -> ast.Expression:
    """The expression ``parse(print_expression(expression))`` would return.

    Builds new nodes where the two forms differ and shares the rest.
    Covers the expression kinds the random generator produces; any other
    kind raises ``TypeError`` rather than risk carrying a wrong AST.
    """
    if isinstance(expression, ast.Literal):
        value = expression.value
        if isinstance(value, (int, float)) and value < 0:
            return ast.UnaryOp("-", ast.Literal(-value))
        return expression
    if isinstance(expression, ast.ColumnRef):
        return expression
    if isinstance(expression, ast.BinaryOp):
        return ast.BinaryOp(
            expression.operator, as_parsed(expression.left), as_parsed(expression.right)
        )
    if isinstance(expression, ast.UnaryOp):
        return ast.UnaryOp(expression.operator, as_parsed(expression.operand))
    if isinstance(expression, ast.InList):
        return ast.InList(
            as_parsed(expression.expression),
            [as_parsed(item) for item in expression.items],
            expression.negated,
        )
    if isinstance(expression, ast.Between):
        return ast.Between(
            as_parsed(expression.expression),
            as_parsed(expression.low),
            as_parsed(expression.high),
            expression.negated,
        )
    if isinstance(expression, ast.IsNull):
        return ast.IsNull(as_parsed(expression.expression), expression.negated)
    if isinstance(expression, ast.FunctionCall):
        name = expression.name
        # Keyword-spelled names lex upper-cased; identifiers keep their case.
        if name.upper() in KEYWORDS:
            name = name.upper()
        return ast.FunctionCall(
            name,
            [as_parsed(argument) for argument in expression.arguments],
            expression.distinct,
            expression.star,
        )
    if isinstance(expression, ast.InSubquery):
        return ast.InSubquery(
            as_parsed(expression.expression),
            _as_parsed_subquery(expression.subquery),
            expression.negated,
        )
    if isinstance(expression, ast.Exists) and not expression.negated:
        return ast.Exists(_as_parsed_subquery(expression.query))
    raise TypeError(f"as_parsed does not cover {type(expression).__name__}")


def _as_parsed_subquery(statement: ast.SelectStatement) -> ast.SelectStatement:
    """A single-block ``SELECT items FROM table [WHERE ...]`` subquery."""
    core = statement.body
    if (
        not isinstance(core, ast.SelectCore)
        or not isinstance(core.from_clause, ast.TableRef)
        or core.group_by
        or core.having is not None
        or statement.order_by
        or statement.limit is not None
        or statement.offset is not None
    ):
        raise TypeError("as_parsed covers single-table subqueries only")
    items = [
        ast.SelectItem(as_parsed(item.expression), item.alias) for item in core.items
    ]
    where = as_parsed(core.where) if core.where is not None else None
    return ast.SelectStatement(body=replace(core, items=items, where=where))
