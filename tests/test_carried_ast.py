"""Carried ASTs: generated SQL hands the dialect its own parse.

The generator, TLP and CERT return :class:`~repro.sqlparser.ParsedText`
values — SQL text carrying the statement list ``parse_sql`` would produce
for it — and the prepared-query cache uses that list instead of parsing.
Four properties are pinned here:

* **Equality** — every carried list equals ``parse_sql(text)`` (dataclass
  ``==``, and ``repr`` too, so an ``int`` literal never stands in for a
  ``float``), over a seed corpus and a hypothesis property over the
  generator's configuration switches.
* **Text identity** — the texts are byte-identical to the historical
  f-string output (pinned literals): the text is the identity of a query
  everywhere, so carrying an AST must not move a single byte.
* **Cache-off parses** — with ``prepared_cache=False`` a dialect ignores a
  carried list and answers from the text.
* **No parse in campaigns** — with the cache on, a six-dialect campaign
  parses none of its generated statements, and with the cache off it
  produces the identical coverage set, counters and Table V rows.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

import repro.dialects.prepared as prepared_module
from repro.dialects import RELATIONAL_DIALECTS, create_dialect
from repro.sqlparser import ParsedText, ast, parse_sql
from repro.testing import FaultyDialect, TestingCampaign
from repro.testing.bugs import KNOWN_BUGS
from repro.testing.generator import GeneratorConfig, RandomQueryGenerator
from repro.testing.tlp import check_tlp, partition_queries


class _Recorder:
    """The dialect surface TLP touches: records every statement sent."""

    def __init__(self):
        self.statements = []

    def execute(self, statement):
        self.statements.append(statement)
        return []


def generated_statements(seed, queries, config=None):
    """Every statement the generator, TLP and CERT build for one seed."""
    generator = RandomQueryGenerator(seed=seed, config=config)
    statements = list(generator.schema_statements())
    recorder = _Recorder()
    for _ in range(queries):
        query = generator.select_query()
        table = generator.random.choice(generator.tables)
        statements.append(query)
        statements.append(generator.restricted_query(query, table))
        statements.append(generator.mutation_statement())
        check_tlp(recorder, table, generator.random_predicate(table))
    return statements + recorder.statements


def assert_carried_equals_parse(statements):
    for text in statements:
        assert isinstance(text, ParsedText), text
        parsed = parse_sql(text)
        assert text.statements == parsed, text
        assert repr(text.statements) == repr(parsed), text


class TestCarriedEqualsParse:
    def test_seed_corpus(self):
        # 40 seeds x 50 queries: generator, TLP (base + 3 partitions), CERT.
        for seed in range(40):
            assert_carried_equals_parse(generated_statements(seed, 50))

    @pytest.mark.slow
    def test_large_seed_corpus(self):
        for seed in range(200):
            assert_carried_equals_parse(generated_statements(seed, 50))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        subqueries=st.booleans(),
        set_operations=st.booleans(),
        group_by=st.booleans(),
        max_tables=st.integers(min_value=1, max_value=3),
    )
    def test_property_over_generator_switches(
        self, seed, subqueries, set_operations, group_by, max_tables
    ):
        config = GeneratorConfig(
            max_tables=max_tables,
            allow_subqueries=subqueries,
            allow_set_operations=set_operations,
            allow_group_by=group_by,
        )
        assert_carried_equals_parse(generated_statements(seed, 15, config))


def _nth_query(seed, index, config=None):
    generator = RandomQueryGenerator(seed=seed, config=config)
    generator.schema_statements()
    for _ in range(index):
        generator.select_query()
    return generator, generator.select_query()


class TestPinnedTexts:
    """Texts that must stay byte-identical to the pre-carried-AST output."""

    SMALL = GeneratorConfig(max_rows_per_table=3)

    @pytest.mark.parametrize(
        "seed, index, expected",
        [
            (18, 6, "SELECT * FROM t0 WHERE (t0.c0 < -5)"),
            (18, 5, "SELECT * FROM t0 WHERE (t0.c0 BETWEEN -89 AND 45)"),
            (23, 7, "SELECT * FROM t0 , t1"),
            (23, 2, "SELECT * FROM t1 INNER JOIN t0 ON t1.c3 = t0.c0"),
            (60, 1, "SELECT t1.c1 FROM t1 UNION ALL SELECT t0.c0 FROM t0"),
            (28, 5, "SELECT t0.c0 FROM t0 INTERSECT SELECT t0.c1 FROM t0"),
            (100, 2, "SELECT t0.c2 FROM t0 EXCEPT SELECT t0.c0 FROM t0"),
            (175, 5, "SELECT * FROM t0 WHERE (t0.c1 IN (SELECT t1.c3 FROM t1))"),
            (16, 6, "SELECT * FROM t1 WHERE EXISTS (SELECT t0.c2 FROM t0)"),
            (242, 1, "SELECT * FROM t0 WHERE (t0.c0 IN (GREATEST(0.5, 0.2)))"),
            (3, 6, "SELECT t0.c1 FROM t0 GROUP BY t0.c1"),
            (8, 3, "SELECT * FROM t0 ORDER BY 1 LIMIT 5"),
        ],
    )
    def test_select_texts(self, seed, index, expected):
        _, query = _nth_query(seed, index, self.SMALL)
        assert query == expected
        assert_carried_equals_parse([query])

    @pytest.mark.parametrize(
        "seed, index, expected",
        [
            (18, 6, "SELECT * FROM t0 WHERE (t0.c0 < 50) AND (t0.c0 < -5)"),
            (23, 2, "SELECT * FROM t1 INNER JOIN t0 ON t1.c3 = t0.c0 WHERE t0.c0 < 49"),
            (60, 1, "SELECT t1.c1 FROM t1 WHERE t0.c2 < 40 UNION ALL SELECT t0.c0 FROM t0"),
            (8, 3, "SELECT * FROM t0 WHERE t0.c1 < 41 ORDER BY 1 LIMIT 5"),
        ],
    )
    def test_restricted_texts(self, seed, index, expected):
        generator, query = _nth_query(seed, index, self.SMALL)
        restricted = generator.restricted_query(query, generator.tables[0])
        assert restricted == expected
        assert_carried_equals_parse([restricted])

    def test_schema_and_mutation_texts(self):
        generator = RandomQueryGenerator(seed=5, config=self.SMALL)
        assert generator.schema_statements()[:2] == [
            "CREATE TABLE t0 (c0 INT, c1 INT, c2 INT)",
            "INSERT INTO t0 (c0, c1, c2) VALUES (89, 35, NULL), (-37, -60, 20), (-3, 46, 87)",
        ]
        generator = RandomQueryGenerator(seed=4, config=self.SMALL)
        assert generator.schema_statements() == [
            "CREATE TABLE t0 (c0 INT PRIMARY KEY, c1 INT, c2 INT)",
            "INSERT INTO t0 (c0, c1, c2) VALUES (1, -77, NULL), (2, -26, 95)",
        ]
        mutations = [generator.mutation_statement() for _ in range(6)]
        assert mutations == [
            "CREATE INDEX i1 ON t0(c2)",
            "CREATE INDEX i2 ON t0(c0)",
            "CREATE INDEX i3 ON t0(c0)",
            "UPDATE t0 SET c0 = -58 WHERE c1 < -26",
            "CREATE INDEX i4 ON t0(c2)",
            "INSERT INTO t0 (c0, c1, c2) VALUES (-55, -29, 40)",
        ]
        generator = RandomQueryGenerator(seed=2, config=self.SMALL)
        generator.schema_statements()
        assert [generator.mutation_statement() for _ in range(4)][3] == (
            "DELETE FROM t0 WHERE c0 > -7"
        )
        assert_carried_equals_parse(mutations)

    def test_tlp_partition_texts(self):
        predicate = ast.BinaryOp("<", ast.ColumnRef("c0", "t0"), ast.Literal(-5))
        assert partition_queries("t0", predicate) == (
            "SELECT * FROM t0 WHERE (t0.c0 < -5)",
            "SELECT * FROM t0 WHERE NOT ((t0.c0 < -5))",
            "SELECT * FROM t0 WHERE ((t0.c0 < -5)) IS NULL",
        )
        assert_carried_equals_parse(partition_queries("t0", predicate))


class TestCarriedTextContract:
    SETUP = [
        "CREATE TABLE t (c0 INT)",
        "INSERT INTO t (c0) VALUES (1), (2), (3), (4), (5)",
    ]

    def _dialect(self, prepared_cache):
        dialect = create_dialect("postgresql", prepared_cache=prepared_cache)
        for statement in self.SETUP:
            dialect.execute(statement)
        dialect.analyze_tables()
        return dialect

    def _lying(self):
        # The text asks for c0 < 3; the carried AST deliberately says c0 > 3.
        return ParsedText(
            "SELECT c0 FROM t WHERE c0 < 3", parse_sql("SELECT c0 FROM t WHERE c0 > 3")
        )

    def test_cache_off_answers_from_the_text(self):
        dialect = self._dialect(prepared_cache=False)
        assert dialect.execute(self._lying()) == [{"c0": 1}, {"c0": 2}]
        expected = dialect.explain("SELECT c0 FROM t WHERE c0 < 3").text
        assert dialect.explain(self._lying()).text == expected
        faulty = FaultyDialect(dialect)
        assert faulty.estimated_root_rows(self._lying()) == faulty.estimated_root_rows(
            "SELECT c0 FROM t WHERE c0 < 3"
        )

    def test_cache_on_trusts_the_carried_list(self):
        # The other side of the contract: a parse-cache miss takes the
        # carried statements as they are — which is why they must equal
        # parse_sql(text).
        dialect = self._dialect(prepared_cache=True)
        assert dialect.execute(self._lying()) == [{"c0": 4}, {"c0": 5}]

    def test_string_operations_and_pickling_drop_the_ast(self):
        text = self._lying()
        for derived in (
            text.upper(),
            text + " ",
            text[:10],
            str(text),
            pickle.loads(pickle.dumps(text)),
        ):
            assert type(derived) is str
        assert pickle.loads(pickle.dumps(text)) == text

    @pytest.mark.parametrize("name", RELATIONAL_DIALECTS)
    def test_estimate_without_a_fault_is_the_dialect_estimate(self, name):
        # FaultyDialect has no planner path of its own: with no performance
        # bug armed it answers exactly what the wrapped dialect answers.
        dialect = create_dialect(name)
        for statement in self.SETUP:
            dialect.execute(statement)
        dialect.analyze_tables()
        faulty = FaultyDialect(dialect)
        for query in ("SELECT c0 FROM t WHERE c0 > 2", "SELECT c0 FROM t"):
            assert faulty.estimated_root_rows(query) == dialect.estimated_root_rows(
                query
            )

    def test_estimated_root_rows_rejects_scripts(self):
        from repro.errors import ParseError

        faulty = FaultyDialect(self._dialect(prepared_cache=True))
        with pytest.raises(ParseError):
            faulty.estimated_root_rows("SELECT c0 FROM t; SELECT c0 FROM t")


class TestCampaignParsesNothing:
    """Tier-1 guard: generated statements never reach the parser."""

    def _campaign(self, monkeypatch, prepared_cache):
        calls = []
        parse = prepared_module.parse_sql

        def counting_parse(sql):
            calls.append(str(sql))
            return parse(sql)

        monkeypatch.setattr(prepared_module, "parse_sql", counting_parse)
        result = TestingCampaign(
            dbms_names=list(RELATIONAL_DIALECTS),
            seed=7,
            queries_per_dbms=50,
            cert_pairs_per_dbms=20,
            bound_checks_per_dbms=10,
            prepared_cache=prepared_cache,
        ).run()
        return result, calls

    def test_cache_on_parses_nothing_cache_off_identical(self, monkeypatch):
        on, on_calls = self._campaign(monkeypatch, True)
        assert on_calls == []
        off, off_calls = self._campaign(monkeypatch, False)
        assert off_calls, "the cache-off path must parse every text"
        assert on.plan_fingerprints == off.plan_fingerprints
        assert on.table5_rows() == off.table5_rows()
        assert len(on.table5_rows()) == len(KNOWN_BUGS)
        assert [vars(report) for report in on.reports] == [
            vars(report) for report in off.reports
        ]
        for counter in (
            "queries_generated",
            "unique_plans",
            "cert_pairs_checked",
            "bound_queries_checked",
            "conversions",
            "conversion_cache_hits",
        ):
            assert getattr(on, counter) == getattr(off, counter), counter
        assert all(
            type(report.trigger_query) is str for report in on.reports
        )
