"""The user-facing facade: a fuzzy database session.

:class:`FuzzyDatabase` bundles a catalog, a vocabulary, and the query
machinery behind one ``execute()`` method that accepts both DDL/DML and
queries::

    db = FuzzyDatabase()
    db.execute("CREATE TABLE M (ID NUMERIC, NAME LABEL, AGE NUMERIC ON 'AGE')")
    db.execute("DEFINE 'medium young' ON 'AGE' AS '[20, 25, 30, 35]'")
    db.execute("INSERT INTO M VALUES (201, 'Allen', 24)")
    answer = db.execute("SELECT M.NAME FROM M WHERE M.AGE = 'medium young'")

Queries are unnested automatically when a rewrite applies (the point of
the paper); ``db.explain(sql)`` shows what the optimizer would do.
"""

from __future__ import annotations

from typing import List, Optional, Union

from .data.catalog import Catalog
from .data.io import parse_value
from .data.relation import FuzzyRelation
from .data.schema import Attribute, Schema
from .data.tuples import FuzzyTuple
from .data.types import AttributeType
from .engine.aggregates import DegreePolicy
from .engine.semantics import NaiveEvaluator
from .fuzzy.linguistic import Vocabulary
from .service.plancache import PlanCache, normalize_sql
from .service.prepared import PlanArtifact, PreparedQuery
from .sql.ast import SelectQuery
from .sql.classify import classify
from .sql.params import (
    ParameterError,
    count_parameters,
    referenced_tables,
)
from .sql.statements import (
    CreateTable,
    DefineTerm,
    DeleteFrom,
    DropTable,
    InsertInto,
    Statement,
    Update,
    parse_statement,
)
from .unnest.common import UnnestError
from .unnest.rewriter import unnest


class DatabaseError(Exception):
    """A statement could not be executed (unknown table, arity, ...)."""


class FuzzyDatabase:
    """An in-memory fuzzy relational database session."""

    def __init__(
        self,
        vocabulary: Optional[Vocabulary] = None,
        aggregate_policy: DegreePolicy = DegreePolicy.ONE,
        similarity=None,
        auto_unnest: bool = True,
    ):
        self.catalog = Catalog(vocabulary)
        self.aggregate_policy = aggregate_policy
        self.similarity = similarity
        self.auto_unnest = auto_unnest
        #: Workload-level sinks (see :mod:`repro.observe`): assign a
        #: :class:`~repro.observe.registry.MetricsRegistry`, a
        #: :class:`~repro.observe.querylog.QueryLog`, and/or a
        #: :class:`~repro.observe.recorder.FlightRecorder` and every query
        #: is folded in / logged / recorded automatically.
        self.registry = None
        self.query_log = None
        self.recorder = None
        #: LRU cache of prepared plans for textual ``query()`` calls;
        #: entries validate against tuple counts and the schema epoch.
        #: Assign ``None`` to disable caching.
        self.plan_cache: Optional[PlanCache] = PlanCache()
        # Bumped by DDL (CREATE/DROP/DEFINE/register): any schema or
        # vocabulary change invalidates every cached plan.
        self._schema_epoch = 0

    # ------------------------------------------------------------------
    # The one entry point
    # ------------------------------------------------------------------
    def execute(self, sql: str) -> Union[FuzzyRelation, str]:
        """Run one statement; queries return relations, DDL returns messages."""
        statement = parse_statement(sql)
        return self.execute_statement(statement, sql_text=sql)

    def execute_statement(
        self, statement: Statement, sql_text: Optional[str] = None
    ) -> Union[FuzzyRelation, str]:
        """Execute a parsed statement: queries return a relation, DDL/DML a status
        string.
        """
        if isinstance(statement, SelectQuery):
            return self.query(statement, sql_text=sql_text)
        if isinstance(statement, CreateTable):
            return self._create(statement)
        if isinstance(statement, InsertInto):
            return self._insert(statement)
        if isinstance(statement, DefineTerm):
            return self._define(statement)
        if isinstance(statement, DropTable):
            return self._drop(statement)
        if isinstance(statement, Update):
            return self._update(statement)
        if isinstance(statement, DeleteFrom):
            return self._delete(statement)
        raise DatabaseError(f"unsupported statement {statement!r}")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self,
        query: Union[str, SelectQuery],
        metrics=None,
        sql_text: Optional[str] = None,
        shards: Optional[int] = None,
        shard_on: Optional[str] = None,
    ) -> FuzzyRelation:
        """Run one SELECT; textual queries go through the plan cache.

        With ``shards=N`` (N >= 2) the catalog is materialized into a
        scratch *sharded* :class:`~repro.session.StorageSession` — each
        relation placed across N simulated disks on ``shard_on`` — and
        the query executes there via scatter-gather, bypassing this
        database's in-memory plan cache.  Results are bit-identical to
        the in-memory engine.
        """
        if sql_text is None and isinstance(query, str):
            sql_text = query
        if shards is not None and shards > 1:
            session = self._storage_session(shards=shards, shard_on=shard_on)
            statement = parse_statement(query) if isinstance(query, str) else query
            if not isinstance(statement, SelectQuery):
                raise DatabaseError("query() expects a SELECT statement")
            return session.query(statement, metrics=metrics)
        return self._execute(query, (), metrics, sql_text=sql_text)

    def _observe_query(self, sql_text, collector, wall, rows) -> None:
        """Fold one finished query into every attached workload sink."""
        if self.registry is not None:
            self.registry.observe(collector, wall_seconds=wall, rows=rows)
        if self.query_log is not None:
            self.query_log.record(sql_text, collector, wall_seconds=wall, rows=rows)
        if self.recorder is not None:
            self.recorder.record(sql_text, collector, wall_seconds=wall, rows=rows)

    def health(self, thresholds=None):
        """Evaluate the health rules over this database's lifetime registry.

        See :meth:`repro.session.StorageSession.health`; the in-memory
        engine has no time series, so the report always covers the
        :attr:`registry`'s totals.
        """
        from .observe.health import evaluate_health
        from .observe.timeseries import lifetime_window

        if self.registry is None:
            raise DatabaseError(
                "health() needs a registry attached "
                "(assign db.registry = MetricsRegistry())"
            )
        return evaluate_health(lifetime_window(self.registry), thresholds)

    # ------------------------------------------------------------------
    # Prepared statements and the plan cache
    # ------------------------------------------------------------------
    def prepare(self, sql: Union[str, SelectQuery]) -> PreparedQuery:
        """Parse, classify, and rewrite a SELECT once; execute many times.

        Statements may contain ``?`` placeholders (bound per execution,
        the ``WITH D >= ?`` threshold included).  Placeholder-free
        statements cache their :class:`~repro.unnest.pipeline.UnnestedPlan`
        so repeated executions skip the Theorem 4.1–8.1 rewrite work.
        """
        prepared = self._prepare(sql)
        if self.registry is not None:
            self.registry.count_prepared()
        return prepared

    def _prepare(
        self, sql: Union[str, SelectQuery], text: Optional[str] = None
    ) -> PreparedQuery:
        template = parse_statement(sql) if isinstance(sql, str) else sql
        if not isinstance(template, SelectQuery):
            raise DatabaseError("prepare() expects a SELECT statement")
        nesting = classify(template, self.catalog)
        n_params = count_parameters(template)
        artifact = self._plan_template(template, n_params)
        if text is None:
            text = sql if isinstance(sql, str) else str(sql)
        return PreparedQuery(self, text, template, nesting, n_params, artifact)

    def _plan_template(self, template: SelectQuery, n_params: int) -> PlanArtifact:
        """Unnest ahead of time when the rewrite applies and values are known.

        The in-memory pipeline embeds the query values, so parameterized
        statements get a ``dispatch`` artifact: each execution binds its
        values and plans the bound statement here.
        """
        if not self.auto_unnest:
            return PlanArtifact("naive")
        if n_params:
            return PlanArtifact("dispatch")
        try:
            plan = unnest(template, self.catalog)
        except UnnestError:
            return PlanArtifact("naive")
        return PlanArtifact("memory", plan=plan, rule=plan.rule or plan.nesting_type)

    def _resolve(
        self, source: Union[str, SelectQuery, PreparedQuery], sql_text: Optional[str]
    ):
        """The prepared statement behind ``source`` and the plan-cache outcome.

        Text (``source`` itself, or the ``sql_text`` an already parsed
        statement came from) goes through the :attr:`plan_cache`; other
        statements, and everything when caching is disabled, are prepared
        afresh.  ``query()`` cannot bind values, so a statement with ``?``
        placeholders is refused either way.
        """
        if isinstance(source, PreparedQuery):
            return source, None
        cached = sql_text is not None and self.plan_cache is not None
        outcome = None
        if cached:
            key = normalize_sql(sql_text)
            prepared, outcome = self.plan_cache.lookup(key, self._stats_tokens)
            if prepared is not None:
                return prepared, outcome
        text = sql_text if sql_text is not None else repr(source)
        prepared = self._prepare(source, text=text)
        if prepared.param_count:
            raise ParameterError(
                "query() cannot run a statement with ? placeholders; "
                "use prepare() and bind values per execution"
            )
        if cached:
            keys = sorted(referenced_tables(prepared.template)) + ["__SCHEMA__"]
            self.plan_cache.store(key, prepared, self._stats_tokens(keys))
        return prepared, outcome

    def _stats_tokens(self, keys) -> dict:
        """Current validity tokens: tuple counts plus the schema epoch."""
        tokens = {}
        for key in keys:
            if key == "__SCHEMA__":
                tokens[key] = self._schema_epoch
            else:
                try:
                    tokens[key] = len(self.catalog.get(key))
                except KeyError:
                    tokens[key] = -1
        return tokens

    def _execute(
        self,
        source: Union[str, SelectQuery, PreparedQuery],
        params: tuple,
        metrics,
        tracer=None,
        sql_text: Optional[str] = None,
    ) -> FuzzyRelation:
        """The one query pipeline: resolve a prepared artifact, then run it.

        ``source`` is SQL text, a parsed query (``sql_text`` names the
        text it came from, if any), or a :class:`PreparedQuery` (the back
        end of ``PreparedQuery.execute``).  ``tracer`` is accepted for
        signature parity with :class:`~repro.session.StorageSession` but
        the in-memory engine records no spans; use :meth:`trace` for a
        span tree.
        """
        del tracer  # the in-memory engine has no span instrumentation
        prepared, outcome = self._resolve(source, sql_text)
        need_collector = (
            metrics is not None
            or self.registry is not None
            or self.query_log is not None
            or self.recorder is not None
        )
        if not need_collector:
            result = self._run_prepared(prepared, params, None)
            prepared.executions += 1
            return result
        import time

        from .observe.metrics import QueryMetrics

        collector = metrics if metrics is not None else QueryMetrics()
        # query() calls are not "prepared executions" — only explicit
        # PreparedQuery.execute calls are.
        collector.prepared = prepared is source
        collector.plan_cache = outcome
        collector.nesting_type = prepared.nesting.value
        started = time.perf_counter()
        result = self._run_prepared(prepared, params, collector)
        wall = time.perf_counter() - started
        self._observe_query(prepared.sql_text, collector, wall, len(result))
        prepared.executions += 1
        return result

    def _run_prepared(
        self, prepared: PreparedQuery, params: tuple, collector
    ) -> FuzzyRelation:
        bound = prepared.bind(params)
        artifact = prepared.artifact
        if artifact.kind == "dispatch":
            artifact = self._plan_template(bound, 0)
        if artifact.kind == "memory":
            result = artifact.plan.execute(
                self.catalog, self._make_evaluator, metrics=collector
            )
            if collector is not None and collector.strategy is None:
                collector.strategy = "memory/unnest: rewritten in-memory plan"
            return result
        if collector is not None:
            if collector.rewrite is None:
                collector.rewrite = "none (naive fallback)"
            if collector.strategy is None:
                collector.strategy = "memory/naive: nested-loop evaluation"
        return self._make_evaluator(self.catalog).evaluate(bound)

    def run_batch(self, queries, workers: int = 1) -> List[FuzzyRelation]:
        """Execute read-only SELECTs, optionally across worker threads.

        Results come back in input order regardless of completion order;
        ``workers <= 1`` degenerates to a serial loop.  Parallel and
        serial runs return bit-identical relations (asserted by the
        differential sweep) because each query is independent and the
        shared registry/log/plan-cache are internally locked.
        """
        from .parallel.executor import run_ordered

        return run_ordered(queries, self.query, workers)

    def explain(self, sql: Union[str, SelectQuery]) -> str:
        """Describe how a query would be executed."""
        query = parse_statement(sql) if isinstance(sql, str) else sql
        if not isinstance(query, SelectQuery):
            return str(query)
        nesting = classify(query, self.catalog)
        try:
            plan = unnest(query, self.catalog)
        except UnnestError:
            return f"nesting type: {nesting.value}\nnaive nested-loop evaluation"
        return f"nesting type: {nesting.value}\n{plan.explain()}"

    def explain_analyze(
        self,
        sql: Union[str, SelectQuery],
        shards: Optional[int] = None,
        shard_on: Optional[str] = None,
    ) -> str:
        """Run a query fully instrumented on the storage engine.

        The catalog's tables are materialized into a scratch
        :class:`~repro.session.StorageSession` (heap files on a simulated
        disk), the query runs there with a
        :class:`~repro.observe.metrics.QueryMetrics` collector attached,
        and the report shows the fired rewrite, the physical plan with
        estimated vs. measured cardinalities, sort shapes, buffer
        behaviour, and per-phase I/O counts.  With ``shards=N`` the
        scratch session is sharded (placement on ``shard_on``) and the
        report gains the ``shard i [lo, hi)`` table and failover counts.
        """
        query = parse_statement(sql) if isinstance(sql, str) else sql
        if not isinstance(query, SelectQuery):
            raise DatabaseError("explain_analyze() expects a SELECT statement")
        session = self._storage_session(shards=shards, shard_on=shard_on)
        return session.explain_analyze(query)

    def _storage_session(
        self, shards: Optional[int] = None, shard_on: Optional[str] = None
    ):
        """A scratch storage session over the catalog's current contents."""
        from .session import StorageSession

        session = StorageSession(
            vocabulary=self.catalog.vocabulary,
            aggregate_policy=self.aggregate_policy,
            shards=shards if shards is not None else 1,
            shard_on=shard_on,
        )
        for name in self.catalog.names():
            session.register(name, self.catalog.get(name))
        return session

    def trace(self, sql: Union[str, SelectQuery]):
        """Run a query on the storage engine with a span tracer attached.

        Like :meth:`explain_analyze`, the catalog is materialized into a
        scratch :class:`~repro.session.StorageSession`; the returned
        :class:`~repro.observe.trace.SpanTracer` holds the span tree
        (``render_tree()``) and exports Chrome ``trace_event`` JSON
        (``export(path)``).
        """
        query = parse_statement(sql) if isinstance(sql, str) else sql
        if not isinstance(query, SelectQuery):
            raise DatabaseError("trace() expects a SELECT statement")
        return self._storage_session().trace(query)

    def _make_evaluator(self, catalog: Catalog) -> NaiveEvaluator:
        return NaiveEvaluator(
            catalog,
            aggregate_policy=self.aggregate_policy,
            similarity=self.similarity,
        )

    # ------------------------------------------------------------------
    # DDL / DML
    # ------------------------------------------------------------------
    def _create(self, statement: CreateTable) -> str:
        if statement.name in self.catalog:
            raise DatabaseError(f"table {statement.name!r} already exists")
        attrs = []
        for column in statement.columns:
            attr_type = (
                AttributeType.LABEL if column.type_name == "LABEL" else AttributeType.NUMERIC
            )
            attrs.append(Attribute(column.name, attr_type, column.domain))
        self.catalog.register(statement.name, FuzzyRelation(Schema(attrs)))
        self._schema_epoch += 1
        return f"table {statement.name} created"

    def _insert(self, statement: InsertInto) -> str:
        relation = self._table(statement.table)
        degree = statement.degree if statement.degree is not None else 1.0
        for row in statement.rows:
            if len(row) != len(relation.schema):
                raise DatabaseError(
                    f"row has {len(row)} values but {statement.table} has "
                    f"{len(relation.schema)} attributes"
                )
            values = [
                parse_value(raw, self.catalog.vocabulary, attr.domain)
                for raw, attr in zip(row, relation.schema.attributes)
            ]
            relation.add(FuzzyTuple(values, degree))
        n = len(statement.rows)
        return f"{n} tuple{'s' if n != 1 else ''} inserted into {statement.table}"

    def _update(self, statement: Update) -> str:
        """Rewrite matching rows in place; a DML counts as an epoch bump.

        A row matches when ``min(degree, mu(WHERE))`` clears the ``WITH
        D >= z`` threshold (any positive match without one).  Updated
        rows keep their membership degree.
        """
        relation = self._table(statement.table)
        schema = relation.schema
        match = self._dml_match(statement.table, relation, statement.where)
        threshold = statement.threshold
        fresh = FuzzyRelation(schema)
        changed = 0
        for t in relation:
            d = min(t.degree, match(t))
            hit = (d >= threshold) if threshold is not None else (d > 0.0)
            if not hit:
                fresh.add(t)
                continue
            values = list(t.values)
            for column, raw in statement.assignments:
                try:
                    at = schema.index_of(column)
                except KeyError as exc:
                    raise DatabaseError(str(exc)) from None
                values[at] = parse_value(
                    raw, self.catalog.vocabulary, schema.attributes[at].domain
                )
            fresh.add(FuzzyTuple(values, t.degree))
            changed += 1
        self.catalog.register(statement.table, fresh)
        self._schema_epoch += 1
        return f"{changed} tuple{'s' if changed != 1 else ''} updated in {statement.table}"

    def _delete(self, statement: DeleteFrom) -> str:
        """Remove matching rows; a DML counts as an epoch bump."""
        relation = self._table(statement.table)
        match = self._dml_match(statement.table, relation, statement.where)
        threshold = statement.threshold
        fresh = FuzzyRelation(relation.schema)
        removed = 0
        for t in relation:
            d = min(t.degree, match(t))
            hit = (d >= threshold) if threshold is not None else (d > 0.0)
            if hit:
                removed += 1
            else:
                fresh.add(t)
        self.catalog.register(statement.table, fresh)
        self._schema_epoch += 1
        return f"{removed} tuple{'s' if removed != 1 else ''} deleted from {statement.table}"

    def _dml_match(self, table_as_typed: str, relation: FuzzyRelation, where):
        """Compile the WHERE conjunction of an UPDATE / DELETE.

        Mirrors :meth:`repro.session.StorageSession._dml_match`: only
        flat comparisons, columns unqualified or qualified by the table
        name.
        """
        if not where:
            return lambda t: 1.0
        from .engine.executor import CompileError, DmlColumns, compile_comparison
        from .sql.ast import Comparison

        columns = DmlColumns(
            {None, table_as_typed, table_as_typed.upper()}, relation.schema
        )
        compiled = []
        for predicate in where:
            if not isinstance(predicate, Comparison):
                raise DatabaseError(
                    "UPDATE/DELETE WHERE accepts only flat comparisons, "
                    f"not {predicate!r}"
                )
            try:
                compiled.append(
                    compile_comparison(
                        predicate, columns, columns, self.catalog.vocabulary
                    )
                )
            except CompileError as exc:
                raise DatabaseError(str(exc)) from None

        def degree(t: FuzzyTuple) -> float:
            d = 1.0
            for predicate in compiled:
                if d == 0.0:
                    return 0.0
                d = min(d, predicate(t, None))
            return d

        return degree

    def _define(self, statement: DefineTerm) -> str:
        value = parse_value(statement.shape, self.catalog.vocabulary, statement.domain)
        self.catalog.vocabulary.define(statement.term, value, statement.domain)
        # Redefining a term changes what cached plans would compute.
        self._schema_epoch += 1
        where = f" on {statement.domain}" if statement.domain else ""
        return f"term '{statement.term}' defined{where}"

    def _drop(self, statement: DropTable) -> str:
        self._table(statement.name)  # raises if absent
        self.catalog.remove(statement.name)
        self._schema_epoch += 1
        return f"table {statement.name} dropped"

    # ------------------------------------------------------------------
    # Programmatic access
    # ------------------------------------------------------------------
    def _table(self, name: str) -> FuzzyRelation:
        try:
            return self.catalog.get(name)
        except KeyError:
            raise DatabaseError(f"no table {name!r}") from None

    def register(self, name: str, relation: FuzzyRelation) -> None:
        """Register a programmatically built relation."""
        self.catalog.register(name, relation)
        self._schema_epoch += 1

    def table(self, name: str) -> FuzzyRelation:
        """The relation stored under ``name``."""
        return self._table(name)

    def tables(self) -> List[str]:
        """Sorted names of every stored table."""
        return self.catalog.names()

    def __contains__(self, name: str) -> bool:
        return name in self.catalog

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Persist tables and vocabulary as JSON under ``path``."""
        from .persist import save_database

        save_database(self, path)

    @classmethod
    def load(cls, path, **kwargs) -> "FuzzyDatabase":
        """Reconstruct a database saved with :meth:`save`."""
        from .persist import load_database

        return load_database(path, **kwargs)
