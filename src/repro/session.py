"""A storage-backed query session: every nesting type on the disk engine.

:class:`StorageSession` is the integration layer that makes the paper's
architecture concrete end to end: relations are materialized as paged heap
files, and every query is prepared into a
:class:`~repro.service.prepared.PlanArtifact` naming its disk-level
strategy, then run —

* flat / type N / J / SOME / chain  → unnest, then the
  :class:`~repro.engine.executor.FlatCompiler` plan (merge joins with
  selection pushdown, optional Section 8 join ordering);
* type XN / JX (NOT IN)            → the Section 5 grouped anti-join fold;
* type ALL / JALL                   → the Section 7 doubly negated fold;
* type JA with one equality correlation → the Section 6 pipelined
  T1/T2/JA' merge pass;
* everything else (GENERAL, type A, exotic JA shapes) → relations are read
  back through the buffer (charged) and evaluated by the naive engine.

All I/O and CPU events of the last query are available in
:attr:`last_stats`; :attr:`last_strategy` names the path taken.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Callable, Dict, List, Optional, Tuple, Union

from .data.catalog import Catalog
from .errors import FuzzyQueryError, QueryCancelledError, QueryTimeoutError
from .resilience import CancelToken, QueryGuard
from .data.io import parse_value
from .data.relation import FuzzyRelation
from .data.schema import Attribute, Schema
from .data.types import AttributeType
from .data.tuples import FuzzyTuple
from .engine.adaptive import AdaptiveController
from .engine.aggregates import DegreePolicy
from .engine.executor import CompileError, DmlColumns, FlatCompiler, compile_comparison
from .engine.grouped import GroupedAntiJoin, GroupMode
from .engine.histogram import HistogramStore
from .engine.operators import ExecutionContext, Scan
from .engine.optimizer import PlanMemo
from .engine.pipelined import JAPipeline
from .engine.semantics import NaiveEvaluator
from .engine.statistics import StatisticsVersions
from .fuzzy.compare import Op
from .observe.explain import annotate_estimates, join_q_errors, render_plan, render_report
from .observe.health import HealthReport, HealthThresholds, evaluate_health
from .observe.metrics import QueryMetrics
from .observe.querylog import QueryLog
from .observe.recorder import FlightRecorder
from .observe.registry import MetricsRegistry
from .observe.timeseries import TimeSeries, lifetime_window
from .observe.trace import SpanTracer, maybe_span
from .fuzzy.linguistic import Vocabulary
from .service.plancache import PlanCache, normalize_sql
from .service.prepared import PlanArtifact, PreparedQuery
from .sql.ast import (
    AggregateExpr,
    ColumnRef,
    Comparison,
    InPredicate,
    QuantifiedComparison,
    ScalarSubqueryComparison,
    SelectQuery,
)
from .sql.classify import NestingType, classify
from .sql.params import ParameterError, bind_parameters, count_parameters, referenced_tables
from .sql.parser import parse
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
from .storage.disk import SimulatedDisk
from .storage.heap import HeapFile
from .storage.stats import OperationStats
from .unnest.common import UnnestError, qualify, split_nesting_predicate
from .unnest.rewriter import unnest

FLAT_TYPES = {
    NestingType.FLAT,
    NestingType.TYPE_N,
    NestingType.TYPE_J,
    NestingType.TYPE_SOME,
    NestingType.TYPE_JSOME,
    NestingType.CHAIN,
}

#: Nesting types answered by the Section 5/7 grouped fold, and its mode.
GROUPED_MODES = {
    NestingType.TYPE_XN: GroupMode.NOT_IN,
    NestingType.TYPE_JX: GroupMode.NOT_IN,
    NestingType.TYPE_ALL: GroupMode.ALL,
    NestingType.TYPE_JALL: GroupMode.ALL,
}

#: The ``rewrite:`` label of every query the naive evaluator answers.
NAIVE_REWRITE = "none (naive fallback)"


def naive_strategy(nesting: NestingType) -> str:
    """The ``strategy:`` label of a query the naive evaluator answers."""
    return f"naive/{nesting.value}: in-memory nested evaluation"


class StorageSession:
    """Heap-file-backed query execution with automatic unnesting."""

    def __init__(
        self,
        vocabulary: Optional[Vocabulary] = None,
        page_size: int = 8 * 1024,
        buffer_pages: int = 64,
        aggregate_policy: DegreePolicy = DegreePolicy.ONE,
        fixed_tuple_size: Optional[int] = None,
        optimize_joins: bool = False,
        disk: Optional[SimulatedDisk] = None,
        workers: int = 1,
        shards: int = 1,
        shard_on: Optional[str] = None,
        shard_disks: Optional[List[SimulatedDisk]] = None,
        adaptive: bool = False,
        adapt_threshold: float = 4.0,
        histogram_buckets: int = 8,
        drift_threshold: float = 0.25,
    ):
        #: Pass ``disk`` to run the session on a caller-provided device —
        #: e.g. a :class:`~repro.faults.FaultyDisk` for chaos testing.
        self.disk = disk if disk is not None else SimulatedDisk(page_size=page_size)
        self.buffer_pages = buffer_pages
        #: Default intra-query worker budget; ``query(..., workers=N)``
        #: overrides it per call.  With 1 every plan runs serially.
        self.workers = max(1, workers)
        #: Default shard budget; ``query(..., shards=N)`` overrides it per
        #: call.  With ``shards >= 2`` the session additionally places
        #: registered relations across that many independent disk nodes
        #: (:class:`~repro.shard.ShardedStorage`) and merge-joins over
        #: placed base relations scatter-gather across them.  Pass
        #: ``shard_disks`` to run specific nodes on caller-provided
        #: devices (e.g. one :class:`~repro.faults.FaultyDisk` for chaos
        #: testing) and ``shard_on`` as the default placement attribute
        #: for :meth:`register`.
        self.shards = max(1, shards)
        self.shard_on = shard_on
        from .shard import ShardedStorage

        self.sharded: Optional[ShardedStorage] = (
            ShardedStorage(
                self.shards,
                page_size=page_size,
                fixed_tuple_size=fixed_tuple_size,
                disks=shard_disks,
            )
            if self.shards > 1
            else None
        )
        self.aggregate_policy = aggregate_policy
        self.fixed_tuple_size = fixed_tuple_size
        self.optimize_joins = optimize_joins
        self.tables: Dict[str, HeapFile] = {}
        #: Support-interval indexes by ``(TABLE, attribute)``; created via
        #: :meth:`create_index`, rebuilt automatically on re-registration,
        #: and offered to every compiled plan as candidate access paths.
        self.indexes: Dict[Tuple[str, str], "SupportIntervalIndex"] = {}
        #: In-memory relations retained for re-placement (:meth:`reshard`);
        #: only populated on sharded sessions.
        self._relations: Dict[str, FuzzyRelation] = {}
        #: Schema-only catalog used for classification and rewriting.
        self.schemas = Catalog(vocabulary)
        self.last_stats = OperationStats()
        self.last_strategy: str = ""
        #: The compiled operator tree of the last flat query (None for the
        #: storage-level strategies, which have no tree).
        self.last_plan = None
        #: The :class:`~repro.observe.metrics.QueryMetrics` collector of
        #: the last instrumented run, if one was supplied.
        self.last_metrics: Optional[QueryMetrics] = None
        #: Workload-level sinks.  Assign a
        #: :class:`~repro.observe.registry.MetricsRegistry`, a
        #: :class:`~repro.observe.querylog.QueryLog`, and/or a
        #: :class:`~repro.observe.recorder.FlightRecorder` and every query
        #: is folded in / logged / recorded automatically (one collector
        #: per query, read exactly once — see the no-double-counting
        #: regression test).  All three key statement identity on the
        #: shared canonicalizer in :mod:`repro.observe.fingerprint`.
        self.registry: Optional[MetricsRegistry] = None
        self.query_log: Optional[QueryLog] = None
        self.recorder: Optional[FlightRecorder] = None
        #: Optional :class:`~repro.observe.timeseries.TimeSeries` over the
        #: registry; when attached (and snapshotted), :meth:`health`
        #: evaluates the merged recent windows instead of lifetime totals.
        self.timeseries: Optional[TimeSeries] = None
        #: Per-relation statistics versions; bumped on (re)registration and
        #: on sampled fan-out drift.  Plan-cache entries validate against
        #: these tokens.
        self.stats_versions = StatisticsVersions()
        #: Adaptive feedback-driven optimization.  Histograms over the
        #: join attributes' support intervals are maintained
        #: unconditionally (register builds, the WAL apply path delta-
        #: refreshes) — they are pure CPU over in-memory rows and touch no
        #: gated counter.  Everything that changes *behaviour* is gated on
        #: ``adaptive=True``: histogram-fed edge fan-outs and bushy join
        #: trees in the Section 8 DP, drift-based (rather than
        #: version-bump) plan-cache invalidation on ingest, and mid-query
        #: re-planning past ``adapt_threshold`` q-error.
        self.adaptive = adaptive
        self.histograms = HistogramStore(
            buckets=histogram_buckets, drift_threshold=drift_threshold
        )
        #: The session's re-planner (None when ``adaptive`` is off); its
        #: ``replans`` tally is what benchmarks gate on.
        self.adapt_controller = (
            AdaptiveController(threshold=adapt_threshold) if adaptive else None
        )
        #: Cross-query memo of Section 8 DP subplans (adaptive only).
        self._plan_memo = PlanMemo() if adaptive else None
        #: LRU cache of prepared plans for textual ``query()`` calls.
        #: Assign ``None`` to disable caching entirely.
        self.plan_cache: Optional[PlanCache] = PlanCache()
        #: The lazily created :class:`~repro.wal.WriteManager` behind
        #: :attr:`writes`; ``None`` until the first DML / recovery call,
        #: so read-only sessions never create a WAL file.
        self._writes = None

    @property
    def vocabulary(self) -> Vocabulary:
        """The linguistic vocabulary shared by the session's catalog."""
        return self.schemas.vocabulary

    # ------------------------------------------------------------------
    # Data
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        relation: FuzzyRelation,
        shard_on: Optional[str] = None,
    ) -> HeapFile:
        """Materialize a relation as a heap file (load I/O is not charged).

        On a sharded session the relation is *additionally* placed across
        the shard nodes on ``shard_on`` (default: the session-level
        :attr:`shard_on`, when that attribute exists in the schema) — the
        main-disk heap stays authoritative for every strategy the
        scatter-gather executor does not cover.
        """
        name = name.upper()
        scratch = OperationStats()
        with self.disk.use_stats(scratch):
            # Re-registration replaces the relation; without the delete the
            # new tuples would be appended after the old file's pages.
            if self._writes is not None:
                self._writes.snapshots.forget(name)
            self.disk.delete(name)
            heap = HeapFile(name, relation.schema, self.disk, self.fixed_tuple_size)
            heap.load(relation.tuples())
        self.tables[name] = heap
        self.schemas.register(name, FuzzyRelation(relation.schema))
        # Equi-depth histograms over the support intervals (b(v), e(v)):
        # the planner's per-edge fan-outs and the drift-invalidation rule
        # both read them.  Pure CPU over the in-memory rows — no counter,
        # no I/O — so non-adaptive workloads are untouched.
        built = self.histograms.build_table(name, relation.schema, relation.tuples())
        if built and self.registry is not None:
            self.registry.count_histogram(builds=built)
        if self.sharded is not None:
            attribute = shard_on if shard_on is not None else self.shard_on
            names = {a.name for a in relation.schema}
            if attribute is not None and attribute in names:
                self._relations[name] = relation
                self.sharded.place(name, relation, attribute)
        # Every (re)registration moves the relation's statistics version:
        # cached plans that read this table must be re-validated.
        if not self.stats_versions.observe_cardinality(name, heap.n_tuples):
            self.stats_versions.bump(name)
        # Indexes follow their relation: rebuild any that exist on it so
        # index plans never read postings for replaced tuples.
        for (table, attribute) in [k for k in self.indexes if k[0] == name]:
            self.create_index(table, attribute)
        return heap

    def create_index(self, name: str, attribute: str) -> "SupportIntervalIndex":
        """Build (or rebuild) a support-interval index on ``name.attribute``.

        The index persists the paper's interval order ``(b(v), e(v))`` for
        one attribute as columnar pages on the session disk; compiled
        plans then cost ``index_scan`` / ``index_merge_join`` access paths
        against the row paths.  Build I/O goes to a scratch ledger (like
        :meth:`register`), and the relation's statistics version is bumped
        so cached plans recompile against the new access path.  Raises
        :class:`~repro.columnar.UnsupportedIndexError` for attributes
        whose values have no single-interval support.
        """
        from .columnar import SupportIntervalIndex

        name = name.upper()
        heap = self.tables.get(name)
        if heap is None:
            raise FuzzyQueryError(f"no relation registered as {name!r}")
        scratch = OperationStats()
        with self.disk.use_stats(scratch):
            index = SupportIntervalIndex.build(name, attribute, heap, self.disk)
        self.indexes[(name, attribute)] = index
        self.stats_versions.bump(name)
        return index

    def reshard(
        self,
        name: str,
        boundaries: Optional[List] = None,
        shard_on: Optional[str] = None,
    ) -> None:
        """Re-place an already registered relation with a new shard layout.

        Changes the placement *only* — the relation's statistics version
        is deliberately left alone, so the layout token in the plan-cache
        validation pair ``(stats version, layout token)`` is what
        invalidates cached plans over this relation (the stale-layout
        regression test drives exactly this path).
        """
        name = name.upper()
        if self.sharded is None:
            raise FuzzyQueryError("reshard() needs a session with shards >= 2")
        relation = self._relations.get(name)
        if relation is None:
            raise FuzzyQueryError(f"relation {name} was never placed on the shards")
        layout = self.sharded.layout(name)
        attribute = shard_on if shard_on is not None else layout.attribute
        self.sharded.place(name, relation, attribute, boundaries=boundaries)

    # ------------------------------------------------------------------
    # Writes: WAL-backed DML, snapshots, recovery
    # ------------------------------------------------------------------
    @property
    def writes(self):
        """The session's :class:`~repro.wal.WriteManager` (created lazily).

        The WAL file itself appears on disk only at the first sync, so
        merely touching this property keeps read-only sessions unchanged.
        """
        if self._writes is None:
            from .wal import WriteManager

            self._writes = WriteManager(self)
        return self._writes

    def _replace_placement(self, name: str, relation: FuzzyRelation) -> None:
        """Refresh the sharded placement of ``name`` after a write.

        Tables never placed (unsharded sessions, or relations without the
        shard attribute) stay unplaced — the main-disk heap remains
        authoritative and scatter-gather joins simply degrade to it.
        """
        if self.sharded is None or name not in self._relations:
            return
        layout = self.sharded.layout(name)
        self._relations[name] = relation
        self.sharded.place(name, relation, layout.attribute)

    def attach(self, name: str, schema) -> HeapFile:
        """Adopt an existing heap file after a restart (no data load).

        Schemas are not self-describing on the simulated disk, so crash
        recovery starts with ``attach(name, schema)`` for every table and
        then :meth:`recover`.  Raises ``FileNotFoundError`` when the base
        file does not exist.
        """
        name = name.upper()
        schema = schema if isinstance(schema, Schema) else Schema(schema)
        scratch = OperationStats()
        with self.disk.use_stats(scratch):
            heap = HeapFile.attach(name, schema, self.disk, self.fixed_tuple_size)
            contents = [
                heap.serializer.decode(record)
                for page_index in range(heap.n_pages)
                for record in self.disk.read_page(heap.name, page_index).records()
            ]
        self.tables[name] = heap
        self.schemas.register(name, FuzzyRelation(schema))
        built = self.histograms.build_table(name, schema, contents)
        if built and self.registry is not None:
            self.registry.count_histogram(builds=built)
        if not self.stats_versions.observe_cardinality(name, heap.n_tuples):
            self.stats_versions.bump(name)
        return heap

    def snapshot(self):
        """Pin every table's current epoch for consistent reads.

        Returns a :class:`~repro.wal.Snapshot` (usable as a context
        manager); concurrent DML keeps publishing new epochs while the
        snapshot still reads the pinned ones.
        """
        from .wal import Snapshot

        return Snapshot(self.writes.snapshots, self.tables)

    def recover(self, tracer: Optional[SpanTracer] = None):
        """Run crash recovery over the attached tables.

        See :meth:`~repro.wal.WriteManager.recover`; returns its
        :class:`~repro.wal.RecoveryReport`.
        """
        return self.writes.recover(tracer=tracer)

    def checkpoint(self, tracer: Optional[SpanTracer] = None) -> str:
        """Fold every table version into its base file and reset the WAL."""
        return self.writes.checkpoint(tracer=tracer)

    def wal_status(self) -> str:
        """The ``\\wal`` shell view (an idle line before the first write)."""
        if self._writes is None:
            return "wal: idle (no writes this session)"
        return self._writes.status()

    def execute(self, statements, tracer: Optional[SpanTracer] = None):
        """Execute SQL statements: SELECT, DDL, and WAL-logged DML.

        ``statements`` may be one statement (text or parsed) or a list;
        in a list, consecutive INSERT / UPDATE / DELETE statements are
        logged as one group-committed WAL batch.  Returns the single
        result for a single statement (a
        :class:`~repro.data.relation.FuzzyRelation` for SELECT, a status
        string otherwise) or the list of results.

        Victim sets of UPDATE / DELETE are computed against the table
        version current when the statement enters the batch.
        """
        single = not isinstance(statements, (list, tuple))
        items = [statements] if single else list(statements)
        parsed = [parse_statement(s) if isinstance(s, str) else s for s in items]
        results: list = []
        pending: List[Tuple[str, str, list]] = []

        def flush() -> None:
            if pending:
                results.extend(self.writes.apply_ops(list(pending), tracer=tracer))
                pending.clear()

        for stmt in parsed:
            if isinstance(stmt, SelectQuery):
                flush()
                results.append(self.query(stmt, tracer=tracer))
            elif isinstance(stmt, CreateTable):
                flush()
                results.append(self._execute_create(stmt))
            elif isinstance(stmt, InsertInto):
                pending.append(self._insert_op(stmt))
            elif isinstance(stmt, (Update, DeleteFrom)):
                # Victim scans read the installed table version, so any
                # pending ops on the same table must apply first.
                if any(op[1] == stmt.table.upper() for op in pending):
                    flush()
                build = self._update_op if isinstance(stmt, Update) else self._delete_op
                pending.append(build(stmt))
            elif isinstance(stmt, DefineTerm):
                flush()
                results.append(self._execute_define(stmt))
            elif isinstance(stmt, DropTable):
                flush()
                results.append(self._execute_drop(stmt))
            else:
                raise FuzzyQueryError(f"unsupported statement {stmt!r}")
        flush()
        return results[0] if single else results

    def _execute_create(self, stmt: CreateTable) -> str:
        """CREATE TABLE: register an empty relation from the column defs."""
        attrs = [
            Attribute(
                col.name,
                AttributeType.LABEL if col.type_name == "LABEL" else AttributeType.NUMERIC,
                col.domain,
            )
            for col in stmt.columns
        ]
        self.register(stmt.name, FuzzyRelation(Schema(attrs)))
        return f"table {stmt.name.upper()} created"

    def _execute_define(self, stmt: DefineTerm) -> str:
        """DEFINE: bind a linguistic term and invalidate cached plans."""
        value = parse_value(stmt.shape, self.vocabulary, stmt.domain)
        self.vocabulary.define(stmt.term, value, stmt.domain)
        # Term redefinitions change predicate semantics everywhere.
        for name in self.tables:
            self.stats_versions.bump(name)
        return f"term '{stmt.term}' defined"

    def _execute_drop(self, stmt: DropTable) -> str:
        """DROP TABLE: retire the heap, its versions, and its indexes."""
        from .columnar.index import index_file_name

        name = stmt.name.upper()
        heap = self.tables.pop(name, None)
        if heap is None:
            raise FuzzyQueryError(f"no relation registered as {name!r}")
        scratch = OperationStats()
        with self.disk.use_stats(scratch):
            if self._writes is not None:
                self._writes.snapshots.forget(name)
            self.disk.delete(heap.name)
            self.disk.delete(name)
            for key in [k for k in self.indexes if k[0] == name]:
                index = self.indexes.pop(key)
                self.disk.delete(index.file)
                self.disk.delete(index_file_name(name, key[1]))
        self.schemas.remove(name)
        self._relations.pop(name, None)
        self.histograms.forget(name)
        self.stats_versions.bump(name)
        return f"table {name} dropped"

    def _heap_of(self, table: str) -> HeapFile:
        """The heap of ``table`` for DML, or a typed error."""
        heap = self.tables.get(table.upper())
        if heap is None:
            raise FuzzyQueryError(f"no relation registered as {table.upper()!r}")
        return heap

    def _insert_op(self, stmt: InsertInto) -> Tuple[str, str, list]:
        """Build the write-manager op of one INSERT statement."""
        heap = self._heap_of(stmt.table)
        schema = heap.schema
        degree = 1.0 if stmt.degree is None else float(stmt.degree)
        rows = []
        for row in stmt.rows:
            if len(row) != len(schema):
                raise FuzzyQueryError(
                    f"INSERT arity mismatch: {len(row)} values for "
                    f"{len(schema)} columns of {heap.name.split('@', 1)[0]}"
                )
            values = [
                parse_value(raw, self.vocabulary, attr.domain)
                for raw, attr in zip(row, schema)
            ]
            rows.append(FuzzyTuple(values, degree))
        return ("insert", stmt.table.upper(), rows)

    def _delete_op(self, stmt: DeleteFrom) -> Tuple[str, str, list]:
        """Build the write-manager op of one DELETE statement."""
        name = stmt.table.upper()
        victims = self._dml_victims(name, stmt.table, stmt.where, stmt.threshold)
        return ("delete", name, victims)

    def _update_op(self, stmt: Update) -> Tuple[str, str, list]:
        """Build the write-manager op of one UPDATE statement."""
        name = stmt.table.upper()
        heap = self._heap_of(name)
        schema = heap.schema
        victims = self._dml_victims(name, stmt.table, stmt.where, stmt.threshold)
        pairs = []
        for old in victims:
            values = list(old.values)
            for column, raw in stmt.assignments:
                try:
                    at = schema.index_of(column)
                except KeyError as exc:
                    raise FuzzyQueryError(str(exc)) from None
                values[at] = parse_value(
                    raw, self.vocabulary, schema.attributes[at].domain
                )
            pairs.append((old, FuzzyTuple(values, old.degree)))
        return ("update", name, pairs)

    def _dml_victims(self, name, table_as_typed, where, threshold) -> List[FuzzyTuple]:
        """Rows of ``name`` whose match degree passes the DML threshold.

        The match degree of a row is ``min(μ(row), μ(WHERE))``; with no
        threshold any positive match qualifies, with ``WITH D >= z`` the
        degree must reach ``z``.  The scan is charged to a scratch ledger
        (the WAL apply owns the statement's ledger).
        """
        heap = self._heap_of(name)
        match = self._dml_match(heap, table_as_typed, where)
        victims = []
        scratch = OperationStats()
        with self.disk.use_stats(scratch):
            for page_index in range(heap.n_pages):
                page = self.disk.read_page(heap.name, page_index)
                for record in page.records():
                    t = heap.serializer.decode(record)
                    d = min(t.degree, match(t))
                    if (d >= threshold) if threshold is not None else (d > 0.0):
                        victims.append(t)
        return victims

    def _dml_match(self, heap: HeapFile, table_as_typed: str, where):
        """Compile the WHERE conjunction of an UPDATE / DELETE.

        Only flat comparisons are accepted; column references may be
        unqualified or qualified by the table name (as typed or upper).
        """
        if not where:
            return lambda t: 1.0
        columns = DmlColumns(
            {None, table_as_typed, table_as_typed.upper(), heap.name},
            heap.schema,
        )
        compiled = []
        for predicate in where:
            if not isinstance(predicate, Comparison):
                raise FuzzyQueryError(
                    "UPDATE/DELETE WHERE accepts only flat comparisons, "
                    f"not {predicate!r}"
                )
            try:
                compiled.append(
                    compile_comparison(predicate, columns, columns, self.vocabulary)
                )
            except CompileError as exc:
                raise FuzzyQueryError(str(exc)) from None

        def degree(t: FuzzyTuple) -> float:
            d = 1.0
            for predicate in compiled:
                if d == 0.0:
                    return 0.0
                d = min(d, predicate(t, None))
            return d

        return degree

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self,
        sql: Union[str, SelectQuery],
        metrics: Optional[QueryMetrics] = None,
        tracer: Optional[SpanTracer] = None,
        timeout_ms: Optional[float] = None,
        cancel: Optional[CancelToken] = None,
        workers: Optional[int] = None,
        shards: Optional[int] = None,
    ) -> FuzzyRelation:
        """Execute a query; attach a collector and/or tracer to instrument it.

        With ``metrics`` the whole execution is traced: every disk page
        transfer, operator counters, sort shapes, the nesting type, which
        rewrite fired, and the strategy taken.  With ``tracer`` the
        parse/bind/rewrite/sort/merge/probe phases are recorded as a span
        tree.  When a :attr:`registry` or :attr:`query_log` is attached, a
        collector is created as needed and folded in exactly once.  With
        nothing attached, nothing extra runs — operators stream their raw
        generators.

        ``timeout_ms`` sets a per-query deadline and ``cancel`` a
        cooperative :class:`~repro.resilience.CancelToken`; both are
        checked at every page transfer, raising
        :class:`~repro.errors.QueryTimeoutError` /
        :class:`~repro.errors.QueryCancelledError`.  Failed queries are
        still folded into the registry and query log with their typed
        outcome before the error propagates.

        Textual queries go through the :attr:`plan_cache`: the second run
        of the same SQL skips parse/bind/rewrite (and, for flat plans,
        compilation) entirely, and the collector records the lookup
        outcome in ``metrics.plan_cache``.

        ``workers`` sets this query's intra-query parallelism budget
        (default: the session's :attr:`workers`).  With ``workers > 1``
        flat merge-join plans partition both join inputs by ranges of the
        interval order and sort + join the partitions concurrently,
        degrading to the serial path — with bit-identical results —
        whenever usable boundaries cannot be sampled.

        ``shards`` sets this query's scatter-gather budget (default: the
        session's :attr:`shards`).  On a sharded session merge-joins over
        placed base relations run shard-local against the placed slices
        and splice the results — again degrading, bit-identically, when
        the placement does not cover the join.  Pass ``shards=1`` to pin
        one query to local execution.
        """
        return self._execute(
            sql,
            (),
            metrics,
            tracer,
            workers=self.workers if workers is None else max(1, workers),
            shards=self.shards if shards is None else max(1, shards),
            guard=QueryGuard.create(timeout_ms, cancel),
        )

    def _execute(
        self,
        source: Union[str, SelectQuery, PreparedQuery],
        params: tuple,
        metrics: Optional[QueryMetrics],
        tracer: Optional[SpanTracer],
        workers: int = 1,
        shards: int = 1,
        guard: Optional[QueryGuard] = None,
    ) -> FuzzyRelation:
        """The one query pipeline: resolve a prepared artifact, then run it.

        ``source`` is SQL text (served through the :attr:`plan_cache`), a
        parsed query (prepared afresh), or a :class:`PreparedQuery` (the
        back end of ``PreparedQuery.execute``).  With no collector and no
        tracer nothing runs beyond the artifact lookup and
        :meth:`_run_prepared`; a collector additionally watches the disk,
        and failures are folded into the workload sinks with their typed
        outcome.
        """
        guard_ctx = self.disk.use_guard(guard) if guard is not None else nullcontext()
        need_collector = (
            metrics is not None
            or self.registry is not None
            or self.query_log is not None
            or self.recorder is not None
        )
        if not need_collector and tracer is None:
            stats = OperationStats()
            self.last_stats = stats
            self.last_plan = None
            self.last_metrics = None
            with guard_ctx:
                prepared, _ = self._resolve(source, None)
                result = self._run_prepared(
                    prepared, params, stats, None, None,
                    workers=workers, guard=guard, shards=shards,
                )
            prepared.executions += 1
            return result

        if isinstance(source, PreparedQuery):
            text = source.sql_text
        else:
            text = source if isinstance(source, str) else repr(source)
        collector = (
            (metrics if metrics is not None else QueryMetrics())
            if need_collector
            else None
        )
        self.last_metrics = collector
        self.last_plan = None
        started = time.perf_counter()
        try:
            with guard_ctx, maybe_span(tracer, "query"):
                prepared, outcome = self._resolve(source, tracer)
                stats = OperationStats()
                self.last_stats = stats
                watch = nullcontext()
                if collector is not None:
                    collector.nesting_type = prepared.nesting.value
                    collector.plan_cache = outcome
                    if prepared is source:
                        collector.prepared = True
                    collector.stats = stats
                    watch = collector.watch_disk(self.disk)
                # QueryMetrics.span has the tracer's shape, so maybe_span
                # times the run on the collector when one is attached.
                with watch, maybe_span(collector, "query"):
                    result = self._run_prepared(
                        prepared, params, stats, collector, tracer,
                        workers=workers, guard=guard, shards=shards,
                    )
        except FuzzyQueryError as exc:
            self._record_failure(text, collector, started, exc)
            raise
        prepared.executions += 1
        wall = time.perf_counter() - started
        self._observe_query(text, collector, wall, len(result))
        return result

    def _observe_query(
        self,
        sql_text: str,
        collector: Optional[QueryMetrics],
        wall: float,
        rows: int,
        error: str = "",
    ) -> None:
        """Fold one finished query into every attached workload sink.

        The single funnel for the registry, query log, and flight
        recorder, so all three always agree on query counts and statement
        identity.  Per-join q-errors are stamped onto the collector first
        (successful flat plans only) — pure arithmetic over the compiled
        plan and the collector's already-measured row counts, no extra
        I/O — so every sink sees the same estimate-drift numbers.
        """
        if collector is None:
            return
        if not error and self.last_plan is not None:
            collector.q_errors = join_q_errors(self.last_plan, collector)
        if self.registry is not None:
            self.registry.observe(collector, wall_seconds=wall, rows=rows)
        if self.query_log is not None:
            self.query_log.record(sql_text, collector, wall_seconds=wall, rows=rows)
        if self.recorder is not None:
            self.recorder.record(
                sql_text, collector, wall_seconds=wall, rows=rows, error=error
            )

    def _record_failure(
        self,
        sql_text: str,
        collector: Optional[QueryMetrics],
        started: float,
        exc: FuzzyQueryError,
    ) -> None:
        """Fold a failed query into the sinks with its typed outcome."""
        if self.registry is not None:
            self.registry.count_error(type(exc).__name__)
        if collector is None:
            return
        if isinstance(exc, QueryTimeoutError):
            collector.outcome = "timeout"
        elif isinstance(exc, QueryCancelledError):
            collector.outcome = "cancelled"
        else:
            collector.outcome = "error"
        wall = time.perf_counter() - started
        self._observe_query(
            sql_text, collector, wall, 0, error=type(exc).__name__
        )

    def health(
        self,
        thresholds: Optional[HealthThresholds] = None,
        last: Optional[int] = None,
    ) -> HealthReport:
        """Evaluate the health rules over this session's workload.

        With a :attr:`timeseries` attached and at least one snapshot
        taken, the report covers the merged recent windows (optionally the
        ``last`` N); otherwise it covers the :attr:`registry`'s lifetime
        totals.  Raises :class:`~repro.errors.FuzzyQueryError` when
        neither sink is attached — there is nothing to judge.
        """
        if self.timeseries is not None and len(self.timeseries):
            window = self.timeseries.merged(last)
        else:
            registry = self.registry
            if registry is None and self.timeseries is not None:
                registry = self.timeseries.registry
            if registry is None:
                raise FuzzyQueryError(
                    "health() needs a registry or timeseries attached "
                    "(assign session.registry = MetricsRegistry())"
                )
            window = lifetime_window(registry)
        return evaluate_health(window, thresholds)

    def trace(self, sql: Union[str, SelectQuery]) -> SpanTracer:
        """Run a query with a fresh span tracer attached and return it.

        The tracer's tree (``render_tree()``) shows where the time went;
        ``export(path)`` writes Chrome ``trace_event`` JSON for
        ``chrome://tracing`` / Perfetto.
        """
        tracer = SpanTracer()
        self.query(sql, tracer=tracer)
        return tracer

    # ------------------------------------------------------------------
    # Prepared statements and the plan cache
    # ------------------------------------------------------------------
    def prepare(self, sql: Union[str, SelectQuery]) -> PreparedQuery:
        """Parse, classify, and rewrite once; execute many times.

        The statement may contain ``?`` placeholders (anywhere a literal
        is legal, and as the ``WITH D >= ?`` threshold); bind one value
        per placeholder at each :meth:`~repro.service.prepared.PreparedQuery.execute`.
        Statements without placeholders additionally cache their compiled
        execution plan (the flat operator tree, a grouped anti-join, or a
        Section 6 pipeline), so repeated executions skip straight to I/O.
        """
        prepared = self._prepare(sql)
        if self.registry is not None:
            self.registry.count_prepared()
        return prepared

    def _prepare(self, sql: Union[str, SelectQuery], tracer: Optional[SpanTracer] = None) -> PreparedQuery:
        with maybe_span(tracer, "parse"):
            template = parse(sql) if isinstance(sql, str) else sql
        with maybe_span(tracer, "bind"):
            nesting = classify(template, self.schemas)
        n_params = count_parameters(template)
        artifact = self._plan_template(template, nesting, n_params, tracer)
        text = sql if isinstance(sql, str) else str(sql)
        return PreparedQuery(self, text, template, nesting, n_params, artifact)

    def _plan_tokens(self, names) -> Dict[str, Tuple[int, int, int]]:
        """Validation tokens per relation:
        ``(stats version, layout token, histogram fingerprint)``.

        Plan-cache entries are stale when *any* component moved — a
        re-registration bumps the statistics version, :meth:`reshard`
        advances only the layout token (placement changes which physical
        files a scatter-gather join reads, so a cached plan's sharded
        execution must be re-validated even though the data — and hence
        the statistics — did not change), and the histogram fingerprint
        records the distribution a plan was *costed* against: it changes
        only when a histogram is rebuilt (registration, or an adaptive
        drift-triggered rebuild), so benign ingest below the drift
        threshold leaves cached plans valid.
        """
        versions = self.stats_versions.snapshot(names)
        return {
            name: (
                version,
                self.sharded.catalog.token(name) if self.sharded is not None else 0,
                self.histograms.fingerprint(name),
            )
            for name, version in versions.items()
        }

    def _compiler(self) -> FlatCompiler:
        """A flat compiler over the current tables (adaptive features gated).

        Non-adaptive sessions get the exact pre-adaptive compiler — no
        histograms, left-deep DP only — so their plans stay byte-for-byte
        identical; adaptive sessions feed histogram edge fan-outs into
        the Section 8 DP, allow bushy trees, and share the subplan memo.
        """
        if not self.adaptive:
            return FlatCompiler(self.tables, self.vocabulary, indexes=self.indexes)
        return FlatCompiler(
            self.tables,
            self.vocabulary,
            indexes=self.indexes,
            histograms=self.histograms,
            bushy=True,
            plan_memo=self._plan_memo,
        )

    def _rebind_plan(self, operator) -> None:
        """Point a cached flat plan's leaves at the current table versions.

        Benign adaptive installs keep cached plans alive without a
        statistics-version bump, so a cached plan's Scan / IndexScan
        leaves may still hold a replaced heap epoch; rebinding by base
        name (``T@e3`` → the session's current ``T`` heap) preserves the
        compiled shape while reading the live data.
        """
        from .columnar.operators import IndexScan

        stack = [operator]
        while stack:
            op = stack.pop()
            if isinstance(op, Scan):
                base = op.heap.name.split("@", 1)[0]
                current = self.tables.get(base)
                if current is not None and current is not op.heap:
                    op.heap = current
                if isinstance(op, IndexScan):
                    index = self.indexes.get((base, op.index.attribute))
                    if index is not None:
                        op.index = index
            stack.extend(op.children())

    def _evict_baked_plans(self, name: str) -> None:
        """Drop cached grouped / pipelined artifacts reading ``name``.

        Flat plans survive a benign install (their leaves rebind), but
        the grouped and Section 6 executables bake heap references into
        their construction and cannot be rebound — a benign install must
        still evict them even though no validation token moved.
        """
        if self.plan_cache is None:
            return
        name = name.upper()

        def stale(_key: str, entry) -> bool:
            artifact = getattr(entry.value, "artifact", None)
            if artifact is None or artifact.kind not in ("grouped", "ja"):
                return False
            return name in entry.tokens

        self.plan_cache.evict_if(stale)

    def _resolve(
        self, source: Union[str, SelectQuery, PreparedQuery], tracer: Optional[SpanTracer]
    ) -> Tuple[PreparedQuery, Optional[str]]:
        """The prepared statement behind ``source`` and the plan-cache outcome.

        Textual queries go through the :attr:`plan_cache` (outcome
        ``hit`` / ``miss`` / ``invalidated``); parsed queries, and text
        when caching is disabled, are prepared afresh (outcome ``None``).
        ``query()`` cannot bind values, so a statement with ``?``
        placeholders is refused either way.
        """
        if isinstance(source, PreparedQuery):
            return source, None
        cached = isinstance(source, str) and self.plan_cache is not None
        if cached:
            key = normalize_sql(source)
            prepared, outcome = self.plan_cache.lookup(key, self._plan_tokens)
            if prepared is not None:
                return prepared, outcome
        prepared = self._prepare(source, tracer)
        if prepared.param_count:
            raise ParameterError(
                "query() cannot run a statement with ? placeholders; "
                "use prepare() and bind values per execution"
            )
        if not cached:
            return prepared, None
        tokens = self._plan_tokens(referenced_tables(prepared.template))
        self.plan_cache.store(key, prepared, tokens)
        return prepared, outcome

    def _plan_template(
        self,
        query: SelectQuery,
        nesting: NestingType,
        n_params: int,
        tracer: Optional[SpanTracer] = None,
    ) -> PlanArtifact:
        """Choose the physical strategy and build as much of it as possible.

        The one strategy ladder: flat types (N, J, SOME, chains) unnest to
        a merge-join plan, compiled when the statement is closed; NOT IN
        and ``op ALL`` build the Section 5/7 grouped fold; JA builds the
        Section 6 pipeline; a rewrite or compilation that does not apply
        yields the naive artifact.  The grouped and pipelined builds bake
        literal values into their predicates, so parameterized statements
        of those types get a ``dispatch`` artifact: each execution binds
        its values and plans the bound statement here.
        """
        try:
            if nesting in FLAT_TYPES:
                with maybe_span(tracer, "rewrite"):
                    plan = unnest(query, self.schemas)
                    if plan.steps or not isinstance(plan.final, SelectQuery):
                        raise UnnestError("not a single flat query")
                operator = None
                if n_params == 0:
                    with maybe_span(tracer, "compile"):
                        operator = self._compiler().compile(
                            plan.final, optimize=self.optimize_joins
                        )
                return PlanArtifact(
                    "flat",
                    flat=plan.final,
                    rule=plan.rule or plan.nesting_type,
                    operator=operator,
                    strategy=f"flat/{nesting.value}: merge-join plan",
                )
            if n_params:
                return PlanArtifact(
                    "dispatch", strategy="planned per execution on the bound statement"
                )
            if nesting in GROUPED_MODES:
                with maybe_span(tracer, "rewrite"):
                    executable, strategy, rule = self._build_grouped(
                        query, GROUPED_MODES[nesting], nesting
                    )
                return PlanArtifact(
                    "grouped", executable=executable, strategy=strategy, rule=rule
                )
            if nesting is NestingType.TYPE_JA:
                with maybe_span(tracer, "rewrite"):
                    executable, strategy, rule = self._build_ja(query, nesting)
                return PlanArtifact(
                    "ja", executable=executable, strategy=strategy, rule=rule
                )
        except (UnnestError, CompileError):
            pass
        return PlanArtifact("naive", rule=NAIVE_REWRITE, strategy=naive_strategy(nesting))

    def _run_prepared(
        self,
        prepared: PreparedQuery,
        params: tuple,
        stats: OperationStats,
        metrics: Optional[QueryMetrics],
        tracer: Optional[SpanTracer],
        workers: int = 1,
        guard: Optional[QueryGuard] = None,
        shards: int = 1,
    ) -> FuzzyRelation:
        """Execute a prepared artifact: bind values, (re)compile, run.

        Never re-enters the parser or binder.  Only the value
        substitution, predicate compilation of parameterized flat plans,
        and the planning of a bound ``dispatch`` statement happen per
        execution.  This is the single site where a physical strategy
        that cannot finish falls back to the naive evaluator.
        """
        from .join.merge_join import WindowOverflowError

        artifact = prepared.artifact
        bound = None
        if artifact.kind == "dispatch":
            with maybe_span(tracer, "bind-params"):
                bound = prepared.bind(params)
            artifact = self._plan_template(bound, prepared.nesting, 0, tracer)
        self.last_strategy = artifact.strategy
        if metrics is not None:
            metrics.rewrite = artifact.rule
            metrics.strategy = artifact.strategy
        try:
            if artifact.kind == "flat":
                operator = artifact.operator
                if operator is None:
                    with maybe_span(tracer, "bind-params"):
                        flat = (
                            bind_parameters(artifact.flat, params)
                            if prepared.param_count
                            else artifact.flat
                        )
                    with maybe_span(tracer, "compile"):
                        operator = self._compiler().compile(
                            flat, optimize=self.optimize_joins
                        )
                elif self.adaptive:
                    # A cached plan may have outlived a benign install
                    # (no version bump): rebind its leaves to the live
                    # heap versions before running it.
                    self._rebind_plan(operator)
                if self.adaptive:
                    annotate_estimates(operator)
                self.last_plan = operator
                return operator.to_relation(
                    ExecutionContext(
                        self.disk,
                        self.buffer_pages,
                        stats,
                        metrics=metrics,
                        tracer=tracer,
                        workers=workers,
                        guard=guard,
                        shards=shards,
                        sharded=self.sharded,
                        adapt=self.adapt_controller,
                    )
                )
            if artifact.kind in ("grouped", "ja"):
                return artifact.executable.run(
                    self.disk,
                    self.buffer_pages,
                    stats,
                    metrics=metrics,
                    tracer=tracer,
                )
        except (UnnestError, CompileError):
            pass
        except WindowOverflowError:
            # The largest Rng(r) did not fit the buffer (very wide supports,
            # Section 3's caveat): restart on the always-applicable path
            # and report the restart, not the aborted attempt.
            stats = OperationStats()
            self.last_stats = stats
            self.last_plan = None
            if metrics is not None:
                metrics.stats = stats
                reason = "merge-join window overflowed the buffer; naive restart"
                if metrics.degraded_reason:
                    reason = f"{metrics.degraded_reason}; {reason}"
                metrics.degraded = True
                metrics.degraded_reason = reason
        if metrics is not None:
            metrics.rewrite = NAIVE_REWRITE
        if bound is None:
            with maybe_span(tracer, "bind-params"):
                bound = prepared.bind(params)
        return self._run_naive(bound, prepared.nesting, stats, metrics, tracer)

    def run_batch(
        self,
        queries,
        workers: int = 1,
        timeout_ms: Optional[float] = None,
        cancel: Optional[CancelToken] = None,
    ) -> List[FuzzyRelation]:
        """Execute read-only queries, optionally across worker threads.

        Results come back in input order regardless of completion order,
        and with ``workers <= 1`` the loop is plain serial execution —
        the differential tests assert both modes produce bit-identical
        relations.  Each query gets its own stats ledger (disk accounting
        is thread-local), and a shared :attr:`registry` / :attr:`query_log`
        is folded under its own lock.

        ``timeout_ms`` applies per query (not to the whole batch); a
        shared ``cancel`` token abandons the batch cooperatively — it is
        checked between queries and, inside each running query, at every
        page transfer.
        """
        from .parallel.executor import run_ordered

        def run_one(q):
            if cancel is not None and cancel.cancelled:
                raise QueryCancelledError("batch cancelled by its CancelToken")
            return self.query(q, timeout_ms=timeout_ms, cancel=cancel)

        return run_ordered(queries, run_one, workers)

    def explain(self, sql: Union[str, SelectQuery]) -> str:
        """Describe the strategy and plan a query would run with.

        Renders the artifact :meth:`prepare` builds, so the ``rewrite:``
        and ``strategy:`` lines match EXPLAIN ANALYZE's.  Executes nothing
        against the data (beyond sampling-free schema work); safe to call
        on large sessions.
        """
        prepared = self._prepare(sql)
        artifact = prepared.artifact
        lines = [f"nesting type: {prepared.nesting.value}"]
        if artifact.rule:
            lines.append(f"rewrite: {artifact.rule}")
        lines.append(f"strategy: {artifact.strategy}")
        if artifact.operator is not None:
            lines.append(render_plan(artifact.operator))
        return "\n".join(lines)

    def explain_analyze(
        self,
        sql: Union[str, SelectQuery],
        workers: Optional[int] = None,
        shards: Optional[int] = None,
    ) -> str:
        """Run the query fully instrumented and render the analysis.

        The report shows the nesting type, the rewrite that fired, the
        strategy taken, the physical plan (estimated next to measured
        cardinalities, with per-join q-error from sampled fan-outs) or the
        storage-level executor's counters, sort shapes, buffer behaviour,
        and per-phase I/O and comparison counts.  With ``workers > 1``
        the report additionally shows the partition table of the parallel
        merge-join (per-partition rows and pages) and the modelled
        parallel response time.
        """
        metrics = QueryMetrics()
        result = self.query(sql, metrics=metrics, workers=workers, shards=shards)
        return render_report(
            metrics,
            plan=self.last_plan,
            n_answers=len(result),
            buffer_pages=self.buffer_pages,
            edge_fanouts=self.sampled_edge_fanouts(self.last_plan) or None,
        )

    def sampled_edge_fanouts(
        self, plan=None, sample_size: int = 64, seed: int = 0
    ) -> Dict[int, float]:
        """Sampled fan-out per merge-join of ``plan``, keyed by ``id(op)``.

        For each :class:`~repro.engine.operators.MergeJoinOp` the base heap
        files carrying the two join attributes are sampled
        (:func:`~repro.engine.statistics.estimate_fanout`), replacing the
        paper's constant ``C`` with a per-edge estimate.  Sampling I/O is
        charged to a scratch ledger, never to :attr:`last_stats`.  Joins
        whose base relations cannot be identified (or whose sample came up
        empty) are simply absent — the caller's constant is the fallback.
        """
        from .engine.operators import MergeJoinOp, Scan
        from .engine.statistics import estimate_fanout

        plan = plan if plan is not None else self.last_plan
        if plan is None:
            return {}

        def base_heap(node, attribute):
            stack = [node]
            while stack:
                op = stack.pop()
                if isinstance(op, Scan) and any(
                    a.name == attribute for a in op.heap.schema
                ):
                    return op.heap
                stack.extend(op.children())
            return None

        fanouts: Dict[int, float] = {}
        scratch = OperationStats()
        stack = [plan]
        while stack:
            op = stack.pop()
            if isinstance(op, MergeJoinOp):
                left = base_heap(op.left, op.left_attr)
                right = base_heap(op.right, op.right_attr)
                if left is not None and right is not None:
                    estimate = estimate_fanout(
                        left,
                        right,
                        attribute=op.left_attr,
                        sample_size=sample_size,
                        seed=seed,
                        stats=scratch,
                        inner_attribute=op.right_attr,
                    )
                    if estimate.pairs_checked:
                        fanouts[id(op)] = estimate.edge_fanout()
                        # Feed the drift detector: a fan-out moving past
                        # the tolerance bumps the relation's statistics
                        # version and invalidates cached plans over it.
                        self.stats_versions.record_fanout(
                            left.name, op.left_attr, estimate.edge_fanout()
                        )
                        self.stats_versions.record_fanout(
                            right.name, op.right_attr, estimate.edge_fanout()
                        )
            stack.extend(op.children())
        return fanouts

    # ------------------------------------------------------------------
    # Strategy: grouped anti-joins (Sections 5 and 7)
    # ------------------------------------------------------------------
    def _build_grouped(
        self, query: SelectQuery, mode: GroupMode, nesting: NestingType
    ) -> Tuple[GroupedAntiJoin, str, str]:
        """Dissect and construct the Section 5/7 executor (no I/O yet)."""
        parts = self._dissect(query)
        (outer_name, inner_name, p1, p2, cross, nesting_pred, project_attrs) = parts
        if mode is GroupMode.NOT_IN:
            if not isinstance(nesting_pred, InPredicate) or not nesting_pred.negated:
                raise CompileError("not a NOT IN query")
            z_attr = self._single_column(nesting_pred.query).attribute
            link = (nesting_pred.column.attribute, Op.EQ, z_attr)
        else:
            if not isinstance(nesting_pred, QuantifiedComparison):
                raise CompileError("not an ALL query")
            z_attr = self._single_column(nesting_pred.query).attribute
            link = (nesting_pred.column.attribute, nesting_pred.op, z_attr)
        grouped = GroupedAntiJoin(
            self.tables[outer_name],
            self.tables[inner_name],
            mode,
            link,
            cross=cross,
            p1=p1,
            p2=p2,
            project_attrs=project_attrs,
        )
        band = "merge-join" if grouped.band else "nested-loop"
        strategy = f"grouped/{nesting.value}: {band} min-fold"
        rewrite = (
            "NOT IN -> grouped anti-join min-fold (Section 5)"
            if mode is GroupMode.NOT_IN
            else "op ALL -> doubly-negated grouped fold (Section 7)"
        )
        return grouped, strategy, rewrite

    # ------------------------------------------------------------------
    # Strategy: the Section 6 pipeline
    # ------------------------------------------------------------------
    def _build_ja(
        self, query: SelectQuery, nesting: NestingType
    ) -> Tuple[JAPipeline, str, str]:
        """Dissect and construct the Section 6 pipeline (no I/O yet)."""
        parts = self._dissect(query)
        (outer_name, inner_name, p1, p2, cross, nesting_pred, project_attrs) = parts
        if not isinstance(nesting_pred, ScalarSubqueryComparison):
            raise CompileError("not an aggregate nesting")
        if len(cross) != 1 or cross[0][1] is not Op.EQ:
            raise CompileError("the pipeline needs exactly one equality correlation")
        agg = nesting_pred.query.select[0]
        if not isinstance(agg, AggregateExpr):
            raise CompileError("inner block must select an aggregate")
        u_attr, _, v_attr = cross[0]
        pipeline = JAPipeline(
            self.tables[outer_name],
            self.tables[inner_name],
            u_attr=u_attr,
            v_attr=v_attr,
            y_attr=nesting_pred.column.attribute,
            op1=nesting_pred.op,
            agg_func=agg.func,
            z_attr=agg.argument.attribute,
            project_attrs=project_attrs,
            p1=p1,
            p2=p2,
            policy=self.aggregate_policy,
        )
        strategy = f"pipelined/{nesting.value}: T1/T2 merge pass"
        rewrite = "correlated aggregate -> pipelined T1/T2 merge pass (Section 6)"
        return pipeline, strategy, rewrite

    # ------------------------------------------------------------------
    # Fallback: naive evaluation over buffered reads
    # ------------------------------------------------------------------
    def _run_naive(
        self,
        query: SelectQuery,
        nesting: NestingType,
        stats: OperationStats,
        metrics: Optional[QueryMetrics] = None,
        tracer: Optional[SpanTracer] = None,
    ) -> FuzzyRelation:
        if metrics is not None and metrics.rewrite is None:
            metrics.rewrite = NAIVE_REWRITE
        catalog = Catalog(self.vocabulary)
        with maybe_span(tracer, "scan tables"), self.disk.use_stats(stats):
            for name, heap in self.tables.items():
                relation = FuzzyRelation(heap.schema)
                for page_index in range(heap.n_pages):
                    page = self.disk.read_page(heap.name, page_index)
                    for record in page.records():
                        relation.add(heap.serializer.decode(record))
                catalog.register(name, relation)
        self.last_strategy = naive_strategy(nesting)
        if metrics is not None:
            metrics.strategy = self.last_strategy
        evaluator = NaiveEvaluator(
            catalog, aggregate_policy=self.aggregate_policy, stats=stats
        )
        with maybe_span(tracer, "evaluate"):
            return evaluator.evaluate(query)

    # ------------------------------------------------------------------
    # AST dissection shared by the grouped and pipelined strategies
    # ------------------------------------------------------------------
    def _dissect(self, query: SelectQuery):
        q = qualify(query, self.schemas)
        nesting_pred, rest = split_nesting_predicate(q)
        if len(q.from_tables) != 1:
            raise CompileError("these strategies expect a single outer relation")
        outer = q.from_tables[0]
        inner_query = nesting_pred.query
        if len(inner_query.from_tables) != 1:
            raise CompileError("these strategies expect a single inner relation")
        inner = inner_query.from_tables[0]
        if inner_query.group_by or inner_query.distinct or inner_query.with_threshold is not None:
            raise CompileError("inner block must be a plain select")
        if q.with_threshold not in (None, 0.0):
            raise CompileError("WITH thresholds use the fallback path")
        outer_name, inner_name = outer.name.upper(), inner.name.upper()
        if outer_name not in self.tables or inner_name not in self.tables:
            raise CompileError("unregistered relation")
        outer_heap, inner_heap = self.tables[outer_name], self.tables[inner_name]

        outer_columns = [(outer.binding, a.name) for a in outer_heap.schema]
        inner_columns = [(inner.binding, a.name) for a in inner_heap.schema]
        domains = {
            (outer.binding, a.name): a.domain for a in outer_heap.schema
        }
        domains.update({(inner.binding, a.name): a.domain for a in inner_heap.schema})

        p1 = self._conjunction(rest, outer_columns, domains)
        cross: List[Tuple[str, Op, str]] = []
        local = []
        inner_bindings = {inner.binding}
        for predicate in inner_query.where:
            if not isinstance(predicate, Comparison):
                raise CompileError(f"unsupported inner predicate {predicate!r}")
            sides = [predicate.left, predicate.right]
            outer_refs = [
                s for s in sides
                if isinstance(s, ColumnRef) and s.relation not in inner_bindings
            ]
            if not outer_refs:
                local.append(predicate)
                continue
            if len(outer_refs) == 2:
                raise CompileError("correlation must reference one inner column")
            # Normalize: outer attribute first.
            if isinstance(predicate.left, ColumnRef) and predicate.left.relation not in inner_bindings:
                outer_ref, op, inner_ref = predicate.left, predicate.op, predicate.right
            else:
                outer_ref, op, inner_ref = predicate.right, predicate.op.flipped(), predicate.left
            if not isinstance(inner_ref, ColumnRef):
                raise CompileError("correlation must compare two columns")
            cross.append((outer_ref.attribute, op, inner_ref.attribute))
        p2 = self._conjunction(local, inner_columns, domains)

        project_attrs = []
        for item in q.select:
            if not isinstance(item, ColumnRef):
                raise CompileError("select list must be plain columns")
            project_attrs.append(item.attribute)
        return outer_name, inner_name, p1, p2, cross, nesting_pred, project_attrs

    def _conjunction(self, predicates, columns, domains) -> Optional[Callable[[FuzzyTuple], float]]:
        if not predicates:
            return None
        compiled = [
            compile_comparison(p, columns, domains, self.vocabulary) for p in predicates
        ]

        def degree(t: FuzzyTuple) -> float:
            d = 1.0
            for predicate in compiled:
                if d == 0.0:
                    return 0.0
                d = min(d, predicate(t, None))
            return d

        return degree

    def _single_column(self, inner_query: SelectQuery) -> ColumnRef:
        if len(inner_query.select) != 1 or not isinstance(inner_query.select[0], ColumnRef):
            raise CompileError("inner block must select one plain column")
        return inner_query.select[0]
