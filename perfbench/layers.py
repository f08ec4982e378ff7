"""Per-layer tracing for the traced benchmark run.

The engine is not modified: while a :class:`LayerTracer` is installed it
replaces each layer's public entry points with timing or counting
wrappers, patched where the caller looks the name up (``repro.session.parse``
as well as the class methods every caller shares), and restores the
originals on exit.

Time metrics are *self* time: a span's wall minus the part of it that
its child spans cover, so the self times of all layers plus the
``session.self_ms`` residual add up to the traced loop's wall time.  The
one exception is ``engine.aborted_ms``, the inclusive wall of physical
attempts that ended in a ``WindowOverflowError`` (the work thrown away
before the naive restart); it overlaps the self times of the layers that
ran inside the attempt.

Per-pair entry points (``ComparisonKernel.possibility``) are counted,
never timed.
"""

from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter

# Span metric -> the entry points it covers, as (module, attribute path).
SPANS = {
    "sql.parse": [
        ("repro.session", "parse"),
        ("repro.session", "parse_statement"),
    ],
    "sql.classify": [
        ("repro.session", "classify"),
        ("repro.unnest.rewriter", "classify"),
    ],
    "unnest.rewrite": [("repro.session", "unnest")],
    "engine.compile": [("repro.engine.executor", "FlatCompiler.compile")],
    "engine.plan": [("repro.engine.optimizer", "optimize_join_order")],
    "columnar.kernel": [
        ("repro.columnar.kernel", "batch_eq_possibility"),
        ("repro.columnar.kernel", "batch_lt_possibility"),
        ("repro.columnar.kernel", "batch_le_possibility"),
        ("repro.columnar.kernel", "batch_eq_necessity"),
        ("repro.columnar.operators", "batch_eq_possibility"),
        ("repro.columnar.operators", "batch_lt_possibility"),
        ("repro.columnar.operators", "batch_le_possibility"),
    ],
    "columnar.index_probe": [
        ("repro.columnar.index", "SupportIntervalIndex.probe_pages"),
        ("repro.columnar.index", "SupportIntervalIndex.fetch"),
    ],
    "columnar.index_maint": [
        ("repro.columnar.index", "SupportIntervalIndex.build"),
        ("repro.columnar.index", "SupportIntervalIndex.from_rows"),
        ("repro.columnar.index", "SupportIntervalIndex.merged_with_tail"),
    ],
    "storage.disk": [
        ("repro.storage.disk", "SimulatedDisk." + name)
        for name in ("read_page", "write_page", "append_page", "read_blob", "append_blob")
    ],
    "wal.append": [("repro.wal.log", "WriteAheadLog.append")],
    "wal.checkpoint": [("repro.wal.manager", "WriteManager.checkpoint")],
    "wal.recover": [("repro.wal.manager", "WriteManager.recover")],
}

# Generator entry points: each resumption is one span.
GENERATOR_SPANS = {
    "join.probe": [
        ("repro.join.merge_join", "MergeJoin.pairs"),
        ("repro.join.merge_join", "MergeJoin.fold"),
        ("repro.join.nested_loop", "NestedLoopJoin.pairs"),
        ("repro.join.nested_loop", "NestedLoopJoin.fold"),
    ],
    # IndexScan inherits Operator.tuples; the patch shadows it on IndexScan.
    "columnar.index_probe": [("repro.columnar.operators", "IndexScan.tuples")],
}

# Physical attempts (and the naive evaluator that answers after one fails).
ATTEMPTS = {
    "engine.flat": ("repro.engine.operators", "Operator.to_relation"),
    "engine.grouped": ("repro.engine.grouped", "GroupedAntiJoin.run"),
    "engine.ja": ("repro.engine.pipelined", "JAPipeline.run"),
    "engine.naive": ("repro.engine.semantics", "NaiveEvaluator.evaluate"),
}

# Span metrics whose calls are also counted.
COUNTED = ("sql.parse", "unnest.rewrite", "engine.compile")



def _resolve(module_name: str, path: str):
    """(owner, attribute name) of a dotted ``Class.attr`` or module attr."""
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr


class LayerTracer:
    """Self-time spans and counts at the engine's layer boundaries.

    Use as a context manager around the traced loop; call
    :meth:`begin_op` / :meth:`end_op` around each benchmark operation so
    time outside every layer span is charged to ``session``.
    """

    def __init__(self):
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []  # child seconds accumulated per open span
        self._attempt_depth = 0
        self.aborted_s = 0.0  # inclusive wall of attempts ended by an overflow
        self._kernels = []
        self._saved = []

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------
    def _enter(self) -> None:
        self._stack.append(0.0)

    def _exit(self, metric: str, seconds: float) -> None:
        child = self._stack.pop()
        self.self_s[metric] += seconds - child
        if self._stack:
            self._stack[-1] += seconds

    def begin_op(self) -> None:
        """Open the top-level span of one benchmark operation."""
        self._enter()

    def end_op(self, seconds: float) -> None:
        """Close it; ``seconds`` is the operation's measured latency."""
        self._exit("session", seconds)
        for kernel in self._kernels:
            self.counts["kernel_hits"] += kernel.hits
            self.counts["kernel_misses"] += kernel.misses
        self._kernels.clear()

    # ------------------------------------------------------------------
    # Wrapper factories
    # ------------------------------------------------------------------
    def _span(self, metric, fn):
        def wrapper(*args, **kwargs):
            self._enter()
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(metric, perf_counter() - started)

        return wrapper

    def _counted_span(self, metric, fn):
        span = self._span(metric, fn)

        def wrapper(*args, **kwargs):
            self.calls[metric] += 1
            return span(*args, **kwargs)

        return wrapper

    def _generator_span(self, metric, fn, overflows=False):
        from repro.join.merge_join import WindowOverflowError

        counted = WindowOverflowError if overflows else ()

        def drive(generator):
            try:
                while True:
                    self._enter()
                    started = perf_counter()
                    try:
                        item = next(generator)
                    except StopIteration:
                        return
                    except counted:
                        self.counts["window_overflows"] += 1
                        raise
                    finally:
                        self._exit(metric, perf_counter() - started)
                    yield item
            finally:
                generator.close()

        def wrapper(*args, **kwargs):
            self.calls[metric] += 1
            return drive(fn(*args, **kwargs))

        return wrapper

    def _attempt(self, metric, fn):
        from repro.join.merge_join import WindowOverflowError

        def wrapper(*args, **kwargs):
            outermost = self._attempt_depth == 0
            self._attempt_depth += 1
            self._enter()
            started = perf_counter()
            aborted = False
            try:
                return fn(*args, **kwargs)
            except WindowOverflowError:
                aborted = True
                raise
            finally:
                seconds = perf_counter() - started
                self._exit(metric, seconds)
                self._attempt_depth -= 1
                if outermost:
                    self.calls[metric] += 1
                    self.counts["attempts"] += 1
                    if aborted:
                        self.counts["aborted"] += 1
                        self.aborted_s += seconds

        return wrapper

    def _count(self, key, fn):
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------
    # Wrappers with layer-specific bookkeeping
    # ------------------------------------------------------------------
    def _kernel_init(self, fn):
        def wrapper(kernel, *args, **kwargs):
            fn(kernel, *args, **kwargs)
            self._kernels.append(kernel)

        return wrapper

    def _get_page(self, fn):
        def wrapper(pool, *args, **kwargs):
            hits = pool.hits
            page = fn(pool, *args, **kwargs)
            self.counts["buffer_gets"] += 1
            self.counts["buffer_hits"] += pool.hits - hits
            return page

        return wrapper

    def _plan_store(self, fn):
        def wrapper(cache, key, *args, **kwargs):
            before = len(cache) + (key not in cache)
            fn(cache, key, *args, **kwargs)
            self.counts["plan_cache_lru_drops"] += before - len(cache)

        return wrapper

    def _wal_sync(self, fn):
        span = self._span("wal.sync", fn)

        def wrapper(log):
            written = span(log)
            if written:
                self.counts["wal_syncs"] += 1
                self.counts["wal_bytes"] += written
            return written

        return wrapper

    def _apply_ops(self, fn):
        span = self._span("wal.apply", fn)

        def wrapper(manager, ops, *args, **kwargs):
            tables = manager.session.tables
            for _verb, name, payload in ops:
                encode = tables[name.upper()].serializer.encode
                for item in payload:
                    row = item[1] if isinstance(item, tuple) else item
                    self.counts["wal_user_bytes"] += len(encode(row))
            return span(manager, ops, *args, **kwargs)

        return wrapper

    def _sort(self, fn):
        span = self._counted_span("sort", fn)

        def wrapper(sorter, source, *args, **kwargs):
            self.counts["sort_tuples"] += source.n_tuples
            return span(sorter, source, *args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _patch(self, module_name, path, make):
        owner, attr = _resolve(module_name, path)
        own = attr in vars(owner)
        raw = vars(owner)[attr] if own else getattr(owner, attr)
        patched = classmethod(make(raw.__func__)) if isinstance(raw, classmethod) else make(raw)
        self._saved.append((owner, attr, own, raw))
        setattr(owner, attr, patched)

    def __enter__(self) -> "LayerTracer":
        for metric, sites in SPANS.items():
            factory = self._counted_span if metric in COUNTED else self._span
            for module_name, path in sites:
                self._patch(module_name, path, lambda fn, m=metric, f=factory: f(m, fn))
        for metric, sites in GENERATOR_SPANS.items():
            for module_name, path in sites:
                # Only the innermost fold counts an overflow: pairs() wraps it.
                overflows = path == "MergeJoin.fold"
                self._patch(module_name, path, lambda fn, m=metric, o=overflows:
                            self._generator_span(m, fn, o))
        for metric, (module_name, path) in ATTEMPTS.items():
            self._patch(module_name, path, lambda fn, m=metric: self._attempt(m, fn))
        compare = "repro.fuzzy.compare"
        self._patch(compare, "ComparisonKernel.possibility",
                    lambda fn: self._count("kernel_calls", fn))
        self._patch(compare, "ComparisonKernel.batch",
                    lambda fn: self._count("batch_calls", fn))
        self._patch(compare, "ComparisonKernel.__init__", self._kernel_init)
        self._patch("repro.storage.buffer", "BufferPool.get_page", self._get_page)
        self._patch("repro.service.plancache", "PlanCache.store", self._plan_store)
        self._patch("repro.wal.log", "WriteAheadLog.sync", self._wal_sync)
        self._patch("repro.wal.manager", "WriteManager.apply_ops", self._apply_ops)
        self._patch("repro.sort.external", "ExternalSorter.sort", self._sort)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, own, raw = self._saved.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    # Report
    # ------------------------------------------------------------------
    def metrics(self, loop: dict, overhead_ms: float) -> dict:
        """The per-layer metrics, given the traced loop's own tallies.

        ``loop`` carries what the loop read from the engine after every
        operation: summed ``session.last_stats`` counters, answer rows,
        plan-cache counter deltas and index rebuilds.
        """
        c = self.counts

        def ms(name):
            return self.self_s[name] * 1000.0

        def ratio(num, den):
            return num / den if den else 0.0

        lookups = loop["plan_cache_hits"] + loop["plan_cache_misses"]
        out = {
            "sql.parse_ms": (ms("sql.parse"), "ms"),
            "sql.parse_calls": (self.calls["sql.parse"], "count"),
            "sql.classify_ms": (ms("sql.classify"), "ms"),
            "unnest.rewrite_ms": (ms("unnest.rewrite"), "ms"),
            "unnest.rewrite_calls": (self.calls["unnest.rewrite"], "count"),
            "service.plan_cache_hit_ratio": (ratio(loop["plan_cache_hits"], lookups), "ratio"),
            "service.plan_cache_evictions": (
                loop["plan_cache_invalidations"] + c["plan_cache_lru_drops"], "count"),
            "engine.compile_ms": (ms("engine.compile"), "ms"),
            "engine.compile_calls": (self.calls["engine.compile"], "count"),
            "engine.plan_ms": (ms("engine.plan"), "ms"),
            "engine.flat_ms": (ms("engine.flat"), "ms"),
            "engine.grouped_ms": (ms("engine.grouped"), "ms"),
            "engine.ja_ms": (ms("engine.ja"), "ms"),
            "engine.naive_calls": (self.calls["engine.naive"], "count"),
            "engine.naive_ms": (ms("engine.naive"), "ms"),
            "engine.aborted_ms": (self.aborted_s * 1000.0, "ms"),
            "engine.useful_ratio": (ratio(c["attempts"] - c["aborted"], c["attempts"]), "ratio"),
            "sort.ms": (ms("sort"), "ms"),
            "sort.calls": (self.calls["sort"], "count"),
            "sort.tuples": (c["sort_tuples"], "count"),
            "join.probe_ms": (ms("join.probe"), "ms"),
            "join.window_overflows": (c["window_overflows"], "count"),
            "join.fuzzy_evals": (loop["fuzzy_evaluations"], "count"),
            "join.crisp_cmps": (loop["crisp_comparisons"], "count"),
            "join.evals_per_row": (ratio(loop["fuzzy_evaluations"], loop["rows"]), "ratio"),
            "fuzzy.kernel_calls": (c["kernel_calls"], "count"),
            "fuzzy.memo_hit_ratio": (
                ratio(c["kernel_hits"], c["kernel_hits"] + c["kernel_misses"]), "ratio"),
            "fuzzy.batch_calls": (c["batch_calls"], "count"),
            "columnar.kernel_ms": (ms("columnar.kernel"), "ms"),
            "columnar.index_probe_ms": (ms("columnar.index_probe"), "ms"),
            "columnar.index_pages_read": (loop["index_pages_read"], "count"),
            "columnar.index_maint_ms": (ms("columnar.index_maint"), "ms"),
            "columnar.index_rebuilds": (loop["index_rebuilds"], "count"),
            "storage.page_reads": (loop["page_reads"], "count"),
            "storage.page_writes": (loop["page_writes"], "count"),
            "storage.buffer_gets": (c["buffer_gets"], "count"),
            "storage.buffer_hit_ratio": (ratio(c["buffer_hits"], c["buffer_gets"]), "ratio"),
            "storage.disk_ms": (ms("storage.disk"), "ms"),
            "wal.append_ms": (ms("wal.append"), "ms"),
            "wal.sync_ms": (ms("wal.sync"), "ms"),
            "wal.syncs": (c["wal_syncs"], "count"),
            "wal.bytes_synced": (c["wal_bytes"], "count"),
            "wal.apply_ms": (ms("wal.apply"), "ms"),
            "wal.bytes_per_user_byte": (ratio(c["wal_bytes"], c["wal_user_bytes"]), "ratio"),
            "wal.checkpoint_ms": (ms("wal.checkpoint"), "ms"),
            "wal.recover_ms": (ms("wal.recover"), "ms"),
            "session.self_ms": (ms("session"), "ms"),
            "bench.trace_overhead_ms": (overhead_ms, "ms"),
        }
        return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}
