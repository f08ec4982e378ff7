"""The three workloads: generated inputs, the operation stream, and checks.

Every workload is a closed loop with one client: the next operation is
issued when the previous one returns.  Inputs come from the seed alone,
through the generators of ``repro.workload`` and the query texts of
``benchmarks/run_bench.py``; the engine sees only the generated data and
statements, on a ``StorageSession`` with its default ``workers``,
``shards`` and ``adaptive`` settings.

The number of operations in a run is fixed by ``--seconds`` and the
workload's nominal operation rate (measured on a 2-core CPython 3.11
host), not by the clock.  Every run of a seed therefore does the same
work, the per-layer counts repeat exactly, and the latency percentiles
always sit at the same ranks of the same operation mix.
"""

from __future__ import annotations

import hashlib
import random
from time import perf_counter
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional

from run_bench import SESSION_QUERIES

from repro.data import FuzzyRelation, FuzzyTuple, Schema
from repro.data.catalog import Catalog
from repro.engine.semantics import NaiveEvaluator
from repro.faults import FaultPlan, FaultyDisk
from repro.fuzzy import CrispNumber, TrapezoidalNumber
from repro.session import StorageSession
from repro.workload.generator import ANCHOR_SPACING, WorkloadSpec, generate_tuples

SCHEMA = Schema(["K", "U", "V"])

#: The paper's controlled fan-out C on the U and V join attributes.
FANOUT = 8

#: The five nesting types, in the order each cycle runs them.
NESTING_TYPES = ("session_J", "session_JX", "session_JALL", "session_JA", "session_chain")

#: Types whose flat plan accepts ``WITH D >= z``; the grouped (JX, JALL)
#: and pipelined (JA) strategies hand thresholded queries to the naive
#: evaluator, which would make every read of those types a fallback.
THRESHOLDED = ("session_J", "session_chain")
THRESHOLDS = (0.5, 0.7)


@dataclass
class Op:
    """One operation of the closed loop.

    ``run`` returns the answer (a relation for reads).  ``repeat_key``
    names operations whose full-size answers must be identical every
    time; ``check`` is an oracle comparison run after the loop, outside
    the traced window; ``on_ack`` updates the workload's model once the
    operation has returned.
    """

    kind: str  # "read", "write" or "maint"
    label: str
    run: Callable[[], object]
    repeat_key: Optional[str] = None
    check: Optional[Callable[[object], bool]] = None
    on_ack: Optional[Callable[[], None]] = None


@dataclass
class State:
    """A set-up session plus whatever the workload tracks beside it."""

    session: StorageSession
    live_rows: dict = field(default_factory=dict)  # table -> rows it should hold
    model: dict = field(default_factory=dict)  # oltp: K -> expected row of R
    extra: dict = field(default_factory=dict)


def digest(relation) -> str:
    """A digest of an answer: every row's values and its exact degree."""
    rows = sorted(repr((t.value_key(), t.degree)) for t in relation)
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def oracle_agrees(relations: dict, query, answer) -> bool:
    """Whether ``answer`` equals the naive evaluator's over ``relations``."""
    catalog = Catalog()
    for name, relation in relations.items():
        catalog.register(name, relation)
    return digest(NaiveEvaluator(catalog).evaluate(query)) == digest(answer)


def _column(spec: WorkloadSpec, n: int, rng: random.Random) -> List[FuzzyTuple]:
    """``n`` anchored values (and degrees) from the Section 9 generator."""
    return generate_tuples(spec, n, rng, id_base=0)


def nested_relations(seed: int, n: int, wide: int = 0) -> dict:
    """R, S and W over (K, U, V) by the anchor scheme of ``repro.workload``.

    U and V join with fan-out C = 8, half crisp values and half narrow
    trapezoids.  K has one tuple per anchor, so the chain's ``S.K = W.V``
    edge stays selective instead of multiplying the R ⋈ S intermediate
    by C again.  The first ``wide`` tuples of S carry a very wide U value
    (a support over 90% of the domain): the Section 3 caveat, a
    ``Rng(r)`` larger than a small buffer.
    """
    rng = random.Random(seed)
    joined = WorkloadSpec(n_outer=n, n_inner=n, join_fanout=FANOUT, seed=seed)
    keyed = WorkloadSpec(n_outer=n, n_inner=n, join_fanout=1, seed=seed)
    span = joined.n_anchors * ANCHOR_SPACING
    out = {}
    for name in ("R", "S", "W"):
        keys, us, vs = (_column(spec, n, rng) for spec in (keyed, joined, joined))
        relation = FuzzyRelation(SCHEMA)
        for i, (k, u, v) in enumerate(zip(keys, us, vs)):
            u_value = u[1]
            if name == "S" and i < wide:
                lo = rng.uniform(0.0, 0.1 * span)
                u_value = TrapezoidalNumber(lo, lo + 1.0, lo + 0.9 * span - 1.0, lo + 0.9 * span)
            relation.add(FuzzyTuple([k[1], u_value, v[1]], v.degree))
        out[name] = relation
    return out


def threshold_schedule(cycles: int, rng: random.Random) -> dict:
    """Per thresholded type, the ``WITH D >= z`` of each cycle.

    Each threshold is used equally often (up to one for an odd number of
    cycles) and the seed only orders them, so every seed runs the same
    mix of texts.
    """
    schedule = {}
    for key in THRESHOLDED:
        zs = [THRESHOLDS[i % len(THRESHOLDS)] for i in range(cycles)]
        rng.shuffle(zs)
        schedule[key] = zs
    return schedule


class NestedWorkload:
    """``analytic`` and ``spill``: cycles through the five nesting types."""

    def __init__(self, name, seed, seconds, *, n, reduced_n, cycle_seconds,
                 session_args, wide_fraction=0.0):
        self.name = name
        self.seed = seed
        self.n = n
        self.reduced_n = reduced_n
        self.cycles = max(1, round(seconds / cycle_seconds))
        self.session_args = session_args
        self.wide_fraction = wide_fraction

    def _wide(self, n: int) -> int:
        return max(1, round(n * self.wide_fraction)) if self.wide_fraction else 0

    def _session(self, relations: dict) -> StorageSession:
        session = StorageSession(**self.session_args)
        for name, relation in relations.items():
            session.register(name, relation)
        return session

    def setup(self) -> State:
        relations = nested_relations(self.seed, self.n, self._wide(self.n))
        return State(self._session(relations), live_rows=relations)

    def reduced_checks(self) -> List[tuple]:
        """Every read text against the naive oracle on a reduced instance.

        Same generator, seed and session settings; ``reduced_n`` tuples
        per relation keep the cubic oracle cheap.
        """
        relations = nested_relations(self.seed, self.reduced_n, self._wide(self.reduced_n))
        session = self._session(relations)
        out = []
        for key in NESTING_TYPES:
            texts = [SESSION_QUERIES[key]]
            if key in THRESHOLDED:
                texts = [f"{texts[0]} WITH D >= {z}" for z in THRESHOLDS]
            for sql in texts:
                out.append((sql, oracle_agrees(relations, sql, session.query(sql))))
        return out

    def operations(self, state: State) -> Iterator[Op]:
        schedule = threshold_schedule(self.cycles, random.Random(self.seed))
        session = state.session
        for cycle in range(self.cycles):
            for key in NESTING_TYPES:
                sql = SESSION_QUERIES[key]
                if key in schedule:
                    sql += f" WITH D >= {schedule[key][cycle]}"
                yield Op("read", key, lambda sql=sql: session.query(sql), repeat_key=sql)

    def finish(self, state: State) -> dict:
        return {}

    def live_rows(self, state: State) -> dict:
        """The rows each table should hold now."""
        return state.live_rows

    def describe(self, state: State) -> str:
        pages = {name: heap.n_pages for name, heap in state.session.tables.items()}
        return (
            f"{self.name}: n={self.n} per relation, relation pages {pages}, "
            f"buffer {state.session.buffer_pages} pages of "
            f"{state.session.disk.page_size} B, {self.cycles} cycles x "
            f"{len(NESTING_TYPES)} nesting types"
        )


class OltpWorkload:
    """``oltp``: short indexed reads interleaved with WAL-logged writes.

    One round is ``POINTS`` prepared point lookups, one prepared range
    lookup with ``WITH D >= ?``, ``ADHOC`` textual lookups whose literals
    change every time (so the plan cache misses), one INSERT batch of
    ``INSERT_BATCH`` statements in a single ``execute()`` call (one group
    commit), one single-row UPDATE and one single-row DELETE with
    ``WITH D >= z``; every ``J_EVERY``-th round adds a prepared nested J
    read, and every ``CHECKPOINT_EVERY``-th a checkpoint.  The loop ends
    with a batch cut short by a scripted crash, a power loss and
    recovery on a fresh session.
    """

    N = 2000
    POINTS = 6
    ADHOC = 2
    INSERT_BATCH = 4
    J_EVERY = 2
    CHECKPOINT_EVERY = 12
    RECOVERIES = 3
    ROUND_SECONDS = 1.0

    POINT_SQL = "SELECT R.K, R.U FROM R WHERE R.V = ?"
    RANGE_SQL = "SELECT R.K FROM R WHERE R.V >= ? AND R.V <= ? WITH D >= ?"
    J_SQL = SESSION_QUERIES["session_J"]

    def __init__(self, name, seed, seconds):
        self.name = name
        self.seed = seed
        self.rounds = max(1, round(seconds / self.ROUND_SECONDS))
        self.spec = WorkloadSpec(n_outer=self.N, n_inner=self.N, join_fanout=FANOUT, seed=seed)

    def _relations(self) -> dict:
        rng = random.Random(self.seed)
        out = {}
        for name, base in (("R", 0), ("S", 1_000_000)):
            ids = generate_tuples(self.spec, self.N, rng, id_base=base)
            us = _column(self.spec, self.N, rng)
            relation = FuzzyRelation(SCHEMA)
            for t, u in zip(ids, us):
                relation.add(FuzzyTuple([t[0], u[1], t[1]], t.degree))
            out[name] = relation
        return out

    def setup(self) -> State:
        relations = self._relations()
        disk = FaultyDisk(FaultPlan(seed=self.seed), page_size=8 * 1024, armed=False)
        session = StorageSession(disk=disk)
        for name, relation in relations.items():
            session.register(name, relation)
        session.create_index("R", "V")
        model = {t[0].value: t for t in relations["R"]}
        return State(session, live_rows={"S": relations["S"]}, model=model,
                     extra={"disk": disk, "next_key": self.N, "writer": {}, "ops": 0,
                            "wal_bytes": 0})

    def reduced_checks(self) -> List[tuple]:
        return []

    def live_rows(self, state: State) -> dict:
        """The rows each table should hold now: S as loaded, R as modelled."""
        return {"R": list(state.model.values()), "S": state.live_rows["S"]}

    # ------------------------------------------------------------------
    # Operation stream
    # ------------------------------------------------------------------
    def _anchor(self, rng: random.Random) -> float:
        return rng.randrange(self.spec.n_anchors) * ANCHOR_SPACING

    def _literal(self, rng: random.Random):
        """A crisp or trapezoid SQL literal near an anchor, and its value."""
        center = self._anchor(rng)
        if rng.random() < 0.5:
            return f"{center:g}", CrispNumber(center)
        a, b, c, d = center - 3, center - 1, center + 1, center + 3
        return f"'[{a:g}, {b:g}, {c:g}, {d:g}]'", TrapezoidalNumber(a, b, c, d)

    def _read(self, state: State, label: str, run, query, checked: bool) -> Op:
        """A read; a checked one is compared, after the loop, with the
        naive oracle over the model of R as it stood when the read ran."""
        if not checked:
            return Op("read", label, run)
        rows, s = list(state.model.values()), state.live_rows["S"]

        def check(answer) -> bool:
            return oracle_agrees({"R": FuzzyRelation(SCHEMA, rows), "S": s}, query, answer)

        return Op("read", label, run, check=check)

    def operations(self, state: State) -> Iterator[Op]:
        rng = random.Random(self.seed + 1)
        session = state.session
        point = session.prepare(self.POINT_SQL)
        ranged = session.prepare(self.RANGE_SQL)
        nested = session.prepare(self.J_SQL)
        state.extra["disk"].armed = True
        for round_no in range(self.rounds):
            reads = []
            for _ in range(self.POINTS):
                params = (self._anchor(rng),)
                reads.append(("point", lambda p=params: point.execute(p), point.bind(params)))
            lo = self._anchor(rng)
            params = (lo, lo + 2 * ANCHOR_SPACING, rng.choice(THRESHOLDS))
            reads.append(("range", lambda p=params: ranged.execute(p), ranged.bind(params)))
            for _ in range(self.ADHOC):
                sql = (f"SELECT R.K, R.V FROM R WHERE R.V = {self._anchor(rng):g} "
                       f"WITH D >= {rng.choice(THRESHOLDS)}")
                reads.append(("adhoc", lambda sql=sql: session.query(sql), sql))
            # One read per round, in rotation, goes to the oracle.
            checked = round_no % len(reads)
            for i, (label, run, query) in enumerate(reads):
                yield self._read(state, label, run, query, i == checked)
            if round_no % self.J_EVERY == 0:
                yield Op("read", "nested J", nested.execute)
            yield self._insert_batch(state, rng)
            yield self._update(state, rng)
            yield self._delete(state, rng)
            if (round_no + 1) % self.CHECKPOINT_EVERY == 0:
                yield Op("maint", "checkpoint", lambda: self._checkpoint(state))

    def _checkpoint(self, state: State) -> str:
        # The checkpoint empties the log: keep its synced bytes for the counts.
        state.extra["wal_bytes"] += state.session.writes.wal.synced_bytes
        return state.session.checkpoint()

    def _insert_rows(self, state: State, rng: random.Random):
        statements, rows = [], []
        for _ in range(self.INSERT_BATCH):
            key = state.extra["next_key"]
            state.extra["next_key"] += 1
            (u_lit, u), (v_lit, v) = self._literal(rng), self._literal(rng)
            degree = rng.choice((0.6, 0.8, 1.0))
            statements.append(f"INSERT INTO R VALUES ({key}, {u_lit}, {v_lit}) WITH D {degree}")
            rows.append(FuzzyTuple([CrispNumber(key), u, v], degree))
        return statements, rows

    def _write(self, state: State, label: str, sql, changes) -> Op:
        """A write op; ``changes`` maps each key it touches to its new row
        (``None`` = deleted) and is applied to the model on acknowledgement."""
        state.extra["ops"] += 1
        op_id = f"{label} #{state.extra['ops']}"

        def ack():
            for key, row in changes.items():
                state.extra["writer"][key] = op_id
                if row is None:
                    del state.model[key]
                else:
                    state.model[key] = row

        return Op("write", label, lambda: state.session.execute(sql), on_ack=ack)

    def _insert_batch(self, state: State, rng: random.Random) -> Op:
        statements, rows = self._insert_rows(state, rng)
        return self._write(state, "insert batch", statements, {r[0].value: r for r in rows})

    def _victim(self, state: State, rng: random.Random):
        key = rng.choice(sorted(state.model))
        z = rng.choice((0.5, 0.7, 0.9))
        return key, z, state.model[key].degree >= z

    def _update(self, state: State, rng: random.Random) -> Op:
        key, z, hit = self._victim(state, rng)
        literal, value = self._literal(rng)
        sql = f"UPDATE R SET U = {literal} WHERE K = {key:g} WITH D >= {z}"
        old = state.model[key]
        new = FuzzyTuple([old[0], value, old[2]], old.degree)
        return self._write(state, "update", sql, {key: new} if hit else {})

    def _delete(self, state: State, rng: random.Random) -> Op:
        key, z, hit = self._victim(state, rng)
        sql = f"DELETE FROM R WHERE K = {key:g} WITH D >= {z}"
        return self._write(state, "delete", sql, {key: None} if hit else {})

    # ------------------------------------------------------------------
    # Crash and recovery
    # ------------------------------------------------------------------
    def finish(self, state: State) -> dict:
        """Cut one batch short, lose power, and recover on fresh sessions.

        The last batch crashes at its WAL write, so it is never
        acknowledged.  ``recover()`` then runs ``RECOVERIES`` times on
        fresh sessions over the crashed disk (recovery is restartable and
        replays from the epoch-0 bases each time); ``recover_s`` is the
        median, and the last survivor is checked against the model.
        """
        from repro.errors import FuzzyQueryError

        disk = state.extra["disk"]
        statements, rows = self._insert_rows(state, random.Random(self.seed + 2))
        # Crash points are scheduled by write ordinal (as the WAL chaos
        # tests do); the batch's first write is its WAL blob.
        disk.plan.crash_write(disk._write_ordinal, keep_bytes=16)
        acknowledged = False
        try:
            state.session.execute(statements)
            acknowledged = True
        except FuzzyQueryError:
            pass
        if acknowledged:  # the crash point did not fire: the batch counts
            for row in rows:
                state.model[row[0].value] = row
        disk.crash()
        times, survivor = [], None
        for _ in range(self.RECOVERIES):
            survivor = StorageSession(disk=disk)
            for name in ("R", "S"):
                survivor.attach(name, SCHEMA)
            started = perf_counter()
            survivor.recover()
            times.append(perf_counter() - started)
        return {"recover_times": times, "survivor": survivor,
                "unacknowledged": [] if acknowledged else rows}

    def durability_violations(self, state: State, finished: dict) -> dict:
        """Operations whose effect recovery lost or resurrected.

        Maps the failing operation (the last acknowledged write of the
        key, the initial load, or the unacknowledged batch) to the first
        discrepancy found for it.
        """
        survivor = finished["survivor"]
        recovered = {t[0].value: t for t in survivor.query("SELECT R.K, R.U, R.V FROM R")}
        writer = state.extra["writer"]
        out = {}
        for key, row in state.model.items():
            got = recovered.get(key)
            if got is None or got.value_key() != row.value_key() or got.degree != row.degree:
                out.setdefault(writer.get(key, f"load K={key:g}"),
                               f"K={key:g}: expected {row!r}, recovered {got!r}")
        unacknowledged = {row[0].value for row in finished["unacknowledged"]}
        for key in recovered.keys() - state.model.keys():
            op = "unacknowledged batch" if key in unacknowledged else writer.get(key, "unknown")
            out.setdefault(op, f"K={key:g}: recovered {recovered[key]!r}, expected no row")
        return out

    def describe(self, state: State) -> str:
        pages = {name: heap.n_pages for name, heap in state.session.tables.items()}
        return (
            f"{self.name}: n={self.N} per relation, index on R.V, relation pages "
            f"{pages}, buffer {state.session.buffer_pages} pages of "
            f"{state.session.disk.page_size} B, {self.rounds} rounds, "
            f"insert batches of {self.INSERT_BATCH} (one group commit per execute())"
        )


def make(name: str, seed: int, seconds: int):
    """The workload called ``name``."""
    if name == "analytic":
        # Session defaults: 8 KB pages and a 64-page pool, which holds all
        # three base relations (about 18 pages each at n = 2000).
        return NestedWorkload(name, seed, seconds, n=2000, reduced_n=40,
                              cycle_seconds=5.0, session_args={})
    if name == "spill":
        # A 16-page pool of 1 KB pages against relations of about 23 pages
        # each; 1% of S carries a very wide U, so the grouped and pipelined
        # merge-joins overflow their window and restart on the naive path.
        return NestedWorkload(name, seed, seconds, n=300, reduced_n=40,
                              cycle_seconds=4.0, wide_fraction=0.01,
                              session_args={"buffer_pages": 16, "page_size": 1024})
    if name == "oltp":
        return OltpWorkload(name, seed, seconds)
    raise KeyError(name)
