"""The Section 6 pipelined evaluation of unnested aggregate queries.

"Although the unnested Query JA consists of three queries instead of one,
by pipelining the result of one query to another, the three flat queries
can be evaluated in parallel in the main memory. ... Since the operations
are pipelined, this process is essentially the extended merge-join."

This module implements that single-pass strategy over heap files: both
relations are sorted once (R on U, S on V); as the merge scan walks R, the
group ``T'(u)`` for each *distinct* outer join-value ``u`` is aggregated
exactly once (``A'(u)``, ``D(A'(u))``) and memoized, so later R-tuples
carrying the same value reuse it without touching S again — the paper's
"as soon as u1 is obtained, it is pipelined to Query T2 ... then, for all
R-tuples r with r.U = u1 ... the degree d_r is computed".

The COUNT left outer join (Query COUNT') falls out naturally: an R-tuple
whose group is empty compares against the constant 0.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from ..data.relation import FuzzyRelation
from ..data.tuples import FuzzyTuple
from ..fuzzy.compare import Op, intervals_intersect, possibility
from ..fuzzy.crisp import CrispNumber
from ..join.merge_join import MergeJoin
from ..join.predicates import PairDegree
from ..storage.heap import HeapFile
from ..storage.stats import OperationStats
from .aggregates import DegreePolicy, apply_aggregate

TupleDegree = Callable[[FuzzyTuple], float]


class JAPipeline:
    """One-pass evaluation of

        SELECT R.<project> FROM R
        WHERE p1 AND R.<y> op1 (SELECT AGG(S.<z>) FROM S
                                WHERE p2 AND S.<v> = R.<u>)

    over heap files, per the Section 6 pipelining description.
    """

    def __init__(
        self,
        outer: HeapFile,
        inner: HeapFile,
        u_attr: str,
        v_attr: str,
        y_attr: str,
        op1: Op,
        agg_func: str,
        z_attr: str,
        project_attr=None,
        p1: Optional[TupleDegree] = None,
        p2: Optional[TupleDegree] = None,
        policy: DegreePolicy = DegreePolicy.ONE,
        project_attrs=None,
    ):
        self.outer = outer
        self.inner = inner
        self.u_index = outer.schema.index_of(u_attr)
        self.v_index = inner.schema.index_of(v_attr)
        self.y_index = outer.schema.index_of(y_attr)
        self.z_index = inner.schema.index_of(z_attr)
        if project_attrs is None:
            project_attrs = [project_attr] if project_attr is not None else ["ID"]
        self.project_attrs = list(project_attrs)
        self.project_indices = [outer.schema.index_of(a) for a in self.project_attrs]
        self.u_attr, self.v_attr = u_attr, v_attr
        self.op1 = op1
        self.agg_func = agg_func.upper()
        self.p1 = p1
        self.p2 = p2
        self.policy = policy

    @property
    def estimated_rows(self) -> float:
        """Coarse output estimate: outer tuples filtered by the aggregate compare.

        The pipeline emits at most one answer per outer tuple; the 0.5
        filter factor mirrors
        :data:`repro.observe.explain.PREDICATE_SELECTIVITY`.
        """
        return max(1.0, 0.5 * self.outer.n_tuples)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        disk,
        buffer_pages: int,
        stats: Optional[OperationStats] = None,
        metrics=None,
        tracer=None,
    ) -> FuzzyRelation:
        """Run the pipelined JA evaluation on the storage engine; returns the answer."""
        stats = stats if stats is not None else OperationStats()
        om = None
        started = 0.0
        if metrics is not None:
            om = metrics.op(
                self, label=f"JAPipeline({self.outer.name} -> {self.inner.name})"
            )
            started = time.perf_counter()
        join = MergeJoin(disk, buffer_pages, stats, metrics=metrics, tracer=tracer)
        # A'(u) / D(A'(u)) memo, keyed by the value representation of u —
        # the binary-identity grouping Theorem 6.1 relies on.
        groups: Dict[Hashable, Optional[Tuple[object, float]]] = {}

        pair = self._pair_degree(groups)

        def init(_r: FuzzyTuple):
            return {}

        def step(members, s: FuzzyTuple, degree: float):
            if degree > 0.0:
                key = s[self.z_index].key()
                if key not in members or degree > members[key][1]:
                    members[key] = (s[self.z_index], degree)
            return members

        from ..errors import DiskFullError
        from ..join.nested_loop import NestedLoopJoin

        folded = join.fold(
            self.outer, self.u_attr, self.inner, self.v_attr, pair, init, step
        )
        try:
            answer = self._fold_answer(folded, groups, stats, om)
        except DiskFullError:
            # The merge path failed while spilling sort runs; nothing was
            # folded yet, so rerun the same pair/init/step fold on the
            # read-only nested loop.  The group memo stays correct: pairs
            # outside Rng(r) contribute degree 0 and aggregation still
            # happens exactly once per distinct u.
            if metrics is not None:
                metrics.degraded = True
                metrics.degraded_reason = (
                    "JA pipeline spill hit DiskFullError; nested-loop fallback"
                )
            groups.clear()
            fallback = NestedLoopJoin(disk, buffer_pages, stats)
            folded = fallback.fold(self.outer, self.inner, pair, init, step)
            answer = self._fold_answer(folded, groups, stats, om)
        if om is not None:
            om.wall_seconds += time.perf_counter() - started
        return answer

    def _pair_degree(self, groups: Dict[Hashable, object]) -> PairDegree:
        """The ``T'(u)`` membership of ``s`` for the group of ``r.U``, with its
        window form as ``.block``.

        Zero, and uncharged, once the group of ``r.U`` is in ``groups``
        (already aggregated); otherwise one fuzzy evaluation, plus one for
        ``p2`` when the link is positive.
        """

        def pair(r: FuzzyTuple, s: FuzzyTuple, st: Optional[OperationStats]) -> float:
            u = r[self.u_index]
            if u.key() in groups:
                return 0.0  # group already aggregated; skip S work entirely
            if st is not None:
                st.count_fuzzy()
            if not intervals_intersect(u, s[self.v_index]):
                return 0.0
            degree = min(s.degree, possibility(s[self.v_index], Op.EQ, u))
            if degree > 0.0 and self.p2 is not None:
                if st is not None:
                    st.count_fuzzy()
                degree = min(degree, self.p2(s))
            return degree

        def block(r: FuzzyTuple, tuples, st: Optional[OperationStats], kernel) -> List[float]:
            degrees = [0.0] * len(tuples)
            u = r[self.u_index]
            if u.key() in groups:
                return degrees
            if st is not None:
                st.count_fuzzy(len(tuples))
            v_index = self.v_index
            live = [i for i, s in enumerate(tuples) if intervals_intersect(u, s[v_index])]
            if not live:
                return degrees
            # S value on the left, as in the per-pair form: bit-identical.
            found = kernel.batch(
                u, Op.EQ, [tuples[i][v_index] for i in live], probe_on_left=False
            )
            for i, d in zip(live, found):
                degrees[i] = min(tuples[i].degree, d)
            if self.p2 is not None:
                live = [i for i in live if degrees[i] > 0.0]
                if live and st is not None:
                    st.count_fuzzy(len(live))
                for i in live:
                    degrees[i] = min(degrees[i], self.p2(tuples[i]))
            return degrees

        pair.block = block
        return pair

    def _fold_answer(self, folded, groups, stats, om) -> FuzzyRelation:
        answer = FuzzyRelation(self.outer.schema.project(self.project_attrs))
        for r, members in folded:
            if om is not None:
                om.rows_in += 1
            u_key = r[self.u_index].key()
            if u_key not in groups:
                # Pipeline hand-off: T'(u) just completed; apply AGG once.
                groups[u_key] = apply_aggregate(
                    self.agg_func, list(members.values()), self.policy
                )
            degree = self._outer_degree(r, groups[u_key], stats)
            if degree > 0.0:
                if om is not None:
                    om.rows_out += 1
                answer.add(
                    FuzzyTuple(tuple(r[i] for i in self.project_indices), degree)
                )
            elif om is not None:
                om.prunes += 1
        return answer

    def _outer_degree(self, r: FuzzyTuple, aggregate, stats: Optional[OperationStats]) -> float:
        degree = r.degree
        if self.p1 is not None:
            if stats is not None:
                stats.count_fuzzy()
            degree = min(degree, self.p1(r))
        if degree == 0.0:
            return 0.0
        if aggregate is None:
            # Empty group: NULL for everything but COUNT...
            if self.agg_func != "COUNT":
                return 0.0
            value, agg_degree = CrispNumber(0.0), 1.0  # ...the outer-join ELSE branch
        else:
            value, agg_degree = aggregate
        if stats is not None:
            stats.count_fuzzy()
        return min(degree, agg_degree, possibility(r[self.y_index], self.op1, value))
