"""Storage-level evaluation of the grouped anti-join rewrites (JX/JALL).

Sections 5 and 7 evaluate the unnested forms JX' / JALL' with the extended
merge-join: "we join a tuple r with all S-tuples in Rng(r) while they are
in the main memory, compute d_r and retrieve r.X when d_r > 0".  The
degree of an outer tuple is a *min* fold over pair degrees

    NOT IN:  d'_{r,s} = min(mu_R(r), 1 - min(mu_S(s), p2, cross, d(Y = Z)))
    op ALL:  d'_{r,s} = min(mu_R(r), 1 - min(mu_S(s), p2, cross, 1 - d(Y op Z)))

seeded with ``min(mu_R(r), p1(r))`` (the value every pair outside Rng(r)
contributes, since its inner conjunction is 0).

When one of the cross predicates (or the NOT-IN link) is a fuzzy equality
between attributes, it serves as the merge-join band; otherwise the fold
runs on the block nested loop — same answers, quadratic cost.
"""

from __future__ import annotations

import enum
import time
from typing import Callable, List, Optional, Sequence, Tuple

from ..data.relation import FuzzyRelation
from ..data.tuples import FuzzyTuple
from ..fuzzy.compare import ComparisonKernel, Op
from ..join.merge_join import MergeJoin
from ..join.nested_loop import NestedLoopJoin
from ..join.predicates import JoinPredicate, conjoin
from ..storage.heap import HeapFile
from ..storage.stats import OperationStats

TupleDegree = Callable[[FuzzyTuple], float]

#: A cross predicate: (outer attribute, operator, inner attribute).
CrossSpec = Tuple[str, Op, str]


class GroupMode(enum.Enum):
    """Which quantifier the grouped evaluation folds: ``NOT IN`` or ``ALL``."""
    NOT_IN = "not in"
    ALL = "all"


class GroupedAntiJoin:
    """One grouped anti-join query over heap files."""

    def __init__(
        self,
        outer: HeapFile,
        inner: HeapFile,
        mode: GroupMode,
        link: CrossSpec,
        cross: Sequence[CrossSpec] = (),
        p1: Optional[TupleDegree] = None,
        p2: Optional[TupleDegree] = None,
        project_attrs: Sequence[str] = ("ID",),
    ):
        """``link`` is the quantified comparison: ``(Y, EQ, Z)`` for NOT IN
        or ``(Y, op, Z)`` for op ALL.  ``cross`` holds the correlation
        predicates of the inner block, outer attribute first."""
        self.outer = outer
        self.inner = inner
        self.mode = mode
        self.link = link
        self.cross = list(cross)
        self.p1 = p1
        self.p2 = p2
        self.project_attrs = list(project_attrs)
        self.project_indices = [outer.schema.index_of(a) for a in self.project_attrs]
        self._link = self._predicate(link)
        self._cross = [self._predicate(c) for c in self.cross]
        self.band = self._choose_band()

    def _predicate(self, spec: CrossSpec) -> JoinPredicate:
        outer_attr, op, inner_attr = spec
        return JoinPredicate(
            self.outer.schema, outer_attr, op, self.inner.schema, inner_attr
        )

    def _choose_band(self) -> Optional[Tuple[str, str]]:
        """An equality attribute pair usable as the merge-join band."""
        candidates = list(self.cross)
        if self.mode is GroupMode.NOT_IN:
            candidates.append(self.link)
        for outer_attr, op, inner_attr in candidates:
            if op is Op.EQ:
                return (outer_attr, inner_attr)
        return None

    # ------------------------------------------------------------------
    # Degrees
    # ------------------------------------------------------------------
    def _inner_degree(self, r: FuzzyTuple, s: FuzzyTuple, stats) -> float:
        degree = s.degree
        if self.p2 is not None and degree > 0.0:
            if stats is not None:
                stats.count_fuzzy()
            degree = min(degree, self.p2(s))
        for p in self._cross:
            if degree == 0.0:
                return 0.0
            degree = min(degree, p.degree(r, s, stats))
        if degree == 0.0:
            return 0.0
        link_degree = self._link.degree(r, s, stats)
        if self.mode is GroupMode.NOT_IN:
            return min(degree, link_degree)
        return min(degree, 1.0 - link_degree)

    def _pair_degree(self, r: FuzzyTuple, s: FuzzyTuple, stats) -> float:
        return min(r.degree, 1.0 - self._inner_degree(r, s, stats))

    def _block_degree(
        self, r: FuzzyTuple, tuples: List[FuzzyTuple], stats, kernel: ComparisonKernel
    ) -> List[float]:
        """:meth:`_pair_degree` over a window block: one kernel call per
        predicate, each on the entries still nonzero, charging what the
        per-pair evaluation charges."""
        degrees = [s.degree for s in tuples]
        if self.p2 is not None:
            live = [i for i, d in enumerate(degrees) if d > 0.0]
            if live and stats is not None:
                stats.count_fuzzy(len(live))
            for i in live:
                degrees[i] = min(degrees[i], self.p2(tuples[i]))
        conjoin(degrees, self._cross, r, tuples, stats, kernel)
        live = [i for i, d in enumerate(degrees) if d != 0.0]
        if live:
            found = self._link.block_degrees(r, [tuples[i] for i in live], stats, kernel)
            negate = self.mode is GroupMode.ALL
            for i, d in zip(live, found):
                degrees[i] = min(degrees[i], 1.0 - d if negate else d)
        rd = r.degree
        return [min(rd, 1.0 - d) for d in degrees]

    def _init(self, r: FuzzyTuple) -> float:
        degree = r.degree
        if self.p1 is not None and degree > 0.0:
            degree = min(degree, self.p1(r))
        return degree

    @property
    def estimated_rows(self) -> float:
        """Coarse output estimate: outer tuples filtered by one predicate.

        The anti-join fold emits at most one answer per outer tuple; the
        0.5 filter factor mirrors
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
        """Run the grouped evaluation on the storage engine; returns the answer
        relation.
        """
        stats = stats if stats is not None else OperationStats()
        om = None
        started = 0.0
        if metrics is not None:
            om = metrics.op(
                self,
                label=(
                    f"GroupedAntiJoin[{self.mode.value}]"
                    f"({self.outer.name} -> {self.inner.name})"
                ),
            )
            started = time.perf_counter()
        step = lambda worst, _s, d: d if d < worst else worst
        answer = self._collect(disk, buffer_pages, stats, metrics, tracer, step, om)
        if om is not None:
            om.wall_seconds += time.perf_counter() - started
        return answer

    def _collect(self, disk, buffer_pages, stats, metrics, tracer, step, om) -> FuzzyRelation:
        from ..errors import DiskFullError

        if self.band is not None:
            outer_attr, inner_attr = self.band

            def pair(r: FuzzyTuple, s: FuzzyTuple, stats) -> float:
                return self._pair_degree(r, s, stats)

            pair.block = self._block_degree
            join = MergeJoin(disk, buffer_pages, stats, metrics=metrics, tracer=tracer)
            folded = join.fold(
                self.outer, outer_attr, self.inner, inner_attr, pair, self._init, step,
            )
            try:
                return self._fold_answer(folded, om)
            except DiskFullError:
                # The merge path failed while spilling sort runs; nothing
                # was folded yet (sorts precede the first pair).  The
                # nested-loop fold below only reads, computes the same
                # min-fold, and needs no out-of-range allowance because
                # pairs outside Rng(r) contribute the neutral degree.
                if metrics is not None:
                    metrics.degraded = True
                    metrics.degraded_reason = (
                        "grouped anti-join spill hit DiskFullError; nested-loop fallback"
                    )
        join = NestedLoopJoin(disk, buffer_pages, stats)
        folded = join.fold(self.outer, self.inner, self._pair_degree, self._init, step)
        return self._fold_answer(folded, om)

    def _fold_answer(self, folded, om) -> FuzzyRelation:
        answer = FuzzyRelation(self.outer.schema.project(self.project_attrs))
        for r, worst in folded:
            if om is not None:
                om.rows_in += 1
            if worst > 0.0:
                if om is not None:
                    om.rows_out += 1
                answer.add(
                    FuzzyTuple(tuple(r[i] for i in self.project_indices), worst)
                )
            elif om is not None:
                om.prunes += 1
        return answer
