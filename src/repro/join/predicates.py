"""Join predicate evaluation and degree composition.

Every pair degree the unnesting rewrites need is a composition of
``min``/``1-x`` over predicate satisfaction degrees:

* plain join (Queries N', J'):   ``min(mu_R(r), mu_S(s), d(p1..pk))``
* anti join (Query JX'):          ``min(mu_R(r), 1 - min(mu_S(s), d(p1..pk)))``
* ALL-quantifier join (JALL'):    ``min(mu_R(r), 1 - min(mu_S(s), d(join), 1 - d(compare)))``

Each evaluated predicate charges one fuzzy evaluation to the stats object;
conjunctions short-circuit on 0 exactly like a real evaluator would.

Every builder returns a per-pair :data:`PairDegree` that also carries its
window form as ``.block`` (a :data:`BlockDegree`): the merge-join scores
all the S-tuples one R-tuple examines at once, with one
:meth:`~repro.fuzzy.compare.ComparisonKernel.batch` call per predicate.
The block form evaluates a later predicate only on the entries still
nonzero and charges exactly what the per-pair form would, so both return
bit-identical degrees and counters.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from ..data.schema import Schema
from ..data.tuples import FuzzyTuple
from ..fuzzy.compare import ComparisonKernel, Op, possibility
from ..storage.stats import OperationStats


class JoinPredicate:
    """``R.attr op S.attr`` with positions resolved against both schemas."""

    __slots__ = ("left_attr", "op", "right_attr", "left_index", "right_index", "similarity")

    def __init__(
        self,
        left_schema: Schema,
        left_attr: str,
        op: Op,
        right_schema: Schema,
        right_attr: str,
        similarity=None,
    ):
        self.left_attr = left_attr
        self.op = op
        self.right_attr = right_attr
        self.left_index = left_schema.index_of(left_attr)
        self.right_index = right_schema.index_of(right_attr)
        self.similarity = similarity
        if op is Op.SIMILAR and similarity is None:
            raise ValueError("a SIMILAR predicate needs a similarity relation")

    def degree(
        self,
        r: FuzzyTuple,
        s: FuzzyTuple,
        stats: Optional[OperationStats] = None,
        kernel: Optional[ComparisonKernel] = None,
    ) -> float:
        """Fuzzy degree of the predicate on ``(r, s)``, counting one fuzzy evaluation.

        ``kernel`` routes the possibility computation through a memoizing
        :class:`~repro.fuzzy.compare.ComparisonKernel`; the fuzzy-evaluation
        counter is charged either way so accounting stays kernel-agnostic.
        """
        if stats is not None:
            stats.count_fuzzy()
        left = r[self.left_index]
        right = s[self.right_index]
        if self.op is Op.SIMILAR:
            return self.similarity.degree(left, right)
        if kernel is not None:
            return kernel.possibility(left, self.op, right)
        return possibility(left, self.op, right)

    def block_degrees(
        self,
        r: FuzzyTuple,
        tuples: Sequence[FuzzyTuple],
        stats: Optional[OperationStats],
        kernel: ComparisonKernel,
    ) -> List[float]:
        """:meth:`degree` of ``r`` against every tuple of ``tuples``, in order,
        charging ``len(tuples)`` fuzzy evaluations."""
        if stats is not None:
            stats.count_fuzzy(len(tuples))
        left = r[self.left_index]
        index = self.right_index
        values = [s.values[index] for s in tuples]
        if self.op is Op.SIMILAR:
            return [self.similarity.degree(left, value) for value in values]
        return kernel.batch(left, self.op, values)

    def __repr__(self) -> str:
        return f"JoinPredicate(R.{self.left_attr} {self.op.value} S.{self.right_attr})"


PairDegree = Callable[[FuzzyTuple, FuzzyTuple, Optional[OperationStats]], float]

#: ``block(r, tuples, stats, kernel)``: the pair degrees of ``r`` against
#: every tuple of ``tuples``, in order, as one list.
BlockDegree = Callable[
    [FuzzyTuple, Sequence[FuzzyTuple], Optional[OperationStats], ComparisonKernel],
    List[float],
]


def block_degree_of(pair_degree: PairDegree) -> BlockDegree:
    """The window form of ``pair_degree``.

    The builders of this module (and the grouped and pipelined
    strategies) attach theirs as ``pair_degree.block``; any other
    per-pair callable is lifted to a loop over the block.
    """
    block = getattr(pair_degree, "block", None)
    if block is not None:
        return block

    def lifted(r, tuples, stats, _kernel):
        return [pair_degree(r, s, stats) for s in tuples]

    return lifted


def conjoin(
    degrees: List[float],
    predicates: Sequence[JoinPredicate],
    r: FuzzyTuple,
    tuples: Sequence[FuzzyTuple],
    stats: Optional[OperationStats],
    kernel: ComparisonKernel,
) -> None:
    """``degrees[i] = min(degrees[i], d(p)...)`` in place, short-circuiting
    each entry at 0 exactly like the per-pair loops."""
    for p in predicates:
        live = [i for i, d in enumerate(degrees) if d != 0.0]
        if not live:
            return
        found = p.block_degrees(r, [tuples[i] for i in live], stats, kernel)
        for i, d in zip(live, found):
            degrees[i] = min(degrees[i], d)


def join_degree(
    predicates: Sequence[JoinPredicate], kernel: Optional[ComparisonKernel] = None
) -> PairDegree:
    """``min(mu_R(r), mu_S(s), d(p1), ..., d(pk))`` with short-circuiting."""

    def degree(r: FuzzyTuple, s: FuzzyTuple, stats: Optional[OperationStats] = None) -> float:
        d = min(r.degree, s.degree)
        for p in predicates:
            if d == 0.0:
                return 0.0
            d = min(d, p.degree(r, s, stats, kernel))
        return d

    def block(r, tuples, stats, kernel):
        rd = r.degree
        degrees = [min(rd, s.degree) for s in tuples]
        conjoin(degrees, predicates, r, tuples, stats, kernel)
        return degrees

    degree.block = block
    return degree


def antijoin_degree(
    predicates: Sequence[JoinPredicate], kernel: Optional[ComparisonKernel] = None
) -> PairDegree:
    """Query JX' pair degree: ``min(mu_R(r), 1 - min(mu_S(s), d(p1..pk)))``.

    The group aggregate over all S-tuples is MIN; pairs whose predicates
    are unsatisfiable contribute the neutral-maximal value ``mu_R(r)``.
    """

    def degree(r: FuzzyTuple, s: FuzzyTuple, stats: Optional[OperationStats] = None) -> float:
        inner = s.degree
        for p in predicates:
            if inner == 0.0:
                break
            inner = min(inner, p.degree(r, s, stats, kernel))
        return min(r.degree, 1.0 - inner)

    def block(r, tuples, stats, kernel):
        inner = [s.degree for s in tuples]
        conjoin(inner, predicates, r, tuples, stats, kernel)
        rd = r.degree
        return [min(rd, 1.0 - d) for d in inner]

    degree.block = block
    return degree


def all_quantifier_degree(
    join_predicates: Sequence[JoinPredicate],
    compare: JoinPredicate,
    kernel: Optional[ComparisonKernel] = None,
) -> PairDegree:
    """Query JALL' pair degree.

    ``min(mu_R(r), 1 - min(mu_S(s), d(join preds), 1 - d(r.Y op s.Z)))`` —
    the doubly negated form of Section 7, grouped by MIN over S.
    """

    def degree(r: FuzzyTuple, s: FuzzyTuple, stats: Optional[OperationStats] = None) -> float:
        inner = s.degree
        for p in join_predicates:
            if inner == 0.0:
                break
            inner = min(inner, p.degree(r, s, stats, kernel))
        if inner > 0.0:
            inner = min(inner, 1.0 - compare.degree(r, s, stats, kernel))
        return min(r.degree, 1.0 - inner)

    def block(r, tuples, stats, kernel):
        inner = [s.degree for s in tuples]
        conjoin(inner, join_predicates, r, tuples, stats, kernel)
        live = [i for i, d in enumerate(inner) if d > 0.0]
        if live:
            found = compare.block_degrees(r, [tuples[i] for i in live], stats, kernel)
            for i, d in zip(live, found):
                inner[i] = min(inner[i], 1.0 - d)
        rd = r.degree
        return [min(rd, 1.0 - d) for d in inner]

    degree.block = block
    return degree
