"""Block degrees equal pair degrees, bit for bit and charge for charge.

The merge-join scores the S-tuples one R-tuple examines as a block:
every built-in degree builder carries a ``.block`` form that evaluates
each predicate with one ``ComparisonKernel.batch`` call.  For any block —
zero-degree tuples, repeated values (memo hits), symbolic values the
column kernel cannot take, a memo of capacity 0 — it must return exactly
the per-pair degrees and charge exactly the per-pair fuzzy evaluations.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import FuzzyTuple, Schema
from repro.engine.grouped import GroupedAntiJoin, GroupMode
from repro.engine.pipelined import JAPipeline
from repro.fuzzy import (
    CrispLabel,
    CrispNumber,
    DiscreteDistribution,
    ToleranceSimilarity,
    TrapezoidalNumber,
)
from repro.fuzzy.compare import ComparisonKernel, Op
from repro.join.predicates import (
    JoinPredicate,
    all_quantifier_degree,
    antijoin_degree,
    block_degree_of,
    join_degree,
)
from repro.storage import HeapFile, OperationStats, SimulatedDisk

N = CrispNumber
T = TrapezoidalNumber

R_SCHEMA = Schema(["ID", "X", "Y"])
S_SCHEMA = Schema(["ID", "X", "Z"])

#: A small vocabulary, so blocks repeat values (memo hits) and mix
#: points, ramps, disjoint and overlapping supports.
NUMERIC = [
    N(0), N(5), N(10),
    T(0, 1, 2, 4), T(3, 5, 5, 7), T(4, 6, 8, 12), T(5, 5, 5, 5),
    DiscreteDistribution({0.0: 1.0, 5.0: 0.5}),
]
#: Values the column kernel cannot take: they force the scalar path.
SYMBOLIC = [
    CrispLabel("a"), CrispLabel("b"), CrispLabel("é"),
    DiscreteDistribution({"a": 1.0, "b": 0.4}),
]
DEGREES = [0.0, 0.3, 0.5, 1.0]


def tuples(schema_values, ids, degrees):
    return [
        FuzzyTuple([N(i)] + list(values), degree)
        for i, values, degree in zip(ids, schema_values, degrees)
    ]


@st.composite
def cases(draw, vocabulary):
    """``(r, block, capacity)`` over one value vocabulary."""
    value = st.sampled_from(vocabulary)
    size = draw(st.integers(min_value=1, max_value=8))
    pairs = draw(st.lists(st.tuples(value, value), min_size=size, max_size=size))
    degrees = draw(st.lists(st.sampled_from(DEGREES), min_size=size, max_size=size))
    block = tuples(pairs, range(size), degrees)
    r_values = draw(st.tuples(value, value))
    r_degree = draw(st.sampled_from(DEGREES[1:]))
    r = FuzzyTuple([N(99)] + list(r_values), r_degree)
    capacity = draw(st.sampled_from([0, 1, 4096]))
    return r, block, capacity


def assert_block_matches_pairs(pair_degree, r, block, capacity):
    pair_stats = OperationStats()
    want = [pair_degree(r, s, pair_stats) for s in block]
    kernel = ComparisonKernel(capacity=capacity)
    for _ in range(2):  # the second pass answers from the memo
        block_stats = OperationStats()
        got = block_degree_of(pair_degree)(r, block, block_stats, kernel)
        assert got == want
        assert [repr(d) for d in got] == [repr(d) for d in want]
        assert (
            block_stats.total.fuzzy_evaluations == pair_stats.total.fuzzy_evaluations
        )


def predicate(op, left="X", right="X", similarity=None):
    return JoinPredicate(R_SCHEMA, left, op, S_SCHEMA, right, similarity)


VOCABULARIES = [NUMERIC, SYMBOLIC, NUMERIC + SYMBOLIC]


class TestJoinBuilders:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(VOCABULARIES).flatmap(cases))
    def test_flat_join_with_residuals(self, case):
        preds = [
            predicate(Op.EQ),
            predicate(Op.LT, "Y", "Z"),
            predicate(Op.NE, "Y", "Z"),
        ]
        assert_block_matches_pairs(join_degree(preds), *case)

    @settings(max_examples=100, deadline=None)
    @given(cases(NUMERIC))
    def test_flat_join_with_similarity_residual(self, case):
        preds = [
            predicate(Op.EQ),
            predicate(Op.SIMILAR, "Y", "Z", ToleranceSimilarity(1.0, 3.0)),
        ]
        assert_block_matches_pairs(join_degree(preds), *case)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(VOCABULARIES).flatmap(cases))
    def test_jx_antijoin(self, case):
        preds = [predicate(Op.EQ), predicate(Op.EQ, "Y", "Z")]
        assert_block_matches_pairs(antijoin_degree(preds), *case)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(VOCABULARIES).flatmap(cases))
    def test_jall_all_quantifier(self, case):
        for op in (Op.LT, Op.LE, Op.GT, Op.GE):
            degree = all_quantifier_degree([predicate(Op.EQ)], predicate(op, "Y", "Z"))
            assert_block_matches_pairs(degree, *case)


def heaps():
    disk = SimulatedDisk(page_size=4096)
    return HeapFile("R", R_SCHEMA, disk), HeapFile("S", S_SCHEMA, disk)


def p2(s):
    """A selection on S that is 0, partial or 1 depending on the id."""
    return (s[0].value % 3) / 2.0


class TestGroupedAndPipelined:
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(VOCABULARIES).flatmap(cases))
    def test_grouped_not_in_and_all(self, case):
        outer, inner = heaps()
        for mode, link in (
            (GroupMode.NOT_IN, ("Y", Op.EQ, "Z")),
            (GroupMode.ALL, ("Y", Op.LT, "Z")),
            (GroupMode.ALL, ("Y", Op.GE, "Z")),
        ):
            for selection in (None, p2):
                grouped = GroupedAntiJoin(
                    outer, inner, mode, link, cross=[("X", Op.EQ, "X")], p2=selection
                )
                pair = grouped._pair_degree
                r, block, capacity = case
                pair_stats = OperationStats()
                want = [pair(r, s, pair_stats) for s in block]
                block_stats = OperationStats()
                got = grouped._block_degree(
                    r, block, block_stats, ComparisonKernel(capacity=capacity)
                )
                assert [repr(d) for d in got] == [repr(d) for d in want]
                assert (
                    block_stats.total.fuzzy_evaluations
                    == pair_stats.total.fuzzy_evaluations
                )

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([NUMERIC, SYMBOLIC]).flatmap(cases))
    def test_ja_pipeline_pair(self, case):
        # JA joins on one domain: its interval test compares U with V.
        outer, inner = heaps()
        for selection in (None, p2):
            pipeline = JAPipeline(
                outer, inner, "X", "X", "Y", Op.GT, "MAX", "Z", p2=selection
            )
            assert_block_matches_pairs(pipeline._pair_degree({}), *case)

    def test_ja_aggregated_group_is_zero_and_uncharged(self):
        outer, inner = heaps()
        pipeline = JAPipeline(outer, inner, "X", "X", "Y", Op.GT, "MAX", "Z")
        r = FuzzyTuple([N(1), N(5), N(0)], 1.0)
        pair = pipeline._pair_degree({N(5).key(): None})
        block = tuples([(N(5), N(1)), (T(4, 5, 5, 6), N(2))], [1, 2], [1.0, 1.0])
        stats = OperationStats()
        assert pair.block(r, block, stats, ComparisonKernel()) == [0.0, 0.0]
        assert stats.total.fuzzy_evaluations == 0


class TestLiftedPairDegree:
    def test_opaque_pair_degree_is_lifted(self):
        calls = []

        def opaque(r, s, stats):
            calls.append(s)
            return 0.5

        r = FuzzyTuple([N(1), N(1), N(1)], 1.0)
        block = tuples([(N(1), N(2)), (N(3), N(4))], [1, 2], [1.0, 1.0])
        got = block_degree_of(opaque)(r, block, OperationStats(), ComparisonKernel())
        assert got == [0.5, 0.5]
        assert calls == block
