"""Possibility degrees of fuzzy comparisons: ``d(X theta Y)``.

Implements the paper's satisfaction-degree semantics

    d(X theta Y) = sup_{x,y} min(mu_U(x), mu_V(y), mu_theta(x, y))

exactly, for every combination of crisp, trapezoidal, and discrete
distributions, and for ``theta`` in ``{=, !=, <, <=, >, >=}`` plus
tolerance-based similarity ("approximately equal", see
:mod:`repro.fuzzy.similarity`).

Binary operators admit closed forms:

* ``=``  — height of the highest intersection point of the two membership
  functions (sup-min of the piecewise-linear curves);
* ``<=`` — ``sup_x min(mu_U(x), sup_{y>=x} mu_V(y))``, computed with the
  nonincreasing right envelope of ``mu_V``;
* ``!=`` — degenerates to 1 unless one side is (effectively) a single point.
"""

from __future__ import annotations

import enum
import threading
from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

from .crisp import CrispLabel, CrispNumber
from .discrete import DiscreteDistribution
from .distribution import Distribution
from .trapezoid import TrapezoidalNumber


class Op(enum.Enum):
    """Comparison operators of the Fuzzy SQL WHERE clause."""

    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    SIMILAR = "~="

    @classmethod
    def from_symbol(cls, symbol: str) -> "Op":
        """The :class:`Op` for a comparison symbol, accepting aliases like ``!=``."""
        for op in cls:
            if op.value == symbol:
                return op
        aliases = {"!=": cls.NE, "==": cls.EQ, "=~": cls.SIMILAR}
        if symbol in aliases:
            return aliases[symbol]
        raise ValueError(f"unknown comparison operator {symbol!r}")

    def flipped(self) -> "Op":
        """The operator with its operands swapped (x op y == y flip(op) x)."""
        table = {
            Op.EQ: Op.EQ,
            Op.NE: Op.NE,
            Op.SIMILAR: Op.SIMILAR,
            Op.LT: Op.GT,
            Op.LE: Op.GE,
            Op.GT: Op.LT,
            Op.GE: Op.LE,
        }
        return table[self]

    def negated(self) -> "Op":
        """The complementary crisp operator (used by rewrites like JALL)."""
        table = {
            Op.EQ: Op.NE,
            Op.NE: Op.EQ,
            Op.LT: Op.GE,
            Op.LE: Op.GT,
            Op.GT: Op.LE,
            Op.GE: Op.LT,
        }
        if self not in table:
            raise ValueError(f"{self} has no crisp negation")
        return table[self]


def possibility(left: Distribution, op: Op, right: Distribution) -> float:
    """``d(left op right)`` under the possibility measure.

    Comparing a numeric distribution with a symbolic one yields 0 for every
    operator except ``!=`` (they can never be equal, hence are certainly
    unequal at degree ``min(height, height)``).
    """
    if op is Op.SIMILAR:
        raise ValueError("similarity comparisons need a tolerance; use similar()")
    if left.is_numeric != right.is_numeric:
        if op is Op.NE:
            return min(left.height, right.height)
        return 0.0
    if op is Op.EQ:
        return _equality(left, right)
    if op is Op.NE:
        return _inequality(left, right)
    if op in (Op.GT, Op.GE):
        return _less_than(right, left, strict=(op is Op.GT))
    return _less_than(left, right, strict=(op is Op.LT))


def necessity(left: Distribution, op: Op, right: Distribution) -> float:
    """``Nec(left op right) = 1 - Poss(left  not-op  right)`` (Section 2).

    The paper's *discussion* measure: the double-measure system of
    Prade-Testemale evaluates every predicate to a (possibility,
    necessity) pair, which makes algebraic operations non-composable and
    unnesting impossible — the reason the paper (and this system) measures
    satisfaction by possibility alone.  Provided for analysis and tests;
    no query operator uses it.

    With convex normal distributions necessity never exceeds possibility.
    """
    return 1.0 - possibility(left, op.negated(), right)


def intervals_intersect(left: Distribution, right: Distribution) -> bool:
    """True when the support intervals overlap (necessary for ``d(=) > 0``)."""
    lb, le = left.interval()
    rb, re = right.interval()
    return not (le < rb or re < lb)


# ----------------------------------------------------------------------
# Equality
# ----------------------------------------------------------------------

def _equality(left: Distribution, right: Distribution) -> float:
    crisp_l = _as_point(left)
    crisp_r = _as_point(right)
    if crisp_l is not None and crisp_r is not None:
        value_l, h_l = crisp_l
        value_r, h_r = crisp_r
        return min(h_l, h_r) if value_l == value_r else 0.0
    if crisp_l is not None:
        value, h = crisp_l
        return min(h, right.membership(value))
    if crisp_r is not None:
        value, h = crisp_r
        return min(h, left.membership(value))
    if isinstance(left, DiscreteDistribution) and isinstance(right, DiscreteDistribution):
        best = 0.0
        for value, p in left.items.items():
            q = right.items.get(value, 0.0)
            if q and min(p, q) > best:
                best = min(p, q)
        return best
    if isinstance(left, DiscreteDistribution):
        return max(min(p, right.membership(v)) for v, p in left.items.items())
    if isinstance(right, DiscreteDistribution):
        return max(min(p, left.membership(v)) for v, p in right.items.items())
    lpl, rpl = left.as_piecewise(), right.as_piecewise()
    if lpl is None or rpl is None:
        raise TypeError(f"cannot compare {type(left).__name__} with {type(right).__name__}")
    if not intervals_intersect(left, right):
        return 0.0
    return lpl.sup_min(rpl)


# ----------------------------------------------------------------------
# Strict/non-strict order
# ----------------------------------------------------------------------

def _less_than(left: Distribution, right: Distribution, strict: bool) -> float:
    """``Poss(left < right)`` or ``Poss(left <= right)``.

    Strictness is handled exactly whenever a *point* (crisp value, spike,
    or discrete element) is involved: ``Poss(u < v)`` against a point ``v``
    is the supremum of ``mu_u`` strictly below ``v``, which differs from
    the non-strict envelope at support boundaries of rectangular shapes.
    For two continuous non-point distributions, strict and non-strict
    possibilities coincide except on a measure-zero coincidence of jump
    boundaries, where we use closure semantics (the fuzzy-database
    convention).
    """
    if not left.is_numeric:
        return _less_than_labels(left, right, strict)
    crisp_l = _as_point(left)
    crisp_r = _as_point(right)
    if crisp_l is not None and crisp_r is not None:
        (vl, hl), (vr, hr) = crisp_l, crisp_r
        ok = vl < vr if strict else vl <= vr
        return min(hl, hr) if ok else 0.0
    if isinstance(left, DiscreteDistribution) and isinstance(right, DiscreteDistribution):
        best = 0.0
        for x, p in left.items.items():
            for y, q in right.items.items():
                if (x < y if strict else x <= y) and min(p, q) > best:
                    best = min(p, q)
        return best
    if isinstance(left, DiscreteDistribution):
        return max(
            min(p, _sup_above(right, x, strict)) for x, p in left.items.items()
        )
    if isinstance(right, DiscreteDistribution):
        return max(
            min(q, _sup_below(left, y, strict)) for y, q in right.items.items()
        )
    if crisp_l is not None:
        value, h = crisp_l
        return min(h, _sup_above(right, value, strict))
    if crisp_r is not None:
        value, h = crisp_r
        return min(h, _sup_below(left, value, strict))
    # Both continuous with nonempty interiors: closure semantics.
    lpl = left.as_piecewise()
    rpl = right.as_piecewise()
    return lpl.sup_min(rpl.running_max_right())


def _sup_below(dist: Distribution, v: float, strict: bool) -> float:
    """``sup_{x < v} mu(x)`` (or ``x <= v`` when non-strict)."""
    if isinstance(dist, DiscreteDistribution):
        degrees = [p for x, p in dist.items.items() if (x < v if strict else x <= v)]
        return max(degrees) if degrees else 0.0
    crisp = _as_point(dist)
    if crisp is not None:
        value, h = crisp
        return h if (value < v if strict else value <= v) else 0.0
    assert isinstance(dist, TrapezoidalNumber)
    if not strict:
        if v < dist.a:
            return 0.0
        if v >= dist.b:
            return 1.0
        return dist.membership(v)
    if v <= dist.a:
        return 0.0
    if v >= dist.b:
        return 1.0
    return (v - dist.a) / (dist.b - dist.a)


def _sup_above(dist: Distribution, v: float, strict: bool) -> float:
    """``sup_{y > v} mu(y)`` (or ``y >= v`` when non-strict)."""
    if isinstance(dist, DiscreteDistribution):
        degrees = [p for y, p in dist.items.items() if (y > v if strict else y >= v)]
        return max(degrees) if degrees else 0.0
    crisp = _as_point(dist)
    if crisp is not None:
        value, h = crisp
        return h if (value > v if strict else value >= v) else 0.0
    assert isinstance(dist, TrapezoidalNumber)
    if not strict:
        if v > dist.d:
            return 0.0
        if v <= dist.c:
            return 1.0
        return dist.membership(v)
    if v >= dist.d:
        return 0.0
    if v <= dist.c:
        return 1.0
    return (dist.d - v) / (dist.d - dist.c)


def _less_than_labels(left: Distribution, right: Distribution, strict: bool) -> float:
    """Lexicographic order comparison over symbolic domains."""
    best = 0.0
    for x, p in _label_items(left):
        for y, q in _label_items(right):
            if (x < y if strict else x <= y) and min(p, q) > best:
                best = min(p, q)
    return best


# ----------------------------------------------------------------------
# Inequality
# ----------------------------------------------------------------------

def _inequality(left: Distribution, right: Distribution) -> float:
    """``Poss(left != right) = sup_{x != y} min(mu_U(x), mu_V(y))``."""
    crisp_l = _as_point(left)
    crisp_r = _as_point(right)
    if crisp_l is not None and crisp_r is not None:
        (vl, hl), (vr, hr) = crisp_l, crisp_r
        return min(hl, hr) if vl != vr else 0.0
    if crisp_l is not None:
        value, h = crisp_l
        return min(h, _sup_excluding(right, value))
    if crisp_r is not None:
        value, h = crisp_r
        return min(h, _sup_excluding(left, value))
    if isinstance(left, DiscreteDistribution):
        best = 0.0
        for x, p in left.items.items():
            best = max(best, min(p, _sup_excluding(right, x)))
        return best
    if isinstance(right, DiscreteDistribution):
        best = 0.0
        for y, q in right.items.items():
            best = max(best, min(q, _sup_excluding(left, y)))
        return best
    # Two continuous distributions with nonempty interiors: one can always
    # pick x != y near the cores, so the degree is the min of the heights.
    return min(left.height, right.height)


def _sup_excluding(dist: Distribution, point) -> float:
    """``sup_{y != point} mu(y)`` — drops at most a single spike."""
    if isinstance(dist, DiscreteDistribution):
        degrees = [p for v, p in dist.items.items() if v != point]
        return max(degrees) if degrees else 0.0
    crisp = _as_point(dist)
    if crisp is not None:
        value, h = crisp
        return 0.0 if value == point else h
    # Continuous with nonempty interior: removing one point keeps the sup.
    return dist.height


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------

def _as_point(dist: Distribution) -> Optional[Tuple[object, float]]:
    """``(value, height)`` when the distribution is a single point, else None.

    Covers :class:`CrispNumber`, :class:`CrispLabel`, degenerate trapezoids
    (``a == d``), and single-element discrete distributions.
    """
    if type(dist) is TrapezoidalNumber:  # skip two failing ABC checks
        return (dist.a, 1.0) if dist.a == dist.d else None
    if isinstance(dist, CrispNumber):
        return (dist.value, 1.0)
    if isinstance(dist, CrispLabel):
        return (dist.value, 1.0)
    if isinstance(dist, TrapezoidalNumber) and dist.a == dist.d:
        return (dist.a, 1.0)
    if isinstance(dist, DiscreteDistribution) and len(dist.items) == 1:
        ((value, p),) = dist.items.items()
        return (value, p)
    return None


def _label_items(dist: Distribution):
    if isinstance(dist, CrispLabel):
        return [(dist.value, 1.0)]
    if isinstance(dist, DiscreteDistribution) and not dist.is_numeric:
        return list(dist.items.items())
    raise TypeError(f"{type(dist).__name__} is not a symbolic distribution")


# ----------------------------------------------------------------------
# Batched comparison-degree kernel
# ----------------------------------------------------------------------

def _as_columns(values: Sequence[Distribution]):
    """``(a, b, e, d, kinds)`` parallel columns, or None for other shapes.

    Only crisp numbers and trapezoids lower to the column form the
    vectorized kernel understands; any other distribution in the block
    vetoes vectorization (the scalar path handles it instead).
    """
    from ..columnar.pages import KIND_POINT, KIND_TRAPEZOID

    col_a: List[float] = []
    col_b: List[float] = []
    col_e: List[float] = []
    col_d: List[float] = []
    kinds: List[int] = []
    for value in values:
        # Exact-type tests first: a failed isinstance against these ABC
        # subclasses runs the slow ABCMeta.__instancecheck__.
        cls = type(value)
        if cls is CrispNumber or (
            cls is not TrapezoidalNumber and isinstance(value, CrispNumber)
        ):
            v = value.value
            col_a.append(v)
            col_b.append(v)
            col_e.append(v)
            col_d.append(v)
            kinds.append(KIND_POINT)
        elif cls is TrapezoidalNumber or isinstance(value, TrapezoidalNumber):
            col_a.append(value.a)
            col_b.append(value.b)
            col_e.append(value.c)
            col_d.append(value.d)
            kinds.append(KIND_POINT if value.a == value.d else KIND_TRAPEZOID)
        else:
            return None
    return col_a, col_b, col_e, col_d, kinds


class ComparisonKernel:
    """Batched, memoized evaluation of ``d(probe op candidate)``.

    The merge-join inner loop evaluates one probe value against every
    candidate the window examines; the associative-array view of fuzzy
    relations shows that this is a *block* operation, not ``k``
    independent ones.  :meth:`batch` therefore is the unit of work: the
    join's block-degree functions call it once per predicate and window,
    and the degrees it returns are the ones the fold consumes.  Every
    degree is also kept in a bounded LRU memo keyed on
    ``(left.key(), op symbol, right.key())``, so repeated pairs —
    ubiquitous when attribute values are drawn from a small vocabulary of
    linguistic terms — are computed once per query.

    The kernel is thread-safe (a single lock guards the memo, taken once
    per block) so one instance can be shared by all partition workers of
    a parallel join.  The kernel charges no counters: callers charge
    ``fuzzy_evaluations`` for the logical work, so memo hits never change
    EXPLAIN ANALYZE output.
    """

    __slots__ = ("capacity", "_memo", "_lock", "hits", "misses")

    def __init__(self, capacity: int = 4096):
        if capacity < 0:
            raise ValueError("kernel capacity must be non-negative")
        #: Memo bound; 0 disables memoization entirely (every call is a
        #: miss), which the boundary tests use to pin the memo-off
        #: behaviour of the batched paths.
        self.capacity = capacity
        self._memo: "OrderedDict[Tuple, float]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def possibility(self, left: Distribution, op: Op, right: Distribution) -> float:
        """Memoized ``possibility(left, op, right)``."""
        # ``_value_`` (the symbol) keys the memo: hashing the member itself
        # would run the Python-level ``Enum.__hash__`` on every lookup.
        key = (left.key(), op._value_, right.key())
        with self._lock:
            cached = self._memo.get(key)
            if cached is not None:
                self._memo.move_to_end(key)
                self.hits += 1
                return cached
        degree = possibility(left, op, right)
        self._store([key], [degree])
        return degree

    def batch(
        self,
        probe: Distribution,
        op: Op,
        candidates: Sequence[Distribution],
        probe_on_left: bool = True,
    ) -> List[float]:
        """Degrees of one probe against a block of candidates.

        Equal, bit for bit, to ``[possibility(probe, op, c) for c in
        candidates]``, or to ``[possibility(c, op, probe) ...]`` with
        ``probe_on_left=False`` (the orientation of the columnar kernels'
        flag of the same name).  The memo is consulted and filled under
        one lock acquisition each; the misses of an equality or order
        comparison over purely crisp/trapezoidal operands are computed by
        the vectorized column kernels of :mod:`repro.columnar.kernel` in
        one sweep, the rest by the scalar library.
        """
        probe_key = probe.key()
        op_key = op._value_
        if probe_on_left:
            keys = [(probe_key, op_key, c.key()) for c in candidates]
        else:
            keys = [(c.key(), op_key, probe_key) for c in candidates]
        memo = self._memo
        degrees: List[Optional[float]] = []
        missing: List[int] = []
        with self._lock:
            for i, key in enumerate(keys):
                cached = memo.get(key)
                if cached is None:
                    missing.append(i)
                else:
                    memo.move_to_end(key)
                degrees.append(cached)
            self.hits += len(keys) - len(missing)
        if missing:
            computed = self._compute_block(
                probe, op, [candidates[i] for i in missing], probe_on_left
            )
            self._store([keys[i] for i in missing], computed)
            for i, degree in zip(missing, computed):
                degrees[i] = degree
        return degrees

    def _compute_block(
        self,
        probe: Distribution,
        op: Op,
        block: Sequence[Distribution],
        probe_on_left: bool,
    ) -> List[float]:
        """Degrees for the memo misses — vectorized when the shapes allow."""
        vectorized = op in (Op.EQ, Op.LT, Op.LE, Op.GT, Op.GE)
        columns = _as_columns(block) if vectorized else None
        if columns is not None and _as_columns([probe]) is not None:
            from ..columnar.kernel import (
                batch_eq_possibility,
                batch_le_possibility,
                batch_lt_possibility,
            )

            if op is Op.EQ:
                return batch_eq_possibility(
                    probe, *columns, probe_on_left=probe_on_left
                )
            # The scalar library evaluates GT/GE as flipped LT/LE, so the
            # column kernels' orientation flag encodes the operator pair:
            # "probe < value_i" and "value_i > probe" are the same sweep.
            flag = probe_on_left == (op in (Op.LT, Op.LE))
            if op in (Op.LT, Op.GT):
                return batch_lt_possibility(probe, *columns, probe_on_left=flag)
            return batch_le_possibility(probe, *columns, probe_on_left=flag)
        if probe_on_left:
            return [possibility(probe, op, candidate) for candidate in block]
        return [possibility(candidate, op, probe) for candidate in block]

    def _store(self, keys: Sequence[Tuple], degrees: Sequence[float]) -> None:
        with self._lock:
            self.misses += len(keys)
            if self.capacity == 0:
                return
            memo = self._memo
            for key, degree in zip(keys, degrees):
                memo[key] = degree
                memo.move_to_end(key)
            while len(memo) > self.capacity:
                memo.popitem(last=False)

    def __len__(self) -> int:
        return len(self._memo)
