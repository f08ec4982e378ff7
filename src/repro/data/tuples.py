"""Fuzzy tuples: attribute distributions plus a membership degree.

A tuple ``r`` belongs to its relation with degree ``mu_R(r) = r.D in (0, 1]``;
the degree states to what extent the tuple belongs to the concept the
relation represents (for answer relations: to what extent the underlying
data satisfies the query condition).
"""

from __future__ import annotations

from typing import Hashable, Sequence, Tuple

from ..fuzzy.crisp import CrispLabel, CrispNumber
from ..fuzzy.discrete import DiscreteDistribution
from ..fuzzy.distribution import Distribution
from ..fuzzy.trapezoid import TrapezoidalNumber

_BUILTIN_DISTRIBUTIONS = frozenset(
    (CrispNumber, CrispLabel, TrapezoidalNumber, DiscreteDistribution)
)


class FuzzyTuple:
    """An immutable tuple of distributions with membership degree ``D``.

    Identity (hash/equality) is over the *values only* — two tuples with the
    same values but different degrees are duplicates in the fuzzy-set sense
    and merge under fuzzy OR (max degree) during duplicate elimination.
    """

    __slots__ = ("values", "degree")

    def __init__(self, values: Sequence[Distribution], degree: float = 1.0):
        degree = float(degree)
        if not 0.0 <= degree <= 1.0:
            raise ValueError(f"membership degree must be in [0, 1], got {degree}")
        for v in values:
            # The exact built-in shapes first: the ABC isinstance check is
            # the slow path, kept for subclasses and for the error.
            if type(v) not in _BUILTIN_DISTRIBUTIONS and not isinstance(v, Distribution):
                raise TypeError(f"tuple values must be Distributions, got {type(v).__name__}")
        self.values: Tuple[Distribution, ...] = tuple(values)
        self.degree = degree

    def __getitem__(self, index: int) -> Distribution:
        return self.values[index]

    def __len__(self) -> int:
        return len(self.values)

    def value_key(self) -> Hashable:
        """Canonical key of the values (ignores the degree)."""
        return tuple(v.key() for v in self.values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FuzzyTuple):
            return NotImplemented
        return self.value_key() == other.value_key()

    def __hash__(self) -> int:
        return hash(self.value_key())

    def with_degree(self, degree: float) -> "FuzzyTuple":
        """A copy of this tuple carrying a different membership degree."""
        return FuzzyTuple(self.values, degree)

    def project(self, indices: Sequence[int]) -> "FuzzyTuple":
        """Project onto the given value positions, keeping the degree."""
        return FuzzyTuple(tuple(self.values[i] for i in indices), self.degree)

    def concat(self, other: "FuzzyTuple", degree: float) -> "FuzzyTuple":
        """Concatenate values for a join result with the supplied degree."""
        return FuzzyTuple(self.values + other.values, degree)

    def __repr__(self) -> str:
        inner = ", ".join(repr(v) for v in self.values)
        return f"FuzzyTuple(({inner}), D={self.degree:g})"
