"""Vectorized trapezoid comparison kernels over column batches.

One probe distribution is compared against a whole columnar page in a
single pass over the ``(a, b, e, d)`` columns, instead of lifting each
entry back into a :class:`~repro.fuzzy.trapezoid.TrapezoidalNumber` and
dispatching through :func:`repro.fuzzy.compare.possibility` one value at
a time.

**Bit-identicality contract.**  ``batch_eq_possibility(probe, ...)[i]``
equals ``possibility(value_i, Op.EQ, probe)`` *bit for bit*, where
``value_i`` is the distribution the columns encode.  The kernel only uses
closed forms for the cases where they provably reproduce the scalar
library's float arithmetic exactly:

* both sides points — value equality, degree 1.0 or 0.0;
* point vs trapezoid — the trapezoid membership formula, replicated
  branch-for-branch from :meth:`TrapezoidalNumber.membership`;
* disjoint supports — 0.0 (the scalar path's ``intervals_intersect``
  gate);
* overlapping cores — exactly 1.0 (normal trapezoids: the sup-min of two
  membership curves whose cores share a point is attained there at
  height 1.0, and the piecewise-linear evaluation yields exactly 1.0 at
  core abscissae, as long as every abscissa is finite).

The one genuinely geometric case — two proper trapezoids whose supports
overlap but whose cores do not, so the degree is a ramp intersection —
falls back to the scalar library on a trapezoid reconstructed from the
columns.  f64 values round-trip the columnar encoding exactly, so the
fallback is bit-identical by construction.  The kernels therefore never
approximate: they just skip object construction and dispatch for the
overwhelmingly common cheap cases.
"""

from __future__ import annotations

from typing import List, Sequence

from ..fuzzy.compare import Op, possibility
from ..fuzzy.trapezoid import TrapezoidalNumber
from .pages import KIND_POINT

_INF = float("inf")

__all__ = [
    "batch_eq_possibility",
    "batch_eq_necessity",
    "batch_lt_possibility",
    "batch_le_possibility",
]


def _probe_shape(probe) -> tuple:
    """``(is_point, value, a, b, e, d)`` for a numeric probe distribution.

    Accepts :class:`~repro.fuzzy.crisp.CrispNumber` and
    :class:`TrapezoidalNumber` (the only shapes the support-interval index
    stores or is probed with); degenerate trapezoids (``a == d``) count as
    points, mirroring ``_as_point`` in the scalar library.
    """
    if isinstance(probe, TrapezoidalNumber):
        if probe.a == probe.d:
            return (True, probe.a, probe.a, probe.a, probe.a, probe.a)
        return (False, None, probe.a, probe.b, probe.c, probe.d)
    value = getattr(probe, "value", None)
    if value is not None and probe.is_numeric:
        return (True, value, value, value, value, value)
    raise TypeError(
        f"vectorized kernel expects a numeric crisp or trapezoidal probe, "
        f"got {type(probe).__name__}"
    )


def batch_eq_possibility(
    probe,
    col_a: Sequence[float],
    col_b: Sequence[float],
    col_e: Sequence[float],
    col_d: Sequence[float],
    kinds: Sequence[int],
    probe_on_left: bool = False,
) -> List[float]:
    """``[possibility(value_i, Op.EQ, probe)]`` over a column batch.

    ``col_e`` is the core-end column (the row trapezoid's ``c``); the
    default operand order matches compiled predicates, which place the
    stored attribute on the left and the query literal on the right.
    ``probe_on_left=True`` flips the scalar-fallback orientation to
    ``possibility(probe, Op.EQ, value_i)`` — the
    :class:`~repro.fuzzy.compare.ComparisonKernel` convention — so memo
    entries stay bit-identical to the scalar path either way (the closed
    forms are exactly symmetric; only the ramp fallback cares).
    """
    is_point, pv, pa, pb, pe, pd = _probe_shape(probe)
    finite_probe = -_INF < pa and pd < _INF
    degrees: List[float] = []
    fallback = None
    for i in range(len(col_a)):
        a = col_a[i]
        entry_point = kinds[i] == KIND_POINT
        if is_point:
            if entry_point:
                degrees.append(1.0 if a == pv else 0.0)
                continue
            # Point probe against trapezoid entry: the entry's membership
            # at pv, branch-for-branch as TrapezoidalNumber.membership.
            b, e, d = col_b[i], col_e[i], col_d[i]
            if pv < a or pv > d:
                degrees.append(0.0)
            elif b <= pv <= e:
                degrees.append(1.0)
            elif pv < b:
                degrees.append((pv - a) / (b - a))
            else:
                degrees.append((d - pv) / (d - e))
            continue
        if entry_point:
            # Point entry against trapezoid probe: probe membership at the
            # entry's value (the library's own exact formula).
            degrees.append(probe.membership(a))
            continue
        b, e, d = col_b[i], col_e[i], col_d[i]
        if d < pa or pd < a:
            degrees.append(0.0)          # disjoint supports
        elif max(b, pb) <= min(e, pe) and finite_probe and -_INF < a and d < _INF:
            degrees.append(1.0)          # overlapping cores
        else:
            # Ramp intersection (or an infinite abscissa, where the
            # library's interpolation does not reach 1.0 exactly): defer
            # to the scalar library on the reconstructed trapezoid for
            # bitwise-identical arithmetic.
            if fallback is None:
                fallback = probe
            value = TrapezoidalNumber(a, b, e, d)
            if probe_on_left:
                degrees.append(possibility(fallback, Op.EQ, value))
            else:
                degrees.append(possibility(value, Op.EQ, fallback))
    return degrees


def _sup_below_cols(a: float, b: float, v: float, strict: bool) -> float:
    """``sup_{x < v} mu(x)`` of a trapezoid rising ramp ``(a, b)``.

    Branch-for-branch the scalar library's ``_sup_below`` for trapezoids
    (the non-strict middle branch is ``membership(v)``, which on
    ``[a, b)`` is exactly the rising-ramp expression used here).
    """
    if strict:
        if v <= a:
            return 0.0
        if v >= b:
            return 1.0
        return (v - a) / (b - a)
    if v < a:
        return 0.0
    if v >= b:
        return 1.0
    return (v - a) / (b - a)


def _sup_above_cols(e: float, d: float, v: float, strict: bool) -> float:
    """``sup_{y > v} mu(y)`` of a trapezoid falling ramp ``(e, d)``."""
    if strict:
        if v >= d:
            return 0.0
        if v <= e:
            return 1.0
        return (d - v) / (d - e)
    if v > d:
        return 0.0
    if v <= e:
        return 1.0
    return (d - v) / (d - e)


def _ordered_supports(la: float, lb: float, ra: float, rc: float, rd: float):
    """``Poss(L < R)`` of two proper trapezoids when it is exactly 1 or 0.

    The scalar library evaluates two continuous operands by closure
    semantics, ``L.sup_min(R.running_max_right())``, for ``<`` and ``<=``
    alike.  That envelope is 1.0 at every breakpoint from its far-left
    extension ``ra - 1e9 * max(1, rd - ra)`` up to ``rc``; so when
    ``lb`` lies in that range the candidate ``x = lb`` gives exactly
    ``min(1.0, 1.0)`` and no candidate can exceed it.  When ``la >= rd``
    the supports touch at most at one point where one side is 0, so the
    sup-min is exactly 0.0.  Anything else — a genuine ramp intersection,
    or an infinite abscissa, where the library's interpolation is not
    this clean — returns ``None`` to defer to the scalar library.
    """
    if not (-_INF < la and lb < _INF and -_INF < ra and rd < _INF):
        return None
    if ra - 1e9 * max(1.0, rd - ra) <= lb <= rc:
        return 1.0
    if la >= rd:
        return 0.0
    return None


def _batch_order(
    probe,
    col_a: Sequence[float],
    col_b: Sequence[float],
    col_e: Sequence[float],
    col_d: Sequence[float],
    kinds: Sequence[int],
    strict: bool,
    probe_on_left: bool,
) -> List[float]:
    """Shared body of the LT / LE kernels.

    Computes ``possibility(value_i, op, probe)`` (``probe_on_left=False``;
    the compiled-predicate orientation: stored attribute on the left) or
    ``possibility(probe, op, value_i)`` (``probe_on_left=True``; the
    :class:`~repro.fuzzy.compare.ComparisonKernel` orientation), with
    ``op`` = ``<`` when ``strict`` else ``<=``.  Unlike equality, order is
    *not* symmetric, so the flag swaps the whole comparison, not just the
    fallback operand order.  Every point-involved case uses the scalar
    library's ``_sup_below`` / ``_sup_above`` envelopes replicated
    branch-for-branch.  Two proper trapezoids whose supports are ordered
    (:func:`_ordered_supports`) get their exact 1.0 or 0.0; the one
    genuinely geometric case — a sup-min of overlapping ramps against a
    running-max envelope — falls back to the scalar library on the
    reconstructed trapezoid, which is bit-identical because f64 columns
    round-trip.
    """
    is_point, pv, pa, pb, pe, pd = _probe_shape(probe)
    op = Op.LT if strict else Op.LE
    degrees: List[float] = []
    for i in range(len(col_a)):
        a = col_a[i]
        entry_point = kinds[i] == KIND_POINT
        if probe_on_left:
            if is_point and entry_point:
                ok = pv < a if strict else pv <= a
                degrees.append(1.0 if ok else 0.0)
            elif is_point:
                degrees.append(_sup_above_cols(col_e[i], col_d[i], pv, strict))
            elif entry_point:
                degrees.append(_sup_below_cols(pa, pb, a, strict))
            else:
                degree = _ordered_supports(pa, pb, a, col_e[i], col_d[i])
                if degree is None:
                    value = TrapezoidalNumber(a, col_b[i], col_e[i], col_d[i])
                    degree = possibility(probe, op, value)
                degrees.append(degree)
        else:
            if is_point and entry_point:
                ok = a < pv if strict else a <= pv
                degrees.append(1.0 if ok else 0.0)
            elif entry_point:
                degrees.append(_sup_above_cols(pe, pd, a, strict))
            elif is_point:
                degrees.append(_sup_below_cols(a, col_b[i], pv, strict))
            else:
                degree = _ordered_supports(a, col_b[i], pa, pe, pd)
                if degree is None:
                    value = TrapezoidalNumber(a, col_b[i], col_e[i], col_d[i])
                    degree = possibility(value, op, probe)
                degrees.append(degree)
    return degrees


def batch_lt_possibility(
    probe,
    col_a: Sequence[float],
    col_b: Sequence[float],
    col_e: Sequence[float],
    col_d: Sequence[float],
    kinds: Sequence[int],
    probe_on_left: bool = False,
) -> List[float]:
    """``[possibility(value_i, Op.LT, probe)]`` over a column batch.

    ``probe_on_left=True`` computes ``possibility(probe, Op.LT, value_i)``
    instead.  ``GT`` needs no kernel of its own: the scalar library
    evaluates ``x > y`` as ``y < x``, so a GT caller passes the *other*
    orientation flag (``possibility(value, Op.GT, probe)`` is exactly
    ``batch_lt_possibility(probe, ..., probe_on_left=True)``).
    """
    return _batch_order(probe, col_a, col_b, col_e, col_d, kinds, True, probe_on_left)


def batch_le_possibility(
    probe,
    col_a: Sequence[float],
    col_b: Sequence[float],
    col_e: Sequence[float],
    col_d: Sequence[float],
    kinds: Sequence[int],
    probe_on_left: bool = False,
) -> List[float]:
    """``[possibility(value_i, Op.LE, probe)]`` over a column batch.

    ``probe_on_left=True`` computes ``possibility(probe, Op.LE, value_i)``;
    ``GE`` callers flip the flag, mirroring :func:`batch_lt_possibility`.
    """
    return _batch_order(probe, col_a, col_b, col_e, col_d, kinds, False, probe_on_left)


def batch_eq_necessity(
    probe,
    col_a: Sequence[float],
    col_b: Sequence[float],
    col_e: Sequence[float],
    col_d: Sequence[float],
    kinds: Sequence[int],
) -> List[float]:
    """``[necessity(value_i, Op.EQ, probe)]`` over a column batch.

    ``Nec(u = v) = 1 - Poss(u != v)`` collapses to a pure closed form for
    the shapes the index stores: the inequality possibility is 1.0 unless
    *both* sides are points (a continuous distribution always admits some
    ``x != y`` at full height), so the necessity is 1.0 exactly when both
    sides are the same point and 0.0 otherwise.
    """
    is_point, pv, _pa, _pb, _pe, _pd = _probe_shape(probe)
    degrees: List[float] = []
    for i in range(len(col_a)):
        if is_point and kinds[i] == KIND_POINT and col_a[i] == pv:
            degrees.append(1.0)
        else:
            degrees.append(0.0)
    return degrees
