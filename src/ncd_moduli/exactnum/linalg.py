"""Exact linear algebra over the rationals.

Inputs and results are ``fractions.Fraction`` values; there is no floating
point anywhere.  Inside, ``rref`` and the phase-1 simplex share one
integer-preserving Gauss-Jordan pivot step (``_pivot``, after Bareiss 1968):
each row is scaled once to integers and then held as integer numerators over
a positive denominator, and every update divides exactly.  No Fraction is
built until the result is.

Scaling rows by positive factors changes neither the reduced row echelon
form, which is unique, nor any choice of the simplex, whose entering and
leaving rules (Bland's) read only signs and ratios.  So every result is the
one a plain Fraction tableau gives; the test suite keeps that tableau as its
reference.  Strict positivity of homogeneous systems is decided on the
equivalent inhomogeneous problem ``A v = 0, v >= 1`` (the cone is scale
invariant), and a witness is checked against ``A v = 0`` before it is
returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Optional, Sequence

Row = tuple[Fraction, ...]


def _coerce_rows(rows) -> list[list[Fraction]]:
    out = [[x if type(x) is Fraction else Fraction(x) for x in row] for row in rows]
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("matrix rows must have equal length")
    return out


@dataclass(frozen=True)
class RationalMatrix:
    """A rectangular matrix of exact rationals."""

    entries: tuple[Row, ...]

    def __post_init__(self):
        rows = _coerce_rows(self.entries)
        object.__setattr__(self, "entries", tuple(tuple(r) for r in rows))

    @classmethod
    def from_rows(cls, rows) -> "RationalMatrix":
        return cls(tuple(tuple(Fraction(x) for x in row) for row in rows))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0


def _rows_of(A) -> list[list[Fraction]]:
    if isinstance(A, RationalMatrix):
        return [list(r) for r in A.entries]
    return _coerce_rows(A)


def _integer_rows(rows: list[list[Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Each row times the lcm of its denominators, and that lcm.

    Row i of the input is ``ints[i] / scales[i]`` exactly.
    """
    ints, scales = [], []
    for row in rows:
        scale = lcm(*[x.denominator for x in row])
        if scale == 1:
            ints.append([x.numerator for x in row])
        else:
            ints.append([x.numerator * (scale // x.denominator) for x in row])
        scales.append(scale)
    return ints, scales


def _pivot(T: list[list[int]], den: list[int], r: int, c: int, d: int) -> int:
    """One integer-preserving Gauss-Jordan step on entry (r, c); returns the new d.

    Row i stands for ``T[i] / den[i]`` with ``den[i] > 0``.  The rows have
    the common denominator d > 0, the previous pivot: every ``T[i] * d /
    den[i]`` is an integer.  Only the pivot row is brought to d; its entry p
    in column c becomes the new common denominator.  A row whose entry f in
    column c is zero is left as it is.  Any other row is updated entrywise to
    ``(a*p - f*b) // den[i]``, with b the pivot row's entry, and that division
    is exact.  A negative pivot is made positive by negating its row, which
    changes no reduced row.
    """
    row = T[r]
    if den[r] != d:
        q = den[r]
        row = [x * d // q for x in row]
    p = row[c]
    if p < 0:
        row = [-x for x in row]
        p = -p
    T[r] = row
    den[r] = p
    for i, other in enumerate(T):
        f = other[c]
        if f and i != r:
            q = den[i]
            T[i] = [(a * p - f * b) // q for a, b in zip(other, row)]
            den[i] = p
    return p


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    M = _coerce_rows(rows)
    if not M:
        return [], []
    # scaling a row leaves its reduced form alone, so start from integer rows
    T, _ = _integer_rows(M)
    den = [1] * len(T)
    d = 1
    ncols = len(T[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(T)) if T[i][c]), None)
        if pivot is None:
            continue
        T[r], T[pivot] = T[pivot], T[r]
        den[r], den[pivot] = den[pivot], den[r]
        d = _pivot(T, den, r, c, d)
        pivots.append(c)
        r += 1
        if r == len(T):
            break
    out = [
        [Fraction(x) for x in row] if q == 1 else [Fraction(x, q) for x in row]
        for row, q in zip(T, den)
    ]
    return out, pivots


def rank(A) -> int:
    _, pivots = rref(_rows_of(A))
    return len(pivots)


def solve_linear(A, b) -> Optional[tuple[Fraction, ...]]:
    """One exact solution of A x = b, or None if inconsistent.

    Free variables are set to zero, so the result is the canonical particular
    solution relative to the RREF pivot structure.
    """
    M = _rows_of(A)
    bvec = [Fraction(x) for x in b]
    if len(M) != len(bvec):
        raise ValueError("right-hand side length mismatch")
    if not M:
        return ()
    n = len(M[0])
    aug, pivots = rref([row + [rhs] for row, rhs in zip(M, bvec)])
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = aug[i][n]
    return tuple(x)


def rational_nullspace(A) -> tuple[tuple[Fraction, ...], ...]:
    """Basis of {v : A v = 0}; size equals cols - rank(A)."""
    M = _rows_of(A)
    if not M:
        return ()
    n = len(M[0])
    R, pivots = rref(M)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -R[i][f]
        basis.append(tuple(v))
    return tuple(basis)


def _phase_one_feasible(T: list[list[int]], den: list[int]) -> Optional[list[Fraction]]:
    """Exact phase-1 simplex: find x >= 0 with A x = b, else None.

    Row i of the tableau ``[A | b]`` is ``T[i] / den[i]``, with integer
    entries, ``den[i] > 0`` and ``b >= 0``; T and den are pivoted in place.
    Artificial variable i starts basic in row i.  Artificial columns never
    enter, so they are not stored.  Bland's rule on both the entering and
    leaving choices rules out cycling, so termination is guaranteed in exact
    arithmetic.
    """
    m = len(T)
    n = len(T[0]) - 1
    # Over the artificial basis the rows share the denominator prod(den),
    # the determinant of that basis in row-scaled integer form.
    d = prod(den)
    # Objective row: the sum of the rows whose basic variable is artificial.
    # Column j improves the phase-1 objective when its entry is positive; the
    # entry of a basic column is 0.  It is pivoted like any other row.
    scaled = [[x * (d // q) for x in row] for row, q in zip(T, den)]
    T.append([sum(col) for col in zip(*scaled)])
    den.append(d)
    basis = list(range(n, n + m))
    while True:
        objective = T[m]
        entering = next((j for j in range(n) if objective[j] > 0), None)
        if entering is None:
            break
        leave = None
        for i in range(m):
            a = T[i][entering]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                # T[i][-1] / a against the best ratio, cross-multiplied
                lhs = T[i][-1] * T[leave][entering]
                rhs = T[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise ArithmeticError("phase-1 objective unbounded; inconsistent tableau")
        d = _pivot(T, den, leave, entering, d)
        basis[leave] = entering
    if T[m][-1] != 0:
        return None
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(T[i][-1], den[i])
    return x


def strict_positive_solution(A) -> Optional[tuple[Fraction, ...]]:
    """A rational v with A v = 0 and every coordinate > 0, or None.

    Decided exactly through the inhomogeneous problem {A w = -A*1, w >= 0}
    and v = w + 1; absence is a certified answer, not an error.  A matrix
    with no columns has the empty solution ``()``.
    """
    M = _rows_of(A)
    if not M or not M[0]:
        return ()
    A_int, den = _integer_rows(M)
    T = []
    for row in A_int:
        rhs = -sum(row)
        T.append([-x for x in row] + [-rhs] if rhs < 0 else row + [rhs])
    w = _phase_one_feasible(T, den)
    if w is None:
        return None
    v = tuple(x + 1 for x in w)
    scale = lcm(*(x.denominator for x in v))
    v_int = [x.numerator * (scale // x.denominator) for x in v]
    if any(sum(a * x for a, x in zip(row, v_int)) for row in A_int):
        raise AssertionError("simplex returned a non-solution")
    return v
