"""Exact linear algebra over the rationals.

A matrix is a sequence of equal-length rows of ints or ``Fraction`` values,
and results are ``Fraction`` values; there is no floating point anywhere.
Inside, ``rref`` and the phase-1 simplex share one integer-preserving
Gauss-Jordan pivot step (``_pivot``, after Bareiss 1968) on sparse rows: each row is scaled once to integers and then held as a
``{column: nonzero integer}`` map over a positive denominator, and every
update divides exactly.  A pivot touches only the rows that hold its column,
and each of those only over its own and the pivot row's columns, so the cost
follows the nonzeros rather than the matrix's shape.  No Fraction is built
until the result is.

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

from fractions import Fraction
from itertools import compress, count
from math import lcm, prod
from typing import Optional, Sequence

SparseRow = dict[int, int]

_EXACT = {int, Fraction}
_ZERO = Fraction(0)


def _integer_rows(rows) -> tuple[list[SparseRow], list[int], int]:
    """Each row times the lcm of its denominators, as a sparse map; those
    lcms; and the column count.

    Row i of the input is ``ints[i] / scales[i]`` exactly.  Ints and
    Fractions are read as they are; any other entry goes through
    ``Fraction()``.
    """
    ints, scales, ncols = [], [], None
    for row in rows:
        if not _EXACT.issuperset(map(type, row)):
            row = [Fraction(x) for x in row]
        if ncols is None:
            ncols = len(row)
        elif len(row) != ncols:
            raise ValueError("matrix rows must have equal length")
        nonzero = dict(zip(compress(count(), row), filter(None, row)))
        scale = lcm(*[x.denominator for x in nonzero.values()])
        ints.append({j: x.numerator * (scale // x.denominator) for j, x in nonzero.items()})
        scales.append(scale)
    return ints, scales, ncols or 0


def _pivot(T: list[SparseRow], den: list[int], r: int, c: int, d: int) -> int:
    """One integer-preserving Gauss-Jordan step on entry (r, c); returns the new d.

    Row i stands for ``T[i] / den[i]`` with ``den[i] > 0``; ``T[i]`` maps
    each column where the row is nonzero to its integer numerator, and holds
    no zeros.  The rows have the common denominator d > 0, the previous
    pivot: every ``T[i] * d / den[i]`` is an integer.  Only the pivot row is
    brought to d; its entry p in column c becomes the new common denominator.
    A row that does not hold column c is left as it is.  Any other row, with
    entry f in column c, is updated to ``(a*p - f*b) // den[i]`` over the
    union of its columns and the pivot row's, with a and b their entries
    there; the division is exact, and the entries that become zero (column c
    among them) are dropped.  A negative pivot is made positive by negating
    its row, which changes no reduced row.
    """
    row = T[r]
    if den[r] != d:
        q = den[r]
        row = {k: x * d // q for k, x in row.items()}
    p = row[c]
    if p < 0:
        row = {k: -x for k, x in row.items()}
        p = -p
    T[r] = row
    den[r] = p
    for i, other in enumerate(T):
        if c not in other or i == r:
            continue
        f = other[c]
        q = den[i]
        # a column the pivot row lacks keeps a nonzero a * p // q
        new = {k: a * p // q for k, a in other.items() if k not in row}
        for k, b in row.items():
            x = (other.get(k, 0) * p - f * b) // q
            if x:
                new[k] = x
        T[i] = new
        den[i] = p
    return p


def _rref(rows) -> tuple[list[SparseRow], list[int], list[int], int]:
    """The sparse reduced row echelon form of rows: (rows, denominators,
    pivot columns, column count).

    Pivot row i holds ``den[i]`` in column ``pivots[i]``; the rows below the
    last pivot row are empty.
    """
    # scaling a row leaves its reduced form alone, so start from integer rows
    T, _, ncols = _integer_rows(rows)
    den = [1] * len(T)
    d = 1
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(T):
            break
        pivot = next((i for i in range(r, len(T)) if c in T[i]), None)
        if pivot is None:
            continue
        T[r], T[pivot] = T[pivot], T[r]
        den[r], den[pivot] = den[pivot], den[r]
        d = _pivot(T, den, r, c, d)
        pivots.append(c)
        r += 1
    return T, den, pivots, ncols


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    T, den, pivots, ncols = _rref(rows)
    out = []
    for row, q in zip(T, den):
        dense = [_ZERO] * ncols
        for k, x in row.items():
            dense[k] = Fraction(x, q)
        out.append(dense)
    return out, pivots


def rank(A) -> int:
    return len(_rref(A)[2])


def solve_linear(A, b) -> Optional[tuple[Fraction, ...]]:
    """One exact solution of A x = b, or None if inconsistent.

    Free variables are set to zero, so the result is the canonical particular
    solution relative to the RREF pivot structure.
    """
    M = list(A)
    bvec = list(b)
    if len(M) != len(bvec):
        raise ValueError("right-hand side length mismatch")
    if not M:
        return ()
    n = len(M[0])
    T, den, pivots, _ = _rref([(*row, rhs) for row, rhs in zip(M, bvec)])
    if n in pivots:
        return None
    x = [_ZERO] * n
    for i, c in enumerate(pivots):
        x[c] = Fraction(T[i].get(n, 0), den[i])
    return tuple(x)


def rational_nullspace(A) -> tuple[tuple[Fraction, ...], ...]:
    """Basis of {v : A v = 0}; size equals cols - rank(A)."""
    T, den, pivots, n = _rref(A)
    if not T:
        return ()
    # one vector per free column f: 1 at f and -R[i][f] at pivot column c_i
    basis = {f: [_ZERO] * n for f in sorted(set(range(n)).difference(pivots))}
    for f, v in basis.items():
        v[f] = Fraction(1)
    for i, c in enumerate(pivots):
        for f, x in T[i].items():
            if f != c:
                basis[f][c] = Fraction(-x, den[i])
    return tuple(tuple(v) for v in basis.values())


def _phase_one_feasible(T: list[SparseRow], den: list[int], n: int) -> Optional[list[Fraction]]:
    """Exact phase-1 simplex: find x >= 0 with A x = b, else None.

    Row i of the tableau ``[A | b]`` is ``T[i] / den[i]``, a sparse integer
    row over columns 0 .. n (b is column n), with ``den[i] > 0`` and
    ``b >= 0``; T and den are pivoted in place.  Artificial variable i starts
    basic in row i.  Artificial columns never enter, so they are not stored.
    Bland's rule on both the entering and leaving choices rules out cycling,
    so termination is guaranteed in exact arithmetic.
    """
    m = len(T)
    # Over the artificial basis the rows share the denominator prod(den),
    # the determinant of that basis in row-scaled integer form.
    d = prod(den)
    # Objective row: the sum of the rows whose basic variable is artificial.
    # Column j improves the phase-1 objective when its entry is positive; the
    # entry of a basic column is 0.  It is pivoted like any other row.
    objective: SparseRow = {}
    for row, q in zip(T, den):
        s = d // q
        for k, x in row.items():
            objective[k] = objective.get(k, 0) + x * s
    T.append({k: x for k, x in objective.items() if x})
    den.append(d)
    basis = list(range(n, n + m))
    while True:
        entering = min((j for j, x in T[m].items() if x > 0 and j < n), default=None)
        if entering is None:
            break
        leave = None
        for i in range(m):
            a = T[i].get(entering, 0)
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                # T[i][n] / a against the best ratio, cross-multiplied
                lhs = T[i].get(n, 0) * T[leave][entering]
                rhs = T[leave].get(n, 0) * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise ArithmeticError("phase-1 objective unbounded; inconsistent tableau")
        d = _pivot(T, den, leave, entering, d)
        basis[leave] = entering
    if n in T[m]:
        return None
    x = [_ZERO] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(T[i].get(n, 0), den[i])
    return x


def strict_positive_solution(A) -> Optional[tuple[Fraction, ...]]:
    """A rational v with A v = 0 and every coordinate > 0, or None.

    Decided exactly through the inhomogeneous problem {A w = -A*1, w >= 0}
    and v = w + 1; absence is a certified answer, not an error.  A matrix
    with no columns has the empty solution ``()``.
    """
    A_int, den, n = _integer_rows(A)
    if not n:
        return ()
    T = []
    for row in A_int:
        rhs = -sum(row.values())
        t = {k: -x for k, x in row.items()} if rhs < 0 else dict(row)
        if rhs:
            t[n] = abs(rhs)
        T.append(t)
    w = _phase_one_feasible(T, den, n)
    if w is None:
        return None
    v = tuple(x + 1 for x in w)
    scale = lcm(*(x.denominator for x in v))
    v_int = [x.numerator * (scale // x.denominator) for x in v]
    if any(sum(a * v_int[k] for k, a in row.items()) for row in A_int):
        raise AssertionError("simplex returned a non-solution")
    return v
