"""Exact linear algebra over the rationals.

A matrix is a sequence of equal-length rows of ints or ``Fraction`` values
(a float or a string entry raises ``ValueError``), and results are
``Fraction`` values; there is no floating point anywhere.
Inside, ``rref`` and the phase-1 simplex share one integer-preserving
Gauss-Jordan pivot step (``_pivot``, after Bareiss 1968) on integer sparse
rows, ``{column: nonzero integer}`` maps over a positive denominator, and
every update divides exactly.  The private core (``_rref``,
``_strict_positive``) takes such rows and a column count; each public
function converts its rows once (``_integer_rows``).  A pivot updates only
the rows that hold its column, and each of those only over its own and the
pivot row's columns, so the arithmetic follows the nonzeros; finding those
rows, and ``_rref``'s pivot row, still visits every row.  No Fraction is
built until the result is.

Scaling rows by positive factors changes neither the reduced row echelon
form, which is unique, nor any choice of the simplex, whose entering and
leaving rules (Bland's) read only signs and ratios.  So ``rref``,
``rational_nullspace`` and ``solve_linear`` return what a plain Fraction
tableau gives; the test suite keeps that tableau as its reference.

Strict positivity of homogeneous systems, ``A v = 0, v > 0``, is presolved
first (``_presolve``, the two-term row reduction of Andersen and Andersen,
*Presolving in linear programming*, 1995): a row with two terms of opposite
signs makes one unknown a positive multiple of the other, and that unknown
is substituted out; a row of one sign has no positive solution.  A level
system's rows mostly have two terms, so on them little or nothing is left.
What is left goes to the simplex, on the equivalent inhomogeneous problem
``A v = 0, v >= 1`` (the cone is scale invariant): on the presolved rows in
their own columns, where a column that no row holds never enters, and in
integers up to the witness.  The witness may therefore differ from the one
Bland's rule gives on the whole matrix, but whether one exists does not,
and a witness is checked against every original row before it is returned.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import compress, count
from math import gcd, lcm
from numbers import Rational
from typing import Optional, Sequence

SparseRow = dict[int, int]

_EXACT = {int, Fraction}
_ZERO = Fraction(0)


def _exact_entry(x):
    """A matrix entry as an int or a ``Fraction``.

    Ints and Fractions are returned as they are, and any other rational
    number (a bool, say) as a Fraction.  Anything else, a float or a string
    among them, raises ``ValueError`` naming the entry; the Smith form reads
    its entries through this check too.
    """
    if type(x) in _EXACT:
        return x
    if isinstance(x, Rational):
        return Fraction(x)
    raise ValueError(f"matrix entry {x!r} is not an integer or a Fraction")


def _integer_rows(rows) -> tuple[list[SparseRow], int]:
    """Each row times the lcm of its denominators, as a sparse map; and the
    column count.  Each entry must pass ``_exact_entry``.
    """
    ints, ncols = [], None
    for row in rows:
        if not _EXACT.issuperset(map(type, row)):
            row = [_exact_entry(x) for x in row]
        if ncols is None:
            ncols = len(row)
        elif len(row) != ncols:
            raise ValueError("matrix rows must have equal length")
        nonzero = dict(zip(compress(count(), row), filter(None, row)))
        scale = lcm(*[x.denominator for x in nonzero.values()])
        ints.append({j: x.numerator * (scale // x.denominator) for j, x in nonzero.items()})
    return ints, ncols or 0


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


def _rref(T: list[SparseRow], ncols: int) -> tuple[list[SparseRow], list[int], list[int], int]:
    """The sparse reduced row echelon form of the integer rows T over ncols
    columns, pivoted in place: (rows, denominators, pivot columns, ncols).

    Pivot row i holds ``den[i]`` in column ``pivots[i]``; the rows below the
    last pivot row are empty.
    """
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
    T, den, pivots, ncols = _rref(*_integer_rows(rows))
    out = []
    for row, q in zip(T, den):
        dense = [_ZERO] * ncols
        for k, x in row.items():
            dense[k] = Fraction(x, q)
        out.append(dense)
    return out, pivots


def rank(A) -> int:
    return len(_rref(*_integer_rows(A))[2])


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
    T, den, pivots, _ = _rref(*_integer_rows([(*row, rhs) for row, rhs in zip(M, bvec)]))
    if n in pivots:
        return None
    x = [_ZERO] * n
    for i, c in enumerate(pivots):
        x[c] = Fraction(T[i].get(n, 0), den[i])
    return tuple(x)


def rational_nullspace(A) -> tuple[tuple[Fraction, ...], ...]:
    """Basis of {v : A v = 0}; size equals cols - rank(A)."""
    T, den, pivots, n = _rref(*_integer_rows(A))
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


def _phase_one_feasible(T: list[SparseRow], n: int) -> Optional[tuple[list[int], list[int]]]:
    """Exact phase-1 simplex: find x >= 0 with A x = b, else None.

    Row i of the tableau ``[A | b]`` is ``T[i]``, a sparse integer row over
    columns 0 .. n (b is column n) with ``b >= 0``; T is pivoted in place.
    x is returned as the numerators and the positive denominators of its
    coordinates, in lowest terms.
    Artificial variable i starts basic in row i.  Artificial columns never
    enter, so they are not stored.  Bland's rule on both the entering and
    leaving choices rules out cycling, so termination is guaranteed in exact
    arithmetic.
    """
    m = len(T)
    # Over the artificial basis every row, the objective's too, has the
    # denominator 1.
    den = [1] * (m + 1)
    d = 1
    # Objective row: the sum of the rows whose basic variable is artificial.
    # Column j improves the phase-1 objective when its entry is positive; the
    # entry of a basic column is 0.  It is pivoted like any other row.
    objective: SparseRow = {}
    for row in T:
        for k, x in row.items():
            objective[k] = objective.get(k, 0) + x
    T.append({k: x for k, x in objective.items() if x})
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
    num, q = [0] * n, [1] * n
    for i, c in enumerate(basis):
        if c < n:
            x = T[i].get(n, 0)
            g = gcd(x, den[i])
            num[c], q[c] = x // g, den[i] // g
    return num, q


def _one_signed(row: SparseRow) -> bool:
    """Whether the nonzero entries of a nonempty row all have one sign, so
    that no v > 0 makes the row vanish."""
    return min(row.values()) > 0 or max(row.values()) < 0


# (j, k, p, q): the unknown v_j was replaced by p v_k / q, with p, q > 0
Substitution = tuple[int, int, int, int]


def _presolve(rows: Sequence[SparseRow]) -> Optional[tuple[dict[int, SparseRow], list[Substitution]]]:
    """Substitute out the rows of A v = 0, v > 0 that have at most two terms.

    An empty row is dropped, and a row whose entries all have one sign has
    no solution v > 0, so the result is None.  A row ``a v_j + b v_k = 0``
    with a and b of opposite signs fixes ``v_j = (|b| / |a|) v_k``, a
    positive multiple, so it is dropped and v_j is replaced in every row
    that holds it.  Of j and k, the one that lies in fewer rows goes (the
    lower index on a tie), so columns shared by many rows are kept longest.
    A replacement never adds a term to a row, so the work follows the
    nonzeros; each rewritten row is divided by the gcd of its entries and
    is queued again once it has two terms or fewer.

    Returns the rows left, by their index in rows, and the substitutions in
    the order they were made.  The rows in rows are not changed.
    """
    live: dict[int, SparseRow] = {}
    holders: dict[int, set[int]] = defaultdict(set)  # column -> live rows that hold it
    queue = []
    for i, row in enumerate(rows):
        if not row:
            continue
        if _one_signed(row):
            return None
        live[i] = row
        for j in row:
            holders[j].add(i)
        if len(row) <= 2:
            queue.append(i)
    subs = []
    while queue:
        i = queue.pop()
        row = live.pop(i, None)
        if row is None:
            continue
        (j, a), (k, b) = row.items()
        for c in (j, k):
            holders[c].remove(i)
        if (len(holders[k]), k) < (len(holders[j]), j):
            j, a, k, b = k, b, j, a
        p, q = abs(b), abs(a)
        subs.append((j, k, p, q))
        for r in holders.pop(j):
            old = live[r]
            # f v_j = (f p / q) v_k: scale the row by t = q / gcd(q, f)
            f = old[j]
            g = gcd(q, f)
            t = q // g
            new = {c: x * t for c, x in old.items() if c != j}
            x = new.get(k, 0) + f // g * p
            if x:
                if k not in new:
                    holders[k].add(r)
                new[k] = x
            elif k in new:
                del new[k]
                holders[k].remove(r)
            if not new:
                del live[r]
                continue
            if _one_signed(new):
                return None
            g = gcd(*new.values())
            if g != 1:
                new = {c: x // g for c, x in new.items()}
            live[r] = new
            if len(new) <= 2:
                queue.append(r)
    return live, subs


def strict_positive_solution(A) -> Optional[tuple[Fraction, ...]]:
    """A rational v with A v = 0 and every coordinate > 0, or None.

    The rows with at most two terms are substituted out first
    (``_presolve``); what is left is decided exactly through the
    inhomogeneous problem {A' w = -A'*1, w >= 0} and v = w + 1, and the
    substituted unknowns are then restored from the ones they were replaced
    by.  The solutions v > 0 form a cone, and v is returned as the
    integer point of its ray whose coordinates have gcd 1.  Absence is a
    certified answer, not an error.  A matrix with no columns has the empty
    solution ``()``.
    """
    return _strict_positive(*_integer_rows(A))


def _strict_positive(A_int: Sequence[SparseRow], n: int) -> Optional[tuple[Fraction, ...]]:
    """``strict_positive_solution`` on integer rows over n columns, left unchanged."""
    if not n:
        return ()
    presolved = _presolve(A_int)
    if presolved is None:
        return None
    live, subs = presolved
    # the rows left, on their own columns; a row of A_int is copied before its
    # right-hand side is written in
    T = []
    for i in sorted(live):
        row = live[i]
        rhs = -sum(row.values())
        t = {k: -x for k, x in row.items()} if rhs < 0 else dict(row)
        if rhs:
            t[n] = abs(rhs)
        T.append(t)
    w = _phase_one_feasible(T, n)
    if w is None:
        return None
    # v_c = num[c] / den[c] in lowest terms: w + 1, which is 1 on a column no
    # row holds, and each substituted column from its replacement
    x, den = w
    num = [a + q for a, q in zip(x, den)]
    for j, k, p, q in reversed(subs):
        a, b = num[k] * p, den[k] * q
        g = gcd(a, b)
        num[j], den[j] = a // g, b // g
    scale = lcm(*den)
    v_int = [x * (scale // d) for x, d in zip(num, den)]
    if any(sum(a * v_int[k] for k, a in row.items()) for row in A_int):
        raise AssertionError("presolve and simplex returned a non-solution")
    g = gcd(*v_int)
    return tuple(Fraction(x // g) for x in v_int)
