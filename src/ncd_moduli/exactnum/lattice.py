"""Integer matrices and Smith normal form.

The Smith form U A V = D (U, V unimodular, D diagonal with a divisibility
chain) is the workhorse for solving congruence systems over Q/Z: it counts
and enumerates the torsion branches of multiplicative power systems.

``smith_normal_form`` clears row and column t around the pivot D[t][t] with
two kinds of step (Kannan and Bachem, 1979).  Where the pivot a divides the
entry b, it subtracts b/a times the pivot's row (or column), which changes
only the one row (column).  Otherwise the extended-gcd step, with
h = gcd(a, b) = u a + w b, maps the two rows (columns) x, y to u x + w y and
(a/h) y - (b/h) x: it is unimodular, puts h in the pivot and 0 in the
entry.  Since a does not divide b, h is a proper divisor of |a|, at most
|a|/2, so a pivot a sees at most log2 |a| extended-gcd steps.  The passes
repeat only after an extended-gcd column step, which can refill column t
below the pivot, or after the offender step that adds a row to row t to
restore the divisibility chain; the column pass right after an offender step
makes an extended-gcd step.  So the passes for each pivot are finite, and
the loop ends.
"""

from __future__ import annotations

from .linalg import _exact_entry

IntMatrix = tuple[tuple[int, ...], ...]


def _int_entry(x) -> int:
    if type(x) is int:
        return x
    q = _exact_entry(x)
    if q.denominator != 1:
        raise ValueError(f"matrix entry {x!r} is not an integer")
    return int(q)


def _int_rows(A) -> list[list[int]]:
    """Fresh lists of the rows of A; an entry that is not an integer raises ``ValueError``."""
    out = [[_int_entry(x) for x in row] for row in A]
    if len({len(r) for r in out}) > 1:
        raise ValueError("matrix rows must have equal length")
    return out


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(h, u, w) with h = gcd(a, b) = u*a + w*b and h >= 0."""
    u0, w0, u1, w1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        u0, u1 = u1, u0 - q * u1
        w0, w1 = w1, w0 - q * w1
    return (a, u0, w0) if a >= 0 else (-a, -u0, -w0)


def smith_normal_form(A) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with U*A*V = D, U and V unimodular, each a tuple of
    int row tuples.

    A is a sequence of equal-length rows.  D is m x n and diagonal with
    nonnegative entries d_1 | d_2 | ... followed by zeros; U is m x m and V
    is n x n.  An entry of A that is not an integer, or rows of unequal
    length, raise ``ValueError``.
    """
    D = _int_rows(A)
    m = len(D)
    n = len(D[0]) if m else 0
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    for t in range(min(m, n)):
        # the first nonzero entry of the trailing submatrix, row by row
        pos = (t, t) if D[t][t] else next(
            ((i, j) for i in range(t, m) for j in range(t, n) if D[i][j]), None)
        if pos is None:
            break
        i, j = pos
        D[t], D[i] = D[i], D[t]
        U[t], U[i] = U[i], U[t]
        # rows above t are zero from column t on, so column steps skip them
        if j != t:
            for row in (*D[t:], *V):
                row[t], row[j] = row[j], row[t]
        repeat = True
        while repeat:
            for i in range(t + 1, m):
                a, b = D[t][t], D[i][t]
                if b % a:
                    h, u, w = _xgcd(a, b)
                    a, b = a // h, b // h
                    for M in (D, U):
                        M[t], M[i] = ([u * x + w * y for x, y in zip(M[t], M[i])],
                                      [a * y - b * x for x, y in zip(M[t], M[i])])
                elif b:
                    q = b // a
                    for M in (D, U):
                        M[i] = [y - q * x for x, y in zip(M[t], M[i])]
            repeat = False
            cols = (*D[t:], *V)
            for j in range(t + 1, n):
                a, b = D[t][t], D[t][j]
                if b % a:
                    h, u, w = _xgcd(a, b)
                    a, b = a // h, b // h
                    for row in cols:
                        row[t], row[j] = u * row[t] + w * row[j], a * row[j] - b * row[t]
                    # w != 0 since a does not divide b, so column t may be
                    # nonzero below the pivot again
                    repeat = True
                elif b:
                    q = b // a
                    for row in cols:
                        row[j] -= q * row[t]
            if not repeat:
                # the divisibility chain: a row whose entry the pivot does not
                # divide is added to row t, and the next column pass lowers it
                a = D[t][t]
                i = next((i for i in range(t + 1, m) if any(x % a for x in D[i][t + 1:])), None)
                if i is not None:
                    for M in (D, U):
                        M[t] = [x + y for x, y in zip(M[t], M[i])]
                    repeat = True
        if D[t][t] < 0:
            for M in (D, U):
                M[t] = [-x for x in M[t]]
    return tuple(map(tuple, U)), tuple(map(tuple, D)), tuple(map(tuple, V))


def elementary_divisors(A) -> tuple[int, ...]:
    _, D, V = smith_normal_form(A)
    return tuple(D[i][i] for i in range(min(len(D), len(V))) if D[i][i])
