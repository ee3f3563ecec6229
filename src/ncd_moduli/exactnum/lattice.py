"""Integer matrices and Smith normal form.

The Smith form U A V = D (U, V unimodular, D diagonal with a divisibility
chain) is the workhorse for solving congruence systems over Q/Z: it counts
and enumerates the torsion branches of multiplicative power systems.
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

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, q):
        D[dst] = [a + q * b for a, b in zip(D[dst], D[src])]
        U[dst] = [a + q * b for a, b in zip(U[dst], U[src])]

    def addmul_col(dst, src, q):
        for row in D:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    def negate_row(i):
        D[i] = [-a for a in D[i]]
        U[i] = [-a for a in U[i]]

    t = 0
    while t < min(m, n):
        # locate the minimal nonzero entry of the trailing submatrix
        pos = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                a = abs(D[i][j])
                if a and (best is None or a < best):
                    best = a
                    pos = (i, j)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        while True:
            # clear column t by Euclid steps, keeping the smallest remainder
            # as the pivot
            dirty = False
            for i in range(t + 1, m):
                if D[i][t] != 0:
                    q = D[i][t] // D[t][t]
                    addmul_row(i, t, -q)
                    if D[i][t] != 0:
                        swap_rows(i, t)
                        dirty = True
            for j in range(t + 1, n):
                if D[t][j] != 0:
                    q = D[t][j] // D[t][t]
                    addmul_col(j, t, -q)
                    if D[t][j] != 0:
                        swap_cols(j, t)
                        dirty = True
            if dirty:
                continue
            # enforce the divisibility chain
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if D[i][j] % D[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            addmul_row(t, offender, 1)
        if D[t][t] < 0:
            negate_row(t)
        t += 1
    return tuple(map(tuple, U)), tuple(map(tuple, D)), tuple(map(tuple, V))


def elementary_divisors(A) -> tuple[int, ...]:
    _, D, V = smith_normal_form(A)
    return tuple(D[i][i] for i in range(min(len(D), len(V))) if D[i][i])
