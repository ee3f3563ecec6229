"""Multiplicative power systems  prod_j mu_j^{M[k][j]} = p_k.

The magnitude part is a rational linear system on prime-exponent vectors
(one right-hand side per prime in the support, all reduced in one
elimination of M).  The argument part is a congruence system over Q/Z
solved through the Smith normal form of M: the number of torsion branches
is the product of the nonzero elementary divisors, and the continuous part
is the kernel torus of M.

A system with one unknown, mu^{s_k} = p_k (enhanced matching, gluing and
the weighted-projective test all solve these), builds no Smith form.  One
pass over the rows keeps the solutions of the rows so far: the prime
exponents of mu, read off the first row with s_k != 0 and checked on every
later row, and g theta = y / L (mod 1) for its argument theta, which each row
joins through an extended gcd.  The first row that breaks either is the
violated equation, so no prefix is solved again; only a system with two or
more unknowns does that.  The branches and their order are the ones the
Smith path gives.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .lattice import _int_rows, _xgcd, smith_normal_form
from .linalg import _integer_rows, _rref
from .values import ExactNonzeroComplex


class TorsionBranches(Sequence):
    """The torsion branches of a consistent power system, built on demand.

    Branch number b has the mixed-radix digits j_0 .. j_{r-1} of b over the
    nonzero elementary divisors d_0 .. d_{r-1}, the last digit running
    fastest (the order of ``itertools.product``).  Unknown i of that branch
    has the magnitude ``mags[i]``, which no branch changes, and the argument
    ``((offsets[i] + sum_k j_k * steps[i][k]) mod den) / den`` turns.
    The common denominator is den = L * lcm(d_0 .. d_{r-1}), with L the lcm
    of the denominators of the right-hand sides' arguments, so the solve
    works in integers and a ``Fraction`` is built only when a branch is read.
    """

    __slots__ = ("_data", "_len")

    def __init__(self, mags, divisors, offsets, steps, den):
        self._data = (mags, divisors, offsets, steps, den)
        self._len = math.prod(divisors)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index) -> tuple[ExactNonzeroComplex, ...]:
        b = operator.index(index)
        if b < 0:
            b += self._len
        if not 0 <= b < self._len:
            raise IndexError("torsion branch index out of range")
        digits = []
        for d in reversed(self._data[1]):
            b, j = divmod(b, d)
            digits.append(j)
        return self._branch(digits[::-1])

    def __iter__(self):
        return map(self._branch, itertools.product(*map(range, self._data[1])))

    def _branch(self, digits) -> tuple[ExactNonzeroComplex, ...]:
        mags, _, offsets, steps, den = self._data
        return tuple([
            ExactNonzeroComplex._normalised(
                mag, Fraction((c + sum(map(operator.mul, digits, row))) % den, den)
            )
            for mag, c, row in zip(mags, offsets, steps)
        ])

    def __eq__(self, other) -> bool:
        if isinstance(other, TorsionBranches):
            return self._data == other._data or tuple(self) == tuple(other)
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"TorsionBranches(<{self._len} branches>)"


@dataclass(frozen=True)
class PowerSystemSolution:
    """Outcome of solving a multiplicative power system.

    ``solutions`` has one representative per torsion branch, ``branch_count``
    of them; it is empty when the system is inconsistent.
    """

    consistent: bool
    violated_equation: Optional[int]
    branch_count: int
    kernel_rank: int
    solutions: Sequence[tuple[ExactNonzeroComplex, ...]]

    def __bool__(self) -> bool:
        return self.consistent


def _solve_column(s: list[int], values: Sequence[ExactNonzeroComplex]) -> PowerSystemSolution:
    """Solve mu^{s_k} = values[k] in one pass over the rows.

    After row k the pass holds the solutions of rows 0..k: the magnitude
    ``mag`` of mu, set by the first row with s_k != 0, and a pair (g, y)
    with g theta = y / L (mod 1) for the argument theta, L the lcm of the
    arguments' denominators.  Row k, s_k theta = a_k / L, joins through
    h = gcd(g, s_k) = u g + w s_k: the two hold together iff h theta = z / L
    with z = u y + w a_k, (g/h) z = y and (s_k/h) z = a_k (mod L).  So the
    first row that fails either check is the violated equation.  For g > 0
    the solution set fixes y mod L, so the branches theta_j = (y/L + j) / g,
    their order included, are the ones the Smith path gives.
    """
    L = math.lcm(*[v.arg.denominator for v in values])
    mag, g, y = None, 0, 0
    for k, (sk, v) in enumerate(zip(s, values)):
        if sk and mag is None:
            mag = tuple([(p, e / sk) for p, e in v.mag])
        elif v.mag != (tuple([(p, e * sk) for p, e in mag]) if sk else ()):
            return PowerSystemSolution(False, k, 0, 0, ())
        a = v.arg.numerator * (L // v.arg.denominator)
        h, u, w = _xgcd(g, sk)
        z = (u * y + w * a) % L
        q = h or 1  # h = 0 only when g = s_k = 0, and then y = z = 0
        if (g // q * z - y) % L or (sk // q * z - a) % L:
            return PowerSystemSolution(False, k, 0, 0, ())
        g, y = h, z
    if not g:
        return PowerSystemSolution(True, None, 1, 1, TorsionBranches((mag or (),), (), (0,), ((),), L))
    den = L * g
    return PowerSystemSolution(True, None, g, 0, TorsionBranches((mag,), (g,), (y,), ((L % den,),), den))


def _solve_once(rows: list[list[int]], values: Sequence[ExactNonzeroComplex]):
    """Solve the full system, or return None if it is inconsistent.

    The branches are not built here: the argument of every branch is an
    integer numerator over one common denominator ``den``, so the solution
    keeps only the per-unknown offsets, the per-digit steps and the
    magnitudes, and ``TorsionBranches`` builds a branch when it is read.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    # magnitude: one rational elimination of M with a right-hand side per prime
    # in the combined support; a pivot in a right-hand side is an inconsistency
    primes = sorted({p for v in values for p, _ in v.mag})
    mag_parts: dict[int, list[Fraction]] = {p: [Fraction(0)] * n for p in primes}
    if primes:
        mag_maps = [dict(v.mag) for v in values]
        T, den, pivots, _ = _rref(
            *_integer_rows([(*row, *[mag.get(p, 0) for p in primes]) for row, mag in zip(rows, mag_maps)])
        )
        if pivots and pivots[-1] >= n:
            return None
        for row, q, c in zip(T, den, pivots):
            for j, p in enumerate(primes, n):
                mag_parts[p][c] = Fraction(row.get(j, 0), q)
    # argument, in integers: with L the lcm of the argument denominators,
    # arg_j = A_j / L, and D psi = U arg over Q/Z with U M V = D reads
    # d_k psi_k = t_k / L with t_k = sum_j U_kj A_j mod L
    L = math.lcm(*[v.arg.denominator for v in values])
    A = [v.arg.numerator * (L // v.arg.denominator) for v in values]
    U, D, V = smith_normal_form(rows)
    t = [sum(map(operator.mul, u, A)) % L for u in U]
    divisors = [D[i][i] for i in range(min(m, n))]
    divisors += [0] * (m - len(divisors))
    if any(ti and not d for ti, d in zip(t, divisors)):
        return None
    divisors = [d for d in divisors if d != 0]
    # psi_k = (t_k + j_k L) / (L d_k) = (base_k + j_k * den / d_k) / den with
    # den = L * lcm(d), and theta_i = sum_k V_ik psi_k mod 1; psi_k = 0 for k >= r.
    r = len(divisors)
    den = L * math.lcm(*divisors)
    base = [t[k] * (den // (L * divisors[k])) for k in range(r)]
    offsets = tuple(sum(V[i][k] * base[k] for k in range(r)) % den for i in range(n))
    steps = tuple(tuple(V[i][k] * (den // divisors[k]) % den for k in range(r)) for i in range(n))
    mags = tuple(
        tuple((p, mag_parts[p][j]) for p in primes if mag_parts[p][j] != 0) for j in range(n)
    )
    branches = TorsionBranches(mags, tuple(divisors), offsets, steps, den)
    # M's kernel is spanned by V's columns r .. n-1, so its rank is n - r
    return PowerSystemSolution(True, None, len(branches), n - r, branches)


def solve_power_system(M, values: Sequence[ExactNonzeroComplex]) -> PowerSystemSolution:
    """Solve prod_j mu_j^{M[k][j]} = values[k] exactly.

    Returns the torsion branches (one representative vector each, with the
    continuous kernel contribution set to zero) as a lazy, indexable
    sequence of length ``branch_count`` that builds a branch only when it
    is read, or an inconsistency report carrying the index of the first
    equation that cannot be satisfied together with its predecessors.

    A system with one unknown (M a column) is solved in one pass over its
    rows, without a Smith form, and that pass stops at the violated
    equation; its branches, in order, are the ones the Smith form gives.
    Only a system with two or more unknowns finds the violated equation by
    solving its prefixes again.
    """
    rows = _int_rows(M)
    values = list(values)
    if len(rows) != len(values):
        raise ValueError("one right-hand side per equation is required")
    if rows and len(rows[0]) == 1:
        return _solve_column([row[0] for row in rows], values)
    full = _solve_once(rows, values)
    if full is not None:
        return full
    violated = len(rows) - 1
    for k in range(1, len(rows) + 1):
        if _solve_once(rows[:k], values[:k]) is None:
            violated = k - 1
            break
    return PowerSystemSolution(False, violated, 0, 0, ())


def verify_solution(M, values, mu: Sequence[ExactNonzeroComplex]) -> bool:
    """Check a candidate solution by direct substitution.

    Raises ``ValueError`` unless there is one value per row of M and one
    unknown per column.
    """
    rows = _int_rows(M)
    n = len(rows[0]) if rows else 0
    if len(values) != len(rows) or len(mu) != n:
        raise ValueError(
            f"a {len(rows)} x {n} system needs {len(rows)} values and {n} unknowns, "
            f"got {len(values)} and {len(mu)}"
        )
    for row, v in zip(rows, values):
        acc = ExactNonzeroComplex.one()
        for e, x in zip(row, mu):
            acc = acc * x.pow(e)
        if acc != v:
            return False
    return True
