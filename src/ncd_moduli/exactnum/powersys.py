"""Multiplicative power systems  prod_j mu_j^{M[k][j]} = p_k.

Every value is read as its integer log tuple (D, primes, exps, argnum) (see
``values``), so the solvers build no ``Fraction``.  With L the lcm of the
right-hand sides' denominators D_k, the magnitude part is the rational linear
system M x = exps_k / D_k on prime-exponent vectors: one integer elimination
of the rows [D_k M_k | exps_k], with a right-hand side column per prime in
the support.  The argument part is the congruence system M theta = a_k / L
over Q/Z with a_k = argnum_k * L / D_k, solved through the Smith normal form
of M: the number of torsion branches is the product of the nonzero
elementary divisors, and the continuous part is the kernel torus of M.

A system with one unknown, mu^{s_k} = p_k, builds no Smith form.  One
integer pass over the rows' log tuples (``_column_pass``) keeps the
solutions of the rows so far: the prime exponents of mu, read off the first
row with s_k != 0 and checked on every later row by integer
cross-multiplication, and g theta = y / L (mod 1) for its argument theta,
which each row joins through an extended gcd.  The first row that breaks
either is the violated equation, so no prefix is solved again; only a system
with two or more unknowns does that.  ``solve_power_system`` wraps the pass
in its solution and lazy branches, whose order is the one the Smith path
gives; ``solve_gluing`` reads those.  ``maptype``'s enhanced matching and
weighted-projective test call the pass itself, and enhanced matching builds
its witness, the first branch, with ``_first_root``, so neither builds a
solution object.

A branch's unknowns all share their magnitudes with branch 0; only the
argument numerators move, each by a fixed step per digit.  So
``TorsionBranches`` iterates the last, fastest digit as an arithmetic
progression modulo each unknown's denominator, one lazy column per unknown,
and builds each value with one gcd against the precomputed gcd of that
unknown's denominator and exponents.  A prefix of the slower digits costs
one dot product per unknown; a branch costs no digit tuple.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

from .lattice import _int_rows, _xgcd, smith_normal_form
from .linalg import _rref
from .values import ExactNonzeroComplex, _from_log, _reduced


def _unknown(D: int, primes, exps, offset: int, steps) -> tuple:
    """The integer log data of one unknown: exponents ``exps`` at ``primes``
    over D, the gcd of D and them, and the argument numerator's offset and
    per-digit steps modulo D."""
    return (D, tuple(primes), tuple(exps), math.gcd(D, *exps), offset % D, tuple([x % D for x in steps]))


def _root(D: int, primes: tuple, exps: tuple, g: int, a: int) -> ExactNonzeroComplex:
    """The value with log (D, primes, exps, a), for g = gcd(D, *exps) and
    0 <= a < D: one gcd with the argument numerator is left to reduce it.
    Every torsion branch is built here, one unknown at a time."""
    h = math.gcd(g, a)
    if h == 1:
        return _from_log((D, primes, exps, a))
    return _from_log((D // h, primes, tuple([e // h for e in exps]), a // h))


class TorsionBranches(Sequence):
    """The torsion branches of a consistent power system, built on demand.

    Branch number b has the mixed-radix digits j_0 .. j_{r-1} of b over the
    nonzero elementary divisors d_0 .. d_{r-1}, the last digit running
    fastest (the order of ``itertools.product``).  Unknown i is held as
    integer log data over its own denominator D_i: its prime exponents and
    their gcd with D_i, which no branch changes, and the argument numerator
    ``(offsets_i + sum_k j_k * steps_i[k]) mod D_i``.  So the solve works in
    integers, and a branch is built with one gcd per unknown when it is read.

    Iteration runs the last digit as an arithmetic progression: for each
    prefix j_0 .. j_{r-2} every unknown's numerator is computed once, then
    advanced by its last-digit step modulo D_i, one lazy column per unknown,
    and the columns are zipped into branches.

    The branches are unhashable, as a list is: they compare equal to the
    tuple of the same branches, and a hash equal to that tuple's would have
    to build every branch.  So a consistent ``PowerSystemSolution`` is
    unhashable too.
    """

    __slots__ = ("_data", "_len")

    def __init__(self, unknowns, divisors):
        self._data = (tuple(unknowns), tuple(divisors))
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
        digits.reverse()
        return tuple([
            _root(D, primes, exps, g, (offset + sum(map(operator.mul, digits, steps))) % D)
            for D, primes, exps, g, offset, steps in self._data[0]
        ])

    def __iter__(self):
        unknowns, divisors = self._data
        if not unknowns:
            # no unknown means no elementary divisor: one branch, the empty vector
            return iter(((),))
        *slow, last = divisors or (1,)
        roots = [functools.partial(_root, D, primes, exps, g) for D, primes, exps, g, _, _ in unknowns]

        def run(prefix):
            columns = []
            for root, (D, _, _, _, offset, steps) in zip(roots, unknowns):
                # a step of 0 mod D is taken as D, so the range never has step 0
                step = steps[-1] if steps and steps[-1] else D
                a = (offset + sum(map(operator.mul, prefix, steps))) % D
                columns.append(map(root, map(D.__rmod__, range(a, a + last * step, step))))
            return zip(*columns)

        return itertools.chain.from_iterable(map(run, itertools.product(*map(range, slow))))

    def __eq__(self, other) -> bool:
        """Equal to branches or a tuple holding the same branches in order.
        The lengths are compared first (``len`` fails past ``sys.maxsize``),
        then the branches one at a time, up to the first that differs."""
        if isinstance(other, TorsionBranches):
            if self._data == other._data:
                return True
            n = other._len
        elif isinstance(other, tuple):
            n = len(other)
        else:
            return NotImplemented
        return self._len == n and all(map(operator.eq, self, other))

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


def _column_pass(s: Sequence[int], logs: Sequence[tuple]):
    """Solve mu^{s_k} = p_k in one pass over the rows, in integers.

    Each right-hand side is read as a log tuple (D_k, primes_k, exps_k,
    argnum_k), as in ``values``; only argnum_k mod D_k matters, and exps_k
    may be any sequence.  L is the one lcm of the D_k.  After row k the
    pass holds the solutions of rows 0..k.  The magnitude of mu is
    exps_f / (D_f s_f), set by the first row f with s_f != 0; a later row k
    holds it iff it has the same primes and s_k D_k exps_f = s_f D_f exps_k,
    and a row with s_k = 0 iff it has no primes.  The argument theta
    satisfies g theta = y / L (mod 1).  Row k, s_k theta = a_k / L with
    a_k = argnum_k L / D_k, joins through h = gcd(g, s_k) = u g + w s_k: the
    two hold together iff h theta = z / L with z = u y + w a_k,
    (g/h) z = y and (s_k/h) z = a_k (mod L).

    Returns the index of the first row that fails either check, or
    ``(g, y, L, first)`` with 0 <= y < L and ``first`` = (s_f D_f, primes_f,
    exps_f), None when every s_k is 0.  For g > 0 there are g branches
    theta_j = (y/L + j) / g, and over their denominator L g the magnitude's
    numerators are integers: g is an integer combination of the s_k, so g
    times the magnitude is one of the exps_k / D_k.
    """
    L = math.lcm(*[log[0] for log in logs])
    first, g, y = None, 0, 0
    for k, (sk, (d, primes, exps, a)) in enumerate(zip(s, logs)):
        if sk and first is None:
            first = (sk * d, primes, exps)
        elif sk:
            q0, primes0, exps0 = first
            c = sk * d
            if primes != primes0 or [c * e for e in exps0] != [q0 * e for e in exps]:
                return k
        elif primes:
            return k
        a *= L // d
        h, u, w = _xgcd(g, sk)
        z = (u * y + w * a) % L
        q = h or 1  # h = 0 only when g = s_k = 0, and then y = z = 0
        if (g // q * z - y) % L or (sk // q * z - a) % L:
            return k
        g, y = h, z
    return g, y, L, first


def _first_root(g: int, y: int, L: int, first) -> ExactNonzeroComplex:
    """Branch 0 of a pass's solution with g > 0: mu with exponents
    exps_f / (D_f s_f) and argument y / (L g), reduced by one gcd."""
    den = L * g
    q0, primes0, exps0 = first
    return _reduced(den, primes0, tuple([e * den // q0 for e in exps0]), y)


def _solve_column(s: list[int], values: Sequence[ExactNonzeroComplex]) -> PowerSystemSolution:
    """``_column_pass`` on the values' log tuples, as a solution.  For g > 0
    the solution set fixes y mod L, so the branches theta_j = (y/L + j) / g,
    their order included, are the ones the Smith path gives."""
    out = _column_pass(s, [v._log for v in values])
    if type(out) is int:
        return PowerSystemSolution(False, out, 0, 0, ())
    g, y, L, first = out
    if not g:
        return PowerSystemSolution(True, None, 1, 1, TorsionBranches((_unknown(1, (), (), 0, ()),), ()))
    den = L * g
    q0, primes0, exps0 = first
    unknown = _unknown(den, primes0, [e * den // q0 for e in exps0], y, (L,))
    return PowerSystemSolution(True, None, g, 0, TorsionBranches((unknown,), (g,)))


def _solve_once(rows: list[list[int]], values: Sequence[ExactNonzeroComplex]):
    """Solve the full system, or return None if it is inconsistent.

    The branches are not built here: the argument of every branch is an
    integer numerator over one common denominator ``den``, so the solution
    keeps each unknown's magnitude, offset and per-digit steps as integer
    log data, and ``TorsionBranches`` builds a branch when it is read.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    logs = [v._log for v in values]
    # magnitude: unknown j has the exponents mag_num[j] / mag_den[j]; one
    # integer elimination of the rows [D_k M_k | exps_k], with a right-hand
    # side column per prime in the combined support; a pivot in a right-hand
    # side is an inconsistency
    primes = sorted({p for log in logs for p in log[1]})
    mag_den, mag_num = [1] * n, [[0] * len(primes) for _ in range(n)]
    if primes:
        column = {p: j for j, p in enumerate(primes, n)}
        T = []
        for row, (d, ps, exps, _) in zip(rows, logs):
            t = {j: d * x for j, x in enumerate(row) if x}
            t.update(zip(map(column.__getitem__, ps), exps))
            T.append(t)
        T, den, pivots, _ = _rref(T, n + len(primes))
        if pivots and pivots[-1] >= n:
            return None
        for row, q, c in zip(T, den, pivots):
            mag_den[c] = q
            mag_num[c] = [row.get(j, 0) for j in range(n, n + len(primes))]
    # argument, in integers: with L the lcm of the denominators, arg_k = A_k / L,
    # and D psi = U arg over Q/Z with U M V = D reads d_k psi_k = t_k / L with
    # t_k = sum_j U_kj A_j mod L
    L = math.lcm(*[log[0] for log in logs])
    A = [a * (L // d) for d, _, _, a in logs]
    U, D, V = smith_normal_form(rows)
    t = [sum(map(operator.mul, u, A)) % L for u in U]
    divisors = [D[i][i] for i in range(min(m, n))]
    divisors += [0] * (m - len(divisors))
    if any(ti and not d for ti, d in zip(t, divisors)):
        return None
    divisors = [d for d in divisors if d != 0]
    # psi_k = (t_k + j_k L) / (L d_k) = (base_k + j_k * den / d_k) / den with
    # den = L * lcm(d), and theta_i = sum_k V_ik psi_k mod 1; psi_k = 0 for k >= r.
    # Unknown i is held over lcm(den, mag_den[i]).
    r = len(divisors)
    den = L * math.lcm(*divisors)
    base = [t[k] * (den // (L * divisors[k])) for k in range(r)]
    unknowns = []
    for i in range(n):
        Di = math.lcm(den, mag_den[i])
        f, fm = Di // den, Di // mag_den[i]
        nonzero = [(p, x * fm) for p, x in zip(primes, mag_num[i]) if x]
        unknowns.append(_unknown(
            Di,
            [p for p, _ in nonzero],
            [x for _, x in nonzero],
            sum(V[i][k] * base[k] for k in range(r)) * f,
            [V[i][k] * (den // divisors[k]) * f for k in range(r)],
        ))
    branches = TorsionBranches(unknowns, divisors)
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
