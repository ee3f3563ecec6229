"""Independent brute-force oracles used by the test suite.

These deliberately avoid the code paths they check: Fourier-Motzkin for cone
feasibility, integer grid enumeration for Q/Z congruences, and direct
substitution certificates for everything else.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from ncd_moduli.building import (
    DivisorStratumLabel,
    LevelBuilding,
    PieceLabel,
    PieceRecord,
    _orbit,
    _orbit_signed,
)
from ncd_moduli.exactnum import ExactNonzeroComplex, smith_normal_form, solve_linear, solve_power_system
from ncd_moduli.maptype import EnhancedResult


# -- Fourier-Motzkin feasibility of {A v = 0, v >= 1} -------------------------

def fourier_motzkin_feasible(A) -> bool:
    """Exact feasibility of {A v = 0, v >= 1} by variable elimination."""
    rows = [[Fraction(x) for x in row] for row in A]
    if not rows:
        return False
    n = len(rows[0])
    # inequalities c . v <= d
    ineqs = []
    for row in rows:
        ineqs.append((list(row), Fraction(0)))
        ineqs.append(([-x for x in row], Fraction(0)))
    for j in range(n):
        e = [Fraction(0)] * n
        e[j] = Fraction(-1)
        ineqs.append((e, Fraction(-1)))  # -v_j <= -1
    for j in range(n):
        pos = [iq for iq in ineqs if iq[0][j] > 0]
        neg = [iq for iq in ineqs if iq[0][j] < 0]
        rest = [iq for iq in ineqs if iq[0][j] == 0]
        new = list(rest)
        for cp, dp in pos:
            for cn, dn in neg:
                a, b = cp[j], -cn[j]
                coeffs = [b * x + a * y for x, y in zip(cp, cn)]
                new.append((coeffs, b * dp + a * dn))
        ineqs = new
    return all(d >= 0 for _, d in ineqs)


def grid_positive_point(A, denominator: int = 8, bound: int = 8):
    """Search the grid {k/denominator <= bound} for a strictly positive solution.

    Incomplete in general; used only as a secondary probe where the primal
    witness or Fourier-Motzkin already settles feasibility.
    """
    rows = [[Fraction(x) for x in row] for row in A]
    n = len(rows[0])
    values = [Fraction(k, denominator) for k in range(1, bound * denominator + 1)]
    for cand in itertools.product(values, repeat=n):
        if all(sum(a * x for a, x in zip(row, cand)) == 0 for row in rows):
            return cand
    return None


# -- reference Fraction implementations of the exact LP core -------------------
#
# The library pivots on integers; these are the plain Fraction tableaus it
# replaced.  The elimination routines (rref, nullspace, solve_linear) follow
# the same pivot rules, so the library must return exactly these values.  The
# library's LP substitutes two-term rows out before its simplex, so its
# witness may differ from reference_strict_positive_solution's; only whether
# one exists must agree.

def reference_rref(rows):
    """Reduced row echelon form on Fractions; returns (rows, pivot columns)."""
    M = [[Fraction(x) for x in row] for row in rows]
    if not M:
        return [], []
    ncols = len(M[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(M)) if M[i][c] != 0), None)
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        pv = M[r][c]
        M[r] = [x / pv for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == len(M):
            break
    return M, pivots


def reference_nullspace(rows):
    """Basis of {v : A v = 0} read off ``reference_rref``: one vector per
    free column f, with 1 at f and -R[i][f] at pivot column i."""
    R, pivots = reference_rref(rows)
    if not R:
        return ()
    n = len(R[0])
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -R[i][f]
        basis.append(tuple(v))
    return tuple(basis)


def reference_beta_relations(sys) -> tuple[int, tuple[tuple[Fraction, ...], ...]]:
    """(torus_dim, beta_relations) of a level system by the two-kernel route.

    The solutions of sys.rows() (every vector when there are no rows) are
    projected onto the betas; torus_dim is the rank of the projection, and
    the relations are the ``reference_nullspace`` basis of the projection,
    each made a primitive integer vector with its last nonzero entry
    positive, sorted.
    """
    na, nb = len(sys.alphas), len(sys.betas)
    rows = sys.rows()
    if rows:
        projected = [v[na:] for v in reference_nullspace(rows)]
    else:
        projected = [[Fraction(int(i == j)) for j in range(nb)] for i in range(nb)]
    if not nb:
        return 0, ()
    dim = _rank(projected)
    relations = []
    for rel in reference_nullspace(projected or [[Fraction(0)] * nb]):
        scale = lcm(*(x.denominator for x in rel))
        ints = [int(x * scale) for x in rel]
        g = math.gcd(*ints)
        last = next(v for v in reversed(ints) if v)
        relations.append(tuple(Fraction(v // g * (1 if last > 0 else -1)) for v in ints))
    return dim, tuple(sorted(relations))


def reference_solve_linear(rows, b):
    """The solution of A x = b with every free variable 0, read off the
    ``reference_rref`` of [A | b], or None if inconsistent."""
    n = len(rows[0])
    R, pivots = reference_rref([list(row) + [rhs] for row, rhs in zip(rows, b)])
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = R[i][n]
    return tuple(x)


def reference_phase_one_feasible(A, b):
    """Phase-1 simplex with Bland's rule on a Fraction tableau: x >= 0 with
    A x = b, else None."""
    m = len(A)
    n = len(A[0]) if m else 0
    if m == 0:
        return [Fraction(0)] * n
    T = []
    for i in range(m):
        row = list(A[i])
        rhs = b[i]
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
        T.append(row + [Fraction(int(j == i)) for j in range(m)] + [rhs])
    basis = [n + i for i in range(m)]
    while True:
        art_rows = [i for i in range(m) if basis[i] >= n]
        entering = None
        for j in range(n):
            if j in basis:
                continue
            if sum(T[i][j] for i in art_rows) > 0:
                entering = j
                break
        if entering is None:
            break
        leave = None
        best = None
        for i in range(m):
            if T[i][entering] > 0:
                ratio = T[i][-1] / T[i][entering]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise ArithmeticError("phase-1 objective unbounded; inconsistent tableau")
        pv = T[leave][entering]
        T[leave] = [x / pv for x in T[leave]]
        for i in range(m):
            if i != leave and T[i][entering] != 0:
                f = T[i][entering]
                T[i] = [a - f * c for a, c in zip(T[i], T[leave])]
        basis[leave] = entering
    if sum(T[i][-1] for i in range(m) if basis[i] >= n) != 0:
        return None
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i][-1]
    return x


def reference_strict_positive_solution(A):
    """v > 0 with A v = 0 through {A w = -A*1, w >= 0} and v = w + 1, else None."""
    M = [[Fraction(x) for x in row] for row in A]
    w = reference_phase_one_feasible(M, [-sum(row) for row in M])
    return None if w is None else tuple(x + 1 for x in w)


# -- argument-grid oracle for power systems -----------------------------------

def arg_grid_solutions(M, args, L):
    """All theta in (Z/L)^n with M theta = args (mod 1), as tuples of j/L.

    args entries must have denominators dividing L.
    """
    rows = [[int(x) for x in row] for row in M]
    rhs = [int(Fraction(a) * L) % L for a in args]
    n = len(rows[0]) if rows else 0
    return [
        tuple(Fraction(j, L) for j in theta)
        for theta in itertools.product(range(L), repeat=n)
        if all(sum(c * t for c, t in zip(row, theta)) % L == r for row, r in zip(rows, rhs))
    ]


def reference_power_branches(M, values):
    """Every torsion branch of prod_j mu_j^{M[k][j]} = values[k], built
    eagerly on Fractions in ``itertools.product`` order, or None if the
    system is inconsistent.

    This is the enumeration the library replaced by lazy integer branches; it
    uses the same Smith form and magnitude solve, so the library must return
    exactly these branches in this order.
    """
    rows = [[int(x) for x in row] for row in M]
    m = len(rows)
    n = len(rows[0]) if m else 0
    primes = sorted({p for v in values for p, _ in v.mag})
    mag_parts = {}
    for p in primes:
        sol = solve_linear(rows, [v.mag_dict.get(p, Fraction(0)) for v in values])
        if sol is None:
            return None
        mag_parts[p] = sol
    args = [v.arg for v in values]
    branch_sets = []
    if m:
        U, D, V = smith_normal_form(rows)
        t = [sum(Fraction(U[i][j]) * args[j] for j in range(m)) % 1 for i in range(m)]
        divisors = [D[i][i] for i in range(min(m, n))]
        r = sum(1 for d in divisors if d != 0)
        for i in range(m):
            if (divisors[i] if i < len(divisors) else 0) == 0 and t[i] != 0:
                return None
        branch_sets = [[(t[i] + j) / divisors[i] for j in range(divisors[i])] for i in range(r)]
    solutions = []
    for combo in itertools.product(*branch_sets):
        psi = list(combo) + [Fraction(0)] * (n - len(combo))
        theta = [
            sum(Fraction(V[i][k]) * psi[k] for k in range(n)) % 1 for i in range(n)
        ] if m else [Fraction(0)] * n
        solutions.append(tuple(
            ExactNonzeroComplex.from_parts(
                {p: mag_parts[p][j] for p in primes if mag_parts[p][j] != 0}, theta[j]
            )
            for j in range(n)
        ))
    return tuple(solutions)


def power_system_oracle_consistent(M, values, L) -> bool:
    """Brute-force consistency of a power system.

    The magnitudes are consistent iff for every prime the rational system
    M x = e_p has a solution, which ``_rational_system_consistent`` decides
    by comparing ranks from its own Fraction elimination.  Arguments are
    enumerated on the j/L grid.
    """
    rows = [[int(x) for x in row] for row in M]
    primes = sorted({p for v in values for p, _ in v.mag})
    for p in primes:
        rhs = [v.mag_dict.get(p, Fraction(0)) for v in values]
        if not _rational_system_consistent(rows, rhs):
            return False
    return bool(arg_grid_solutions(rows, [v.arg for v in values], L))


def _rational_system_consistent(rows, rhs) -> bool:
    # rank check by independent elimination (plain Fractions, fresh code)
    aug = [list(map(Fraction, r)) + [Fraction(x)] for r, x in zip(rows, rhs)]
    plain = [list(map(Fraction, r)) for r in rows]
    return _rank(aug) == _rank(plain)


def _rank(mat) -> int:
    mat = [row[:] for row in mat]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][c] != 0:
                f = mat[i][c] / mat[rank][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


# -- random exact values -------------------------------------------------------

PRIMES = (2, 3, 5, 7)


def random_value(rng: random.Random, primes=PRIMES, arg_dens=(1, 2, 3, 4, 6, 8)) -> ExactNonzeroComplex:
    mag = {}
    for p in primes:
        if rng.random() < 0.5:
            e = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            if e:
                mag[p] = e
    d = rng.choice(arg_dens)
    return ExactNonzeroComplex.from_parts(mag, Fraction(rng.randrange(d), d))


def reference_factor(n: int) -> dict[int, int]:
    """Prime factorisation of n >= 1 by plain trial division over every d >= 2."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def lcm(*xs: int) -> int:
    return math.lcm(*xs)


# -- Fraction reference arithmetic for exact values ----------------------------
#
# The normal-form arithmetic the value type ran on before it moved to integer
# log coordinates.  A reference value is a pair (mag, arg): mag the (prime,
# Fraction exponent) pairs sorted by prime with nonzero exponents, and arg a
# Fraction in [0, 1).

def ref_value(mag, arg=0):
    """The reference normal form of exponents by prime and an argument."""
    acc: dict[int, Fraction] = {}
    for p, e in dict(mag).items():
        acc[p] = acc.get(p, Fraction(0)) + Fraction(e)
    return tuple(sorted((p, e) for p, e in acc.items() if e)), Fraction(arg) % 1


def ref_add_mag(a, b):
    """The normal-form magnitude of the product of two normal-form magnitudes."""
    acc = dict(a)
    for p, e in b:
        e = acc[p] + e if p in acc else e
        if e:
            acc[p] = e
        else:
            del acc[p]
    return tuple(sorted(acc.items()))


def ref_mul(x, y):
    return ref_add_mag(x[0], y[0]), (x[1] + y[1]) % 1


def ref_inverse(x):
    return tuple((p, -e) for p, e in x[0]), -x[1] % 1


def ref_pow(x, q):
    q = Fraction(q)
    if not q:
        return (), Fraction(0)
    return tuple((p, e * q) for p, e in x[0]), x[1] * q % 1


def ref_roots(x, n: int):
    return {(tuple((p, e / n) for p, e in x[0]), (x[1] + j) / n) for j in range(n)}


def ref_str(x) -> str:
    mag = "*".join(f"{p}^{e}" if e != 1 else str(p) for p, e in x[0]) or "1"
    return f"({mag}, {x[1]} turn)"


def ref_repr(x) -> str:
    return f"ExactNonzeroComplex(mag={x[0]!r}, arg={x[1]!r})"


def ref_json(x) -> dict:
    return {"primes": {str(p): str(e) for p, e in x[0]}, "arg": str(x[1])}


# -- enhanced-matching node oracle ---------------------------------------------

def enhanced_node_oracle(s_list, products, L):
    """Solutions c of c^{s_i} * products[i] = 1 by direct enumeration.

    The magnitude exponents of c are forced per prime; candidate arguments
    run over the j/L grid, which is exhaustive when every solution's order
    divides L.  Returns the number of solutions found.
    """
    mag = {}
    for p in {prime for prod in products for prime, _ in prod.mag}:
        candidate = None
        for s, prod in zip(s_list, products):
            need = Fraction(-prod.mag_dict.get(p, Fraction(0)), s)
            if candidate is None:
                candidate = need
            elif candidate != need:
                return 0
        mag[p] = candidate
    count = 0
    for j in range(L):
        theta = Fraction(j, L)
        if all((s * theta + prod.arg) % 1 == 0 for s, prod in zip(s_list, products)):
            count += 1
    return count


def reference_check_enhanced(mt) -> EnhancedResult:
    """Enhanced matching through the general solver: one ``solve_power_system``
    per node on the rows [s] and right-hand sides 1/(a(y-) a(y+)), the witness
    read off the first torsion branch.  ``maptype.check_enhanced`` runs an
    integer pass instead and must give the same result."""
    witness, branches = [], []
    for n in mt.nodes:
        a, b = n.ends
        ra, rb = mt.record(a), mt.record(b)
        rows, rhs, dirs = [], [], []
        for d, sa in ra.slots:
            sb = rb.slot(d)
            if sb is None or sa.eps == 0 or sb.eps == 0:
                continue
            if sa.coeff is None or sb.coeff is None:
                raise ValueError(f"{n.id}: undecorated coefficient in {d}")
            if sa.s is None:
                raise ValueError(f"{n.id}: undefined multiplicity in {d}")
            rows.append([sa.s])
            rhs.append((sa.coeff * sb.coeff).inverse())
            dirs.append(d)
        if not rows:
            continue
        sol = solve_power_system(rows, rhs)
        if not sol.consistent:
            d = dirs[sol.violated_equation]
            return EnhancedResult(False, (), (), failure=f"{n.id}: no gluing constant matches direction {d}")
        witness.append((n.id, sol.solutions[0][0]))
        branches.append((n.id, sol.branch_count))
    return EnhancedResult(True, tuple(witness), tuple(branches))


# -- level buildings ------------------------------------------------------------

def reference_build(d, mode: str, bounds) -> LevelBuilding:
    """The building as the first builder enumerated it.

    Every signed label is its own orbit computation, the attaching partner is
    a further orbit, and each stratum rescans the whole label list for its +1
    labels.  Slow, but it shares no bookkeeping with ``building._builder``.
    """
    m = max(bounds.values(), default=0)
    pieces = [PieceRecord(PieceLabel(d.depth0().id, ()), 0, 1, 1)]
    strata_labels = []
    pairs = []
    for s in sorted(d.strata, key=lambda s: (s.depth, s.id)):
        slot_bounds = [bounds[ref] for ref in s.slots]
        if s.depth >= 1:
            seen = set()
            for lv in itertools.product(*[range(1, b + 1) for b in slot_bounds]):
                if lv in seen:
                    continue
                orb = _orbit(lv, s.monodromy)
                seen |= orb
                pieces.append(
                    PieceRecord(PieceLabel(s.id, min(orb)), s.depth, len(orb), s.normalization_components)
                )
        seen_signed = set()
        for lv in itertools.product(*[range(b + 1) for b in slot_bounds]):
            for slot in range(s.depth):
                for sign in (1, -1):
                    if sign == -1 and lv[slot] == 0:
                        continue
                    if (lv, slot, sign) in seen_signed:
                        continue
                    orb = _orbit_signed((lv, slot), s.monodromy)
                    seen_signed |= {(l, sl, sign) for l, sl in orb}
                    rep_lv, rep_slot = min(orb)
                    strata_labels.append(DivisorStratumLabel(s.id, rep_lv, rep_slot, sign))
        for label in [x for x in strata_labels if x.stratum == s.id and x.sign == 1]:
            if label.levels[label.slot] >= slot_bounds[label.slot]:
                continue
            up = list(label.levels)
            up[label.slot] += 1
            rep_lv, rep_slot = min(_orbit_signed((tuple(up), label.slot), s.monodromy))
            pairs.append((label, DivisorStratumLabel(s.id, rep_lv, rep_slot, -1)))
    return LevelBuilding(
        divisor=d,
        mode=mode,
        levels_by_component=tuple(sorted(bounds.items())),
        m=m,
        pieces=tuple(pieces),
        divisor_strata=tuple(strata_labels),
        attaching=tuple(pairs),
    )
