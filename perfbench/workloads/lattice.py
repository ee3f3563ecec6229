"""exact-lattice: Smith forms and multiplicative power systems, in process.

Three parts:

* seeded k x k matrices with entries in [-9, 9] through ``smith_normal_form``
  and ``elementary_divisors``, all with k <= 5;
* ``check_enhanced`` on the smooth-divisor map type with the node
  multiplicity s over a ladder of hundreds to thousands (it builds s
  branches and reads one), beside ``solve_gluing`` on the same node (which
  reads all s);
* ``solve_power_system`` on 2 x 2 systems with a few thousand branches.

The known Smith-form blow-up is probed once per run, after the rounds: the
two matrices the ROADMAP names, ``random.seed(3)`` at k = 6 and
``random.seed(1)`` at k = 7, and one seeded matrix each at k = 6 and 7, under
a deadline.  A miss is reported as a known defect and read by the
``deadline_ratio`` metrics; it is not a failed op.
"""

from __future__ import annotations

import random
from fractions import Fraction

from exactcheck import det, matmul, max_bits
from harness import Op, Workload, Wrong

from ncd_moduli import exactnum as ex
from ncd_moduli import levelsys as ls
from ncd_moduli import maptype as mp
from ncd_moduli.exactnum import ExactNonzeroComplex, coeff_to_json, verify_solution

# Seven Smith forms below the s = 250 pair and eight ops above it put the
# median latency three quarters of the way up that pair's samples, well
# inside one class of operations rather than at the edge between two.
ROUND_KS = (2, 3, 4, 4, 5, 5, 5)
ROADMAP_PROBES = ((6, 3), (7, 1))  # (k, seed) of the known Smith-form hangs
SEEDED_PROBES = (6, 7)
# Finishing Smith forms of these sizes take at most ~0.1 s.
SMITH_DEADLINE_S = 0.5
BRANCH_LADDER = (250, 500, 1000, 2000)
POWER_SYSTEMS = ((8, 128), (16, 256))  # elementary divisors
DEADLINE_S = 10.0
# Enough rounds that the op_tail rank (11th largest) lies among the largest
# power system's ops, which each round holds once.
MIN_ROUNDS = 15
PRIMES = (2, 3, 5, 7, 11, 13)


def _rows(m) -> list[list[int]]:
    return [list(r) for r in getattr(m, "entries", m)]


def value_maker(rng: random.Random):
    """Values over two seeded primes with exponents in a given range and an
    argument of k/12, k prime to 12 (or 0).  The seed varies the values but
    not their size, so an op's cost does not depend on the seed."""
    p, q = rng.sample(PRIMES, 2)

    def value(lo: int, hi: int, turned: bool = True) -> ExactNonzeroComplex:
        arg = Fraction(rng.choice((1, 5, 7, 11)), 12) if turned else Fraction(0)
        return ExactNonzeroComplex.from_parts({p: rng.randint(lo, hi), q: rng.randint(lo, hi)}, arg)

    return value


def random_matrix(k: int, rng: random.Random) -> list[list[int]]:
    return [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)]


def smith_op(name: str, a: list[list[int]], ctx) -> Op:
    k = len(a)

    def run():
        return ex.smith_normal_form(a), ex.elementary_divisors(a)

    def check(out):
        (u, d, v), ed = out
        u, d, v = _rows(u), _rows(d), _rows(v)
        if matmul(matmul(u, a), v) != d:
            raise Wrong("U A V != D")
        if any(d[i][j] for i in range(k) for j in range(k) if i != j):
            raise Wrong("D is not diagonal")
        diag = [d[i][i] for i in range(k)]
        nonzero = [x for x in diag if x]
        if any(x < 0 for x in diag) or diag[: len(nonzero)] != nonzero:
            raise Wrong(f"diagonal {diag} is not nonnegative with zeros last")
        if any(b % a_ for a_, b in zip(nonzero, nonzero[1:])):
            raise Wrong(f"diagonal {diag} breaks the divisibility chain")
        if abs(det(u)) != 1 or abs(det(v)) != 1:
            raise Wrong("U or V is not unimodular")
        prod = 1
        for x in nonzero:
            prod *= x
        da = abs(det(a))
        if (da and prod != da) or (not da and len(nonzero) == k):
            raise Wrong(f"divisors multiply to {prod}, |det A| = {da}")
        if tuple(ed) != tuple(nonzero):
            raise Wrong(f"elementary_divisors {ed} != {nonzero}")
        ctx.note_max("uv_max_bits", max(max_bits(u), max_bits(v)))

    return Op(name, f"smith.k{k}", run, check, SMITH_DEADLINE_S)


def smooth_maptype(s: int, node: str, a, b) -> mp.MapType:
    def slot(eps, level, coeff):
        return {"direction": "d1", "s": s, "eps": eps, "level": level, "coeff": coeff_to_json(coeff)}

    return mp.maptype_from_dict({
        "building": {"mode": "uniform", "m": 1},
        "directions": {"d1": "h1"},
        "pairing": {"c1A": s, "AV": s, "chi": 2, "ell": 1},
        "components": [
            {"id": "main", "points": [{"id": "main@zs", "stratum": "h1", "slots": [slot(1, 0, a)]}]},
            {"id": "cap", "levels": {"d1": 1}, "points": [
                {"id": "cap@zs", "stratum": "h1", "slots": [slot(-1, 1, b)]},
                {"id": "cap@mk", "stratum": "h1", "slots": [slot(1, 1, a)]},
            ]},
        ],
        "nodes": [{"id": node, "ends": ["main@zs", "cap@zs"]}],
    })


def branch_ops(s: int, rng: random.Random) -> list[Op]:
    node = f"z{rng.randrange(10**6)}"
    value = value_maker(rng)
    # exponents never cancel in a*b or lam/(a*b), and only a carries an argument
    a, b, lam = value(1, 3), value(1, 3, turned=False), value(7, 9, turned=False)
    mt = smooth_maptype(s, node, a, b)
    gp = ls.gluing_from_dict({
        "levels": {"1": coeff_to_json(lam)},
        "nodes": [{"id": node, "directions": [
            {"direction": "d1", "s": s, "product": coeff_to_json(a * b), "range": [0, 1]}]}],
    })

    def check_enhanced(res):
        if not res.satisfiable or tuple(res.branch_counts) != ((node, s),) or len(res.witness) != 1:
            raise Wrong(f"enhanced result {res.satisfiable} {res.branch_counts}")
        (nid, c), = res.witness
        if nid != node or not verify_solution([[s]], [(a * b).inverse()], [c]):
            raise Wrong("witness constant does not solve c^s = 1/(a b)")

    def check_gluing(sol):
        if not sol.consistent or sol.total_count != s:
            raise Wrong(f"gluing count {sol.total_count}, expected {s}")
        (n,) = sol.nodes
        mus = list(n.solutions)
        if n.count != s or len(mus) != s or len(set(mus)) != s:
            raise Wrong(f"{len(mus)} distinct gluing parameters, expected {s}")
        if not verify_solution([[s]], [lam * (a * b).inverse()], [mus[0]]):
            raise Wrong("first gluing parameter does not solve the node equation")

    return [
        Op(f"enhanced.s{s}", "enhanced", lambda: mp.check_enhanced(mt), check_enhanced, DEADLINE_S, ladder=s),
        Op(f"gluing.s{s}", "gluing", lambda: ls.solve_gluing(gp), check_gluing, DEADLINE_S, ladder=s),
    ]


def power_system_op(d1: int, d2: int, rng: random.Random) -> Op:
    def signed_permutation():
        p = [[1, 0], [0, 1]] if rng.random() < 0.5 else [[0, 1], [1, 0]]
        return [[x * rng.choice((-1, 1)) for x in row] for row in p]

    m = matmul(matmul(signed_permutation(), [[d1, 0], [0, d2]]), signed_permutation())
    value = value_maker(rng)
    values = [value(1, 3), value(1, 3)]

    def check(sol):
        want = abs(det(m))
        if not sol.consistent or sol.branch_count != want:
            raise Wrong(f"{sol.branch_count} branches, expected |det M| = {want}")
        first, count = None, 0
        for mu in sol.solutions:
            if first is None:
                first = mu
            count += 1
        if count != want or not verify_solution(m, values, first):
            raise Wrong(f"{count} branches listed, or the first does not solve the system")

    return Op(f"powersys.{d1 * d2}", "powersys", lambda: ex.solve_power_system(m, values), check, DEADLINE_S)


def setup(seed: int, ctx) -> Workload:
    rng = random.Random(seed)
    ops = [smith_op(f"smith.k{k}", random_matrix(k, rng), ctx) for k in ROUND_KS]
    for s in BRANCH_LADDER:
        ops += branch_ops(s, rng)
    ops += [power_system_op(d1, d2, rng) for d1, d2 in POWER_SYSTEMS]
    rng.shuffle(ops)
    defects = [smith_op(f"smith.k{k}.roadmap-seed{s}", random_matrix(k, random.Random(s)), ctx)
               for k, s in ROADMAP_PROBES]
    defects += [smith_op(f"smith.k{k}.seeded", random_matrix(k, rng), ctx) for k in SEEDED_PROBES]
    warm = [op for op in ops if op.kind.startswith("smith") or op.ladder == min(BRANCH_LADDER)]
    warm += [op for op in ops if op.name == "powersys.%d" % (POWER_SYSTEMS[0][0] * POWER_SYSTEMS[0][1])]
    return Workload(round_ops=ops, defect_ops=defects, min_rounds=MIN_ROUNDS, ladder_name="s", warmup_ops=warm)
