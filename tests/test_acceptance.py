"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Tolerances are exact
(integer and rational equality) throughout; the only numeric thresholds are
the two stated wall-clock budgets.
"""

import itertools
import random
import time
from fractions import Fraction
from math import comb, lcm

from ncd_moduli import building as bd
from ncd_moduli import divisor as dv
from ncd_moduli import maptype as mp
from ncd_moduli.dimension import DimensionInput, enhanced_balance, expected_dim, naive_gap, stratum_codim
from ncd_moduli.exactnum import (
    ExactNonzeroComplex,
    elementary_divisors,
    solve_power_system,
    strict_positive_solution,
    verify_solution,
)
from ncd_moduli.fixtures import CATALOG, neck1b, neck3, smooth_level_one
from ncd_moduli.levelsys import (
    GluingDirection,
    GluingNode,
    GluingProblem,
    LevelSystem,
    beta_relations,
    build_system,
    feasible_positive,
    solve_gluing,
    torus_dim,
)
from ncd_moduli.maptype import Component, ContactRecord, ContactSlot, LevelEquation, MapType, Node
from oracle_helpers import (
    arg_grid_solutions,
    enhanced_node_oracle,
    fourier_motzkin_feasible,
    grid_positive_point,
    random_value,
)


def report(number: int, description: str, ok: bool) -> None:
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def _c(q) -> ExactNonzeroComplex:
    return ExactNonzeroComplex.from_rational(Fraction(q))


def test_criterion_1_stratification_counts():
    start = time.perf_counter()
    ok = True
    for n in (2, 3, 4):
        d = dv.local_model(n)
        for k in range(1, n + 1):
            c = dv.stratum_counts(d, k)
            ok &= c.resolution_of_vk == comb(n, k)
            ok &= c.double_resolution == k * comb(n, k)
            ok &= c.resolution_of_wk1 == (k + 1) * comb(n, k + 1)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report(1, f"local-model stratification counts ({elapsed:.3f}s)", ok)


def test_criterion_2_building_piece_counts():
    start = time.perf_counter()
    ex4dim = CATALOG["ex4dim"].build()
    ok = bd.build(ex4dim, 1).class_count() == 3
    ok &= bd.build(ex4dim, 2).class_count(depth=2) == 4
    for m in range(1, 6):
        b = bd.build(ex4dim, m)
        ok &= b.class_count(depth=2) == m * m
        ok &= b.class_count(depth=1) == m
    for k in (1, 2, 3):
        d = dv.local_model(k)
        deepest = d.strata_at(k)[0].id
        for m in range(0, 5):
            b = bd.build(d, m)
            ok &= len(b.local_labels(deepest)) == (m + 1) ** k
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report(2, f"building piece counts ({elapsed:.3f}s)", ok)


def test_criterion_3_multibuildings():
    ex4dim = CATALOG["ex4dim"].build()
    ok = True
    for m in (1, 2, 3):
        b = bd.build_multi(ex4dim, (m, m))
        deep = [r for r in b.pieces if r.depth == 2]
        ok &= {r.label.levels for r in deep} == set(
            itertools.product(range(1, m + 1), repeat=2)
        )
        ok &= all(r.base_components == 1 and r.orbit_size == 1 for r in deep)
    rejected = False
    try:
        bd.build_multi(dv.self_crossing_curve(), (1, 2))
    except ValueError:
        rejected = True
    ok &= rejected
    report(3, "multibuilding level pairs and the single-parameter obstruction", ok)


def test_criterion_4_dimension_formula():
    rng = random.Random(20260811)
    ok = True
    for _ in range(100):
        inp = DimensionInput(
            rng.randint(-10, 10),
            2 * rng.randint(1, 8),
            rng.randint(-8, 8),
            rng.randint(0, 8),
            rng.randint(0, 12),
        )
        oracle = (
            2 * Fraction(inp.c1a)
            + Fraction(inp.dim_x - 6) * Fraction(inp.chi) / 2
            + 2 * Fraction(inp.ell)
            - 2 * Fraction(inp.av)
        )
        ok &= oracle.denominator == 1 and expected_dim(inp) == oracle
    for _ in range(40):
        ell = rng.randint(1, 6)
        av = rng.randint(ell, 14)
        dims = set()
        for _ in range(6):
            cuts = sorted(rng.sample(range(1, av), ell - 1)) if ell > 1 else []
            parts = [b - a for a, b in zip([0] + cuts, cuts + [av])]
            dims.add(expected_dim(DimensionInput(4, 6, 2, len(parts), sum(parts))))
        ok &= len(dims) == 1
    report(4, "dimension formula vs independent evaluation; partition independence", ok)


def test_criterion_5_gap_balance_codim():
    rng = random.Random(5)
    ok = True
    for _ in range(200):
        depths = [rng.randint(1, 6) for _ in range(rng.randint(0, 7))]
        ok &= naive_gap(depths) == 2 * sum(1 - k for k in depths)
        ok &= enhanced_balance(depths) == 0
    ok &= stratum_codim(smooth_level_one()) == 2
    ok &= stratum_codim(neck1b()) == 2
    report(5, "naive gap, enhanced balance, stratum codimension", ok)


def test_criterion_6_gluing_multiplicity():
    rng = random.Random(66)
    ok = True
    for s in range(1, 9):
        for _ in range(8):
            lam = random_value(rng)
            p = random_value(rng)
            gp = GluingProblem(
                nodes=(GluingNode("x", (GluingDirection("d", s, p, (0, 1)),)),),
                lambdas=((1, lam),),
            )
            sol = solve_gluing(gp)
            rhs = lam * p.inverse()
            ok &= sol.consistent and sol.total_count == s
            ok &= set(sol.nodes[0].solutions) == rhs.roots(s)
    # two directions sharing one gluing parameter, all s_i <= 4
    def small_value(consistent_with=None, s=1):
        if consistent_with is not None:
            return consistent_with.pow(s)
        mag = {p: Fraction(rng.randint(-2, 2)) for p in (2, 3) if rng.random() < 0.6}
        return ExactNonzeroComplex.from_parts(mag, Fraction(rng.randrange(2), 2))

    for s1, s2 in itertools.product(range(1, 5), repeat=2):
        for _ in range(6):
            if rng.random() < 0.5:
                mu = small_value()
                rhs1, rhs2 = mu.pow(s1), mu.pow(s2)
            else:
                rhs1, rhs2 = small_value(), small_value()
            gp = GluingProblem(
                nodes=(
                    GluingNode(
                        "x",
                        (
                            GluingDirection("d1", s1, rhs1.inverse(), (0, 1)),
                            GluingDirection("d2", s2, rhs2.inverse(), (0, 1)),
                        ),
                    ),
                ),
                lambdas=((1, ExactNonzeroComplex.one()),),
            )
            sol = solve_gluing(gp)
            # brute force: forced magnitude, argument grid of order <= 24
            L = lcm(
                s1 * rhs1.arg.denominator, s2 * rhs2.arg.denominator, s1, s2
            )
            assert L <= 24
            count = 0
            forced = {}
            consistent_mag = True
            for prime in {p for v in (rhs1, rhs2) for p, _ in v.mag}:
                e1 = Fraction(rhs1.mag_dict.get(prime, Fraction(0)), s1)
                e2 = Fraction(rhs2.mag_dict.get(prime, Fraction(0)), s2)
                if e1 != e2:
                    consistent_mag = False
                forced[prime] = e1
            if consistent_mag:
                for j in range(L):
                    theta = Fraction(j, L)
                    if (s1 * theta - rhs1.arg) % 1 == 0 and (s2 * theta - rhs2.arg) % 1 == 0:
                        count += 1
            ok &= sol.total_count == count
            ok &= sol.consistent == (count > 0)
    report(6, "gluing solution counts vs root enumeration", ok)


def test_criterion_7_level_system():
    sys_ = build_system(neck1b())
    witness = feasible_positive(sys_)
    ok = witness is not None
    if witness:
        ok &= all(v > 0 for v in witness.values())
        ok &= witness[2] == 2 * witness[1]
    ok &= torus_dim(sys_) == 1
    ok &= beta_relations(sys_) == ((Fraction(-2), Fraction(1)),)
    conflicting = LevelSystem(
        alphas=("a1",),
        betas=(1,),
        equations=(
            LevelEquation("x", "d1", 1, ("a1",), 1),
            LevelEquation("x", "d2", 1, ("a1",), 2),
        ),
    )
    ok &= feasible_positive(conflicting) is None
    report(7, "neck1b level system: feasibility, rates, torus dimension", ok)


def _random_node_maptype(rng: random.Random, depth: int):
    """One node of the given depth with naive-consistent random decorations."""
    dirs = [f"d{i+1}" for i in range(depth)]
    s_list = [rng.choice([1, 2, 4]) for _ in dirs]
    lower, upper = {}, {}
    for d, s in zip(dirs, s_list):
        mag = {p: Fraction(rng.randint(-2, 2)) for p in (2, 3) if rng.random() < 0.6}
        a_minus = ExactNonzeroComplex.from_parts(
            mag, Fraction(rng.randrange(3), rng.choice([1, 3]))
        )
        if rng.random() < 0.5:
            c = ExactNonzeroComplex.from_parts(
                {5: Fraction(rng.randint(-1, 1))}, Fraction(rng.randrange(2), 2)
            )
            a_plus = a_minus.inverse() * c.pow(-s)
        else:
            a_plus = ExactNonzeroComplex.from_parts(
                {p: Fraction(rng.randint(-2, 2)) for p in (2, 3) if rng.random() < 0.6},
                Fraction(rng.randrange(3), rng.choice([1, 3])),
            )
        lower[d] = a_minus
        upper[d] = a_plus
    rec_lo = ContactRecord(
        "w", tuple((d, ContactSlot(s, 1, 0, lower[d])) for d, s in zip(dirs, s_list))
    )
    rec_hi = ContactRecord(
        "w", tuple((d, ContactSlot(s, -1, 1, upper[d])) for d, s in zip(dirs, s_list))
    )
    main = Component("main", points=(("main@z", rec_lo),))
    cap = Component(
        "cap",
        levels=tuple((d, 1) for d in dirs),
        points=(("cap@z", rec_hi),),
    )
    mt = MapType(
        "uniform", 1, (), (), (main, cap), (Node("z", ("main@z", "cap@z")),)
    )
    products = [lower[d] * upper[d] for d in dirs]
    return mt, s_list, products


def test_criterion_8_enhanced_matching_oracle():
    ok = True
    for name in ("neck1a", "neck1b", "neck2", "neck3"):
        mt = CATALOG[name].build()
        res = mp.check_enhanced(mt)
        branch = dict(res.branch_counts)
        for n in mt.nodes:
            ra, rb = mt.record(n.ends[0]), mt.record(n.ends[1])
            s_list, products = [], []
            for d in ra.directions:
                sa, sb = ra.slot(d), rb.slot(d)
                if sb is None or sa.eps == 0 or sb.eps == 0:
                    continue
                s_list.append(sa.s)
                products.append(sa.coeff * sb.coeff)
            if not s_list:
                continue
            L = lcm(*[s * p.arg.denominator for s, p in zip(s_list, products)])
            count = enhanced_node_oracle(s_list, products, L)
            ok &= res.satisfiable and count == branch[n.id] and count > 0
    rng = random.Random(88)
    done = 0
    while done < 200:
        depth = rng.choice([1, 2])
        mt, s_list, products = _random_node_maptype(rng, depth)
        L = lcm(*[s * p.arg.denominator for s, p in zip(s_list, products)])
        if L > 24:
            continue
        done += 1
        try:
            res = mp.check_enhanced(mt)
        except ValueError:
            ok = False
            continue
        count = enhanced_node_oracle(s_list, products, L)
        ok &= res.satisfiable == (count > 0)
        if res.satisfiable:
            ok &= dict(res.branch_counts)["z"] == count
            c = dict(res.witness)["z"]
            for s, p in zip(s_list, products):
                ok &= (p * c.pow(s)).is_one()
    report(8, "enhanced matching vs brute-force constant enumeration", ok)


def test_criterion_9_exact_arithmetic():
    rng = random.Random(99)
    ok = True
    # group laws, 1000 cases
    for _ in range(1000):
        a, b, c = (random_value(rng) for _ in range(3))
        ok &= (a * b) * c == a * (b * c)
        ok &= a * b == b * a
        ok &= (a * a.inverse()).is_one()
        ok &= a.pow(-1) == a.inverse()
    # roots, 1000 cases
    for _ in range(1000):
        a = random_value(rng)
        n = rng.randint(1, 6)
        rs = a.roots(n)
        ok &= len(rs) == n and all(r.pow(n) == a for r in rs)
    # power systems vs grid oracle, 1000 cases
    done = 0
    while done < 1000:
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        M = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.6:
            mu = [random_value(rng, primes=(2, 3), arg_dens=(1, 2, 4)) for _ in range(n)]
            values = []
            for row in M:
                acc = ExactNonzeroComplex.one()
                for e, x in zip(row, mu):
                    acc = acc * x.pow(e)
                values.append(acc)
        else:
            values = [
                random_value(rng, primes=(2, 3), arg_dens=(1, 2, 4)) for _ in range(m)
            ]
        divisors = elementary_divisors(M) or (1,)
        L = lcm(*divisors) * lcm(1, *[v.arg.denominator for v in values])
        if L > 24:
            continue
        done += 1
        sol = solve_power_system(M, values)
        grid = arg_grid_solutions(M, [v.arg for v in values], L)
        mag_ok = True
        for prime in {p for v in values for p, _ in v.mag}:
            rhs = [v.mag_dict.get(prime, Fraction(0)) for v in values]
            from oracle_helpers import _rational_system_consistent

            mag_ok &= _rational_system_consistent(M, rhs)
        ok &= sol.consistent == (bool(grid) and mag_ok)
        if sol.consistent:
            for s in sol.solutions:
                ok &= verify_solution(M, values, s)
            if sol.kernel_rank == 0:
                ok &= len(grid) == sol.branch_count
    # strict positivity vs exact elimination oracle, plus the literal grid
    # probe in low dimension where it is exhaustive
    for _ in range(300):
        n = rng.randint(1, 4)
        m = rng.randint(1, 3)
        A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        witness = strict_positive_solution(A)
        feasible = fourier_motzkin_feasible(A)
        ok &= (witness is not None) == feasible
        if witness is not None:
            ok &= all(x > 0 for x in witness)
            ok &= all(sum(a * x for a, x in zip(row, witness)) == 0 for row in A)
        if n <= 2:
            point = grid_positive_point(A, denominator=8, bound=8)
            ok &= (point is not None) == feasible
    report(9, "exact arithmetic property suites and cone feasibility oracle", ok)


def test_criterion_10_fixture_integrity():
    ok = True
    for name, entry in CATALOG.items():
        text = entry.text()
        if entry.kind == "divisor":
            d = dv.loads(text)
            ok &= dv.dumps(d) == text
            ok &= dv.validate(d) == []
        else:
            mt = mp.loads(text)
            ok &= mp.dumps(mt) == text
            ok &= mp.validate_structure(mt) == []
            ok &= mp.check_naive(mt) == []
            ok &= mp.check_broken_cylinders(mt) == []
            ok &= mp.check_enhanced(mt).satisfiable
            ok &= mp.check_relative_stability(mt)
            ok &= sum(mt.record(p).degree() for p in mt.marked_point_ids()) == mt.av
    gutted = neck3()
    gutted = MapType(
        gutted.building_mode,
        gutted.m,
        gutted.levels_by_component,
        gutted.direction_components,
        tuple(c for c in gutted.components if c.trivial),
        (),
        gutted.c1a,
        gutted.av,
        gutted.chi,
        gutted.ell,
    )
    ok &= not mp.check_relative_stability(gutted)
    report(10, "fixture integrity and the neck3 stability counterexample", ok)
