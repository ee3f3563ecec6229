"""Cross-module invariants: torus equivariance of the gluing equations and
the rate constraints forcing equal multiplicities at shared nodes."""

import random
from fractions import Fraction

import pytest

from ncd_moduli.building import torus_weight
from ncd_moduli.exactnum import ExactNonzeroComplex
from ncd_moduli.levelsys import (
    GluingDirection,
    GluingNode,
    GluingProblem,
    LevelSystem,
    feasible_positive,
    solve_gluing,
)
from ncd_moduli.maptype import LevelEquation
from oracle_helpers import random_value


def _weight_factor(alpha: dict, weight: tuple) -> ExactNonzeroComplex:
    acc = ExactNonzeroComplex.one()
    for pos, w in enumerate(weight, start=1):
        if w:
            acc = acc * alpha[pos].pow(w)
    return acc


class TestTorusEquivariance:
    @pytest.mark.parametrize("seed", range(5))
    def test_gluing_solutions_invariant(self, seed):
        """Rescaling level l by alpha_l multiplies the coefficient product of
        a node spanning (lo, hi) by the torus_weight factor and each crossed
        gluing parameter by alpha_{l-1}/alpha_l; the mu solutions and branch
        counts are unchanged."""
        rng = random.Random(400 + seed)
        m = rng.randint(1, 3)
        alpha = {l: random_value(rng) for l in range(1, m + 1)}
        alpha[0] = ExactNonzeroComplex.one()
        lambdas = {l: random_value(rng) for l in range(1, m + 1)}
        nodes = []
        for idx in range(rng.randint(1, 3)):
            dirs = []
            for j in range(rng.randint(1, 2)):
                lo = rng.randint(0, m - 1)
                hi = rng.randint(lo + 1, m)
                dirs.append(
                    GluingDirection(f"d{j}", rng.randint(1, 4), random_value(rng), (lo, hi))
                )
            nodes.append(GluingNode(f"x{idx}", tuple(dirs)))
        gp = GluingProblem(tuple(nodes), tuple(sorted(lambdas.items())))
        moved_nodes = []
        for node in nodes:
            moved_dirs = []
            for d in node.directions:
                lo, hi = d.level_range
                factor = _weight_factor(alpha, torus_weight(lo, hi, m))
                moved_dirs.append(
                    GluingDirection(d.direction, d.multiplicity, d.product * factor, d.level_range)
                )
            moved_nodes.append(GluingNode(node.id, tuple(moved_dirs)))
        moved_lambdas = {
            l: alpha[l - 1] * alpha[l].inverse() * lambdas[l] for l in lambdas
        }
        moved = GluingProblem(tuple(moved_nodes), tuple(sorted(moved_lambdas.items())))
        before = solve_gluing(gp)
        after = solve_gluing(moved)
        assert before.consistent == after.consistent
        assert before.total_count == after.total_count
        for a, b in zip(before.nodes, after.nodes):
            assert set(a.solutions) == set(b.solutions)

    def test_weight_telescopes(self):
        # acting with alpha on levels multiplies prod over (lo, hi] of the
        # incremental parameters by alpha_lo / alpha_hi
        rng = random.Random(77)
        m = 4
        alpha = {l: random_value(rng) for l in range(1, m + 1)}
        alpha[0] = ExactNonzeroComplex.one()
        for lo in range(0, m):
            for hi in range(lo + 1, m + 1):
                acc = ExactNonzeroComplex.one()
                for l in range(lo + 1, hi + 1):
                    acc = acc * (alpha[l - 1] * alpha[l].inverse())
                assert acc == _weight_factor(alpha, torus_weight(lo, hi, m))


class TestForcedEqualMultiplicities:
    def test_shared_level_forces_equal_multiplicities(self):
        """A depth-2 node whose two directions sit on one level admits a
        positive rate solution only when the multiplicities agree."""
        for s1 in range(1, 5):
            for s2 in range(1, 5):
                sys_ = LevelSystem(
                    alphas=("z",),
                    betas=(1,),
                    equations=(
                        LevelEquation("x", "d1", 1, ("z",), s1),
                        LevelEquation("x", "d2", 1, ("z",), s2),
                    ),
                )
                assert (feasible_positive(sys_) is not None) == (s1 == s2)

    def test_split_levels_relate_rates(self):
        # distinct multiplicities are fine on distinct levels, with the
        # rates related by beta(l1)/s1 = beta(l2)/s2
        sys_ = LevelSystem(
            alphas=("z",),
            betas=(1, 2),
            equations=(
                LevelEquation("x", "d1", 1, ("z",), 1),
                LevelEquation("x", "d2", 2, ("z",), 2),
            ),
        )
        w = feasible_positive(sys_)
        assert w is not None
        # beta(2) - beta(1) = 2 alpha and beta(1) = alpha
        assert w[2] - w[1] == 2 * w["z"]
        assert w[1] == w["z"]


class TestGenericUnsatisfiability:
    def test_independent_products_block_constants(self):
        from ncd_moduli.maptype import (
            Component,
            ContactRecord,
            ContactSlot,
            MapType,
            Node,
            check_enhanced,
        )

        rng = random.Random(11)
        for _ in range(40):
            s1, s2 = rng.randint(1, 4), rng.randint(1, 4)
            # products powers of distinct primes: multiplicatively independent
            p1 = ExactNonzeroComplex.from_parts({2: Fraction(1)}, 0)
            p2 = ExactNonzeroComplex.from_parts({3: Fraction(1)}, 0)
            lo = ContactRecord(
                "w",
                (
                    ("d1", ContactSlot(s1, 1, 0, p1)),
                    ("d2", ContactSlot(s2, 1, 0, p2)),
                ),
            )
            hi = ContactRecord(
                "w",
                (
                    ("d1", ContactSlot(s1, -1, 1, ExactNonzeroComplex.one())),
                    ("d2", ContactSlot(s2, -1, 1, ExactNonzeroComplex.one())),
                ),
            )
            mt = MapType(
                "uniform",
                1,
                (),
                (),
                (
                    Component("a", points=(("a@z", lo),)),
                    Component("b", levels=(("d1", 1), ("d2", 1)), points=(("b@z", hi),)),
                ),
                (Node("z", ("a@z", "b@z")),),
            )
            assert not check_enhanced(mt).satisfiable
