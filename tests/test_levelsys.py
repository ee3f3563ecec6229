import dataclasses
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncd_moduli import levelsys, maptype
from ncd_moduli.dimension import stratum_codim
from ncd_moduli.exactnum import ExactNonzeroComplex, linalg, strict_positive_solution
from ncd_moduli.fixtures import neck1a, neck1b, neck2, neck3, smooth_level_one
from ncd_moduli.levelsys import (
    GluingDirection,
    GluingNode,
    GluingProblem,
    LevelSystem,
    asymptotic_classes,
    beta_relations,
    build_system,
    feasible_positive,
    gluing_dumps,
    gluing_loads,
    gluing_problem_from_maptype,
    solve_gluing,
    torus_dim,
)
from ncd_moduli.maptype import (
    Component,
    LevelEquation,
    MapType,
    Node,
    check_broken_cylinders,
    check_enhanced,
    check_naive,
    check_relative_stability,
    validate_structure,
)
from oracle_helpers import random_value, reference_beta_relations


def _c(q):
    return ExactNonzeroComplex.from_rational(Fraction(q))


class TestBuildSystem:
    def test_smooth_single_node(self):
        sys = build_system(smooth_level_one())
        assert len(sys.equations) == 1
        eq = sys.equations[0]
        assert eq.multiplicity == 3 and eq.level == 1
        assert sys.betas == (1,)

    def test_neck1b_shape(self):
        sys = build_system(neck1b())
        assert set(sys.alphas) == {"z1", "z2", "z3", "z4", "z5"}
        assert sys.betas == (1, 2)
        assert {eq.multiplicity for eq in sys.equations} == {1, 2}
        # every equation has nonempty support
        assert all(eq.nodes for eq in sys.equations)

    def test_neck2_multi_betas(self):
        sys = build_system(neck2())
        assert sys.betas == (("v1", 1), ("v2", 1))


class TestFeasibility:
    @pytest.mark.parametrize("build", [smooth_level_one, neck1a, neck1b, neck2, neck3])
    def test_fixtures_feasible(self, build):
        sys = build_system(build())
        w = feasible_positive(sys)
        assert w is not None
        assert all(v > 0 for v in w.values())
        for row, names in zip(
            sys.rows(), [None] * len(sys.rows())
        ):
            unknowns = list(sys.alphas) + list(sys.betas)
            assert sum(c * w[u] for c, u in zip(row, unknowns)) == 0

    def test_neck1b_rate_relation(self):
        sys = build_system(neck1b())
        w = feasible_positive(sys)
        assert w[2] == 2 * w[1]

    def test_smooth_witness(self):
        sys = build_system(smooth_level_one())
        w = feasible_positive(sys)
        assert 3 * w["zs"] == w[1]

    def test_conflicting_toy_system(self):
        sys = LevelSystem(
            alphas=("a1",),
            betas=(1,),
            equations=(
                LevelEquation("x", "d1", 1, ("a1",), 1),
                LevelEquation("x", "d2", 1, ("a1",), 2),
            ),
        )
        assert feasible_positive(sys) is None

    def test_no_equations_all_ones(self):
        sys = LevelSystem(("a1",), (1, 2), ())
        assert feasible_positive(sys) == {"a1": 1, 1: 1, 2: 1}

    def test_multiplicity_zero(self):
        # the node's entry is 0, which the sparse rows leave out: -b(1) = 0
        sys = LevelSystem(("a",), (1,), (LevelEquation("x", "d1", 1, ("a",), 0),))
        assert sys.rows() == ((0, -1),)
        assert (feasible_positive(sys), torus_dim(sys), beta_relations(sys)) == (None, 0, ((1,),))


def disjoint_copies(mt: MapType, n: int) -> MapType:
    """n disjoint copies of a map type, every component, point and node id
    prefixed by the copy's index; the copies share the scaling directions."""

    def copy(i: int) -> tuple[list[Component], list[Node]]:
        tag = f"c{i}."
        comps = [
            dataclasses.replace(c, id=tag + c.id, points=tuple((tag + pid, rec) for pid, rec in c.points))
            for c in mt.components
        ]
        nodes = [Node(tag + nd.id, (tag + nd.ends[0], tag + nd.ends[1])) for nd in mt.nodes]
        return comps, nodes

    copies = [copy(i) for i in range(n)]
    return dataclasses.replace(
        mt,
        components=tuple(c for comps, _ in copies for c in comps),
        nodes=tuple(nd for _, nodes in copies for nd in nodes),
        av=mt.av * n,
    )


class TestScaling:
    def test_neck2_copies_feasible_fast(self):
        n = 30
        sys = build_system(disjoint_copies(neck2(), n))
        assert (len(sys.equations), len(sys.alphas), len(sys.betas)) == (4 * n, 3 * n, 2)
        start = time.perf_counter()
        witness = feasible_positive(sys)
        dim = torus_dim(sys)
        elapsed = time.perf_counter() - start
        assert witness is not None and all(v > 0 for v in witness.values())
        assert dim == 1
        assert elapsed < 3.0, f"feasible_positive + torus_dim took {elapsed:.2f} s"

    def test_neck2_copies_160_feasible_fast(self):
        # the level matrix is block-angular and sparse: 640 x 482 with 1,440 nonzeros
        sys = build_system(disjoint_copies(neck2(), 160))
        start = time.perf_counter()
        witness = feasible_positive(sys)
        dim = torus_dim(sys)
        elapsed = time.perf_counter() - start
        assert witness is not None and all(v > 0 for v in witness.values())
        assert dim == 1
        assert elapsed < 1.5, f"feasible_positive + torus_dim took {elapsed:.2f} s"

    def test_neck2_copies_320_feasible_fast(self):
        # 1,280 x 962; the presolve substitutes out every equation
        sys = build_system(disjoint_copies(neck2(), 320))
        start = time.perf_counter()
        witness = feasible_positive(sys)
        dim = torus_dim(sys)
        elapsed = time.perf_counter() - start
        assert witness is not None and all(v > 0 for v in witness.values())
        assert dim == 1
        assert elapsed < 1.5, f"feasible_positive + torus_dim took {elapsed:.2f} s"

    def test_neck2_copies_analysis_linear(self):
        mt = disjoint_copies(neck2(), 160)
        start = time.perf_counter()
        problems = validate_structure(mt) + check_naive(mt) + check_broken_cylinders(mt)
        sys = build_system(mt)
        elapsed = time.perf_counter() - start
        assert problems == []
        assert len(sys.equations) == 4 * 160
        assert elapsed < 1.0, f"validators + build_system took {elapsed:.2f} s"


def _counting(monkeypatch, module, name: str) -> list:
    """Replace module.name by a wrapper that records each call's arguments."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestColumnSystems:
    """Every library power system has one unknown, so none builds a Smith form."""

    @pytest.mark.parametrize(
        "build",
        [smooth_level_one, neck1a, neck1b, neck2, neck3, lambda: disjoint_copies(neck2(), 8)],
        ids=["smooth_level_one", "neck1a", "neck1b", "neck2", "neck3", "neck2x8"],
    )
    def test_check_enhanced_builds_no_smith_form(self, monkeypatch, build):
        from ncd_moduli.exactnum import powersys

        smith = _counting(monkeypatch, powersys, "smith_normal_form")
        systems = _counting(monkeypatch, powersys, "solve_power_system")
        built = _counting(monkeypatch, powersys.TorsionBranches, "__init__")
        passes = _counting(monkeypatch, maptype, "_column_pass")
        mt = build()
        res = check_enhanced(mt)
        assert res.satisfiable, res.failure
        # one integer pass per node, and no solution or branches built
        assert len(passes) == len(res.branch_counts) > 0
        assert systems == [] and built == []
        assert not hasattr(maptype, "solve_power_system")
        assert smith == []
        gp = gluing_problem_from_maptype(mt)
        gp = dataclasses.replace(gp, lambdas=tuple((l, _c(1)) for l in range(1, 4)))
        gluings = _counting(monkeypatch, levelsys, "solve_power_system")
        assert solve_gluing(gp).consistent
        assert len(gluings) == len(gp.nodes)
        assert smith == []


class TestAnalysedOnce:
    def test_one_contraction_and_one_walk_per_fiber(self, monkeypatch):
        contractions = _counting(monkeypatch, maptype, "contraction")
        walks = _counting(monkeypatch, maptype, "walk_fiber")
        mt = neck2()
        assert validate_structure(mt) == []
        assert check_broken_cylinders(mt) == []
        build_system(mt)
        assert stratum_codim(mt) == 2
        gluing_problem_from_maptype(mt)
        assert len(contractions) == 1
        assert sorted(f.base_id for _, f in walks) == sorted(f.base_id for f in mt.fibers)

    def test_level_matrix_nullspace_once(self, monkeypatch):
        # the level matrix is eliminated once across torus_dim + beta_relations + torus_dim
        sys = build_system(neck2())
        calls = _counting(monkeypatch, levelsys, "_rref")
        assert torus_dim(sys) == 1
        assert len(beta_relations(sys)) == 1
        assert torus_dim(sys) == 1
        assert len(calls) == 1

    def test_validate_levels_dim_classes_once(self, monkeypatch):
        structure = _counting(monkeypatch, maptype, "_structure_violations")
        naive = _counting(monkeypatch, maptype, "_naive_violations")
        assembled = _counting(monkeypatch, levelsys, "LevelSystem")
        rrefs = _counting(monkeypatch, levelsys, "_rref")
        mt = neck2()
        # validate
        assert validate_structure(mt) == [] and check_naive(mt) == [] and check_broken_cylinders(mt) == []
        assert check_enhanced(mt).satisfiable and check_relative_stability(mt)
        # levels
        sys = build_system(mt)
        assert feasible_positive(sys) is not None
        assert torus_dim(sys) == 1 and len(beta_relations(sys)) == 1
        # dim, then the rate classes
        assert stratum_codim(mt) == 2
        assert len(asymptotic_classes(mt)) == 1
        assert (len(structure), len(naive), len(assembled)) == (1, 1, 1)
        assert len(rrefs) == 1
        assert sys.rows() is sys.rows()

    @pytest.mark.parametrize("build", [neck2, lambda: disjoint_copies(neck2(), 8)], ids=["neck2", "neck2x8"])
    def test_level_path_reads_sparse_rows(self, monkeypatch, build):
        # validate, levels, dim and the rate classes read the one sparse form
        # of the level matrix: no dense rows, no conversion, one elimination
        dense = _counting(monkeypatch, LevelSystem, "rows")
        converted = _counting(monkeypatch, linalg, "_integer_rows")
        rrefs = _counting(monkeypatch, levelsys, "_rref")
        mt = build()
        assert mt.validation.valid
        sys = build_system(mt)
        assert feasible_positive(sys) is not None
        assert torus_dim(sys) == 1 and len(beta_relations(sys)) == 1
        assert stratum_codim(mt) == 2
        assert len(asymptotic_classes(mt)) == 1
        assert (dense, converted, len(rrefs)) == ([], [], 1)

    @pytest.mark.parametrize(
        "order", [("validate", "levels", "dim"), ("levels", "dim", "validate"), ("levels", "dim")]
    )
    def test_commands_share_one_validation(self, monkeypatch, order):
        bodies = [
            _counting(monkeypatch, maptype, name)
            for name in ("_structure_violations", "_naive_violations", "check_enhanced", "check_relative_stability")
        ]
        walks = _counting(monkeypatch, maptype, "walk_fiber")
        mt = neck2()
        # what each subcommand reads of the map type
        commands = {
            "validate": lambda: mt.validation.valid,
            "levels": lambda: feasible_positive(build_system(mt)) is not None and torus_dim(build_system(mt)) == 1,
            "dim": lambda: stratum_codim(mt) == 2,
        }
        for name in order:
            assert commands[name]()
        # the level path gates on the first three stages alone, so only
        # validate checks enhanced matching and relative stability
        assert [len(calls) for calls in bodies] == ([1, 1, 1, 1] if "validate" in order else [1, 1, 0, 0])
        assert len(walks) == len(mt.fibers)
        assert mt.validation is mt.validation

    def test_level_path_solves_no_power_system(self, monkeypatch):
        from ncd_moduli.exactnum import powersys

        solved = [
            _counting(monkeypatch, module, name)
            for module, name in ((powersys, "solve_power_system"), (powersys, "_column_pass"), (maptype, "_column_pass"))
        ]
        mt = neck2()
        sys = build_system(mt)
        assert feasible_positive(sys) is not None
        assert torus_dim(sys) == 1 and len(beta_relations(sys)) == 1
        assert stratum_codim(mt) == 2
        assert len(asymptotic_classes(mt)) == 1
        assert solved == [[], [], []]

    def test_classes_key_each_level_once_per_direction(self, monkeypatch):
        mt = neck1b()
        build_system(mt)
        keyed = _counting(monkeypatch, MapType, "beta_key")
        classes = asymptotic_classes(mt)
        # one key per walk, direction and level of the walk's span
        expected = 0
        for w in mt.walks:
            levels = [eq.level for eq in w.steps]
            if levels:
                expected += len({eq.direction for eq in w.steps}) * (max(levels) - min(levels) + 1)
        assert len(keyed) == expected == 9
        assert classes == asymptotic_classes(dataclasses.replace(mt))

    def test_enhanced_looks_up_only_the_far_end(self, monkeypatch):
        mt = neck2()
        looked_up = _counting(monkeypatch, maptype.ContactRecord, "slot")
        assert check_enhanced(mt).satisfiable
        # one lookup per direction of each node's near end
        assert len(looked_up) == sum(mt.record(n.ends[0]).depth for n in mt.nodes) == 6


def _analysis(mt: MapType) -> tuple:
    sys = build_system(mt)
    return (
        mt.validation,
        validate_structure(mt),
        check_naive(mt),
        check_broken_cylinders(mt),
        sys,
        sys.rows(),
        feasible_positive(sys),
        torus_dim(sys),
        beta_relations(sys),
        stratum_codim(mt),
        asymptotic_classes(mt),
    )


class TestAnalysisCache:
    def test_returned_reports_are_copies(self):
        bad = dataclasses.replace(neck2(), av=neck2().av + 1)
        report = validate_structure(bad)
        assert report == ["marked contact degree 5 != A.V = 6"]
        report.clear()
        assert validate_structure(bad) == ["marked contact degree 5 != A.V = 6"]
        mt = neck2()
        z0, z1 = mt.nodes[:2]
        swapped = dataclasses.replace(
            mt, nodes=(Node(z0.id, (z0.ends[0], z1.ends[1])), Node(z1.id, (z1.ends[0], z0.ends[1]))) + mt.nodes[2:]
        )
        report = check_naive(swapped)
        assert len(report) == 2
        report.append("extra")
        assert len(check_naive(swapped)) == 2

    def test_replaced_type_gets_its_own_analysis(self):
        mt = neck1b()
        assert validate_structure(mt) == []
        sys = build_system(mt)
        low = dataclasses.replace(mt, m=1)
        assert validate_structure(low) == [] and check_naive(low) == []
        with pytest.raises(levelsys.LevelSystemError, match="reaches level 2, which the building does not have"):
            build_system(low)
        assert build_system(mt) is sys

    @pytest.mark.parametrize("build", [smooth_level_one, neck1a, neck1b, neck2, neck3])
    def test_cached_analysis_equals_fresh_copy(self, build):
        mt = build()
        first = _analysis(mt)
        again = _analysis(mt)
        assert again[4] is first[4]
        assert again == first == _analysis(dataclasses.replace(mt))


class TestTorusDim:
    def test_replaced_system_gets_its_own_kernel(self):
        sys = build_system(neck2())
        assert torus_dim(sys) == 1
        eq = sys.equations[0]
        twin = dataclasses.replace(
            sys, equations=sys.equations + (dataclasses.replace(eq, multiplicity=2 * eq.multiplicity),)
        )
        assert torus_dim(twin) == 0
        assert len(beta_relations(twin)) == len(twin.betas)
        assert torus_dim(sys) == 1

    def test_smooth(self):
        assert torus_dim(build_system(smooth_level_one())) == 1

    def test_neck1b(self):
        assert torus_dim(build_system(neck1b())) == 1

    def test_neck2(self):
        assert torus_dim(build_system(neck2())) == 1

    def test_two_decoupled_levels(self):
        sys = LevelSystem(
            alphas=("a1", "a2"),
            betas=(1, 2),
            equations=(
                LevelEquation("x1", "d1", 1, ("a1",), 2),
                LevelEquation("x2", "d1", 2, ("a2",), 3),
            ),
        )
        assert torus_dim(sys) == 2

    def test_no_equations(self):
        sys = LevelSystem((), (1, 2), ())
        assert torus_dim(sys) == 2


class TestBetaRelations:
    def test_neck1b_single_relation(self):
        sys = build_system(neck1b())
        rels = beta_relations(sys)
        assert rels == ((Fraction(-2), Fraction(1)),)
        assert len(rels) == len(sys.betas) - torus_dim(sys)

    def test_neck2_relation(self):
        sys = build_system(neck2())
        rels = beta_relations(sys)
        assert rels == ((Fraction(-2), Fraction(1)),)

    def test_single_level_no_relations(self):
        assert beta_relations(build_system(smooth_level_one())) == ()

    def test_relations_annihilate_solutions(self):
        for build in [neck1a, neck1b, neck2, neck3]:
            sys = build_system(build())
            w = feasible_positive(sys)
            beta_vec = [w[b] for b in sys.betas]
            for rel in beta_relations(sys):
                assert sum(r * v for r, v in zip(rel, beta_vec)) == 0

    def test_count_matches_torus_codim(self):
        for build in [neck1a, neck1b, neck2, neck3, smooth_level_one]:
            sys = build_system(build())
            assert len(beta_relations(sys)) == len(sys.betas) - torus_dim(sys)


def _twin(sys: LevelSystem, k: int = 0) -> LevelSystem:
    """sys with equation k repeated at twice its multiplicity: no positive solution."""
    eq = sys.equations[k]
    twin = dataclasses.replace(eq, multiplicity=2 * eq.multiplicity)
    return dataclasses.replace(sys, equations=sys.equations + (twin,))


@st.composite
def level_systems(draw) -> LevelSystem:
    """Small level systems over uniform or multi betas, with 0-6 equations.

    An equation may have no nodes, which makes a row of one sign (-b(1)
    alone at level 1); an alpha may lie in no equation or twice in one.
    Multiplicities run from -1 to 3, so a node's entry may be 0.  Half the
    systems with equations get an infeasible twin equation.
    """
    alphas = tuple(f"a{i}" for i in range(draw(st.integers(0, 4))))
    if draw(st.booleans()):
        betas = tuple(range(1, draw(st.integers(0, 4)) + 1))
        keys = {d: betas for d in ("d1", "d2")}
    else:
        bounds = {"c1": draw(st.integers(0, 3)), "c2": draw(st.integers(0, 3))}
        betas = tuple((c, l) for c, b in sorted(bounds.items()) for l in range(1, b + 1))
        # d1 and d3 scale the same component
        keys = {d: tuple(b for b in betas if b[0] == c) for d, c in (("d1", "c1"), ("d2", "c2"), ("d3", "c1"))}
    usable = sorted(d for d, k in keys.items() if k)
    equations = ()
    if usable:
        equation = st.sampled_from(usable).flatmap(
            lambda d: st.builds(
                LevelEquation,
                st.just("x"),
                st.just(d),
                st.sampled_from(keys[d]),
                st.lists(st.sampled_from(alphas), max_size=3).map(tuple) if alphas else st.just(()),
                st.integers(-1, 3),
            )
        )
        equations = tuple(draw(st.lists(equation, max_size=6)))
    sys = LevelSystem(alphas, betas, equations)
    if equations and draw(st.booleans()):
        sys = _twin(sys, draw(st.integers(0, len(equations) - 1)))
    return sys


class TestBetaRelationsOracle:
    """torus_dim and beta_relations against the two-kernel route of
    ``reference_beta_relations``."""

    def test_fixtures_and_copies_with_twins(self):
        systems = [build_system(b()) for b in (neck1a, neck1b, neck2, neck3, smooth_level_one)]
        systems += [build_system(disjoint_copies(neck2(), n)) for n in (2, 8, 80)]
        for sys in systems:
            for s in (sys, _twin(sys)):
                assert (torus_dim(s), beta_relations(s)) == reference_beta_relations(s)

    @settings(max_examples=300, deadline=None)
    @given(level_systems())
    def test_random_systems(self, sys):
        assert (torus_dim(sys), beta_relations(sys)) == reference_beta_relations(sys)
        # the witness is the one the public LP gives on the dense rows
        names = sys.alphas + sys.betas
        witness = strict_positive_solution(sys.rows()) if sys.equations else (Fraction(1),) * len(names)
        assert feasible_positive(sys) == (None if witness is None else dict(zip(names, witness)))


class TestScalingInvariance:
    def test_witness_cone(self):
        sys = build_system(neck1b())
        w = feasible_positive(sys)
        unknowns = list(sys.alphas) + list(sys.betas)
        for t in [Fraction(2), Fraction(1, 3), Fraction(7, 5)]:
            scaled = {u: t * w[u] for u in unknowns}
            for row in sys.rows():
                assert sum(c * scaled[u] for c, u in zip(row, unknowns)) == 0
            assert all(v > 0 for v in scaled.values())


class TestAsymptoticClasses:
    def test_infeasible_system_raises(self):
        # neck2 in a uniform building: a(z0) = b(1) in d1 and 2 a(z0) = b(1) in d2
        mt = dataclasses.replace(neck2(), building_mode="uniform", m=1)
        assert mt.validation.valid
        assert feasible_positive(build_system(mt)) is None
        with pytest.raises(levelsys.LevelSystemError, match="^level system has no strictly positive solution$"):
            asymptotic_classes(mt)

    def test_neck1a_single_class(self):
        classes = asymptotic_classes(neck1a())
        assert len(classes) == 1
        members = classes[0].members
        assert ("level", 1) in members
        assert sum(1 for kind, _ in members if kind == "node") == 3

    def test_direct_node_spanning_two_levels(self):
        # the x_C fiber couples levels 1 and 2 through its ladder equation
        classes = asymptotic_classes(neck1b())
        assert len(classes) == 1  # everything couples through the shared levels

    def test_disjoint_level_ranges(self):
        a = _c(2)
        main = None
        from ncd_moduli.maptype import Component, ContactRecord, ContactSlot, MapType, Node

        def rec(stratum, eps, level, coeff, s=1):
            return ContactRecord(stratum, (("d1", ContactSlot(s, eps, level, coeff)),))

        main = Component("main", points=(("main@z1", rec("h1", 1, 0, a)),))
        c1 = Component(
            "c1",
            levels=(("d1", 1),),
            points=(
                ("c1@z1", rec("h1", -1, 1, a.inverse())),
                ("c1@mk1", rec("h1", 1, 1, a)),
            ),
        )
        c2 = Component(
            "c2",
            levels=(("d1", 2),),
            points=(
                ("c2@z2", rec("h1", 1, 2, a)),
                ("c2@mk2", rec("h1", 1, 2, a, s=2)),
            ),
        )
        c3 = Component(
            "c3",
            levels=(("d1", 3),),
            points=(("c3@z2", rec("h1", -1, 3, a.inverse())),),
        )
        mt = MapType(
            "uniform",
            3,
            (),
            (("d1", "h1"),),
            (main, c1, c2, c3),
            (Node("z1", ("main@z1", "c1@z1")), Node("z2", ("c2@z2", "c3@z2"))),
            0,
            3,
            2,
            2,
        )
        classes = asymptotic_classes(mt)
        assert len(classes) == 2
        sets = [set(c.members) for c in classes]
        assert {("node", "z1"), ("level", 1)} in sets
        assert {("node", "z2"), ("level", 2), ("level", 3)} in sets

    def test_exponents_positive(self):
        for c in asymptotic_classes(neck3()):
            assert all(v > 0 for _, v in c.exponents)

    def test_multibuilding_fiber_reaching_two_top_levels(self):
        # one fiber steps in d1 at level 1 and in d2 at levels 1 and 2, so its
        # level interval asks for (v1, 2), which the building does not have
        text = (Path(__file__).parent / "data" / "neck2-two-level.json").read_text(encoding="utf-8")
        classes = asymptotic_classes(maptype.loads(text))
        members = (
            ("level", ("v1", 1)),
            ("level", ("v2", 1)),
            ("level", ("v2", 2)),
            ("node", "z0"),
            ("node", "z1"),
            ("node", "z2"),
        )
        exponents = tuple(zip(members, map(Fraction, (2, 2, 4, 2, 1, 1))))
        assert classes == (levelsys.AsymptoticClass(members, exponents),)


DATA = Path(__file__).parent / "data"


def _is_maptype_file(path: Path) -> bool:
    """A map-type file lists components and nodes; a gluing file lists only nodes."""
    obj = json.loads(path.read_text(encoding="utf-8"))
    return isinstance(obj, dict) and "components" in obj and "nodes" in obj


MAPTYPE_FILES = sorted(p.name for p in DATA.glob("*.json") if _is_maptype_file(p))


class TestEquationsFromWalks:
    """The level system's equations are the fibers' walk steps, in walk order."""

    @pytest.mark.parametrize(
        "build",
        [smooth_level_one, neck1a, neck1b, neck2, neck3]
        + [lambda name=name: maptype.loads((DATA / name).read_text(encoding="utf-8")) for name in MAPTYPE_FILES],
        ids=["smooth_level_one", "neck1a", "neck1b", "neck2", "neck3"] + MAPTYPE_FILES,
    )
    def test_equations_are_the_walk_steps(self, build):
        mt = build()
        steps = tuple(eq for w in mt.walks for eq in w.steps)
        # no-nodes.json, marked points on one level-0 component, is the one without steps
        assert bool(steps) == bool(mt.nodes)
        v = mt.validation
        problems = v.structure or v.naive or v.broken_cylinders
        if problems:
            # the gate, not the assembly, refuses a type with violations
            with pytest.raises(levelsys.LevelSystemError) as e:
                build_system(mt)
            assert str(e.value) == "; ".join(problems)
        else:
            assert build_system(mt).equations == steps

    @pytest.mark.parametrize("build", [neck1b, neck2], ids=["uniform", "multi"])
    def test_one_beta_key_per_step(self, monkeypatch, build):
        mt = build()
        keys = _counting(monkeypatch, MapType, "beta_key")
        steps = [eq for w in mt.walks for eq in w.steps]
        assert [(eq.direction, eq.level) for eq in steps] == [args[1:] for args in keys]
        assert mt.validation.valid
        keys.clear()
        # the assembly keys nothing again
        assert build_system(mt).equations == tuple(steps)
        assert keys == []

    def test_map_type_files_found(self):
        assert MAPTYPE_FILES == [
            "enhanced-only.json",
            "neck2-nonreciprocal.json",
            "neck2-two-level.json",
            "no-nodes.json",
        ]

    def test_direction_without_scaling_component(self):
        mt = dataclasses.replace(neck2(), direction_components=(("d1", "v1"),))
        assert check_broken_cylinders(mt) == [
            "marked:g2@x1: direction d2 has no scaling component",
            "node:bubble@z0|main@z0: direction d2 has no scaling component",
        ]
        # the step keeps its level, so the gluing problem still reads its range
        d2 = [eq for w in mt.walks for eq in w.steps if eq.direction == "d2"]
        assert {eq.beta for eq in d2} == {(None, 1)}
        (node,) = gluing_problem_from_maptype(mt).nodes
        d = {g.direction: g for g in node.directions}["d2"]
        assert (d.multiplicity, d.level_range) == (2, (0, 1))
        with pytest.raises(levelsys.LevelSystemError, match="d2 has no scaling component"):
            build_system(mt)


class TestSolveGluing:
    def test_single_direction_count(self):
        gp = GluingProblem(
            nodes=(GluingNode("x", (GluingDirection("d1", 4, _c(1), (0, 1)),)),),
            lambdas=((1, _c(16)),),
        )
        sol = solve_gluing(gp)
        assert sol.consistent and sol.total_count == 4
        for mu in sol.nodes[0].solutions:
            assert mu.pow(4) == _c(16)

    def test_two_directions_unique(self):
        gp = GluingProblem(
            nodes=(
                GluingNode(
                    "x",
                    (
                        GluingDirection("d1", 2, _c(Fraction(1, 4)), (0, 1)),
                        GluingDirection("d2", 3, _c(Fraction(1, 8)), (0, 1)),
                    ),
                ),
            ),
            lambdas=((1, _c(1)),),
        )
        sol = solve_gluing(gp)
        assert sol.consistent and sol.total_count == 1
        assert sol.nodes[0].solutions[0] == _c(2)

    def test_two_directions_conflict(self):
        gp = GluingProblem(
            nodes=(
                GluingNode(
                    "x",
                    (
                        GluingDirection("d1", 1, _c(Fraction(1, 2)), (0, 1)),
                        GluingDirection("d2", 1, _c(Fraction(1, 3)), (0, 1)),
                    ),
                ),
            ),
            lambdas=((1, _c(1)),),
        )
        sol = solve_gluing(gp)
        assert not sol.consistent
        assert sol.nodes[0].count == 0

    @pytest.mark.parametrize("s", range(1, 9))
    def test_count_equals_multiplicity(self, s):
        rng = random.Random(900 + s)
        for _ in range(10):
            lam = random_value(rng)
            p = random_value(rng)
            gp = GluingProblem(
                nodes=(GluingNode("x", (GluingDirection("d1", s, p, (0, 1)),)),),
                lambdas=((1, lam),),
            )
            sol = solve_gluing(gp)
            assert sol.consistent and sol.total_count == s
            rhs = lam * p.inverse()
            mus = set(sol.nodes[0].solutions)
            assert mus == rhs.roots(s)

    def test_level_range_product(self):
        # lifts at levels (1, 2) cross only the level-2 gluing event
        gp = GluingProblem(
            nodes=(GluingNode("x", (GluingDirection("d1", 1, _c(1), (1, 2)),)),),
            lambdas=((1, _c(3)), (2, _c(5))),
        )
        sol = solve_gluing(gp)
        assert sol.nodes[0].solutions == (_c(5),)

    def test_reversed_level_range_refused(self):
        # built in code, as the loader refuses it from a file: a reversed
        # range is not solved as crossing no level
        with pytest.raises(ValueError, match=r"d1: level range \(3, 1\) is reversed"):
            GluingDirection("d1", 4, _c(1), (3, 1))
        with pytest.raises(ValueError, match="is reversed"):
            solve_gluing(GluingProblem(
                nodes=(GluingNode("x", (GluingDirection("d1", 4, _c(1), (3, 1)),)),),
                lambdas=(),
            ))
        d = GluingDirection("d1", 4, _c(1), (2, 2))
        with pytest.raises(ValueError, match="is reversed"):
            dataclasses.replace(d, level_range=(3, 1))

    def test_round_trip(self):
        gp = GluingProblem(
            nodes=(
                GluingNode(
                    "x",
                    (
                        GluingDirection("d1", 2, _c(4), (0, 1)),
                        GluingDirection("d2", 3, _c(8), (0, 2)),
                    ),
                ),
            ),
            lambdas=((1, _c(2)), (2, _c(3))),
        )
        text = gluing_dumps(gp)
        assert gluing_dumps(gluing_loads(text)) == text


class TestLogLinearity:
    def test_no_trivial_components_matrix_match(self):
        """With unit coefficients the log of the collapsed gluing system is
        the level system: each direction of each direct node contributes the
        row s*alpha(x) = beta(l) - beta(l-1)."""
        mt = smooth_level_one()
        sys = build_system(mt)
        gp = gluing_problem_from_maptype(mt)
        assert len(gp.nodes) == 1
        (node,) = gp.nodes
        assert len(node.directions) == len(sys.equations)
        d = node.directions[0]
        eq = sys.equations[0]
        assert d.multiplicity == eq.multiplicity
        assert d.level_range == (eq.level - 1, eq.level)

    def test_gluing_problem_from_neck2(self):
        gp = gluing_problem_from_maptype(neck2())
        (node,) = gp.nodes
        assert {d.direction: d.multiplicity for d in node.directions} == {"d1": 1, "d2": 2}
        for d in node.directions:
            assert d.product.is_one()

    @staticmethod
    def _neck2_with(*edits):
        """neck2 with each (component, slot, field, value) set on the first
        point of main (0) or bubble (1), the two ends of node z0; slot 0 is
        d1 and slot 1 is d2."""
        obj = maptype.maptype_to_dict(neck2())
        for component, slot, field, value in edits:
            obj["components"][component]["points"][0]["slots"][slot][field] = value
        return maptype.maptype_from_dict(obj)

    @pytest.mark.parametrize("end", [0, 1], ids=["main", "bubble"])
    @pytest.mark.parametrize("field, value", [("eps", 0), ("coeff", None)], ids=["sign-0", "no-coefficient"])
    def test_gluing_problem_skips_direction(self, end, field, value):
        (node,) = gluing_problem_from_maptype(self._neck2_with((end, 0, field, value))).nodes
        assert node.id == "node:bubble@z0|main@z0"
        assert [d.direction for d in node.directions] == ["d2"]

    def test_gluing_problem_skips_node_without_directions(self):
        mt = self._neck2_with((0, 0, "eps", 0), (1, 1, "coeff", None))
        assert gluing_problem_from_maptype(mt).nodes == ()


class TestTorusDimBounds:
    def test_at_most_level_count(self):
        for build in [smooth_level_one, neck1a, neck1b, neck2, neck3]:
            sys_ = build_system(build())
            assert 1 <= torus_dim(sys_) <= len(sys_.betas)
