import dataclasses
import math
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncd_moduli import divisor
from ncd_moduli.exactnum import ExactNonzeroComplex, solve_power_system
from ncd_moduli.fixtures import CATALOG, divisor_for, neck1a, neck1b, neck2, neck3, smooth_level_one
from ncd_moduli.maptype import (
    Component,
    ContactRecord,
    ContactSlot,
    MapType,
    Node,
    check_broken_cylinders,
    check_enhanced,
    check_naive,
    check_relative_stability,
    contraction,
    dumps,
    eval_equal,
    evaluation,
    loads,
    maptype_from_dict,
    maptype_to_dict,
    validate_structure,
    walk_fiber,
    wproj_equal,
    antidiagonal_paired,
)
from oracle_helpers import enhanced_node_oracle, random_value, reference_check_enhanced
from test_levelsys import disjoint_copies

FIXTURES = [smooth_level_one, neck1a, neck1b, neck2, neck3]


def _c(q):
    return ExactNonzeroComplex.from_rational(Fraction(q))


def simple_depth1_node(s=3, a_minus=2, a_plus=None):
    """Minimal two-component map with one depth-1 node of multiplicity s."""
    a_minus = _c(a_minus)
    a_plus = a_minus.inverse() if a_plus is None else _c(a_plus)
    main = Component(
        "main",
        points=(("main@z", ContactRecord("h1", (("d1", ContactSlot(s, 1, 0, a_minus)),))),),
    )
    cap = Component(
        "cap",
        levels=(("d1", 1),),
        points=(
            ("cap@z", ContactRecord("h1", (("d1", ContactSlot(s, -1, 1, a_plus)),))),
            ("cap@mk", ContactRecord("h1", (("d1", ContactSlot(s, 1, 1, _c(2))),))),
        ),
    )
    return MapType(
        building_mode="uniform",
        m=1,
        components=(main, cap),
        nodes=(Node("z", ("main@z", "cap@z")),),
        av=s,
        ell=1,
    )


class TestValidateStructure:
    @pytest.mark.parametrize("build", FIXTURES)
    def test_fixtures_valid(self, build):
        assert validate_structure(build()) == []

    def test_single_component_valid(self):
        mt = MapType(
            components=(
                Component(
                    "only",
                    points=(("only@p", ContactRecord("h1", (("d1", ContactSlot(2, 1, 0, _c(3))),))),),
                ),
            ),
            av=2,
            ell=1,
        )
        assert validate_structure(mt) == []

    def test_trivial_with_three_points_invalid(self):
        mt = neck1a()
        bad = []
        for c in mt.components:
            if c.id == "f21":
                extra = c.points + (("f21@extra", ContactRecord(None)),)
                bad.append(Component(c.id, c.genus, True, c.levels, extra))
            else:
                bad.append(c)
        broken = MapType(
            mt.building_mode, mt.m, mt.levels_by_component, mt.direction_components,
            tuple(bad), mt.nodes, mt.c1a, mt.av, mt.chi, mt.ell,
        )
        assert any("two special points" in v for v in validate_structure(broken))

    def test_reciprocity_enforced(self):
        mt = neck1b()
        bad = []
        for c in mt.components:
            if c.id == "f11":
                pts = []
                for pid, r in c.points:
                    if pid == "f11@hi":
                        slots = tuple(
                            (d, ContactSlot(s.s, s.eps, s.level, _c(5), s.formal))
                            for d, s in r.slots
                        )
                        r = ContactRecord(r.stratum, slots)
                    pts.append((pid, r))
                bad.append(Component(c.id, c.genus, True, c.levels, tuple(pts)))
            else:
                bad.append(c)
        broken = MapType(
            mt.building_mode, mt.m, mt.levels_by_component, mt.direction_components,
            tuple(bad), mt.nodes, mt.c1a, mt.av, mt.chi, mt.ell,
        )
        assert any("reciprocal" in v for v in validate_structure(broken))

    def test_marked_point_on_infinity_rejected(self):
        mt = simple_depth1_node()
        cap = mt.component("cap")
        pts = tuple(
            (pid, ContactRecord("h1", (("d1", ContactSlot(3, -1, 1, _c(2))),)))
            if pid == "cap@mk"
            else (pid, r)
            for pid, r in cap.points
        )
        bad = MapType(
            mt.building_mode, mt.m, mt.levels_by_component, mt.direction_components,
            (mt.component("main"), Component("cap", 0, False, cap.levels, pts)),
            mt.nodes, mt.c1a, mt.av, mt.chi, mt.ell,
        )
        assert any("infinity" in v for v in validate_structure(bad))

    def test_degree_mismatch_reported(self):
        mt = simple_depth1_node()
        bad = MapType(
            mt.building_mode, mt.m, mt.levels_by_component, mt.direction_components,
            mt.components, mt.nodes, mt.c1a, 4, mt.chi, mt.ell,
        )
        assert any("A.V" in v for v in validate_structure(bad))

    @pytest.mark.parametrize("where", ["component", "other_component", "same_component"])
    def test_duplicate_ids_first_occurrence_wins(self, where):
        """A duplicated id is reported, and lookups read its first occurrence,
        so the validators see the original records, not the stray copies."""
        mt = neck2()
        first = mt.components[0]
        stray = tuple((pid, ContactRecord("other")) for pid, _ in first.points)
        if where == "component":
            comps = mt.components + (dataclasses.replace(first, genus=1, points=stray),)
            expected = ["duplicate component ids", "duplicate point ids"]
        elif where == "other_component":
            second = mt.components[1]
            comps = (first, dataclasses.replace(second, points=second.points + stray[:1])) + mt.components[2:]
            expected = ["duplicate point ids"]
        else:
            comps = (dataclasses.replace(first, points=first.points + stray[:1]),) + mt.components[1:]
            expected = ["duplicate point ids"]
        dup = dataclasses.replace(mt, components=comps)
        pid, rec = first.points[0]
        assert validate_structure(dup) == expected
        assert check_naive(dup) == []
        assert check_broken_cylinders(dup) == []
        assert dup.component(first.id) is comps[0]
        assert dup.owner(pid) is comps[0]
        assert dup.record(pid) is rec

    def test_zero_multiplicity_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ContactSlot(0, 1)


class TestNaive:
    @pytest.mark.parametrize("build", FIXTURES)
    def test_fixtures_pass(self, build):
        assert check_naive(build()) == []

    def test_depth1_match(self):
        assert check_naive(simple_depth1_node()) == []

    def test_multiplicity_mismatch(self):
        mt = simple_depth1_node()
        main = Component(
            "main",
            points=(("main@z", ContactRecord("h1", (("d1", ContactSlot(2, 1, 0, _c(2))),))),),
        )
        bad = MapType(
            mt.building_mode, mt.m, mt.levels_by_component, mt.direction_components,
            (main, mt.component("cap")), mt.nodes, mt.c1a, 5, mt.chi, mt.ell,
        )
        assert any("multiplicities differ" in v for v in check_naive(bad))

    def test_sign_mismatch(self):
        mt = simple_depth1_node()
        main = Component(
            "main",
            points=(("main@z", ContactRecord("h1", (("d1", ContactSlot(3, -1, 0, _c(2))),))),),
        )
        bad = MapType(
            mt.building_mode, mt.m, mt.levels_by_component, mt.direction_components,
            (main, mt.component("cap")), mt.nodes, mt.c1a, mt.av, mt.chi, mt.ell,
        )
        assert any("signs" in v for v in check_naive(bad))

    def test_undefined_multiplicity_rejected(self):
        mt = simple_depth1_node()
        main = Component(
            "main",
            points=(("main@z", ContactRecord("h1", (("d1", ContactSlot(None, 1, 0, _c(2))),))),),
        )
        bad = MapType(
            mt.building_mode, mt.m, mt.levels_by_component, mt.direction_components,
            (main, mt.component("cap")), mt.nodes, mt.c1a, mt.av, mt.chi, mt.ell,
        )
        assert any("undefined" in v for v in check_naive(bad))


class TestBrokenCylinders:
    @pytest.mark.parametrize("build", FIXTURES)
    def test_fixtures_pass(self, build):
        assert check_broken_cylinders(build()) == []

    def test_stretch_neck1a(self):
        values = {f.base_id: f.stretch for f in neck1a().fibers}
        assert values["marked:f22@x2"] == 2
        assert values["node:f1@zA|main@zA"] == 0

    def test_contraction_shapes(self):
        fibers = {f.base_id: f for f in contraction(neck1b())}
        assert fibers["marked:f12@x1"].chain == ("f11", "f12")
        assert fibers["node:bubble@z4|main@z3"].chain == ("t1",)
        assert fibers["marked:t2@x2"].chain == ("t2",)

    def test_level_jump_detected(self):
        # a direct node skipping level 1 entirely
        mt = simple_depth1_node()
        cap = Component(
            "cap",
            levels=(("d1", 2),),
            points=(
                ("cap@z", ContactRecord("h1", (("d1", ContactSlot(3, -1, 2, _c(2).inverse())),))),
                ("cap@mk", ContactRecord("h1", (("d1", ContactSlot(3, 1, 2, _c(2))),))),
            ),
        )
        bad = MapType(
            "uniform", 2, (), (), (mt.component("main"), cap), mt.nodes,
            mt.c1a, mt.av, mt.chi, mt.ell,
        )
        assert any("jumps" in v for v in check_broken_cylinders(bad))

    def test_non_monotone_detected(self):
        # chain rising 0 -> 1 then falling back to 0
        a = _c(2)
        main = Component(
            "main",
            points=(("main@z1", ContactRecord("h1", (("d1", ContactSlot(1, 1, 0, a)),))),),
        )
        t = Component(
            "t",
            trivial=True,
            levels=(("d1", 1),),
            points=(
                ("t@lo", ContactRecord("h1", (("d1", ContactSlot(1, -1, 1, a.inverse())),))),
                ("t@hi", ContactRecord("h1", (("d1", ContactSlot(1, 1, 1, a)),))),
            ),
        )
        other = Component(
            "other",
            points=(("other@z2", ContactRecord("h1", (("d1", ContactSlot(1, -1, 0, a.inverse())),))),),
        )
        bad = MapType(
            "uniform", 1, (), (), (main, t, other),
            (Node("z1", ("main@z1", "t@lo")), Node("z2", ("t@hi", "other@z2"))),
            0, 0, 2, 0,
        )
        assert any("monotone" in v or "does not move" in v for v in check_broken_cylinders(bad))

    def test_projected_steps_neck1b(self):
        mt = neck1b()
        fibers = {f.base_id: f for f in contraction(mt)}
        walk = walk_fiber(mt, fibers["node:bubble@z4|main@z3"])
        steps = {(s.direction, s.level): s for s in walk.steps}
        assert set(steps[("d1", 1)].nodes) == {"z3", "z4"}
        assert set(steps[("d2", 1)].nodes) == {"z3"}
        assert set(steps[("d2", 2)].nodes) == {"z4"}
        # a uniform building keys each step by its level
        assert (steps[("d1", 1)].beta, steps[("d1", 1)].multiplicity) == (1, 1)
        assert [steps[("d2", l)].multiplicity for l in (1, 2)] == [2, 2]


class TestOverDivisor:
    """Each map-type fixture's records lie on strata of its divisor."""

    @pytest.mark.parametrize(
        "name, strata",
        [("neck1a", {"c,c"}), ("neck1b", {"c,c"}), ("neck2", {"v1,v2"}), ("neck3", {"l1", "l2", "l1,l2"})],
    )
    def test_record_strata_are_divisor_strata(self, name, strata):
        d = divisor_for(name)
        assert divisor.validate(d) == []
        mt = CATALOG[name].build()
        records = {r.stratum for c in mt.components for _, r in c.points if r.stratum is not None}
        assert records == strata
        assert records <= {s.id for s in d.strata}


class TestEnhanced:
    @pytest.mark.parametrize("build", FIXTURES)
    def test_fixtures_satisfiable(self, build):
        res = check_enhanced(build())
        assert res.satisfiable, res.failure

    def test_square_root_branches(self):
        # s = 2 with product 4: two gluing constants, +-1/2
        mt = simple_depth1_node(s=2, a_minus=2, a_plus=2)
        res = check_enhanced(mt)
        assert res.satisfiable
        assert dict(res.branch_counts)["z"] == 2
        c = dict(res.witness)["z"]
        assert c.pow(2) == _c(4).inverse()

    def test_million_branches_fast(self):
        # s = 10**6 torsion branches; the witness needs only the first
        mt = simple_depth1_node(s=10**6, a_minus=2, a_plus=3)
        start = time.perf_counter()
        res = check_enhanced(mt)
        elapsed = time.perf_counter() - start
        assert res.satisfiable
        assert dict(res.branch_counts)["z"] == 10**6
        c = dict(res.witness)["z"]
        assert c.pow(10**6) == _c(6).inverse()
        assert elapsed < 0.5, f"check_enhanced took {elapsed:.2f} s"

    def test_depth2_conflict(self):
        # products (2, 3) with s = (1, 1) cannot share a constant
        rec_a = ContactRecord(
            "p",
            (("d1", ContactSlot(1, 1, 0, _c(2))), ("d2", ContactSlot(1, 1, 0, _c(3)))),
        )
        rec_b = ContactRecord(
            "p",
            (("d1", ContactSlot(1, -1, 1, _c(1))), ("d2", ContactSlot(1, -1, 1, _c(1)))),
        )
        main = Component("main", points=(("main@z", rec_a),))
        cap = Component("cap", levels=(("d1", 1), ("d2", 1)), points=(("cap@z", rec_b),))
        mt = MapType("uniform", 1, (), (), (main, cap), (Node("z", ("main@z", "cap@z")),))
        res = check_enhanced(mt)
        assert not res.satisfiable
        assert "z" in res.failure

    def test_depth2_gcd_one(self):
        # s = (2, 3), products (4, 8): unique constant 1/2
        rec_a = ContactRecord(
            "p",
            (("d1", ContactSlot(2, 1, 0, _c(4))), ("d2", ContactSlot(3, 1, 0, _c(8)))),
        )
        rec_b = ContactRecord(
            "p",
            (("d1", ContactSlot(2, -1, 1, _c(1))), ("d2", ContactSlot(3, -1, 1, _c(1)))),
        )
        main = Component("main", points=(("main@z", rec_a),))
        cap = Component("cap", levels=(("d1", 1), ("d2", 1)), points=(("cap@z", rec_b),))
        mt = MapType("uniform", 1, (), (), (main, cap), (Node("z", ("main@z", "cap@z")),))
        res = check_enhanced(mt)
        assert res.satisfiable
        assert dict(res.branch_counts)["z"] == 1
        assert dict(res.witness)["z"] == _c(Fraction(1, 2))

    @staticmethod
    def _node(near, far):
        """One node z joining main@z, with slots ``near``, to cap@z, with ``far``."""
        main = Component("main", points=(("main@z", ContactRecord("p", near)),))
        cap = Component("cap", levels=(("d1", 1), ("d2", 1)), points=(("cap@z", ContactRecord("p", far)),))
        return MapType("uniform", 1, (), (), (main, cap), (Node("z", ("main@z", "cap@z")),))

    @pytest.mark.parametrize("end", ["near", "far"])
    def test_unsigned_direction_left_out(self, end):
        # d2's products would conflict with d1's (test_depth2_conflict); sign 0 drops it
        near = (("d1", ContactSlot(1, 1, 0, _c(2))), ("d2", ContactSlot(1, 0 if end == "near" else 1, 0, _c(3))))
        far = (("d1", ContactSlot(1, -1, 1, _c(1))), ("d2", ContactSlot(1, 0 if end == "far" else -1, 1, _c(1))))
        res = check_enhanced(self._node(near, far))
        assert res.satisfiable
        assert res.branch_counts == (("z", 1),)
        assert res.witness == (("z", _c(Fraction(1, 2))),)

    def test_direction_missing_at_far_end_left_out(self):
        near = (("d1", ContactSlot(1, 1, 0, _c(2))), ("d2", ContactSlot(1, 1, 0, _c(3))))
        far = (("d1", ContactSlot(1, -1, 1, _c(1))),)
        res = check_enhanced(self._node(near, far))
        assert res.satisfiable
        assert res.witness == (("z", _c(Fraction(1, 2))),)

    def test_node_without_decorated_direction(self):
        near = (("d1", ContactSlot(1, 0, 0, _c(2))),)
        far = (("d1", ContactSlot(1, -1, 1, _c(1))), ("d2", ContactSlot(1, -1, 1, _c(1))))
        res = check_enhanced(self._node(near, far))
        assert res == check_enhanced(self._node((), far))
        assert (res.satisfiable, res.witness, res.branch_counts) == (True, (), ())

    def test_undefined_multiplicity_at_near_end(self):
        near = (("d1", ContactSlot(1, 1, 0, _c(2))), ("d2", ContactSlot(None, 1, 0, _c(3))))
        far = (("d1", ContactSlot(1, -1, 1, _c(1))), ("d2", ContactSlot(1, -1, 1, _c(1))))
        with pytest.raises(ValueError, match="^z: undefined multiplicity in d2$"):
            check_enhanced(self._node(near, far))


def _data_maptype(name):
    return loads((Path(__file__).parent / "data" / name).read_text(encoding="utf-8"))


class TestEnhancedWitness:
    """Every witness constant c solves a(y-) a(y+) c^s = 1 in each decorated
    direction of its node."""

    @pytest.mark.parametrize(
        "build",
        FIXTURES
        + [
            lambda name=name: _data_maptype(name)
            for name in ("enhanced-only.json", "neck2-nonreciprocal.json", "neck2-two-level.json", "no-nodes.json")
        ]
        + [lambda: disjoint_copies(neck2(), 8)],
        ids=[b.__name__ for b in FIXTURES]
        + ["enhanced-only", "neck2-nonreciprocal", "neck2-two-level", "no-nodes", "neck2x8"],
    )
    def test_witness_solves_each_direction(self, build):
        mt = build()
        res = check_enhanced(mt)
        nodes = {n.id: n for n in mt.nodes}
        assert res.satisfiable == (res.failure is None)
        assert [nid for nid, _ in res.witness] == [nid for nid, _ in res.branch_counts]
        checked = 0
        for nid, c in res.witness:
            a, b = nodes[nid].ends
            ra, rb = mt.record(a), mt.record(b)
            for d, sa in ra.slots:
                sb = rb.slot(d)
                if sb is None or sa.eps == 0 or sb.eps == 0:
                    continue
                assert (sa.coeff * sb.coeff * c.pow(sa.s)).is_one()
                checked += 1
        assert checked or not res.witness


@st.composite
def _enhanced_nodes(draw):
    """One node z with 1-4 decorated directions of multiplicity 1-12; the far
    end's coefficient either matches through a shared constant or, for some
    directions, is drawn on its own to break matching."""
    rng = draw(st.randoms(use_true_random=False))
    s = draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))
    broken = draw(st.lists(st.booleans(), min_size=len(s), max_size=len(s)))
    c = random_value(rng)
    near, far, products = [], [], []
    for i, (si, br) in enumerate(zip(s, broken)):
        a = random_value(rng)
        b = random_value(rng) if br else a.inverse() * c.pow(-si)
        near.append((f"d{i}", ContactSlot(si, 1, 0, a)))
        far.append((f"d{i}", ContactSlot(si, -1, 1, b)))
        products.append(a * b)
    main = Component("main", points=(("main@z", ContactRecord("p", tuple(near))),))
    cap = Component("cap", points=(("cap@z", ContactRecord("p", tuple(far))),))
    return MapType("uniform", 1, (), (), (main, cap), (Node("z", ("main@z", "cap@z")),)), s, products


class TestEnhancedReference:
    """The integer pass per node against the general solver it replaced."""

    @given(_enhanced_nodes())
    @settings(max_examples=200, deadline=None)
    def test_matches_solver_route(self, node):
        mt, s, products = node
        res, ref = check_enhanced(mt), reference_check_enhanced(mt)
        assert (res.satisfiable, res.failure, res.branch_counts) == (ref.satisfiable, ref.failure, ref.branch_counts)
        assert len(res.witness) == len(ref.witness)
        for (nid, c), (rid, r) in zip(res.witness, ref.witness):
            assert nid == rid and c == r and hash(c) == hash(r) and str(c) == str(r)
            assert all((p * c.pow(si)).is_one() for si, p in zip(s, products))
        # every solution's argument has a denominator dividing each s_i times
        # its product's argument denominator, so their gcd bounds the grid
        L = math.gcd(*[si * p.arg.denominator for si, p in zip(s, products)])
        count = enhanced_node_oracle(s, products, L)
        assert dict(res.branch_counts).get("z", 0) == count
        assert res.satisfiable == (count > 0)

    @given(
        st.randoms(use_true_random=False),
        st.lists(st.tuples(st.integers(0, 12), st.booleans()), min_size=1, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_wproj_equal_matches_solver(self, rng, rows):
        t = random_value(rng)
        weights = [w for w, _ in rows]
        a = [random_value(rng) for _ in rows]
        b = [random_value(rng) if br else x * t.pow(w) for x, (w, br) in zip(a, rows)]
        expected = solve_power_system([[w] for w in weights], [bi / ai for ai, bi in zip(a, b)]).consistent
        assert wproj_equal(a, b, weights) == expected
        assert antidiagonal_paired([x.inverse() for x in a], b, weights) == expected


class TestStability:
    def test_neck3_stable(self):
        assert check_relative_stability(neck3())

    def test_neck3_without_nontrivial_unstable(self):
        mt = neck3()
        gutted = MapType(
            mt.building_mode, mt.m, mt.levels_by_component, mt.direction_components,
            tuple(c for c in mt.components if c.trivial),
            (), mt.c1a, mt.av, mt.chi, mt.ell,
        )
        assert not check_relative_stability(gutted)

    def test_neck1b_covers_both_levels(self):
        assert check_relative_stability(neck1b())

    def test_missing_level_detected(self):
        mt = neck1b()
        stretched = MapType(
            mt.building_mode, 3, mt.levels_by_component, mt.direction_components,
            mt.components, mt.nodes, mt.c1a, mt.av, mt.chi, mt.ell,
        )
        assert not check_relative_stability(stretched)

    def test_multi_mode(self):
        assert check_relative_stability(neck2())


class TestEvaluation:
    def test_weighted_equivalence(self):
        a = [_c(2), _c(3)]
        assert wproj_equal(a, [_c(4), _c(12)], [1, 2])
        assert not wproj_equal(a, [_c(4), _c(6)], [1, 2])
        assert wproj_equal(a, [_c(4), _c(6)], [1, 1])
        assert wproj_equal(a, a, [1, 2])

    def test_equivalence_relation(self):
        import random

        rng = random.Random(5)
        for _ in range(50):
            w = [rng.randint(1, 4) for _ in range(2)]
            a = [random_value(rng) for _ in range(2)]
            t = random_value(rng)
            b = [x * t.pow(wi) for x, wi in zip(a, w)]
            c = [x * t.pow(2 * wi) for x, wi in zip(a, w)]
            assert wproj_equal(a, b, w)
            assert wproj_equal(b, a, w)
            assert wproj_equal(a, c, w)

    def test_antidiagonal(self):
        a = [_c(2), _c(3)]
        b = [x.inverse() for x in a]
        assert antidiagonal_paired(a, b, [1, 1])
        assert not antidiagonal_paired(a, a, [1, 1])

    def test_evaluation_record(self):
        mt = neck1a()
        ev = evaluation(mt, "f1@x1")
        assert ev.stratum == "c,c"
        assert ev.weights == (1, 1)
        scaled = type(ev)(
            ev.stratum,
            ev.directions,
            ev.weights,
            tuple(x * _c(4).pow(w) for x, w in zip(ev.coeffs, ev.weights)),
        )
        assert eval_equal(ev, scaled)

    def test_undecorated_slot_errors(self):
        mt = MapType(
            components=(
                Component(
                    "only",
                    points=(("only@p", ContactRecord("h1", (("d1", ContactSlot(2, 1, 0, None)),))),),
                ),
            ),
            av=2,
        )
        with pytest.raises(ValueError):
            evaluation(mt, "only@p")


class TestDegree:
    @pytest.mark.parametrize("build", FIXTURES)
    def test_fixtures(self, build):
        assert not any("marked contact degree" in v for v in validate_structure(build()))

    def test_failure(self):
        mt = simple_depth1_node()
        bad = MapType(
            mt.building_mode, mt.m, mt.levels_by_component, mt.direction_components,
            mt.components, mt.nodes, mt.c1a, 4, mt.chi, mt.ell,
        )
        assert validate_structure(bad) == ["marked contact degree 3 != A.V = 4"]


class TestContactRecord:
    @pytest.mark.parametrize("second", [ContactSlot(2, 1), ContactSlot(1, 1)], ids=["other-slot", "equal-slot"])
    def test_repeated_direction_refused(self, second):
        with pytest.raises(ValueError, match="^direction d1 is listed twice$"):
            ContactRecord("c,c", (("d1", ContactSlot(1, 1)), ("d1", second)))

    def test_slots_sorted_by_direction(self):
        rec = ContactRecord("c,c", (("d2", ContactSlot(1, 1)), ("d1", ContactSlot(2, -1))))
        assert rec.directions == ("d1", "d2")
        assert rec.slot("d1") == ContactSlot(2, -1)


class TestFormat:
    @pytest.mark.parametrize("build", FIXTURES)
    def test_round_trip(self, build):
        mt = build()
        text = dumps(mt)
        again = loads(text)
        assert dumps(again) == text
        assert validate_structure(again) == []
        assert check_naive(again) == []


def _set(obj, path, value):
    """Set the field at path (keys and indices) of a map-type dict to value."""
    *parents, field = path
    for key in parents:
        obj = obj[key]
    obj[field] = value


def _slot(component, point, slot=0):
    return ("components", component, "points", point, "slots", slot)


def _contraction_error(mt):
    with pytest.raises(ValueError) as e:
        contraction(mt)
    return [str(e.value)]


def _validate_structure(mt):
    """What ``validate`` reports as structure violations; it checks nothing after them."""
    v = mt.validation
    assert (v.valid, v.naive) == (False, None)
    return list(v.structure)


class TestValidatorMessages:
    """Each message of a validator, reached by a minimal edit of a fixture's
    dict; the full report of the function that gives it is pinned."""

    CASES = {
        "negative-genus": (
            smooth_level_one,
            lambda o: _set(o, ("components", 0, "genus"), -1),
            validate_structure,
            ["main: negative genus"],
        ),
        "trivial-genus": (
            neck2,
            lambda o: _set(o, ("components", 2, "genus"), 1),
            validate_structure,
            ["g1: trivial component must have genus 0"],
        ),
        "trivial-multiplicities-differ": (
            neck2,
            lambda o: _set(o, _slot(2, 1) + ("s",), 2),
            validate_structure,
            ["g1: multiplicities differ across ends in d1"],
        ),
        "trivial-signs-not-opposite": (
            neck2,
            lambda o: _set(o, _slot(2, 1) + ("eps",), -1),
            validate_structure,
            ["g1: signs must be opposite across ends in d1"],
        ),
        "nontrivial-undefined-multiplicity": (
            smooth_level_one,
            lambda o: _set(o, _slot(0, 0) + ("s",), None),
            validate_structure,
            ["main@zs: nontrivial component with undefined multiplicity in d1"],
        ),
        "node-on-one-point": (
            smooth_level_one,
            lambda o: _set(o, ("nodes", 0, "ends", 1), "main@zs"),
            validate_structure,
            [
                "zs: node must join two distinct points",
                "point main@zs lies on 2 nodes",
                "cap@zs: marked point on an infinity divisor (d1)",
                "marked contact degree 6 != A.V = 3",
            ],
        ),
        "unknown-point": (
            smooth_level_one,
            lambda o: _set(o, ("nodes", 0, "ends", 1), "nowhere"),
            validate_structure,
            [
                "zs: unknown point nowhere",
                "cap@zs: marked point on an infinity divisor (d1)",
                "marked contact degree 6 != A.V = 3",
            ],
        ),
        "point-on-two-nodes": (
            smooth_level_one,
            lambda o: o["nodes"].append({"id": "zz", "ends": ["main@zs", "cap@mk"]}),
            validate_structure,
            ["point main@zs lies on 2 nodes", "marked contact degree 0 != A.V = 3"],
        ),
        "marked-on-infinity": (
            smooth_level_one,
            lambda o: _set(o, _slot(1, 1) + ("eps",), -1),
            validate_structure,
            ["cap@mk: marked point on an infinity divisor (d1)"],
        ),
        "trivial-cycle": (
            neck2,
            lambda o: _set(o, ("nodes", 1, "ends", 0), "g2@x1"),
            _contraction_error,
            ["trivial components around g1 form a cycle"],
        ),
        "chain-two-marked-ends": (
            neck2,
            lambda o: o["nodes"].pop(2),
            _contraction_error,
            ["chain through g2 has two marked ends"],
        ),
        "trivial-cycle-validate": (
            neck2,
            lambda o: _set(o, ("nodes", 1, "ends", 0), "g2@x1"),
            _validate_structure,
            ["trivial components around g1 form a cycle"],
        ),
        "chain-two-marked-ends-validate": (
            neck2,
            lambda o: o["nodes"].pop(2),
            _validate_structure,
            [
                "chain through g2 has two marked ends",
                "g2@lo: marked point on an infinity divisor (d1)",
                "g2@lo: marked point on an infinity divisor (d2)",
                "marked contact degree 9 != A.V = 5",
            ],
        ),
        "image-strata-differ": (
            smooth_level_one,
            lambda o: _set(o, ("components", 1, "points", 0, "stratum"), "h2"),
            check_naive,
            ["zs: image strata differ (h1 vs h2)"],
        ),
        "branch-sets-differ": (
            smooth_level_one,
            lambda o: _set(o, _slot(1, 0) + ("direction",), "d2"),
            check_naive,
            ["zs: branch sets differ (('d1',) vs ('d2',))"],
        ),
        "multiplicity-drifts": (
            neck2,
            lambda o: _set(o, _slot(3, 1) + ("s",), 2),
            check_broken_cylinders,
            [
                "marked:g2@x1: multiplicity drifts along the fiber in d1: [1, 2]",
                "marked:g2@x1: no multiplicity available in d1",
            ],
        ),
        "no-multiplicity": (
            smooth_level_one,
            lambda o: (_set(o, _slot(0, 0) + ("s",), None), _set(o, _slot(1, 0) + ("s",), None)),
            check_broken_cylinders,
            [
                "node:cap@zs|main@zs: no multiplicity available in d1",
                "node:cap@zs|main@zs: node zs moves in no direction",
            ],
        ),
        "level-jumps": (
            smooth_level_one,
            lambda o: (_set(o, ("building", "m"), 2), _set(o, ("components", 1, "levels", "d1"), 2)),
            check_broken_cylinders,
            [
                "node:cap@zs|main@zs: level jumps by -2 in d1",
                "node:cap@zs|main@zs: node zs moves in no direction",
            ],
        ),
        "level-jumps-into-marked-end": (
            neck2,
            lambda o: _set(o, _slot(3, 1, 1) + ("level",), 0),
            check_broken_cylinders,
            ["marked:g2@x1: level jumps by -1 into the marked endpoint in d2"],
        ),
        "levels-not-monotone": (
            # g2 thawed in d1 and put back at level 0: d1 goes 0, 1, 0
            neck2,
            lambda o: (
                _set(o, ("components", 3, "levels", "d1"), 0),
                _set(o, _slot(3, 0) + ("formal",), False),
                _set(o, _slot(3, 1) + ("formal",), False),
                _set(o, _slot(3, 1) + ("level",), 0),
            ),
            check_broken_cylinders,
            ["marked:g2@x1: levels are not monotone in d1", "marked:g2@x1: repeated node level in d1"],
        ),
        "node-does-not-move": (
            smooth_level_one,
            lambda o: _set(o, ("components", 1, "levels", "d1"), 0),
            check_broken_cylinders,
            [
                "node:cap@zs|main@zs: node does not move in d1",
                "node:cap@zs|main@zs: node zs moves in no direction",
            ],
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_full_report(self, case):
        build, edit, report_of, report = self.CASES[case]
        obj = maptype_to_dict(build())
        edit(obj)
        assert report_of(maptype_from_dict(obj)) == report
