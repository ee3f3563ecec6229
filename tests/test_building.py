import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncd_moduli import building
from ncd_moduli.building import (
    DivisorStratumLabel,
    PieceLabel,
    build,
    build_multi,
    building_to_dict,
    collapse,
    divisor_strata,
    dumps,
    rescaled_disk,
    torus_weight,
)
from ncd_moduli.divisor import (
    BranchComponent,
    CombinatorialDivisor,
    Stratum,
    local_model,
    self_crossing_curve,
    simple_crossings,
)
from oracle_helpers import reference_build


def ex4dim():
    return simple_crossings(4, ["v1", "v2"], {frozenset({"v1", "v2"}): 1})


def swapped_self_crossing():
    """The self-crossing curve with its two branches at the node swapped by monodromy."""
    d = self_crossing_curve()
    return CombinatorialDivisor(
        d.dim_x,
        d.components,
        tuple(
            Stratum(s.id, s.depth, s.slots, s.normalization_components, ((1, 0),), s.boundary)
            if s.depth == 2
            else s
            for s in d.strata
        ),
    )


class TestBuild:
    def test_level_zero_is_single_piece(self):
        b = build(ex4dim(), 0)
        assert [r.label for r in b.pieces] == [PieceLabel("X", ())]

    def test_ex4dim_level_one_three_main_classes(self):
        b = build(ex4dim(), 1)
        assert b.class_count() == 3
        assert b.class_count(depth=1) == 1
        assert b.class_count(depth=2) == 1

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_ex4dim_piece_counts(self, m):
        b = build(ex4dim(), m)
        assert b.class_count(depth=2) == m * m
        assert b.class_count(depth=1) == m

    def test_ex4dim_level_two_f2_labels(self):
        b = build(ex4dim(), 2)
        deep = {r.label.levels for r in b.pieces if r.depth == 2}
        assert deep == {(1, 1), (1, 2), (2, 1), (2, 2)}

    @pytest.mark.parametrize("k,m", [(1, 1), (2, 2), (2, 4), (3, 3), (3, 4)])
    def test_local_label_count(self, k, m):
        b = build(local_model(k), m)
        deepest = local_model(k).strata_at(k)[0]
        assert len(b.local_labels(deepest.id)) == (m + 1) ** k

    def test_self_crossing_counts_match_simple_point(self):
        bb = build(self_crossing_curve(), 2)
        assert bb.class_count(depth=2) == 4
        assert bb.class_count(depth=1) == 2

    def test_monodromy_merges_level_pairs(self):
        b = build(swapped_self_crossing(), 2)
        deep = [r for r in b.pieces if r.depth == 2]
        # (1,2) and (2,1) fall into one orbit of size 2
        assert sorted(r.label.levels for r in deep) == [(1, 1), (1, 2), (2, 2)]
        assert {r.label.levels: r.orbit_size for r in deep}[(1, 2)] == 2

    @pytest.mark.parametrize(
        "d,m",
        [(local_model(3), 2), (self_crossing_curve(), 3), (swapped_self_crossing(), 3)],
        ids=["local_model-3", "self_crossing", "swapped_self_crossing"],
    )
    def test_attaching_pairs_reuse_infinity_labels(self, d, m):
        b = build(d, m)
        infinity = {id(x) for x in b.divisor_strata if x.sign == -1}
        assert b.attaching and all(id(q) in infinity for _, q in b.attaching)


class TestMulti:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_square_multibuilding(self, m):
        b = build_multi(ex4dim(), (m, m))
        deep = [r for r in b.pieces if r.depth == 2]
        assert {r.label.levels for r in deep} == set(
            itertools.product(range(1, m + 1), repeat=2)
        )
        assert all(r.base_components == 1 and r.orbit_size == 1 for r in deep)

    def test_rectangular(self):
        b = build_multi(ex4dim(), (1, 3))
        assert sum(1 for r in b.pieces if r.depth == 2) == 3

    def test_self_crossing_rejects_independent_levels(self):
        with pytest.raises(ValueError, match="scaling direction"):
            build_multi(self_crossing_curve(), (1, 2))

    def test_self_crossing_single_direction_ok(self):
        b = build_multi(self_crossing_curve(), (2,))
        assert b.class_count(depth=2) == 4

    def test_mapping_input(self):
        b = build_multi(ex4dim(), {"v1": 2, "v2": 2})
        assert b.class_count(depth=2) == 4

    def test_local_labels_take_each_slot_bound(self):
        # slot i runs over 0..the level count of its own scaling direction
        b = build_multi(ex4dim(), [1, 2])
        assert [lab.levels for lab in b.local_labels("v1,v2")] == list(itertools.product(range(2), range(3)))
        assert {lab.stratum for lab in b.local_labels("v1,v2")} == {"v1,v2"}


class TestDivisorStrata:
    def test_depth1_level1(self):
        assert len(divisor_strata(PieceLabel("v", (1,)))) == 3

    def test_depth2_level11(self):
        sigs = divisor_strata(PieceLabel("p", (1, 1)), include_open=False)
        assert len(sigs) == 8

    def test_level0_only_plus(self):
        sigs = divisor_strata(PieceLabel("v", (0,)), include_open=False)
        assert sigs == ((1,),)

    def test_minus_requires_positive_level(self):
        for sig in divisor_strata(PieceLabel("p", (0, 2))):
            assert sig[0] != -1


class TestDualPairs:
    def test_smooth_divisor(self):
        b = build(local_model(1), 1)
        pair = (
            DivisorStratumLabel("h1", (0,), 0, 1),
            DivisorStratumLabel("h1", (1,), 0, -1),
        )
        assert pair in b.attaching

    def test_ex4dim_fiber_pairs_with_edge(self):
        b = build(ex4dim(), 1)
        pair = (
            DivisorStratumLabel("v1,v2", (1, 0), 1, 1),
            DivisorStratumLabel("v1,v2", (1, 1), 1, -1),
        )
        assert pair in b.attaching

    def test_rescaled_disk_pairs(self):
        disk = rescaled_disk(2)
        assert disk.attaching_pairs == (((0, 1), (1, -1)), ((1, 1), (2, -1)))
        building_pairs = {
            (p.levels[0], q.levels[0]) for p, q in disk.building.attaching
        }
        assert building_pairs == {(0, 1), (1, 2)}

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_perfect_matching_on_infinity_strata(self, m):
        b = build(ex4dim(), m)
        minus = {x for x in b.divisor_strata if x.sign == -1}
        assert {q for _, q in b.attaching} == minus
        assert len(b.attaching) == len(minus)

    def test_minus_only_on_rescaled_slots(self):
        b = build(local_model(2), 3)
        for x in b.divisor_strata:
            if x.sign == -1:
                assert x.levels[x.slot] >= 1


class TestCollapse:
    def test_collapse_nothing(self):
        b = build(ex4dim(), 2)
        res = collapse(b, [])
        assert res.building.m == 2
        assert all(res.piece_map[r.label] == r.label for r in b.pieces)

    def test_collapse_all(self):
        b = build(ex4dim(), 2)
        res = collapse(b, [1, 2])
        assert res.building.m == 0
        assert set(res.piece_map.values()) == {PieceLabel("X", ())}

    def test_collapse_top_equals_smaller_build(self):
        b = build(ex4dim(), 3)
        res = collapse(b, [3])
        direct = build(ex4dim(), 2)
        assert {r.label for r in res.building.pieces} == {r.label for r in direct.pieces}
        assert set(res.piece_map.values()) <= {r.label for r in direct.pieces}

    def test_clamp_example(self):
        b = build(ex4dim(), 2)
        res = collapse(b, [1])
        assert res.piece_map[PieceLabel("v1,v2", (1, 2))] == PieceLabel("v1,v2", (1, 1))

    def test_rejects_bad_levels(self):
        with pytest.raises(ValueError):
            collapse(build(ex4dim(), 2), [3])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: build(local_model(2), 1.5), "level count m = 1.5 is not an integer"),
        (lambda: build(local_model(2), True), "level count m = True is not an integer"),
        (lambda: build_multi(local_model(2), [1.9, 1]), "level count 0 = 1.9 is not an integer"),
        (lambda: build_multi(local_model(2), {"h1": 2.5, "h2": 1}), "level count of h1 = 2.5 is not an integer"),
        (lambda: build_multi(local_model(2), {"h1": 2, "h2": True}), "level count of h2 = True is not an integer"),
        (lambda: collapse(build(local_model(2), 2), [1.5]), "collapsed level = 1.5 is not an integer"),
        (lambda: collapse(build(local_model(2), 2), [False]), "collapsed level = False is not an integer"),
    ],
    ids=["build-float", "build-bool", "multi-list", "multi-mapping-float", "multi-mapping-bool",
         "collapse-float", "collapse-bool"],
)
def test_level_counts_are_exact_integers(call, message):
    """A level count or collapsed level is an int that is not a bool, as in the loaders."""
    with pytest.raises(ValueError) as error:
        call()
    assert str(error.value) == message


class TestRescaledDisk:
    def test_m0(self):
        disk = rescaled_disk(0)
        assert disk.component_levels == (0,)
        assert disk.divisor_points == (("zero", 0),)
        assert disk.attaching_pairs == ()

    def test_m2(self):
        disk = rescaled_disk(2)
        assert len(disk.component_levels) == 3
        assert len(disk.divisor_points) == 3
        assert len(disk.attaching_pairs) == 2

    @pytest.mark.parametrize("k,m", [(2, 2), (3, 2), (2, 3)])
    def test_product_structure_over_deepest_point(self, k, m):
        b = build(local_model(k), m)
        deepest = local_model(k).strata_at(k)[0]
        labels = {lab.levels for lab in b.local_labels(deepest.id)}
        disk_levels = set(range(m + 1))
        assert labels == set(itertools.product(disk_levels, repeat=k))


class TestTorusWeight:
    def test_node_into_level_one(self):
        assert torus_weight(0, 1, 1) == (-1,)

    def test_node_between_one_and_two(self):
        assert torus_weight(1, 2, 2) == (1, -1)

    def test_same_level_inert(self):
        assert torus_weight(2, 2, 3) == (0, 0, 0)

    def test_bad_input(self):
        with pytest.raises(ValueError):
            torus_weight(2, 1, 3)


@st.composite
def one_component_divisors(draw):
    """Strata of depth 1..k <= 4 on one component, each with one or two random
    slot permutations as monodromy, so some groups are not transitive."""
    k = draw(st.integers(1, 4))
    strata = [Stratum("X", 0, boundary={"s1"})]
    for depth in range(1, k + 1):
        gens = draw(st.lists(st.permutations(range(depth)), min_size=1, max_size=2))
        strata.append(
            Stratum(
                f"s{depth}",
                depth,
                slots=("c",) * depth,
                monodromy=gens,
                boundary={f"s{depth + 1}"} if depth < k else (),
            )
        )
    return CombinatorialDivisor(2 * k, (BranchComponent("c"),), tuple(strata))


divisors = st.one_of(
    st.integers(1, 4).map(local_model),
    st.sampled_from(
        [
            ex4dim(),
            simple_crossings(6, ["a", "b", "c"], {frozenset("ab"): 2, frozenset("bc"): 1}),
            self_crossing_curve(),
        ]
    ),
    one_component_divisors(),
)


class TestReferenceBuilder:
    @given(divisors, st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_build(self, d, m):
        want = reference_build(d, "uniform", {c: m for c in d.component_ids()})
        assert building_to_dict(build(d, m)) == building_to_dict(want)

    @given(divisors, st.data())
    @settings(max_examples=100, deadline=None)
    def test_build_multi(self, d, data):
        ids = d.component_ids()
        levels = data.draw(st.lists(st.integers(0, 3), min_size=len(ids), max_size=len(ids)))
        want = reference_build(d, "multi", dict(zip(ids, levels)))
        assert building_to_dict(build_multi(d, levels)) == building_to_dict(want)


def _renamed(d: CombinatorialDivisor, names) -> CombinatorialDivisor:
    """d with each component and stratum id s replaced by names[s]."""
    return CombinatorialDivisor(
        d.dim_x,
        tuple(BranchComponent(names[c.id], c.name) for c in d.components),
        tuple(
            Stratum(
                names[s.id],
                s.depth,
                tuple(names[x] for x in s.slots),
                s.normalization_components,
                s.monodromy,
                frozenset(names[x] for x in s.boundary),
            )
            for s in d.strata
        ),
    )


@st.composite
def escaped_divisors(draw):
    """A divisor from ``divisors`` whose ids are arbitrary text: quotes,
    backslashes, control characters and non-ASCII characters included."""
    d = draw(divisors)
    ids = sorted({c.id for c in d.components} | {s.id for s in d.strata})
    names = draw(st.lists(st.text(min_size=1, max_size=4), min_size=len(ids), max_size=len(ids), unique=True))
    return _renamed(d, dict(zip(ids, names)))


def _reference_dumps(b) -> str:
    return json.dumps(building_to_dict(b), indent=2, sort_keys=True) + "\n"


class TestDumps:
    """``dumps`` writes the text ``json.dumps`` writes for ``building_to_dict``."""

    @given(st.integers(1, 4), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_local_model(self, n, m):
        b = build(local_model(n), m)
        assert dumps(b) == _reference_dumps(b)

    @given(divisors, st.data())
    @settings(max_examples=60, deadline=None)
    def test_build_multi(self, d, data):
        ids = d.component_ids()
        levels = data.draw(st.lists(st.integers(0, 3), min_size=len(ids), max_size=len(ids)))
        b = build_multi(d, levels)
        assert dumps(b) == _reference_dumps(b)

    @given(one_component_divisors(), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_monodromy(self, d, m):
        b = build(d, m)
        assert dumps(b) == _reference_dumps(b)

    @given(escaped_divisors(), st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_escaped_ids(self, d, m):
        b = build(d, m)
        assert dumps(b) == _reference_dumps(b)

    def test_examples(self):
        d = self_crossing_curve()
        swapped = CombinatorialDivisor(
            d.dim_x, d.components, tuple(s if s.depth < 2 else Stratum(s.id, 2, s.slots, monodromy=((1, 0),)) for s in d.strata)
        )
        escaped = build(_renamed(swapped, {"X": "X", "c": 'q"\\\n\u00e9', "c,c": "\x00"}), 3)
        assert any(r.orbit_size == 2 for r in escaped.pieces)
        text = dumps(escaped)
        assert r'"q\"\\\n\u00e9"' in text and r'"\u0000"' in text
        unequal = build_multi(simple_crossings(6, ["a", "b", "c"], {frozenset("ab"): 2}), [0, 2, 3])
        for b in (build(local_model(1), 0), unequal, escaped):
            assert dumps(b) == _reference_dumps(b)


class TestOrbitsOnce:
    @pytest.mark.parametrize(
        "d,m,calls", [(local_model(3), 2, 144), (self_crossing_curve(), 3, 36)]
    )
    def test_one_signed_orbit_per_plus_label(self, monkeypatch, d, m, calls):
        counted = []
        original = building._orbit_signed

        def orbit_signed(*args):
            counted.append(args)
            return original(*args)

        monkeypatch.setattr(building, "_orbit_signed", orbit_signed)
        b = build(d, m)
        assert len(counted) == calls == sum(1 for x in b.divisor_strata if x.sign == 1)
