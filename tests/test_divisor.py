import dataclasses
from math import comb

import pytest

from ncd_moduli.divisor import (
    CombinatorialDivisor,
    Stratum,
    divisor_from_dict,
    divisor_to_dict,
    dumps,
    loads,
    local_model,
    locally_isomorphic,
    self_crossing_curve,
    simple_crossings,
    slot_orbits,
    stratum_counts,
    validate,
)


def ex4dim():
    return simple_crossings(4, ["v1", "v2"], {frozenset({"v1", "v2"}): 1})


class TestValidate:
    def test_local_model_valid(self):
        assert validate(local_model(2)) == []

    def test_depth_exceeds_dimension(self):
        d = local_model(3)
        shallow = CombinatorialDivisor(4, d.components, d.strata)
        assert any("2k <= dimX" in v for v in validate(shallow))

    def test_self_crossing_valid(self):
        assert validate(self_crossing_curve()) == []

    def test_monodromy_must_preserve_components(self):
        d = ex4dim()
        bad = CombinatorialDivisor(
            d.dim_x,
            d.components,
            tuple(
                Stratum(s.id, s.depth, s.slots, s.normalization_components, ((1, 0),), s.boundary)
                if s.depth == 2
                else s
                for s in d.strata
            ),
        )
        assert any("different component" in v for v in validate(bad))

    def test_self_crossing_swap_monodromy_allowed(self):
        d = self_crossing_curve()
        swapped = CombinatorialDivisor(
            d.dim_x,
            d.components,
            tuple(
                Stratum(s.id, s.depth, s.slots, s.normalization_components, ((1, 0),), s.boundary)
                if s.depth == 2
                else s
                for s in d.strata
            ),
        )
        assert validate(swapped) == []


def _one_line(**change):
    """local_model(1), the line h1 in the plane X, with the given fields
    replaced: ``dim_x`` or ``components`` of the divisor, or ``X`` or ``h1``
    as a dict of stratum fields, or ``extra`` strata appended."""
    d = local_model(1)
    strata = tuple(dataclasses.replace(s, **change.get(s.id, {})) for s in d.strata)
    return CombinatorialDivisor(
        change.get("dim_x", d.dim_x), change.get("components", d.components), strata + change.get("extra", ())
    )


class TestValidateRules:
    """One minimal broken divisor per rule of ``validate``, with its messages."""

    H1 = local_model(1).components[0]
    CASES = {
        "dimX-odd": ({"dim_x": 3}, ["dimX must be even and positive, got 3"]),
        "duplicate-component": ({"components": (H1, H1)}, ["duplicate component ids"]),
        "duplicate-stratum": ({"extra": (Stratum("h1", 1, ("h1",)),)}, ["duplicate stratum ids"]),
        "two-depth-0": (
            {"extra": (Stratum("Y", 0, boundary={"h1"}),)}, ["expected exactly one depth-0 stratum, found 2"]
        ),
        "depth-0-slots": (
            {"X": {"slots": ("h1",)}}, ["depth-0 stratum must have no slots", "X: slot count 1 != depth 0"]
        ),
        "slot-count": ({"h1": {"slots": ("h1", "h1")}}, ["h1: slot count 2 != depth 1"]),
        "normalization": ({"h1": {"normalization_components": 0}}, ["h1: normalization_components must be positive"]),
        "unknown-component": ({"h1": {"slots": ("h9",)}}, ["h1: slot references unknown component 'h9'"]),
        "not-a-permutation": ({"h1": {"monodromy": ((1,),)}}, ["h1: monodromy (1,) is not a permutation of its slots"]),
        "boundary-depth": ({"h1": {"boundary": {"X"}}}, ["h1: boundary stratum X is not one level deeper"]),
        "in-no-boundary": ({"X": {"boundary": ()}}, ["h1: depth-1 stratum not in any boundary"]),
    }

    def test_base_is_valid(self):
        assert validate(_one_line()) == []

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_message(self, case):
        change, messages = self.CASES[case]
        assert validate(_one_line(**change)) == messages

    def test_strata_exits_1(self, capsys, tmp_path):
        from ncd_moduli.cli import run

        path = tmp_path / "bad.json"
        path.write_text(dumps(_one_line(components=(self.H1, self.H1))), encoding="utf-8")
        code = run(["strata", str(path)])
        assert (code, capsys.readouterr().out) == (1, "invalid divisor:\n  - duplicate component ids\n")


class TestLocalModel:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stratum_counts_match_binomials(self, n):
        d = local_model(n)
        assert d.dim_x == 2 * n
        assert len(d.components) == n
        for k in range(1, n + 1):
            assert len(d.strata_at(k)) == comb(n, k)
            counts = stratum_counts(d, k)
            assert counts.resolution_of_vk == comb(n, k)
            assert counts.double_resolution == k * comb(n, k)
            assert counts.resolution_of_wk1 == (k + 1) * comb(n, k + 1)

    def test_smooth_divisor(self):
        d = local_model(1)
        assert stratum_counts(d, 1) == stratum_counts(d, 1).__class__(1, 1, 0)

    def test_boundary_depth_consistent(self):
        d = local_model(4)
        for s in d.strata:
            for b in s.boundary:
                assert d.stratum(b).depth == s.depth + 1
                for bb in d.stratum(b).boundary:
                    assert d.stratum(bb).depth == s.depth + 2

    def test_missing_depth_raises(self):
        with pytest.raises(ValueError):
            stratum_counts(local_model(2), 3)


class TestSimpleCrossings:
    def test_ex4dim(self):
        d = ex4dim()
        assert validate(d) == []
        assert len(d.strata_at(1)) == 2
        assert len(d.strata_at(2)) == 1
        assert stratum_counts(d, 1).resolution_of_vk == 2

    def test_three_lines(self):
        pairs = {frozenset(p): 1 for p in [("l1", "l2"), ("l1", "l3"), ("l2", "l3")]}
        d = simple_crossings(4, ["l1", "l2", "l3"], pairs)
        assert validate(d) == []
        assert len(d.strata_at(2)) == 3
        assert stratum_counts(d, 2).resolution_of_vk == 3

    def test_smooth(self):
        d = simple_crossings(4, ["v"])
        assert validate(d) == []
        assert d.max_depth() == 1

    def test_closure_enforced(self):
        with pytest.raises(ValueError):
            simple_crossings(
                6,
                ["a", "b", "c"],
                [(["a", "b", "c"], 1)],  # triple without declared pairs
            )


class TestSelfCrossing:
    def test_shape(self):
        d = self_crossing_curve()
        assert len(d.components) == 1
        (deep,) = d.strata_at(2)
        assert deep.slots == ("c", "c")
        assert d.stratum("c").normalization_components == 1
        assert stratum_counts(d, 1).resolution_of_vk == 1
        assert stratum_counts(d, 1).resolution_of_wk1 == 2

    def test_locally_isomorphic_to_simple_point(self):
        (a,) = self_crossing_curve().strata_at(2)
        (b,) = ex4dim().strata_at(2)
        assert locally_isomorphic(a, b)
        assert not locally_isomorphic(a, ex4dim().strata_at(1)[0])

    def test_swapping_monodromy(self):
        # a monodromy that swaps the two branches at the crossing joins its slots
        d = self_crossing_curve()
        plain = d.stratum("c,c")
        swapped = dataclasses.replace(plain, monodromy=((1, 0),))
        e = dataclasses.replace(d, strata=tuple(swapped if s.id == "c,c" else s for s in d.strata))
        assert validate(e) == []
        assert slot_orbits(swapped) == ((0, 1),) and slot_orbits(plain) == ((0,), (1,))
        assert (stratum_counts(e, 2).double_resolution, stratum_counts(d, 2).double_resolution) == (1, 2)
        assert (stratum_counts(e, 1).resolution_of_wk1, stratum_counts(d, 1).resolution_of_wk1) == (1, 2)
        assert not locally_isomorphic(swapped, plain)


class TestFormat:
    @pytest.mark.parametrize("d", [local_model(3), ex4dim(), self_crossing_curve()])
    def test_round_trip(self, d):
        text = dumps(d)
        again = loads(text)
        assert dumps(again) == text
        assert divisor_to_dict(divisor_from_dict(divisor_to_dict(d))) == divisor_to_dict(d)
        assert validate(again) == []
