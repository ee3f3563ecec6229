import copy
import gc
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ncd_moduli import building as bd
from ncd_moduli import levelsys as ls
from ncd_moduli import maptype as mp
from ncd_moduli.cli import run
from ncd_moduli.fixtures import CATALOG

DATA = Path(__file__).parent / "data"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def fixture_file(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.json"
        path.write_text(CATALOG[name].text(), encoding="utf-8")
        return str(path)

    return write


class TestStrata:
    def test_local_model_counts(self, capsys, fixture_file):
        code, out, _ = invoke(capsys, "strata", fixture_file("ex0-n3"), "--k", "2")
        assert code == 0
        assert "resolution 3, cover 6, next divisor 3" in out

    def test_json_envelope(self, capsys, fixture_file):
        code, out, _ = invoke(capsys, "--json", "strata", fixture_file("ex0-n4"))
        assert code == 0
        payload = json.loads(out)
        assert payload["version"] == "ncd-moduli/1"
        assert payload["command"] == "strata"
        assert payload["result"]["counts"]["2"] == {
            "resolution_of_Vk": 6,
            "double_resolution": 12,
            "resolution_of_Wk1": 12,
        }

    @pytest.mark.parametrize(
        "data", [b"{not json", b"\xff\xfe{}", b"[" * 100_000], ids=["not-json", "not-utf-8", "deep-nesting"]
    )
    def test_malformed_input_exit_2(self, capsys, tmp_path, data):
        bad = tmp_path / "bad.json"
        bad.write_bytes(data)
        code, out, err = invoke(capsys, "strata", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed divisor file: ") and "Traceback" not in err


class TestBuilding:
    def test_ex4dim_m2_json(self, capsys, fixture_file):
        code, out, _ = invoke(capsys, "--json", "building", fixture_file("ex4dim"), "--m", "2")
        assert code == 0
        result = json.loads(out)["result"]
        deep = [p for p in result["pieces"] if p["depth"] == 2]
        assert len(deep) == 4

    @pytest.mark.parametrize("m", ["0", "2", "3"])
    @pytest.mark.parametrize("name", sorted(n for n, e in CATALOG.items() if e.kind == "divisor"))
    def test_json_matches_dict_envelope(self, capsys, fixture_file, name, m):
        # the golden table holds --m 1 only
        code, out, _ = invoke(capsys, "--json", "building", fixture_file(name), "--m", m)
        b = bd.build(CATALOG[name].build(), int(m))
        envelope = {"version": "ncd-moduli/1", "command": "building", "result": bd.building_to_dict(b)}
        assert (code, out) == (0, json.dumps(envelope, indent=2, sort_keys=True) + "\n")

    def test_multi_rejection(self, capsys, fixture_file):
        code, _, err = invoke(
            capsys, "building", fixture_file("ex4dim-b"), "--multi", "1,2"
        )
        assert code == 2
        assert "scaling direction" in err

    # an empty --multi is an empty entry, not "no --multi"
    @pytest.mark.parametrize("multi,entry", [("", "''"), ("1,,2", "''"), ("a,b", "'a'")])
    def test_multi_malformed_entry_exit_2(self, capsys, fixture_file, multi, entry):
        code, out, err = invoke(capsys, "building", fixture_file("ex4dim"), "--multi", multi)
        assert (code, out) == (2, "")
        assert err == f"error: --multi: entry {entry} is not an integer\n"


class TestNonStringIds:
    # field -> (where in ex4dim a list replaces a string, the name in the message)
    CASES = {
        "component": (("components", 0), "component id"),
        "stratum": (("strata", 1, "id"), "stratum id"),
        "slot": (("strata", 1, "slots", 0), "v1: slot reference"),
        "boundary": (("strata", 0, "boundary", 0), "X: boundary reference"),
    }

    @pytest.mark.parametrize("field", sorted(CASES))
    @pytest.mark.parametrize("command", ["strata", "building"])
    def test_exit_2(self, capsys, tmp_path, command, field):
        (*parents, key), name = self.CASES[field]
        obj = json.loads(CATALOG["ex4dim"].text())
        target = obj
        for k in parents:
            target = target[k]
        target[key] = ["v1"]
        path = tmp_path / "ids.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        code, out, err = invoke(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: malformed divisor file: {name} must be a string, not list\n"


class TestDivisorShapes:
    """A divisor list or object given as another JSON type exits 2 naming the field."""

    # (path to the field in ex4dim, bad value, message)
    CASES = {
        "components-object": (("components",), {"v1": 1, "v2": 2}, "components = {'v1': 1, 'v2': 2} is not a list"),
        "strata-object": (("strata",), {}, "strata = {} is not a list"),
        "stratum-list": (("strata", 0), [], "stratum = [] is not an object"),
        "monodromy-entry-int": (("strata", 3, "monodromy"), [3], "v1,v2: monodromy = 3 is not a list"),
        "monodromy-object": (("strata", 3, "monodromy"), {}, "v1,v2: monodromy = {} is not a list"),
        "slots-string": (("strata", 3, "slots"), "v1", "v1,v2: slots = 'v1' is not a list"),
        "boundary-string": (("strata", 0, "boundary"), "v1", "X: boundary = 'v1' is not a list"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("command", ["strata", "building"])
    def test_exit_2(self, capsys, tmp_path, command, case):
        path, value, message = self.CASES[case]
        obj = json.loads(CATALOG["ex4dim"].text())
        assert obj["strata"][3]["id"] == "v1,v2" and obj["strata"][0]["id"] == "X"
        file = _write_with(tmp_path, obj, path, value)
        code, out, err = invoke(capsys, command, str(file))
        assert (code, out) == (2, "")
        assert err == f"error: malformed divisor file: {message}\n"


class TestIntegerKeys:
    """Level and prime keys are integers written as str() writes them; any
    other spelling exits 2 naming the key, so no two keys name one integer."""

    BAD = ["1_0", " 1 ", "+1", "01", "1.0", "-0", "", "\u0661"]
    PRIME = ["+11", "011", "1_1", " 11"]
    NOT_CANONICAL = "is not a canonical integer of at most 1000 digits"

    @pytest.mark.parametrize("key", BAD)
    def test_level_key_exit_2(self, capsys, tmp_path, key):
        obj = copy.deepcopy(_GLUE_PAYLOAD)
        obj["levels"] = {key: obj["levels"]["1"]}
        file = tmp_path / "glue.json"
        file.write_text(json.dumps(obj), encoding="utf-8")
        code, out, err = invoke(capsys, "glue", str(file))
        assert (code, out) == (2, "")
        assert err == f"error: malformed gluing file: levels key {key!r} {self.NOT_CANONICAL}\n"

    @pytest.mark.parametrize("key", PRIME)
    @pytest.mark.parametrize("command", ["validate", "glue"])
    def test_prime_key_exit_2(self, capsys, tmp_path, command, key):
        obj = json.loads(CATALOG["neck2"].text()) if command == "validate" else copy.deepcopy(_GLUE_PAYLOAD)
        _first_coeff(obj)["primes"] = {key: "1"}
        file = tmp_path / "coeff.json"
        file.write_text(json.dumps(obj), encoding="utf-8")
        code, out, err = invoke(capsys, command, str(file))
        what = "map-type" if command == "validate" else "gluing"
        assert (code, out) == (2, "")
        assert err == f"error: malformed {what} file: magnitude key {key!r} {self.NOT_CANONICAL}\n"

    def test_two_spellings_of_one_prime_exit_2(self, capsys, tmp_path):
        obj = copy.deepcopy(_GLUE_PAYLOAD)
        obj["levels"]["1"]["primes"] = {"11": "1", "011": "2"}
        file = tmp_path / "glue.json"
        file.write_text(json.dumps(obj), encoding="utf-8")
        code, out, err = invoke(capsys, "glue", str(file))
        assert (code, out) == (2, "")
        assert f"magnitude key '011' {self.NOT_CANONICAL}" in err


class TestValidate:
    @pytest.mark.parametrize("name", ["neck1a", "neck1b", "neck2", "neck3"])
    def test_fixtures_exit_zero(self, capsys, fixture_file, name):
        code, out, _ = invoke(capsys, "validate", fixture_file(name))
        assert code == 0
        assert "valid: True" in out

    def test_broken_file_exit_one(self, capsys, tmp_path, fixture_file):
        obj = json.loads(CATALOG["neck1b"].text())
        obj["pairing"]["AV"] = 11
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        code, out, _ = invoke(capsys, "validate", str(path))
        assert code == 1
        assert "valid: False" in out

    def test_undecorated_node_is_not_satisfiable(self, capsys, tmp_path):
        # check_enhanced raises on a node slot with no coefficient; validate
        # reports that as the enhanced-matching failure, and levels still runs
        obj = json.loads(CATALOG["neck2"].text())
        obj["components"][0]["points"][0]["slots"][0]["coeff"] = None
        path = tmp_path / "undecorated.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        code, out, _ = invoke(capsys, "--json", "validate", str(path))
        result = json.loads(out)["result"]
        assert code == 1
        assert (result["enhanced"], result["enhanced_failure"]) == (False, "z0: undecorated coefficient in d1")
        assert (result["relatively_stable"], result["valid"]) == (True, False)
        assert invoke(capsys, "levels", str(path))[0] == 0


class TestLevels:
    def test_neck1b(self, capsys, fixture_file):
        code, out, _ = invoke(capsys, "--json", "levels", fixture_file("neck1b"))
        assert code == 0
        result = json.loads(out)["result"]
        assert result["feasible"] is True
        assert result["torus_dim"] == 1
        assert result["beta_relations"] == [["-2", "1"]]
        witness = result["witness"]
        assert 2 * json.loads(witness["1"]) == json.loads(witness["2"])


class TestDim:
    def test_flags(self, capsys):
        code, out, _ = invoke(
            capsys, "dim", "--c1A", "3", "--dimX", "4", "--chi", "2", "--ell", "1", "--AV", "3"
        )
        assert code == 0
        assert "expected dimension: 0" in out

    def test_maptype_file(self, capsys, fixture_file):
        code, out, _ = invoke(capsys, "--json", "dim", fixture_file("neck1b"), "--dimX", "4")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["stratum_codim"] == 2
        assert result["naive_gap"] == -2

    @pytest.mark.parametrize(
        "flags, named",
        [(["--c1A", "99", "--chi", "7"], "--c1A, --chi"), (["--ell", "0"], "--ell"), (["--AV", "1"], "--AV")],
        ids=["c1A-chi", "ell", "AV"],
    )
    def test_file_refuses_pairing_flags(self, capsys, fixture_file, flags, named):
        code, out, err = invoke(capsys, "dim", fixture_file("neck2"), "--dimX", "4", *flags)
        assert code == 2
        assert out == ""
        assert err == f"error: the map-type file supplies {named}; give only --dimX with it\n"

    def test_missing_flags(self, capsys):
        code, _, err = invoke(capsys, "dim", "--c1A", "3")
        assert code == 2
        assert "missing" in err

    def test_failed_contraction_exit_2(self, capsys, tmp_path):
        obj = json.loads(CATALOG["neck1a"].text())
        trivial = next(c for c in obj["components"] if c["trivial"])
        trivial["points"].append({"id": "extra", "slots": []})
        path = tmp_path / "three-points.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        code, out, err = invoke(capsys, "dim", str(path), "--dimX", "4")
        assert code == 2
        assert out == ""
        assert "trivial component must have exactly two special points" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("dim_x", ["3", "0"])
    @pytest.mark.parametrize("form", ["flags", "file"])
    def test_bad_dimx_exit_2(self, capsys, fixture_file, form, dim_x):
        if form == "flags":
            argv = ["--c1A", "1", "--dimX", dim_x, "--chi", "2", "--ell", "0", "--AV", "1"]
        else:
            argv = [fixture_file("neck2"), "--dimX", dim_x]
        code, out, err = invoke(capsys, "dim", *argv)
        assert code == 2
        assert out == ""
        assert err == "error: dimX must be even and at least 2\n"


def _composite_key(obj):
    """Rename the first magnitude key 2 found in a JSON tree to 4."""
    if isinstance(obj, dict):
        if "primes" in obj and "2" in obj["primes"]:
            obj["primes"]["4"] = obj["primes"].pop("2")
            return True
        return any(_composite_key(v) for v in obj.values())
    if isinstance(obj, list):
        return any(_composite_key(v) for v in obj)
    return False


class TestCompositeKey:
    @pytest.mark.parametrize(
        "argv", [["validate"], ["levels"], ["dim", "--dimX", "4"]], ids=lambda a: a[0]
    )
    def test_maptype_file_exit_2(self, capsys, tmp_path, argv):
        obj = json.loads(CATALOG["neck2"].text())
        assert _composite_key(obj)
        path = tmp_path / "composite.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        code, out, err = invoke(capsys, argv[0], str(path), *argv[1:])
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed map-type file")
        assert "magnitude key 4 is not a prime" in err

    def test_gluing_file_exit_2(self, capsys, tmp_path):
        payload = {
            "levels": {"1": {"primes": {"4": "1"}, "arg": "0"}},
            "nodes": [{"id": "x", "directions": [
                {"direction": "d1", "s": 2, "product": {"primes": {}, "arg": "0"}, "range": [0, 1]}]}],
        }
        path = tmp_path / "glue.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = invoke(capsys, "glue", str(path))
        assert code == 2
        assert out == ""
        assert "magnitude key 4 is not a prime" in err


def _first_coeff(obj):
    """The first coefficient object (one with a "primes" key) in a JSON tree."""
    if isinstance(obj, dict):
        if "primes" in obj:
            return obj
        values = obj.values()
    elif isinstance(obj, list):
        values = obj
    else:
        return None
    return next((c for c in map(_first_coeff, values) if c is not None), None)


_GLUE_PAYLOAD = {
    "levels": {"1": {"primes": {"2": "4"}, "arg": "0"}},
    "nodes": [{"id": "x", "directions": [
        {"direction": "d1", "s": 4, "product": {"primes": {}, "arg": "0"}, "range": [0, 1]}]}],
}


# Only a JSON integer or a string p or p/q is a rational: exponent and
# decimal notation are refused before any big number is built.
_NOT_RATIONAL = {"1e1000000": "'1e1000000'", "1.5": "'1.5'", 1.5: "1.5", True: "True"}


class TestMalformedCoeff:
    CASES = {
        "primes-list": ({"primes": ["2"]}, "coefficient primes must be an object, not list"),
        "arg-zero-den": ({"arg": "1/0"}, "coefficient arg = 1/0 has a zero denominator"),
        "exponent-zero-den": (
            {"primes": {"2": "1/0"}},
            "coefficient exponent of prime 2 = 1/0 has a zero denominator",
        ),
        **{
            f"{where}-{value!r}": (
                {"arg": value} if where == "arg" else {"primes": {"2": value}},
                f"coefficient {field} = {shown} is not an integer or a fraction p/q "
                "of at most 1000 digits each",
            )
            for where, field in [("arg", "arg"), ("exponent", "exponent of prime 2")]
            for value, shown in _NOT_RATIONAL.items()
        },
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("command", ["validate", "glue"])
    def test_exit_2(self, capsys, tmp_path, command, case):
        change, message = self.CASES[case]
        obj = json.loads(CATALOG["neck2"].text()) if command == "validate" else copy.deepcopy(_GLUE_PAYLOAD)
        _first_coeff(obj).update(change)
        path = tmp_path / "coeff.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        # CPU time of this process, not wall time: time spent descheduled on a
        # loaded host is not work done building numbers; and a collection now,
        # so that garbage earlier tests left is not collected during the call
        gc.collect()
        start = time.process_time()
        code, out, err = invoke(capsys, command, str(path))
        elapsed = time.process_time() - start
        what = "map-type" if command == "validate" else "gluing"
        assert code == 2
        assert out == ""
        assert err == f"error: malformed {what} file: {message}\n"
        assert elapsed < 0.05, f"{elapsed:.3f} s"


def _write_with(tmp_path, obj, path, value):
    """Write obj, with the field at path (keys and indices) set to value, to a file."""
    *parents, field = path
    holder = obj
    for key in parents:
        holder = holder[key]
    holder[field] = value
    file = tmp_path / "input.json"
    file.write_text(json.dumps(obj), encoding="utf-8")
    return file


class TestIntegerFields:
    """Integer fields take a JSON integer that is not a bool; anything else exits 2 naming it."""

    GLUE = {
        "s-float": ("s", 1.9, "x: d1 s = 1.9 is not an integer"),
        "s-string": ("s", "2", "x: d1 s = '2' is not an integer"),
        "s-bool": ("s", True, "x: d1 s = True is not an integer"),
        "s-null": ("s", None, "x: d1 s = None is not an integer"),
        "range-float": ("range", [0, 1.5], "x: d1 range = 1.5 is not an integer"),
        "range-bool": ("range", [False, 1], "x: d1 range = False is not an integer"),
        "range-string": ("range", "01", "x: d1 range = '01' is not a list of two integers"),
        "range-short": ("range", [1], "x: d1 range = [1] is not a list of two integers"),
    }
    MAPTYPE = {
        "s-bool": ("s", True, "main@z0: d1 s = True is not an integer"),
        "s-float": ("s", 1.5, "main@z0: d1 s = 1.5 is not an integer"),
        "s-string": ("s", "2", "main@z0: d1 s = '2' is not an integer"),
        "eps-float": ("eps", 1.0, "main@z0: d1 eps = 1.0 is not an integer"),
        "eps-bool": ("eps", True, "main@z0: d1 eps = True is not an integer"),
        "level-string": ("level", "0", "main@z0: d1 level = '0' is not an integer"),
        "level-bool": ("level", False, "main@z0: d1 level = False is not an integer"),
    }

    @pytest.mark.parametrize("case", sorted(GLUE))
    def test_gluing_exit_2(self, capsys, tmp_path, case):
        field, value, message = self.GLUE[case]
        obj = copy.deepcopy(_GLUE_PAYLOAD)
        obj["nodes"][0]["directions"][0][field] = value
        path = tmp_path / "glue.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        code, out, err = invoke(capsys, "glue", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: malformed gluing file: {message}\n"

    @pytest.mark.parametrize("case", sorted(MAPTYPE))
    @pytest.mark.parametrize(
        "argv", [["validate"], ["levels"], ["dim", "--dimX", "4"]], ids=lambda a: a[0]
    )
    def test_maptype_exit_2(self, capsys, tmp_path, argv, case):
        field, value, message = self.MAPTYPE[case]
        obj = json.loads(CATALOG["neck2"].text())
        slot = obj["components"][0]["points"][0]["slots"][0]
        assert slot["direction"] == "d1"
        slot[field] = value
        path = tmp_path / "maptype.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        code, out, err = invoke(capsys, argv[0], str(path), *argv[1:])
        assert (code, out) == (2, "")
        assert err == f"error: malformed map-type file: {message}\n"

    # (file kind, fixture, path to the field, bad value, message)
    FIELDS = {
        "building-m-float": ("map-type", "neck2", ("building", "m"), 2.7, "building m = 2.7"),
        "building-levels-bool": ("map-type", "neck2", ("building", "levels", "v1"), True, "building levels v1 = True"),
        "component-levels-float": (
            "map-type", "neck2", ("components", 0, "levels", "d1"), 1.0, "main levels d1 = 1.0"
        ),
        "genus-string": ("map-type", "neck2", ("components", 0, "genus"), "0", "main genus = '0'"),
        "c1A-float": ("map-type", "neck2", ("pairing", "c1A"), 5.0, "pairing c1A = 5.0"),
        "AV-string": ("map-type", "neck2", ("pairing", "AV"), "5", "pairing AV = '5'"),
        "chi-bool": ("map-type", "neck2", ("pairing", "chi"), True, "pairing chi = True"),
        "ell-null": ("map-type", "neck2", ("pairing", "ell"), None, "pairing ell = None"),
        "dimX-bool": ("divisor", "ex0-n3", ("dimX",), True, "dimX = True"),
        "depth-float": ("divisor", "ex0-n3", ("strata", 0, "depth"), 0.0, "X: depth = 0.0"),
        "monodromy-float": ("divisor", "ex4dim", ("strata", 3, "monodromy"), [[1.0, 0]], "v1,v2: monodromy = 1.0"),
        "normalization-string": (
            "divisor", "ex0-n3", ("strata", 0, "normalization_components"), "1",
            "X: normalization_components = '1'",
        ),
    }
    COMMANDS = {"map-type": [["validate"], ["levels"], ["dim", "--dimX", "4"]], "divisor": [["strata"]]}

    @pytest.mark.parametrize("case", sorted(FIELDS))
    def test_loader_field_exit_2(self, capsys, tmp_path, case):
        what, name, path, value, message = self.FIELDS[case]
        obj = json.loads(CATALOG[name].text())
        file = _write_with(tmp_path, obj, path, value)
        for argv in self.COMMANDS[what]:
            code, out, err = invoke(capsys, argv[0], str(file), *argv[1:])
            assert (code, out) == (2, "")
            assert err == f"error: malformed {what} file: {message} is not an integer\n"

    def test_null_multiplicity_still_loads(self):
        obj = json.loads(CATALOG["neck2"].text())
        obj["components"][0]["points"][0]["slots"][0]["s"] = None
        assert mp.maptype_from_dict(obj).record("main@z0").slot("d1").s is None


class TestShapes:
    """An object or a list given as the other JSON type, or a value that the
    field cannot take, exits 2 naming the field."""

    # (command, path to the field, bad value, message); paths start in neck2
    # for validate and in the gluing payload for glue
    CASES = {
        "building-list": ("validate", ("building",), [], "building = [] is not an object"),
        "pairing-list": ("validate", ("pairing",), [], "pairing = [] is not an object"),
        "directions-list": ("validate", ("directions",), [], "directions = [] is not an object"),
        "component-levels-list": ("validate", ("components", 0, "levels"), [], "main levels = [] is not an object"),
        "building-levels-list": ("validate", ("building", "levels"), [1], "building levels = [1] is not an object"),
        "mode-int": ("validate", ("building", "mode"), 1, "building mode = 1 is not 'uniform' or 'multi'"),
        "mode-unknown": ("validate", ("building", "mode"), "Multi", "building mode = 'Multi' is not 'uniform' or 'multi'"),
        "direction-component-int": ("validate", ("directions", "d1"), 1, "directions d1 must be a string, not int"),
        "components-object": ("validate", ("components",), {}, "components = {} is not a list"),
        "component-string": ("validate", ("components", 0), "x", "component = 'x' is not an object"),
        "points-object": ("validate", ("components", 0, "points"), {}, "main points = {} is not a list"),
        "point-list": ("validate", ("components", 0, "points", 0), [], "main point = [] is not an object"),
        "slots-string": (
            "validate", ("components", 0, "points", 0, "slots"), "ab", "main@z0 slots = 'ab' is not a list"
        ),
        "slot-int": ("validate", ("components", 0, "points", 0, "slots", 0), 3, "main@z0 slot = 3 is not an object"),
        "slot-direction-twice": (
            "validate", ("components", 0, "points", 0, "slots"), [{"direction": "d1", "s": 1}] * 2,
            "main@z0: direction d1 is listed twice",
        ),
        "slot-direction-twice-other-s": (
            "validate", ("components", 0, "points", 0, "slots"),
            [{"direction": "d1", "s": 1}, {"direction": "d1", "s": 2}], "main@z0: direction d1 is listed twice",
        ),
        "nodes-object": ("validate", ("nodes",), {}, "nodes = {} is not a list"),
        "ends-string": ("validate", ("nodes", 0, "ends"), "ab", "z0 ends = 'ab' is not a list"),
        "node-list": ("validate", ("nodes", 0), [], "node = [] is not an object"),
        "component-id-int": ("validate", ("components", 0, "id"), 3, "component id must be a string, not int"),
        "point-id-int": (
            "validate", ("components", 0, "points", 0, "id"), 3, "main point id must be a string, not int"
        ),
        "node-id-int": ("validate", ("nodes", 0, "id"), 3, "node id must be a string, not int"),
        "node-end-int": ("validate", ("nodes", 0, "ends", 0), 3, "z0 end must be a string, not int"),
        "slot-direction-int": (
            "validate", ("components", 0, "points", 0, "slots", 0, "direction"), 1,
            "main@z0: slot direction must be a string, not int",
        ),
        "stratum-int": (
            "validate", ("components", 0, "points", 0, "stratum"), 2, "main@z0 stratum must be a string, not int"
        ),
        "trivial-string": ("validate", ("components", 2, "trivial"), "no", "g1 trivial = 'no' is not a boolean"),
        "trivial-int": ("validate", ("components", 0, "trivial"), 0, "main trivial = 0 is not a boolean"),
        "formal-string": (
            "validate", ("components", 0, "points", 0, "slots", 0, "formal"), "false",
            "main@z0: d1 formal = 'false' is not a boolean",
        ),
        "eps-2": (
            "validate", ("components", 0, "points", 0, "slots", 0, "eps"), 2,
            "main@z0: d1 sign must be -1, 0 or +1",
        ),
        "eps-minus-2": (
            "validate", ("components", 0, "points", 0, "slots", 0, "eps"), -2,
            "main@z0: d1 sign must be -1, 0 or +1",
        ),
        "s-0": (
            "validate", ("components", 0, "points", 0, "slots", 0, "s"), 0,
            "main@z0: d1 multiplicity must be positive or undefined",
        ),
        "s-negative": (
            "validate", ("components", 0, "points", 0, "slots", 0, "s"), -3,
            "main@z0: d1 multiplicity must be positive or undefined",
        ),
        "glue-levels-list": ("glue", ("levels",), [], "levels = [] is not an object"),
        "glue-nodes-object": ("glue", ("nodes",), {}, "nodes = {} is not a list"),
        "glue-directions-object": ("glue", ("nodes", 0, "directions"), {}, "x directions = {} is not a list"),
        "glue-directions-empty": ("glue", ("nodes", 0, "directions"), [], "x: directions must not be empty"),
        "glue-node-list": ("glue", ("nodes", 0), [], "node = [] is not an object"),
        "glue-direction-list": ("glue", ("nodes", 0, "directions", 0), [], "x direction = [] is not an object"),
        "glue-node-id-int": ("glue", ("nodes", 0, "id"), 1, "node id must be a string, not int"),
        "glue-direction-int": (
            "glue", ("nodes", 0, "directions", 0, "direction"), 1, "x: direction must be a string, not int"
        ),
        "glue-range-reversed": (
            "glue", ("nodes", 0, "directions", 0, "range"), [3, 1], "x: d1 range = [3, 1] is reversed"
        ),
    }
    # a map-type case is run through every subcommand that loads a map type
    COMMANDS = {"validate": [["validate"], ["levels"], ["dim", "--dimX", "4"]], "glue": [["glue"]]}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_2(self, capsys, tmp_path, case):
        command, path, value, message = self.CASES[case]
        obj = json.loads(CATALOG["neck2"].text()) if command == "validate" else copy.deepcopy(_GLUE_PAYLOAD)
        assert command == "glue" or [c["id"] for c in obj["components"]][:3] == ["main", "bubble", "g1"]
        file = _write_with(tmp_path, obj, path, value)
        what = "map-type" if command == "validate" else "gluing"
        for argv in self.COMMANDS[command]:
            code, out, err = invoke(capsys, argv[0], str(file), *argv[1:])
            assert (code, out) == (2, ""), argv
            assert err == f"error: malformed {what} file: {message}\n"

    def test_null_stratum_still_loads(self):
        obj = json.loads(CATALOG["neck2"].text())
        obj["components"][0]["points"][0]["stratum"] = None
        assert mp.maptype_from_dict(obj).record("main@z0").stratum is None

    @pytest.mark.parametrize("command", ["validate", "levels"])
    def test_divisor_file_given_as_map_type(self, capsys, fixture_file, command):
        # a divisor lists its components as strings
        code, out, err = invoke(capsys, command, fixture_file("ex0-n3"))
        assert (code, out) == (2, "")
        assert err == "error: malformed map-type file: component = 'h1' is not an object\n"


class TestLevelPastBuilding:
    """A walk step at a level the building does not have is a broken-cylinder
    violation: validate and levels exit 1, dim exits 2, each naming every
    offending step."""

    # (fixture, path to the field, value, the offending steps)
    CASES = {
        "neck1b-m1": (
            "neck1b", ("building", "m"), 1, [
                "marked:f12@x1: direction d1 reaches level 2, which the building does not have",
                "marked:f12@x1: direction d2 reaches level 2, which the building does not have",
                "marked:t2@x2: direction d1 reaches level 2, which the building does not have",
                "node:bubble@z4|main@z3: direction d2 reaches level 2, which the building does not have",
            ],
        ),
        "neck2-no-building": (
            "neck2", ("building",), {"levels": {"1": 1}}, [
                "marked:g2@x1: direction d1 reaches level 1, which the building does not have",
                "marked:g2@x1: direction d2 reaches level 1, which the building does not have",
                "node:bubble@z0|main@z0: direction d1 reaches level 1, which the building does not have",
                "node:bubble@z0|main@z0: direction d2 reaches level 1, which the building does not have",
            ],
        ),
        "neck2-direction-without-levels": (
            "neck2", ("directions", "d1"), "v3", [
                "marked:g2@x1: direction d1 reaches level 1, which the building does not have",
                "node:bubble@z0|main@z0: direction d1 reaches level 1, which the building does not have",
            ],
        ),
        "neck2-direction-without-component": (
            "neck2", ("directions",), {"d2": "v2"}, [
                "marked:g2@x1: direction d1 has no scaling component",
                "node:bubble@z0|main@z0: direction d1 has no scaling component",
            ],
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_levels_exit_1_dim_exit_2(self, capsys, tmp_path, case):
        name, path, value, steps = self.CASES[case]
        file = str(_write_with(tmp_path, json.loads(CATALOG[name].text()), path, value))
        message = "; ".join(steps)
        assert invoke(capsys, "levels", file) == (1, "", f"level system cannot be built: {message}\n")
        assert invoke(capsys, "dim", file, "--dimX", "4") == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_validate_exit_1_lists_each_step(self, capsys, tmp_path, case):
        name, path, value, steps = self.CASES[case]
        file = str(_write_with(tmp_path, json.loads(CATALOG[name].text()), path, value))
        code, out, err = invoke(capsys, "--json", "validate", file)
        assert (code, err) == (1, "")
        result = json.loads(out)["result"]
        assert result["valid"] is False
        assert result["broken_cylinders"] == steps
        assert (result["structure"], result["naive"], result["enhanced"]) == ([], [], None)
        code, out, _ = invoke(capsys, "validate", file)
        assert code == 1
        assert out == "valid: False\nbroken_cylinders violations:\n" + "".join(f"  - {v}\n" for v in steps)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_error_on_every_build(self, tmp_path, case):
        name, path, value, steps = self.CASES[case]
        file = _write_with(tmp_path, json.loads(CATALOG[name].text()), path, value)
        mt = mp.loads(file.read_text(encoding="utf-8"))
        for _ in range(2):
            with pytest.raises(ls.LevelSystemError) as error:
                ls.build_system(mt)
            assert str(error.value) == "; ".join(steps)


class TestTopLevel:
    @pytest.mark.parametrize(
        "argv",
        [["validate"], ["levels"], ["dim", "--dimX", "4"], ["glue"], ["strata"], ["building"]],
        ids=lambda a: a[0],
    )
    @pytest.mark.parametrize("text", ["[]", "3", "null"])
    def test_non_object_exit_2(self, capsys, tmp_path, argv, text):
        path = tmp_path / "top.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = invoke(capsys, argv[0], str(path), *argv[1:])
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed") and "JSON object" in err


class TestHugeInteger:
    """A JSON integer past Python's 4,300-digit int/str limit is malformed input."""

    @pytest.mark.parametrize(
        "command, name, path, what",
        [
            ("strata", "ex0-n4", ("dimX",), "divisor"),
            ("validate", "neck2", ("building", "m"), "map-type"),
            ("glue", "glue-mult6", ("nodes", 0, "directions", 0, "s"), "gluing"),
        ],
        ids=["strata-dimX", "validate-building-m", "glue-s"],
    )
    def test_exit_2(self, capsys, tmp_path, command, name, path, what):
        text = CATALOG[name].text() if name in CATALOG else (DATA / f"{name}.json").read_text(encoding="utf-8")
        obj = json.loads(text)
        *parents, field = path
        holder = obj
        for key in parents:
            holder = holder[key]
        assert isinstance(holder[field], int)
        holder[field] = "HUGE"
        target = tmp_path / "huge.json"
        target.write_text(json.dumps(obj).replace('"HUGE"', "1" + "0" * 4999), encoding="utf-8")
        code, out, err = invoke(capsys, command, str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: malformed {what} file: ")
        assert "Traceback" not in err


class TestHugeLevelCount:
    """A building with 10**12 levels is checked without listing its levels."""

    @pytest.mark.parametrize(
        "name, path",
        [("neck1a", ("building", "m")), ("neck2", ("building", "levels", "v1"))],
        ids=["uniform-m", "multi-v1"],
    )
    def test_validate_exit_1(self, capsys, tmp_path, name, path):
        file = _write_with(tmp_path, json.loads(CATALOG[name].text()), path, 10**12)
        # CPU time, as in TestMalformedCoeff: listing the levels would take hours
        start = time.process_time()
        code, out, err = invoke(capsys, "validate", str(file))
        elapsed = time.process_time() - start
        assert code == 1
        assert out == "valid: False\nenhanced matching: satisfiable\nrelatively stable: False\n"
        assert err == ""
        assert elapsed < 0.1, f"{elapsed:.3f} s"


class TestGlue:
    def test_fourth_roots(self, capsys, tmp_path):
        payload = {
            "levels": {"1": {"primes": {"2": "4"}, "arg": "0"}},
            "nodes": [
                {
                    "id": "x",
                    "directions": [
                        {
                            "direction": "d1",
                            "s": 4,
                            "product": {"primes": {}, "arg": "0"},
                            "range": [0, 1],
                        }
                    ],
                }
            ],
        }
        path = tmp_path / "glue.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, _ = invoke(capsys, "--json", "glue", str(path))
        assert code == 0
        result = json.loads(out)["result"]
        assert result["total_count"] == 4

    def test_inconsistent_exit_one(self, capsys, tmp_path):
        payload = {
            "levels": {"1": {"primes": {}, "arg": "0"}},
            "nodes": [
                {
                    "id": "x",
                    "directions": [
                        {"direction": "d1", "s": 1, "product": {"primes": {"2": "1"}, "arg": "0"}, "range": [0, 1]},
                        {"direction": "d2", "s": 1, "product": {"primes": {"3": "1"}, "arg": "0"}, "range": [0, 1]},
                    ],
                }
            ],
        }
        path = tmp_path / "glue.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, _ = invoke(capsys, "glue", str(path))
        assert code == 1
        assert "inconsistent" in out

    def test_zero_multiplicity_exit_2(self, capsys, tmp_path):
        payload = {
            "levels": {"1": {"primes": {}, "arg": "0"}},
            "nodes": [
                {
                    "id": "x",
                    "directions": [
                        {"direction": "d1", "s": 0, "product": {"primes": {}, "arg": "0"}, "range": [0, 1]},
                    ],
                }
            ],
        }
        path = tmp_path / "glue.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = invoke(capsys, "glue", str(path))
        assert code == 2
        assert out == ""
        assert "multiplicity 0 in d1 must be positive" in err

    @staticmethod
    def _long_chain(levels):
        """One direction crossing levels 1..levels, each with parameter 2."""
        return {
            "levels": {str(l): {"primes": {"2": "1"}, "arg": "0"} for l in range(1, levels + 1)},
            "nodes": [{"id": "x", "directions": [
                {"direction": "d1", "s": 1, "product": {"primes": {}, "arg": "0"}, "range": [0, levels]}]}],
        }

    def test_many_levels_linear(self, capsys, tmp_path):
        path = tmp_path / "glue.json"
        path.write_text(json.dumps(self._long_chain(20000)), encoding="utf-8")
        # CPU time, as in TestMalformedCoeff; a parameter table rebuilt per
        # crossed level takes seconds here
        start = time.process_time()
        code, out, _ = invoke(capsys, "glue", str(path))
        elapsed = time.process_time() - start
        assert code == 0
        assert out.endswith("total branches: 1\n")
        assert elapsed < 2, f"{elapsed:.3f} s"

    def test_missing_level_exit_2(self, capsys, tmp_path):
        payload = self._long_chain(3)
        del payload["levels"]["2"]
        path = tmp_path / "glue.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = invoke(capsys, "glue", str(path))
        assert (code, out) == (2, "")
        assert "no gluing parameter for level 2" in err

    @pytest.mark.parametrize("json_mode,calls", [(False, 0), (True, 6)])
    def test_builds_only_the_printed_form(self, capsys, monkeypatch, json_mode, calls):
        from ncd_moduli import exactnum

        seen = []
        to_json = exactnum.coeff_to_json

        def spy(value):
            seen.append(value)
            return to_json(value)

        monkeypatch.setattr(exactnum, "coeff_to_json", spy)
        argv = ["--json"] * json_mode + ["glue", str(DATA / "glue-mult6.json")]
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        assert len(seen) == calls
        if not json_mode:
            assert len(out.splitlines()) == 8


class TestExample:
    def test_unknown_fixture(self, capsys):
        code, _, err = invoke(capsys, "example", "nope")
        assert code == 2
        assert "unknown fixture" in err

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_round_trip_byte_identical(self, capsys, name):
        code, out, _ = invoke(capsys, "example", name)
        assert code == 0
        entry = CATALOG[name]
        if entry.kind == "divisor":
            from ncd_moduli import divisor as dv

            assert dv.dumps(dv.loads(out)) == out
        else:
            from ncd_moduli import maptype as mp

            assert mp.dumps(mp.loads(out)) == out

    def test_emit_writes_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = invoke(capsys, "example", "ex4dim", "--emit", str(target))
        assert code == 0
        assert json.loads(target.read_text(encoding="utf-8"))["dimX"] == 4

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_emit_unwritable_exit_2(self, capsys, tmp_path, where):
        target = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
        code, out, err = invoke(capsys, "example", "neck2", "--emit", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")

    def test_json_mode_parses(self, capsys):
        code, out, _ = invoke(capsys, "--json", "example", "neck3")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "example"


class TestProcessLevel:
    def test_console_entry(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ncd_moduli.cli", "example", "ex0-n2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["dimX"] == 4

    def test_unknown_subcommand_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ncd_moduli.cli", "frobnicate"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    def test_stdin_pipe(self):
        emit = subprocess.run(
            [sys.executable, "-m", "ncd_moduli.cli", "example", "ex0-n3"],
            capture_output=True,
            text=True,
        )
        strata = subprocess.run(
            [sys.executable, "-m", "ncd_moduli.cli", "strata", "-", "--k", "2"],
            input=emit.stdout,
            capture_output=True,
            text=True,
        )
        assert strata.returncode == 0
        assert "resolution 3, cover 6, next divisor 3" in strata.stdout


_IMPORTS_SCRIPT = """
import contextlib, io, json, sys
from ncd_moduli import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.run(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("ncd_moduli."))]))
"""


class TestImports:
    """Each subcommand, run once in a fresh interpreter, loads only the
    modules it runs; an in-process test would see every module some other
    test had already imported."""

    # (argv, exit code, modules that must not be loaded); @name is the fixture
    # file of that name, @missing a file that does not exist, @broken the
    # start of neck2's text and @glue-mult6 the gluing file in tests/data
    CASES = {
        "strata": (["strata", "@ex4dim"], 0, {"maptype", "levelsys", "fixtures", "exactnum"}),
        "building": (["building", "@ex4dim", "--m", "2"], 0, {"maptype", "levelsys", "fixtures", "exactnum"}),
        "building-json": (
            ["--json", "building", "@ex0-n4", "--m", "2"], 0, {"maptype", "levelsys", "fixtures", "exactnum"}
        ),
        "validate": (["validate", "@neck2"], 0, {"building", "levelsys", "fixtures"}),
        "dim-flags": (
            ["dim", "--c1A", "1", "--dimX", "4", "--chi", "2", "--ell", "0", "--AV", "1"], 0,
            {"levelsys", "maptype", "fixtures"},
        ),
        "missing-file": (["levels", "@missing"], 2, {"levelsys", "maptype"}),
        "broken-json": (["validate", "@broken"], 2, {"levelsys", "maptype"}),
        "strata-broken-json": (["strata", "@broken"], 2, {"divisor", "building"}),
        "glue-missing-file": (["glue", "@missing"], 2, {"levelsys", "exactnum"}),
        "example-divisor": (["example", "ex0-n2"], 0, {"maptype", "exactnum", "levelsys", "building"}),
        "example-unknown": (["example", "nofixture-1"], 2, {"maptype", "exactnum"}),
        "example-maptype": (["example", "neck2"], 0, {"levelsys", "building"}),
        "glue": (["glue", "@glue-mult6"], 0, {"maptype", "building", "fixtures"}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_loaded_modules(self, tmp_path, fixture_file, case):
        argv, want_code, absent = self.CASES[case]
        files = {
            "missing": str(tmp_path / "missing.json"),
            "broken": str(tmp_path / "broken.json"),
            "glue-mult6": str(DATA / "glue-mult6.json"),
        }
        (tmp_path / "broken.json").write_text(CATALOG["neck2"].text()[:100], encoding="utf-8")
        argv = [(files.get(a[1:]) or fixture_file(a[1:])) if a.startswith("@") else a for a in argv]
        proc = subprocess.run([sys.executable, "-c", _IMPORTS_SCRIPT, *argv], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        code, loaded = json.loads(proc.stdout)
        assert code == want_code
        assert not {f"ncd_moduli.{m}" for m in absent} & set(loaded)


_NO_SYMPY_SCRIPT = """
import contextlib, io, json, sys
sys.modules["sympy"] = None  # any import of sympy now raises ImportError
from ncd_moduli import cli
from ncd_moduli.fixtures import CATALOG
calls = [["example", name] for name in sorted(CATALOG)]
calls += [["validate", sys.argv[1]], ["levels", sys.argv[1]], ["dim", sys.argv[1], "--dimX", "4"]]
results = []
for argv in calls:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    results.append([argv, code, buf.getvalue()])
print(json.dumps(results))
"""


def test_runs_without_sympy(capsys, fixture_file):
    neck = fixture_file("neck3")
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SYMPY_SCRIPT, neck], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert len(results) == len(CATALOG) + 3
    for argv, code, out in results:
        assert code == 0, argv
        if argv[0] == "example":
            assert out == CATALOG[argv[1]].text()
        else:
            assert (code, out) == invoke(capsys, *argv)[:2]
