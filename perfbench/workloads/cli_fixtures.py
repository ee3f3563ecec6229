"""cli-fixtures: every README subcommand on the built-in fixtures, one
subprocess per op.

Each round runs ``example`` for all ten fixtures; ``strata``; ``building``
with ``--m`` over a ladder and with ``--multi``; ``validate``, ``levels`` and
``dim`` on the four neck map types; ``dim`` with flags only; ``glue`` on
files written by ``gluing_dumps``; and three malformed inputs that must exit
2.  A fourth, a top-level JSON list given to ``validate``, exits 1 with a
traceback today (ROADMAP item 5), so it is probed once per run as a known
defect instead of counting as a failed op.  The seed relabels the neck
coefficients' primes, picks the numbers in the flag-only ``dim``, the
``--multi`` levels, the gluing problems and the malformed texts, and gives
``--json`` to half of the calls.  The ``--m`` ladder always uses
``--json``, so its cost does not depend on the seed.

The trace run calls ``cli.run(argv)`` in process over the same argv list,
with standard output captured, since a subprocess cannot be traced from
here.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

from harness import DeadlineExceeded, Failed, Op, Workload, Wrong
from workloads.buildings import local_expect
from workloads.common import remap_primes

from ncd_moduli import cli
from ncd_moduli import levelsys as ls
from ncd_moduli import maptype as mp
from ncd_moduli.exactnum import ONE, ExactNonzeroComplex, coeff_to_json
from ncd_moduli.fixtures import CATALOG, neck2

DEADLINE_S = 30.0
LADDER_M = (1, 3, 5)
NECKS = ("neck1a", "neck1b", "neck2", "neck3")
# The slowest op class, `example neck*` (four per round), must hold the
# op_tail rank (11th largest); two rounds give it eight samples beside the
# --m ladder's top.
MIN_ROUNDS = 2


def _orbit_count(stratum: dict) -> int:
    parent = list(range(stratum["depth"]))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for perm in stratum.get("monodromy", []):
        for i, j in enumerate(perm):
            parent[find(i)] = find(j)
    return len({find(i) for i in range(stratum["depth"])})


def strata_expect(doc: dict, k: int) -> tuple[int, int, int]:
    """(resolution of V^k, double resolution, resolution of W^(k+1)) from a
    divisor file, counted directly."""
    def at(depth):
        return [s for s in doc["strata"] if s["depth"] == depth]

    def double(depth):
        return sum(s.get("normalization_components", 1) * _orbit_count(s) for s in at(depth))

    return sum(s.get("normalization_components", 1) for s in at(k)), double(k), double(k + 1)


def _expected_dim(c1a, dim_x, chi, ell, av) -> int:
    return 2 * c1a + (dim_x - 6) * chi // 2 + 2 * ell - 2 * av


class _Call:
    """One CLI call: argv plus the checks on (exit code, stdout, stderr)."""

    def __init__(self, name, argv, want_code, facts, ladder=None):
        self.name, self.argv, self.want_code, self.facts, self.ladder = name, argv, want_code, facts, ladder

    def check(self, out):
        code, stdout, stderr = out
        if "Traceback" in stderr:
            raise Failed(f"exit {code} with a traceback: {stderr.strip().splitlines()[-1]}")
        if code != self.want_code:
            raise Failed(f"exit {code}, expected {self.want_code}")
        if "--json" in self.argv and self.want_code != 2:
            try:
                doc = json.loads(stdout)
            except json.JSONDecodeError as e:
                raise Wrong(f"--json output does not parse: {e}") from e
            if doc.get("version") != "ncd-moduli/1":
                raise Wrong("envelope version")
            self.facts(doc["result"], True)
        elif self.want_code != 2:
            self.facts(stdout, False)
        elif not stderr.startswith("error:") and "usage:" not in stderr:
            raise Wrong(f"exit 2 without an error message: {stderr!r}")


def _line_value(text: str, prefix: str) -> str:
    for line in text.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    raise Wrong(f"no line starting {prefix!r}")


def _calls(work: str, rng: random.Random) -> tuple[list[_Call], list[_Call]]:
    """The calls of a round, and the known-defect probes."""
    def path(name):
        return os.path.join(work, name)

    def write(name, text):
        with open(path(name), "w", encoding="utf-8") as fh:
            fh.write(text)
        return path(name)

    calls = []

    # example: all ten fixtures, byte-for-byte or structurally equal
    for name, entry in sorted(CATALOG.items()):
        text = entry.text()

        def facts(res, as_json, text=text):
            if (res != json.loads(text)) if as_json else (res != text):
                raise Wrong("fixture text differs")

        calls.append(_Call(f"example.{name}", ["example", name], 0, facts))

    # strata
    divisors = {name: json.loads(CATALOG[name].text()) for name in ("ex0-n3", "ex0-n4", "ex4dim", "ex4dim-b")}
    files = {name: write(f"{name}.json", json.dumps(doc)) for name, doc in divisors.items()}
    for name, k in (("ex0-n3", 2), ("ex4dim-b", None)):
        doc = divisors[name]
        depths = [k] if k is not None else sorted({s["depth"] for s in doc["strata"] if s["depth"] >= 1})

        def facts(res, as_json, doc=doc, depths=depths):
            for k in depths:
                want = strata_expect(doc, k)
                if as_json:
                    c = res["counts"][str(k)]
                    got = (c["resolution_of_Vk"], c["double_resolution"], c["resolution_of_Wk1"])
                else:
                    words = _line_value(res, f"depth {k}:").replace(",", "").split()
                    got = (int(words[1]), int(words[3]), int(words[6]))
                if got != want:
                    raise Wrong(f"depth {k} counts {got}, expected {want}")

        argv = ["strata", files[name]] + (["--k", str(k)] if k is not None else [])
        calls.append(_Call(f"strata.{name}", argv, 0, facts))

    # building: the --m ladder (always --json) and one --multi
    def building_facts(levels):
        pieces, labels, minus = local_expect(len(levels), tuple(levels))

        def facts(res, as_json):
            if as_json:
                got = (sum(p["base_components"] for p in res["pieces"]), len(res["divisor_strata"]), len(res["attaching"]))
            else:
                got = (int(_line_value(res, "pieces:").split()[0]),
                       int(_line_value(res, "divisor strata:").split(",")[0]),
                       int(_line_value(res, "divisor strata:").split()[-1]))
            if got != (pieces, labels, minus):
                raise Wrong(f"building counts {got}, expected {(pieces, labels, minus)}")

        return facts

    for m in LADDER_M:
        calls.append(_Call(f"building.m{m}", ["--json", "building", files["ex0-n4"], "--m", str(m)], 0,
                           building_facts((m,) * 4), ladder=(m + 2) ** 4))
    multi = [rng.randint(1, 3), rng.randint(1, 3)]
    calls.append(_Call("building.multi", ["building", files["ex4dim"], "--multi", ",".join(map(str, multi))], 0,
                       building_facts(multi)))

    # validate, levels, dim on the neck map types, primes relabelled
    for name in NECKS:
        mt = remap_primes(CATALOG[name].build(), rng)
        f = write(f"{name}.json", mp.dumps(mt))
        dim_want = _expected_dim(mt.c1a, 4, mt.chi, mt.ell, mt.av)

        def validate_facts(res, as_json):
            if (res["valid"] is not True) if as_json else (_line_value(res, "valid:") != "True"):
                raise Wrong("valid map type reported invalid")

        def levels_facts(res, as_json):
            if as_json:
                got = (res["feasible"], res["torus_dim"], len(res["beta_relations"]) + 1 - len(res["betas"]))
            else:
                got = ("positive witness:" in res, int(_line_value(res, "torus dimension:")), 0)
            if got != (True, 1, 0):
                raise Wrong(f"levels facts (feasible, torus_dim, relation deficit) {got}")

        def dim_facts(res, as_json, dim_want=dim_want):
            if as_json:
                got = (res["expected_dim"], res["stratum_codim"])
            else:
                got = (int(_line_value(res, "expected dimension:")), int(_line_value(res, "stratum codimension:")))
            if got != (dim_want, 2):
                raise Wrong(f"dim facts {got}, expected {(dim_want, 2)}")

        calls.append(_Call(f"validate.{name}", ["validate", f], 0, validate_facts))
        calls.append(_Call(f"levels.{name}", ["levels", f], 0, levels_facts))
        calls.append(_Call(f"dim.{name}", ["dim", f, "--dimX", "4"], 0, dim_facts))

    # dim with flags only
    flags = dict(c1A=rng.randint(0, 9), dimX=rng.choice((2, 4, 6, 8)), chi=rng.randint(-2, 4),
                 ell=rng.randint(0, 5), AV=rng.randint(0, 5))
    dim_flags_want = _expected_dim(flags["c1A"], flags["dimX"], flags["chi"], flags["ell"], flags["AV"])

    def dim_flag_facts(res, as_json):
        got = res["expected_dim"] if as_json else int(_line_value(res, "expected dimension:"))
        if got != dim_flags_want:
            raise Wrong(f"expected_dim {got}, want {dim_flags_want}")

    calls.append(_Call("dim.flags", ["dim"] + [x for k, v in flags.items() for x in (f"--{k}", str(v))], 0,
                       dim_flag_facts))

    # glue: a smooth node with s solutions, an inconsistent node, and neck2's node
    def direction(d, s, product):
        return {"direction": d, "s": s, "product": coeff_to_json(product), "range": [0, 1]}

    s = rng.randint(3, 12)
    smooth = {"levels": {"1": coeff_to_json(_value(rng))},
              "nodes": [{"id": "x", "directions": [direction("d1", s, _value(rng))]}]}
    # two multiplicity-1 directions whose products differ by a factor of 11
    # (a prime _value never uses) demand different gluing parameters
    p = _value(rng)
    q = p * ExactNonzeroComplex.from_parts({11: 1})
    conflict = {"levels": {"1": coeff_to_json(ONE)},
                "nodes": [{"id": "y", "directions": [direction("d1", 1, p), direction("d2", 1, q)]}]}
    neck = dict(ls.gluing_to_dict(ls.gluing_problem_from_maptype(neck2())), levels={"1": coeff_to_json(ONE)})
    for name, gp, code, total in (("smooth", smooth, 0, s), ("conflict", conflict, 1, 0), ("neck2", neck, 0, 1)):
        f = write(f"glue-{name}.json", ls.gluing_dumps(ls.gluing_from_dict(gp)))

        def glue_facts(res, as_json, total=total):
            got = res["total_count"] if as_json else int(_line_value(res, "total branches:"))
            if got != total:
                raise Wrong(f"total branches {got}, expected {total}")

        calls.append(_Call(f"glue.{name}", ["glue", f], code, glue_facts))

    # malformed inputs: exit 2 with a message
    good = mp.dumps(CATALOG["neck1a"].build())
    broken = write("broken.json", good[: rng.randrange(len(good) // 4, 3 * len(good) // 4)])
    toplist = write("toplist.json", json.dumps([rng.randint(0, 9) for _ in range(rng.randint(1, 4))]))
    no_facts = lambda res, as_json: None
    calls.append(_Call("bad.broken-json", ["validate", broken], 2, no_facts))
    calls.append(_Call("bad.missing-file", ["levels", path(f"missing-{rng.randrange(10**6)}.json")], 2, no_facts))
    calls.append(_Call("bad.unknown-fixture", ["example", f"nofixture-{rng.randrange(10**6)}"], 2, no_facts))
    defect = _Call("bad.toplevel-list", ["validate", toplist], 2, no_facts)

    # --json on half of the calls outside the --m ladder, chosen by the seed
    free = [c for c in calls if c.ladder is None]
    for c in rng.sample(free, len(free) // 2):
        c.argv = ["--json"] + c.argv
    return calls, [defect]


def _value(rng: random.Random) -> ExactNonzeroComplex:
    return ExactNonzeroComplex.from_parts({rng.choice((2, 3, 5, 7)): rng.randint(-3, 3)}, Fraction(rng.randrange(6), 6))


def _subprocess_op(call: _Call, work: str, env: dict) -> Op:
    def run():
        try:
            p = subprocess.run([sys.executable, "-m", "ncd_moduli.cli"] + call.argv, cwd=work, env=env,
                               capture_output=True, text=True, timeout=DEADLINE_S)
        except subprocess.TimeoutExpired as e:
            raise DeadlineExceeded() from e
        return p.returncode, p.stdout, p.stderr

    return Op(call.name, call.name.split(".")[0], run, call.check, DEADLINE_S, ladder=call.ladder, in_process=False)


def _in_process_op(call: _Call) -> Op:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(call.argv))
        return code, out.getvalue(), err.getvalue()

    return Op(call.name, call.name.split(".")[0], run, call.check, DEADLINE_S, ladder=call.ladder)


def setup(seed: int, ctx) -> Workload:
    rng = random.Random(seed)
    calls, defects = _calls(ctx.workdir, rng)
    rng.shuffle(calls)
    env = dict(os.environ, PYTHONPATH=ctx.src)
    ops = [_subprocess_op(c, ctx.workdir, env) for c in calls]
    warm = [o for o in ops if o.name == "example.ex0-n2"]
    return Workload(round_ops=ops, defect_ops=[_subprocess_op(c, ctx.workdir, env) for c in defects],
                    min_rounds=MIN_ROUNDS, ladder_name="(m+2)^4", warmup_ops=warm, child_rss=True,
                    traced_ops=[_in_process_op(c) for c in calls])
