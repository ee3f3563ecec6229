"""levels-neck2xN: what ``validate`` + ``levels`` + ``dim`` compute, in process,
on N disjoint relabelled copies of the ``neck2`` fixture.

The copies share the two scaling directions, so a system has 4N equations
over 3N node rates and 2 level rates.  The seed relabels every component,
point and node, shuffles copies, and maps the leading coefficients' primes
through a random permutation of small primes, which keeps each reciprocal
pair reciprocal.  Each feasible op has an infeasible twin: the same level
system plus its first equation again at twice the multiplicity, which
forces that equation's node rates to zero.  Both run
everything ``validate``, ``levels`` and ``dim`` compute, so a pair costs
about the same and differs only in the level system's answer.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

from harness import Op, Workload, Wrong
from workloads.common import remap_primes

from ncd_moduli import dimension as dm
from ncd_moduli import levelsys as ls
from ncd_moduli import maptype as mp
from ncd_moduli.fixtures import neck2

LADDER = (2, 4, 8)
# Ops per round at each N.  With N = 4 and 8 twice, the median latency sits
# three quarters of the way up the N = 4 samples, well inside one class of
# operations rather than at the edge between two; the op_tail rank (11th
# largest) lies well inside the N = 8 samples.
REPEATS = {2: 1, 4: 2, 8: 2}
DEADLINE_S = 30.0
MIN_ROUNDS = 15


def neck2_copies(n: int, rng: random.Random) -> mp.MapType:
    base = neck2()
    comps, nodes = [], []
    # the copy's index leads its tag, so sorted unknowns and fibers, and with
    # them the simplex's pivots, come in the same order for every seed
    for i in range(n):
        tag = f"{i:03d}{rng.randrange(10**4):04d}"
        copy = remap_primes(base, rng, rename=lambda x, tag=tag: f"k{tag}.{x}")
        comps += copy.components
        nodes += copy.nodes
    rng.shuffle(comps)
    rng.shuffle(nodes)
    return dataclasses.replace(base, components=tuple(comps), nodes=tuple(nodes), av=base.av * n)


# -- independent checks ------------------------------------------------------------


def _beta_key(mt: mp.MapType, direction: str, level: int):
    if mt.building_mode == "uniform":
        return level
    return (dict(mt.direction_components)[direction], level)


def _rows(mt: mp.MapType, sys_) -> list[list[int]]:
    """The level system's matrix, rebuilt from its equations."""
    cols = list(sys_.alphas) + list(sys_.betas)
    index = {c: i for i, c in enumerate(cols)}
    rows = []
    for eq in sys_.equations:
        row = [0] * len(cols)
        for nid in eq.nodes:
            row[index[nid]] += eq.multiplicity
        row[index[_beta_key(mt, eq.direction, eq.level)]] -= 1
        if eq.level >= 2:
            row[index[_beta_key(mt, eq.direction, eq.level - 1)]] += 1
        rows.append(row)
    return rows


def _check_gluing_constants(mt: mp.MapType, enhanced) -> None:
    """Each witness constant c must satisfy a(y-) a(y+) c^s = 1 in every
    decorated direction of its node."""
    if not enhanced.satisfiable:
        raise Wrong(f"enhanced matching unsatisfiable: {enhanced.failure}")
    records = {pid: rec for c in mt.components for pid, rec in c.points}
    witness = dict(enhanced.witness)
    for nd in mt.nodes:
        ra, rb = records[nd.ends[0]], records[nd.ends[1]]
        for d, sa in ra.slots:
            sb = rb.slot(d)
            if sb is None or sa.eps == 0 or sb.eps == 0:
                continue
            c = witness.get(nd.id)
            if c is None or not (sa.coeff * sb.coeff * c.pow(sa.s)).is_one():
                raise Wrong(f"{nd.id}: witness constant fails direction {d}")


def _check_relations(rels, betas, values) -> None:
    for rel in rels:
        if sum((Fraction(r) * values[b] for r, b in zip(rel, betas)), Fraction(0)) != 0:
            raise Wrong(f"relation {rel} fails on the witness")


def setup(seed: int, ctx) -> Workload:
    rng = random.Random(seed)
    ops = []
    for n in LADDER:
        mt = neck2_copies(n, rng)

        def validate_levels_dim(mt=mt, k=None):
            """validate + levels + dim on the map type; with k, the level
            system gets its conflicting equation first."""
            problems = (mp.validate_structure(mt), mp.check_naive(mt), mp.check_broken_cylinders(mt))
            enhanced = mp.check_enhanced(mt)
            stable = mp.check_relative_stability(mt)
            sys_ = ls.build_system(mt)
            if k is not None:
                eq = sys_.equations[k]
                sys_ = dataclasses.replace(
                    sys_, equations=sys_.equations + (dataclasses.replace(eq, multiplicity=2 * eq.multiplicity),)
                )
            witness = ls.feasible_positive(sys_)
            return problems, enhanced, stable, sys_, witness, ls.torus_dim(sys_), ls.beta_relations(sys_), dm.stratum_codim(mt)

        def check_feasible(out, mt=mt, n=n):
            problems, enhanced, stable, sys_, witness, tdim, rels, codim = out
            if any(problems):
                raise Wrong(f"valid map type reported invalid: {problems}")
            _check_gluing_constants(mt, enhanced)
            if stable is not True:
                raise Wrong("relative stability reported false")
            if (len(sys_.alphas), len(sys_.betas), len(sys_.equations)) != (3 * n, 2, 4 * n):
                raise Wrong(f"system shape {len(sys_.alphas)}+{len(sys_.betas)} x {len(sys_.equations)}")
            if witness is None:
                raise Wrong("feasible system reported infeasible")
            v = [witness[c] for c in list(sys_.alphas) + list(sys_.betas)]
            if any(x <= 0 for x in v):
                raise Wrong("witness is not strictly positive")
            for row in _rows(mt, sys_):
                if sum((r * x for r, x in zip(row, v)), Fraction(0)) != 0:
                    raise Wrong("witness does not solve the system")
            if tdim != 1 or len(rels) != 1 or codim != 2:
                raise Wrong(f"torus_dim {tdim}, {len(rels)} relations, codim {codim}")
            _check_relations(rels, sys_.betas, witness)
            ctx.note_max("witness_max_bits", max(max(x.numerator.bit_length(), x.denominator.bit_length()) for x in v))
            ctx.note_max("system_rows", len(sys_.equations))
            ctx.note_max("system_cols", len(v))

        def check_infeasible(out, mt=mt):
            problems, enhanced, stable, twin, witness, tdim, rels, codim = out
            if any(problems) or stable is not True or codim != 2:
                raise Wrong("validators or stratum codimension changed on the twin")
            _check_gluing_constants(mt, enhanced)
            if witness is not None:
                raise Wrong("infeasible system given a witness")
            if tdim != 0 or len(rels) != len(twin.betas):
                raise Wrong(f"twin torus_dim {tdim}, {len(rels)} relations")
            for rel in rels:
                if all(r == 0 for r in rel):
                    raise Wrong("zero relation")

        ops += REPEATS[n] * [
            Op(f"feasible.N{n}", "feasible", validate_levels_dim, check_feasible, DEADLINE_S, ladder=n),
            Op(f"infeasible.N{n}", "infeasible", lambda mt=mt: validate_levels_dim(mt, 0), check_infeasible,
               DEADLINE_S, ladder=n),
        ]
    rng.shuffle(ops)
    ctx.largest_op = f"feasible.N{max(LADDER)}"
    warm = [op for op in ops if op.ladder == min(LADDER)]
    return Workload(round_ops=ops, min_rounds=MIN_ROUNDS, ladder_name="N", warmup_ops=warm)
