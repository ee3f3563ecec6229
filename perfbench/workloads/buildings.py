"""buildings: level-building enumeration, in process.

Inputs: ``local_model(n)`` at m = 2 over the ladder n = 2..5, ``local_model(6)``
at m = 1, ``build_multi`` on ``local_model(5)`` with a seeded arrangement of
unequal levels, and self-crossing divisors of depth k = 5 and 6 whose strata
carry the full symmetric monodromy (seeded generators), which takes the
orbit path.  Every input runs two ways: counts only, and the full dump that
``building --json`` prints plus a collapse.  Each answer is checked against
closed forms: (m+1)^n pieces and sum_k C(n,k) k (m+1)^(k-1) (2m+1)
divisor-stratum labels for a local model, and multiset counts under S_k.
"""

from __future__ import annotations

import json
import random
from itertools import combinations
from math import comb, prod

from harness import Op, Workload, Wrong

from ncd_moduli import building as bd
from ncd_moduli import divisor as dv

LADDER_M = 2
LADDER_N = (2, 3, 4, 5)
DEADLINE_S = 30.0
# Enough rounds that the op_tail rank (11th largest) lies among the few
# largest dumps, which each round holds once each.
MIN_ROUNDS = 15


def local_expect(n: int, levels: tuple[int, ...]):
    """(pieces, labels, minus labels) of a local model whose i-th hyperplane
    has levels[i] levels."""
    pieces = prod(m + 1 for m in levels)
    labels = minus = 0
    for k in range(1, n + 1):
        for subset in combinations(levels, k):
            for i, mi in enumerate(subset):
                rest = prod(mj + 1 for j, mj in enumerate(subset) if j != i)
                labels += (2 * mi + 1) * rest
                minus += mi * rest
    return pieces, labels, minus


def symmetric_expect(k: int, m: int):
    """(pieces, labels, minus labels) for depth-j strata j = 1..k with full
    S_j monodromy: orbits are multisets of levels."""
    pieces = 1 + sum(comb(m + j - 1, j) for j in range(1, k + 1))
    labels = sum((2 * m + 1) * comb(m + j - 1, j - 1) for j in range(1, k + 1))
    minus = sum(m * comb(m + j - 1, j - 1) for j in range(1, k + 1))
    return pieces, labels, minus


def symmetric_divisor(k: int, rng: random.Random) -> dv.CombinatorialDivisor:
    """One component self-crossing to depth k; each depth-j stratum has the
    full S_j monodromy, given by a relabelled transposition and j-cycle."""
    cid = f"c{rng.randrange(10**6)}"
    sid = lambda j: "X" if j == 0 else f"{cid}^{j}"
    strata = []
    for j in range(k + 1):
        gens = []
        if j >= 2:
            pi = list(range(j))
            rng.shuffle(pi)
            inv = [0] * j
            for a, b in enumerate(pi):
                inv[b] = a
            for g in ([1, 0] + list(range(2, j)), list(range(1, j)) + [0]):
                gens.append(tuple(pi[g[inv[i]]] for i in range(j)))
        strata.append(dv.Stratum(
            id=sid(j), depth=j, slots=(cid,) * j, monodromy=tuple(gens),
            boundary=frozenset({sid(j + 1)}) if j < k else frozenset(),
        ))
    return dv.CombinatorialDivisor(2 * k, (dv.BranchComponent(cid, cid),), tuple(strata))


def _counts(divisor_of, build_of):
    def run():
        d = divisor_of()
        problems = dv.validate(d)
        b = build_of(d)
        counts = [dv.stratum_counts(d, k) for k in range(1, d.max_depth() + 1)]
        return problems, b.piece_classes(), b.class_count(), b.connected_piece_count(), counts, d, b
    return run


def _dump(divisor_of, build_of, collapse_levels):
    def run():
        d = divisor_of()
        problems = dv.validate(d)
        b = build_of(d)
        text = json.dumps({"version": "ncd-moduli/1", "command": "building", "result": bd.building_to_dict(b)},
                          indent=2, sort_keys=True)
        collapsed = bd.collapse(b, collapse_levels) if collapse_levels else None
        return problems, text, collapsed, d, b
    return run


def setup(seed: int, ctx) -> Workload:
    rng = random.Random(seed)
    inputs = []  # (name, divisor_of, build_of, expected counts, uniform m or None, family, ladder size)
    for n in LADDER_N:
        inputs.append((f"local.n{n}.m{LADDER_M}", lambda n=n: dv.local_model(n), lambda d: bd.build(d, LADDER_M),
                       local_expect(n, (LADDER_M,) * n), LADDER_M, "local", (LADDER_M + 2) ** n))
    inputs.append(("local.n6.m1", lambda: dv.local_model(6), lambda d: bd.build(d, 1),
                   local_expect(6, (1,) * 6), 1, "local", None))
    multi = [1, 1, 2, 2, 3]
    rng.shuffle(multi)
    inputs.append(("multi.n5", lambda: dv.local_model(5), lambda d, lv=tuple(multi): bd.build_multi(d, lv),
                   local_expect(5, tuple(multi)), None, "local", None))
    for k, m in ((5, 4), (6, 2)):
        d = symmetric_divisor(k, rng)
        inputs.append((f"sym.k{k}.m{m}", lambda d=d: d, lambda d, m=m: bd.build(d, m),
                       symmetric_expect(k, m), m, "symmetric", None))

    ops = []
    for name, divisor_of, build_of, (pieces, labels, minus), m, family, size in inputs:

        def check_common(problems, b, pieces=pieces, labels=labels, minus=minus):
            if problems:
                raise Wrong(f"valid divisor reported invalid: {problems}")
            if b.connected_piece_count() != pieces:
                raise Wrong(f"{b.connected_piece_count()} pieces, expected {pieces}")
            if len(b.divisor_strata) != labels or len(b.attaching) != minus:
                raise Wrong(f"{len(b.divisor_strata)} labels / {len(b.attaching)} pairs, expected {labels} / {minus}")

        def check_counts(out, m=m, family=family, pieces=pieces, check_common=check_common):
            problems, classes, class_count, connected, counts, d, b = out
            check_common(problems, b)
            if connected != pieces or class_count != len(classes):
                raise Wrong("piece counts disagree")
            if sum(c.connected_pieces for c in classes) != pieces:
                raise Wrong("piece classes do not add up to the pieces")
            if m is not None and family == "local" and class_count != sum(m ** j for j in range(d.max_depth() + 1)):
                raise Wrong(f"{class_count} piece classes")
            for k, c in enumerate(counts, start=1):
                n = len(d.components) if family == "local" else 1
                if family == "local":
                    want = (comb(n, k), k * comb(n, k), (k + 1) * comb(n, k + 1))
                else:
                    want = (1, 1, 1 if k < d.max_depth() else 0)
                got = (c.resolution_of_vk, c.double_resolution, c.resolution_of_wk1)
                if got != want:
                    raise Wrong(f"depth {k} stratum counts {got}, expected {want}")

        collapse_levels = (rng.randrange(1, m + 1),) if m else ()

        def check_dump(out, m=m, family=family, collapse_levels=collapse_levels, check_common=check_common):
            problems, text, collapsed, d, b = out
            check_common(problems, b)
            doc = json.loads(text)["result"]
            if len(doc["divisor_strata"]) != len(b.divisor_strata) or len(doc["pieces"]) != len(b.pieces):
                raise Wrong("dump does not hold every label")
            if collapsed is None:
                return
            m2 = m - len(collapse_levels)
            if family == "local":
                want = local_expect(len(d.components), (m2,) * len(d.components))
            else:
                want = symmetric_expect(d.max_depth(), m2)
            small = collapsed.building
            if (small.connected_piece_count(), len(small.divisor_strata)) != want[:2]:
                raise Wrong("collapsed building has the wrong counts")
            if set(collapsed.piece_map) != {r.label for r in b.pieces}:
                raise Wrong("collapse does not map every piece")
            targets = {r.label for r in small.pieces}
            if not set(collapsed.piece_map.values()) <= targets:
                raise Wrong("collapse maps a piece outside the collapsed building")

        ops.append(Op(f"{name}.counts", "counts", _counts(divisor_of, build_of), check_counts, DEADLINE_S, ladder=size))
        ops.append(Op(f"{name}.dump", "dump", _dump(divisor_of, build_of, collapse_levels), check_dump,
                      DEADLINE_S, ladder=size))
    rng.shuffle(ops)
    warm = [op for op in ops if op.ladder == (LADDER_M + 2) ** min(LADDER_N)]
    return Workload(round_ops=ops, min_rounds=MIN_ROUNDS, ladder_name="sum (m+1)^depth", warmup_ops=warm)
