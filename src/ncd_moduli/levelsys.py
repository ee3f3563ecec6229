"""The level linear system and the gluing-parameter power system.

Unknowns are one rate exponent per node of the domain and one per level of
the building (per scaling component for multibuildings).  Level exponents
are absolute: a projected node at level l in direction i with multiplicity s
contributes the equation

    s * sum(alpha over its merged nodes) = beta(l) - beta(l-1),

with beta(0) = 0.  The equations are the steps of the map type's fiber
walks (``maptype.walk_fiber``), in walk order; the walk keys each one's
beta(l) through ``MapType.beta_key``, the one (direction, level) -> beta
rule, and the equation reads beta(l-1) off that key.  So the two rates of a
shared chain with multiplicities s1 != s2 on levels l1 != l2 satisfy
beta(l1)/s1 = beta(l2)/s2.  A strictly positive solution is necessary for
the type to arise as a limit; the dimension of the beta-projection of the
solution space is the number of independent rescaling parameters, i.e. the
stratum's complex codimension.  That dimension is len(betas) minus the
number of independent relations among the betas, which one elimination of
the level matrix gives.  ``MapType`` assembles the system once, beside the
checks that gate it, and ``build_system`` returns it.  The matrix is built
once, as sparse rows; ``rows()`` is its dense view for outside callers.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import itemgetter
from typing import TYPE_CHECKING, Mapping, Optional

from .exactnum import (
    ExactNonzeroComplex,
    coeff_from_json,
    coeff_to_json,
    solve_power_system,
)
from .exactnum.linalg import SparseRow, _rref, _strict_positive
from .jsonfields import _json_int, _json_int_key, _json_list, _json_object, _json_str

if TYPE_CHECKING:  # annotations only, so that `glue` loads no map-type code
    from .maptype import BetaKey, LevelEquation, MapType


class LevelSystemError(ValueError):
    """Raised when a map type cannot produce a well-formed level system."""


@dataclass(frozen=True)
class LevelSystem:
    alphas: tuple[str, ...]
    betas: tuple[BetaKey, ...]
    equations: tuple[LevelEquation, ...]

    def rows(self) -> tuple[tuple[int, ...], ...]:
        """Integer coefficient rows over the unknowns alphas + betas, dense."""
        return self._dense_rows

    @cached_property
    def _dense_rows(self) -> tuple[tuple[int, ...], ...]:
        width = len(self.alphas) + len(self.betas)
        return tuple(tuple(row.get(k, 0) for k in range(width)) for row in self._rows)

    @cached_property
    def _rows(self) -> tuple[SparseRow, ...]:
        # node ids are strings and beta keys are not, so one map indexes both
        column = {u: i for i, u in enumerate(self.alphas + self.betas)}
        out = []
        for eq in self.equations:
            row: SparseRow = {}
            for nid in eq.nodes:
                row[column[nid]] = row.get(column[nid], 0) + eq.multiplicity
            row[column[eq.beta]] = -1
            if eq.below is not None:
                row[column[eq.below]] = 1
            # the exact core assumes a row holds no zeros; multiplicity 0 makes one
            out.append({k: x for k, x in row.items() if x})
        return tuple(out)

    @cached_property
    def _beta_relations(self) -> tuple[tuple[Fraction, ...], ...]:
        """``beta_relations``: the c with c . betas = 0 on every solution of rows().

        Exactly then (0, c) lies in the row space of rows().  With the alphas
        first and the betas reversed, the reduced rows whose pivot is a beta
        have no alpha entries and span those vectors, each with its last
        nonzero beta entry as its pivot, positive, and 0 at the other pivots.
        """
        na, nb = len(self.alphas), len(self.betas)
        flip = 2 * na + nb - 1
        T, _, pivots, _ = _rref([{k if k < na else flip - k: x for k, x in row.items()} for row in self._rows], na + nb)
        relations = []
        for row, c in zip(T, pivots):
            if c >= na:
                g = gcd(*row.values())
                relations.append(tuple(Fraction(row.get(na + nb - 1 - j, 0) // g) for j in range(nb)))
        return tuple(sorted(relations))

    def describe(self) -> list[str]:
        def name(key: BetaKey) -> str:
            return f"b({key})" if isinstance(key, int) else f"b({key[0]},{key[1]})"

        out = []
        for eq in self.equations:
            lhs = " + ".join(f"a({z})" for z in eq.nodes)
            if eq.multiplicity != 1:
                lhs = f"{eq.multiplicity}*({lhs})"
            rhs = name(eq.beta)
            if eq.below is not None:
                rhs = f"{rhs} - {name(eq.below)}"
            out.append(f"[{eq.base} / {eq.direction}] {lhs} = {rhs}")
        return out


def build_system(mt: MapType) -> LevelSystem:
    """The level system of a validated map type, assembled once per ``MapType``
    (``MapType._level_system``)."""
    return mt._level_system


def feasible_positive(sys: LevelSystem) -> Optional[dict]:
    """A strictly positive rational solution, as {unknown: value}, or None."""
    names = sys.alphas + sys.betas
    witness = _strict_positive(sys._rows, len(names))
    return None if witness is None else dict(zip(names, witness))


def torus_dim(sys: LevelSystem) -> int:
    """Dimension of the beta-projection of the solution space, len(betas) - len(beta_relations)."""
    return len(sys.betas) - len(sys._beta_relations)


def beta_relations(sys: LevelSystem) -> tuple[tuple[Fraction, ...], ...]:
    """A basis of the rational relations forced among the level exponents.

    Each relation is a primitive integer vector over sys.betas, normalized so
    its last nonzero entry is positive; their count is len(betas) - torus_dim.
    Sorted, they are one per beta that is a combination of the betas before
    it on the solutions, and each is 0 at every other such beta.
    """
    return sys._beta_relations


# -- asymptotic equivalence classes ----------------------------------------------


@dataclass(frozen=True)
class AsymptoticClass:
    members: tuple[tuple, ...]  # ("node", id) and ("level", key) tokens
    exponents: tuple[tuple, ...]  # member -> positive rational from the witness


def asymptotic_classes(mt: MapType) -> tuple[AsymptoticClass, ...]:
    """Partition nodes and levels into joint rate classes.

    Tokens are merged along each equation, across all nodes of one base
    fiber, and across the level interval spanned by a fiber; exponents come
    from a strictly positive witness, which must exist.
    """
    sys = build_system(mt)
    witness = feasible_positive(sys)
    if witness is None:
        raise LevelSystemError("level system has no strictly positive solution")
    tokens: list[tuple] = [("node", a) for a in sys.alphas]
    tokens += [("level", b) for b in sys.betas]
    parent = {t: t for t in tokens}

    def find(t):
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for first, *others in sys._rows:
        for k in others:
            union(tokens[first], tokens[k])
    for walk in mt.walks:
        if not walk.steps:
            continue
        first = ("node", walk.steps[0].nodes[0])
        for eq in walk.steps[1:]:
            union(first, ("node", eq.nodes[0]))
        levels = [eq.level for eq in walk.steps]
        for d in {eq.direction for eq in walk.steps}:
            for l in range(min(levels), max(levels) + 1):
                key = mt.beta_key(d, l)
                if mt.has_beta(key):
                    union(first, ("level", key))
    groups: dict[tuple, list[tuple]] = {}
    for t in tokens:
        groups.setdefault(find(t), []).append(t)
    out = []
    for members in groups.values():
        members = tuple(sorted(members, key=repr))
        exps = tuple((m, witness[m[1]]) for m in members)
        out.append(AsymptoticClass(members, exps))
    return tuple(sorted(out, key=lambda c: repr(c.members)))


# -- gluing problems ----------------------------------------------------------------


@dataclass(frozen=True)
class GluingDirection:
    direction: str
    multiplicity: int
    product: ExactNonzeroComplex  # a_i(x-) * a_i(x+)
    level_range: tuple[int, int]

    def __post_init__(self):
        if self.level_range[0] > self.level_range[1]:
            raise ValueError(f"{self.direction}: level range {self.level_range} is reversed")


@dataclass(frozen=True)
class GluingNode:
    id: str
    directions: tuple[GluingDirection, ...]


@dataclass(frozen=True)
class GluingProblem:
    nodes: tuple[GluingNode, ...]
    lambdas: tuple[tuple[int, ExactNonzeroComplex], ...]


@dataclass(frozen=True)
class GluingNodeSolution:
    node: str
    count: int
    solutions: tuple[ExactNonzeroComplex, ...]
    failure: Optional[str] = None


@dataclass(frozen=True)
class GluingSolution:
    nodes: tuple[GluingNodeSolution, ...]

    @property
    def consistent(self) -> bool:
        return all(n.failure is None for n in self.nodes)

    @property
    def total_count(self) -> int:
        total = 1
        for n in self.nodes:
            total *= n.count
        return total


def solve_gluing(gp: GluingProblem) -> GluingSolution:
    """Per node, all gluing parameters mu with mu^{s_i} = (prod lam) / product_i.

    A direction whose lifts sit at levels (lo, hi) crosses the gluing events
    at levels lo+1..hi, so those are the parameters multiplied; a
    smooth-divisor node of multiplicity s has exactly s solutions.  A level
    crossed that has no parameter raises ``KeyError`` naming it.

    Each node is a one-unknown power system.  Its parameters are read by
    iterating the solution's lazy branches once: the argument numerator
    advances by a fixed step from one parameter to the next, and each value
    is reduced with one gcd, so no digit tuple is built per parameter.
    """
    table = dict(gp.lambdas)
    out = []
    for node in gp.nodes:
        rows = []
        rhs = []
        for d in node.directions:
            lo, hi = d.level_range
            acc = ExactNonzeroComplex.one()
            for l in range(lo + 1, hi + 1):
                if l not in table:
                    raise KeyError(f"no gluing parameter for level {l}")
                acc = acc * table[l]
            rows.append([d.multiplicity])
            rhs.append(acc * d.product.inverse())
        sol = solve_power_system(rows, rhs)
        if not sol.consistent:
            d = node.directions[sol.violated_equation]
            out.append(
                GluingNodeSolution(
                    node.id,
                    0,
                    (),
                    failure=f"{node.id}: directions {node.directions[0].direction} and "
                    f"{d.direction} demand incompatible gluing parameters",
                )
            )
            continue
        out.append(
            GluingNodeSolution(
                node.id,
                sol.branch_count,
                tuple(map(itemgetter(0), sol.solutions)),
            )
        )
    return GluingSolution(tuple(out))


def gluing_problem_from_maptype(mt: MapType) -> GluingProblem:
    """The collapsed-chain gluing problem of a map type (lambdas left to the caller)."""
    nodes = []
    for walk in mt.walks:
        f = walk.fiber
        if f.kind != "node":
            continue
        start, end = mt.record(f.start_point), mt.record(f.end_point)
        dirs = []
        for d in sorted(set(start.directions) & set(end.directions)):
            sa, sb = start.slot(d), end.slot(d)
            if sa.eps == 0 or sb.eps == 0 or sa.coeff is None or sb.coeff is None:
                continue
            eqs = [eq for eq in walk.steps if eq.direction == d]
            levels = [eq.level for eq in eqs]
            dirs.append(
                GluingDirection(
                    d,
                    eqs[0].multiplicity if eqs else sa.s,
                    sa.coeff * sb.coeff,
                    (min(levels) - 1, max(levels)) if levels else (0, 0),
                )
            )
        if dirs:
            nodes.append(GluingNode(f.base_id, tuple(dirs)))
    return GluingProblem(tuple(nodes), ())


# -- file format -----------------------------------------------------------------


def gluing_to_dict(gp: GluingProblem) -> dict:
    return {
        "levels": {str(l): coeff_to_json(v) for l, v in gp.lambdas},
        "nodes": [
            {
                "id": n.id,
                "directions": [
                    {
                        "direction": d.direction,
                        "s": d.multiplicity,
                        "product": coeff_to_json(d.product),
                        "range": list(d.level_range),
                    }
                    for d in n.directions
                ],
            }
            for n in gp.nodes
        ],
    }


def _direction_from_dict(d, nid: str) -> GluingDirection:
    d = _json_object(d, f"{nid} direction")
    direction = _json_str(d["direction"], f"{nid}: direction")
    where = f"{nid}: {direction}"
    level_range = d["range"]
    if not isinstance(level_range, list) or len(level_range) != 2:
        raise ValueError(f"{where} range = {reprlib.repr(level_range)} is not a list of two integers")
    s = _json_int(d["s"], f"{where} s")
    product = coeff_from_json(d["product"])
    lo, hi = (_json_int(x, f"{where} range") for x in level_range)
    if lo > hi:
        raise ValueError(f"{where} range = {reprlib.repr(level_range)} is reversed")
    return GluingDirection(direction, s, product, (lo, hi))


def gluing_from_dict(obj: Mapping) -> GluingProblem:
    """Load a gluing problem; ``ValueError`` names a field of the wrong JSON
    type, a multiplicity below 1 or a level range whose low end is above its
    high end."""
    nodes = []
    for n in _json_list(obj.get("nodes", []), "nodes"):
        n = _json_object(n, "node")
        nid = _json_str(n["id"], "node id")
        directions = _json_list(n["directions"], f"{nid} directions")
        nodes.append(GluingNode(nid, tuple(_direction_from_dict(d, nid) for d in directions)))
    for n in nodes:
        if not n.directions:
            raise ValueError(f"{n.id}: directions must not be empty")
        for d in n.directions:
            if d.multiplicity < 1:
                raise ValueError(f"{n.id}: multiplicity {d.multiplicity} in {d.direction} must be positive")
    lambdas = tuple(
        sorted(
            (_json_int_key(l, "levels key"), coeff_from_json(v))
            for l, v in _json_object(obj.get("levels", {}), "levels").items()
        )
    )
    return GluingProblem(tuple(nodes), lambdas)


def gluing_dumps(gp: GluingProblem) -> str:
    return json.dumps(gluing_to_dict(gp), indent=2, sort_keys=True) + "\n"


def gluing_loads(text: str) -> GluingProblem:
    return gluing_from_dict(json.loads(text))
