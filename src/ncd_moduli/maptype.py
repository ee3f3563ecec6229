"""Decorated combinatorial types of relatively stable maps.

A map type is a nodal curve whose components carry the multi-level of their
image piece, a trivial/nontrivial flag, and contact records at special
points.  A contact record stores, per normal direction: the multiplicity,
the divisor-side sign, the level, and the leading coefficient (flagged
formal on directions where a trivial component is frozen at zero or
infinity).  Validators implement the structural, naive, broken-cylinder and
enhanced matching conditions, plus relative stability.  Enhanced matching
and the weighted-projective test ``wproj_equal`` run the one-unknown
power-system pass ``exactnum.powersys._column_pass`` on integer log tuples,
once per node or pair of classes, and build no power-system solution.

A ``MapType`` computes each fact about itself once, on first use:

- the id lookups;
- the contraction (``fibers``) and each fiber's walk (``walks``), which
  every validator and the level system read instead of walking again.  A
  walk's steps are the level system's equations, one ``LevelEquation`` per
  node step, each keyed by its ``beta_key`` once, in the walk;
- the reports of ``validate_structure`` and ``check_naive``, each returned
  as a fresh list; with the walks' broken-cylinder violations they are what
  the level system is gated on;
- ``validation``, the record that ``validate`` prints; nothing else in the
  library checks enhanced matching or relative stability;
- the building's level unknowns ``beta_keys``, which only the level system
  lists.  The walks, relative stability and ``asymptotic_classes`` name a
  level through ``beta_key``; the walks and ``asymptotic_classes`` test it
  with ``has_beta``, and relative stability visits the levels in order up
  to the first one not covered;
- its level system, assembled here beside the three checks that gate it
  and returned by ``levelsys.build_system``, so ``torus_dim``,
  ``beta_relations`` and ``stratum_codim`` share one elimination of its
  level matrix.

A computation that raises is not kept: it raises again on every call.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence, Union

from .exactnum import ExactNonzeroComplex, coeff_from_json, coeff_to_json
from .exactnum.lattice import _int_entry
from .exactnum.powersys import _column_pass, _first_root
from .exactnum.values import _log_sum
from .jsonfields import _json_bool, _json_int, _json_list, _json_object, _json_str

if TYPE_CHECKING:
    from .levelsys import LevelSystem

# a level unknown: a uniform building's level, or (scaling component, level)
BetaKey = Union[int, tuple[str, int]]


@dataclass(frozen=True)
class ContactSlot:
    s: Optional[int]
    eps: int
    level: int = 0
    coeff: Optional[ExactNonzeroComplex] = None
    formal: bool = False

    def __post_init__(self):
        if self.eps not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or +1")
        if self.s is not None and self.s < 1:
            raise ValueError("multiplicity must be positive or undefined")


@dataclass(frozen=True)
class ContactRecord:
    stratum: Optional[str] = None
    slots: tuple[tuple[str, ContactSlot], ...] = ()

    def __post_init__(self):
        slots = tuple(sorted(self.slots, key=lambda slot: slot[0]))
        for (d, _), (e, _) in zip(slots, slots[1:]):
            if d == e:
                raise ValueError(f"direction {d} is listed twice")
        object.__setattr__(self, "slots", slots)

    @property
    def directions(self) -> tuple[str, ...]:
        return tuple(d for d, _ in self.slots)

    def slot(self, direction: str) -> Optional[ContactSlot]:
        for d, sl in self.slots:
            if d == direction:
                return sl
        return None

    @property
    def depth(self) -> int:
        return len(self.slots)

    def degree(self) -> int:
        total = 0
        for d, sl in self.slots:
            if sl.s is None:
                raise ValueError(f"undefined multiplicity in direction {d}")
            total += sl.s
        return total


@dataclass(frozen=True)
class Component:
    id: str
    genus: int = 0
    trivial: bool = False
    levels: tuple[tuple[str, int], ...] = ()
    points: tuple[tuple[str, ContactRecord], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(sorted(self.levels)))
        object.__setattr__(self, "points", tuple(self.points))

    def level(self, direction: str) -> int:
        return dict(self.levels).get(direction, 0)

    def point_ids(self) -> tuple[str, ...]:
        return tuple(pid for pid, _ in self.points)


@dataclass(frozen=True)
class Node:
    id: str
    ends: tuple[str, str]


@dataclass(frozen=True)
class MapType:
    building_mode: str = "uniform"  # "uniform" | "multi"
    m: int = 0
    levels_by_component: tuple[tuple[str, int], ...] = ()
    direction_components: tuple[tuple[str, str], ...] = ()
    components: tuple[Component, ...] = ()
    nodes: tuple[Node, ...] = ()
    c1a: int = 0
    av: int = 0
    chi: int = 2
    ell: int = 0

    # -- lookups and analysis, each computed once ------------------------------

    @cached_property
    def _index(self) -> tuple[dict[str, Component], dict[str, tuple[Component, ContactRecord]]]:
        """Component id -> component, point id -> (owner, record); first occurrence wins."""
        components: dict[str, Component] = {}
        points: dict[str, tuple[Component, ContactRecord]] = {}
        for c in self.components:
            components.setdefault(c.id, c)
            for pid, r in c.points:
                points.setdefault(pid, (c, r))
        return components, points

    def component(self, cid: str) -> Component:
        return self._index[0][cid]

    def owner(self, pid: str) -> Component:
        return self._index[1][pid][0]

    def record(self, pid: str) -> ContactRecord:
        return self._index[1][pid][1]

    def marked_point_ids(self) -> tuple[str, ...]:
        taken = {p for n in self.nodes for p in n.ends}
        return tuple(
            pid for c in self.components for pid in c.point_ids() if pid not in taken
        )

    @cached_property
    def fibers(self) -> tuple[BaseFiber, ...]:
        """``contraction(self)``; raises its ValueError on every read."""
        return contraction(self)

    @cached_property
    def walks(self) -> tuple[FiberWalk, ...]:
        """``walk_fiber`` of each fiber, in the order of ``fibers``."""
        return tuple(walk_fiber(self, f) for f in self.fibers)

    @cached_property
    def _structure(self) -> tuple[str, ...]:
        """The report of ``validate_structure``."""
        return tuple(_structure_violations(self))

    @cached_property
    def _naive(self) -> tuple[str, ...]:
        """The report of ``check_naive``."""
        return tuple(_naive_violations(self))

    @cached_property
    def validation(self) -> Validation:
        """What ``validate`` reports.  Naive matching and broken cylinders are
        checked only when the structure is sound, enhanced matching and
        stability only when all three are clean; a ``ValueError`` from
        ``check_enhanced`` reads as "not satisfiable", with its text."""
        structure = self._structure
        if structure:
            return Validation(structure)
        naive, broken = self._naive, tuple(check_broken_cylinders(self))
        if naive or broken:
            return Validation(structure, naive, broken)
        try:
            enhanced = check_enhanced(self)
            satisfiable, failure = enhanced.satisfiable, enhanced.failure
        except ValueError as e:
            satisfiable, failure = False, str(e)
        return Validation(structure, naive, broken, satisfiable, failure, check_relative_stability(self))

    @cached_property
    def beta_keys(self) -> tuple[BetaKey, ...]:
        """The building's level unknowns, ``_beta_keys_in_order`` listed."""
        return tuple(self._beta_keys_in_order())

    def _beta_keys_in_order(self) -> Iterable[BetaKey]:
        """Levels 1..m of a uniform building, or (component, 1..bound) for each
        sorted entry of ``levels_by_component``, one at a time."""
        if self.building_mode == "uniform":
            return range(1, self.m + 1)
        return ((comp, l) for comp, bound in sorted(self.levels_by_component) for l in range(1, bound + 1))

    def has_beta(self, key: BetaKey) -> bool:
        """Whether ``key`` is in ``beta_keys``: its level lies in 1..the bound of
        its component, without listing the keys."""
        if self.building_mode == "uniform":
            return 1 <= key <= self.m
        component, level = key
        return 1 <= level <= dict(self.levels_by_component).get(component, 0)

    def beta_key(self, direction: str, level: int) -> Optional[BetaKey]:
        """The key of ``level`` in ``direction``: the level, or in a multibuilding
        (the direction's scaling component, level), or None if there is no such
        component.  The building has that unknown only if ``has_beta`` holds."""
        if self.building_mode == "uniform":
            return level
        component = dict(self.direction_components).get(direction)
        return None if component is None else (component, level)

    @cached_property
    def _level_system(self) -> LevelSystem:
        """``build_system(self)``, gated on the first three checks of
        ``validation``; raises their violations as LevelSystemError on every read."""
        from .levelsys import LevelSystem, LevelSystemError

        problems = self._structure or self._naive or check_broken_cylinders(self)
        if problems:
            raise LevelSystemError("; ".join(problems))
        equations = tuple(eq for walk in self.walks for eq in walk.steps)
        alphas = sorted({nid for eq in equations for nid in eq.nodes})
        return LevelSystem(tuple(alphas), self.beta_keys, equations)


@dataclass(frozen=True)
class Validation:
    """The report of ``validate``; a stage that was not checked is None, and
    the last two are checked only when every earlier stage is clean."""

    structure: tuple[str, ...]
    naive: Optional[tuple[str, ...]] = None
    broken_cylinders: Optional[tuple[str, ...]] = None
    enhanced: Optional[bool] = None
    enhanced_failure: Optional[str] = None
    relatively_stable: Optional[bool] = None

    @property
    def valid(self) -> bool:
        return bool(self.enhanced and self.relatively_stable)


# -- contraction to the base curve ------------------------------------------------


@dataclass(frozen=True)
class BaseFiber:
    """One special fiber of the contraction: a node or a stretched chain."""

    base_id: str
    kind: str  # "node" | "marked"
    start_point: str
    chain: tuple[str, ...]
    inner_nodes: tuple[str, ...]
    end_point: str

    @property
    def stretch(self) -> int:
        """Number of trivial components over the base special point."""
        return len(self.chain)


def contraction(mt: MapType) -> tuple[BaseFiber, ...]:
    """Decompose the special locus into base fibers.

    Raises ValueError when trivial components do not assemble into two-ended
    chains; validate_structure reports the same defects as data.
    """
    node_of_point = {}
    for n in mt.nodes:
        for p in n.ends:
            if p in node_of_point:
                raise ValueError(f"point {p} appears in two nodes")
            node_of_point[p] = n
    fibers = []
    visited: set[str] = set()
    trivial = {c.id for c in mt.components if c.trivial}

    def other_end(node: Node, pid: str) -> str:
        a, b = node.ends
        return b if pid == a else a

    def walk_away(comp: Component, pid: str):
        """Follow the chain out of ``comp`` through its point ``pid``."""
        side: list[str] = []
        nodes: list[str] = []
        point = pid
        while True:
            node = node_of_point.get(point)
            if node is None:
                return side, nodes, ("marked", point)
            partner = other_end(node, point)
            nodes.append(node.id)
            nxt = mt.owner(partner)
            if nxt.id not in trivial:
                return side, nodes, ("anchor", partner)
            if nxt.id in visited:
                raise ValueError(f"trivial components around {nxt.id} form a cycle")
            visited.add(nxt.id)
            side.append(nxt.id)
            far = [p for p in nxt.point_ids() if p != partner]
            if len(far) != 1:
                raise ValueError(f"trivial component {nxt.id} must have two special points")
            point = far[0]

    for c in mt.components:
        if not c.trivial or c.id in visited:
            continue
        if len(c.point_ids()) != 2:
            raise ValueError(f"trivial component {c.id} must have two special points")
        visited.add(c.id)
        pa, pb = c.point_ids()
        left_side, left_nodes, left_end = walk_away(c, pa)
        right_side, right_nodes, right_end = walk_away(c, pb)
        chain = tuple(reversed(left_side)) + (c.id,) + tuple(right_side)
        nodes_in_order = tuple(reversed(left_nodes)) + tuple(right_nodes)
        ends = [left_end, right_end]
        if sum(1 for k, _ in ends if k == "marked") > 1:
            raise ValueError(f"chain through {c.id} has two marked ends")
        (k0, p0), (k1, p1) = ends
        flip = k0 == "marked" or (k0 == "anchor" and k1 == "anchor" and p1 < p0)
        if flip:
            (k0, p0), (k1, p1) = (k1, p1), (k0, p0)
            chain = tuple(reversed(chain))
            nodes_in_order = tuple(reversed(nodes_in_order))
        kind = "marked" if k1 == "marked" else "node"
        base = f"marked:{p1}" if kind == "marked" else f"node:{p0}|{p1}"
        fibers.append(BaseFiber(base, kind, p0, chain, nodes_in_order, p1))
    for n in mt.nodes:
        a, b = n.ends
        if mt.owner(a).trivial or mt.owner(b).trivial:
            continue
        p0, p1 = sorted((a, b))
        fibers.append(BaseFiber(f"node:{p0}|{p1}", "node", p0, (), (n.id,), p1))
    return tuple(sorted(fibers, key=lambda f: f.base_id))


# -- structural validation ---------------------------------------------------------


def validate_structure(mt: MapType) -> list[str]:
    return list(mt._structure)


def _structure_violations(mt: MapType) -> list[str]:
    out: list[str] = []
    cids = [c.id for c in mt.components]
    if len(set(cids)) != len(cids):
        out.append("duplicate component ids")
    pids = [p for c in mt.components for p in c.point_ids()]
    if len(set(pids)) != len(pids):
        out.append("duplicate point ids")
    for c in mt.components:
        if c.genus < 0:
            out.append(f"{c.id}: negative genus")
        if c.trivial:
            if len(c.point_ids()) != 2:
                out.append(f"{c.id}: trivial component must have exactly two special points")
            if c.genus != 0:
                out.append(f"{c.id}: trivial component must have genus 0")
            if len(c.point_ids()) == 2:
                (pa, ra), (pb, rb) = c.points
                for d in sorted(set(ra.directions) & set(rb.directions)):
                    sa, sb = ra.slot(d), rb.slot(d)
                    if sa.s is not None and sb.s is not None and sa.s != sb.s:
                        out.append(f"{c.id}: multiplicities differ across ends in {d}")
                    if sa.eps and sb.eps and sa.eps != -sb.eps:
                        out.append(f"{c.id}: signs must be opposite across ends in {d}")
                    if sa.coeff is not None and sb.coeff is not None:
                        if not (sa.coeff * sb.coeff).is_one():
                            out.append(f"{c.id}: coefficients not reciprocal in {d}")
        else:
            for pid, r in c.points:
                for d, sl in r.slots:
                    if sl.s is None:
                        out.append(f"{pid}: nontrivial component with undefined multiplicity in {d}")
    known = set(pids)
    for n in mt.nodes:
        if len(set(n.ends)) != 2:
            out.append(f"{n.id}: node must join two distinct points")
        for p in n.ends:
            if p not in known:
                out.append(f"{n.id}: unknown point {p}")
    counts: dict[str, int] = {}
    for n in mt.nodes:
        for p in n.ends:
            counts[p] = counts.get(p, 0) + 1
    for p, k in counts.items():
        if k > 1:
            out.append(f"point {p} lies on {k} nodes")
    if not out:
        try:
            mt.fibers
        except ValueError as e:
            out.append(str(e))
    marked = mt.marked_point_ids()
    for pid in marked:
        r = mt.record(pid)
        for d, sl in r.slots:
            if sl.eps == -1:
                out.append(f"{pid}: marked point on an infinity divisor ({d})")
    try:
        total = sum(mt.record(p).degree() for p in marked)
        if total != mt.av:
            out.append(f"marked contact degree {total} != A.V = {mt.av}")
    except ValueError as e:
        out.append(str(e))
    return out


# -- naive matching ------------------------------------------------------------------


def check_naive(mt: MapType) -> list[str]:
    return list(mt._naive)


def _naive_violations(mt: MapType) -> list[str]:
    out: list[str] = []
    for n in mt.nodes:
        a, b = n.ends
        ra, rb = mt.record(a), mt.record(b)
        if ra.stratum != rb.stratum:
            out.append(f"{n.id}: image strata differ ({ra.stratum} vs {rb.stratum})")
        if ra.directions != rb.directions:
            out.append(f"{n.id}: branch sets differ ({ra.directions} vs {rb.directions})")
            continue
        for (d, sa), (_, sb) in zip(ra.slots, rb.slots):
            if sa.s is None or sb.s is None:
                out.append(f"{n.id}: undefined multiplicity at a node ({d})")
                continue
            if sa.s != sb.s:
                out.append(f"{n.id}: multiplicities differ in {d}: {sa.s} vs {sb.s}")
            if sa.eps != -sb.eps:
                out.append(f"{n.id}: signs not opposite in {d}: {sa.eps} vs {sb.eps}")
    return out


# -- broken cylinders and level walks ---------------------------------------------


@dataclass(frozen=True)
class LevelEquation:
    """multiplicity * sum(alpha over nodes) = beta - below, for one projected
    step in ``direction``; ``beta`` is the step's key from ``MapType.beta_key``,
    or (None, level) when the direction has no scaling component."""

    base: str
    direction: str
    beta: BetaKey
    nodes: tuple[str, ...]
    multiplicity: int

    @property
    def level(self) -> int:
        return self.beta if isinstance(self.beta, int) else self.beta[1]

    @property
    def below(self) -> Optional[BetaKey]:
        """The key one level down in the same scaling direction, or None at level 1."""
        level = self.level - 1
        if level < 1:
            return None
        return level if isinstance(self.beta, int) else (self.beta[0], level)


@dataclass(frozen=True)
class FiberWalk:
    """A fiber's level equations, one per node step, and its broken-cylinder violations."""

    fiber: BaseFiber
    steps: tuple[LevelEquation, ...]
    violations: tuple[str, ...]


def _fiber_directions(records: Sequence[ContactRecord]) -> list[str]:
    dirs = []
    for r in records:
        for d, sl in r.slots:
            if sl.eps != 0 and d not in dirs:
                dirs.append(d)
    return dirs


def _frozen(comp: Component, direction: str) -> bool:
    slots = [r.slot(direction) for _, r in comp.points]
    present = [sl for sl in slots if sl is not None]
    if not present:
        return True  # direction absent: constant in it
    return all(sl.formal for sl in present)


def _fiber_multiplicity(
    f: BaseFiber, records: Sequence[ContactRecord], direction: str
) -> tuple[Optional[int], list[str]]:
    values = set()
    for r in records:
        sl = r.slot(direction)
        if sl is not None and sl.s is not None:
            values.add(sl.s)
    if not values:
        return None, []
    if len(values) > 1:
        return None, [f"{f.base_id}: multiplicity drifts along the fiber in {direction}: {sorted(values)}"]
    return values.pop(), []


def walk_fiber(mt: MapType, f: BaseFiber) -> FiberWalk:
    """Walk each direction of ``f`` from its start, projecting out the chain
    components frozen in it; each node step that moves one level becomes a
    ``LevelEquation``."""
    violations: list[str] = []
    steps: list[LevelEquation] = []
    moved: set[str] = set()
    start = mt.owner(f.start_point)
    chain = [mt.component(cid) for cid in f.chain]
    end = mt.owner(f.end_point) if f.kind == "node" else None
    records = [mt.record(f.start_point), mt.record(f.end_point)]
    records += [r for c in chain for _, r in c.points]
    for d in _fiber_directions(records):
        s, errs = _fiber_multiplicity(f, records, d)
        violations.extend(errs)
        eqs: list[LevelEquation] = []
        rising: set[bool] = set()
        keyless = False
        lo = start.level(d)
        pending: list[str] = []
        # node t leads into chain[t]; a node fiber's last node leads into its end
        for t, nid in enumerate(f.inner_nodes):
            pending.append(nid)
            comp = chain[t] if t < len(chain) else end
            if t < len(chain) and _frozen(comp, d):
                continue
            nodes, pending = tuple(pending), []
            hi = comp.level(d)
            delta, level, lo = hi - lo, max(lo, hi), hi
            if delta == 0:
                violations.append(f"{f.base_id}: node does not move in {d}")
                continue
            if abs(delta) > 1:
                violations.append(f"{f.base_id}: level jumps by {delta} in {d}")
                continue
            rising.add(delta > 0)
            if s is None:
                violations.append(f"{f.base_id}: no multiplicity available in {d}")
                continue
            key = mt.beta_key(d, level)
            keyless = keyless or key is None
            eqs.append(LevelEquation(f.base_id, d, (None, level) if key is None else key, nodes, s))
            moved.update(nodes)
        if end is None:
            end_slot = mt.record(f.end_point).slot(d)
            hi = (chain[-1] if chain else start).level(d) if end_slot is None else end_slot.level
            if hi != lo:
                violations.append(f"{f.base_id}: level jumps by {hi - lo} into the marked endpoint in {d}")
        if len(rising) > 1:
            violations.append(f"{f.base_id}: levels are not monotone in {d}")
        if len({eq.level for eq in eqs}) != len(eqs):
            violations.append(f"{f.base_id}: repeated node level in {d}")
        if keyless:
            violations.append(f"{f.base_id}: direction {d} has no scaling component")
        else:
            violations += [
                f"{f.base_id}: direction {d} reaches level {eq.level}, which the building does not have"
                for eq in eqs
                if not mt.has_beta(eq.beta)
            ]
        steps += eqs
    for nid in f.inner_nodes:
        if nid not in moved:
            violations.append(f"{f.base_id}: node {nid} moves in no direction")
    return FiberWalk(f, tuple(steps), tuple(violations))


def check_broken_cylinders(mt: MapType) -> list[str]:
    return [v for w in mt.walks for v in w.violations]


# -- enhanced matching -----------------------------------------------------------


@dataclass(frozen=True)
class EnhancedResult:
    satisfiable: bool
    witness: tuple[tuple[str, ExactNonzeroComplex], ...]
    branch_counts: tuple[tuple[str, int], ...]
    failure: Optional[str] = None

    def __bool__(self) -> bool:
        return self.satisfiable


def check_enhanced(mt: MapType) -> EnhancedResult:
    """Decide existence of per-node constants with a(y-)a(y+)c^s = 1.

    Each node is one integer pass (``powersys._column_pass``) over the log
    tuples of 1/(a(y-)a(y+)), one row per shared decorated direction, so no
    power-system solution is built.  A row's tuple is the sum of the two
    coefficients' logs over the lcm of their denominators, negated, so the
    product a(y-)a(y+) is not built either; the pass cross-multiplies, so
    the denominator need not be the least.  The witness is the pass's first
    branch at each node, in normal form, and the branch count its g, the gcd
    of the multiplicities.
    """
    witness: list[tuple[str, ExactNonzeroComplex]] = []
    branches: list[tuple[str, int]] = []
    for n in mt.nodes:
        a, b = n.ends
        ra, rb = mt.record(a), mt.record(b)
        s: list[int] = []
        logs: list[tuple] = []
        dirs: list[str] = []
        for d, sa in ra.slots:
            sb = rb.slot(d)
            if sb is None or sa.eps == 0 or sb.eps == 0:
                continue
            if sa.coeff is None or sb.coeff is None:
                raise ValueError(f"{n.id}: undecorated coefficient in {d}")
            if sa.s is None:
                raise ValueError(f"{n.id}: undefined multiplicity in {d}")
            D, primes, exps, arg = _log_sum(sa.coeff._log, sb.coeff._log)
            s.append(sa.s)
            logs.append((D, primes, [-e for e in exps], -arg))
            dirs.append(d)
        if not s:
            continue
        out = _column_pass(s, logs)
        if type(out) is int:
            return EnhancedResult(
                False,
                (),
                (),
                failure=f"{n.id}: no gluing constant matches direction {dirs[out]}",
            )
        witness.append((n.id, _first_root(*out)))
        branches.append((n.id, out[0]))
    return EnhancedResult(True, tuple(witness), tuple(branches))


# -- relative stability -----------------------------------------------------------


def check_relative_stability(mt: MapType) -> bool:
    """Every level of the building is the level of a nontrivial component in some
    direction.  The levels are checked in order up to the first one not covered,
    so a building with many levels is not listed."""
    covered = {mt.beta_key(d, l) for c in mt.components if not c.trivial for d, l in c.levels}
    return all(key in covered for key in mt._beta_keys_in_order())


# -- weighted projective evaluation -------------------------------------------------


@dataclass(frozen=True)
class EvaluationClass:
    stratum: Optional[str]
    directions: tuple[str, ...]
    weights: tuple[int, ...]
    coeffs: tuple[ExactNonzeroComplex, ...]


def evaluation(mt: MapType, pid: str) -> EvaluationClass:
    r = mt.record(pid)
    dirs, weights, coeffs = [], [], []
    for d, sl in r.slots:
        if sl.coeff is None or sl.s is None:
            raise ValueError(f"{pid}: undecorated slot {d}")
        dirs.append(d)
        weights.append(sl.s)
        coeffs.append(sl.coeff)
    return EvaluationClass(r.stratum, tuple(dirs), tuple(weights), tuple(coeffs))


def wproj_equal(
    a: Sequence[ExactNonzeroComplex],
    b: Sequence[ExactNonzeroComplex],
    weights: Sequence[int],
) -> bool:
    """Equality in the weighted projectivization: b_i = t^{w_i} a_i for some t.

    A weight that is not an integer raises ``ValueError`` naming it.
    """
    if not (len(a) == len(b) == len(weights)):
        raise ValueError("lengths must agree")
    s = [_int_entry(w) for w in weights]
    return type(_column_pass(s, [(bi / ai)._log for ai, bi in zip(a, b)])) is not int


def antidiagonal_paired(
    a: Sequence[ExactNonzeroComplex],
    b: Sequence[ExactNonzeroComplex],
    weights: Sequence[int],
) -> bool:
    """True when ([a], [b]) sits on the antidiagonal, i.e. [b] = [a^{-1}]."""
    return wproj_equal([x.inverse() for x in a], b, weights)


def eval_equal(e1: EvaluationClass, e2: EvaluationClass) -> bool:
    return (
        e1.stratum == e2.stratum
        and e1.directions == e2.directions
        and e1.weights == e2.weights
        and wproj_equal(e1.coeffs, e2.coeffs, e1.weights)
    )


# -- file format ---------------------------------------------------------------------


def _slot_to_dict(d: str, sl: ContactSlot) -> dict:
    return {
        "direction": d,
        "s": sl.s,
        "eps": sl.eps,
        "level": sl.level,
        "coeff": None if sl.coeff is None else coeff_to_json(sl.coeff),
        "formal": sl.formal,
    }


def maptype_to_dict(mt: MapType) -> dict:
    return {
        "building": {
            "mode": mt.building_mode,
            "m": mt.m,
            "levels": {k: v for k, v in mt.levels_by_component},
        },
        "directions": {k: v for k, v in mt.direction_components},
        "pairing": {"c1A": mt.c1a, "AV": mt.av, "chi": mt.chi, "ell": mt.ell},
        "components": [
            {
                "id": c.id,
                "genus": c.genus,
                "trivial": c.trivial,
                "levels": {k: v for k, v in c.levels},
                "points": [
                    {
                        "id": pid,
                        "stratum": r.stratum,
                        "slots": [_slot_to_dict(d, sl) for d, sl in r.slots],
                    }
                    for pid, r in c.points
                ],
            }
            for c in mt.components
        ],
        "nodes": [{"id": n.id, "ends": list(n.ends)} for n in mt.nodes],
    }


def _slot_from_dict(obj, pid: str) -> tuple[str, ContactSlot]:
    obj = _json_object(obj, f"{pid} slot")
    coeff = obj.get("coeff")
    s = obj.get("s")
    direction = _json_str(obj["direction"], f"{pid}: slot direction")
    where = f"{pid}: {direction}"
    fields = dict(
        s=None if s is None else _json_int(s, f"{where} s"),
        eps=_json_int(obj.get("eps", 0), f"{where} eps"),
        level=_json_int(obj.get("level", 0), f"{where} level"),
        coeff=None if coeff is None else coeff_from_json(coeff),
        formal=_json_bool(obj.get("formal", False), f"{where} formal"),
    )
    try:
        return direction, ContactSlot(**fields)
    except ValueError as e:
        raise ValueError(f"{where} {e}") from None


def _point_from_dict(obj, cid: str) -> tuple[str, ContactRecord]:
    obj = _json_object(obj, f"{cid} point")
    pid = _json_str(obj["id"], f"{cid} point id")
    slots = _json_list(obj.get("slots", []), f"{pid} slots")
    stratum = obj.get("stratum")
    if stratum is not None:
        stratum = _json_str(stratum, f"{pid} stratum")
    slots = tuple(_slot_from_dict(s, pid) for s in slots)
    try:
        return pid, ContactRecord(stratum, slots)
    except ValueError as e:
        raise ValueError(f"{pid}: {e}") from None


def _node_from_dict(obj) -> Node:
    obj = _json_object(obj, "node")
    nid = _json_str(obj["id"], "node id")
    return Node(nid, tuple(_json_str(p, f"{nid} end") for p in _json_list(obj["ends"], f"{nid} ends")))


def _levels_from_dict(value, field: str) -> tuple[tuple[str, int], ...]:
    return tuple((k, _json_int(v, f"{field} {k}")) for k, v in _json_object(value, field).items())


def maptype_from_dict(obj: Mapping) -> MapType:
    """Load a map type; ``ValueError`` names a field of the wrong JSON type."""
    building = _json_object(obj.get("building", {}), "building")
    mode = building.get("mode", "uniform")
    if mode not in ("uniform", "multi"):
        raise ValueError(f"building mode = {reprlib.repr(mode)} is not 'uniform' or 'multi'")
    directions = _json_object(obj.get("directions", {}), "directions")
    pairing = _json_object(obj.get("pairing", {}), "pairing")
    comps = []
    for c in _json_list(obj.get("components", []), "components"):
        c = _json_object(c, "component")
        cid = _json_str(c["id"], "component id")
        points = _json_list(c.get("points", []), f"{cid} points")
        comps.append(
            Component(
                id=cid,
                genus=_json_int(c.get("genus", 0), f"{cid} genus"),
                trivial=_json_bool(c.get("trivial", False), f"{cid} trivial"),
                levels=_levels_from_dict(c.get("levels", {}), f"{cid} levels"),
                points=tuple(_point_from_dict(p, cid) for p in points),
            )
        )
    return MapType(
        building_mode=mode,
        m=_json_int(building.get("m", 0), "building m"),
        levels_by_component=_levels_from_dict(building.get("levels", {}), "building levels"),
        direction_components=tuple((d, _json_str(c, f"directions {d}")) for d, c in directions.items()),
        components=tuple(comps),
        nodes=tuple(_node_from_dict(n) for n in _json_list(obj.get("nodes", []), "nodes")),
        c1a=_json_int(pairing.get("c1A", 0), "pairing c1A"),
        av=_json_int(pairing.get("AV", 0), "pairing AV"),
        chi=_json_int(pairing.get("chi", 2), "pairing chi"),
        ell=_json_int(pairing.get("ell", 0), "pairing ell"),
    )


def dumps(mt: MapType) -> str:
    return json.dumps(maptype_to_dict(mt), indent=2, sort_keys=True) + "\n"


def loads(text: str) -> MapType:
    return maptype_from_dict(json.loads(text))
