"""Combinatorial model of a normal-crossings divisor.

A divisor is presented by the connected components of its normalization and
by its depth-k strata.  Each stratum carries one ordered slot per local
branch meeting there, the number of connected components of its own
normalization, and monodromy generators permuting slots that reference the
same component.  Non-simple crossings are expressed through repeated slot
references and monodromy; the depth-0 stratum is the ambient manifold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Mapping, Optional, Sequence

from .jsonfields import _json_int, _json_list, _json_object, _json_str


@dataclass(frozen=True)
class BranchComponent:
    """A connected component of the divisor's normalization."""

    id: str
    name: str = ""


@dataclass(frozen=True)
class Stratum:
    id: str
    depth: int
    slots: tuple[str, ...] = ()
    normalization_components: int = 1
    monodromy: tuple[tuple[int, ...], ...] = ()
    boundary: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "slots", tuple(self.slots))
        object.__setattr__(
            self, "monodromy", tuple(tuple(p) for p in self.monodromy)
        )
        object.__setattr__(self, "boundary", frozenset(self.boundary))


@dataclass(frozen=True)
class CombinatorialDivisor:
    dim_x: int
    components: tuple[BranchComponent, ...]
    strata: tuple[Stratum, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "strata", tuple(self.strata))

    def stratum(self, sid: str) -> Stratum:
        for s in self.strata:
            if s.id == sid:
                return s
        raise KeyError(sid)

    def strata_at(self, depth: int) -> tuple[Stratum, ...]:
        return tuple(s for s in self.strata if s.depth == depth)

    def depth0(self) -> Stratum:
        (s,) = self.strata_at(0)
        return s

    def max_depth(self) -> int:
        return max(s.depth for s in self.strata)

    def component_ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.components)


def slot_orbits(stratum: Stratum) -> tuple[tuple[int, ...], ...]:
    """Orbits of the slot set under the monodromy generators."""
    parent = list(range(stratum.depth))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for perm in stratum.monodromy:
        for i, j in enumerate(perm):
            pi, pj = find(i), find(j)
            if pi != pj:
                parent[pi] = pj
    groups: dict[int, list[int]] = {}
    for i in range(stratum.depth):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(g) for g in sorted(groups.values()))


def validate(d: CombinatorialDivisor) -> list[str]:
    """All invariant violations; empty means the divisor is consistent."""
    out: list[str] = []
    if d.dim_x <= 0 or d.dim_x % 2:
        out.append(f"dimX must be even and positive, got {d.dim_x}")
    comp_ids = [c.id for c in d.components]
    if len(set(comp_ids)) != len(comp_ids):
        out.append("duplicate component ids")
    sids = [s.id for s in d.strata]
    if len(set(sids)) != len(sids):
        out.append("duplicate stratum ids")
    by_id = {s.id: s for s in d.strata}
    zeros = d.strata_at(0)
    if len(zeros) != 1:
        out.append(f"expected exactly one depth-0 stratum, found {len(zeros)}")
    elif zeros[0].slots:
        out.append("depth-0 stratum must have no slots")
    for s in d.strata:
        if len(s.slots) != s.depth:
            out.append(f"{s.id}: slot count {len(s.slots)} != depth {s.depth}")
        if 2 * s.depth > d.dim_x:
            out.append(f"{s.id}: 2k <= dimX violated (depth {s.depth}, dimX {d.dim_x})")
        if s.normalization_components < 1:
            out.append(f"{s.id}: normalization_components must be positive")
        for ref in s.slots:
            if ref not in comp_ids:
                out.append(f"{s.id}: slot references unknown component {ref!r}")
        for perm in s.monodromy:
            if sorted(perm) != list(range(s.depth)):
                out.append(f"{s.id}: monodromy {perm} is not a permutation of its slots")
                continue
            for i, j in enumerate(perm):
                if s.slots and s.slots[i] != s.slots[j]:
                    out.append(
                        f"{s.id}: monodromy moves slot {i} ({s.slots[i]}) onto a "
                        f"different component ({s.slots[j]})"
                    )
                    break
        for b in sorted(s.boundary):
            if b not in by_id:
                out.append(f"{s.id}: boundary references unknown stratum {b!r}")
            elif by_id[b].depth != s.depth + 1:
                out.append(f"{s.id}: boundary stratum {b} is not one level deeper")
    covered = {b for s in d.strata for b in s.boundary if b in by_id}
    for s in d.strata:
        if s.depth >= 1 and s.id not in covered:
            out.append(f"{s.id}: depth-{s.depth} stratum not in any boundary")
    return out


def local_model(n: int) -> CombinatorialDivisor:
    """Union of the n coordinate hyperplanes: depth-k strata are k-subsets."""
    if n < 1:
        raise ValueError("local model needs at least one hyperplane")
    comps = tuple(BranchComponent(f"h{i}", f"hyperplane {i}") for i in range(1, n + 1))
    ids = [c.id for c in comps]

    def sid(subset: tuple[str, ...]) -> str:
        return ",".join(subset) if subset else "X"

    strata = []
    for k in range(0, n + 1):
        for subset in combinations(ids, k):
            boundary = frozenset(
                sid(sup)
                for sup in combinations(ids, k + 1)
                if set(subset) <= set(sup)
            )
            strata.append(
                Stratum(
                    id=sid(subset),
                    depth=k,
                    slots=subset,
                    normalization_components=1,
                    boundary=boundary,
                )
            )
    return CombinatorialDivisor(2 * n, comps, tuple(strata))


@dataclass(frozen=True)
class StratumCounts:
    """Connected-component counts of the three resolutions at depth k."""

    resolution_of_vk: int
    double_resolution: int
    resolution_of_wk1: int


def _double_resolution(d: CombinatorialDivisor, k: int) -> int:
    return sum(
        s.normalization_components * len(slot_orbits(s)) for s in d.strata_at(k)
    )


def stratum_counts(d: CombinatorialDivisor, k: int) -> StratumCounts:
    """Component counts for the normalization of V^k, the total space of its
    degree-k branch cover, and the normalization of the divisor inside it."""
    if not d.strata_at(k):
        raise ValueError(f"divisor has no depth-{k} strata")
    return StratumCounts(
        resolution_of_vk=sum(s.normalization_components for s in d.strata_at(k)),
        double_resolution=_double_resolution(d, k),
        resolution_of_wk1=_double_resolution(d, k + 1),
    )


def simple_crossings(
    dim_x: int,
    components: Sequence[str],
    intersections: Optional[Mapping[frozenset, int] | Iterable[tuple[Iterable[str], int]]] = None,
) -> CombinatorialDivisor:
    """Build a simple-crossings divisor from which subsets of components meet.

    Every listed component gets a depth-1 stratum (count 1 unless overridden).
    A subset may only be declared when all of its sub-subsets intersect too.
    """
    table: dict[frozenset, int] = {}
    if intersections is not None:
        items = intersections.items() if hasattr(intersections, "items") else intersections
        for subset, count in items:
            key = frozenset(subset)
            if not key:
                raise ValueError("empty intersection subset")
            table[key] = table.get(key, 0) + count
    for c in components:
        table.setdefault(frozenset([c]), 1)
    for subset in table:
        for c in subset:
            if c not in components:
                raise ValueError(f"unknown component {c!r} in intersection data")
        if len(subset) >= 2:
            for sub in combinations(sorted(subset), len(subset) - 1):
                if frozenset(sub) not in table:
                    raise ValueError(
                        f"intersection {sorted(subset)} declared without sub-intersection {list(sub)}"
                    )

    def sid(key: frozenset) -> str:
        return ",".join(sorted(key))

    strata = [
        Stratum(
            id="X",
            depth=0,
            boundary=frozenset(sid(k) for k in table if len(k) == 1),
        )
    ]
    for key, count in sorted(table.items(), key=lambda kv: (len(kv[0]), sid(kv[0]))):
        boundary = frozenset(
            sid(sup) for sup in table if len(sup) == len(key) + 1 and key < sup
        )
        strata.append(
            Stratum(
                id=sid(key),
                depth=len(key),
                slots=tuple(sorted(key)),
                normalization_components=count,
                boundary=boundary,
            )
        )
    return CombinatorialDivisor(
        dim_x,
        tuple(BranchComponent(c, c) for c in components),
        tuple(strata),
    )


def self_crossing_curve() -> CombinatorialDivisor:
    """One divisor component in a 4-manifold, self-intersecting at one point."""
    c = BranchComponent("c", "self-crossing curve")
    return CombinatorialDivisor(
        4,
        (c,),
        (
            Stratum("X", 0, boundary=frozenset({"c"})),
            Stratum("c", 1, slots=("c",), boundary=frozenset({"c,c"})),
            Stratum("c,c", 2, slots=("c", "c")),
        ),
    )


def locally_isomorphic(a: Stratum, b: Stratum) -> bool:
    """Same local shape: equal depth and equal monodromy orbit profile."""
    return a.depth == b.depth and (
        sorted(len(o) for o in slot_orbits(a)) == sorted(len(o) for o in slot_orbits(b))
    )


# -- stable file format ---------------------------------------------------------

def divisor_to_dict(d: CombinatorialDivisor) -> dict:
    return {
        "dimX": d.dim_x,
        "components": [c.id for c in d.components],
        "strata": [
            {
                "id": s.id,
                "depth": s.depth,
                "slots": list(s.slots),
                "normalization_components": s.normalization_components,
                "monodromy": [list(p) for p in s.monodromy],
                "boundary": sorted(s.boundary),
            }
            for s in d.strata
        ],
    }


def _stratum_from_dict(s) -> Stratum:
    s = _json_object(s, "stratum")
    sid = _json_str(s["id"], "stratum id")
    return Stratum(
        id=sid,
        depth=_json_int(s["depth"], f"{sid}: depth"),
        slots=tuple(_json_str(r, f"{sid}: slot reference") for r in _json_list(s.get("slots", []), f"{sid}: slots")),
        normalization_components=_json_int(
            s.get("normalization_components", 1), f"{sid}: normalization_components"
        ),
        monodromy=tuple(
            tuple(_json_int(i, f"{sid}: monodromy") for i in _json_list(p, f"{sid}: monodromy"))
            for p in _json_list(s.get("monodromy", []), f"{sid}: monodromy")
        ),
        boundary=frozenset(
            _json_str(b, f"{sid}: boundary reference") for b in _json_list(s.get("boundary", []), f"{sid}: boundary")
        ),
    )


def divisor_from_dict(obj: Mapping) -> CombinatorialDivisor:
    """Load a divisor; ``ValueError`` names a list or object of the wrong
    JSON type, an id or reference that is not a string, or an integer field
    that is not a JSON integer."""
    comps = tuple(
        BranchComponent(_json_str(c, "component id"), c) for c in _json_list(obj["components"], "components")
    )
    strata = tuple(_stratum_from_dict(s) for s in _json_list(obj["strata"], "strata"))
    return CombinatorialDivisor(_json_int(obj["dimX"], "dimX"), comps, strata)


def dumps(d: CombinatorialDivisor) -> str:
    return json.dumps(divisor_to_dict(d), indent=2, sort_keys=True) + "\n"


def loads(text: str) -> CombinatorialDivisor:
    return divisor_from_dict(json.loads(text))
