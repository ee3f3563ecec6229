"""Level-m buildings over a combinatorial divisor.

A piece of the building is indexed by a base stratum together with a level
for each of its slots; levels 0 mark unrescaled directions, so the piece's
generic label has all levels >= 1 on its own stratum.  Global pieces are
monodromy orbits of those labels, counted per normalization component of the
base.  Divisor strata of the building are labeled per stratum by a level
tuple, a slot, and a sign; the attaching map pairs a zero-side label at level
l with the infinity-side label at level l+1 in the same direction.
"""

from __future__ import annotations

import itertools
from json.encoder import encode_basestring_ascii
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .divisor import CombinatorialDivisor, local_model
from .jsonfields import _json_int


@dataclass(frozen=True)
class PieceLabel:
    """Base stratum id plus per-slot levels; zero levels are unrescaled."""

    stratum: str
    levels: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(int(x) for x in self.levels))


@dataclass(frozen=True)
class PieceRecord:
    """A monodromy orbit of piece labels over one stratum."""

    label: PieceLabel
    depth: int
    orbit_size: int
    base_components: int


@dataclass(frozen=True)
class PieceClass:
    """Pieces of the same depth and level pattern, aggregated over the base."""

    depth: int
    levels: tuple[int, ...]
    strata: tuple[str, ...]
    connected_pieces: int


@dataclass(frozen=True)
class DivisorStratumLabel:
    """A branch of the total divisor: one signed direction on a local label."""

    stratum: str
    levels: tuple[int, ...]
    slot: int
    sign: int


def _apply_perm(levels: tuple[int, ...], perm: tuple[int, ...]) -> tuple[int, ...]:
    out = list(levels)
    for i, j in enumerate(perm):
        out[j] = levels[i]
    return tuple(out)


def _orbit(levels: tuple[int, ...], gens: Sequence[tuple[int, ...]]) -> frozenset:
    seen = {levels}
    frontier = [levels]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = _apply_perm(cur, g)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def _orbit_signed(
    item: tuple[tuple[int, ...], int], gens: Sequence[tuple[int, ...]]
) -> frozenset:
    seen = {item}
    frontier = [item]
    while frontier:
        levels, slot = frontier.pop()
        for g in gens:
            nxt = (_apply_perm(levels, g), g[slot])
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


@dataclass(frozen=True)
class LevelBuilding:
    divisor: CombinatorialDivisor
    mode: str  # "uniform" | "multi"
    levels_by_component: tuple[tuple[str, int], ...]
    m: int
    pieces: tuple[PieceRecord, ...]
    divisor_strata: tuple[DivisorStratumLabel, ...]
    attaching: tuple[tuple[DivisorStratumLabel, DivisorStratumLabel], ...]

    # -- counting accessors ----------------------------------------------------

    def connected_piece_count(self) -> int:
        return sum(r.base_components for r in self.pieces)

    def piece_classes(self) -> tuple[PieceClass, ...]:
        """Aggregate piece records of equal depth and level pattern.

        This is the counting convention under which a bundle over a
        disconnected normalization is one piece per level pattern.
        """
        acc: dict[tuple[int, tuple[int, ...]], list[PieceRecord]] = {}
        for r in self.pieces:
            acc.setdefault((r.depth, r.label.levels), []).append(r)
        out = []
        for (depth, levels), recs in sorted(acc.items()):
            out.append(
                PieceClass(
                    depth=depth,
                    levels=levels,
                    strata=tuple(sorted({r.label.stratum for r in recs})),
                    connected_pieces=sum(r.base_components for r in recs),
                )
            )
        return tuple(out)

    def class_count(self, depth: Optional[int] = None) -> int:
        return sum(1 for c in self.piece_classes() if depth is None or c.depth == depth)

    def local_labels(self, stratum_id: str) -> tuple[PieceLabel, ...]:
        """All local piece labels over a point of the stratum, each slot up to
        its own component's level count: (m+1)^k in a uniform building."""
        s = self.divisor.stratum(stratum_id)
        bounds = dict(self.levels_by_component)
        ranges = [range(bounds[ref] + 1) for ref in s.slots]
        return tuple(PieceLabel(s.id, lv) for lv in itertools.product(*ranges))


def _builder(
    d: CombinatorialDivisor,
    mode: str,
    bounds: Mapping[str, int],
) -> LevelBuilding:
    m = max(bounds.values(), default=0)
    pieces: list[PieceRecord] = [
        PieceRecord(PieceLabel(d.depth0().id, ()), 0, 1, 1)
    ]
    strata_labels: list[DivisorStratumLabel] = []
    pairs: list[tuple[DivisorStratumLabel, DivisorStratumLabel]] = []
    for s in sorted(d.strata, key=lambda s: (s.depth, s.id)):
        slot_bounds = [bounds[ref] for ref in s.slots]
        # divisor branches over this stratum: one orbit per (local label, slot)
        # class.  A slot's level is constant on its orbit, so both signs are
        # emitted at the orbit's first member.  The level parts of the orbit of
        # (lv, 0) are the orbit of lv, so an all-positive lv met first at slot 0
        # is the least member of a new piece, the loop being lexicographic.
        orbit_rep: dict[tuple[tuple[int, ...], int], tuple[tuple[int, ...], int]] = {}
        minus: dict[tuple[tuple[int, ...], int], DivisorStratumLabel] = {}
        zero_side: list[DivisorStratumLabel] = []
        for lv in itertools.product(*[range(b + 1) for b in slot_bounds]):
            for slot in range(s.depth):
                if (lv, slot) in orbit_rep:
                    continue
                orb = _orbit_signed((lv, slot), s.monodromy)
                rep = min(orb)
                orbit_rep.update(dict.fromkeys(orb, rep))
                if slot == 0 and 0 not in lv:
                    size = len({levels for levels, _ in orb})
                    pieces.append(PieceRecord(PieceLabel(s.id, lv), s.depth, size, s.normalization_components))
                plus = DivisorStratumLabel(s.id, *rep, 1)
                strata_labels.append(plus)
                if lv[slot] >= 1:
                    minus[rep] = DivisorStratumLabel(s.id, *rep, -1)
                    strata_labels.append(minus[rep])
                # at the top level the zero side is part of the building's divisor
                if lv[slot] < slot_bounds[rep[1]]:
                    zero_side.append(plus)
        # each zero-side label attaches to the -1 label of the orbit one level
        # up; the matching is perfect when those orbits are pairwise distinct
        # and as many as the stratum's -1 labels
        targets = []
        for label in zero_side:
            up = list(label.levels)
            up[label.slot] += 1
            targets.append(orbit_rep[(tuple(up), label.slot)])
        if len(set(targets)) != len(targets) or len(targets) != len(minus):
            raise AssertionError("attaching map is not a perfect matching on infinity strata")
        pairs += [(label, minus[rep]) for label, rep in zip(zero_side, targets)]
    return LevelBuilding(
        divisor=d,
        mode=mode,
        levels_by_component=tuple(sorted(bounds.items())),
        m=m,
        pieces=tuple(pieces),
        divisor_strata=tuple(strata_labels),
        attaching=tuple(pairs),
    )


def build(d: CombinatorialDivisor, m: int) -> LevelBuilding:
    """The level-m building: all pieces, divisor branches, and attachments."""
    if _json_int(m, "level count m") < 0:
        raise ValueError("level count must be nonnegative")
    return _builder(d, "uniform", {c.id: m for c in d.components})


def build_multi(d: CombinatorialDivisor, levels) -> LevelBuilding:
    """Multi-building with an independent level count per scaling direction.

    The scaling directions are the connected components of the divisor's
    normalization; a level vector of any other length is rejected.  Each
    level count is an int that is not a bool.
    """
    comp_ids = d.component_ids()
    if hasattr(levels, "items"):
        table = {str(k): _json_int(v, f"level count of {k}") for k, v in levels.items()}
    else:
        vals = [_json_int(v, f"level count {i}") for i, v in enumerate(levels)]
        if len(vals) != len(comp_ids):
            raise ValueError(
                f"divisor has {len(comp_ids)} independent scaling direction(s) "
                f"(one per normalization component); got {len(vals)} levels"
            )
        table = dict(zip(comp_ids, vals))
    if set(table) != set(comp_ids):
        raise ValueError("level table keys must be exactly the component ids")
    if any(v < 0 for v in table.values()):
        raise ValueError("levels must be nonnegative")
    return _builder(d, "multi", table)


def divisor_strata(piece: PieceLabel, include_open: bool = True) -> tuple[tuple[int, ...], ...]:
    """Sign patterns of the total divisor on a piece label.

    A slot at level 0 only meets the zero/fiber divisor, so its sign is in
    {0, +1}; rescaled slots also allow -1.  The all-zero pattern is the open
    piece and is dropped when ``include_open`` is false.
    """
    choices = [(0, 1) if l == 0 else (0, 1, -1) for l in piece.levels]
    out = tuple(
        sig
        for sig in itertools.product(*choices)
        if include_open or any(sig)
    )
    return out


@dataclass(frozen=True)
class CollapseResult:
    building: LevelBuilding
    piece_map: Mapping[PieceLabel, PieceLabel]


def collapse(b: LevelBuilding, levels: Iterable[int]) -> CollapseResult:
    """Collapse a subset of levels of a uniform building.

    Surviving level values shift down past the collapsed ones; a rescaled
    direction that loses all its levels stays at level 1 unless the whole
    piece collapses onto the level-0 piece.
    """
    if b.mode != "uniform":
        raise ValueError("collapse is defined for uniform buildings")
    J = {_json_int(j, "collapsed level") for j in levels}
    if not J <= set(range(1, b.m + 1)):
        raise ValueError(f"collapsed levels must lie in 1..{b.m}")
    small = build(b.divisor, b.m - len(J))

    def relabel(l: int) -> int:
        return l - sum(1 for j in J if j <= l)

    mapping: dict[PieceLabel, PieceLabel] = {}
    x_label = PieceLabel(b.divisor.depth0().id, ())
    for rec in b.pieces:
        if rec.depth == 0:
            mapping[rec.label] = x_label
            continue
        shifted = [relabel(l) for l in rec.label.levels]
        if all(v == 0 for v in shifted):
            mapping[rec.label] = x_label
            continue
        s = b.divisor.stratum(rec.label.stratum)
        clamped = tuple(max(1, v) for v in shifted)
        rep = min(_orbit(clamped, s.monodromy))
        mapping[rec.label] = PieceLabel(s.id, rep)
    return CollapseResult(small, mapping)


@dataclass(frozen=True)
class RescaledDisk:
    """The chain model: a disk rescaled m times at the origin."""

    m: int
    component_levels: tuple[int, ...]
    divisor_points: tuple[tuple, ...]
    attaching_pairs: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    building: LevelBuilding


def rescaled_disk(m: int) -> RescaledDisk:
    b = build(local_model(1), m)
    nodes = tuple(("node", l, l + 1) for l in range(m))
    return RescaledDisk(
        m=m,
        component_levels=tuple(range(m + 1)),
        divisor_points=nodes + (("zero", m),),
        attaching_pairs=tuple(((l, 1), (l + 1, -1)) for l in range(m)),
        building=b,
    )


def torus_weight(l_minus: int, l_plus: int, m: int) -> tuple[int, ...]:
    """Exponent vector of the m-torus action on a node's coefficient product.

    A node joining levels l_minus < l_plus is acted on with weight +1 at
    position l_minus (omitted when l_minus = 0; level zero is fixed) and -1
    at position l_plus.  Same-level nodes are inert.
    """
    if not 0 <= l_minus <= l_plus <= m:
        raise ValueError("need 0 <= l_minus <= l_plus <= m")
    w = [0] * m
    if l_minus == l_plus:
        return tuple(w)
    if l_minus >= 1:
        w[l_minus - 1] += 1
    w[l_plus - 1] -= 1
    return tuple(w)


# -- dump format -----------------------------------------------------------------

def building_to_dict(b: LevelBuilding) -> dict:
    return {
        "mode": b.mode,
        "m": b.m,
        "levels_by_component": {k: v for k, v in b.levels_by_component},
        "pieces": [
            {
                "stratum": r.label.stratum,
                "levels": list(r.label.levels),
                "depth": r.depth,
                "orbit_size": r.orbit_size,
                "base_components": r.base_components,
            }
            for r in b.pieces
        ],
        "divisor_strata": [
            {
                "stratum": x.stratum,
                "levels": list(x.levels),
                "slot": x.slot,
                "sign": x.sign,
            }
            for x in b.divisor_strata
        ],
        "attaching": [
            [
                {"stratum": p.stratum, "levels": list(p.levels), "slot": p.slot, "sign": p.sign},
                {"stratum": q.stratum, "levels": list(q.levels), "slot": q.slot, "sign": q.sign},
            ]
            for p, q in b.attaching
        ],
    }


def _list_text(items: Sequence[str], indent: str) -> str:
    """A JSON list of encoded items, as ``json.dumps(indent=2)`` writes it at ``indent``."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


def dumps(b: LevelBuilding) -> str:
    """The building as indented JSON text.

    The text is byte-identical to
    ``json.dumps(building_to_dict(b), indent=2, sort_keys=True) + "\n"``:
    the same keys in sorted order, two-space indentation, ``[]`` for an empty
    list and ``{}`` for an empty object, strings escaped to ASCII by the
    encoder ``json.dumps`` uses, and integers written by ``str``.  It is
    written from the labels directly, without building that dict, because
    ``indent`` turns off the C encoder of ``json.dumps``.
    """
    enc = encode_basestring_ascii
    level_lists: dict[tuple[tuple[int, ...], str], str] = {}

    def levels(values: tuple[int, ...], indent: str) -> str:
        text = level_lists.get((values, indent))
        if text is None:
            text = level_lists[values, indent] = _list_text(list(map(str, values)), indent)
        return text

    def label(x: DivisorStratumLabel, indent: str) -> str:
        i = indent + "  "
        return (
            f'{{\n{i}"levels": {levels(x.levels, i)},\n{i}"sign": {x.sign!s},\n'
            f'{i}"slot": {x.slot!s},\n{i}"stratum": {enc(x.stratum)}\n{indent}}}'
        )

    def piece(r: PieceRecord) -> str:
        i = "      "
        return (
            f'{{\n{i}"base_components": {r.base_components!s},\n{i}"depth": {r.depth!s},\n'
            f'{i}"levels": {levels(r.label.levels, i)},\n{i}"orbit_size": {r.orbit_size!s},\n'
            f'{i}"stratum": {enc(r.label.stratum)}\n    }}'
        )

    components = sorted(dict(b.levels_by_component).items())
    table = "{}" if not components else (
        "{\n" + ",\n".join(f"    {enc(k)}: {v!s}" for k, v in components) + "\n  }"
    )
    pairs = [_list_text([label(p, "      "), label(q, "      ")], "    ") for p, q in b.attaching]
    return (
        f'{{\n  "attaching": {_list_text(pairs, "  ")},\n'
        f'  "divisor_strata": {_list_text([label(x, "    ") for x in b.divisor_strata], "  ")},\n'
        f'  "levels_by_component": {table},\n'
        f'  "m": {b.m!s},\n'
        f'  "mode": {enc(b.mode)},\n'
        f'  "pieces": {_list_text([piece(r) for r in b.pieces], "  ")}\n}}\n'
    )
