"""Built-in inputs: the local models, the two four-dimensional divisors, and
the neck limit configurations transcribed component by component.

Coefficients on the neck fixtures use distinct primes so that products are
multiplicatively independent unless they cancel by construction; directions
frozen at zero or infinity carry formal decorations chosen reciprocal along
each trivial component, which makes every gluing-constant system solvable
with constant one.

Only ``divisor`` is imported with this module.  The map-type builders and
``FixtureEntry.text`` import ``maptype`` and ``exactnum.values`` when they
are called, so ``example`` on a divisor fixture, or on a name not in the
catalog, loads no map-type or exact-arithmetic code: in a fresh interpreter,
loading those modules costs more than printing the fixture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Union

from . import divisor as dv

if TYPE_CHECKING:
    from .exactnum import ExactNonzeroComplex
    from .maptype import ContactRecord, ContactSlot, MapType


def _c(q) -> ExactNonzeroComplex:
    from fractions import Fraction

    from .exactnum.values import ExactNonzeroComplex

    return ExactNonzeroComplex.from_rational(Fraction(q))


def _slot(s, eps, level, coeff=None, formal=False) -> ContactSlot:
    from .maptype import ContactSlot

    return ContactSlot(s=s, eps=eps, level=level, coeff=coeff, formal=formal)


def _rec(stratum, **slots) -> ContactRecord:
    from .maptype import ContactRecord

    return ContactRecord(stratum=stratum, slots=tuple(slots.items()))


def ex4dim_divisor() -> dv.CombinatorialDivisor:
    return dv.simple_crossings(4, ["v1", "v2"], {frozenset({"v1", "v2"}): 1})


def neck3_divisor() -> dv.CombinatorialDivisor:
    return dv.simple_crossings(4, ["l1", "l2"], {frozenset({"l1", "l2"}): 1})


def smooth_level_one() -> MapType:
    """A triple-contact node over a smooth divisor, one rescaling."""
    from .maptype import Component, MapType, Node

    a = _c(2)
    main = Component(
        "main",
        points=(("main@zs", _rec("h1", d1=_slot(3, 1, 0, a))),),
    )
    sphere = Component(
        "cap",
        levels=(("d1", 1),),
        points=(
            ("cap@zs", _rec("h1", d1=_slot(3, -1, 1, a.inverse()))),
            ("cap@mk", _rec("h1", d1=_slot(3, 1, 1, a))),
        ),
    )
    return MapType(
        building_mode="uniform",
        m=1,
        direction_components=(("d1", "h1"),),
        components=(main, sphere),
        nodes=(Node("zs", ("main@zs", "cap@zs")),),
        c1a=3,
        av=3,
        chi=2,
        ell=1,
    )


def neck1a() -> MapType:
    """Level-1 limit over the self-crossing divisor as two marked points collide.

    One nontrivial rescaled component; the other contact point stretches into
    a two-step trivial chain through the neck and the zero divisor.
    """
    from .maptype import Component, MapType, Node

    a11, a21, a12, a22 = _c(2), _c(3), _c(5), _c(7)
    main = Component(
        "main",
        points=(
            ("main@zA", _rec("c,c", d1=_slot(1, 1, 0, a11), d2=_slot(1, 1, 0, a21))),
            ("main@z1", _rec("c,c", d1=_slot(1, 1, 0, a12), d2=_slot(2, 1, 0, a22))),
        ),
    )
    f1 = Component(
        "f1",
        levels=(("d1", 1), ("d2", 1)),
        points=(
            ("f1@zA", _rec("c,c", d1=_slot(1, -1, 1, a11.inverse()), d2=_slot(1, -1, 1, a21.inverse()))),
            ("f1@x0", _rec(None)),
            ("f1@x1", _rec("c,c", d1=_slot(1, 1, 1, a11), d2=_slot(1, 1, 1, a21))),
        ),
    )
    f21 = Component(
        "f21",
        trivial=True,
        levels=(("d1", 1), ("d2", 1)),
        points=(
            ("f21@lo", _rec("c,c", d1=_slot(1, -1, 1, a12.inverse(), formal=True), d2=_slot(2, -1, 1, a22.inverse()))),
            ("f21@hi", _rec("c,c", d1=_slot(1, 1, 1, a12, formal=True), d2=_slot(2, 1, 1, a22))),
        ),
    )
    f22 = Component(
        "f22",
        trivial=True,
        levels=(("d1", 1), ("d2", 1)),
        points=(
            ("f22@lo", _rec("c,c", d1=_slot(1, -1, 1, a12.inverse()), d2=_slot(2, -1, 1, a22.inverse(), formal=True))),
            ("f22@x2", _rec("c,c", d1=_slot(1, 1, 1, a12), d2=_slot(2, 1, 1, a22, formal=True))),
        ),
    )
    return MapType(
        building_mode="uniform",
        m=1,
        direction_components=(("d1", "c"), ("d2", "c")),
        components=(main, f1, f21, f22),
        nodes=(
            Node("zA", ("main@zA", "f1@zA")),
            Node("z1", ("main@z1", "f21@lo")),
            Node("z2", ("f21@hi", "f22@lo")),
        ),
        c1a=5,
        av=5,
        chi=2,
        ell=3,
    )


def neck1b() -> MapType:
    """Level-2 limit over the self-crossing divisor as the marked point
    collides with the (1,2)-contact point; the nontrivial component sits on
    local level (1,2), forcing the two rescaling rates to satisfy b2 = 2*b1."""
    from .maptype import Component, MapType, Node

    a11, a21, a12, a22 = _c(2), _c(3), _c(5), _c(7)
    main = Component(
        "main",
        points=(
            ("main@z1", _rec("c,c", d1=_slot(1, 1, 0, a11), d2=_slot(1, 1, 0, a21))),
            ("main@z3", _rec("c,c", d1=_slot(1, 1, 0, a12), d2=_slot(2, 1, 0, a22))),
        ),
    )
    f11 = Component(
        "f11",
        trivial=True,
        levels=(("d1", 1), ("d2", 1)),
        points=(
            ("f11@lo", _rec("c,c", d1=_slot(1, -1, 1, a11.inverse()), d2=_slot(1, -1, 1, a21.inverse()))),
            ("f11@hi", _rec("c,c", d1=_slot(1, 1, 1, a11), d2=_slot(1, 1, 1, a21))),
        ),
    )
    f12 = Component(
        "f12",
        trivial=True,
        levels=(("d1", 2), ("d2", 2)),
        points=(
            ("f12@lo", _rec("c,c", d1=_slot(1, -1, 2, a11.inverse()), d2=_slot(1, -1, 2, a21.inverse()))),
            ("f12@x1", _rec("c,c", d1=_slot(1, 1, 2, a11), d2=_slot(1, 1, 2, a21))),
        ),
    )
    t1 = Component(
        "t1",
        trivial=True,
        levels=(("d1", 1), ("d2", 1)),
        points=(
            ("t1@lo", _rec("c,c", d1=_slot(1, -1, 1, a12.inverse(), formal=True), d2=_slot(2, -1, 1, a22.inverse()))),
            ("t1@hi", _rec("c,c", d1=_slot(1, 1, 1, a12, formal=True), d2=_slot(2, 1, 1, a22))),
        ),
    )
    bubble = Component(
        "bubble",
        levels=(("d1", 1), ("d2", 2)),
        points=(
            ("bubble@z4", _rec("c,c", d1=_slot(1, -1, 1, a12.inverse()), d2=_slot(2, -1, 2, a22.inverse()))),
            ("bubble@x0", _rec(None)),
            ("bubble@z5", _rec("c,c", d1=_slot(1, 1, 1, a12), d2=_slot(2, 1, 2, a22))),
        ),
    )
    t2 = Component(
        "t2",
        trivial=True,
        levels=(("d1", 2), ("d2", 2)),
        points=(
            ("t2@lo", _rec("c,c", d1=_slot(1, -1, 2, a12.inverse()), d2=_slot(2, -1, 2, a22.inverse(), formal=True))),
            ("t2@x2", _rec("c,c", d1=_slot(1, 1, 2, a12), d2=_slot(2, 1, 2, a22, formal=True))),
        ),
    )
    return MapType(
        building_mode="uniform",
        m=2,
        direction_components=(("d1", "c"), ("d2", "c")),
        components=(main, f11, f12, t1, bubble, t2),
        nodes=(
            Node("z1", ("main@z1", "f11@lo")),
            Node("z2", ("f11@hi", "f12@lo")),
            Node("z3", ("main@z3", "t1@lo")),
            Node("z4", ("t1@hi", "bubble@z4")),
            Node("z5", ("bubble@z5", "t2@lo")),
        ),
        c1a=5,
        av=5,
        chi=2,
        ell=3,
    )


def neck2() -> MapType:
    """The same collision over the two-component divisor, rescaled
    independently in the two directions: a level-(1,1) multibuilding limit."""
    from .maptype import Component, MapType, Node

    a11, a21, a12, a22 = _c(2), _c(3), _c(5), _c(7)
    main = Component(
        "main",
        points=(
            ("main@z0", _rec("v1,v2", d1=_slot(1, 1, 0, a12), d2=_slot(2, 1, 0, a22))),
            ("main@z1", _rec("v1,v2", d1=_slot(1, 1, 0, a11), d2=_slot(1, 1, 0, a21))),
        ),
    )
    bubble = Component(
        "bubble",
        levels=(("d1", 1), ("d2", 1)),
        points=(
            ("bubble@z0", _rec("v1,v2", d1=_slot(1, -1, 1, a12.inverse()), d2=_slot(2, -1, 1, a22.inverse()))),
            ("bubble@x0", _rec(None)),
            ("bubble@x2", _rec("v1,v2", d1=_slot(1, 1, 1, a12), d2=_slot(2, 1, 1, a22))),
        ),
    )
    g1 = Component(
        "g1",
        trivial=True,
        levels=(("d1", 1), ("d2", 1)),
        points=(
            ("g1@lo", _rec("v1,v2", d1=_slot(1, -1, 1, a11.inverse()), d2=_slot(1, -1, 1, a21.inverse(), formal=True))),
            ("g1@hi", _rec("v1,v2", d1=_slot(1, 1, 1, a11), d2=_slot(1, 1, 1, a21, formal=True))),
        ),
    )
    g2 = Component(
        "g2",
        trivial=True,
        levels=(("d1", 1), ("d2", 1)),
        points=(
            ("g2@lo", _rec("v1,v2", d1=_slot(1, -1, 1, a11.inverse(), formal=True), d2=_slot(1, -1, 1, a21.inverse()))),
            ("g2@x1", _rec("v1,v2", d1=_slot(1, 1, 1, a11, formal=True), d2=_slot(1, 1, 1, a21))),
        ),
    )
    return MapType(
        building_mode="multi",
        m=1,
        levels_by_component=(("v1", 1), ("v2", 1)),
        direction_components=(("d1", "v1"), ("d2", "v2")),
        components=(main, bubble, g1, g2),
        nodes=(
            Node("z0", ("main@z0", "bubble@z0")),
            Node("z1", ("main@z1", "g1@lo")),
            Node("z2", ("g1@hi", "g2@lo")),
        ),
        c1a=5,
        av=5,
        chi=2,
        ell=3,
    )


def neck3() -> MapType:
    """A whole conic sinking into the crossing point of two lines: one
    antidiagonal component in the deep piece, chained through the two
    intermediate zero sections to double contact points on each line."""
    from .maptype import Component, MapType, Node

    one = _c(1)
    n = Component(
        "curve",
        levels=(("d1", 1), ("d2", 1)),
        points=(
            ("curve@x", _rec(None)),
            ("curve@n1", _rec("l1,l2", d2=_slot(1, -1, 1, one))),
            ("curve@n2", _rec("l1,l2", d1=_slot(1, -1, 1, one))),
        ),
    )
    t1 = Component(
        "t1",
        trivial=True,
        levels=(("d1", 1), ("d2", 0)),
        points=(
            ("t1@n1", _rec("l1,l2", d2=_slot(1, 1, 0, one))),
            ("t1@m1", _rec("l1", d1=_slot(2, 1, 1, one, formal=True))),
        ),
    )
    t2 = Component(
        "t2",
        trivial=True,
        levels=(("d1", 0), ("d2", 1)),
        points=(
            ("t2@n2", _rec("l1,l2", d1=_slot(1, 1, 0, one))),
            ("t2@m2", _rec("l2", d2=_slot(2, 1, 1, one, formal=True))),
        ),
    )
    return MapType(
        building_mode="uniform",
        m=1,
        direction_components=(("d1", "l1"), ("d2", "l2")),
        components=(n, t1, t2),
        nodes=(
            Node("n1", ("curve@n1", "t1@n1")),
            Node("n2", ("curve@n2", "t2@n2")),
        ),
        c1a=6,
        av=4,
        chi=2,
        ell=3,
    )


@dataclass(frozen=True)
class FixtureEntry:
    name: str
    kind: str  # "divisor" | "maptype"
    description: str
    build: Callable[[], Union[dv.CombinatorialDivisor, MapType]]

    def text(self) -> str:
        obj = self.build()
        if self.kind == "divisor":
            return dv.dumps(obj)
        from . import maptype as mp

        return mp.dumps(obj)


CATALOG: dict[str, FixtureEntry] = {
    e.name: e
    for e in [
        FixtureEntry("ex0-n2", "divisor", "two coordinate hyperplanes", lambda: dv.local_model(2)),
        FixtureEntry("ex0-n3", "divisor", "three coordinate hyperplanes", lambda: dv.local_model(3)),
        FixtureEntry("ex0-n4", "divisor", "four coordinate hyperplanes", lambda: dv.local_model(4)),
        FixtureEntry("ex4dim", "divisor", "two surfaces meeting at a point", ex4dim_divisor),
        FixtureEntry("ex4dim-b", "divisor", "one surface self-crossing at a point", dv.self_crossing_curve),
        FixtureEntry("rescaled-disk-m", "divisor", "the disk model of a smooth divisor", lambda: dv.local_model(1)),
        FixtureEntry("neck1a", "maptype", "level-1 collision limit, self-crossing divisor", neck1a),
        FixtureEntry("neck1b", "maptype", "level-2 collision limit, self-crossing divisor", neck1b),
        FixtureEntry("neck2", "maptype", "multibuilding collision limit, two components", neck2),
        FixtureEntry("neck3", "maptype", "conic sinking into the crossing of two lines", neck3),
    ]
}


def divisor_for(mt_name: str) -> dv.CombinatorialDivisor:
    """The divisor underlying a map-type fixture."""
    table = {
        "neck1a": dv.self_crossing_curve,
        "neck1b": dv.self_crossing_curve,
        "neck2": ex4dim_divisor,
        "neck3": neck3_divisor,
    }
    return table[mt_name]()
