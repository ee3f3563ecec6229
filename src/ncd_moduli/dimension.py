"""Expected-dimension calculus.

The moduli dimension depends only on the pairing numbers; the naive matching
locus at depth-k points falls short by 2*(1-k) per point, and the enhanced
conditions cut exactly 2k-2 more, so the two always balance.  Stratum
codimension is twice the number of independent rescaling parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .maptype import MapType


@dataclass(frozen=True)
class DimensionInput:
    c1a: int
    dim_x: int
    chi: int
    ell: int
    av: int

    def __post_init__(self):
        if self.dim_x < 2 or self.dim_x % 2:
            raise ValueError("dimX must be even and at least 2")
        if self.ell < 0:
            raise ValueError("ell must be nonnegative")


def expected_dim(inp: DimensionInput) -> int:
    """2*c1(TX).A + (dimX - 6)*chi/2 + 2*ell - 2*A.V, always an integer."""
    half, rem = divmod((inp.dim_x - 6) * inp.chi, 2)
    if rem:
        raise ArithmeticError("non-integral dimension term")
    return 2 * inp.c1a + half + 2 * inp.ell - 2 * inp.av


def naive_gap(depths: Sequence[int]) -> int:
    """Dimension excess of the naive matching locus: 2 * sum(1 - k)."""
    if any(k < 1 for k in depths):
        raise ValueError("node depths must be at least 1")
    return 2 * sum(1 - k for k in depths)


def enhanced_balance(depths: Sequence[int]) -> int:
    """naive_gap plus the 2k-2 cut of each enhanced condition; always 0."""
    return naive_gap(depths) + sum(2 * k - 2 for k in depths)


def stratum_codim(mt: MapType) -> int:
    """Real codimension of the stratum: twice the rescaling-torus dimension."""
    from .levelsys import build_system, torus_dim

    return 2 * torus_dim(build_system(mt))
