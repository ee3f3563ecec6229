"""Exact arithmetic foundations: the multiplicative group of exact nonzero
complex values, rational linear algebra, strict-positive cone feasibility,
and integer lattice normal form.

A matrix is a plain sequence of equal-length rows; rows of unequal length
raise ``ValueError``.  The linear algebra reads ints and ``Fraction`` values;
the Smith form and the power systems read integers.  Any other entry, a
float or a string among them, raises ``ValueError`` naming it.
``smith_normal_form`` returns U, D and V as tuples of int row tuples.
"""

from .lattice import elementary_divisors, smith_normal_form
from .linalg import (
    rank,
    rational_nullspace,
    rref,
    solve_linear,
    strict_positive_solution,
)
from .powersys import PowerSystemSolution, solve_power_system, verify_solution
from .values import (
    ONE,
    ExactNonzeroComplex,
    as_rational,
    coeff_from_json,
    coeff_to_json,
)

__all__ = [
    "ExactNonzeroComplex",
    "ONE",
    "as_rational",
    "coeff_to_json",
    "coeff_from_json",
    "rref",
    "rank",
    "solve_linear",
    "rational_nullspace",
    "strict_positive_solution",
    "smith_normal_form",
    "elementary_divisors",
    "PowerSystemSolution",
    "solve_power_system",
    "verify_solution",
]
