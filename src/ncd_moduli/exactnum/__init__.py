"""Exact arithmetic foundations: rationals, the multiplicative group of exact
nonzero complex values, rational linear algebra, strict-positive cone
feasibility, and integer lattice normal form."""

from fractions import Fraction as Rational

from .lattice import IntegerMatrix, elementary_divisors, smith_normal_form
from .linalg import (
    RationalMatrix,
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
    "Rational",
    "ExactNonzeroComplex",
    "ONE",
    "as_rational",
    "coeff_to_json",
    "coeff_from_json",
    "RationalMatrix",
    "IntegerMatrix",
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
