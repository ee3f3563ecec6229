"""Exact nonzero complex values.

A value is stored multiplicatively: a finitely supported map ``prime ->
rational exponent`` giving the magnitude, together with a rational number of
turns in [0, 1) giving the argument.  The represented number is

    (prod_p p^{e_p}) * exp(2*pi*i*arg)

which is never 0 or infinity.  The group is divisible, so rational powers and
n-th roots stay inside it, and equality is exact structural equality.

Every value is kept in one normal form: ``mag`` sorted by prime with distinct
primes and nonzero ``Fraction`` exponents, ``arg`` a ``Fraction`` in [0, 1).
The public constructor establishes it for outside data (``from_parts``,
``coeff_from_json``).  The group operations rely on it instead: they combine
two normal forms into a third and build the result with ``_normalised``,
without sorting, merging or reducing modulo 1 again.
"""

from __future__ import annotations

import re
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from numbers import Rational
from typing import Iterable, Mapping, Union

from ..jsonfields import _RATIONAL_DIGITS, _json_int_key

RationalLike = Union[int, str, Fraction]


def as_rational(x: RationalLike) -> Fraction:
    """Coerce ints, strings like '3/2', Fractions and other exact rationals to Fraction.

    Anything else, a binary floating-point number among them, raises
    ``ValueError`` naming it: its value is rarely the rational meant.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (Rational, str)):
        return Fraction(x)
    raise ValueError(f"{x!r} is not an integer, a Fraction or a rational string")


# Trial division in _factor stops below this bound.
_TRIAL_BOUND = 1 << 16


def _factor(n: int) -> dict[int, int]:
    """Exact prime factorisation ``{prime: exponent}`` of an integer n >= 1.

    Trial division removes every prime factor below _TRIAL_BOUND = 2**16.  A
    cofactor c > 1 left after it is accepted only when it is provably prime:
    when c < 2**32 (it has no factor below its square root) or when
    c < _MR_BOUND and the deterministic Miller-Rabin test passes.  So every
    n < 2**32 factors, and so does any larger n with at most one prime factor
    of 2**16 or more.  Any other n raises ``ValueError`` naming n and the
    bound: no call makes more than about 2**15 trial divisions.
    """
    factors: dict[int, int] = {}
    m = n
    for d in chain((2,), range(3, _TRIAL_BOUND, 2)):
        if d * d > m:
            break
        while m % d == 0:
            factors[d] = factors.get(d, 0) + 1
            m //= d
    if m > 1:
        if m >= _TRIAL_BOUND * _TRIAL_BOUND and not (m < _MR_BOUND and _is_prime(m)):
            raise ValueError(
                f"cannot factor {n}: trial division below {_TRIAL_BOUND} leaves {m}, "
                "which is not provably prime"
            )
        factors[m] = 1
    return factors


def _norm_mag(items: Iterable[tuple[int, Fraction]]) -> tuple[tuple[int, Fraction], ...]:
    """The normal form of (prime, exponent) pairs; every key must be a prime
    below _MR_BOUND, so that equal values have equal normal forms."""
    acc: dict[int, Fraction] = {}
    for p, e in items:
        if not isinstance(p, int):
            raise ValueError(f"magnitude key {p!r} is not an integer")
        if p >= _MR_BOUND:
            raise ValueError(f"magnitude key {p} is not below {_MR_BOUND}, the bound of the primality check")
        if not _is_prime(p):
            raise ValueError(f"magnitude key {p} is not a prime")
        acc[p] = acc.get(p, Fraction(0)) + as_rational(e)
    return tuple(sorted((p, e) for p, e in acc.items() if e != 0))


def _add_mag(a, b) -> tuple[tuple[int, Fraction], ...]:
    """The normal-form magnitude of the product of two normal-form magnitudes."""
    if not b:
        return a
    if not a:
        return b
    acc = dict(a)
    for p, e in b:
        e = acc[p] + e if p in acc else e
        if e:
            acc[p] = e
        else:
            del acc[p]
    return tuple(sorted(acc.items()))


@dataclass(frozen=True)
class ExactNonzeroComplex:
    """A nonzero complex value with exact multiplicative data."""

    mag: tuple[tuple[int, Fraction], ...] = ()
    arg: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "mag", _norm_mag(self.mag))
        object.__setattr__(self, "arg", as_rational(self.arg) % 1)

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls) -> "ExactNonzeroComplex":
        return cls()

    @classmethod
    def from_rational(cls, q: RationalLike) -> "ExactNonzeroComplex":
        """The value of a nonzero rational q, by factoring its numerator and denominator.

        Both are factored by ``_factor``: exact for every integer below 2**32
        and for any larger one with at most one prime factor of 2**16 or more.
        Raises ``ValueError`` for q = 0 and for a numerator or denominator
        outside that bound.  Values with large primes are built exactly with
        :meth:`from_parts` instead.
        """
        q = as_rational(q)
        if q == 0:
            raise ValueError("0 is not an element of the nonzero multiplicative group")
        arg = Fraction(0) if q > 0 else Fraction(1, 2)
        num, den = abs(q).numerator, abs(q).denominator
        mag = [(p, Fraction(e)) for p, e in _factor(num).items()]
        mag += [(p, Fraction(-e)) for p, e in _factor(den).items()]
        # _factor's keys are primes and num, den are coprime, so the sorted
        # pairs are already in normal form
        return cls._normalised(tuple(sorted(mag)), arg)

    @classmethod
    def _normalised(cls, mag: tuple[tuple[int, Fraction], ...], arg: Fraction) -> "ExactNonzeroComplex":
        """Build a value from data already in normal form, without ``_norm_mag``.

        The group operations, the torsion branches and ``from_rational``
        build every result here.  The caller guarantees the invariant ``__post_init__`` would establish:
        ``mag`` is a tuple of (prime, exponent) pairs sorted by prime, with
        distinct primes and nonzero ``Fraction`` exponents, and ``arg`` is a
        ``Fraction`` in [0, 1).  Data that break it break equality and hashing.
        """
        value = object.__new__(cls)
        object.__setattr__(value, "mag", mag)
        object.__setattr__(value, "arg", arg)
        return value

    @classmethod
    def from_parts(cls, mag: Mapping[int, RationalLike], arg: RationalLike = 0) -> "ExactNonzeroComplex":
        """The value prod_p p^{mag[p]} * exp(2 pi i arg); every key must be a
        prime below _MR_BOUND, or ``ValueError`` names it."""
        return cls(tuple(mag.items()), arg)

    # -- views -------------------------------------------------------------

    @property
    def mag_dict(self) -> dict[int, Fraction]:
        return dict(self.mag)

    def is_one(self) -> bool:
        return not self.mag and self.arg == 0

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.mag)

    # -- group operations ----------------------------------------------------

    def __mul__(self, other: "ExactNonzeroComplex") -> "ExactNonzeroComplex":
        if not isinstance(other, ExactNonzeroComplex):
            return NotImplemented
        arg = self.arg or other.arg
        if self.arg and other.arg:
            arg = self.arg + other.arg
            if arg >= 1:
                arg -= 1
        return ExactNonzeroComplex._normalised(_add_mag(self.mag, other.mag), arg)

    def inverse(self) -> "ExactNonzeroComplex":
        return ExactNonzeroComplex._normalised(
            tuple([(p, -e) for p, e in self.mag]), 1 - self.arg if self.arg else self.arg
        )

    def __truediv__(self, other: "ExactNonzeroComplex") -> "ExactNonzeroComplex":
        return self * other.inverse()

    def pow(self, q: RationalLike) -> "ExactNonzeroComplex":
        """Principal rational power: exponents scale, argument scales mod 1.

        All n-th roots of a value are recovered with :meth:`roots`, not here.
        """
        q = as_rational(q)
        if not q:
            return ONE
        return ExactNonzeroComplex._normalised(
            tuple([(p, e * q) for p, e in self.mag]), self.arg * q % 1
        )

    def roots(self, n: int) -> frozenset["ExactNonzeroComplex"]:
        """All n-th roots; exactly n pairwise distinct values."""
        if n < 1:
            raise ValueError("root order must be >= 1")
        mag = tuple([(p, e / n) for p, e in self.mag])
        # arg < 1 and j <= n - 1, so (arg + j) / n stays in [0, 1)
        return frozenset(
            ExactNonzeroComplex._normalised(mag, (self.arg + j) / n) for j in range(n)
        )

    def __str__(self) -> str:
        if not self.mag:
            mag = "1"
        else:
            mag = "*".join(f"{p}^{e}" if e != 1 else str(p) for p, e in self.mag)
        return f"({mag}, {self.arg} turn)"


ONE = ExactNonzeroComplex.one()


def coeff_to_json(a: ExactNonzeroComplex) -> dict:
    return {
        "primes": {str(p): str(e) for p, e in a.mag},
        "arg": str(a.arg),
    }


# Miller-Rabin with the first 13 prime bases is deterministic below this bound
# (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic primality test; correct for every n < _MR_BOUND."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# A JSON rational's numerator and denominator have at most _RATIONAL_DIGITS
# digits each.
_RATIONAL = re.compile(rf"[+-]?[0-9]{{1,{_RATIONAL_DIGITS}}}(/[0-9]{{1,{_RATIONAL_DIGITS}}})?")


def _json_rational(value, field: str) -> Fraction:
    """A JSON integer (not a bool) or a string ``[+-]?digits(/digits)?``.

    Anything else, exponent and decimal notation included, raises
    ``ValueError`` before any big number is built.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        if abs(value) < 10**_RATIONAL_DIGITS:
            return Fraction(value)
    elif isinstance(value, str) and _RATIONAL.fullmatch(value):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"{field} = {value} has a zero denominator") from None
    raise ValueError(
        f"{field} = {reprlib.repr(value)} is not an integer or a fraction p/q "
        f"of at most {_RATIONAL_DIGITS} digits each"
    )


def coeff_from_json(obj: Mapping) -> ExactNonzeroComplex:
    """Load a coefficient; every magnitude key must be a prime below _MR_BOUND.

    Raises ``ValueError`` for a coefficient or a ``primes`` that is not an
    object, and for a rational with a zero denominator.
    """
    if not isinstance(obj, Mapping):
        raise ValueError(f"a coefficient must be an object, not {type(obj).__name__}")
    primes = obj.get("primes", {})
    if not isinstance(primes, Mapping):
        raise ValueError(f"coefficient primes must be an object, not {type(primes).__name__}")
    mag = {
        _json_int_key(key, "magnitude key"): _json_rational(e, f"coefficient exponent of prime {key}")
        for key, e in primes.items()
    }
    return ExactNonzeroComplex.from_parts(mag, _json_rational(obj.get("arg", "0"), "coefficient arg"))
