"""Exact nonzero complex values.

A value is the number

    (prod_p p^{e_p}) * exp(2*pi*i*theta)

over finitely many primes p, with rational exponents e_p and a rational
argument theta in turns; it is never 0 or infinity.  The group is divisible,
so rational powers and n-th roots stay inside it.

A value is held as its logarithm in Q^P x Q/Z over one common denominator:
the private tuple ``(D, primes, exps, argnum)`` stands for e_p = exps[i] / D
at p = primes[i] and theta = argnum / D.  In the normal form D >= 1 is the
least common denominator of the exponents and the argument (the gcd of D, the
exps and argnum is 1), ``primes`` is sorted with no repeats, every exponent
numerator is a nonzero int and 0 <= argnum < D.  Equal numbers have equal
tuples, so ``==`` and ``hash`` read the tuple.

The group operations are integer arithmetic on the tuple: a product rescales
both operands to the lcm of their denominators and adds, an inverse negates,
``pow`` and ``roots`` scale D.  One gcd brings D back to the least, and it
runs only when D > 1.  No ``Fraction`` is built.  The public constructors
(``ExactNonzeroComplex(mag, arg)``, ``from_parts``, ``from_rational``,
``coeff_from_json``) establish the normal form for outside data.  ``mag`` and
``arg`` are read-only views, built when read: ``mag`` the (prime, exponent)
pairs sorted by prime with nonzero ``Fraction`` exponents, ``arg`` a
``Fraction`` in [0, 1).
"""

from __future__ import annotations

import re
import reprlib
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from numbers import Rational
from operator import add
from typing import Iterable, Mapping, Union

from ..jsonfields import _RATIONAL_DIGITS, _json_int_key

RationalLike = Union[int, str, Fraction]

# (D, primes, exps, argnum); see the module docstring
_Log = tuple[int, tuple[int, ...], tuple[int, ...], int]


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


def _log_of(items: Iterable[tuple[int, RationalLike]], arg: RationalLike) -> _Log:
    """The normal form of (prime, exponent) pairs and an argument; every key
    must be a prime below _MR_BOUND, so that equal values have equal normal
    forms.  Repeated primes add."""
    acc: dict[int, Fraction] = {}
    for p, e in items:
        if not isinstance(p, int):
            raise ValueError(f"magnitude key {p!r} is not an integer")
        if p >= _MR_BOUND:
            raise ValueError(f"magnitude key {p} is not below {_MR_BOUND}, the bound of the primality check")
        if not _is_prime(p):
            raise ValueError(f"magnitude key {p} is not a prime")
        e = as_rational(e)
        acc[p] = acc[p] + e if p in acc else e
    arg = as_rational(arg)
    mag = sorted([pe for pe in acc.items() if pe[1]])
    # the lcm of the reduced denominators is the least common denominator
    D = lcm(arg.denominator, *[e.denominator for _, e in mag])
    return (
        D,
        tuple([p for p, _ in mag]),
        tuple([e.numerator * (D // e.denominator) for _, e in mag]),
        arg.numerator * (D // arg.denominator) % D,
    )


def _ratio_text(n: int, d: int) -> str:
    """``str(Fraction(n, d))`` for d >= 1, without building the Fraction."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


class ExactNonzeroComplex:
    """A nonzero complex value with exact multiplicative data."""

    __slots__ = ("_log",)
    __match_args__ = ("mag", "arg")

    def __init__(self, mag: Iterable[tuple[int, RationalLike]] = (), arg: RationalLike = 0):
        _set_log(self, _log_of(mag, arg))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _from_log, (self._log,)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._log == other._log
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._log)

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls) -> "ExactNonzeroComplex":
        return _from_log((1, (), (), 0))

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
        num, den = q.numerator, q.denominator
        if num == 0:
            raise ValueError("0 is not an element of the nonzero multiplicative group")
        # num and den are coprime, so their primes are distinct; a negative q
        # has argument 1/2, which doubles every exponent numerator
        D = 2 if num < 0 else 1
        mag = sorted([*_factor(abs(num)).items(), *[(p, -e) for p, e in _factor(den).items()]])
        return _from_log((D, tuple([p for p, _ in mag]), tuple([e * D for _, e in mag]), D - 1))

    @classmethod
    def from_parts(cls, mag: Mapping[int, RationalLike], arg: RationalLike = 0) -> "ExactNonzeroComplex":
        """The value prod_p p^{mag[p]} * exp(2 pi i arg); every key must be a
        prime below _MR_BOUND, or ``ValueError`` names it."""
        return _from_log(_log_of(mag.items(), arg))

    # -- views -------------------------------------------------------------

    @property
    def mag(self) -> tuple[tuple[int, Fraction], ...]:
        D, primes, exps, _ = self._log
        return tuple([(p, Fraction(e, D)) for p, e in zip(primes, exps)])

    @property
    def arg(self) -> Fraction:
        return Fraction(self._log[3], self._log[0])

    @property
    def mag_dict(self) -> dict[int, Fraction]:
        return dict(self.mag)

    def is_one(self) -> bool:
        # D = 1 forces argnum = 0
        return self._log[0] == 1 and not self._log[1]

    def primes(self) -> tuple[int, ...]:
        return self._log[1]

    # -- group operations ----------------------------------------------------

    def __mul__(self, other: "ExactNonzeroComplex") -> "ExactNonzeroComplex":
        if not isinstance(other, ExactNonzeroComplex):
            return NotImplemented
        D, primes, exps, a = _log_sum(self._log, other._log)
        if D == 1:
            return _from_log((1, primes, exps, 0))
        return _reduced(D, primes, exps, a)

    def inverse(self) -> "ExactNonzeroComplex":
        D, primes, exps, a = self._log
        return _from_log((D, primes, tuple([-e for e in exps]), D - a if a else 0))

    def __truediv__(self, other: "ExactNonzeroComplex") -> "ExactNonzeroComplex":
        return self * other.inverse()

    def pow(self, q: RationalLike) -> "ExactNonzeroComplex":
        """Principal rational power: exponents scale, argument scales mod 1.

        All n-th roots of a value are recovered with :meth:`roots`, not here.
        """
        if isinstance(q, int):
            num, den = q, 1
        else:
            q = as_rational(q)
            num, den = q.numerator, q.denominator
        if not num:
            return ONE
        D, primes, exps, a = self._log
        D *= den
        exps = tuple([e * num for e in exps])
        if D == 1:
            return _from_log((1, primes, exps, 0))
        return _reduced(D, primes, exps, a * num % D)

    def roots(self, n: int) -> frozenset["ExactNonzeroComplex"]:
        """All n-th roots; exactly n pairwise distinct values."""
        if n < 1:
            raise ValueError("root order must be >= 1")
        D, primes, exps, a = self._log
        # the j-th root has exponents exps / (D n) and argument (a + j D) / (D n),
        # which stays below 1 since a < D and j <= n - 1
        return frozenset(_reduced(D * n, primes, exps, a + j * D) for j in range(n))

    def __str__(self) -> str:
        D, primes, exps, a = self._log
        mag = "*".join([str(p) if e == D else f"{p}^{_ratio_text(e, D)}" for p, e in zip(primes, exps)])
        return f"({mag or 1}, {_ratio_text(a, D)} turn)"

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(mag={self.mag!r}, arg={self.arg!r})"


_new = object.__new__
_set_log = ExactNonzeroComplex._log.__set__


def _from_log(log: _Log) -> ExactNonzeroComplex:
    """Build a value from its log tuple, which must already be in normal form.

    The group operations, the torsion branches and ``from_rational`` build
    every result here.  Data that break the normal form break equality and
    hashing.
    """
    value = _new(ExactNonzeroComplex)
    _set_log(value, log)
    return value


def _log_sum(x: _Log, y: _Log) -> _Log:
    """The log of the product of the values with logs x and y, over the lcm
    of their denominators and not reduced: sorted primes with nonzero exps,
    0 <= argnum < D."""
    d1, p1, e1, a1 = x
    d2, p2, e2, a2 = y
    D = d1
    if d1 != d2:
        D = lcm(d1, d2)
        if D != d1:
            f = D // d1
            e1, a1 = [e * f for e in e1], a1 * f
        if D != d2:
            f = D // d2
            e2, a2 = [e * f for e in e2], a2 * f
    if not p2:
        primes, exps = p1, tuple(e1)
    elif not p1:
        primes, exps = p2, tuple(e2)
    elif p1 == p2:
        primes, exps = p1, tuple(map(add, e1, e2))
        if 0 in exps:
            primes = tuple([p for p, e in zip(p1, exps) if e])
            exps = tuple([e for e in exps if e])
    else:
        acc = dict(zip(p1, e1))
        for p, e in zip(p2, e2):
            e += acc.get(p, 0)
            if e:
                acc[p] = e
            else:
                del acc[p]
        primes = tuple(sorted(acc))
        exps = tuple([acc[p] for p in primes])
    a = a1 + a2
    return D, primes, exps, a - D if a >= D else a


def _reduced(D: int, primes: tuple[int, ...], exps: tuple[int, ...], a: int) -> ExactNonzeroComplex:
    """The value with log (D, primes, exps, a), for sorted distinct primes,
    nonzero exps and 0 <= a < D, brought to the least denominator by one gcd."""
    g = gcd(D, a, *exps)
    if g == 1:
        return _from_log((D, primes, exps, a))
    return _from_log((D // g, primes, tuple([e // g for e in exps]), a // g))


ONE = ExactNonzeroComplex.one()


def coeff_to_json(a: ExactNonzeroComplex) -> dict:
    D, primes, exps, num = a._log
    return {
        "primes": {str(p): _ratio_text(e, D) for p, e in zip(primes, exps)},
        "arg": _ratio_text(num, D),
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
