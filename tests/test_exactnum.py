import contextlib
import copy
import itertools
import json
import math
import pickle
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncd_moduli.exactnum import (
    ONE,
    ExactNonzeroComplex,
    coeff_from_json,
    coeff_to_json,
    rank,
    rational_nullspace,
    rref,
    smith_normal_form,
    solve_linear,
    solve_power_system,
    strict_positive_solution,
    verify_solution,
)
from ncd_moduli import fixtures
from ncd_moduli import levelsys as ls
from ncd_moduli import maptype as mp
from ncd_moduli.exactnum import powersys
from ncd_moduli.maptype import wproj_equal
from oracle_helpers import (
    arg_grid_solutions,
    fourier_motzkin_feasible,
    lcm,
    power_system_oracle_consistent,
    random_value,
    reference_factor,
    reference_nullspace,
    reference_power_branches,
    reference_rref,
    reference_solve_linear,
    reference_strict_positive_solution,
    ref_inverse,
    ref_json,
    ref_mul,
    ref_pow,
    ref_repr,
    ref_roots,
    ref_str,
    ref_value,
)
from ncd_moduli.exactnum.values import _MR_BOUND, _factor, _from_log, _is_prime

frac = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
exact_values = st.builds(
    lambda e2, e3, a: ExactNonzeroComplex.from_parts({2: e2, 3: e3}, a),
    frac,
    frac,
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
)


rational_entries = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-4, 4)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
)


@st.composite
def rational_matrices(draw, max_rows=6, max_cols=8):
    """Rational matrices with some all-zero rows and columns; half of them
    have the all-ones vector in their kernel, so both answers of the cone
    test come up."""
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    rows = [[draw(rational_entries) for _ in range(n)] for _ in range(m)]
    for i in draw(st.sets(st.integers(0, m - 1), max_size=2)):
        rows[i] = [Fraction(0)] * n
    for j in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        for row in rows:
            row[j] = Fraction(0)
    if draw(st.booleans()):
        for row in rows:
            row[-1] -= sum(row)
    return rows


@st.composite
def block_angular_matrices(draw):
    """The shape of a level system: 1-6 blocks, each of 1-4 rows over 1-4
    columns of its own, all sharing 1-2 trailing columns; entries in [-3, 3],
    some of them Fractions, and some rows zero.  Half of them have the
    all-ones vector in their kernel, set through the last shared column."""
    shared = draw(st.integers(1, 2))
    blocks = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=6))
    n = sum(width for _, width in blocks) + shared
    entry = st.one_of(
        st.integers(-3, 3),
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
    )
    rows = []
    start = 0
    for height, width in blocks:
        for _ in range(height):
            row = [0] * n
            if draw(st.integers(0, 5)):
                for j in [*range(start, start + width), *range(n - shared, n)]:
                    row[j] = draw(entry)
            rows.append(row)
        start += width
    if draw(st.booleans()):
        for row in rows:
            row[-1] -= sum(row)
    return rows


@st.composite
def two_term_block_matrices(draw):
    """Block-angular matrices rich in two-term rows, the rows the LP's
    presolve substitutes out: 1-5 blocks of 1-3 columns of their own share
    1-3 trailing columns.  A row is two terms of opposite or equal signs,
    within a block and its shared columns or between two shared columns
    (so substitutions chain through them), or a longer row of mixed signs
    over its block and the shared columns.  Half of them have the all-ones
    vector in their kernel, set through the last shared column."""
    n_shared = draw(st.integers(1, 3))
    widths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    n = sum(widths) + n_shared
    shared = list(range(n - n_shared, n))
    rows = []
    start = 0
    for width in widths:
        block = list(range(start, start + width))
        start += width
        for _ in range(draw(st.integers(1, 4))):
            row = [0] * n
            kind = draw(st.sampled_from(["pair", "pair", "chain", "long", "long"]))
            if kind == "long":
                for j in block + shared:
                    row[j] = draw(st.integers(-3, 3))
                # of mixed signs, so that it reaches the simplex
                row[block[0]] = draw(st.integers(1, 3))
                row[draw(st.sampled_from(shared))] = draw(st.integers(-3, -1))
            else:
                pool = shared if kind == "chain" and len(shared) > 1 else block + shared
                j, k = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=2, unique=True))
                row[j] = draw(st.integers(1, 4))
                # one pair in eight has equal signs
                row[k] = (1 if draw(st.integers(0, 7)) == 0 else -1) * draw(st.integers(1, 4))
            rows.append(row)
    if draw(st.booleans()):
        for row in rows:
            row[-1] -= sum(row)
    return rows


def assert_positive_matches_reference(rows) -> bool:
    """strict_positive_solution(rows) is None exactly when the Fraction
    reference is, and is otherwise an exact solution with every coordinate
    positive; returns whether one exists."""
    v = strict_positive_solution(rows)
    assert (v is None) == (reference_strict_positive_solution(rows) is None)
    if v is not None:
        assert len(v) == len(rows[0]) and all(x > 0 for x in v)
        for row in rows:
            assert sum(Fraction(a) * x for a, x in zip(row, v)) == 0
    return v is not None


@st.composite
def power_systems(draw):
    """Systems up to 3 x 3 with entries in [-4, 4]; half of them consistent
    by construction (the values are the powers of a drawn solution)."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    M = [[draw(st.integers(-4, 4)) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):
        mu = [draw(exact_values) for _ in range(n)]
        values = []
        for row in M:
            acc = ONE
            for e, x in zip(row, mu):
                acc = acc * x.pow(e)
            values.append(acc)
    else:
        values = [draw(exact_values) for _ in range(m)]
    return M, values


@st.composite
def column_systems(draw):
    """One-unknown systems mu^{s_k} = values[k], up to 6 x 1, with s_k in
    [-12, 12] and zeros among them, argument denominators up to 24, and
    values with no magnitude among them.  The values are the powers of a
    drawn mu, or drawn freely, or the powers of a drawn mu with one of them
    redrawn, so the violated equation can be any."""
    m = draw(st.integers(1, 6))
    s = draw(st.lists(st.one_of(st.just(0), st.integers(-12, 12)), min_size=m, max_size=m))
    value = st.builds(
        ExactNonzeroComplex.from_parts,
        st.dictionaries(st.sampled_from([2, 3]), frac, max_size=2),
        st.builds(Fraction, st.integers(-24, 24), st.integers(1, 24)),
    )
    kind = draw(st.sampled_from(["powers", "free", "one-redrawn"]))
    if kind == "free":
        values = [draw(value) for _ in s]
    else:
        mu = draw(value)
        values = [mu.pow(x) for x in s]
        if kind == "one-redrawn":
            values[draw(st.integers(0, m - 1))] = draw(value)
    return [[x] for x in s], values


class TestValues:
    def test_inverse_pair(self):
        a = ExactNonzeroComplex.from_rational(2)
        b = ExactNonzeroComplex.from_rational(Fraction(1, 2))
        assert a * b == ONE

    def test_square_of_sqrt2_quarter_turn(self):
        a = ExactNonzeroComplex.from_parts({2: Fraction(1, 2)}, Fraction(1, 4))
        sq = a * a
        assert sq == ExactNonzeroComplex.from_parts({2: 1}, Fraction(1, 2))

    def test_identity(self):
        a = ExactNonzeroComplex.from_parts({3: 1}, Fraction(1, 3))
        assert a * ONE == a

    def test_negative_rational(self):
        a = ExactNonzeroComplex.from_rational(-6)
        assert a.mag_dict == {2: 1, 3: 1}
        assert a.arg == Fraction(1, 2)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ExactNonzeroComplex.from_rational(0)

    @given(exact_values, exact_values, exact_values)
    def test_group_laws(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * a.inverse() == ONE

    @given(exact_values)
    def test_pow_one_and_inverse(self, a):
        assert a.pow(1) == a
        assert a.pow(-1) == a.inverse()

    def test_pow_examples(self):
        four = ExactNonzeroComplex.from_rational(4)
        assert four.pow(Fraction(1, 2)) == ExactNonzeroComplex.from_rational(2)
        minus_one = ExactNonzeroComplex.from_parts({}, Fraction(1, 2))
        assert minus_one.pow(2) == ONE
        v = ExactNonzeroComplex.from_parts({2: 3}, Fraction(1, 2))
        assert v.pow(Fraction(1, 3)) == ExactNonzeroComplex.from_parts(
            {2: 1}, Fraction(1, 6)
        )

    def test_roots_examples(self):
        assert ONE.roots(2) == {
            ONE,
            ExactNonzeroComplex.from_parts({}, Fraction(1, 2)),
        }
        four = ExactNonzeroComplex.from_rational(4)
        assert four.roots(2) == {
            ExactNonzeroComplex.from_rational(2),
            ExactNonzeroComplex.from_rational(-2),
        }
        i_like = ExactNonzeroComplex.from_parts({}, Fraction(1, 2))
        assert i_like.roots(2) == {
            ExactNonzeroComplex.from_parts({}, Fraction(1, 4)),
            ExactNonzeroComplex.from_parts({}, Fraction(3, 4)),
        }

    @given(exact_values, st.integers(min_value=1, max_value=6))
    @settings(max_examples=200)
    def test_roots_are_roots_and_distinct(self, a, n):
        rs = a.roots(n)
        assert len(rs) == n
        for r in rs:
            assert r.pow(n) == a

    @given(
        st.dictionaries(st.sampled_from((2, 3, 5, 7)), frac.filter(bool)),
        st.builds(Fraction, st.integers(0, 11), st.just(12)),
    )
    def test_normalised_constructor_matches_from_parts(self, mag, arg):
        # the log tuple over the least common denominator, built by hand
        D = lcm(arg.denominator, *[e.denominator for e in mag.values()])
        primes = tuple(sorted(mag))
        exps = tuple(mag[p].numerator * (D // mag[p].denominator) for p in primes)
        a = _from_log((D, primes, exps, arg.numerator * (D // arg.denominator)))
        b = ExactNonzeroComplex.from_parts(mag, arg)
        assert a == b and hash(a) == hash(b) and str(a) == str(b)


# Exponents from a small set over a few primes, so products often cancel;
# arguments k/12, so sums and differences often cross 1 or 0.
small_values = st.builds(
    ExactNonzeroComplex.from_parts,
    st.dictionaries(
        st.sampled_from((2, 3, 5)),
        st.sampled_from([Fraction(k, d) for k in (-2, -1, 1, 2) for d in (1, 2)]),
    ),
    st.builds(Fraction, st.integers(0, 11), st.just(12)),
)


@st.composite
def value_pairs(draw):
    """(a, b), where b often holds the negatives of some of a's exponents."""
    a, b = draw(small_values), draw(small_values)
    cancel = draw(st.sets(st.sampled_from(a.primes()))) if a.mag and draw(st.booleans()) else ()
    if cancel:
        b = ExactNonzeroComplex.from_parts(
            {**b.mag_dict, **{p: -e for p, e in a.mag if p in cancel}}, b.arg
        )
    return a, b


def _negated(mag):
    return tuple((p, -e) for p, e in mag)


class TestValueArithmetic:
    """The group operations build their results in normal form directly; the
    normalising constructor, given the raw data, is the reference."""

    @staticmethod
    def assert_reference(got, raw_mag, raw_arg):
        want = ExactNonzeroComplex(tuple(raw_mag), raw_arg)
        assert got == want and hash(got) == hash(want)
        assert all(type(e) is Fraction for _, e in got.mag) and type(got.arg) is Fraction

    @given(value_pairs())
    @settings(max_examples=300)
    def test_mul_and_div(self, pair):
        a, b = pair
        self.assert_reference(a * b, a.mag + b.mag, a.arg + b.arg)
        self.assert_reference(a / b, a.mag + _negated(b.mag), a.arg - b.arg)

    @given(small_values)
    def test_inverse(self, a):
        self.assert_reference(a.inverse(), _negated(a.mag), -a.arg)
        self.assert_reference(a * a.inverse(), (), 0)

    @given(small_values, st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))
    def test_pow(self, a, q):
        self.assert_reference(a.pow(q), tuple((p, e * q) for p, e in a.mag), a.arg * q)

    @given(small_values, st.integers(1, 5))
    def test_roots(self, a, n):
        want = {ExactNonzeroComplex(tuple((p, e / n) for p, e in a.mag), (a.arg + j) / n) for j in range(n)}
        assert a.roots(n) == want


# Exponent denominators 1..12 and arguments k/12 over small primes and large
# ones up to the largest prime below _MR_BOUND.
LARGE_PRIMES = (65537, 4294967291, 2**61 - 1, 3317044064679887385961813)
assert LARGE_PRIMES[-1] < _MR_BOUND and _is_prime(LARGE_PRIMES[-1])
ref_exponents = st.builds(Fraction, st.integers(-12, 12).filter(bool), st.integers(1, 12))
ref_mags = st.dictionaries(st.sampled_from((2, 3, 5, 7, *LARGE_PRIMES)), ref_exponents, max_size=4)
ref_args = st.builds(Fraction, st.integers(0, 11), st.just(12))


@st.composite
def ref_operands(draw):
    """(a, b) with their reference pairs; b often cancels some of a's primes."""
    mag_a, mag_b = draw(ref_mags), draw(ref_mags)
    if mag_a and draw(st.booleans()):
        mag_b.update({p: -e for p, e in mag_a.items() if draw(st.booleans())})
    arg_a, arg_b = draw(ref_args), draw(ref_args)
    a = ExactNonzeroComplex.from_parts(mag_a, arg_a)
    b = ExactNonzeroComplex.from_parts(mag_b, arg_b)
    return a, b, ref_value(mag_a, arg_a), ref_value(mag_b, arg_b)


def assert_matches_reference(got, ref):
    """got is the reference value in every public view."""
    want = ExactNonzeroComplex(*ref)
    assert got == want and hash(got) == hash(want)
    assert got.mag == ref[0] and got.arg == ref[1]
    assert [type(p) for p, _ in got.mag] == [int] * len(ref[0])
    assert all(type(e) is Fraction for _, e in got.mag) and type(got.arg) is Fraction
    assert str(got) == ref_str(ref)
    assert repr(got) == ref_repr(ref)
    assert coeff_to_json(got) == ref_json(ref)


class TestValueReference:
    """The integer log arithmetic against the Fraction normal-form arithmetic
    it replaced (``oracle_helpers.ref_*``)."""

    @given(ref_operands())
    @settings(max_examples=300)
    def test_mul_and_div(self, operands):
        a, b, ra, rb = operands
        assert_matches_reference(a, ra)
        assert_matches_reference(a * b, ref_mul(ra, rb))
        assert_matches_reference(a / b, ref_mul(ra, ref_inverse(rb)))

    @given(ref_operands())
    def test_inverse(self, operands):
        a, _, ra, _ = operands
        assert_matches_reference(a.inverse(), ref_inverse(ra))
        assert_matches_reference(a * a.inverse(), ((), Fraction(0)))

    @given(ref_operands(), st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)))
    def test_pow(self, operands, q):
        a, _, ra, _ = operands
        assert_matches_reference(a.pow(q), ref_pow(ra, q))
        if q.denominator == 1:
            assert_matches_reference(a.pow(int(q)), ref_pow(ra, q))

    @given(ref_operands(), st.integers(1, 12))
    def test_roots(self, operands, n):
        a, _, ra, _ = operands
        got = {(r.mag, r.arg): r for r in a.roots(n)}
        assert set(got) == ref_roots(ra, n)
        for ref, r in got.items():
            assert_matches_reference(r, ref)

    @given(st.integers(-720, 720).filter(bool), st.integers(1, 720), st.integers(1, 12))
    def test_one_number_one_value(self, a, b, k):
        q = Fraction(a, b)
        direct = ExactNonzeroComplex.from_rational(q)
        up, down = reference_factor(abs(q.numerator)), reference_factor(q.denominator)
        unreduced = {p: f"{e * k}/{k}" for p, e in up.items()}
        unreduced.update({p: f"{-e * k}/{k}" for p, e in down.items()})
        parts = ExactNonzeroComplex.from_parts(unreduced, f"{k if q < 0 else 0}/{2 * k}")
        chain = ExactNonzeroComplex.from_parts({}, Fraction(1, 2)) if q < 0 else ONE
        for p, e in up.items():
            chain = chain * ExactNonzeroComplex.from_parts({p: Fraction(e, k)}).pow(k)
        for p, e in down.items():
            chain = chain / ExactNonzeroComplex.from_rational(p**e)
        assert direct == parts == chain
        assert len({hash(direct), hash(parts), hash(chain)}) == 1
        assert str(direct) == str(parts) == str(chain)


class TestValueContract:
    """What a value promises outside its arithmetic: copies, immutability and
    its repr text."""

    SAMPLES = {
        "sqrt2-third-turn": (
            lambda: ExactNonzeroComplex.from_parts({2: Fraction(1, 2)}, Fraction(1, 3)),
            "ExactNonzeroComplex(mag=((2, Fraction(1, 2)),), arg=Fraction(1, 3))",
        ),
        "minus-12/35": (
            lambda: ExactNonzeroComplex.from_rational(Fraction(-12, 35)),
            "ExactNonzeroComplex(mag=((2, Fraction(2, 1)), (3, Fraction(1, 1)), (5, Fraction(-1, 1)), "
            "(7, Fraction(-1, 1))), arg=Fraction(1, 2))",
        ),
        "mixed": (
            lambda: ExactNonzeroComplex.from_parts({3: -2, 7: Fraction(5, 6)}, Fraction(7, 12)),
            "ExactNonzeroComplex(mag=((3, Fraction(-2, 1)), (7, Fraction(5, 6))), arg=Fraction(7, 12))",
        ),
    }

    @pytest.mark.parametrize("name", sorted(SAMPLES))
    def test_repr_text(self, name):
        build, text = self.SAMPLES[name]
        assert repr(build()) == text

    @pytest.mark.parametrize("route", ["copy", "deepcopy", "pickle"])
    @pytest.mark.parametrize("name", sorted(SAMPLES))
    def test_copies_are_equal_values(self, name, route):
        value = self.SAMPLES[name][0]()
        copied = {
            "copy": copy.copy,
            "deepcopy": copy.deepcopy,
            "pickle": lambda v: pickle.loads(pickle.dumps(v)),
        }[route](value)
        assert type(copied) is ExactNonzeroComplex
        assert copied == value and hash(copied) == hash(value)
        assert str(copied) == str(value) and repr(copied) == repr(value)
        assert copied * value.inverse() == ONE

    @pytest.mark.parametrize("field", ["mag", "arg", "other"])
    def test_assignment_raises(self, field):
        value = self.SAMPLES["mixed"][0]()
        with pytest.raises(AttributeError):
            setattr(value, field, ONE)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert repr(value) == self.SAMPLES["mixed"][1]


@contextlib.contextmanager
def fraction_counter():
    """Counts the Fractions built inside the block: calls to
    ``Fraction.__new__``, and to ``Fraction._from_coprime_ints`` where the
    running Python has it."""
    count = [0]
    saved = {name: Fraction.__dict__[name] for name in ("__new__", "_from_coprime_ints") if name in Fraction.__dict__}
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    Fraction.__new__ = counting_new
    if "_from_coprime_ints" in saved:
        coprime = Fraction._from_coprime_ints.__func__

        def counting_coprime(cls, *args):
            count[0] += 1
            return coprime(cls, *args)

        Fraction._from_coprime_ints = classmethod(counting_coprime)
    try:
        yield count
    finally:
        for name, raw in saved.items():
            setattr(Fraction, name, raw)


class TestIntegerArithmeticOnly:
    """Enhanced matching, gluing and the power solvers work on the integer log
    tuples: they build no Fraction and read neither the ``mag`` nor the
    ``arg`` view."""

    @staticmethod
    def spy_views(monkeypatch) -> list[str]:
        """Record every read of the ``mag`` and ``arg`` views from now on."""
        reads = []
        for name in ("mag", "arg"):
            view = getattr(ExactNonzeroComplex, name)

            def read(self, name=name, view=view):
                reads.append(name)
                return view.fget(self)

            monkeypatch.setattr(ExactNonzeroComplex, name, property(read))
        return reads

    @staticmethod
    def calls():
        neck2, neck1b = fixtures.neck2(), fixtures.neck1b()
        path = Path(__file__).parent / "data" / "glue-mult6.json"
        gp = ls.gluing_from_dict(json.loads(path.read_text(encoding="utf-8")))
        values = [ExactNonzeroComplex.from_parts({2: 1, 3: 2}, Fraction(1, 12)),
                  ExactNonzeroComplex.from_parts({5: 3}, Fraction(5, 12))]
        return {
            "enhanced-neck2": lambda: mp.check_enhanced(neck2),
            "enhanced-neck1b": lambda: mp.check_enhanced(neck1b),
            "gluing-mult6": lambda: ls.solve_gluing(gp),
            "power-2x2": lambda: list(solve_power_system([[2, 1], [0, 3]], values).solutions),
        }

    @pytest.mark.parametrize("name", ["enhanced-neck2", "enhanced-neck1b", "gluing-mult6", "power-2x2"])
    def test_no_fraction_built(self, name):
        call = self.calls()[name]
        with fraction_counter() as count:
            result = call()
        assert count[0] == 0
        assert result

    @pytest.mark.parametrize("name", ["enhanced-neck2", "enhanced-neck1b", "gluing-mult6", "power-2x2"])
    def test_no_view_read(self, name, monkeypatch):
        call = self.calls()[name]
        reads = self.spy_views(monkeypatch)
        assert call()
        assert reads == []


class TestFactor:
    @given(st.integers(1, 10**9))
    @settings(max_examples=300)
    def test_matches_trial_division(self, n):
        assert _factor(n) == reference_factor(n)

    @given(
        st.lists(st.sampled_from((2, 3, 5, 7, 11, 13, 65521)), max_size=8),
        st.sampled_from((2**61 - 1, 4294967291)),
    )
    def test_one_large_prime(self, small, large):
        n = large
        for p in small:
            n *= p
        expected = reference_factor(n // large)
        expected[large] = 1
        assert _factor(n) == expected

    @given(st.integers(-(2**32 - 1), 2**32 - 1).filter(bool), st.integers(1, 2**32 - 1))
    def test_from_rational_rebuilds_value(self, a, b):
        value = ExactNonzeroComplex.from_rational(Fraction(a, b))
        rebuilt = Fraction(1)
        for p, e in value.mag:
            assert e.denominator == 1
            rebuilt *= Fraction(p) ** e
        assert value.arg in (0, Fraction(1, 2))
        assert (rebuilt if value.arg == 0 else -rebuilt) == Fraction(a, b)
        # from_rational skips the constructor's normalisation; it must not need it
        assert value == ExactNonzeroComplex(value.mag, value.arg)

    def test_two_large_primes_rejected_fast(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="4295229443.*65536"):
            ExactNonzeroComplex.from_rational(65537 * 65539)
        assert time.perf_counter() - start < 0.05


class TestCoeffJson:
    def test_composite_key_rejected(self):
        with pytest.raises(ValueError, match="magnitude key 4 is not a prime"):
            coeff_from_json({"primes": {"4": "1"}})
        # otherwise 4^1 would compare unequal to 2^2
        with pytest.raises(ValueError, match="magnitude key 4 is not a prime"):
            ExactNonzeroComplex.from_parts({4: 1})
        with pytest.raises(ValueError, match="magnitude key 9 is not a prime"):
            ExactNonzeroComplex(((9, Fraction(1)),))

    @pytest.mark.parametrize("key", ["0", "1", "-3"])
    def test_small_keys_rejected(self, key):
        with pytest.raises(ValueError, match=f"magnitude key {key} is not a prime"):
            coeff_from_json({"primes": {key: "1"}})
        with pytest.raises(ValueError, match=f"magnitude key {key} is not a prime"):
            ExactNonzeroComplex.from_parts({int(key): 1})
        with pytest.raises(ValueError, match=f"magnitude key {key} is not a prime"):
            ExactNonzeroComplex(((int(key), Fraction(1)),))

    def test_large_prime_accepted(self):
        p = 2**61 - 1
        assert coeff_from_json({"primes": {str(p): "1/2"}}).mag == ((p, Fraction(1, 2)),)

    def test_strong_pseudoprime_rejected(self):
        # the least strong pseudoprime to all of the bases 2, 3, ..., 37
        with pytest.raises(ValueError, match="not a prime"):
            coeff_from_json({"primes": {"318665857834031151167461": "1"}})

    def test_key_above_bound_rejected(self):
        with pytest.raises(ValueError, match="3317044064679887385961981"):
            coeff_from_json({"primes": {str(2**89 - 1): "1"}})

    @pytest.mark.parametrize("text,value", [("3/2", Fraction(3, 2)), ("-1", -1), (2, 2)], ids=repr)
    def test_rationals_load(self, text, value):
        assert coeff_from_json({"primes": {"2": text}}).mag == ((2, Fraction(value)),)
        assert coeff_from_json({"arg": text}).arg == Fraction(value) % 1

    def test_rational_digits_bounded(self):
        assert coeff_from_json({"arg": "1/" + "3" * 1000}).arg == Fraction(1, int("3" * 1000))
        for text in ("1/" + "3" * 1001, 10**1000):
            with pytest.raises(ValueError, match="at most 1000 digits"):
                coeff_from_json({"arg": text})

    @pytest.mark.parametrize("obj", ["2", ["2"], None])
    def test_non_object_coefficient_rejected(self, obj):
        with pytest.raises(ValueError, match="a coefficient must be an object"):
            coeff_from_json(obj)

    def test_is_prime_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

        assert [n for n in range(5000) if _is_prime(n) != trial(n)] == []


class TestLinalg:
    def test_nullspace_examples(self):
        assert rational_nullspace([[1, -1]]) == ((Fraction(1), Fraction(1)),)
        assert rational_nullspace([[1, 0], [0, 1]]) == ()
        basis = rational_nullspace([[2, 0, -1]])
        assert len(basis) == 2
        # contains the direction (1, 0, 2)
        target = (Fraction(1), Fraction(0), Fraction(2))
        found = any(
            all(x * target[0] == v[0] * tx for x, tx in zip(v, target))
            for v in basis
            if v[0] != 0
        )
        assert found

    @given(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=3, max_size=3),
            min_size=1,
            max_size=3,
        )
    )
    def test_nullspace_kills_matrix(self, rows):
        for v in rational_nullspace(rows):
            for row in rows:
                assert sum(a * x for a, x in zip(row, v)) == 0
        assert len(rational_nullspace(rows)) == 3 - rank(rows)

    def test_positive_examples(self):
        assert strict_positive_solution([[1, -1]]) is not None
        assert strict_positive_solution([[1, 1]]) is None
        w = strict_positive_solution([[3, -1]])
        assert w is not None and 3 * w[0] == w[1]

    def test_positive_empty_matrix(self):
        assert strict_positive_solution([]) == ()
        assert strict_positive_solution([[]]) == ()

    @given(rational_matrices())
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_reference(self, rows):
        assert rref(rows) == reference_rref(rows)
        assert_positive_matches_reference(rows)

    @given(block_angular_matrices(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_block_angular_matches_fraction_reference(self, rows, data):
        reduced = reference_rref(rows)
        assert rref(rows) == reduced
        assert rank(rows) == len(reduced[1])
        assert rational_nullspace(rows) == reference_nullspace(rows)
        n = len(rows[0])
        if data.draw(st.booleans(), label="consistent"):
            x = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n), label="x")
            b = [sum(a * v for a, v in zip(row, x)) for row in rows]
        else:
            b = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)), label="b")
        assert solve_linear(rows, b) == reference_solve_linear(rows, b)
        assert_positive_matches_reference(rows)

    @given(two_term_block_matrices())
    @settings(max_examples=300, deadline=None)
    def test_two_term_rows_match_references(self, rows):
        feasible = assert_positive_matches_reference(rows)
        if len(rows[0]) <= 4 and len(rows) <= 4:
            assert feasible == fourier_motzkin_feasible(rows)

    @pytest.mark.parametrize("seed", range(6))
    def test_positive_matches_fourier_motzkin(self, seed):
        rng = random.Random(1000 + seed)
        for _ in range(60):
            n = rng.randint(1, 4)
            m = rng.randint(1, 3)
            A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
            witness = strict_positive_solution(A)
            feasible = fourier_motzkin_feasible(A)
            assert (witness is not None) == feasible
            if witness is not None:
                assert all(x > 0 for x in witness)


_RAGGED = [[1], [2, 3]]


@pytest.mark.parametrize(
    "call",
    [
        rref,
        rank,
        rational_nullspace,
        lambda rows: solve_linear(rows, [0, 0]),
        strict_positive_solution,
        smith_normal_form,
        lambda rows: solve_power_system(rows, [ONE, ONE]),
    ],
    ids=[
        "rref",
        "rank",
        "rational_nullspace",
        "solve_linear",
        "strict_positive_solution",
        "smith_normal_form",
        "solve_power_system",
    ],
)
def test_ragged_rows_rejected(call):
    with pytest.raises(ValueError, match="equal length"):
        call(_RAGGED)


@pytest.mark.parametrize("entry", [1.5, 2.0, "2"], ids=repr)
@pytest.mark.parametrize(
    "call",
    [rref, rank, rational_nullspace, lambda rows: solve_linear(rows, [0]), strict_positive_solution],
    ids=["rref", "rank", "rational_nullspace", "solve_linear", "strict_positive_solution"],
)
def test_non_exact_entry_rejected(call, entry):
    # the linear algebra reads ints and Fractions only, as the Smith form does
    with pytest.raises(ValueError, match=f"matrix entry {re.escape(repr(entry))} is not an integer or a Fraction"):
        call([[entry, -1]])


class TestSmith:
    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=1, max_size=4),
            min_size=1,
            max_size=4,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    @settings(max_examples=150)
    def test_snf_decomposition(self, rows):
        U, D, V = smith_normal_form(rows)
        m, n = len(rows), len(rows[0])
        # U A V == D
        prod = _mat_mul(_mat_mul([list(r) for r in U], rows), [list(r) for r in V])
        assert prod == [list(r) for r in D]
        assert _det(U) in (1, -1)
        assert _det(V) in (1, -1)
        divisors = [D[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D[i][j] == 0
        nz = [d for d in divisors if d != 0]
        assert all(d > 0 for d in nz)
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0


    def test_returns_int_row_tuples(self):
        assert smith_normal_form([[2, 4]]) == (((1,),), ((2, 0),), ((1, -2), (0, 1)))
        assert smith_normal_form([]) == ((), (), ())

    @given(
        st.integers(1, 10).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=1, max_size=10
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_snf_up_to_10x10_within_cpu_bound(self, rows):
        _check_snf_within_cpu_bound(rows)

    # Under remainder-and-swap elimination these two ran past 10 s.
    @pytest.mark.parametrize("k, seed", [(6, 3), (7, 1)], ids=["6x6-seed3", "7x7-seed1"])
    def test_blow_up_probe_finishes(self, k, seed):
        rng = random.Random(seed)
        _check_snf_within_cpu_bound([[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)])


def _check_snf_within_cpu_bound(rows):
    """U A V = D with U, V unimodular and D a Smith form, in under 0.1 s of CPU."""
    start = time.process_time()
    U, D, V = smith_normal_form(rows)
    assert time.process_time() - start < 0.1
    m, n = len(rows), len(rows[0])
    assert _mat_mul(_mat_mul([list(r) for r in U], rows), [list(r) for r in V]) == [list(r) for r in D]
    assert abs(_det(U)) == 1 and abs(_det(V)) == 1
    assert all(D[i][j] == 0 for i in range(m) for j in range(n) if i != j)
    diag = [D[i][i] for i in range(min(m, n))]
    nz = [d for d in diag if d]
    assert all(d > 0 for d in nz) and diag[: len(nz)] == nz
    assert all(b % a == 0 for a, b in zip(nz, nz[1:]))


def _mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _det(entries):
    m = [list(map(Fraction, row)) for row in entries]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] / m[c][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


class TestPowerSystems:
    def test_single_square(self):
        sol = solve_power_system([[2]], [ExactNonzeroComplex.from_rational(4)])
        assert sol.consistent and sol.branch_count == 2
        values = {s[0] for s in sol.solutions}
        assert values == {
            ExactNonzeroComplex.from_rational(2),
            ExactNonzeroComplex.from_rational(-2),
        }

    def test_coprime_unique(self):
        sol = solve_power_system(
            [[2], [3]],
            [ExactNonzeroComplex.from_rational(4), ExactNonzeroComplex.from_rational(8)],
        )
        assert sol.consistent and sol.branch_count == 1
        assert sol.solutions[0][0] == ExactNonzeroComplex.from_rational(2)

    def test_contradictory(self):
        sol = solve_power_system(
            [[2], [4]],
            [
                ExactNonzeroComplex.from_rational(4),
                ExactNonzeroComplex.from_parts({2: 4}, Fraction(1, 2)),
            ],
        )
        assert not sol.consistent
        assert sol.violated_equation == 1

    def test_kernel_rank(self):
        # mu1 * mu2^{-1} = 4 has a one-dimensional solution torus
        sol = solve_power_system([[1, -1]], [ExactNonzeroComplex.from_rational(4)])
        assert sol.consistent
        assert sol.kernel_rank == 1
        assert sol.branch_count == 1

    def test_zero_rows(self):
        # no equation: one branch, the empty vector, and no torus
        sol = solve_power_system([], [])
        assert sol.consistent
        assert (sol.branch_count, sol.kernel_rank) == (1, 0)
        assert list(sol.solutions) == [()]

    @pytest.mark.parametrize("entry", [Fraction(1, 2), 1.5, 2.0, "2", 0.1, 2.7], ids=repr)
    def test_non_integer_entry_rejected(self, entry):
        v = ExactNonzeroComplex.from_rational(4)
        calls = [
            lambda: solve_power_system([[entry]], [v]),
            lambda: verify_solution([[entry]], [v], [v]),
            lambda: smith_normal_form([[entry]]),
            lambda: wproj_equal([v], [v], [entry]),
            lambda: ExactNonzeroComplex.from_parts({entry: 1}),
        ]
        if isinstance(entry, float):
            # a Fraction or a string is an exact exponent or argument; a float is not
            calls += [
                lambda: ExactNonzeroComplex(arg=entry),
                lambda: ExactNonzeroComplex.from_parts({2: entry}),
            ]
        for call in calls:
            with pytest.raises(ValueError, match="is not an integer"):
                call()

    def test_integer_valued_rational_entry_accepted(self):
        v = ExactNonzeroComplex.from_rational(4)
        assert solve_power_system([[Fraction(2)]], [v]) == solve_power_system([[2]], [v])

    @pytest.mark.parametrize(
        "M, n_values, n_mu", [([[1, 2]], 1, 1), ([[1]], 2, 1), ([[1]], 1, 2), ([], 0, 1)]
    )
    def test_verify_solution_checks_shape(self, M, n_values, n_mu):
        v = ExactNonzeroComplex.from_rational(4)
        with pytest.raises(ValueError, match="values and"):
            verify_solution(M, [v] * n_values, [v] * n_mu)

    @given(st.one_of(power_systems(), column_systems()))
    @settings(max_examples=200, deadline=None)
    def test_lazy_branches_match_reference(self, system):
        M, values = system
        sol = solve_power_system(M, values)
        ref = reference_power_branches(M, values)
        assert sol.consistent == (ref is not None)
        if ref is None:
            # the last equation of the shortest prefix that has no solution
            prefixes = (reference_power_branches(M[: k + 1], values[: k + 1]) for k in range(len(M)))
            assert sol.violated_equation == next(k for k, b in enumerate(prefixes) if b is None)
            return
        assert sol.kernel_rank == len(reference_nullspace(M))
        listed = list(sol.solutions)
        assert tuple(listed) == ref
        assert len(sol.solutions) == sol.branch_count == len(ref)
        for i in range(-len(ref), len(ref)):
            assert sol.solutions[i] == listed[i]
        for i in (len(ref), -len(ref) - 1):
            with pytest.raises(IndexError):
                sol.solutions[i]
        assert list(sol.solutions) == listed
        assert solve_power_system(M, values) == sol

    def test_column_violation_in_one_pass(self, monkeypatch):
        # rows 0..3 fix the argument of mu; row 4 turns its value by a half
        mu = ExactNonzeroComplex.from_parts({2: Fraction(1, 3)}, Fraction(1, 7))
        s = [2, 3, 4, 6, 5, 1]
        values = [mu.pow(x) for x in s]
        values[4] = values[4] * ExactNonzeroComplex.from_rational(-1)
        solve_column, column_calls = powersys._solve_column, []

        def column(*args):
            column_calls.append(args)
            return solve_column(*args)

        def forbidden(*args):
            raise AssertionError("a column system reached the Smith path")

        monkeypatch.setattr(powersys, "_solve_column", column)
        for name in ("_solve_once", "smith_normal_form", "_rref"):
            monkeypatch.setattr(powersys, name, forbidden)
        sol = solve_power_system([[x] for x in s], values)
        assert not sol.consistent and sol.violated_equation == 4
        assert len(column_calls) == 1

    def test_huge_multiplicities_column(self):
        mu = ExactNonzeroComplex.from_parts({2: Fraction(1, 3)}, Fraction(1, 7))
        M = [[10**30], [10**20]]
        values = [mu.pow(10**30), mu.pow(10**20)]
        sol = solve_power_system(M, values)
        assert sol.consistent and sol.branch_count == 10**20
        assert verify_solution(M, values, sol.solutions[0])

    def test_equality_builds_only_the_branches_it_compares(self, monkeypatch):
        # each branch of a one-unknown system is one call of _root, which
        # records the branch's argument numerator; branch j of mu^6 = 1 has j
        built = []
        real = powersys._root
        six = solve_power_system([[6]], [ONE]).solutions
        first, *rest = [six[j] for j in range(6)]

        def spy(D, primes, exps, g, a):
            built.append(a)
            assert len(built) <= 7, "built more branches than the comparisons read"
            return real(D, primes, exps, g, a)

        monkeypatch.setattr(powersys, "_root", spy)
        assert six != () and six != ((ONE,),) * 5
        assert built == []
        # 10**20 branches: building them all, or calling len(), never ends
        huge = solve_power_system([[10**20]], [ONE]).solutions
        assert huge != () and six != huge and huge != six
        assert built == []
        assert six != tuple([rest[0]] + rest)
        assert built == [0]
        assert six == tuple([first] + rest)
        assert len(built) == 7

    @staticmethod
    def _count_roots(monkeypatch):
        """Count the calls of _root, the one place a branch's value is built."""
        built = []
        real = powersys._root

        def spy(*args):
            built.append(args[-1])
            return real(*args)

        monkeypatch.setattr(powersys, "_root", spy)
        return built

    @pytest.mark.parametrize("s", [2, 10**20])
    def test_branches_and_solution_unhashable(self, monkeypatch, s):
        built = self._count_roots(monkeypatch)
        sol = solve_power_system([[s]], [ONE])
        for value in (sol.solutions, sol):
            with pytest.raises(TypeError, match="unhashable"):
                hash(value)
        assert built == []

    def test_first_of_huge_builds_one_branch(self, monkeypatch):
        built = self._count_roots(monkeypatch)
        huge = solve_power_system([[10**20]], [ONE]).solutions
        assert next(iter(huge)) == (ONE,)
        assert built == [0]

    @pytest.mark.parametrize("k", [0, 1, 5, 128, 129, 300])
    def test_slice_of_iteration_builds_what_it_reads(self, monkeypatch, k):
        # a signed permutation of diag(8, 128): 1024 branches of two unknowns,
        # 8 prefixes of the slow digit, each a run of 128 on the fast one
        M = [[0, -128], [8, 0]]
        values = [ExactNonzeroComplex.from_parts({2: 3}, Fraction(1, 3)),
                  ExactNonzeroComplex.from_parts({3: 1}, Fraction(1, 5))]
        sol = solve_power_system(M, values)
        assert sol.solutions._data[1] == (8, 128)
        built = self._count_roots(monkeypatch)
        head = list(itertools.islice(sol.solutions, k))
        assert len(head) == k and len(built) == 2 * k
        assert head == [sol.solutions[b] for b in range(k)]
        assert all(verify_solution(M, values, mu) for mu in head[:3] + head[-3:])

    @pytest.mark.parametrize(
        "M, values, divisors",
        [
            # V = identity: unknown 0 does not move with the last digit
            ([[2, 0], [0, 6]], [ExactNonzeroComplex.from_parts({2: 1}, Fraction(1, 3)),
                                ExactNonzeroComplex.from_parts({3: 1}, Fraction(1, 4))], (2, 6)),
            # unimodular: every elementary divisor, the last included, is 1
            ([[1, 2], [3, 5]], [ExactNonzeroComplex.from_parts({2: 1}, Fraction(1, 3)), ONE], (1, 1)),
            ([[1]], [ExactNonzeroComplex.from_parts({5: 2}, Fraction(2, 3))], (1,)),
            # no nonzero elementary divisor: one branch, on the Smith path and the column pass
            ([[0, 0]], [ONE], ()),
            ([[0]], [ONE], ()),
            ([], [], ()),
        ],
        ids=["zero-last-step", "unimodular", "column-1", "zero-row", "zero-column", "empty"],
    )
    def test_iteration_matches_indexing(self, M, values, divisors):
        tb = solve_power_system(M, values).solutions
        assert tb._data[1] == divisors
        if divisors == (2, 6):
            last_steps = [steps[-1] % D for D, _, _, _, _, steps in tb._data[0]]
            assert last_steps[0] == 0 and last_steps[1] != 0
        listed = list(tb)
        assert listed == [tb[b] for b in range(len(tb))]
        assert len(set(listed)) == len(tb) == math.prod(divisors)
        assert all(verify_solution(M, values, mu) for mu in listed)

    def test_diagonal_300_first_branch_fast(self):
        M = [[300, 0], [0, 300]]
        values = [ExactNonzeroComplex.from_parts({2: 3, 3: 1}, Fraction(1, 12)),
                  ExactNonzeroComplex.from_parts({5: 2}, Fraction(5, 12))]
        start = time.perf_counter()
        sol = solve_power_system(M, values)
        first = sol.solutions[0]
        elapsed = time.perf_counter() - start
        assert sol.branch_count == 90000
        assert verify_solution(M, values, first)
        assert elapsed < 0.1, f"solve_power_system + first branch took {elapsed:.3f} s"

    @pytest.mark.parametrize("seed", range(8))
    def test_against_grid_oracle(self, seed):
        rng = random.Random(7000 + seed)
        for _ in range(40):
            m = rng.randint(1, 3)
            n = rng.randint(1, 3)
            M = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
            if rng.random() < 0.6:
                # consistent by construction: plug in a random mu
                mu = [random_value(rng, primes=(2, 3), arg_dens=(1, 2, 4)) for _ in range(n)]
                values = []
                for row in M:
                    acc = ExactNonzeroComplex.one()
                    for e, x in zip(row, mu):
                        acc = acc * x.pow(e)
                    values.append(acc)
            else:
                values = [random_value(rng, primes=(2, 3), arg_dens=(1, 2, 4)) for _ in range(m)]
            from ncd_moduli.exactnum import elementary_divisors

            divisors = elementary_divisors(M) or (1,)
            L = lcm(*divisors) * lcm(1, *[v.arg.denominator for v in values])
            if L > 24:
                continue
            sol = solve_power_system(M, values)
            assert sol.consistent == power_system_oracle_consistent(M, values, L)
            if sol.consistent:
                for s in sol.solutions:
                    assert verify_solution(M, values, s)
                if sol.kernel_rank == 0:
                    grid = arg_grid_solutions(M, [v.arg for v in values], L)
                    assert len(grid) == sol.branch_count
