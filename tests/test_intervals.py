"""Interval arithmetic: containment soundness, widths, and exp/log enclosures."""

import decimal
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ckkms.intervals as intervals_module
from ckkms.errors import DomainError
from ckkms.intervals import (
    Interval,
    exp_interval,
    exp_interval_point,
    exp_neg_grid,
    log_interval_point,
)

fractions_small = st.fractions(min_value=-50, max_value=50, max_denominator=40)
nonnegative_fractions = st.fractions(min_value=0, max_value=50, max_denominator=40)
positive_fractions = st.fractions(
    min_value=Fraction(1, 40), max_value=50, max_denominator=40
)


# Decimal.exp and Decimal.ln are correctly rounded, so at 400 digits they are
# oracles independent of the integer kernels: rounding t to 400 digits and the
# result to 400 digits moves e^t by less than 10^-397 relative for |t| <= 200,
# and ln(num) - ln(den) by less than 10^-394 for num, den below 10^1000.
ORACLE = decimal.Context(prec=400)
ORACLE_SLACK = Fraction(1, 10**390)


def exp_oracle(t: Fraction) -> Fraction:
    """e^t within ORACLE_SLACK relative, as an exact rational."""
    d = ORACLE.divide(decimal.Decimal(t.numerator), decimal.Decimal(t.denominator))
    return Fraction(ORACLE.exp(d))


def log_oracle(x: Fraction) -> Fraction:
    """ln x within ORACLE_SLACK, as an exact rational.  Both logs and their
    difference are rounded in the 400-digit context; a plain `-` between two
    Decimals would round to the default 28 digits."""
    return Fraction(ORACLE.subtract(ORACLE.ln(decimal.Decimal(x.numerator)),
                                    ORACLE.ln(decimal.Decimal(x.denominator))))


def holds_exp(lo: Fraction, hi: Fraction, t: Fraction) -> bool:
    """[lo, hi] contains e^t, up to the oracle's relative slack."""
    value = exp_oracle(t)
    return lo <= value * (1 + ORACLE_SLACK) and value * (1 - ORACLE_SLACK) <= hi


def is_dyadic(q: Fraction) -> bool:
    return q.denominator & (q.denominator - 1) == 0


def make_interval(a: Fraction, b: Fraction) -> Interval:
    return Interval(min(a, b), max(a, b))


@st.composite
def intervals(draw, elements=fractions_small):
    return make_interval(draw(elements), draw(elements))


@st.composite
def interval_with_point(draw, elements=fractions_small):
    iv = draw(intervals(elements))
    t = draw(st.fractions(min_value=0, max_value=1, max_denominator=64))
    return iv, iv.lo + t * (iv.hi - iv.lo)


class TestConstruction:
    def test_reversed_endpoints_rejected(self):
        with pytest.raises(Exception):
            Interval(Fraction(1), Fraction(0))

    def test_point_has_zero_width(self):
        iv = Interval.point(Fraction(3, 7))
        assert iv.lo == iv.hi == Fraction(3, 7)
        assert iv.width == 0
        assert iv.mid == Fraction(3, 7)

    @given(intervals())
    @settings(max_examples=60, deadline=None)
    def test_width_nonnegative_and_mid_inside(self, iv):
        assert iv.width >= 0
        assert iv.lo <= iv.mid <= iv.hi


class TestArithmeticContainment:
    """result intervals must contain the pointwise operation of any members"""

    @given(interval_with_point(), interval_with_point())
    @settings(max_examples=80, deadline=None)
    def test_add_sub_mul(self, ap, bp):
        (ia, xa), (ib, xb) = ap, bp
        s = ia + ib
        assert s.lo <= xa + xb <= s.hi
        d = ia - ib
        assert d.lo <= xa - xb <= d.hi
        p = ia * ib
        assert p.lo <= xa * xb <= p.hi

    @given(st.one_of(intervals(), intervals(nonnegative_fractions)),
           st.one_of(intervals(), intervals(nonnegative_fractions)))
    @settings(max_examples=120, deadline=None)
    def test_mul_is_the_four_product_hull(self, a, b):
        # the nonnegative shortcut must give the same endpoints as the
        # general signed formula
        products = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
        p = a * b
        assert (p.lo, p.hi) == (min(products), max(products))

    @given(interval_with_point(),
           interval_with_point(elements=positive_fractions))
    @settings(max_examples=60, deadline=None)
    def test_division_by_positive(self, ap, bp):
        (ia, xa), (ib, xb) = ap, bp
        q = ia * ib.reciprocal()
        assert q.lo <= xa / xb <= q.hi

    def test_reciprocal_through_zero_rejected(self):
        with pytest.raises(Exception):
            Interval(Fraction(-1), Fraction(1)).reciprocal()

    @given(intervals(), intervals())
    @settings(max_examples=60, deadline=None)
    def test_intersects_is_symmetric(self, a, b):
        assert a.intersects(b) == b.intersects(a)

    @given(intervals(), intervals())
    @settings(max_examples=60, deadline=None)
    def test_distance_sup_bounds_member_distance(self, a, b):
        d = a.distance_sup(b)
        assert d >= abs(a.mid - b.mid) - (a.width + b.width)
        assert d >= 0


class TestExpLog:
    @given(st.fractions(min_value=-10, max_value=10, max_denominator=30))
    @settings(max_examples=50, deadline=None)
    def test_exp_point_encloses_float_exp(self, x):
        iv = exp_interval_point(x, Fraction(1, 10**12))
        true = math.exp(float(x))
        assert float(iv.lo) <= true * (1 + 1e-13) and true * (1 - 1e-13) <= float(iv.hi)
        assert iv.width <= Fraction(1, 10**11)

    @given(st.fractions(min_value=Fraction(1, 10**12), max_value=10**12,
                        max_denominator=10**12),
           st.integers(-300, 300), st.integers(1, 300))
    @settings(max_examples=80, deadline=None)
    def test_log_point_meets_its_width_on_the_grid(self, m, e, k):
        x = m * Fraction(2) ** e
        precision = Fraction(1, 10**k)
        iv = log_interval_point(x, precision)
        assert iv.width <= precision
        assert is_dyadic(iv.lo) and is_dyadic(iv.hi)
        value = log_oracle(x)
        assert iv.lo - ORACLE_SLACK <= value <= iv.hi + ORACLE_SLACK

    def test_exp_log_roundtrip(self):
        x = Fraction(5, 7)
        iv = log_interval_point(x, Fraction(1, 10**14))
        back = exp_interval(iv, Fraction(1, 10**14))
        assert back.lo <= x <= back.hi

    def test_exp_monotone_on_intervals(self):
        iv = exp_interval(Interval(Fraction(0), Fraction(1)), Fraction(1, 10**9))
        assert iv.lo <= 1 <= iv.hi or iv.lo >= 1  # contains e^0 = 1 at the left
        assert float(iv.hi) >= math.e - 1e-9

    def test_log_requires_positive(self):
        with pytest.raises(DomainError):
            log_interval_point(Fraction(0))
        with pytest.raises(DomainError):
            log_interval_point(Fraction(-1, 2))

    def test_long_denominator_far_from_zero_meets_its_width(self):
        # e^(-(50 + 3^-80)) took seconds when exp ran a Fraction series
        precision = Fraction(1, 10**15)
        for t in (50 + Fraction(1, 3**80), -(50 + Fraction(1, 3**80))):
            start = time.perf_counter()
            iv = exp_interval_point(t, precision)
            assert time.perf_counter() - start < 1.0
            assert iv.width <= precision and iv.lo > 0
            assert holds_exp(iv.lo, iv.hi, t)

    def test_fine_width_is_met(self):
        precision = Fraction(1, 10**2000)
        iv = exp_interval_point(1, precision)
        assert iv.width <= precision
        e = Fraction(decimal.Context(prec=2010).exp(1))
        assert iv.lo <= e * (1 + Fraction(1, 10**2005))
        assert e * (1 - Fraction(1, 10**2005)) <= iv.hi

    @given(st.one_of(st.fractions(-60, 60, max_denominator=10**9),
                     st.builds(lambda n, d: Fraction(n, d) - 60,
                               st.integers(0, 120 * 2**96),
                               st.integers(2**96 + 1, 2**97))),
           st.integers(1, 300))
    @settings(max_examples=80, deadline=None)
    def test_exp_point_meets_its_width_on_the_grid(self, t, k):
        precision = Fraction(1, 10**k)
        iv = exp_interval_point(t, precision)
        assert iv.width <= precision
        assert iv.lo > 0
        assert is_dyadic(iv.lo) and is_dyadic(iv.hi)
        assert holds_exp(iv.lo, iv.hi, t)

    @pytest.mark.parametrize("call", [
        lambda: exp_interval_point(Fraction(1, 3), 0),
        lambda: exp_interval(Interval(Fraction(0), Fraction(1)), 0),
        lambda: exp_interval_point(Fraction(-2), Fraction(-1, 10)),
    ])
    def test_exp_non_positive_precision_rejected(self, call):
        with pytest.raises(DomainError, match="precision must be positive"):
            call()

    def test_log_non_positive_precision_rejected(self):
        with pytest.raises(DomainError, match="precision must be positive"):
            log_interval_point(2, Fraction(-1, 10))
        with pytest.raises(DomainError, match="precision must be positive"):
            log_interval_point(2, 0)

    def test_fine_log_width_is_met(self):
        precision = Fraction(1, 10**1000)
        iv = log_interval_point(Fraction(7, 10), precision)
        assert iv.width <= precision
        ctx = decimal.Context(prec=1010)
        value = Fraction(ctx.subtract(ctx.ln(7), ctx.ln(10)))
        slack = Fraction(1, 10**1005)
        assert iv.lo - slack <= value <= iv.hi + slack

    def test_point_interval_takes_one_point_enclosure(self, monkeypatch):
        calls = []

        def counting(t, precision):
            calls.append(t)
            return exp_interval_point(t, precision)

        monkeypatch.setattr(intervals_module, "exp_interval_point", counting)
        x = Fraction(-7, 3)
        iv = exp_interval(Interval.point(x), Fraction(1, 10**12))
        assert calls == [x]
        assert iv == exp_interval_point(x, Fraction(1, 10**12))


def _grid_arguments() -> list:
    """t = 0, integers (100 and 200 take the t >= bits shortcut at 96 bits),
    dyadic floats in [0, 8], 9-digit rationals and denominators > 2^96."""
    rng = random.Random(20260)
    cases = [Fraction(n) for n in (0, 1, 2, 7, 30, 66, 100, 200)]
    cases += [Fraction(rng.uniform(0, 8)) for _ in range(12)]
    cases += [Fraction(rng.randrange(10**8, 10**9), rng.randrange(10**8, 10**9))
              for _ in range(12)]
    cases += [Fraction(rng.getrandbits(99), rng.getrandbits(96) | 1 << 96)
              for _ in range(12)]
    return cases


def _check_grid_bracket(t: Fraction, bits: int) -> None:
    lo, hi = exp_neg_grid(t.numerator, t.denominator, bits)
    assert lo <= hi <= lo + 2
    assert holds_exp(Fraction(lo, 2**bits), Fraction(hi, 2**bits), -t)


big_denominators = st.builds(
    Fraction, st.integers(0, 2**99), st.integers(2**96 + 1, 2**97))
grid_arguments = st.one_of(
    st.integers(0, 100).map(Fraction),
    st.floats(0, 8).map(Fraction),
    st.fractions(0, 10, max_denominator=10**9),
    big_denominators,
)


class TestExpNegGrid:
    @pytest.mark.parametrize("bits", [96, 128, 160])
    def test_seeded_brackets_hold_the_fraction_enclosure(self, bits):
        for t in _grid_arguments():
            _check_grid_bracket(t, bits)

    @given(grid_arguments, st.sampled_from([96, 128, 160]))
    @settings(max_examples=80, deadline=None)
    def test_brackets_hold_the_fraction_enclosure(self, t, bits):
        _check_grid_bracket(t, bits)

    @given(grid_arguments, st.integers(1, 2**64), st.sampled_from([96, 128, 160]))
    @settings(max_examples=80, deadline=None)
    def test_bracket_depends_only_on_the_value(self, t, c, bits):
        # callers pass products of numerators and denominators unreduced
        assert (exp_neg_grid(c * t.numerator, c * t.denominator, bits)
                == exp_neg_grid(t.numerator, t.denominator, bits))

    def test_zero_is_exact(self):
        assert exp_neg_grid(0, 1, 96) == (2**96, 2**96)

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            exp_neg_grid(-1, 2, 96)

    @pytest.mark.parametrize("den", [0, -2])
    def test_nonpositive_denominator_rejected(self, den):
        with pytest.raises(DomainError):
            exp_neg_grid(1, den, 96)


class TestAtanhGrid:
    def test_seeded_brackets_hold_atanh_and_meet_their_width(self):
        # at small p a missing tail term or a floored upper power shows as a
        # bracket that misses the value by a unit; 60 digits put the
        # reference within 10^-30 units of atanh(u) * 2^p for p <= 80
        ctx = decimal.Context(prec=60)
        slack = Fraction(1, 10**30)
        rng = random.Random(20261)
        for _ in range(1500):
            den = rng.randint(3, 10 ** rng.randint(1, 12))
            num = rng.randint(0, den // 3)
            p = rng.randint(3, 80)
            lo, hi = intervals_module._atanh_grid(num, den, p)
            assert hi - lo <= p + 3
            ratio = ctx.divide(decimal.Decimal(den + num), decimal.Decimal(den - num))
            value = Fraction(ctx.ln(ratio)) / 2 * 2**p
            assert lo - slack <= value <= hi + slack

    def test_zero_is_exact(self):
        assert intervals_module._atanh_grid(0, 5, 64) == (0, 0)
