"""Exact scalar tower: algebraic constructors, arithmetic folding, refinement,
log-ratio verdicts, and JSON round-trips."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ckkms import polys, scalars
from ckkms.errors import DomainError, InvalidScalarError
from ckkms.intervals import Interval
from ckkms.scalars import Alg, Enc, Flt, Product, Q, Rat

GOLDEN_FLOAT = (math.sqrt(5) - 1) / 2


def golden() -> Alg:
    return scalars.make_algebraic([-1, 1, 1], Q(0), Q(1))


def cubic_root() -> Alg:
    return scalars.make_algebraic([-1, 1, 0, 1], Q(0), Q(1))


class TestConstruction:
    def test_algebraic_enclosures(self):
        iv = scalars.refine(golden(), Q(1, 10**6))
        assert float(iv.lo) <= GOLDEN_FLOAT <= float(iv.hi)
        assert iv.width <= Q(1, 10**6)
        iv = scalars.refine(cubic_root(), Q(1, 10**6))
        assert float(iv.lo) <= 0.6823278038280193 <= float(iv.hi)

    @pytest.mark.parametrize("rational, power, width", [
        (Q(1, 3), -7, Q(1, 10**450)),
        (1, -7, Q(1, 10**500)),
        (1, 3, Q(1, 10**500)),
        (1, 3, Q(1, 10**2000)),
    ])
    def test_refine_meets_widths_below_1e_400(self, rational, power, width):
        # oracles from x^2 = 1 - x: x^3 = 2x - 1 and x^-7 = 13x + 21
        g = golden()
        s = scalars.mul(Rat(rational), scalars.make_power(g, power))
        iv = scalars.refine(s, width)
        assert iv.width <= width
        a, b = {3: (2, -1), -7: (13, 21)}[power]
        assert iv.intersects((scalars.refine(g, width) * a + b) * rational)

    def test_rational_refine_is_exact(self):
        iv = scalars.refine(Rat(Q(1, 2)), Q(1, 10**6))
        assert iv.lo == iv.hi == Q(1, 2)

    @pytest.mark.parametrize("precision", [0, -1, Q(0), Q(-1), Q(-1, 3), -0.5])
    @pytest.mark.parametrize("s", [Rat(Q(1, 2)), golden()], ids=["rational", "golden"])
    def test_refine_rejects_a_nonpositive_precision(self, s, precision):
        with pytest.raises(DomainError, match="precision must be positive"):
            scalars.refine(s, precision)

    @pytest.mark.parametrize("precision", [0.5, Q(1, 2), "1/2"])
    def test_refine_converts_a_precision_that_is_not_a_fraction(self, precision):
        iv = scalars.refine(golden(), precision)
        assert iv == scalars.refine(golden(), Q(1, 2))
        assert iv.width <= Q(1, 2) and float(iv.lo) <= GOLDEN_FLOAT <= float(iv.hi)

    def test_rational_root_collapses_to_rat(self):
        s = scalars.make_algebraic([-1, 2], Q(0), Q(1))  # 2x - 1
        assert isinstance(s, Rat) and s.value == Q(1, 2)

    def test_rational_roots_of_a_product_collapse(self):
        # (2x - 1)(3x - 2) = 2 - 7x + 6x^2, one root on each side of 3/5
        assert scalars.make_algebraic([2, -7, 6], Q(0), Q(3, 5)) == Rat(Q(1, 2))
        assert scalars.make_algebraic([2, -7, 6], Q(3, 5), Q(1)) == Rat(Q(2, 3))

    def test_rational_root_beside_irrational_ones_collapses(self):
        # (10^20 x - 3)(x^2 - 2): a rational root with a 21-digit denominator
        poly = [6, -2 * 10**20, -3, 10**20]
        s = scalars.make_algebraic(poly, Q(2, 10**20), Q(4, 10**20))
        assert s == Rat(Q(3, 10**20))
        sqrt2 = scalars.make_algebraic(poly, Q(1), Q(2))
        assert isinstance(sqrt2, Alg) and (sqrt2.lo, sqrt2.hi) == (Q(1), Q(2))

    def test_large_leading_coefficient_is_fast(self):
        # 10^40 x^2 - 2 isolates sqrt(2)/10^20 in [1e-20, 2e-20], and already
        # in the cell [0, 1]; factoring 10^40 by trial division would not
        # finish
        start = time.monotonic()
        s = scalars.make_algebraic([-2, 0, 10**40], Q(1, 10**20), Q(2, 10**20))
        assert time.monotonic() - start < 1.0
        assert isinstance(s, Alg) and (s.lo, s.hi) == (Q(0), Q(1))

    def test_interval_must_isolate(self):
        with pytest.raises(InvalidScalarError):
            scalars.make_algebraic([-1, 1, 1], Q(-2), Q(2))  # two roots
        with pytest.raises(InvalidScalarError):
            scalars.make_algebraic([5], Q(0), Q(1))  # no roots

    def test_same_root_different_polynomial_multiple(self):
        # (x^2 + x - 1)(x + 2) = -2 + x + 3x^2 + x^3, same isolated root
        other = scalars.make_algebraic([-2, 1, 3, 1], Q(0), Q(1))
        assert scalars.same_value(other, golden())


@st.composite
def irrational_roots(draw) -> Alg:
    """The smallest real root of a random integer quadratic or cubic, when it
    is irrational; every root lies in (-10, 10), as the coefficients do."""
    degree = draw(st.sampled_from([2, 3]))
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=degree, max_size=degree))
    poly = coeffs + [draw(st.integers(1, 9))]
    try:
        a = scalars.least_root(
            polys.sturm_chain(polys.squarefree_part(poly)), Q(-10), Q(10))
    except ArithmeticError:
        assume(False)
    assume(isinstance(a, Alg))
    return a


class TestEnclosureCells:
    @given(irrational_roots(),
           st.fractions(min_value=Q(1, 2**100), max_value=Q(2**12)),
           st.integers(3, 80), st.integers(1, 300))
    @settings(max_examples=150, deadline=None)
    def test_refine_is_the_grid_cell_of_the_value(self, a, width, bits, deeper):
        iv = scalars.refine(a, width)
        k = -20
        while Q(2) ** -k > width:
            k += 1
        step = Q(2) ** -k
        assert iv.hi - iv.lo == step and (iv.lo / step).denominator == 1
        # the part of the cell inside the isolating interval straddles the root
        lo, hi = max(iv.lo, a.lo), min(iv.hi, a.hi)
        assert (polys.sign_at(a.poly, lo.numerator, lo.denominator)
                * polys.sign_at(a.poly, hi.numerator, hi.denominator)) < 0
        # the same value under a second isolating interval, refined deeper
        other = scalars.make_algebraic(
            a.poly, *polys.refine_root(list(a.poly), a.lo, a.hi, Q(1, 2**bits)))
        assert isinstance(other, Alg) and other.poly == a.poly
        scalars.refine(other, width / 2**deeper)
        assert scalars.refine(a, width) == iv == scalars.refine(other, width)

    @given(irrational_roots(), st.lists(st.tuples(
        st.integers(0, 80), st.fractions(0, 1, max_denominator=1000),
        st.fractions(0, 1, max_denominator=1000)), min_size=2, max_size=2))
    @settings(max_examples=150, deadline=None)
    def test_one_root_has_one_form(self, a, brackets):
        # a sub-bracket (lo, hi) of the cell around a narrower bracket of the
        # root isolates it too; every such isolation gives the same Alg
        forms = []
        for bits, s, t in brackets:
            c, d = polys.refine_root(list(a.poly), a.lo, a.hi, Q(1, 2**bits))
            lo, hi = c - s * (c - a.lo), d + t * (a.hi - d)
            forms.append(scalars.make_algebraic(a.poly, lo, hi))
        for b in forms:
            assert b == a and hash(b) == hash(a)
            assert scalars.scalar_to_json(b) == scalars.scalar_to_json(a)
        assert scalars.scalar_from_json(scalars.scalar_to_json(a)) == a
        # the cell [m, m+1]/2^k isolates the root, and for k > 0 the cell at
        # k - 1 that holds it does not
        step = a.hi - a.lo
        k = step.denominator.bit_length() - 1
        assert step == Q(1, 2**k) and (a.lo / step).denominator == 1

        def isolates(lo, hi):
            ends = (polys.sign_at(a.poly, x.numerator, x.denominator) for x in (lo, hi))
            return all(ends) and polys.count_roots(
                polys.sturm_chain(list(a.poly)), lo, hi) == 1

        assert isolates(a.lo, a.hi)
        if k > 0:
            lo = math.floor(a.lo / (2 * step)) * 2 * step
            assert not isolates(lo, lo + 2 * step)


class TestArithmetic:
    def test_power_folding(self):
        g = golden()
        p = scalars.mul(scalars.make_power(g, 2), scalars.make_power(g, 3))
        assert isinstance(p, Product) and p.rational == 1
        assert p.factors == ((g, 5),)
        assert scalars.same_value(p, scalars.make_power(g, 5))

    def test_rational_arithmetic_stays_exact(self):
        s = scalars.add(Rat(Q(1, 3)), Rat(Q(1, 6)))
        assert isinstance(s, Rat) and s.value == Q(1, 2)
        s = scalars.mul(Rat(Q(2, 3)), Rat(Q(3, 4)))
        assert isinstance(s, Rat) and s.value == Q(1, 2)

    def test_mixed_sum_is_certified_enclosure(self):
        s = scalars.add(golden(), Rat(Q(1, 2)))
        assert isinstance(s, Enc)
        iv = scalars.refine(s, Q(1, 10**9))
        assert float(iv.lo) <= GOLDEN_FLOAT + 0.5 <= float(iv.hi)

    def test_inverse_multiplies_to_one(self):
        g = golden()
        prod = scalars.mul(g, scalars.inv(g))
        assert scalars.same_value(prod, Rat(Q(1)))

    def test_golden_identity_x2_equals_1_minus_x(self):
        # for the root of x^2 + x - 1: x^2 = 1 - x
        sq = scalars.make_power(golden(), 2)
        other = scalars.add(Rat(Q(1)), scalars.mul(Rat(Q(-1)), golden()))
        gap = abs(scalars.to_float(sq) - scalars.to_float(other))
        assert gap < 1e-12
        iv1 = scalars.refine(sq, Q(1, 10**12))
        iv2 = scalars.refine(other, Q(1, 10**12))
        assert iv1.intersects(iv2)

    @given(st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20),
                        max_denominator=30), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_make_power_of_rational_collapses(self, base, k):
        p = scalars.make_power(Rat(base), k)
        assert isinstance(p, Rat) and p.value == base**k

    def test_compare_rational_signs(self):
        g = golden()
        assert scalars.compare_rational(g, Q(1, 2)) == 1
        assert scalars.compare_rational(g, Q(2, 3)) == -1
        assert scalars.compare_rational(Rat(Q(1, 2)), Q(1, 2)) == 0


# The Fraction Interval loops that the integer kernel of refine, mul and add
# replaced, kept as its oracles: the kernel must give equal endpoints.


def fraction_power_interval(base: Alg, exp: int, precision: Fraction) -> Interval:
    sub = precision
    while True:
        biv = scalars._alg_interval(base, sub)
        if exp < 0 and biv.lo <= 0 <= biv.hi:
            sub /= 16
            continue
        out = biv**exp
        if out.width <= precision:
            return out
        sub /= 16


def fraction_refine(s, precision) -> Interval:
    if not isinstance(s, Product):
        return scalars.refine(s, precision)
    if s.rational == 1 and len(s.factors) == 1:
        return fraction_power_interval(*s.factors[0], precision)
    sub = precision
    while True:
        out = Interval.point(s.rational)
        for b, e in s.factors:
            out = out * fraction_power_interval(b, e, sub)
        if out.width <= precision:
            return out
        sub /= 16


def fraction_mul(*values) -> Enc:
    """scalars.mul of operands among which is an Enc."""
    out = Interval.point(1)
    for s in values:
        out = out * fraction_refine(s, scalars.ENCLOSURE_WIDTH)
    return Enc(out)


def fraction_add(*values) -> Enc:
    """scalars.add of two or more nonzero operands among which is an Enc."""
    out = Interval.point(0)
    for s in values:
        out = out + fraction_refine(s, scalars.ENCLOSURE_WIDTH)
    return Enc(out)


SIGNED_BASES = (
    scalars.make_algebraic([-2, 0, 1], Q(-2), Q(-1)),  # -sqrt(2)
    scalars.make_algebraic([1, -3, 0, 1], Q(-2), Q(-1)),  # about -1.879
    scalars.make_algebraic([1, -3, 0, 1], Q(0), Q(1)),  # about 0.347
    scalars.make_algebraic([-1, 1, 1], Q(0), Q(1)),  # golden
)


@st.composite
def products(draw) -> Product:
    """A Product built as is, without the collapse of mul, so that even
    powers of negative bases stay powers: 1 to 3 distinct bases, exponents
    -3..4 but 0, and a rational among +-1, 3 and -2 over 1, 2 and 7."""
    pool = list(SIGNED_BASES) + [draw(irrational_roots())]
    bases = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
    exps = draw(st.lists(st.integers(-3, 4).filter(bool), min_size=len(bases),
                         max_size=len(bases)))
    rational = Q(draw(st.sampled_from([1, -1, 3, -2])), draw(st.sampled_from([1, 2, 7])))
    return Product(rational, tuple(zip(bases, exps)))


# from 4 down to 1e-40: the coarse widths give cells with an end at 0
WIDTHS = st.one_of(st.sampled_from([Q(4), Q(1), Q(1, 2)]),
                   st.integers(1, 40).map(lambda j: Q(1, 10**j)))

ENCLOSURES = st.lists(st.fractions(-3, 3, max_denominator=1000), min_size=2,
                      max_size=2).map(lambda ends: Enc(Interval(*sorted(ends))))

OPERANDS = st.lists(st.one_of(products(), st.sampled_from(SIGNED_BASES),
                              st.sampled_from([Rat(Q(-2, 7)), Rat(Q(3))]), ENCLOSURES),
                    min_size=1, max_size=3)


class TestIntegerKernel:
    @given(products(), WIDTHS)
    @settings(max_examples=300, deadline=None)
    def test_refine_matches_the_fraction_loops(self, s, width):
        assert scalars.refine(s, width) == fraction_refine(s, width)

    @given(ENCLOSURES, OPERANDS, st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_mul_and_add_match_the_fraction_loops(self, enc, others, rng):
        values = [enc] + others
        rng.shuffle(values)
        assert scalars.mul(*values) == fraction_mul(*values)
        assert scalars.add(*values) == fraction_add(*values)


def inv_sqrt2() -> Alg:
    return scalars.make_algebraic([-1, 0, 2], Q(1, 2), Q(1))  # 2x^2 - 1


class TestCollapse:
    """A power that is rational modulo the defining polynomial collapses
    whenever exponents combine: in mul, in make_power of a Product, in inv."""

    def test_mul_collapses_combined_exponents(self):
        r = inv_sqrt2()
        assert scalars.mul(r, r) == Rat(Q(1, 2))
        assert scalars.mul(scalars.make_power(r, 3), r) == Rat(Q(1, 4))
        assert scalars.mul(Rat(3), r, r, r, scalars.inv(r)) == Rat(Q(3, 2))

    def test_make_power_and_inv_collapse(self):
        r = inv_sqrt2()
        assert scalars.inv(scalars.make_power(r, 2)) == Rat(2)
        assert scalars.make_power(scalars.mul(Rat(3), r), 2) == Rat(Q(9, 2))
        assert scalars.make_power(scalars.mul(Rat(3), r), -4) == Rat(Q(4, 81))

    def test_two_bases_keep_both_factors(self):
        r, g = inv_sqrt2(), golden()
        p = scalars.mul(scalars.make_power(r, 3), g, g)
        assert isinstance(p, Product) and p.rational == 1
        assert dict(p.factors) == {r: 3, g: 2}
        q = scalars.mul(p, r)
        assert isinstance(q, Product) and q.rational == Q(1, 4)
        assert q.factors == ((g, 2),)
        assert scalars.inv(p).factors == tuple((b, -e) for b, e in p.factors)


def fraction_power_collapse(base: Alg, k: int) -> Fraction | None:
    """_alg_power_collapse without its degree rule: x^k reduced modulo the
    defining polynomial by Fraction square-and-multiply, kept as its oracle."""
    p = [Q(c) for c in base.poly]
    rem = [Q(0), Q(1)]  # x
    out = [Q(1)]
    e = k
    while e:
        if e & 1:
            out = polys.divmod_exact(polys.mul(out, rem), p)[1]
        rem = polys.divmod_exact(polys.mul(rem, rem), p)[1]
        e >>= 1
    if polys.degree(out) <= 0:
        return out[0] if out else Q(0)
    return None


@st.composite
def power_bases(draw) -> Alg:
    """The least real root, when irrational, of a squarefree integer
    polynomial of degree 2 to 6: a binomial a x^n - c, whose powers collapse
    at multiples of n, or a random polynomial.  The coefficients bound every
    root inside (-10, 10)."""
    degree = draw(st.integers(2, 6))
    if draw(st.booleans()):
        poly = [-draw(st.integers(1, 9))] + [0] * (degree - 1) + [draw(st.integers(1, 3))]
    else:
        poly = draw(st.lists(st.integers(-9, 9), min_size=degree, max_size=degree))
        poly.append(draw(st.integers(1, 9)))
    sf = polys.squarefree_part(poly)
    assume(polys.degree(sf) >= 2)
    try:
        a = scalars.least_root(polys.sturm_chain(sf), Q(-10), Q(10))
    except ArithmeticError:
        assume(False)
    assume(isinstance(a, Alg))
    return a


class TestPowerCollapse:
    """The degree rule: for 0 < k < deg, x^k is its own remainder, so
    _alg_power_collapse answers None with no polynomial division; from
    k = deg on it reduces as before."""

    @given(power_bases())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_the_fraction_square_and_multiply(self, a):
        deg = len(a.poly) - 1
        divisions = [0]
        real = polys.divmod_exact

        def counted(p, q):
            divisions[0] += 1
            return real(p, q)

        for k in range(1, 3 * deg + 1):
            divisions[0] = 0
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(polys, "divmod_exact", counted)
                got = scalars._alg_power_collapse(a, k)
            assert got == fraction_power_collapse(a, k)
            assert k >= deg or divisions[0] == 0

    def test_known_collapses(self):
        sqrt2 = scalars.make_algebraic([-2, 0, 1], Q(1), Q(2))
        cbrt5 = scalars.make_algebraic([-5, 0, 0, 1], Q(1), Q(2))
        # sqrt(2) isolated as a root of the reducible x^4 - 4 = (x^2 - 2)(x^2 + 2)
        quartic = scalars.make_algebraic([-4, 0, 0, 0, 1], Q(1), Q(2))
        for a, k, expected in [(sqrt2, 1, None), (sqrt2, 2, 2), (sqrt2, 3, None),
                               (sqrt2, 4, 4), (cbrt5, 1, None), (cbrt5, 2, None),
                               (cbrt5, 3, 5), (cbrt5, 6, 25), (quartic, 2, None),
                               (quartic, 3, None), (quartic, 4, 4)]:
            assert scalars._alg_power_collapse(a, k) == expected
            assert fraction_power_collapse(a, k) == expected


class TestHash:
    """Alg and Product hash once, at construction, from integers."""

    def test_one_root_under_two_intervals_shares_one_cell(self, monkeypatch):
        a = scalars.make_algebraic([-1, 1, 1], 0, 1)
        b = scalars.make_algebraic([-1, 1, 1], Q(1, 2), 1)
        assert a is not b and a == b and hash(a) == hash(b)
        scalars._alg_cell(a, 97)
        info = scalars._alg_cell.cache_info()
        fraction_hashes = [0]
        fraction_hash = Fraction.__hash__

        def counted(self):
            fraction_hashes[0] += 1
            return fraction_hash(self)

        monkeypatch.setattr(Fraction, "__hash__", counted)
        cell = scalars._alg_cell(b, 97)
        monkeypatch.undo()
        after = scalars._alg_cell.cache_info()
        assert (after.hits, after.misses) == (info.hits + 1, info.misses)
        assert cell == scalars._alg_cell(a, 97) and fraction_hashes[0] == 0

    @given(products())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_equal_products_hash_equal(self, s):
        copy = Product(Q(s.rational.numerator, s.rational.denominator),
                       tuple((Alg(tuple(b.poly), Q(b.lo), Q(b.hi)), e) for b, e in s.factors))
        assert copy == s and hash(copy) == hash(s)
        assert {s: 1}[copy] == 1

    def test_one_power_built_two_ways_hashes_equal(self):
        g3 = scalars.make_power(golden(), 3)
        cubed = scalars.mul(golden(), golden(), golden())
        assert cubed == g3 and hash(cubed) == hash(g3)

    def test_repr_is_unchanged(self):
        g = golden()
        assert repr(g) == "Alg(poly=(-1, 1, 1), lo=Fraction(0, 1), hi=Fraction(1, 1))"
        s = scalars.mul(Rat(Q(-2, 7)), scalars.make_power(g, -3),
                        scalars.make_algebraic([-2, 0, 1], 1, 2))
        assert repr(s) == (
            "Product(rational=Fraction(-2, 7), factors=("
            "(Alg(poly=(-2, 0, 1), lo=Fraction(1, 1), hi=Fraction(2, 1)), 1), "
            "(Alg(poly=(-1, 1, 1), lo=Fraction(0, 1), hi=Fraction(1, 1)), -3)))")


class TestSameValue:
    def test_products_a_hair_apart_differ(self):
        g3 = scalars.make_power(golden(), 3)
        near = scalars.mul(Rat(1 + Q(1, 10**45)), g3)
        assert not scalars.same_value(g3, near)
        assert not scalars.same_value(near, g3)
        assert scalars.same_value(near, scalars.mul(Rat(1 + Q(1, 10**45)), g3))

    def test_products_over_two_bases(self):
        r, g = inv_sqrt2(), golden()
        p = scalars.mul(r, g)
        assert scalars.same_value(p, scalars.mul(g, r))
        assert not scalars.same_value(p, scalars.mul(Rat(1 + Q(1, 10**45)), p))

    def test_one_root_under_two_isolations_is_compared_fast(self):
        # both isolations give the cell [0, 1], so the ratio is exactly 1
        g = scalars.make_algebraic([-1, 1, 1], Q(1, 2), Q(1))
        ratio = scalars.mul(g, scalars.inv(golden()))
        assert ratio == Rat(1)
        start = time.monotonic()
        assert scalars.same_value(ratio, Rat(1))
        assert scalars.same_value(Rat(1), ratio)
        assert scalars.same_value(scalars.make_power(g, 3),
                                  scalars.make_power(golden(), 3))
        assert time.monotonic() - start < 1.0

    def test_roots_2_to_the_minus_299_apart(self):
        # g has the roots 1/3 +- 2^-300 sqrt 2; equality of its upper root
        # with the one of g (x - 5) is decided past 2^-237
        g = [2**599 - 9, -6 * 2**599, 9 * 2**599]
        upper = scalars.make_algebraic(g, Q(1, 3), Q(1))
        other = scalars.make_algebraic(polys.mul(g, [-5, 1]), Q(1, 3), Q(1))
        assert other != upper
        assert scalars.same_value(upper, other) and scalars.same_value(other, upper)
        # one root isolated twice is one object
        c = scalars.make_algebraic(g, Q(1, 3), Q(1, 2))
        assert c == upper and hash(c) == hash(upper)
        assert scalars.mul(upper, scalars.inv(c)) == Rat(1)
        lower = scalars.make_algebraic(g, Q(0), Q(1, 3))
        assert not scalars.same_value(upper, lower)
        assert not scalars.same_value(lower, other)

    def test_two_roots_of_one_polynomial_are_not_merged(self):
        # g and h are the two roots of x^2 + x - 1, so g h = -1 while
        # g^2 = 1 - g: merging h into g would read g h as g^2 and g / h as 1
        g = golden()
        h = scalars.make_algebraic([-1, 1, 1], Q(-2), Q(-1))
        p = scalars.mul(g, h)
        assert isinstance(p, Product) and len(p.factors) == 2
        assert not scalars.same_value(p, scalars.make_power(g, 2))
        assert not scalars.same_value(scalars.mul(g, scalars.inv(h)), Rat(1))
        assert abs(scalars.to_float(p) + 1) < 1e-15

    def test_distinct_roots_of_one_polynomial_under_one_factor(self):
        # u > w are the roots 1/3 +- 2^-300 sqrt 2 of g: 3u and 3w, and u^2
        # and w^2, have no common base, and their ratios separate from 1
        g = [2**599 - 9, -6 * 2**599, 9 * 2**599]
        u = scalars.make_algebraic(g, Q(1, 3), Q(1))
        w = scalars.make_algebraic(g, Q(0), Q(1, 3))
        assert not scalars.same_value(scalars.mul(u, 3), scalars.mul(w, 3))
        assert not scalars.same_value(scalars.make_power(u, 2),
                                      scalars.make_power(w, 2))

    def test_an_undecided_equality_raises(self):
        # sqrt 2 as a root of (x^2 - 2)(x + 1): its square is exactly 2, but
        # x^2 is not constant modulo the reducible polynomial
        s = scalars.make_algebraic([-2, -2, 1, 1], Q(1), Q(2))
        with pytest.raises(InvalidScalarError):
            scalars.same_value(scalars.make_power(s, 2), 2)

    def test_floats_and_enclosures_are_equal_only_as_one_point(self):
        half = Enc(Interval.point(Q(1, 2)))
        assert scalars.same_value(Flt(0.5), Rat(Q(1, 2)))
        assert scalars.same_value(half, Flt(0.5))
        assert not scalars.same_value(Flt(0.5), Flt(0.25))
        unit = Enc(Interval(Q(0), Q(1)))
        assert not scalars.same_value(unit, unit)
        assert not scalars.same_value(Flt(GOLDEN_FLOAT), golden())

    def test_compare_rational_keeps_its_full_depth(self):
        # a dyadic within 2^-2300 below the root still separates from it
        g = golden()
        lo = scalars.refine(g, Q(1, 2**2300)).lo
        assert scalars.compare_rational(g, lo) == 1
        assert scalars.compare_rational(g, lo + Q(1, 2**2300)) == -1


class TestLogRatio:
    def test_rational_pair(self):
        v = scalars.log_ratio_rational(Q(1, 4), Q(1, 2))
        assert v.kind == "rational" and v.ratio == 2

    def test_irrational_pair_certified(self):
        v = scalars.log_ratio_rational(Q(1, 6), Q(1, 3))
        assert v.kind == "irrational"

    def test_float_pair_heuristic(self):
        v = scalars.log_ratio_rational(Flt(0.25), Flt(0.5))
        assert v.kind == "rational" and v.ratio == 2

    @given(st.fractions(min_value=Fraction(1, 10), max_value=Fraction(9, 10),
                        max_denominator=10),
           st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_power_pairs_are_rational(self, base, p, q):
        if base == 1:
            return
        v = scalars.log_ratio_rational(Q(base**p), Q(base**q))
        assert v.kind == "rational" and v.ratio == Fraction(p, q)


class TestJsonRoundtrip:
    def scalars_sample(self):
        g = golden()
        return [
            Rat(Q(3, 7)),
            g,
            scalars.make_power(g, 3),
            scalars.mul(Rat(Q(1, 2)), scalars.make_power(g, 2)),
            Flt(0.375),
            scalars.add(g, Rat(Q(1, 3))),  # enclosure
        ]

    def test_roundtrip_preserves_value(self):
        for s in self.scalars_sample():
            back = scalars.scalar_from_json(scalars.scalar_to_json(s))
            assert type(back) is type(s)
            assert abs(scalars.to_float(back) - scalars.to_float(s)) < 1e-12
            if scalars.is_exact(s):
                assert scalars.same_value(back, s)

    @pytest.mark.parametrize("doc", [
        {"type": "rational", "num": 1, "den": 0},
        {"type": "rational", "num": 1},
        {"type": "rational", "num": 1.5, "den": 2},
        {"type": "rational", "num": "1", "den": 2},
        {"type": "product", "rational": {"num": 1, "den": 0}, "factors": []},
        {"type": "algebraic", "poly": [-1, 1, 1]},
        "1/0",
    ])
    def test_malformed_json_raises_invalid_scalar(self, doc):
        with pytest.raises(InvalidScalarError):
            scalars.scalar_from_json(doc)

    def test_rational_schema_shape(self):
        doc = scalars.scalar_to_json(Rat(Q(1, 2)))
        assert doc == {"type": "rational", "num": 1, "den": 2}


class TestRendering:
    def test_fmt15_significant_digits(self):
        assert scalars.fmt15(0.5) == "0.5"
        text = scalars.fmt15(GOLDEN_FLOAT)
        assert text.startswith("0.61803398874989")

    def test_to_float_matches_refinement(self):
        for s in (golden(), scalars.make_power(golden(), 2),
                  scalars.mul(Rat(Q(1, 2)), golden())):
            iv = scalars.refine(s, Q(1, 10**13))
            assert float(iv.lo) - 1e-12 <= scalars.to_float(s) <= float(iv.hi) + 1e-12

    def test_power_far_below_the_float_range_is_zero_without_its_enclosure(self):
        start = time.monotonic()
        assert scalars.to_float(scalars.make_power(golden(), 20000)) == 0.0
        tiny = scalars.mul(Rat(Q(-3, 7)), scalars.make_power(cubic_root(), 50000))
        value = scalars.to_float(tiny)
        assert value == 0.0 and math.copysign(1.0, value) == -1.0
        assert time.monotonic() - start < 1.0

    def test_powers_near_the_smallest_float_keep_the_enclosure_path(self):
        # r = 1/sqrt 3 on its own isolating interval, so that no other test
        # has narrowed its bracket: r^e = 2^(-0.79248 e) is a subnormal float
        # up to e = 1355, and the shortcut may only fire once e passes 1366
        r = scalars.make_algebraic([-1, 0, 3], Q(0), Q(1))
        for e in range(1330, 1400, 2):
            s = scalars.make_power(r, e)
            expected = float(scalars.refine(s, Q(1, 10**17)).mid)
            assert scalars.to_float(s) == expected, e
        assert scalars.to_float(scalars.make_power(r, 1355)) > 0
