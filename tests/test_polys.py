"""Polynomial layer: root counting and isolation against a numpy oracle,
the integer Sturm chain, isolation and exact division against their
Fraction forms, and determinants of polynomial matrices.

Coefficient lists are constant-first throughout.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ckkms import polys

# ---------------------------------------------------------------------------
# independent oracles


def np_real_roots_in(coeffs, lo, hi, pad=1e-9):
    """Real roots of a constant-first integer polynomial inside [lo, hi]."""
    # numpy wants highest-degree-first
    arr = np.array(list(reversed([float(c) for c in coeffs])))
    roots = np.roots(arr)
    real = [r.real for r in roots if abs(r.imag) < 1e-8]
    return sorted(r for r in real if lo - pad <= r <= hi + pad)


def bisect_root(f, lo: float, hi: float, steps: int = 80) -> float:
    assert f(lo) <= 0 <= f(hi)
    for _ in range(steps):
        mid = (lo + hi) / 2
        if f(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return lo


def det_by_permutations(mat_values):
    """Exact determinant of a small Fraction matrix via the Leibniz formula."""
    n = len(mat_values)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Fraction(1)
        for i in range(n):
            term *= mat_values[i][perm[i]]
        total += sign * term
    return total


def count(p, lo, hi):
    """count_roots on the Sturm chain of p."""
    return polys.count_roots(polys.sturm_chain(p), lo, hi)


def isolate(p, lo, hi):
    """isolate_smallest_root on the squarefree part of p and its chain."""
    return polys.isolate_smallest_root(
        polys.sturm_chain(polys.squarefree_part(p)), lo, hi)


# ---------------------------------------------------------------------------
# Fraction oracles: the rational remainder sequence, division and isolation
# that the integer kernel replaces


def fraction_div_exact(p, q):
    quot, rem = polys.divmod_exact(p, q)
    if rem:
        raise ArithmeticError("inexact polynomial division")
    return quot


def fraction_squarefree_part(p):
    """p / gcd(p, p') over the rationals, made primitive."""
    a, b = polys.trim(p), polys.derivative(p)
    while b:
        a, b = b, polys.divmod_exact(a, b)[1]
    return polys.content_primitive(fraction_div_exact(p, a))[1]


def fraction_sturm_chain(p):
    chain = [polys.trim(p), polys.derivative(p)]
    while chain[-1]:
        chain.append(polys.neg(polys.divmod_exact(chain[-2], chain[-1])[1]))
    chain.pop()
    return chain


def fraction_variations(chain, x):
    signs = [v > 0 for v in (polys.eval_at(p, x) for p in chain) if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def fraction_isolate_smallest_root(p, lo, hi):
    """Bisection on Sturm counts with Fraction evaluation throughout."""
    sf = fraction_squarefree_part(p)
    chain = fraction_sturm_chain(sf)

    def between(a, b):
        return fraction_variations(chain, a) - fraction_variations(chain, b)

    while polys.eval_at(sf, lo) == 0:
        lo += (hi - lo) / 1024
    while polys.eval_at(sf, hi) == 0:
        hi -= (hi - lo) / 1024
    if between(lo, hi) <= 0:
        raise ArithmeticError("no root in the requested interval")
    while True:
        mid = (lo + hi) / 2
        if polys.eval_at(sf, mid) == 0:
            mid += (hi - lo) / 1024
        left = between(lo, mid)
        if left >= 1:
            hi = mid
            if left == 1:
                break
        else:
            lo = mid
    while polys.eval_at(sf, lo) * polys.eval_at(sf, hi) > 0 or hi - lo > Fraction(1, 4):
        mid = (lo + hi) / 2
        if polys.eval_at(sf, mid) == 0:
            mid += (hi - lo) / 1024
        if between(lo, mid) >= 1:
            hi = mid
        else:
            lo = mid
    return lo, hi


def isolate_both(p, lo, hi):
    """(integer result, Fraction result), each an interval or the exception
    type it raised."""
    out = []
    for iso in (isolate, fraction_isolate_smallest_root):
        try:
            out.append(iso(p, lo, hi))
        except ArithmeticError as exc:
            out.append(type(exc))
    return out


# ---------------------------------------------------------------------------
# basic operations


class TestBasicOps:
    def test_eval_constant_first_convention(self):
        # 1 - x - x^2 at x = 2 is 1 - 2 - 4 = -5
        assert polys.eval_at([1, -1, -1], Fraction(2)) == -5

    def test_degree_and_trim(self):
        assert polys.degree([3, 0, 0]) == 0
        assert polys.trim([1, 2, 0, 0]) == [1, 2]
        assert polys.trim([0, 0]) == []

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=6),
           st.lists(st.integers(-9, 9), min_size=1, max_size=6),
           st.fractions(min_value=-5, max_value=5, max_denominator=12))
    @settings(max_examples=60, deadline=None)
    def test_mul_add_agree_with_pointwise(self, p, q, x):
        fp, fq = polys.eval_at(p, x), polys.eval_at(q, x)
        assert polys.eval_at(polys.mul(p, q), x) == fp * fq
        assert polys.eval_at(polys.add(p, q), x) == fp + fq
        assert polys.eval_at(polys.sub(p, q), x) == fp - fq

    @given(st.lists(st.integers(-9, 9), min_size=2, max_size=5),
           st.lists(st.integers(-9, 9), min_size=2, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_div_exact_roundtrip(self, p, q):
        if not polys.trim(q):
            return
        prod = polys.mul(p, q)
        assert polys.trim(polys.div_exact(prod, q)) == polys.trim(
            [Fraction(c) for c in p])

    def test_derivative(self):
        # d/dx (1 + 2x + 3x^2) = 2 + 6x
        assert polys.trim(polys.derivative([1, 2, 3])) == [2, 6]


class TestRootCounting:
    def test_known_counts(self):
        golden = [-1, 1, 1]  # x^2 + x - 1
        assert count(golden, Fraction(0), Fraction(1)) == 1
        assert count(golden, Fraction(-2), Fraction(0)) == 1
        cubic = [-1, 1, 0, 1]  # x^3 + x - 1
        assert count(cubic, Fraction(0), Fraction(1)) == 1
        assert count([-2, 0, 1], Fraction(3), Fraction(4)) == 0

    @given(st.lists(st.integers(-6, 6), min_size=3, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_count_matches_numpy(self, coeffs):
        p = polys.trim(coeffs)
        if polys.degree(p) < 1:
            return
        sf = polys.squarefree_part(p)
        # avoid oracle ambiguity when a root sits on the window edge
        lo, hi = Fraction(-7, 3), Fraction(7, 3)
        if polys.eval_at(sf, lo) == 0 or polys.eval_at(sf, hi) == 0:
            return
        got = count(p, lo, hi)
        oracle = np_real_roots_in(sf, float(lo), float(hi))
        # count distinct oracle roots (cluster within 1e-6)
        distinct = []
        for r in oracle:
            if not distinct or r - distinct[-1] > 1e-6:
                distinct.append(r)
        assert got == len(distinct)

    def test_squarefree_part_drops_multiplicity(self):
        # (x - 1)^2 (x + 2) = constant-first expansion
        p = polys.mul(polys.mul([-1, 1], [-1, 1]), [2, 1])
        sf = polys.squarefree_part(p)
        assert polys.degree(sf) == 2
        assert polys.eval_at(sf, Fraction(1)) == 0
        assert polys.eval_at(sf, Fraction(-2)) == 0


class TestIsolation:
    @pytest.mark.parametrize(
        "coeffs,expected",
        [
            ([-1, 1, 1], 0.6180339887498949),       # x^2 + x - 1
            ([-1, 1, 0, 1], 0.6823278038280193),    # x^3 + x - 1
            ([-1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1], 0.9127694673795899),
        ],
    )
    def test_smallest_root_in_unit_interval(self, coeffs, expected):
        oracle = bisect_root(lambda x: polys.eval_at(coeffs, x), 0.0, 1.0)
        assert abs(oracle - expected) < 1e-12
        iv = isolate(coeffs, Fraction(0), Fraction(1))
        lo, hi = polys.refine_root(coeffs, iv[0], iv[1], Fraction(1, 10**12))
        assert float(lo) <= expected <= float(hi)
        assert hi - lo <= Fraction(1, 10**12)


def fraction_refine_root(p, lo, hi, width):
    """Bisection of a sign-change bracket with Fraction evaluation at every
    midpoint, the oracle for refine_root's integer bisection."""
    flo = polys.eval_at(p, lo)
    fhi = polys.eval_at(p, hi)
    if flo == 0:
        return lo, lo
    if fhi == 0:
        return hi, hi
    if (flo > 0) == (fhi > 0):
        raise ArithmeticError("bracket endpoints must straddle a sign change")
    while hi - lo > width:
        mid = (lo + hi) / 2
        fmid = polys.eval_at(p, mid)
        if fmid == 0:
            return mid, mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    return lo, hi


def refine_both(p, lo, hi, width):
    """(integer result, Fraction result), each a bracket or the exception
    type it raised."""
    out = []
    for refine in (polys.refine_root, fraction_refine_root):
        try:
            out.append(refine(p, lo, hi, width))
        except ArithmeticError as exc:
            out.append(type(exc))
    return out


NON_DYADIC = st.builds(Fraction, st.integers(-40, 40), st.sampled_from([3, 5, 6, 7, 9, 11]))


class TestRefineRoot:
    """The integer bisection against the Fraction one: the same brackets,
    endpoint types included, on the same inputs."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=6), NON_DYADIC,
           st.integers(0, 1), NON_DYADIC.map(abs).filter(bool),
           NON_DYADIC.map(abs).filter(bool),
           st.sampled_from([Fraction(1, 3), Fraction(1, 10**6), Fraction(1, 10**40)]))
    def test_matches_fraction_bisection(self, q, root, shift, below, above, width):
        # q(x) (d x - n) + shift for root = n/d: a rational root inside the
        # bracket [root - below, root + above], or one moved off it
        p = polys.add(polys.mul(q, [-root.numerator, root.denominator]), [shift])
        new, old = refine_both(p, root - below, root + above, width)
        assert new == old
        if isinstance(old, tuple):
            assert [type(v) for v in new] == [type(v) for v in old]

    def test_root_at_a_midpoint(self):
        # 3x - 1 on [0, 2/3] has its root at the first midpoint, and
        # 6x - 5 on [1/3, 1] at the second
        for p, lo, hi in (([-1, 3], Fraction(0), Fraction(2, 3)),
                          ([-5, 6], Fraction(1, 3), Fraction(1))):
            new, old = refine_both(p, lo, hi, Fraction(1, 10**9))
            assert new == old
            assert new[0] == new[1] and polys.eval_at(p, new[0]) == 0

    def test_bracket_already_narrow_is_returned_as_passed(self):
        for lo, hi in ((Fraction(1, 3), Fraction(2, 3)), (0, 1)):
            for p in ([-1, 2], [-1, 1, 1]):
                new, old = refine_both(p, lo, hi, Fraction(1))
                assert new == old == (lo, hi)
                assert new[0] is lo and new[1] is hi

    def test_rational_coefficients(self):
        p = [Fraction(-1, 3), Fraction(1, 7), Fraction(5, 2)]
        new, old = refine_both(p, Fraction(0), Fraction(1), Fraction(1, 10**30))
        assert new == old
        assert new[1] - new[0] <= Fraction(1, 10**30)
        assert polys.eval_at(p, new[0]) < 0 < polys.eval_at(p, new[1])


@st.composite
def kernel_polynomials(draw):
    """q r^k times a nonzero rational c: integer polynomials with a repeated
    factor, and rational coefficients when c is not an integer.  A sparse q
    gives remainder sequences that drop two degrees at once."""
    p = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4)
             | st.lists(st.sampled_from([-2, -1, 0, 0, 0, 1, 2]), min_size=4, max_size=7))
    r = draw(st.lists(st.integers(-4, 4), min_size=2, max_size=3))
    for _ in range(draw(st.integers(0, 2))):
        p = polys.mul(p, r)
    c = draw(st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool))
    p = polys.scale(p, c)
    assume(polys.degree(p) >= 1)
    return p


POINTS = st.fractions(min_value=-4, max_value=4, max_denominator=16)


class TestIntegerKernel:
    """The integer chain, squarefree part and isolation against the Fraction
    remainder sequence they replace."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(kernel_polynomials(), st.lists(POINTS, min_size=1, max_size=6))
    def test_chain_is_a_positive_multiple_of_the_fraction_chain(self, p, xs):
        chain, oracle = polys.sturm_chain(p), fraction_sturm_chain(p)
        assert len(chain) == len(oracle)
        for member, ref in zip(chain, oracle):
            assert all(isinstance(c, int) for c in member)
            assert len(member) == len(ref) and member[-1] * ref[-1] > 0
            assert polys.scale(member, ref[-1]) == polys.scale(ref, member[-1])
        for x in xs:
            assert polys.sign_variations(chain, x) == fraction_variations(oracle, x)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(kernel_polynomials(), POINTS, POINTS)
    def test_squarefree_part_and_isolation_match(self, p, a, b):
        assume(a != b)
        assert polys.squarefree_part(p) == fraction_squarefree_part(p)
        new, old = isolate_both(p, min(a, b), max(a, b))
        assert new == old

    def test_degree_gap_under_a_negative_leading_coefficient(self):
        # x^5 + x^2 - 2: the chain drops two degrees below a divisor with a
        # negative leading coefficient, where -sign(lc)^(delta + 1) is +1
        p = [-2, 0, 1, 0, 0, 1]
        chain, oracle = polys.sturm_chain(p), fraction_sturm_chain(p)
        assert [len(m) for m in chain] == [len(m) for m in oracle] == [6, 5, 3, 2, 1]
        assert [m[-1] > 0 for m in chain] == [m[-1] > 0 for m in oracle]
        for x in (Fraction(-2), Fraction(0), Fraction(1), Fraction(3, 2)):
            assert polys.sign_variations(chain, x) == fraction_variations(oracle, x)

    def test_rational_root_at_a_midpoint_takes_the_nudge(self):
        # (2x - 1)(x^2 + x - 1): the first cut of (0, 1) is the root 1/2
        p = polys.mul([-1, 2], [-1, 1, 1])
        new, old = isolate_both(p, Fraction(0), Fraction(1))
        assert new == old
        lo, hi = new
        assert lo < Fraction(1, 2) < hi and hi - lo <= Fraction(1, 4)
        assert count(p, lo, hi) == 1

    def test_inexact_division_raises(self):
        assert polys.div_exact([-1, 0, 1], [-1, 1]) == [1, 1]
        for p, q in (([1, 0, 1], [1, 1]),   # remainder 2
                     ([0, 1], [0, 2]),      # quotient 1/2
                     ([3], [0, 1])):        # divisor of higher degree
            with pytest.raises(ArithmeticError):
                polys.div_exact(p, q)


class TestPolymatDet:
    def test_matches_leibniz_after_substitution(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 3)
            mat = [[[rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
                    for _ in range(n)] for _ in range(n)]
            det = polys.polymat_det(mat)
            for t in (Fraction(0), Fraction(1, 2), Fraction(2), Fraction(-3, 5)):
                values = [[polys.eval_at(p, t) for p in row] for row in mat]
                assert polys.eval_at(det, t) == det_by_permutations(values)

    def test_singular_matrix_gives_zero_polynomial(self):
        # second row is twice the first
        mat = [[[0, 1], [1]], [[0, 0, 2], [0, 2]]]
        assert polys.polymat_det(mat) == []

    def test_zero_column_gives_zero_polynomial(self):
        mat = [[[], [1]], [[], [0, 1]]]
        assert polys.polymat_det(mat) == []

    def test_golden_determinant(self):
        # det of [[t-1, t], [t, -1]] = 1 - t - t^2... built from entries
        mat = [[[-1, 1], [0, 1]], [[0, 1], [-1]]]
        assert polys.trim(polys.polymat_det(mat)) == [1, -1, -1]
