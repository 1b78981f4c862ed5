"""Polynomial layer: root counting and isolation against a numpy oracle,
the integer Sturm chain, exact division and scalars.least_root against
their Fraction forms, and the determinant polynomial of the exact beta
solver against Fraction elimination and the Leibniz formula.

Coefficient lists are constant-first throughout.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ckkms import perron, polys, scalars
from ckkms.matrix01 import ZeroOneMatrix
from ckkms.scalars import Rat

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
    """scalars.least_root on the squarefree part of p and its chain."""
    return scalars.least_root(polys.sturm_chain(polys.squarefree_part(p)), lo, hi)


# ---------------------------------------------------------------------------
# Fraction oracles: evaluation, and the rational remainder sequence,
# division and isolation that the integer kernel replaces


def eval_at(p, x):
    """p(x) for a constant-first coefficient list, by Horner over Fraction."""
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


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
    signs = [v > 0 for v in (eval_at(p, x) for p in chain) if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def fraction_isolate_smallest_root(p, lo, hi):
    """Bisection on Sturm counts with Fraction evaluation throughout."""
    sf = fraction_squarefree_part(p)
    chain = fraction_sturm_chain(sf)

    def between(a, b):
        return fraction_variations(chain, a) - fraction_variations(chain, b)

    while eval_at(sf, lo) == 0:
        lo += (hi - lo) / 1024
    while eval_at(sf, hi) == 0:
        hi -= (hi - lo) / 1024
    if between(lo, hi) <= 0:
        raise ArithmeticError("no root in the requested interval")
    while True:
        mid = (lo + hi) / 2
        if eval_at(sf, mid) == 0:
            mid += (hi - lo) / 1024
        left = between(lo, mid)
        if left >= 1:
            hi = mid
            if left == 1:
                break
        else:
            lo = mid
    while eval_at(sf, lo) * eval_at(sf, hi) > 0 or hi - lo > Fraction(1, 4):
        mid = (lo + hi) / 2
        if eval_at(sf, mid) == 0:
            mid += (hi - lo) / 1024
        if between(lo, mid) >= 1:
            hi = mid
        else:
            lo = mid
    return lo, hi


def nudge_passes_a_root(p, lo, hi):
    """Whether the oracle, moving an end of (lo, hi) that is a root of p
    inward by 1/1024 of the interval, may pass over another root, so that
    its bracket need not hold the least root in (lo, hi)."""
    sf = fraction_squarefree_part(p)
    chain = fraction_sturm_chain(sf)
    step = (hi - lo) / 1024

    def roots_in(a, b):  # [a, b]
        return (fraction_variations(chain, a) - fraction_variations(chain, b)
                + (eval_at(sf, a) == 0))

    return ((eval_at(sf, lo) == 0 and roots_in(lo, lo + step) > 1)
            or (eval_at(sf, hi) == 0 and roots_in(hi - step, hi) > 1))


def assert_isolation_matches(p, lo, hi):
    """least_root against fraction_isolate_smallest_root on (lo, hi): both
    raise ArithmeticError, or a returned Rat is the one root in the oracle's
    bracket, or a returned cell shares exactly one root with that bracket."""
    try:
        a, b = fraction_isolate_smallest_root(p, lo, hi)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            isolate(p, lo, hi)
        return
    got = isolate(p, lo, hi)
    sf = fraction_squarefree_part(p)
    if isinstance(got, Rat):
        assert a < got.value < b and eval_at(sf, got.value) == 0
        return
    assert got.poly == tuple(sf)
    a, b = max(a, got.lo), min(b, got.hi)
    chain = fraction_sturm_chain(sf)
    assert a < b and fraction_variations(chain, a) - fraction_variations(chain, b) == 1


# ---------------------------------------------------------------------------
# basic operations


class TestBasicOps:
    def test_eval_constant_first_convention(self):
        # 1 - x - x^2 at x = 2 is 1 - 2 - 4 = -5
        assert eval_at([1, -1, -1], Fraction(2)) == -5

    def test_degree_and_trim(self):
        assert polys.degree([3, 0, 0]) == 0
        assert polys.trim([1, 2, 0, 0]) == [1, 2]
        assert polys.trim([0, 0]) == []

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=6),
           st.lists(st.integers(-9, 9), min_size=1, max_size=6),
           st.fractions(min_value=-5, max_value=5, max_denominator=12))
    @settings(max_examples=60, deadline=None)
    def test_mul_agrees_with_pointwise(self, p, q, x):
        assert eval_at(polys.mul(p, q), x) == eval_at(p, x) * eval_at(q, x)

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
        if eval_at(sf, lo) == 0 or eval_at(sf, hi) == 0:
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
        assert eval_at(sf, Fraction(1)) == 0
        assert eval_at(sf, Fraction(-2)) == 0


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
        oracle = bisect_root(lambda x: eval_at(coeffs, x), 0.0, 1.0)
        assert abs(oracle - expected) < 1e-12
        a = isolate(coeffs, Fraction(0), Fraction(1))
        lo, hi = polys.refine_root(coeffs, a.lo, a.hi, Fraction(1, 10**12))
        assert float(lo) <= expected <= float(hi)
        assert hi - lo <= Fraction(1, 10**12)


# x^2 - 2, x^2 + x - 1, 2x^2 - 1, 3x^2 - 7x + 1, x^2 + 1, x^3 - 2,
# x^3 - 3x + 1 and x^3 + x - 1: no rational root, so irreducible over Q
IRREDUCIBLE = ([-2, 0, 1], [-1, 1, 1], [-1, 0, 2], [1, -7, 3], [1, 0, 1],
               [-2, 0, 0, 1], [1, -3, 0, 1], [-1, 1, 0, 1])
RATIONAL_ROOTS = st.builds(Fraction, st.integers(-16, 16),
                           st.sampled_from([1, 2, 4, 8, 3, 5, 6]))


@st.composite
def least_root_inputs(draw):
    """(p, lo, hi): linear factors with dyadic and other rational roots
    times an irreducible quadratic or cubic shifted by an integer, on an
    interval whose ends are often roots of p or 0 and 1 (with the root 1/2
    at the first cut)."""
    roots = draw(st.lists(RATIONAL_ROOTS, max_size=3))
    q, shift = draw(st.sampled_from(IRREDUCIBLE)), draw(st.integers(-2, 2))
    p = []
    for c in reversed(q):  # q(x - shift) by Horner's rule
        p = polys.mul(p, [-shift, 1]) or [0]
        p[0] += c
    for r in roots:
        p = polys.mul(p, [-r.numerator, r.denominator])
    ends = st.sampled_from(roots + [Fraction(0), Fraction(1)]) | st.fractions(
        -4, 4, max_denominator=8)
    lo, hi = draw(ends), draw(ends)
    assume(lo < hi)
    return p, lo, hi


class TestLeastRoot:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(least_root_inputs())
    def test_matches_the_fraction_isolation(self, case):
        assume(not nudge_passes_a_root(*case))
        assert_isolation_matches(*case)


def fraction_refine_root(p, lo, hi, width):
    """Bisection of a sign-change bracket with Fraction evaluation at every
    midpoint, the oracle for refine_root's integer bisection."""
    flo = eval_at(p, lo)
    fhi = eval_at(p, hi)
    if flo == 0:
        return lo, lo
    if fhi == 0:
        return hi, hi
    if (flo > 0) == (fhi > 0):
        raise ArithmeticError("bracket endpoints must straddle a sign change")
    while hi - lo > width:
        mid = (lo + hi) / 2
        fmid = eval_at(p, mid)
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
        p = polys.mul(q, [-root.numerator, root.denominator]) or [0]
        p = polys.trim([p[0] + shift] + p[1:])
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
            assert new[0] == new[1] and eval_at(p, new[0]) == 0

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
        assert eval_at(p, new[0]) < 0 < eval_at(p, new[1])


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
    p = polys.trim([a * c for a in p])
    assume(polys.degree(p) >= 1)
    return p


POINTS = st.fractions(min_value=-4, max_value=4, max_denominator=16)


class TestIntegerKernel:
    """The integer chain, squarefree part and least_root against the
    Fraction remainder sequence and isolation they replace."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(kernel_polynomials(), st.lists(POINTS, min_size=1, max_size=6))
    def test_chain_is_a_positive_multiple_of_the_fraction_chain(self, p, xs):
        chain, oracle = polys.sturm_chain(p), fraction_sturm_chain(p)
        assert len(chain) == len(oracle)
        for member, ref in zip(chain, oracle):
            assert all(isinstance(c, int) for c in member)
            assert len(member) == len(ref) and member[-1] * ref[-1] > 0
            assert [a * ref[-1] for a in member] == [a * member[-1] for a in ref]
        for x in xs:
            assert polys.sign_variations(chain, x) == fraction_variations(oracle, x)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(kernel_polynomials(), POINTS, POINTS)
    def test_squarefree_part_and_isolation_match(self, p, a, b):
        assume(a != b)
        assert polys.squarefree_part(p) == fraction_squarefree_part(p)
        lo, hi = min(a, b), max(a, b)
        assume(not nudge_passes_a_root(p, lo, hi))
        assert_isolation_matches(p, lo, hi)

    def test_degree_gap_under_a_negative_leading_coefficient(self):
        # x^5 + x^2 - 2: the chain drops two degrees below a divisor with a
        # negative leading coefficient, where -sign(lc)^(delta + 1) is +1
        p = [-2, 0, 1, 0, 0, 1]
        chain, oracle = polys.sturm_chain(p), fraction_sturm_chain(p)
        assert [len(m) for m in chain] == [len(m) for m in oracle] == [6, 5, 3, 2, 1]
        assert [m[-1] > 0 for m in chain] == [m[-1] > 0 for m in oracle]
        for x in (Fraction(-2), Fraction(0), Fraction(1), Fraction(3, 2)):
            assert polys.sign_variations(chain, x) == fraction_variations(oracle, x)

    def test_rational_root_at_the_first_cut(self):
        # (2x - 1)(x^2 + x - 1): the first cut of (0, 1) is the root 1/2
        p = polys.mul([-1, 2], [-1, 1, 1])
        assert isolate(p, Fraction(0), Fraction(1)) == Rat(Fraction(1, 2))
        assert_isolation_matches(p, Fraction(0), Fraction(1))

    def test_inexact_division_raises(self):
        assert polys.div_exact([-1, 0, 1], [-1, 1]) == [1, 1]
        for p, q in (([1, 0, 1], [1, 1]),   # remainder 2
                     ([0, 1], [0, 2]),      # quotient 1/2
                     ([3], [0, 1])):        # divisor of higher degree
            with pytest.raises(ArithmeticError):
                polys.div_exact(p, q)


def fraction_content_primitive(p):
    """content_primitive by way of one Fraction per coefficient, the path an
    all-integer list no longer takes, kept as its oracle."""
    p = polys.trim(p)
    if not p:
        return Fraction(0), []
    fracs = [Fraction(c) for c in p]
    den = math.lcm(*(c.denominator for c in fracs))
    ints = [int(c * den) for c in fracs]
    g = math.gcd(*ints)
    ints = [c // g for c in ints]
    sign = 1
    if ints[-1] < 0:
        ints = [-c for c in ints]
        sign = -1
    return Fraction(sign * g, den), ints


# small coefficients, zeros, and coefficients of up to 200 bits
INTEGER_COEFFICIENTS = st.lists(
    st.integers(-9, 9) | st.just(0) | st.integers(-2**200, 2**200), min_size=1, max_size=8)


class TestContentPrimitive:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(INTEGER_COEFFICIENTS, st.integers(1, 2**64))
    def test_integers_match_the_fraction_path(self, p, scale):
        for q in (p, [scale * c for c in p]):
            c, prim = polys.content_primitive(q)
            assert (c, prim) == fraction_content_primitive(q)
            assert type(c) is Fraction and all(type(a) is int for a in prim)

    @pytest.mark.parametrize("p", [
        [6, -4, -2],                # negative leading coefficient
        [4, 0, 0, 0, 8],            # interior zeros
        [0, 0, -5],                 # a single term
        [7],                        # a constant
        [3 * 2**200, 0, -9 * 2**201, 0, 0],  # large, with trailing zeros
        [0, 0],                     # the zero polynomial
    ])
    def test_edge_cases_match_the_fraction_path(self, p):
        assert polys.content_primitive(p) == fraction_content_primitive(p)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
                    | st.integers(-9, 9), min_size=1, max_size=6))
    def test_fraction_entries_keep_the_fraction_path(self, p):
        assume(any(isinstance(c, Fraction) for c in p))
        assert polys.content_primitive(p) == fraction_content_primitive(p)


def fraction_det(mat):
    """Determinant of a Fraction matrix by Gaussian elimination with row
    swaps."""
    m = [[Fraction(v) for v in row] for row in mat]
    n, det = len(m), Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return det


def substituted(rows, exps, t):
    """diag(t^m) A - I at the point t."""
    return [[a * t ** e - (i == j) for j, a in enumerate(row)]
            for i, (row, e) in enumerate(zip(rows, exps))]


@st.composite
def det_inputs(draw):
    """Any 0-1 matrix up to 6x6 (zero diagonals, reducible and permutation
    matrices included) and exponents 1-4."""
    n = draw(st.integers(2, 6))
    row = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    permutation = st.permutations(range(n)).map(
        lambda p: [[int(j == k) for j in range(n)] for k in p])
    rows = draw(st.lists(row, min_size=n, max_size=n) | permutation)
    exps = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    return rows, exps


class TestDetPoly:
    """perron._det_poly, det(diag(t^m) A - I) read off one integer
    determinant, against determinants of the substituted matrix."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(det_inputs())
    def test_matches_fraction_elimination(self, case):
        # two polynomials of degree <= sum(m) that agree at sum(m) + 1
        # points are identical
        rows, exps = case
        det = perron._det_poly(ZeroOneMatrix(rows), exps)
        assert all(isinstance(c, int) for c in det)
        assert det[0] == (-1) ** len(rows)
        assert polys.degree(det) <= sum(exps)
        for j in range(sum(exps) + 1):
            t = Fraction(j, 7) - 1
            assert eval_at(det, t) == fraction_det(substituted(rows, exps, t))

    def test_matches_leibniz_after_substitution(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(2, 3)
            rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
            exps = [rng.randint(1, 3) for _ in range(n)]
            det = perron._det_poly(ZeroOneMatrix(rows), exps)
            for t in (Fraction(0), Fraction(1, 2), Fraction(2), Fraction(-3, 5)):
                assert eval_at(det, t) == det_by_permutations(
                    substituted(rows, exps, t))

    def test_golden_determinant(self):
        # det [[t - 1, t], [t, -1]] = 1 - t - t^2
        assert perron._det_poly(ZeroOneMatrix(((1, 1), (1, 0))), (1, 1)) == [1, -1, -1]
