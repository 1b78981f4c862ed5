"""Dense univariate polynomial helpers over exact rationals.

Coefficient lists are constant-first: coeffs[k] is the coefficient of x^k.
The zero polynomial is the empty list.  These routines back the algebraic
scalar type (root isolation via Sturm chains) and the spectral solvers
(characteristic and determinant polynomials).  refine_root, the bisection
behind every algebraic enclosure, runs on integers: a scaled copy of p with
integer coefficients, evaluated homogeneously at integer numerators over
one power-of-two-scaled denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Q = Fraction
Poly = list  # list[Fraction | int], constant-first


def trim(p: Poly) -> Poly:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def degree(p: Poly) -> int:
    p = trim(p)
    return len(p) - 1 if p else -1


def eval_at(p: Poly, x: Fraction) -> Fraction:
    acc = Q(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def neg(p: Poly) -> Poly:
    return [-c for c in p]


def sub(p: Poly, q: Poly) -> Poly:
    return add(p, neg(q))


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def scale(p: Poly, c) -> Poly:
    return trim([a * c for a in p])


def divmod_exact(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    """Polynomial long division over the rationals."""
    q = trim(q)
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = [Q(c) for c in trim(p)]
    quot = [Q(0)] * max(0, len(rem) - len(q) + 1)
    lead = Q(q[-1])
    while len(rem) >= len(q):
        factor = rem[-1] / lead
        shift = len(rem) - len(q)
        quot[shift] = factor
        for i, c in enumerate(q):
            rem[shift + i] -= factor * c
        rem = trim(rem)
        if not rem:
            break
    return trim(quot), rem


def div_exact(p: Poly, q: Poly) -> Poly:
    quot, rem = divmod_exact(p, q)
    if rem:
        raise ArithmeticError("inexact polynomial division")
    return quot


def derivative(p: Poly) -> Poly:
    return trim([k * p[k] for k in range(1, len(p))])


def content_primitive(p: Poly) -> tuple[Fraction, Poly]:
    """Write p = c * q with q primitive integer coefficients, positive leading."""
    p = trim(p)
    if not p:
        return Q(0), []
    fracs = [Q(c) for c in p]
    den = lcm(*(c.denominator for c in fracs))
    ints = [int(c * den) for c in fracs]
    g = gcd(*ints)
    ints = [c // g for c in ints]
    sign = 1
    if ints[-1] < 0:
        ints = [-c for c in ints]
        sign = -1
    return Q(sign * g, den), ints


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd over the rationals."""
    a, b = trim(p), trim(q)
    while b:
        _, r = divmod_exact(a, b)
        a, b = b, r
    if not a:
        return []
    lead = Q(a[-1])
    return [Q(c) / lead for c in a]


def squarefree_part(p: Poly) -> Poly:
    """Primitive integer polynomial with the same distinct roots as p."""
    p = trim(p)
    if degree(p) <= 0:
        return p
    g = poly_gcd(p, derivative(p))
    if degree(g) <= 0:
        _, prim = content_primitive(p)
        return prim
    _, prim = content_primitive(div_exact(p, g))
    return prim


def sturm_chain(p: Poly) -> list[Poly]:
    chain = [trim(p), derivative(p)]
    while chain[-1]:
        _, r = divmod_exact(chain[-2], chain[-1])
        chain.append(neg(r))
    chain.pop()
    return chain


def _sign_variations(chain: list[Poly], x: Fraction) -> int:
    signs = []
    for p in chain:
        v = eval_at(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(p: Poly, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi]:
    Sturm's count, exact for any p whose ends are not roots of it, and for a
    squarefree p (the form its callers pass) also when they are."""
    if degree(p) <= 0:
        return 0
    chain = sturm_chain(p)
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)


def isolate_smallest_root(p: Poly, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Isolating interval (a, b) for the smallest root of p in (lo, hi).

    Returns endpoints with p(a) != 0, p(b) != 0, exactly one distinct root
    inside.  Raises if p has no root there.
    """
    sf = squarefree_part(p)
    chain = sturm_chain(sf)
    lo, hi = Q(lo), Q(hi)
    # nudge endpoints off roots
    while eval_at(sf, lo) == 0:
        lo += (hi - lo) / 1024
    while eval_at(sf, hi) == 0:
        hi -= (hi - lo) / 1024
    total = _sign_variations(chain, lo) - _sign_variations(chain, hi)
    if total <= 0:
        raise ArithmeticError("no root in the requested interval")
    while True:
        mid = (lo + hi) / 2
        if eval_at(sf, mid) == 0:
            mid += (hi - lo) / 1024  # rational root at midpoint; shift the cut
        left = _sign_variations(chain, lo) - _sign_variations(chain, mid)
        if left >= 1:
            hi = mid
            if left == 1:
                break
        else:
            lo = mid
    # now exactly one root in (lo, hi]; shrink until the sign changes strictly
    while eval_at(sf, lo) * eval_at(sf, hi) > 0 or (hi - lo) > Q(1, 4):
        mid = (lo + hi) / 2
        if eval_at(sf, mid) == 0:
            mid += (hi - lo) / 1024
        if _sign_variations(chain, lo) - _sign_variations(chain, mid) >= 1:
            hi = mid
        else:
            lo = mid
    return lo, hi


def sign_at(c: list, n: int, d: int) -> int:
    """Sign of p(n/d) for d > 0 and integer coefficients c of p: the sign of
    d^deg p(n/d) = sum_i c_i n^i d^(deg-i), by homogeneous Horner."""
    acc = 0
    dpow = 1
    for ci in reversed(c):
        acc = acc * n + ci * dpow
        dpow *= d
    return (acc > 0) - (acc < 0)


def refine_root(p: Poly, lo: Fraction, hi: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    """Bisect a sign-change bracket of p down to the requested width.

    The bisection runs on integers: p is scaled to primitive integer
    coefficients (a sign flip there is harmless, as every sign is compared
    with the one at lo), lo and hi are held as numerators over one
    denominator that doubles at every halving, and the sign at a midpoint
    n/D is that of the homogeneous form sum_i c_i n^i D^(d-i).  An endpoint that never moves
    is returned as it was passed; a root hit at a midpoint returns that
    point twice.
    """
    c = content_primitive(p)[1]
    qlo, qhi, width = Q(lo), Q(hi), Q(width)
    slo = sign_at(c, qlo.numerator, qlo.denominator)
    shi = sign_at(c, qhi.numerator, qhi.denominator)
    if slo == 0:
        return lo, lo
    if shi == 0:
        return hi, hi
    if slo == shi:
        raise ArithmeticError("bracket endpoints must straddle a sign change")
    den = lcm(qlo.denominator, qhi.denominator)
    nlo = qlo.numerator * (den // qlo.denominator)
    nhi = qhi.numerator * (den // qhi.denominator)
    moved_lo = moved_hi = False
    # hi - lo > width  <=>  (nhi - nlo) * width.den > width.num * den
    while (nhi - nlo) * width.denominator > width.numerator * den:
        mid = nlo + nhi
        nlo, nhi, den = nlo << 1, nhi << 1, den << 1
        smid = sign_at(c, mid, den)
        if smid == 0:
            return Q(mid, den), Q(mid, den)
        if smid == slo:
            nlo, moved_lo = mid, True
        else:
            nhi, moved_hi = mid, True
    return (Q(nlo, den) if moved_lo else lo), (Q(nhi, den) if moved_hi else hi)


def polymat_det(mat: list[list[Poly]]) -> Poly:
    """Determinant of a matrix of integer polynomials (Bareiss elimination)."""
    n = len(mat)
    m = [[trim(list(p)) for p in row] for row in mat]
    sign = 1
    prev = [1]  # previous pivot, divides exactly at each step
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return []  # whole column vanishes below row k: singular
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = sub(mul(m[i][j], m[k][k]), mul(m[i][k], m[k][j]))
                m[i][j] = div_exact(num, prev) if num else []
            m[i][k] = []
        prev = m[k][k] if m[k][k] else [1]
    det = m[n - 1][n - 1]
    return scale(det, sign) if sign < 0 else det
