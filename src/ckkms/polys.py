"""Dense univariate polynomial helpers on integers.

Coefficient lists are constant-first: coeffs[k] is the coefficient of x^k.
The zero polynomial is the empty list.  These routines back the algebraic
scalar type and the exact spectral solver (root isolation via Sturm chains),
and run fraction-free:

- poly_gcd and squarefree_part take gcds by primitive pseudo-remainder
  sequences, and squarefree_part divides out the gcd by integer long
  division (div_exact);
- sturm_chain builds each member from a pseudo-remainder whose sign makes
  it a positive multiple of the member the rational remainder sequence
  gives, reduced to its primitive part, so every sign-variation count is
  the rational chain's;
- every sign is that of an integer homogeneous form at a rational point
  n/d (sign_at), and refine_root bisects on numerators over one
  power-of-two denominator.

mul and divmod_exact, long division over the rationals, remain for reducing
powers modulo a defining polynomial.
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


def neg(p: Poly) -> Poly:
    return [-c for c in p]


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
    """The quotient p / q of integer polynomials, by integer long division;
    raises ArithmeticError unless it is exact with integer coefficients."""
    q = trim(q)
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(trim(p))
    nq, lead = len(q), q[-1]
    quot = [0] * max(0, len(rem) - nq + 1)
    for shift in range(len(quot) - 1, -1, -1):
        c, r = divmod(rem[shift + nq - 1], lead)
        if r:
            raise ArithmeticError("inexact polynomial division")
        if c:
            quot[shift] = c
            for i, b in enumerate(q):
                rem[shift + i] -= c * b
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return trim(quot)


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


def _primitive(p: Poly) -> Poly:
    """p divided by the gcd of its integer coefficients, sign kept."""
    g = gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _prem(a: Poly, b: Poly) -> Poly:
    """Pseudo-remainder of integer polynomials: lc(b)^(deg a - deg b + 1) a
    reduced modulo b, with no division."""
    r = list(a)
    nb, lb = len(b), b[-1]
    for top in range(len(r) - 1, nb - 2, -1):
        c = r.pop()
        r = [lb * x for x in r]
        for i in range(nb - 1):
            r[top - nb + 1 + i] -= c * b[i]
    return trim(r)


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """The gcd of p and q as a primitive integer polynomial with positive
    leading coefficient, by a primitive pseudo-remainder sequence."""
    a, b = content_primitive(p)[1], content_primitive(q)[1]
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_prem(a, b))
    return content_primitive(a)[1]


def squarefree_part(p: Poly) -> Poly:
    """Primitive integer polynomial with the same distinct roots as p and a
    positive leading coefficient."""
    p = trim(p)
    if degree(p) <= 0:
        return p
    prim = content_primitive(p)[1]
    return div_exact(prim, poly_gcd(prim, derivative(prim)))


def sturm_chain(p: Poly) -> list[Poly]:
    """Sturm chain of p on integers.  Member k is a positive multiple of
    member k of the rational chain p, p', -rem(p, p'), ...: the positive
    primitive multiples of p and p' first, then each pseudo-remainder
    times -sign(lc)^(delta + 1) (lc the leading coefficient of the divisor,
    delta the degree drop), reduced to its primitive part."""
    c, a = content_primitive(p)
    chain = [neg(a) if c < 0 else a]
    r = derivative(chain[0])
    while r:
        b = _primitive(r)
        a = chain[-1]
        chain.append(b)
        r = _prem(a, b)
        # -sign(lc)^(delta + 1) is +1 only for lc < 0 and delta even
        if not (b[-1] < 0 and (len(a) - len(b)) % 2 == 0):
            r = neg(r)
    return chain


def sign_at(c: list, n: int, d: int) -> int:
    """Sign of p(n/d) for d > 0 and integer coefficients c of p: the sign of
    d^deg p(n/d) = sum_i c_i n^i d^(deg-i), by homogeneous Horner."""
    acc = 0
    dpow = 1
    for ci in reversed(c):
        acc = acc * n + ci * dpow
        dpow *= d
    return (acc > 0) - (acc < 0)


def sign_variations(chain: list[Poly], x: Fraction) -> int:
    """Sign changes along the integer chain at x, zeros skipped."""
    n, d = x.numerator, x.denominator
    count = last = 0
    for p in chain:
        s = sign_at(p, n, d)
        if s:
            count += last == -s
            last = s
    return count


def count_roots(chain: list[Poly], lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p = chain[0] in the half-open
    interval (lo, hi], given its Sturm chain: Sturm's count, exact for any p
    whose ends are not roots of it, and for a squarefree p (the form its
    callers pass) also when they are."""
    return sign_variations(chain, lo) - sign_variations(chain, hi)


def isolate_smallest_root(chain: list[Poly], lo: Fraction,
                          hi: Fraction) -> tuple[Fraction, Fraction]:
    """Isolating interval (a, b) for the smallest root in (lo, hi) of the
    squarefree polynomial chain[0], given its Sturm chain.

    Returns endpoints with p(a) != 0, p(b) != 0, exactly one distinct root
    inside.  Raises if p has no root there.  A cut that lands on a rational
    root moves by 1/1024 of the bracket.
    """
    p = chain[0]

    def sign(x):
        return sign_at(p, x.numerator, x.denominator)

    lo, hi = Q(lo), Q(hi)
    # nudge endpoints off roots
    while sign(lo) == 0:
        lo += (hi - lo) / 1024
    while sign(hi) == 0:
        hi -= (hi - lo) / 1024
    vlo = sign_variations(chain, lo)
    if vlo - sign_variations(chain, hi) <= 0:
        raise ArithmeticError("no root in the requested interval")
    while True:
        mid = (lo + hi) / 2
        if sign(mid) == 0:
            mid += (hi - lo) / 1024
        vmid = sign_variations(chain, mid)
        if vlo - vmid >= 1:
            hi = mid
            if vlo - vmid == 1:
                break
        else:
            lo, vlo = mid, vmid
    # now exactly one root in (lo, hi]; shrink until the sign changes strictly
    while sign(lo) * sign(hi) > 0 or (hi - lo) > Q(1, 4):
        mid = (lo + hi) / 2
        if sign(mid) == 0:
            mid += (hi - lo) / 1024
        vmid = sign_variations(chain, mid)
        if vlo - vmid >= 1:
            hi = mid
        else:
            lo, vlo = mid, vmid
    return lo, hi


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
