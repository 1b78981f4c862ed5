"""Closed intervals with rational endpoints, plus rigorous exp/log enclosures.

All endpoints are Fractions, so +, -, * and integer powers are exact.  Every
exp enclosure comes from one integer kernel, exp_neg_grid, which takes
t = num/den as two integers and brackets e^-t on a power-of-two grid with a
Taylor series rounded outward term by term, and every log enclosure from a
second one, _atanh_grid, which brackets atanh(u) the same way for
0 <= u <= 1/3.  Every function here returns an interval that is guaranteed
to contain the true value, except the two kernels, which return the same
guarantee as two integers on a power-of-two grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

Q = Fraction


def _to_q(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # floats are exact dyadic rationals
    raise TypeError(f"cannot interpret {x!r} as a rational endpoint")


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", _to_q(self.lo))
        object.__setattr__(self, "hi", _to_q(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @staticmethod
    def point(x) -> "Interval":
        x = _to_q(x)
        return Interval(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __contains__(self, x) -> bool:
        x = _to_q(x)
        return self.lo <= x <= self.hi

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def __add__(self, other) -> "Interval":
        other = other if isinstance(other, Interval) else Interval.point(other)
        return Interval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other) -> "Interval":
        other = other if isinstance(other, Interval) else Interval.point(other)
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __rsub__(self, other) -> "Interval":
        return Interval.point(other) - self

    def __mul__(self, other) -> "Interval":
        other = other if isinstance(other, Interval) else Interval.point(other)
        if self.lo >= 0 and other.lo >= 0:
            return Interval(self.lo * other.lo, self.hi * other.hi)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(products), max(products))

    __rmul__ = __mul__

    def reciprocal(self) -> "Interval":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError(f"interval [{self.lo}, {self.hi}] contains 0")
        return Interval(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other) -> "Interval":
        other = other if isinstance(other, Interval) else Interval.point(other)
        return self * other.reciprocal()

    def __pow__(self, k: int) -> "Interval":
        if not isinstance(k, int):
            raise TypeError("interval powers must have integer exponents")
        if k < 0:
            return (self ** (-k)).reciprocal()
        if k == 0:
            return Interval.point(1)
        if k % 2 == 1 or self.lo >= 0:
            return Interval(self.lo**k, self.hi**k)
        if self.hi <= 0:
            return Interval(self.hi**k, self.lo**k)
        return Interval(Q(0), max(self.lo**k, self.hi**k))

    def outward(self, bits: int) -> "Interval":
        """The narrowest interval on the grid 2^-bits that contains this one;
        a point stays an exact point."""
        if self.lo == self.hi:
            return self
        scale = 1 << bits
        return Interval(Q(math.floor(self.lo * scale), scale),
                        Q(math.ceil(self.hi * scale), scale))

    def distance_sup(self, other: "Interval") -> Fraction:
        """Largest possible |x - y| with x in self, y in other."""
        return max(abs(self.hi - other.lo), abs(other.hi - self.lo))

    def __repr__(self) -> str:
        return f"Interval({self.lo}, {self.hi})"


def exp_interval_point(t: Fraction, precision: Fraction = Q(1, 10**15)) -> Interval:
    """Rigorous enclosure of e^t for a single rational t, of width at most
    `precision`, with a positive lower endpoint and both endpoints on the
    grid 2^-bits.

    One exp_neg_grid call on the numerator and denominator of |t| brackets
    e^-|t| * 2^bits within 2 grid units.  With L = bitlen(floor(1/precision)),
    2^-L < precision.  For t <= 0 that bracket is the enclosure: bits = L + 1
    meets the width, and 1.5|t| more bits put e^t * 2^bits above 2, so
    lo >= 1.  For t > 0 the bracket is inverted outward in integers, which
    widens it to at most 4 e^2t + 2 <= 6 e^2t grid units; bits = L + 3 + 3t
    absorbs that.
    """
    t = _to_q(t)
    precision = _to_q(precision)
    if precision <= 0:
        raise DomainError("precision must be positive")
    width_bits = (precision.denominator // precision.numerator).bit_length()
    if t <= 0:
        bits = width_bits + 1 + math.ceil(-t * 3 / 2)
        lo, hi = exp_neg_grid(-t.numerator, t.denominator, bits)
    else:
        bits = width_bits + 3 + math.ceil(3 * t)
        lo, hi = exp_neg_grid(t.numerator, t.denominator, bits)
        scale = 1 << 2 * bits
        lo, hi = scale // hi, -(-scale // lo)
    return Interval(Q(lo, 1 << bits), Q(hi, 1 << bits))


def exp_interval(t: Interval, precision: Fraction = Q(1, 10**15)) -> Interval:
    """Enclosure of {e^x : x in t}; exp is monotone so endpoints suffice."""
    lo = exp_interval_point(t.lo, precision)
    hi = lo if t.hi == t.lo else exp_interval_point(t.hi, precision)
    return Interval(lo.lo, hi.hi)


# Halving the argument below 2^-8 first shortens the series more than the
# eight extra squarings cost (about 2x at 110 bits).
_EXP_GRID_HALVINGS = 8


def exp_neg_grid(num: int, den: int, bits: int) -> tuple[int, int]:
    """Integers lo <= e^-t * 2^bits <= hi, with hi - lo <= 2, for t = num/den
    with integers num >= 0 and den > 0, in integer arithmetic only.  The
    ratio need not be reduced: the bracket depends only on its value.

    t is halved k times into [0, 2^-8) and rounded outward onto the grid
    2^-p, p = bits + k + 16.  e^(t/2^k) is bracketed by its Taylor series with
    every term floored for the lower and ceiled for the upper bound; for an
    argument <= 1 the tail after term K is at most 2 * term_K.  The bracket
    is squared k times (each squaring doubles its relative width, which the
    k guard bits absorb) and inverted onto the grid 2^-bits, every step
    rounded outward (Brent and Zimmermann, Modern Computer Arithmetic,
    ch. 4).
    """
    if num < 0 or den <= 0:
        raise DomainError("exp_neg_grid needs num >= 0 and den > 0")
    if num >= bits * den:  # e^-t * 2^bits <= (2/e)^bits < 1
        return 0, 1
    k = (num // den).bit_length() + _EXP_GRID_HALVINGS
    p = bits + k + 16
    x_lo, rem = divmod(num << (p - k), den)
    x_hi = x_lo + (rem != 0)
    lo = hi = term_lo = term_hi = 1 << p
    i = 0
    while term_hi > 1:
        i += 1
        term_lo = term_lo * x_lo // (i << p)
        term_hi = -(-term_hi * x_hi // (i << p))
        lo += term_lo
        hi += term_hi
    hi += 2 * term_hi
    for _ in range(k):
        lo = (lo * lo) >> p
        hi = -((-hi * hi) >> p)
    scale = 1 << (bits + p)
    return scale // hi, -(-scale // lo)


def _atanh_grid(num: int, den: int, p: int) -> tuple[int, int]:
    """Integers lo <= atanh(num/den) * 2^p <= hi, hi - lo <= p + 3, for
    integers 0 <= num <= den/3 and p >= 3, in integer arithmetic only.

    Each power u^(2i+1) * 2^p is kept floored and ceiled, at most 2 apart
    as u^2 <= 1/9, and each term u^(2i+1)/(2i+1) is floored for lo and
    ceiled for hi, adding at most 2 to hi - lo.  The sum stops at the first
    ceiled power <= 1, after at most (p + 2)/3 terms; the tail is at most
    9/8 of that power, which hi counts as 2.
    """
    n2, d2 = num * num, den * den
    pw_lo, rem = divmod(num << p, den)
    pw_hi = pw_lo + (rem != 0)
    lo = hi = 0
    k = 1
    while pw_hi > 1:
        lo += pw_lo // k
        hi -= -pw_hi // k
        pw_lo = pw_lo * n2 // d2
        pw_hi = -(-pw_hi * n2 // d2)
        k += 2
    return lo, hi + 2 * pw_hi


def log_interval_point(x: Fraction, precision: Fraction = Q(1, 10**15)) -> Interval:
    """Rigorous enclosure of ln(x) for a positive rational x, of width at
    most `precision`, with both endpoints on the grid 2^-(p-1).

    With x = 2^k m, m in [2/3, 4/3] and u = (m-1)/(m+1), |u| <= 1/5,
    ln x = 2 atanh(u) + 2k atanh(1/3).  Both atanh brackets come from
    _atanh_grid at p bits, so with c = 1 + |k| the enclosure is at most
    2c(p + 3) units of 2^-p wide.  With L = bitlen(floor(1/precision)),
    2^-L < precision, and p = L + g for g = bitlen(c) + bitlen(c + L) + 5
    gives 2^g > 32c(c + L) >= 2c(p + 3), so the width is below 2^-L.
    """
    x = _to_q(x)
    precision = _to_q(precision)
    if precision <= 0:
        raise DomainError("precision must be positive")
    if x <= 0:
        raise DomainError("log of a non-positive rational")
    a, b = x.numerator, x.denominator
    k = a.bit_length() - b.bit_length()  # a / (b 2^k) is in (1/2, 2)
    a, b = (a, b << k) if k >= 0 else (a << -k, b)
    if 3 * a > 4 * b:
        b, k = b << 1, k + 1
    elif 3 * a < 2 * b:
        a, k = a << 1, k - 1
    width_bits = (precision.denominator // precision.numerator).bit_length()
    c = 1 + abs(k)
    p = width_bits + c.bit_length() + (c + width_bits).bit_length() + 5
    u_lo, u_hi = _atanh_grid(abs(a - b), a + b, p)
    u_lo, u_hi = (u_lo, u_hi) if a >= b else (-u_hi, -u_lo)
    t_lo, t_hi = sorted(k * t for t in _atanh_grid(1, 3, p))
    return Interval(Q(u_lo + t_lo, 1 << p - 1), Q(u_hi + t_hi, 1 << p - 1))
