"""Exact scalar values: rationals, algebraic numbers, their powers and products.

The tower has five shapes.  Rat wraps a Fraction.  Alg is a real irrational
algebraic number given by its squarefree integer polynomial (constant-first)
and the coarsest dyadic cell [m, m+1]/2^k, k >= 0, that isolates the root,
so that one root of one polynomial has one form.  Product is an exact
multiplicative combination: a rational coefficient times algebraic factors
with nonzero integer exponents; a single-base power x^k is
Product(1, ((x, k),)).  Flt is a float, always treated as heuristic.  Enc
is a value known only through a rigorous rational-endpoint enclosure.

The shapes decide how far a value can be trusted, its mode: `exact` for
Rat, Alg and Product, `certified` for Enc, `heuristic` for Flt.  A result
resting on several values takes the weakest of their modes, as an interval
result takes the weakest decoration of its inputs in IEEE Std 1788-2015.

Construction goes through make_algebraic / make_power / mul, which normalize:
rational roots collapse to Rat, x^k that is congruent to a constant modulo
the defining polynomial collapses to a rational power, empty products unwrap
and x^1 unwraps to x.  The collapse test needs no arithmetic for
0 < k < deg, where x^k is its own remainder and so not a constant (the
degree rule); only k >= deg is reduced.  Alg and Product hash once, at
construction, on integers: the polynomial, the numerators and denominators
of the cell ends or of the rational, and the factors.  One routine,
least_root, finds every algebraic root: a dyadic descent on Sturm counts
from the integer cells down to the first cell that isolates the root.  As
an Alg has one form per root, mul combines the exponents of one root
however it was isolated; same_value decides equality of two Algs over
different polynomials exactly, from their cells, and of other exact values
from their ratio, or raises.

refine encloses an Alg in the cell of a dyadic grid that holds its root.
The root of an Alg is irrational, so the cell is a function of the value and
the requested width alone; its one memo saves time and changes no output.
Products of these cells, and the products and sums of mul and add with an
enclosure, run on integer numerators and denominators and build one
Interval per result, with the values of the Interval operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import polys
from .errors import DomainError, InvalidScalarError
from .intervals import Interval, Q

# ---------------------------------------------------------------------------
# scalar shapes


class Scalar:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Rat(Scalar):
    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True, slots=True)
class Alg(Scalar):
    poly: tuple  # int coefficients, constant-first, squarefree primitive
    lo: Fraction  # [lo, hi]: the coarsest cell [m, m+1]/2^k, k >= 0,
    hi: Fraction  # on which poly is nonzero at both ends and has one root
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        object.__setattr__(self, "_hash", hash((
            self.poly, lo.numerator, lo.denominator, hi.numerator, hi.denominator)))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True, slots=True)
class Product(Scalar):
    rational: Fraction
    factors: tuple  # tuple[(Alg, int)], exponents nonzero, bases distinct
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        r = self.rational
        object.__setattr__(self, "_hash", hash((r.numerator, r.denominator, self.factors)))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True, slots=True)
class Flt(Scalar):
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise InvalidScalarError(f"non-finite float scalar {self.value!r}")


@dataclass(frozen=True, slots=True)
class Enc(Scalar):
    interval: Interval


ONE = Rat(Fraction(1))
ZERO = Rat(Fraction(0))

# The width to which mul and add refine an exact operand of an enclosure
# product or sum.
ENCLOSURE_WIDTH = Q(1, 10**18)


# the modes of a value, strongest first
MODES = EXACT, CERTIFIED, HEURISTIC = ("exact", "certified", "heuristic")


def is_exact(s: Scalar) -> bool:
    return isinstance(s, (Rat, Alg, Product))


def mode_of(s: Scalar) -> str:
    if isinstance(s, Flt):
        return HEURISTIC
    return CERTIFIED if isinstance(s, Enc) else EXACT


def weakest(*modes: str) -> str:
    """The weakest of `modes`, EXACT when there are none."""
    return max(modes, key=MODES.index, default=EXACT)


# ---------------------------------------------------------------------------
# construction


def make_algebraic(poly, lo, hi) -> Scalar:
    """Algebraic number from an integer polynomial and an isolating interval.

    Collapses to Rat when the isolated root is rational.  Raises
    InvalidScalarError unless the interval isolates exactly one root with a
    sign change of the squarefree part; a root at an end is that end.
    """
    sf = polys.squarefree_part(list(poly))
    if polys.degree(sf) < 1:
        raise InvalidScalarError("polynomial has no roots to isolate")
    chain = polys.sturm_chain(sf)
    lo, hi = Q(lo), Q(hi)
    slo = polys.sign_at(sf, lo.numerator, lo.denominator)
    shi = polys.sign_at(sf, hi.numerator, hi.denominator)
    if lo <= hi and (slo == 0 or shi == 0):
        if lo < hi and polys.count_roots(chain, lo, hi) > 1:
            raise InvalidScalarError("interval does not isolate a single root")
        return Rat(lo if slo == 0 else hi)
    if slo == 0 or shi == 0 or slo == shi:
        raise InvalidScalarError("interval endpoints must straddle a sign change")
    if polys.count_roots(chain, lo, hi) != 1:
        raise InvalidScalarError("interval does not isolate a single root")
    return least_root(chain, lo, hi)


def least_root(chain, lo, hi) -> Scalar:
    """The least root r in the open interval (lo, hi) of the primitive
    squarefree polynomial chain[0], of degree at least 1, given with its
    Sturm chain: Rat when r is rational, else the Alg on the coarsest cell
    [m, m+1]/2^k, k >= 0, that isolates r (chain[0] nonzero at both ends,
    one root inside).  Raises ArithmeticError when (lo, hi) holds no root.

    The descent keeps a cell (a, b] that holds r, from the integers
    floor(lo) and ceil(hi), and cuts it in two: at an integer while it is
    wider than 1, then at its midpoint, one level of the dyadic grid per
    cut.  No root lies in (lo, a], so r <= c exactly when (max(a, lo), c]
    holds a root, one Sturm count; a dyadic r is met as a cut c where that
    count is 1 and chain[0](c) = 0.  The cells of r at k = 0, 1, ... are
    nested, so the first one that isolates r is the coarsest.  A rational
    r = p/q has q | a_n, the leading coefficient, so it is the one multiple
    of 1/a_n in that cell refined to width 1/(2 a_n), if any, at which
    chain[0] vanishes.
    """
    sf = chain[0]
    lo, hi = Q(lo), Q(hi)

    def sign(x):
        return polys.sign_at(sf, x.numerator, x.denominator)

    def variations(x):
        return polys.sign_variations(chain, x)

    vlo, vhi = variations(lo), variations(hi)
    if lo >= hi or vlo - vhi - (sign(hi) == 0) < 1:
        raise ArithmeticError("no root in the requested interval")
    a, b = Q(math.floor(lo)), Q(math.ceil(hi))
    va = vlo if a == lo else variations(a)
    vb = vhi if b == hi else variations(b)
    sa, sb = sign(a), sign(b)
    while not (b - a <= 1 and sa and sb and va - vb == 1):
        c = Q((a + b) // 2) if b - a > 1 else (a + b) / 2
        vc, sc = variations(c), sign(c)
        n = (vlo if a <= lo else va) - vc  # roots in (max(a, lo), c]
        if lo < c < hi and n == 1 and sc == 0:
            return Rat(c)
        if c >= hi or (c > lo and n >= 1):
            b, vb, sb = c, vc, sc
        else:
            a, va, sa = c, vc, sc
    lead = sf[-1]
    x, y = polys.refine_root(sf, a, b, Q(1, 2 * lead))
    r = Q(math.ceil(x * lead), lead)
    if r <= y and sign(r) == 0:
        return Rat(r)
    return Alg(tuple(sf), a, b)


def _alg_power_collapse(base: Alg, k: int) -> Fraction | None:
    """If x^k is a constant c modulo the defining polynomial, every root of
    the polynomial satisfies x^k = c; return c, else None.

    Degree rule: for 0 < k < deg, x^k is its own remainder and not a
    constant, so the answer is None with no polynomial arithmetic; only
    k >= deg reduces x^k by square-and-multiply."""
    if 0 < k < len(base.poly) - 1:
        return None
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


def make_power(base: Scalar, exp: int) -> Scalar:
    if exp == 0:
        return ONE
    if isinstance(base, Rat):
        return Rat(base.value**exp)
    if isinstance(base, Flt):
        return Flt(base.value**exp)
    if isinstance(base, Enc):
        return Enc(base.interval**exp)
    if isinstance(base, Product):
        return _build_product(base.rational**exp,
                              ((b, e * exp, True) for b, e in base.factors))
    assert isinstance(base, Alg)
    c = _alg_power_collapse(base, abs(exp))
    if c is not None:
        return Rat(c if exp > 0 else 1 / c)
    return base if exp == 1 else Product(Q(1), ((base, exp),))


# ---------------------------------------------------------------------------
# enclosures


@lru_cache(maxsize=4096)
def _alg_cell(a: Alg, k: int) -> Interval:
    """The cell [m, m+1]/2^k of the grid 2^-k that holds the root of `a`: a
    coarser grid's cell contains the stored cell, and a finer one is the
    stored cell bisected down to width 2^-k, whose every half is a grid
    cell, as no midpoint is the irrational root."""
    step = Q(2) ** -k
    if step >= a.hi - a.lo:
        m = math.floor(a.lo / step)
        return Interval(m * step, (m + 1) * step)
    return Interval(*polys.refine_root(a.poly, a.lo, a.hi, step))


def grid_bits(width: Fraction) -> int:
    """The least k with 2^-k <= width = n/d: for n <= d the least k with
    2^k >= ceil(d/n), else minus the largest j with 2^j <= n/d."""
    n, d = width.numerator, width.denominator
    return ((d - 1) // n).bit_length() if n <= d else 1 - (n // d).bit_length()


def _alg_interval(a: Alg, width: Fraction) -> Interval:
    """_alg_cell on the grid of `width` (grid_bits)."""
    return _alg_cell(a, grid_bits(width))


def refine(s: Scalar, precision) -> Interval:
    """Rational-endpoint enclosure of width at most `precision` where the
    representation permits; Enc returns its fixed interval.

    An Alg gives the cell [m, m+1]/2^k of the grid 2^-k that holds its
    root, for the least k with 2^-k <= precision.  The enclosure depends
    only on the value and the precision, never on earlier calls."""
    if not isinstance(precision, Fraction):
        precision = Q(precision)
    if precision.numerator <= 0:  # a Fraction's denominator is positive
        raise DomainError("precision must be positive")
    if isinstance(s, Rat):
        return Interval.point(s.value)
    if isinstance(s, Flt):
        return Interval.point(Fraction(s.value))
    if isinstance(s, Enc):
        return s.interval
    if isinstance(s, Alg):
        return _alg_interval(s, precision)
    if isinstance(s, Product):
        r = s.rational
        sub = precision
        while True:
            out = (r.numerator, r.denominator, r.numerator, r.denominator)
            for b, e in s.factors:
                out = _mul_ends(out, _power_ends(b, e, sub))
            if _within(out, precision):
                return _interval(out)
            sub /= 16
    raise TypeError(f"not a scalar: {s!r}")


def _ends(iv: Interval) -> tuple:
    """iv = [ln/ld, hn/hd] as the ints (ln, ld, hn, hd), ld and hd > 0: the
    form in which refine, mul and add multiply and add enclosures, unreduced
    and with the values of the Interval operations, and which _interval
    turns into one Interval per result."""
    return iv.lo.numerator, iv.lo.denominator, iv.hi.numerator, iv.hi.denominator


def _interval(ends: tuple) -> Interval:
    ln, ld, hn, hd = ends
    return Interval(Fraction(ln, ld), Fraction(hn, hd))


def _within(ends: tuple, width: Fraction) -> bool:
    ln, ld, hn, hd = ends
    return (hn * ld - ln * hd) * width.denominator <= width.numerator * ld * hd


def _mul_ends(x: tuple, y: tuple) -> tuple:
    """Interval.__mul__: two products when both lower ends are >= 0, else
    the least and the greatest of four, compared by cross-multiplying."""
    xln, xld, xhn, xhd = x
    yln, yld, yhn, yhd = y
    if xln >= 0 and yln >= 0:
        return xln * yln, xld * yld, xhn * yhn, xhd * yhd
    lo = hi = (xln * yln, xld * yld)
    for p in ((xln * yhn, xld * yhd), (xhn * yln, xhd * yld), (xhn * yhn, xhd * yhd)):
        if p[0] * lo[1] < lo[0] * p[1]:
            lo = p
        if p[0] * hi[1] > hi[0] * p[1]:
            hi = p
    return lo + hi


def _power_ends(base: Alg, exp: int, precision: Fraction) -> tuple:
    """base^exp from the cell of base at the first of the widths precision,
    precision/16, ... where, for exp < 0, the cell does not touch 0 and the
    power is at most `precision` wide.  No cell [m, m+1]/2^k has 0 inside,
    so an even power of one at or below 0 swaps its ends; a reciprocal
    flips the signs of a cell below 0 to keep its denominators positive."""
    sub = precision
    e = abs(exp)
    while True:
        a, b, c, d = _ends(_alg_interval(base, sub))
        if exp > 0 or not a <= 0 <= c:
            if exp < 0:
                a, b, c, d = (d, c, b, a) if a > 0 else (-d, -c, -b, -a)
            out = (a**e, b**e, c**e, d**e) if e % 2 or a >= 0 else (c**e, d**e, a**e, b**e)
            if _within(out, precision):
                return out
        sub /= 16


def _log2(q: Fraction) -> float:
    return math.log2(abs(q.numerator)) - math.log2(q.denominator)


def _underflows(s: Product) -> bool:
    """True when a coarse bound proves |s| < 2^-1083, 8 bits below the
    smallest positive float, so that it rounds to zero; False when the bound
    does not, or a base's enclosure at width 2^-20 is not positive.  Each
    factor b^e is bounded by the upper end of b for e > 0 and by the lower
    end for e < 0.  The float logarithms are off by far less than 2^-32 per
    unit of exponent, which the margin adds."""
    bound = _log2(s.rational)
    margin = 8
    for b, e in s.factors:
        iv = refine(b, Q(1, 1 << 20))
        if iv.lo <= 0:
            return False
        bound += e * _log2(iv.hi if e > 0 else iv.lo)
        margin += abs(e) * 2.0**-32
    return bound < -1075 - margin


def to_float(s: Scalar) -> float:
    """The float nearest the value of s, up to the rounding of a 1e-17 wide
    enclosure's midpoint; a power far below the float range is 0.0 without
    one."""
    if isinstance(s, Rat):
        return float(s.value)
    if isinstance(s, Flt):
        return s.value
    if isinstance(s, Product) and _underflows(s):
        return math.copysign(0.0, s.rational)
    iv = refine(s, Q(1, 10**17))
    return float(iv.mid)


# ---------------------------------------------------------------------------
# arithmetic

def _as_scalar(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Rat(Fraction(x))
    if isinstance(x, float):
        return Flt(x)
    raise TypeError(f"cannot coerce {x!r} to a scalar")


def _factors_of(s: Scalar) -> tuple[Fraction, tuple]:
    if isinstance(s, Rat):
        return s.value, ()
    if isinstance(s, Alg):
        return Q(1), ((s, 1),)
    if isinstance(s, Product):
        return s.rational, s.factors
    raise TypeError


def _build_product(rational: Fraction, factors) -> Scalar:
    """Normalise rational * prod b^e over `factors`, triples (b, e, retest)
    with distinct bases.

    Only a base marked `retest` gets the collapse test: any other keeps an
    exponent (up to sign) that already failed it when its operand was
    built, and collapse depends only on |e|.
    """
    if rational == 0:
        return ZERO
    live = []
    for b, e, retest in factors:
        if e == 0:
            continue
        if retest:
            c = _alg_power_collapse(b, abs(e))
            if c is not None:
                rational *= c if e > 0 else 1 / c
                continue
        live.append((b, e))
    if not live:
        return Rat(rational)
    items = tuple(sorted(live, key=lambda it: (it[0].poly, it[0].lo, it[0].hi)))
    if rational == 1 and len(items) == 1 and items[0][1] == 1:
        return items[0][0]
    return Product(rational, items)


def mul(*values) -> Scalar:
    scalars = [_as_scalar(v) for v in values]
    if any(isinstance(s, Enc) for s in scalars):
        out = (1, 1, 1, 1)
        for s in scalars:
            out = _mul_ends(out, _ends(refine(s, ENCLOSURE_WIDTH)))
        return Enc(_interval(out))
    if any(isinstance(s, Flt) for s in scalars):
        out = 1.0
        for s in scalars:
            out *= to_float(s)
        return Flt(out)
    rational = Q(1)
    factors: dict = {}  # base -> [exponent, found in two or more operands]
    for s in scalars:
        r, fs = _factors_of(s)
        rational *= r
        for b, e in fs:
            entry = factors.get(b)
            if entry is None:
                factors[b] = [e, False]
            else:
                entry[0] += e
                entry[1] = True
    return _build_product(rational, ((b, e, again) for b, (e, again) in factors.items()))


def inv(s: Scalar) -> Scalar:
    s = _as_scalar(s)
    if isinstance(s, Rat):
        if s.value == 0:
            raise ZeroDivisionError("inverse of zero scalar")
        return Rat(1 / s.value)
    if isinstance(s, Flt):
        return Flt(1.0 / s.value)
    if isinstance(s, Enc):
        return Enc(s.interval.reciprocal())
    r, fs = _factors_of(s)
    return _build_product(1 / r, ((b, -e, False) for b, e in fs))


def add(*values) -> Scalar:
    scalars = [_as_scalar(v) for v in values]
    nonzero = [s for s in scalars if not (isinstance(s, Rat) and s.value == 0)]
    if not nonzero:
        return ZERO
    if len(nonzero) == 1:
        return nonzero[0]
    if all(isinstance(s, Rat) for s in nonzero):
        return Rat(sum(s.value for s in nonzero))
    if any(isinstance(s, Flt) for s in nonzero) and not any(
        isinstance(s, Enc) for s in nonzero
    ):
        return Flt(sum(to_float(s) for s in nonzero))
    ln, ld, hn, hd = 0, 1, 0, 1
    for s in nonzero:
        a, b, c, d = _ends(refine(s, ENCLOSURE_WIDTH))
        ln, ld = ln * b + a * ld, ld * b
        hn, hd = hn * d + c * hd, hd * d
    return Enc(_interval((ln, ld, hn, hd)))


# ---------------------------------------------------------------------------
# comparisons

def _doubling_widths(first: int, last: int):
    """2^-k for k = first, 2 first, 4 first, ... up to last: each refine of an
    Alg bisects from its cell, so a loop over these is O(last)."""
    k = first
    while k < last:
        yield Q(1, 2**k)
        k *= 2
    yield Q(1, 2**last)


def compare_rational(s: Scalar, c: Fraction) -> int:
    """Sign of s - c; exact for exact scalars, raises if undecidable."""
    c = Q(c)
    if isinstance(s, (Rat, Flt)):
        return (s.value > c) - (s.value < c)
    for width in _doubling_widths(4, 2400):
        iv = refine(s, width)
        if iv.lo > c:
            return 1
        if iv.hi < c:
            return -1
    raise InvalidScalarError(f"cannot separate scalar from {c}")


def in_open_unit_interval(s: Scalar) -> bool:
    try:
        return compare_rational(s, Q(0)) > 0 and compare_rational(s, Q(1)) < 0
    except InvalidScalarError:
        return False


def same_value(a: Scalar, b: Scalar) -> bool:
    """Value equality, decided or refused.

    Two exact values are equal when their ratio is Rat(1) and unequal when
    compare_rational separates it from 1; two Algs are compared exactly
    from their cells.  Any other pair of exact values raises
    InvalidScalarError.  A Flt or Enc operand is equal to the other only
    when both refine to the same point.
    """
    a, b = _as_scalar(a), _as_scalar(b)
    if not (is_exact(a) and is_exact(b)):
        iv = refine(a, ENCLOSURE_WIDTH)
        return iv.lo == iv.hi and refine(b, ENCLOSURE_WIDTH) == iv
    if a == b:
        return True
    if isinstance(a, Rat) and isinstance(b, Rat):
        return False
    if isinstance(a, Alg) and isinstance(b, Alg):
        # two dyadic cells are nested or disjoint; the finer one, a's, holds
        # one root of each polynomial when nested, and these are one number
        # exactly when it holds a root of their gcd
        if a.hi - a.lo > b.hi - b.lo:
            a, b = b, a
        if a.lo < b.lo or a.hi > b.hi:
            return False
        g = polys.poly_gcd(list(a.poly), list(b.poly))
        return polys.degree(g) >= 1 and polys.count_roots(
            polys.sturm_chain(g), a.lo, a.hi) == 1
    if isinstance(b, Rat):  # only a Rat is zero
        a, b = b, a
    return compare_rational(mul(a, inv(b)), Q(1)) == 0


# ---------------------------------------------------------------------------
# prime-exponent lattices


@dataclass(frozen=True)
class BaseDecomposition:
    base: Scalar
    exponents: tuple[int, ...]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (inputs are desk-scale)."""
    if n <= 0:
        raise DomainError("factorize expects a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _exp_vector(v: Fraction) -> dict[int, int]:
    vec = dict(factorize(v.numerator)) if v.numerator != 1 else {}
    for p, e in factorize(v.denominator).items():
        vec[p] = vec.get(p, 0) - e
    return {p: e for p, e in vec.items() if e != 0}


def _parallel_lattice(rows: list[list[int]]) -> tuple[list[int], list[int]] | None:
    """If every row is an integer multiple of one primitive vector, return
    (primitive, multipliers); otherwise None."""
    ref = next((r for r in rows if any(r)), None)
    if ref is None:
        return None
    g = gcd(*ref)
    prim = [e // g for e in ref]
    j0 = next(j for j, e in enumerate(prim) if e)
    mults = []
    for row in rows:
        if row[j0] % prim[j0] != 0:
            return None
        k = row[j0] // prim[j0]
        if any(row[j] != k * prim[j] for j in range(len(prim))):
            return None
        mults.append(k)
    return prim, mults


# ---------------------------------------------------------------------------
# logarithm ratio detection


LOG_RATIO_DENOMINATOR_BOUND = 10**6


@dataclass(frozen=True)
class LogRatioVerdict:
    kind: str  # "rational" | "irrational" | "undecided"
    ratio: Fraction | None = None


def _convergents(x: Fraction):
    """Continued-fraction convergents of a positive rational."""
    p0, q0, p1, q1 = 0, 1, 1, 0
    a = x
    while True:
        n = int(a)
        p0, q0, p1, q1 = p1, q1, n * p1 + p0, n * q1 + q0
        yield Fraction(p1, q1)
        frac = a - n
        if frac == 0:
            return
        a = 1 / frac


def log_ratio_rational(x, y) -> LogRatioVerdict:
    """Decide whether log(x)/log(y) is rational for x, y in (0,1).

    Exact for rational inputs via prime-exponent vectors (a verdict of
    "irrational" only arises there).  Other inputs go through float
    continued-fraction convergents of denominator at most
    LOG_RATIO_DENOMINATOR_BOUND and can only yield "rational" or
    "undecided"."""
    sx, sy = _as_scalar(x), _as_scalar(y)
    for s in (sx, sy):
        if is_exact(s) and not in_open_unit_interval(s):
            raise DomainError("log-ratio detection needs values in (0,1)")
    if isinstance(sx, Rat) and isinstance(sy, Rat):
        ex, ey = _exp_vector(sx.value), _exp_vector(sy.value)
        primes = sorted(set(ex) | set(ey))
        hit = _parallel_lattice([[v.get(p, 0) for p in primes] for v in (ex, ey)])
        if hit is None:
            return LogRatioVerdict("irrational")
        kx, ky = hit[1]
        return LogRatioVerdict("rational", Fraction(kx, ky))
    fx, fy = to_float(sx), to_float(sy)
    if not (0.0 < fx < 1.0 and 0.0 < fy < 1.0):
        raise DomainError("log-ratio detection needs values in (0,1)")
    r = math.log(fx) / math.log(fy)
    target = Fraction(r)
    for conv in _convergents(target):
        if conv.denominator > LOG_RATIO_DENOMINATOR_BOUND:
            break
        if abs(target - conv) <= Q(1, 10**9):
            return LogRatioVerdict("rational", conv)
    return LogRatioVerdict("undecided")


# ---------------------------------------------------------------------------
# rendering and JSON forms


def fmt15(x: float) -> str:
    return format(x, ".15g")


def scalar_to_json(s: Scalar) -> dict:
    if isinstance(s, Rat):
        return {"type": "rational", "num": s.value.numerator, "den": s.value.denominator}
    if isinstance(s, Alg):
        return {"type": "algebraic", "poly": list(s.poly), "interval": [str(s.lo), str(s.hi)]}
    if isinstance(s, Product):
        if s.rational == 1 and len(s.factors) == 1 and s.factors[0][1] > 0:
            b, e = s.factors[0]
            return {"type": "power", "base": scalar_to_json(b), "exp": e}
        return {
            "type": "product",
            "rational": {"num": s.rational.numerator, "den": s.rational.denominator},
            "factors": [{"base": scalar_to_json(b), "exp": e} for b, e in s.factors],
        }
    if isinstance(s, Flt):
        return {"type": "float", "value": s.value}
    if isinstance(s, Enc):
        return {"type": "enclosure", "lo": str(s.interval.lo), "hi": str(s.interval.hi)}
    raise TypeError(f"not a scalar: {s!r}")


def _ratio_from_json(obj) -> Fraction:
    """The {"num": ..., "den": ...} pair of a rational or a product."""
    num, den = obj["num"], obj["den"]
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (num, den)):
        raise InvalidScalarError("rational num and den must be integers")
    if den == 0:
        raise InvalidScalarError("rational denominator must be nonzero")
    return Fraction(num, den)


def scalar_from_json(obj) -> Scalar:
    """Parse the JSON form of a scalar; a missing key, a zero denominator or
    a non-integer num or den raises InvalidScalarError."""
    try:
        return _scalar_from_json(obj)
    except KeyError as exc:
        raise InvalidScalarError(f"scalar JSON {obj!r} lacks the key {exc}") from exc


def _scalar_from_json(obj) -> Scalar:
    if isinstance(obj, bool):
        raise InvalidScalarError("booleans are not scalars")
    if isinstance(obj, int):
        return Rat(Fraction(obj))
    if isinstance(obj, float):
        return Flt(obj)
    if isinstance(obj, str):
        try:
            return Rat(Fraction(obj))
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidScalarError(f"malformed rational {obj!r}") from exc
    if not isinstance(obj, dict) or "type" not in obj:
        raise InvalidScalarError(f"malformed scalar JSON: {obj!r}")
    kind = obj["type"]
    if kind == "rational":
        return Rat(_ratio_from_json(obj))
    if kind == "algebraic":
        lo, hi = obj["interval"]
        return make_algebraic(obj["poly"], Fraction(str(lo)), Fraction(str(hi)))
    if kind == "power":
        exp = obj["exp"]
        if not isinstance(exp, int) or exp < 1:
            raise InvalidScalarError("power exponent must be a positive integer")
        return make_power(scalar_from_json(obj["base"]), exp)
    if kind == "product":
        out = Rat(_ratio_from_json(obj["rational"]))
        for f in obj["factors"]:
            out = mul(out, make_power(scalar_from_json(f["base"]), abs(f["exp"])) if f["exp"] > 0
                      else inv(make_power(scalar_from_json(f["base"]), -f["exp"])))
        return out
    if kind == "float":
        return Flt(float(obj["value"]))
    if kind == "enclosure":
        return Enc(Interval(Fraction(str(obj["lo"])), Fraction(str(obj["hi"]))))
    raise InvalidScalarError(f"unknown scalar type {kind!r}")
