"""Perron-Frobenius data with rigorous two-sided error bounds.

Power iteration runs on the shifted matrix M + I (primitive whenever M is
irreducible, which kills the oscillation of periodic matrices), in integers:
the entry bounds of M + I are rounded outward onto a grid 2^-bits and the
iterate is a positive integer vector.  It starts from a float Perron vector
of the midpoint matrix, made exact: any positive start vector keeps the
certificates valid, so the floats only save exact steps.  Every iterate
carries both certificates: its Collatz-Wielandt quotients, rounded outward
onto the grid, bracket the eigenvalue, and a Birkhoff projective-metric
contraction bound on the integer power (M + I)^(n-1) bounds its distance to
the eigenvector of sum 1, whose enclosure is rounded outward onto a
power-of-two grid.  pf_data keeps a bounded memo of its results, the one
place where Perron data is reused.

The inverse-temperature solver has an exact branch for rational frequency
vectors: with omega_i = m_i / L the parameter entries are powers t^{m_i} of
a root t of det(diag(t^{m_i}) A - I), and t is the smallest root of that
polynomial in (0,1) because below it the spectral radius stays under 1, so
no eigenvalue can reach 1 earlier.  The polynomial is read off one integer
determinant at t = 2^k (Kronecker substitution), large enough that its
base-2^k digits are the coefficients.  Other frequency vectors take a
bisection on beta = n/2^e, held as integers, whose sign test runs the same
integer Collatz-Wielandt loop as pf_data, on entry bounds from exp_neg_grid.
Consecutive sign tests differ only slightly in beta, so each starts from the
iterate the previous one ended on, which is as sound as any positive start
vector.  The canonical point
(1/c_A, ..., 1/c_A) is the exact parameter for unit frequencies: its entry
is the smallest root of det(tA - I) in (0,1), and beta = log c_A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import gcd, lcm
from operator import mul

from . import polys, scalars
from .errors import (DomainError, MembershipRejected, NumericalFailureError,
                     PreconditionError, ResourceLimitError)
from .intervals import Interval, Q, exp_neg_grid, log_interval_point
from .matrix01 import ZeroOneMatrix, in_class_cdm, is_irreducible
from .scalars import Enc, Flt, Rat, Scalar

DEFAULT_PRECISION = Q(1, 10**12)
DEFAULT_TOLERANCE = Q(1, 10**9)
ITERATION_CAP = 10**5
SOLVE_BETA_DEGREE_CAP = 256
PF_MEMO_SIZE = 256


@dataclass(frozen=True)
class PFData:
    eigenvalue: Interval
    eigenvector: tuple  # tuple[Interval, ...], entries positive, sums to 1
    iterations: int
    precision: Fraction  # the eigenvalue bracket is at most this wide


@dataclass(frozen=True)
class ParamVector:
    matrix: ZeroOneMatrix
    entries: tuple  # tuple[Scalar, ...], each in (0,1)
    certificate: str  # a mode of scalars.MODES
    tolerance: Fraction | None = None

    def __post_init__(self):
        if len(self.entries) != self.matrix.n:
            raise DomainError("parameter vector length must match the matrix size")
        if self.certificate not in scalars.MODES:
            raise DomainError(f"unknown certificate {self.certificate!r}")


@dataclass(frozen=True)
class FrequencyVector:
    entries: tuple  # tuple[Scalar, ...], positive

    def __post_init__(self):
        entries = tuple(scalars._as_scalar(e) for e in self.entries)
        object.__setattr__(self, "entries", entries)
        for e in entries:
            if isinstance(e, Enc):
                positive = e.interval.lo > 0
            else:
                positive = scalars.compare_rational(e, 0) > 0
            if not positive:
                raise DomainError("frequencies must be positive")

    def is_rational(self) -> bool:
        return all(isinstance(e, Rat) for e in self.entries)


@dataclass(frozen=True)
class BetaSolution:
    beta: Interval
    param: ParamVector
    base: Scalar | None = None  # a_i = base^exponents[i] in exact mode
    exponents: tuple | None = None
    scale: Fraction | None = None  # beta = -scale * ln(base)

    @property
    def mode(self) -> str:
        return self.param.certificate


@dataclass(frozen=True)
class TensorFrequencyVector(FrequencyVector):
    """The frequencies of a tensor of rescaled gauge actions at inverse
    temperature 1, kept with an exact gauge: bases t_k, one exponent row
    per composite letter u, and the Kronecker product of the factors'
    parameter entries, for which e^{-Omega_u} = prod_k t_k^rows[u][k] =
    kronecker[u] holds exactly."""
    bases: tuple  # tuple[Scalar, ...]
    rows: tuple  # tuple[tuple[int, ...], ...], one per entry
    kronecker: tuple  # tuple[Scalar, ...]


# ---------------------------------------------------------------------------
# the integer Collatz-Wielandt kernel


def _shifted_bounds(matrix: ZeroOneMatrix, rows, bits: int):
    """Integer matrices lo <= 2^bits ((diag a) A + I) <= hi, entrywise, from
    the bounds lo_i <= 2^bits a_i <= hi_i in `rows`, and their floored
    midpoint.  Zeros of A stay exact zeros."""
    one = 1 << bits
    lo, hi = [], []
    for i, (a_lo, a_hi) in enumerate(rows):
        lo.append([a_lo if e else 0 for e in matrix.rows[i]])
        hi.append([a_hi if e else 0 for e in matrix.rows[i]])
        lo[i][i] += one
        hi[i][i] += one
    mid = [[(p + q) >> 1 for p, q in zip(rlo, rhi)] for rlo, rhi in zip(lo, hi)]
    return lo, hi, mid


def _matvec(m, x):
    return [sum(map(mul, row, x)) for row in m]


def _next_iterate(mid, x, bits: int):
    """mid x, floored onto a sum of at most about 2^bits; entries stay positive."""
    y = _matvec(mid, x)
    shift = max(sum(y).bit_length() - bits, 0)
    return [(v >> shift) or 1 for v in y]


def _collatz_wielandt(lo, hi, mid, x, bits: int):
    """Collatz-Wielandt brackets on PFE(M) + 1 for lo <= 2^bits (M + I) <= hi.

    Yields (b_lo, b_hi, x, stall) after each step: the intersection of the
    brackets so far in units of 2^-bits, each quotient rounded outward; the
    positive integer iterate x that gave the latest one; and the number of
    steps in a row that narrowed the bracket by under 1%.  Any positive
    vector gives a valid bracket (E. Seneta, Non-negative Matrices and Markov
    Chains, 1981), so flooring the iterate costs no soundness.  The caller
    decides when to stop.
    """
    b_lo, b_hi = 0, math.inf
    stall = 0
    while True:
        c_lo = min(s // v for s, v in zip(_matvec(lo, x), x))
        c_hi = max(-(-s // v) for s, v in zip(_matvec(hi, x), x))
        width = b_hi - b_lo
        b_lo, b_hi = max(b_lo, c_lo), min(b_hi, c_hi)
        stall = stall + 1 if 100 * (b_hi - b_lo) >= 99 * width else 0
        yield b_lo, b_hi, x, stall
        x = _next_iterate(mid, x, bits)


def _float_start(mid):
    """A positive integer start vector for pf_data: float power iteration
    on the midpoint matrix, stopped at relative change 1e-15 or after 2000
    steps.  Each entry becomes the simplest fraction of denominator at most
    2^20 within 2^-48 of it, relative, or else the float's exact value, and
    the vector is scaled by the lcm of their denominators, so an eigenvector
    with small denominators (the uniform vector of a matrix with equal
    weighted row sums) is hit exactly.  Any positive vector keeps the
    Collatz-Wielandt bracket and the Birkhoff bound valid, so the float
    arithmetic only decides how many exact steps follow."""
    n = len(mid)
    rows = [[(j, float(v)) for j, v in enumerate(row) if v] for row in mid]
    x = [1.0 / n] * n
    for _ in range(2000):
        y = [sum(v * x[j] for j, v in row) for row in rows]
        total = sum(y)
        y = [v / total for v in y]
        settled = all(abs(b - c) <= 1e-15 * b for b, c in zip(y, x))
        x = y
        if settled:
            break
    start = []
    for v in x:
        if not v > 0:
            start.append(Q(1, n))
            continue
        simple = Q(v).limit_denominator(1 << 20)
        start.append(simple if abs(simple - v) <= v * 2.0**-48 else Q(v))
    scale = lcm(*(s.denominator for s in start))
    return [s.numerator * (scale // s.denominator) for s in start]


# ---------------------------------------------------------------------------
# pf_data


def positive_enclosure(s: Scalar, width: Fraction) -> Interval:
    """s refined to `width`, and further until its lower endpoint is
    positive; PreconditionError when s is negative or its sign cannot be
    certified (an Enc, or a width below 1e-300)."""
    iv = scalars.refine(s, width)
    while iv.lo <= 0 and not isinstance(s, Enc) and width > Q(1, 10**300):
        width /= 16
        iv = scalars.refine(s, width)
    if iv.lo < 0:
        raise PreconditionError("parameter entries must be positive")
    if iv.lo <= 0:
        raise PreconditionError("cannot certify the sign of a parameter entry")
    return iv


def _grid_entries(a, width: Fraction, bits: int):
    """Per-row bounds lo_i <= 2^bits a_i <= hi_i: each a_i is refined once to
    `width`, and further until its lower endpoint is positive, and rounded
    outward onto the grid."""
    one = 1 << bits
    rows = []
    for s in a:
        iv = positive_enclosure(s, width)
        rows.append((math.floor(iv.lo * one), math.ceil(iv.hi * one)))
    return rows


def pf_data(matrix: ZeroOneMatrix, a=None, precision=DEFAULT_PRECISION) -> PFData:
    """Certified Perron eigenvalue bracket (width <= precision) of
    (diag a) A and a positive eigenvector enclosure normalized to sum 1.

    `a` holds one positive Scalar per row of the irreducible 0-1 matrix
    `matrix`, all ones when omitted.  The result records `precision`.

    Results are memoised: the arguments are normalised to (matrix, tuple of
    Scalars, Fraction) and a repeated input returns the PFData computed
    first, from a bounded LRU of PF_MEMO_SIZE entries; that result is
    certified for the repeated input too.  This memo is the one place where
    Perron data is reused, so in_lambda followed by states.state_spec at the
    same precision runs one power iteration.
    """
    precision = Q(precision)
    if precision <= 0:
        raise DomainError("precision must be positive")
    n = matrix.n
    a = (scalars.ONE,) * n if a is None else tuple(scalars._as_scalar(s) for s in a)
    if len(a) != n:
        raise DomainError("parameter vector length must match the matrix size")
    return _pf_memo(matrix, a, precision)


@lru_cache(maxsize=PF_MEMO_SIZE)
def _pf_memo(matrix: ZeroOneMatrix, a: tuple, precision: Fraction) -> PFData:
    return _certified_pf(matrix, a, precision)


def _certified_pf(matrix: ZeroOneMatrix, a: tuple, precision: Fraction) -> PFData:
    """pf_data on normalised arguments, without the memo.

    The a_i are refined to precision/(64n) and rounded outward onto the grid
    2^-bits, bits = max(64, bitlen(precision.denominator) + 48) + 16.  Each
    iterate of the Collatz-Wielandt loop, started from the float Perron
    vector of the midpoint matrix, gives a bracket on the grid and a Birkhoff
    distance u; the loop stops once the bracket is `precision` wide and
    u <= precision, usually after one step.  When the unmet bound stops
    improving, the entries are refined 64 times finer and the loop goes on
    from its iterate.  Enc entries, or entries already narrower than the
    grid, raise NumericalFailureError instead, except that Enc entries whose
    bracket holds accept u <= 1.
    """
    n = matrix.n
    if not is_irreducible(matrix):
        raise PreconditionError("matrix is not irreducible")
    refinable = not any(isinstance(s, Enc) for s in a)

    bits = max(64, precision.denominator.bit_length() + 48) + 16
    one = 1 << bits
    target = (precision.numerator << bits) // precision.denominator
    entry_width = precision / (64 * n)

    def start(x):
        lo, hi, mid = _shifted_bounds(matrix, _grid_entries(a, entry_width, bits), bits)
        return (_collatz_wielandt(lo, hi, mid, x or _float_start(mid), bits),
                _birkhoff_distance(lo, hi, bits))

    loop, distance = start(None)
    best_u, u_stall = math.inf, 0
    for steps in range(1, ITERATION_CAP + 1):
        b_lo, b_hi, x, stall = next(loop)
        met = b_hi - b_lo <= target
        if met:
            u = distance(x)
            if u <= precision and u <= 1:  # 1 + u + u^2 bounds e^u only for u <= 1
                break
            u_stall = u_stall + 1 if u >= best_u * Q(99, 100) else 0
            best_u = min(best_u, u)
        if u_stall >= 10 if met else stall >= 15:
            if met and u <= 1 and not refinable:
                break
            if not refinable or entry_width < Q(1, one):
                what = (f"eigenvector enclosure stalled at projective distance {float(u):.3g}"
                        if met else f"eigenvalue bracket stalled at width {(b_hi - b_lo) / one:.3g}")
                why = "fixed-width enclosure entries" if not refinable else "the grid"
                raise NumericalFailureError(f"{what}, limited by {why}")
            entry_width /= 64
            loop, distance = start(x)
            best_u, u_stall = math.inf, 0
    else:
        raise NumericalFailureError(
            f"power iteration did not converge within {ITERATION_CAP} steps")
    bracket = Interval(Q(b_lo - one, one), Q(b_hi - one, one))
    return PFData(bracket, _eigenvector_enclosure(x, u, bits), steps, precision)


def _birkhoff_distance(lo, hi, bits: int):
    """The map from a positive integer iterate x to a bound u on the
    projective distance from x to the Perron vector of every M with
    lo <= 2^bits (M+I) <= hi (G. Birkhoff, Extensions of Jentzsch's theorem,
    Trans. AMS 85, 1957): with B = (M+I)^(n-1) entrywise positive and upper
    contraction ratio kappa, u = d(x, Bx)/(1-kappa).  B is bounded by integer
    matrices blo <= 2^bits B <= bhi, each product shifted back onto the grid,
    floor for the lower bound and ceil for the upper."""
    blo, bhi = lo, hi
    for _ in range(len(lo) - 2):
        blo = [[sum(map(mul, row, col)) >> bits for col in zip(*lo)] for row in blo]
        bhi = [[-(-sum(map(mul, row, col)) >> bits) for col in zip(*hi)] for row in bhi]
    if any(v <= 0 for row in blo for v in row):
        raise NumericalFailureError("(M+I)^(n-1) has no positive lower bound on the grid")
    # sup (B_ik B_jl)/(B_jk B_il) <= (top/bot)^2 gives kappa <= (root-1)/(root+1);
    # a loose kappa only costs extra iterations, never correctness
    root = Q(max(v for row in bhi for v in row), min(v for row in blo for v in row))
    denom = 2 / (root + 1)  # 1 - kappa

    def distance(x):
        # max over i, j of (x_i (Bx)hi_j) / (x_j (Bx)lo_i)
        ratio = (max(Q(w, xi) for w, xi in zip(_matvec(bhi, x), x))
                 / min(Q(w, xi) for w, xi in zip(_matvec(blo, x), x)))
        return (ratio - 1) / denom
    return distance


def _eigenvector_enclosure(x, u, bits: int):
    """The enclosure of the eigenvector of sum 1 from a positive integer
    iterate x at projective distance at most u <= 1 from it.  With S = sum(x)
    the ratios v_i/x_i straddle 1/S and lie within a factor e^u of each
    other, so v_i is in [x_i/(S F), x_i F/S] for F = 1 + u + u^2 >= e^u; the
    endpoints are rounded outward onto a grid 2^-bits or finer, fine enough
    that every lower endpoint stays positive.  When u = 0, x is an exact
    eigenvector and the entries are exact points."""
    total = sum(x)
    factor = 1 + u + u * u
    bits += (total // min(x)).bit_length()
    return tuple(Interval(xi / (total * factor), xi * factor / total).outward(bits)
                 for xi in x)


# ---------------------------------------------------------------------------
# spectral membership and canonical parameters


def _require_radius_one(radius: Interval, slack: Fraction) -> None:
    """The membership band test: raise MembershipRejected carrying `radius`
    unless that spectral radius enclosure meets [1 - slack, 1 + slack]."""
    if radius.intersects(Interval(1 - slack, 1 + slack)):
        return
    if radius.lo == radius.hi:
        raise MembershipRejected(f"spectral radius is exactly {radius.lo}, not 1", radius)
    raise MembershipRejected(
        f"spectral radius enclosure [{radius.lo}, {radius.hi}] does not meet 1", radius)


def in_lambda(matrix: ZeroOneMatrix, a_entries, tolerance=DEFAULT_TOLERANCE) -> ParamVector:
    """Accept a parameter vector when the spectral radius of (diag a) A is 1
    within `tolerance`; rejection raises MembershipRejected carrying the
    computed enclosure.

    A full matrix has radius sum(a), since (diag a) F_n a = sum(a) a,
    whatever the entry type; each entry is refined to tolerance/(32n).  Any
    other matrix takes one pf_data at min(DEFAULT_PRECISION, tolerance/4),
    eigenvector included; pf_data's memo hands that result to
    states.state_spec when it asks for the same precision.
    """
    tolerance = Q(tolerance)
    if tolerance <= 0:
        raise DomainError("tolerance must be positive")
    entries = tuple(scalars._as_scalar(v) for v in a_entries)
    if len(entries) != matrix.n:
        raise DomainError("parameter vector length must match the matrix size")
    for s in entries:
        if not scalars.in_open_unit_interval(s):
            raise DomainError("parameter entries must lie strictly between 0 and 1")
    if not matrix.is_full():
        data = pf_data(matrix, entries, min(DEFAULT_PRECISION, tolerance / 4))
        _require_radius_one(data.eigenvalue, tolerance)
        return ParamVector(matrix, entries, scalars.CERTIFIED, tolerance)
    radius = sum(scalars.refine(s, tolerance / (32 * matrix.n)) for s in entries)
    if radius.width > tolerance / 4:
        raise NumericalFailureError(
            "eigenvalue bracket is limited by fixed-width enclosure entries")
    _require_radius_one(radius, tolerance)
    exact = radius == Interval.point(1) and all(isinstance(s, Rat) for s in entries)
    return ParamVector(matrix, entries,
                       scalars.EXACT if exact else scalars.CERTIFIED, tolerance)


def canonical_point(matrix: ZeroOneMatrix) -> ParamVector:
    """The constant vector (1/c_A, ..., 1/c_A), c_A the spectral radius of
    `matrix`: the exact parameter solve_beta gives for unit frequencies,
    whose inverse temperature is log c_A.  An irrational entry is stored
    with the coarsest dyadic cell that isolates it, so the entry is the same
    whatever precision the solve was asked for."""
    if matrix.n > SOLVE_BETA_DEGREE_CAP:
        raise ResourceLimitError(
            f"an exact canonical point needs n <= {SOLVE_BETA_DEGREE_CAP}")
    return solve_beta(matrix, (1,) * matrix.n).param


# ---------------------------------------------------------------------------
# solvers


def solve_power_equation(exponents) -> Scalar:
    """The unique x in (0,1) with sum_i x^(p_i) = 1, as an exact scalar."""
    exps = [int(p) for p in exponents]
    if len(exps) < 2:
        raise DomainError("need at least two exponents (one forces x = 1)")
    if any(p < 1 for p in exps):
        raise DomainError("exponents must be positive integers")
    coeffs = [0] * (max(exps) + 1)
    coeffs[0] = -1
    for p in exps:
        coeffs[p] += 1
    # -1 at 0 and len(exps) - 1 > 0 at 1, increasing in between
    return scalars.make_algebraic(coeffs, Q(0), Q(1))


def _det_poly(matrix: ZeroOneMatrix, exps) -> list:
    """det(diag(t^m_i) A - I) as an integer polynomial in t, read off one
    integer determinant at t = 2^k.

    Each coefficient of D(t) is at most max |D| on |t| = 1, where row i has
    squared norm at most r_i + 3 (r_i the row sum of A), so Hadamard's
    inequality bounds it by B = prod_i sqrt(r_i + 3).  With 2^(k-1) > B
    the coefficients are the balanced base-2^k digits of D(2^k).

    The determinant is a Bareiss elimination on integers, each entry a 2x2
    minor divided exactly by the previous pivot, with no row swaps.  The
    pivots are the leading principal minors at 2^k, and each such minor is
    a polynomial of the same form: it is +-1 at t = 0, so not zero, and its
    coefficients are at most B, so 2^k >= 2B lies beyond its Cauchy root
    bound 1 + B.
    """
    n = matrix.n
    bound = math.isqrt(math.prod(sum(row) + 3 for row in matrix.rows)) + 1  # > B
    k = bound.bit_length() + 1
    m = [[(a << k * e) - (i == j) for j, a in enumerate(row)]
         for i, (row, e) in enumerate(zip(matrix.rows, exps))]
    prev = 1
    for p in range(n - 1):
        pivot = m[p][p]
        for i in range(p + 1, n):
            for j in range(p + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][p] * m[p][j]) // prev
        prev = pivot
    det, coeffs, half = m[-1][-1], [], 1 << k - 1
    while det:
        c = (det + half) % (1 << k) - half
        coeffs.append(c)
        det = (det - c) >> k
    return coeffs


def solve_beta(matrix: ZeroOneMatrix, omega, precision=DEFAULT_PRECISION) -> BetaSolution:
    """Solve PFE(diag(e^{-beta omega_i}) A) = 1 for the unique beta > 0.

    Rational frequencies take the exact branch (power-form parameters over
    the smallest (0,1) root of the determinant polynomial); anything else
    falls back to certified bisection with float parameters, whose mode
    is heuristic.  Either way beta is at most `precision` wide.
    """
    precision = Q(precision)
    if precision <= 0:
        raise DomainError("precision must be positive")
    if not isinstance(omega, FrequencyVector):
        omega = FrequencyVector(tuple(omega))
    if len(omega.entries) != matrix.n:
        raise DomainError("frequency vector length must match the matrix size")
    if not in_class_cdm(matrix):
        raise PreconditionError(
            "solver needs an irreducible non-permutation matrix (spectral radius > 1)")
    if omega.is_rational():
        fracs = [e.value for e in omega.entries]
        scale_l = lcm(*[f.denominator for f in fracs])
        m = [int(f * scale_l) for f in fracs]
        g = gcd(*m)
        reduced = [v // g for v in m]
        if sum(reduced) <= SOLVE_BETA_DEGREE_CAP:
            return _solve_beta_exact(matrix, reduced, Q(scale_l, g), precision)
    return _solve_beta_numeric(matrix, omega, precision)


def _solve_beta_exact(matrix: ZeroOneMatrix, reduced, scale: Fraction,
                      precision: Fraction) -> BetaSolution:
    # one squarefree part and one Sturm chain serve the isolation and the
    # algebraic number
    chain = polys.sturm_chain(polys.squarefree_part(_det_poly(matrix, reduced)))
    base = scalars.algebraic_from_chain(
        chain, *polys.isolate_smallest_root(chain, Q(0), Q(1)))
    entries = tuple(scalars.make_power(base, e) for e in reduced)
    # t >= 1/n, as 1 = PFE(diag(t^m) A) <= t n: an enclosure of width 1/(2n)
    # has lo > 0, and one of width w lo inside it has ln hi - ln lo <= w
    w = precision / (4 * scale)
    biv = scalars.refine(base, w * scalars.refine(base, Q(1, 2 * matrix.n)).lo)
    beta = Interval(-scale * log_interval_point(biv.hi, w).hi,
                    -scale * log_interval_point(biv.lo, w).lo)
    param = ParamVector(matrix, entries, scalars.EXACT)
    return BetaSolution(beta, param, base=base, exponents=tuple(reduced), scale=scale)


def _frequency_grid(entries, work: Fraction) -> tuple:
    """(ends, bits, target): what every sign test at working width `work`
    shares.  Each omega_i is refined to `work` once and unpacked into the
    integers (ln, ld, hn, hd) of its endpoints ln/ld <= omega_i <= hn/hd, or
    into (ln, ld) when its enclosure is a point; `bits` fixes the grid
    2^-bits of the entry bounds and `target` is 4 * work in units of that
    grid, the bracket width at which a sign test gives up."""
    bits = max(96, work.denominator.bit_length() + 48)
    target = (4 * work.numerator << bits) // work.denominator
    ends = []
    for w in entries:
        iv = scalars.refine(w, work)
        lo, hi = iv.lo, iv.hi
        ends.append((lo.numerator, lo.denominator) if lo == hi else
                    (lo.numerator, lo.denominator, hi.numerator, hi.denominator))
    return tuple(ends), bits, target


def _radius_vs_one(matrix: ZeroOneMatrix, grid: tuple, num: int, den: int,
                   x: list) -> tuple:
    """(sign, x): the sign of PFE(diag(e^{-beta omega}) A) - 1 at
    beta = num/den (integers num >= 0 and den > 0, the ratio not
    necessarily reduced), 0 when undecided at this working precision, and
    the iterate that gave the last bracket.  `grid` is _frequency_grid of
    the omega_i at the working width, and `x` is a positive integer start
    vector.

    The Collatz-Wielandt loop of pf_data, from `x`: every entry bound comes
    from exp_neg_grid on the grid 2^-bits, called on the products of the
    integer endpoints of omega_i with num and den (one call per row when
    omega_i is a point), so no Fraction is formed for beta * omega_i.  Any
    positive start vector gives a valid bracket, so the bisection passes
    each test the iterate of the one before, which is already close to the
    Perron vector.  Bisection only needs the sign, so the loop stops as
    soon as its bracket excludes 1.
    """
    ends, bits, target = grid
    rows = []
    for w in ends:
        at_lo = exp_neg_grid(w[0] * num, w[1] * den, bits)
        if len(w) == 2:
            rows.append(at_lo)
        else:
            at_hi = exp_neg_grid(w[2] * num, w[3] * den, bits)
            rows.append((at_hi[0], at_lo[1]))
    lo, hi, mid = _shifted_bounds(matrix, rows, bits)
    two = 2 << bits
    loop = _collatz_wielandt(lo, hi, mid, x, bits)
    for b_lo, b_hi, x, stall in islice(loop, 4000):
        if b_lo > two:
            return 1, x
        if b_hi < two:
            return -1, x
        if b_hi - b_lo <= target or stall >= 15:
            return 0, x
    return 0, x


def _solve_beta_numeric(matrix: ZeroOneMatrix, omega: FrequencyVector,
                        precision: Fraction) -> BetaSolution:
    """Certified bisection on beta: double an upper end until the radius
    drops below 1, then halve [0, hi] down to `precision`, refining the
    frequencies 16 times finer whenever a sign stays undecided.  The first
    sign test starts from the all-ones vector and each later one from the
    iterate the previous test returned.

    The bracket is held in integers as [lo, hi] / 2^e: the upper end
    doubles as an integer with e = 0, each midpoint is (lo + hi) / 2^(e+1),
    and e grows by one only when a sign is decided, so an undecided test is
    retried at the same beta.  The frequencies are unpacked once per working
    width, and the one Interval is formed after the loop.
    """
    work = max(precision / 64, Q(1, 10**15))
    grid = _frequency_grid(omega.entries, work)
    hi = 1
    sign, x = _radius_vs_one(matrix, grid, hi, 1, [1] * matrix.n)
    doublings = 0
    while sign >= 0:
        hi *= 2
        doublings += 1
        if doublings > 80:
            raise NumericalFailureError("no bracket for the inverse temperature")
        sign, x = _radius_vs_one(matrix, grid, hi, 1, x)
    lo, e = 0, 0
    p_num, p_den = precision.numerator, precision.denominator
    while (hi - lo) * p_den > p_num << e:  # (hi - lo) / 2^e > precision
        sign, x = _radius_vs_one(matrix, grid, lo + hi, 2 << e, x)
        if sign == 0:
            work /= 16
            if work < Q(1, 10**60):
                raise NumericalFailureError("bisection sign undecided at working width 1e-60")
            grid = _frequency_grid(omega.entries, work)
            continue
        lo, hi = (lo + hi, 2 * hi) if sign > 0 else (2 * lo, lo + hi)
        e += 1
    beta = Interval(Q(lo, 1 << e), Q(hi, 1 << e))
    mid = beta.mid
    entries = tuple(
        Flt(math.exp(-float(mid) * scalars.to_float(w))) for w in omega.entries
    )
    # no membership test checks the float parameters
    param = ParamVector(matrix, entries, scalars.HEURISTIC, tolerance=precision)
    return BetaSolution(beta, param)
