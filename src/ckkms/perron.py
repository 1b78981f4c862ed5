"""Perron-Frobenius data with rigorous two-sided error bounds.

Power iteration runs on the shifted matrix M + I (primitive whenever M is
irreducible, which kills the oscillation of periodic matrices).  It starts
from a float Perron vector of the midpoint matrix, made exact: any positive
start vector keeps the certificates valid, so the floats only save exact
steps.  Collatz-Wielandt quotients evaluated on the interval matrix give a
certified eigenvalue bracket at every step, in rational arithmetic.  The
eigenvector enclosure comes from a Birkhoff projective-metric contraction
bound on the integer power (M + I)^(n-1); its bounds, the endpoints of the
enclosure and the last eigenvalue bracket are rounded outward onto
power-of-two grids.  The enclosure is of the eigenvector of sum 1 whatever
the sum of the iterate.

The inverse-temperature solver has an exact branch for rational frequency
vectors: with omega_i = m_i / L the parameter entries are powers t^{m_i} of
a root t of det(diag(t^{m_i}) A - I), and t is the smallest root of that
polynomial in (0,1) because below it the spectral radius stays under 1, so
no eigenvalue can reach 1 earlier.  Other frequency vectors take a bisection
whose sign test runs the Collatz-Wielandt iteration on integers over a
power-of-two grid, rounded outward.  The canonical point (1/c_A, ..., 1/c_A)
is the exact parameter for unit frequencies: its entry is the smallest root
of det(tA - I) in (0,1), and beta = log c_A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

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
    certificate: str  # "exact" | "verified"
    tolerance: Fraction | None = None
    pf: PFData | None = field(default=None, compare=False, repr=False)  # from in_lambda

    def __post_init__(self):
        if len(self.entries) != self.matrix.n:
            raise DomainError("parameter vector length must match the matrix size")
        if self.certificate not in ("exact", "verified"):
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
    mode: str  # "exact" | "heuristic"
    base: Scalar | None = None  # a_i = base^exponents[i] in exact mode
    exponents: tuple | None = None
    scale: Fraction | None = None  # beta = -scale * ln(base)


# ---------------------------------------------------------------------------
# matrix plumbing


def _shifted_enclosure(matrix: ZeroOneMatrix, a, width: Fraction):
    """Entrywise enclosures (lo, hi, mid) of (diag a) A + I.

    Each a_i is refined once, until its lower endpoint is positive, and
    copied across the support of row i; zeros of A stay exact zeros.
    """
    n = matrix.n
    lo = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
    hi = [row[:] for row in lo]
    for i, s in enumerate(a):
        w = width
        iv = scalars.refine(s, w)
        while iv.lo <= 0 and not isinstance(s, Enc) and w > Q(1, 10**300):
            w /= 16
            iv = scalars.refine(s, w)
        if iv.lo < 0:
            raise PreconditionError("parameter entries must be positive")
        if iv.lo <= 0:
            raise PreconditionError("cannot certify the sign of a parameter entry")
        for j in range(n):
            if matrix.rows[i][j]:
                lo[i][j] += iv.lo
                hi[i][j] += iv.hi
    mid = [[(l + h) / 2 for l, h in zip(rlo, rhi)] for rlo, rhi in zip(lo, hi)]
    return lo, hi, mid


def _matvec(m, x):
    n = len(x)
    return [sum(m[i][j] * x[j] for j in range(n) if m[i][j]) for i in range(n)]


def _round_vector(x, max_den: int):
    out = []
    for v in x:
        r = v.limit_denominator(max_den)
        out.append(r if r > 0 else v)
    return out


def _float_start(nmid):
    """A positive start vector for both loops: float power iteration on the
    midpoint matrix, stopped at relative change 1e-15 or after 2000 steps.
    Each entry becomes the simplest fraction of denominator at most 2^20
    within 2^-48 of it, relative, or else the float's exact value, so an
    eigenvector with small denominators (the uniform vector of a matrix
    with equal weighted row sums) is hit exactly.  Any positive vector
    keeps the Collatz-Wielandt bracket and the Birkhoff bound valid, so the
    float arithmetic only decides how many exact steps follow."""
    n = len(nmid)
    rows = [[(j, float(v)) for j, v in enumerate(row) if v] for row in nmid]
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
    return start


def _cw_iterate(nlo, nhi, x, target: Fraction, cap: int, max_den: int):
    """Collatz-Wielandt bracket refinement for the shifted matrix.

    Returns (bracket_for_unshifted, x, converged, steps).  Every bracket
    contains the true eigenvalue, so successive brackets intersect.
    """
    n = len(x)
    best = None
    stall = 0
    steps = 0
    while steps < cap:
        steps += 1
        ylo = _matvec(nlo, x)
        yhi = _matvec(nhi, x)
        cw = Interval(min(ylo[i] / x[i] for i in range(n)) - 1,
                      max(yhi[i] / x[i] for i in range(n)) - 1)
        if best is None:
            best = cw
        else:
            merged = Interval(max(best.lo, cw.lo), min(best.hi, cw.hi))
            if merged.width >= best.width * Q(99, 100):
                stall += 1
            else:
                stall = 0
            best = merged
        if best.width <= target:
            return best, x, True, steps
        if stall >= 15:
            return best, x, False, steps
        # the midpoint matrix times x, exactly, by linearity
        y = [(a + b) / 2 for a, b in zip(ylo, yhi)]
        total = sum(y)
        x = _round_vector([v / total for v in y], max_den)
    return best, x, False, steps


# ---------------------------------------------------------------------------
# pf_data


def pf_data(matrix: ZeroOneMatrix, a=None, precision=DEFAULT_PRECISION) -> PFData:
    """Certified Perron eigenvalue bracket (width <= precision) of
    (diag a) A and a positive eigenvector enclosure normalized to sum 1.

    `a` holds one positive Scalar per row of the irreducible 0-1 matrix
    `matrix`, all ones when omitted.  The result records `precision`, so
    that states.state_spec can tell whether in_lambda's data fits.

    Both exact loops start from the float Perron vector of the midpoint
    matrix, so at the default precision the Collatz-Wielandt bracket
    usually meets its width in one step.  The Birkhoff bound runs on
    integer bounds of (M + I)^(n-1) on a power-of-two grid.  The bracket and
    each eigenvector entry, x_i/S scaled by the Birkhoff factor F^-1 and F,
    S = sum(x), are rounded outward onto power-of-two grids; exact points
    stay exact.
    """
    precision = Q(precision)
    if precision <= 0:
        raise DomainError("precision must be positive")
    n = matrix.n
    a = (scalars.ONE,) * n if a is None else tuple(scalars._as_scalar(s) for s in a)
    if len(a) != n:
        raise DomainError("parameter vector length must match the matrix size")
    if not is_irreducible(matrix):
        raise PreconditionError("matrix is not irreducible")
    refinable = not any(isinstance(s, Enc) for s in a)

    bits = max(64, precision.denominator.bit_length() + 48)
    max_den = 1 << bits
    entry_width = precision / (8 * n)
    nlo, nhi, nmid = _shifted_enclosure(matrix, a, entry_width)
    x = _float_start(nmid)
    total_steps = 0
    # rounding onto the grid 2^-bits widens the bracket by under 2^(1-bits)
    target = precision - Q(2, max_den)
    while True:
        bracket, x, ok, steps = _cw_iterate(
            nlo, nhi, x, target, ITERATION_CAP - total_steps, max_den)
        total_steps += steps
        if ok:
            break
        if total_steps >= ITERATION_CAP:
            raise NumericalFailureError(
                f"power iteration did not converge within {ITERATION_CAP} steps")
        if not refinable:
            raise NumericalFailureError(
                "eigenvalue bracket is limited by fixed-width enclosure entries")
        entry_width /= 64
        nlo, nhi, nmid = _shifted_enclosure(matrix, a, entry_width)
    bracket = bracket.outward(bits)

    vec_width = entry_width if not refinable else min(entry_width, precision / (64 * n))
    if refinable:
        nlo, nhi, nmid = _shifted_enclosure(matrix, a, vec_width)
    vector = _eigenvector_enclosure(
        nlo, nhi, nmid, x, precision, ITERATION_CAP, max_den, refinable,
        lambda w: _shifted_enclosure(matrix, a, w), vec_width, bits + 16)
    return PFData(bracket, vector, total_steps, precision)


def _positive_power(nlo, nhi, bits: int):
    """Integer matrices blo <= 2^bits (M+I)^(n-1) <= bhi, entrywise.

    nlo and nhi are rounded outward onto the grid 2^-bits once; each
    integer product is shifted back onto it, floor for the lower bound and
    ceil for the upper.
    """
    n = len(nlo)
    one = 1 << bits
    lo = [[math.floor(v * one) for v in row] for row in nlo]
    hi = [[math.ceil(v * one) for v in row] for row in nhi]
    blo, bhi = lo, hi
    for _ in range(n - 2):
        blo = [[sum(p * q for p, q in zip(row, col)) >> bits for col in zip(*lo)]
               for row in blo]
        bhi = [[-(-sum(p * q for p, q in zip(row, col)) >> bits) for col in zip(*hi)]
               for row in bhi]
    if any(v <= 0 for row in blo for v in row):
        raise NumericalFailureError("(M+I)^(n-1) has no positive lower bound on the grid")
    return blo, bhi


def _eigenvector_enclosure(nlo, nhi, nmid, x, precision, cap, max_den,
                           refinable, rebuild, width, bits):
    """Birkhoff bound: with B = (M+I)^(n-1) entrywise positive and upper
    contraction ratio kappa, the projective distance u from the iterate x
    to the true eigenvector v is at most d(x, Bx)/(1-kappa).  With
    S = sum(x) and sum(v) = 1 the ratios v_i/x_i straddle 1/S and lie within
    a factor e^u of each other, so v_i is in [x_i/(S F), x_i F/S] for
    F = 1 + u + u^2 >= e^u; the endpoints are rounded outward onto a grid
    2^-bits or finer, fine enough that every lower endpoint stays positive.
    When u = 0, x is an exact eigenvector and the entries are exact points."""
    blo, bhi = _positive_power(nlo, nhi, bits)
    # the cross-ratio sup (B_ik B_jl)/(B_jk B_il) is at most (top/bot)^2; a
    # loose kappa only costs extra iterations, never correctness
    root = Q(max(v for row in bhi for v in row), min(v for row in blo for v in row))
    kappa = (root - 1) / (root + 1)
    denom = 1 - kappa
    best_u = None
    stall = 0
    steps = 0
    while True:
        steps += 1
        if steps > cap:
            break
        # max over i, j of (x_i (Bx)hi_j) / (x_j (Bx)lo_i)
        ratio = (max(w / xi for w, xi in zip(_matvec(bhi, x), x))
                 / min(w / xi for w, xi in zip(_matvec(blo, x), x)))
        u = (ratio - 1) / denom
        if u <= precision and u <= 1:
            break
        if best_u is not None and u >= best_u * Q(99, 100):
            stall += 1
        else:
            stall = 0
        best_u = u if best_u is None else min(best_u, u)
        if stall >= 10:
            if not refinable:
                break
            if width < Q(1, 1 << bits):
                # entries narrower than the grid of B cannot lower u
                raise NumericalFailureError(
                    f"eigenvector enclosure stalled at projective distance {float(u):.3g}")
            width /= 64
            nlo, nhi, nmid = rebuild(width)
            blo, bhi = _positive_power(nlo, nhi, bits)
            stall = 0
            continue
        y = _matvec(nmid, x)
        total = sum(y)
        x = _round_vector([v / total for v in y], max_den)
    if u > 1:
        raise NumericalFailureError(
            f"eigenvector enclosure stalled at projective distance {float(u):.3g} > 1")
    total = sum(x)
    factor = 1 + u + u * u  # >= e^u for u in [0, 1]
    bits += math.floor(total / min(x)).bit_length()
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
    whatever the entry type; each entry is refined to tolerance/(32n) and
    no finer, as an algebraic entry keeps and later prints the narrowest
    enclosure asked of it.  Any other matrix
    takes one pf_data at min(DEFAULT_PRECISION, tolerance/4), eigenvector
    included, and the returned ParamVector carries it as `pf`, which
    states.state_spec reuses at that precision.
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
        return ParamVector(matrix, entries, "verified", tolerance, data)
    radius = sum(scalars.refine(s, tolerance / (32 * matrix.n)) for s in entries)
    if radius.width > tolerance / 4:
        raise NumericalFailureError(
            "eigenvalue bracket is limited by fixed-width enclosure entries")
    _require_radius_one(radius, tolerance)
    exact = radius == Interval.point(1) and all(isinstance(s, Rat) for s in entries)
    return ParamVector(matrix, entries, "exact" if exact else "verified", tolerance)


def canonical_point(matrix: ZeroOneMatrix, precision=DEFAULT_PRECISION) -> ParamVector:
    """The constant vector (1/c_A, ..., 1/c_A), c_A the spectral radius of
    `matrix`: the exact parameter solve_beta gives for unit frequencies,
    whose inverse temperature is log c_A.  Its isolating interval is no
    wider than `precision`."""
    if matrix.n > SOLVE_BETA_DEGREE_CAP:
        raise ResourceLimitError(
            f"an exact canonical point needs n <= {SOLVE_BETA_DEGREE_CAP}")
    return solve_beta(matrix, (1,) * matrix.n, precision).param


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
    lo, hi = polys.refine_root(coeffs, Q(0), Q(1), DEFAULT_PRECISION)
    if lo == hi:
        return Rat(lo)
    return scalars.make_algebraic(coeffs, lo, hi)


def _det_poly(matrix: ZeroOneMatrix, exps) -> list:
    """det(diag(t^m_i) A - I) as an integer polynomial in t."""
    n = matrix.n
    mat = []
    for i in range(n):
        row = []
        for j in range(n):
            p = [0] * exps[i] + [1] if matrix.rows[i][j] else []
            if i == j:
                p = polys.sub(p, [1])
            row.append(p)
        mat.append(row)
    return polys.polymat_det(mat)


def solve_beta(matrix: ZeroOneMatrix, omega, precision=DEFAULT_PRECISION) -> BetaSolution:
    """Solve PFE(diag(e^{-beta omega_i}) A) = 1 for the unique beta > 0.

    Rational frequencies take the exact branch (power-form parameters over
    the smallest (0,1) root of the determinant polynomial); anything else
    falls back to certified bisection with float parameters, flagged
    heuristic.  Either way beta is at most `precision` wide.
    """
    precision = Q(precision)
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
    det = _det_poly(matrix, reduced)
    lo, hi = polys.isolate_smallest_root(det, Q(0), Q(1))
    lo, hi = polys.refine_root(det, lo, hi, precision)
    base = Rat(lo) if lo == hi else scalars.make_algebraic(det, lo, hi)
    entries = tuple(scalars.make_power(base, e) for e in reduced)
    # t >= 1/n, as 1 = PFE(diag(t^m) A) <= t n: an enclosure of width 1/(2n)
    # has lo > 0, and one of width w lo inside it has ln hi - ln lo <= w
    w = precision / (4 * scale)
    biv = scalars.refine(base, w * scalars.refine(base, Q(1, 2 * matrix.n)).lo)
    beta = Interval(-scale * log_interval_point(biv.hi, w).hi,
                    -scale * log_interval_point(biv.lo, w).lo)
    param = ParamVector(matrix, entries, "exact")
    return BetaSolution(beta, param, "exact", base=base,
                        exponents=tuple(reduced), scale=scale)


def _radius_vs_one(matrix: ZeroOneMatrix, freqs, beta: Fraction,
                   work: Fraction) -> int:
    """Sign of PFE(diag(e^{-beta omega}) A) - 1; 0 when undecided at this
    working precision.  `freqs` holds the enclosures of the omega_i refined
    to width `work`.

    A Collatz-Wielandt iteration on M + I in integers: every entry bound
    comes from exp_neg_grid, rounded outward onto the grid 2^-bits (one call
    per row when beta * omega_i is a point), the iterate is a positive integer
    vector, and the bracket on PFE(M) + 1 is kept in grid units, each
    quotient rounded outward.  Any positive vector gives a valid bracket, so
    floor renormalisation costs no soundness.  Bisection only needs the
    sign, so the loop stops as soon as the bracket excludes 2.
    """
    bits = max(96, work.denominator.bit_length() + 48)
    one = 1 << bits
    n = matrix.n
    lo = [[0] * n for _ in range(n)]
    hi = [[0] * n for _ in range(n)]
    for i, w in enumerate(freqs):
        t = w * beta
        if t.lo == t.hi:
            a_lo, a_hi = exp_neg_grid(t.lo, bits)
        else:
            a_lo, a_hi = exp_neg_grid(t.hi, bits)[0], exp_neg_grid(t.lo, bits)[1]
        for j in range(n):
            if matrix.rows[i][j]:
                lo[i][j], hi[i][j] = a_lo, a_hi
        lo[i][i] += one
        hi[i][i] += one
    mid = [[(a + b) >> 1 for a, b in zip(rlo, rhi)] for rlo, rhi in zip(lo, hi)]
    two = 2 * one
    target = (4 * work.numerator << bits) // work.denominator  # 4*work in grid units
    x = [1] * n
    b_lo, b_hi = 0, math.inf
    stall = 0
    for _ in range(4000):
        c_lo = min(s // v for s, v in zip(_matvec(lo, x), x))
        c_hi = max(-(-s // v) for s, v in zip(_matvec(hi, x), x))
        width = b_hi - b_lo
        b_lo, b_hi = max(b_lo, c_lo), min(b_hi, c_hi)
        stall = stall + 1 if 100 * (b_hi - b_lo) >= 99 * width else 0
        if b_lo > two:
            return 1
        if b_hi < two:
            return -1
        if b_hi - b_lo <= target or stall >= 15:
            return 0
        y = _matvec(mid, x)
        shift = max(sum(y).bit_length() - bits, 0)
        x = [(v >> shift) or 1 for v in y]
    return 0


def _solve_beta_numeric(matrix: ZeroOneMatrix, omega: FrequencyVector,
                        precision: Fraction) -> BetaSolution:
    work = max(precision / 64, Q(1, 10**15))
    freqs = [scalars.refine(w, work) for w in omega.entries]
    hi = Q(1)
    doublings = 0
    while _radius_vs_one(matrix, freqs, hi, work) >= 0:
        hi *= 2
        doublings += 1
        if doublings > 80:
            raise NumericalFailureError("no bracket for the inverse temperature")
    lo = Q(0)
    while hi - lo > precision:
        mid = (lo + hi) / 2
        sign = _radius_vs_one(matrix, freqs, mid, work)
        if sign == 0:
            work /= 16
            if work < Q(1, 10**60):
                raise NumericalFailureError("bisection sign undecided at working width 1e-60")
            freqs = [scalars.refine(w, work) for w in omega.entries]
            continue
        if sign > 0:
            lo = mid
        else:
            hi = mid
    beta = Interval(lo, hi)
    mid = beta.mid
    entries = tuple(
        Flt(math.exp(-float(mid) * scalars.to_float(w))) for w in omega.entries
    )
    param = ParamVector(matrix, entries, "verified", tolerance=precision)
    return BetaSolution(beta, param, "heuristic")
