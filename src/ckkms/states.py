"""KMS state evaluation on the monomial algebra and the KMS-condition check.

A state is determined by its parameter vector a and the eigenvector x of
(diag a) A with eigenvalue 1 and sum 1: on a diagonal monomial s_J s_J* with
|J| = m the value is a_{j_1} ... a_{j_{m-1}} x_{j_m}; off the diagonal the
value is 0.  For full matrices x = a exactly, so those states evaluate in
exact arithmetic; otherwise the eigenvector is carried as a certified
interval enclosure.  letter_data gives the enclosures of both per letter,
as integer endpoint pairs over one denominator each, so that a walk along
the admissible words encloses their diagonal values by integer products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import ckwords, perron, scalars
from .ckwords import Monomial
from .errors import DimensionError, DomainError, PreconditionError
from .intervals import Interval, Q, exp_interval
from .matrix01 import ZeroOneMatrix
from .perron import (DEFAULT_PRECISION, DEFAULT_TOLERANCE, BetaSolution,
                     FrequencyVector, ParamVector, TensorFrequencyVector,
                     _require_radius_one)
from .scalars import ENCLOSURE_WIDTH, Enc, Rat, Scalar


@dataclass(frozen=True)
class StateSpec:
    param: ParamVector
    eigenvalue: Interval  # contains 1 within the parameter tolerance
    eigenvector: tuple  # tuple[Interval, ...], positive, sums to 1
    exact_vector: tuple | None  # tuple[Scalar, ...] when available
    precision: Fraction

    @property
    def matrix(self) -> ZeroOneMatrix:
        return self.param.matrix


def state_spec(param: ParamVector, precision=DEFAULT_PRECISION,
               independent_pf: bool = False) -> StateSpec:
    """Build the evaluation data for the state of a certified parameter.

    Full matrices admit the exact eigenvector x = a (row i of (diag a) F_n
    applied to a gives a_i * sum(a) = a_i); `independent_pf` forces the
    power-iteration path anyway, which verification oracles use to keep the
    two sides of an identity independent.  On that path one pf_data runs at
    `precision` (its memo returns the data in_lambda decided the parameter
    with, when that was at the same precision), and a bracket that misses 1
    by more than the parameter's tolerance (8 * precision without one)
    raises MembershipRejected.
    """
    precision = Q(precision)
    matrix = param.matrix
    if matrix.is_full() and not independent_pf:
        enclosures = tuple(scalars.refine(s, precision) for s in param.entries)
        return StateSpec(param, sum(enclosures), enclosures, param.entries, precision)
    data = perron.pf_data(matrix, param.entries, precision)
    slack = param.tolerance if param.tolerance is not None else precision * 8
    _require_radius_one(data.eigenvalue, slack)
    return StateSpec(param, data.eigenvalue, data.eigenvector, None, precision)


# ---------------------------------------------------------------------------
# evaluation


def eval_monomial(spec: StateSpec, mono: Monomial) -> Scalar:
    """rho_a(s_J s_K*): zero off the diagonal, else the product of the
    parameter entries along J except the last letter, times x of the last."""
    matrix = spec.matrix
    if max(mono.J + mono.K, default=0) > matrix.n:
        raise DimensionError("monomial uses letters beyond the matrix size")
    if mono.J != mono.K:
        return scalars.ZERO
    if mono.is_unit:
        return scalars.ONE
    if ckwords.monomial_is_zero(matrix, mono):
        return scalars.ZERO
    J = mono.J
    last = J[-1] - 1
    if spec.exact_vector is not None:
        x_last = spec.exact_vector[last]
    else:
        x_last = Enc(spec.eigenvector[last])
    return scalars.mul(*(spec.param.entries[j - 1] for j in J[:-1]), x_last)


def _common_numerators(intervals) -> tuple:
    """([(lo, hi), ...], d): the endpoints of `intervals` as integer
    numerators over d, the lcm of their denominators."""
    d = lcm(*(q.denominator for iv in intervals for q in (iv.lo, iv.hi)))
    return [(iv.lo.numerator * (d // iv.lo.denominator),
             iv.hi.numerator * (d // iv.hi.denominator)) for iv in intervals], d


def letter_data(spec: StateSpec) -> tuple:
    """(e, d_e, x, d_x): enclosures of the parameter entries as integer
    endpoint pairs e[i - 1] = (lo, hi) over d_e, and of the eigenvector
    entries as pairs x[i - 1] over d_x (each d the lcm of its entries'
    denominators).

    Each parameter entry, and each entry of an exact eigenvector, is refined
    once to ENCLOSURE_WIDTH, the width to which scalars.mul refines the
    operands of eval_monomial, and further if its lower endpoint is not yet
    positive; a power-iteration eigenvector is used as it is and must have
    positive lower endpoints.  All endpoints are positive, so the products
    of lower and of upper endpoints along an admissible word J of length m,
    e[j_1] ... e[j_{m-1}] x[j_m] over d_e^(m-1) d_x, enclose the value that
    eval_monomial gives exactly or encloses for s_J s_J*.
    """
    e, d_e = _common_numerators(
        [perron.positive_enclosure(a, ENCLOSURE_WIDTH) for a in spec.param.entries])
    if spec.exact_vector is None:
        x = spec.eigenvector
        if any(iv.lo <= 0 for iv in x):
            raise PreconditionError("eigenvector enclosure is not positive")
    else:
        x = [perron.positive_enclosure(v, ENCLOSURE_WIDTH) for v in spec.exact_vector]
    x, d_x = _common_numerators(x)
    return e, d_e, x, d_x


def eval_state(spec: StateSpec, x) -> Scalar:
    """Linear extension of eval_monomial to normal forms."""
    nf = ckwords.as_normal_form(spec.matrix, x)
    if nf.is_zero:
        return scalars.ZERO
    terms = []
    for mono, coeff in nf.terms:
        value = eval_monomial(spec, mono)
        if isinstance(value, Rat) and value.value == 0:
            continue
        terms.append(scalars.mul(coeff, value))
    if not terms:
        return scalars.ZERO
    return scalars.add(*terms)


def quasi_free_eval(n: int, J, K) -> Scalar:
    """delta_{JK} n^{-|J|}, exact; every word is admissible over the full
    matrix.  The dimension is checked like a letter: a bool or a
    non-integer such as 2.7 raises DomainError instead of being truncated."""
    try:
        n = ckwords._letter(n)
    except DomainError:
        raise DomainError(f"dimension {n!r} is not an integer") from None
    if n < 2:
        raise DomainError("quasi-free states need n >= 2")
    J = tuple(map(ckwords._letter, J))
    K = tuple(map(ckwords._letter, K))
    for j in J + K:
        if not 1 <= j <= n:
            raise DomainError(f"letter index {j} outside 1..{n}")
    if J != K:
        return scalars.ZERO
    return Rat(Q(1, n ** len(J)))


# ---------------------------------------------------------------------------
# gauge action


def _beta_scalar(beta) -> Scalar:
    """An inverse temperature given as a BetaSolution, an Interval or a
    scalar, as one Scalar."""
    if isinstance(beta, BetaSolution):
        return Enc(beta.beta)
    if isinstance(beta, Interval):
        return Enc(beta)
    return scalars._as_scalar(beta)


def _matches_solution(omega: FrequencyVector, solution: BetaSolution) -> bool:
    """True when `solution` is exact and omega_i = exponents[i] / scale, so
    that its parameter entries are exactly e^{-beta omega_i}."""
    if solution.base is None or solution.exponents is None:
        return False
    if not omega.is_rational() or len(omega.entries) != len(solution.exponents):
        return False
    scale = solution.scale
    return all(w.value == Q(e, 1) / scale
               for w, e in zip(omega.entries, solution.exponents))


def _tensor_at_one(omega: FrequencyVector, beta) -> bool:
    """True for the frequencies of a pair of exact gauge actions
    (tensorops.combined_frequencies) at inverse temperature exactly 1."""
    return isinstance(omega, TensorFrequencyVector) and _beta_scalar(beta) == scalars.ONE


def gauge_factor(omega, beta, mono: Monomial, precision=DEFAULT_PRECISION) -> Scalar:
    """The factor e^{-beta (omega(J) - omega(K))} by which the analytically
    continued gauge action scales s_J s_K*.

    Exact beta solutions with matching rational frequencies give an exact
    power of the solution's base.  The frequencies of a pair of exact gauge
    actions (a TensorFrequencyVector) at beta exactly 1 give the exact
    product t_1^(delta e) t_2^(delta f) of powers of the two bases, the
    exponent sums of J minus those of K over the split letters.  Everything
    else is an enclosure.
    """
    precision = Q(precision)
    if not isinstance(omega, FrequencyVector):
        omega = FrequencyVector(tuple(omega))
    if isinstance(beta, BetaSolution) and _matches_solution(omega, beta):
        exp_total = (sum(beta.exponents[j - 1] for j in mono.J)
                     - sum(beta.exponents[k - 1] for k in mono.K))
        if exp_total == 0:
            return scalars.ONE
        return scalars.make_power(beta.base, exp_total)
    if _tensor_at_one(omega, beta):
        (first, second), m = omega.solutions, omega.m
        e, f = first.exponents, second.exponents
        de = (sum(e[(u - 1) // m] for u in mono.J)
              - sum(e[(u - 1) // m] for u in mono.K))
        df = (sum(f[(u - 1) % m] for u in mono.J)
              - sum(f[(u - 1) % m] for u in mono.K))
        return scalars.mul(scalars.make_power(first.base, de),
                           scalars.make_power(second.base, df))
    count = max(1, len(mono.J) + len(mono.K))
    work = precision / (4 * count)
    delta_iv = Interval.point(0)
    for j in mono.J:
        delta_iv = delta_iv + scalars.refine(omega.entries[j - 1], work)
    for k in mono.K:
        delta_iv = delta_iv - scalars.refine(omega.entries[k - 1], work)
    if delta_iv.lo == delta_iv.hi == 0:
        return scalars.ONE
    biv = scalars.refine(_beta_scalar(beta), precision)
    return Enc(exp_interval(-(biv * delta_iv), precision))


# ---------------------------------------------------------------------------
# KMS condition


@dataclass(frozen=True)
class KmsCheckResult:
    ok: bool
    lhs: Scalar
    rhs: Scalar
    residual: Fraction  # certified upper bound on |lhs - rhs| before rounding
    tolerance: Fraction


# kms_check rounds an enclosure side outward onto the grid of the width to
# which mul and add refine its operands
SIDE_BITS = scalars.grid_bits(ENCLOSURE_WIDTH)


def _on_grid(s: Scalar) -> Scalar:
    return Enc(s.interval.outward(SIDE_BITS)) if isinstance(s, Enc) else s


def residual_bound(a: Scalar, b: Scalar, precision=Q(1, 10**14)) -> Fraction:
    """Certified upper bound on |a - b|."""
    ia = scalars.refine(a, Q(precision))
    ib = scalars.refine(b, Q(precision))
    return ia.distance_sup(ib)


def kms_check(spec: StateSpec, omega, beta, x, y,
              tolerance=DEFAULT_TOLERANCE, precision=DEFAULT_PRECISION) -> KmsCheckResult:
    """Check rho(y . sigma_{i beta}(x)) = rho(x y) for monomials x, y.

    Precondition: the spec's parameter satisfies a_i = e^{-beta omega_i}
    within the tolerance; violating that is a usage error
    (PreconditionError), not a failed check.  The precondition holds
    exactly, by representation, in two cases: beta is an exact BetaSolution
    matching rational omega and the spec's entries are the solution's; or
    omega is a TensorFrequencyVector (tensorops.combined_frequencies of two
    exact solutions), beta is exactly 1 and the spec's entries equal its
    stored Kronecker vector, since equal representations are equal values.
    Any other input has it proved on enclosures, one exp_interval per
    parameter entry.

    `residual` bounds the distance of the two sides as evaluated.  The
    returned `lhs` and `rhs` are those sides, with an enclosure rounded
    outward onto the grid 2^-SIDE_BITS of ENCLOSURE_WIDTH, the width its
    operands were refined to; exact sides are returned as they are.
    """
    tolerance = Q(tolerance)
    precision = Q(precision)
    if not isinstance(omega, FrequencyVector):
        omega = FrequencyVector(tuple(omega))
    if len(omega.entries) != spec.matrix.n:
        raise DimensionError("frequency vector length must match the matrix size")
    matrix = spec.matrix

    if isinstance(beta, BetaSolution) and _matches_solution(omega, beta):
        structural = spec.param.entries == beta.param.entries
    else:
        structural = _tensor_at_one(omega, beta) and spec.param.entries == omega.kronecker
    if not structural:
        biv = scalars.refine(_beta_scalar(beta), precision)
        for a_i, w in zip(spec.param.entries, omega.entries):
            wiv = scalars.refine(w, precision)
            target = exp_interval(-(biv * wiv), precision)
            gap = scalars.refine(a_i, precision).distance_sup(target)
            if gap > tolerance:
                raise PreconditionError(
                    "parameter does not match e^{-beta omega} within tolerance "
                    f"(gap bound {float(gap):.3g})")

    xf = ckwords.as_normal_form(matrix, x)
    yf = ckwords.as_normal_form(matrix, y)
    lhs_terms = []
    for mono, coeff in xf.terms:
        factor = gauge_factor(omega, beta, mono, precision)
        value = eval_state(spec, ckwords.multiply(matrix, yf, mono))
        if isinstance(value, Rat) and value.value == 0:
            continue
        lhs_terms.append(scalars.mul(coeff, factor, value))
    lhs = scalars.add(*lhs_terms) if lhs_terms else scalars.ZERO
    rhs = eval_state(spec, ckwords.multiply(matrix, xf, yf))
    gap = residual_bound(lhs, rhs, min(precision, tolerance / 16))
    return KmsCheckResult(gap <= tolerance, _on_grid(lhs), _on_grid(rhs), gap, tolerance)
