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
    terms = []
    for mono, coeff in ckwords.as_normal_form(spec.matrix, x).terms:
        value = eval_monomial(spec, mono)
        if isinstance(value, Rat) and value.value == 0:
            continue
        terms.append(scalars.mul(coeff, value))
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


def _exact_gauge(omega: FrequencyVector, beta):
    """(bases, rows, entries) with e^{-beta omega_u} = prod_k
    bases[k]^rows[u][k] = entries[u] exactly, or None.  That holds by
    representation for an exact BetaSolution whose exponents over its scale
    are the rational omega, with the solution's base and parameter entries,
    and for a TensorFrequencyVector at beta exactly 1, with its stored
    gauge."""
    if isinstance(omega, TensorFrequencyVector):
        if _beta_scalar(beta) == scalars.ONE:
            return omega.bases, omega.rows, omega.kronecker
        return None
    if (not isinstance(beta, BetaSolution) or beta.base is None
            or beta.exponents is None):
        return None
    if not omega.is_rational() or len(omega.entries) != len(beta.exponents):
        return None
    if any(w.value != Q(e, 1) / beta.scale
           for w, e in zip(omega.entries, beta.exponents)):
        return None
    return (beta.base,), tuple((e,) for e in beta.exponents), beta.param.entries


def gauge_factor(omega, beta, mono: Monomial, precision=DEFAULT_PRECISION) -> Scalar:
    """The factor e^{-beta (omega(J) - omega(K))} by which the analytically
    continued gauge action scales s_J s_K*.

    Where omega and beta carry an exact gauge (_exact_gauge: a matching
    exact beta solution, or the frequencies of a tensor of exact gauge
    actions at beta exactly 1) the factor is the exact product of the
    powers t_k^(sum over J - sum over K of the exponent rows' k-th entries)
    of its bases.  Everything else is an enclosure.
    """
    precision = Q(precision)
    if not isinstance(omega, FrequencyVector):
        omega = FrequencyVector(tuple(omega))
    gauge = _exact_gauge(omega, beta)
    if gauge is not None:
        bases, rows, _ = gauge
        return scalars.mul(*(
            scalars.make_power(t, sum(rows[j - 1][k] for j in mono.J)
                               - sum(rows[j - 1][k] for j in mono.K))
            for k, t in enumerate(bases)))
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
    exactly, by representation, when omega and beta carry an exact gauge
    (_exact_gauge) whose entries are the spec's, since equal
    representations are equal values.  Any other input has it proved on
    enclosures, one exp_interval per parameter entry.

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

    gauge = _exact_gauge(omega, beta)
    if gauge is None or spec.param.entries != gauge[2]:
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
    lhs = scalars.add(*lhs_terms)
    rhs = eval_state(spec, ckwords.multiply(matrix, xf, yf))
    gap = residual_bound(lhs, rhs, min(precision, tolerance / 16))
    return KmsCheckResult(gap <= tolerance, _on_grid(lhs), _on_grid(rhs), gap, tolerance)
