"""The type-III invariant lambda of a parameter vector and its tensor laws.

lambda(a) is the base of the unique decomposition a_i = lambda^{p_i} with
coprime positive integer exponents when one exists, and 1 otherwise.  For
rational vectors the decomposition is decided exactly on the prime-exponent
lattice.  Power-form vectors (a common algebraic base with integer
exponents) are classified symbolically: the exponent gcd moves into the
base.  Mixed rational-times-power entries reduce to the lattice over the
primes together with the algebraic base; that is exact when the base is an
algebraic unit, since no nontrivial power of a unit in (0,1) is rational.
Float vectors are classified heuristically through continued-fraction
convergents of log ratios and are labeled as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import scalars
from .errors import (DomainError, InvalidScalarError, PreconditionError,
                     ResourceLimitError)
from .intervals import Q, exp_interval
from .matrix01 import DEFAULT_DIMENSION_CAP
from .perron import DEFAULT_PRECISION, DEFAULT_TOLERANCE, solve_beta
from .scalars import (EXACT, HEURISTIC, Alg, BaseDecomposition, Enc, Flt, Rat,
                      Scalar, log_ratio_rational)
from .tensorops import kronecker_vector

FLOAT_EXPONENT_CAP = 64
BELOW_FLOAT_RANGE = "an entry is below the smallest positive float"
# The label of a one-entry power (a)^{kron k} is a^k itself.  It is built only
# while k times the bits of a (see _check_one_entry_size) stay within this
# cap, far below the 4,300 decimal digits Python prints of an int.
POWER_LABEL_BITS = 8192


@dataclass(frozen=True)
class PowerForm:
    """A vector (base^e_1, ..., base^e_n) kept symbolic in the exponents."""
    base: Scalar
    exponents: tuple

    def __post_init__(self):
        base = scalars._as_scalar(self.base)
        exps = tuple(int(e) for e in self.exponents)
        if not exps:
            raise DomainError("power form needs at least one exponent")
        if any(e < 1 for e in exps):
            raise DomainError("power-form exponents must be positive integers")
        if not scalars.in_open_unit_interval(base):
            raise DomainError("power-form base must lie strictly between 0 and 1")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponents", exps)

    def entries(self) -> tuple:
        return tuple(scalars.make_power(self.base, e) for e in self.exponents)


@dataclass(frozen=True)
class TypeLabel:
    lam: Scalar  # in (0,1]
    mode: str  # a mode of scalars.MODES
    decomposition: BaseDecomposition | None = None  # present iff lam < 1
    warnings: tuple = ()

    def __post_init__(self):
        if self.mode not in scalars.MODES:
            raise DomainError(f"unknown mode {self.mode!r}")

    @property
    def is_one(self) -> bool:
        return isinstance(self.lam, Rat) and self.lam.value == 1


LABEL_ONE = TypeLabel(scalars.ONE, EXACT)


# ---------------------------------------------------------------------------
# entry decomposition over a single algebraic base


def _is_unit_alg(base: Alg) -> bool:
    # integer polynomial with unit leading and constant coefficient: every
    # root is an algebraic unit, so no nontrivial power is a rational other
    # than +-1, and none of those lie in (0,1)
    return abs(base.poly[0]) == 1 and abs(base.poly[-1]) == 1


def _lattice_vectors(entries):
    """Exponent vectors over (primes..., algebraic base) or None when the
    entries do not share a single certified-unit base."""
    splits = []
    bases = set()
    for s in entries:
        if not scalars.is_exact(s):
            return None
        rational, factors = scalars._factors_of(s)
        if rational <= 0:
            return None
        factors = dict(factors)
        bases.update(factors)
        splits.append((rational, factors))
    if len(bases) > 1:
        return None
    base = next(iter(bases)) if bases else None
    if base is not None and not _is_unit_alg(base):
        return None
    vec_dicts = [scalars._exp_vector(rational) for rational, _ in splits]
    primes = sorted(set().union(*[set(d) for d in vec_dicts])) if vec_dicts else []
    rows = []
    for d, (rational, factors) in zip(vec_dicts, splits):
        vec = [d.get(p, 0) for p in primes]
        if base is not None:
            vec.append(factors.get(base, 0))
        rows.append(tuple(vec))
    return primes, base, rows


def _base_from_vector(primes, base, vec) -> Scalar:
    rational = Q(1)
    for p, e in zip(primes, vec):
        rational *= Q(p) ** e
    if base is None or not vec[-1]:
        return Rat(rational)
    return scalars.mul(Rat(rational), scalars.make_power(base, vec[-1]))


def _classify_lattice(entries) -> TypeLabel | None:
    data = _lattice_vectors(entries)
    if data is None:
        return None
    primes, base, rows = data
    if all(not any(v) for v in rows):
        return LABEL_ONE  # every entry is 1: outside the domain, caught earlier
    solved = scalars._parallel_lattice(rows)
    if solved is None:
        return LABEL_ONE
    primitive, multipliers = solved
    lam = _base_from_vector(primes, base, primitive)
    if not scalars.in_open_unit_interval(lam):
        primitive = [-v for v in primitive]
        multipliers = [-m for m in multipliers]
        lam = _base_from_vector(primes, base, primitive)
    if any(m < 1 for m in multipliers):
        return LABEL_ONE
    g = math.gcd(*multipliers)
    if g > 1:
        lam = scalars.make_power(lam, g)
    return TypeLabel(lam, EXACT,
                     BaseDecomposition(lam, tuple(m // g for m in multipliers)))


# ---------------------------------------------------------------------------
# detect_lambda


def _validate_open_unit(entries):
    for s in entries:
        if not scalars.in_open_unit_interval(s):
            raise DomainError("entries must lie strictly between 0 and 1")


def _classify_floats(values) -> TypeLabel:
    if min(values) <= 0:
        raise ResourceLimitError(BELOW_FLOAT_RANGE)
    warnings = []
    ratios = [Q(1)]
    for v in values[1:]:
        verdict = log_ratio_rational(Flt(v), Flt(values[0]))
        if verdict.kind != "rational":
            warnings.append(
                "a log ratio shows no small rational dependence; treating the "
                "entries as multiplicatively independent")
            return TypeLabel(scalars.ONE, HEURISTIC, None, tuple(warnings))
        ratios.append(verdict.ratio)
    denom_lcm = math.lcm(*(r.denominator for r in ratios))
    exps = [int(r * denom_lcm) for r in ratios]
    g = math.gcd(*exps)
    exps = [e // g for e in exps]
    if any(e < 1 for e in exps) or max(exps) > FLOAT_EXPONENT_CAP:
        warnings.append(
            "inferred exponents are implausibly large for float evidence; "
            "treating the entries as multiplicatively independent")
        return TypeLabel(scalars.ONE, HEURISTIC, None, tuple(warnings))
    lam = Flt(math.exp(math.log(values[0]) * g / denom_lcm))
    return TypeLabel(lam, HEURISTIC,
                     BaseDecomposition(lam, tuple(exps)), tuple(warnings))


def detect_lambda(a) -> TypeLabel:
    """The invariant lambda of a parameter-style vector with entries in
    (0,1); exact for rational, power-form, and certified single-base mixed
    inputs, heuristic for floats."""
    if isinstance(a, PowerForm):
        g = math.gcd(*a.exponents)
        lam = scalars.make_power(a.base, g)
        exps = tuple(e // g for e in a.exponents)
        return TypeLabel(lam, EXACT, BaseDecomposition(lam, exps))
    entries = tuple(scalars._as_scalar(v) for v in a)
    if not entries:
        raise DomainError("empty vector")
    _validate_open_unit(entries)
    if any(isinstance(s, (Flt, Enc)) for s in entries):
        values = [scalars.to_float(s) for s in entries]
        return _classify_floats(values)
    label = _classify_lattice(entries)
    if label is not None:
        return label
    values = [scalars.to_float(s) for s in entries]
    label = _classify_floats(values)
    return TypeLabel(label.lam, HEURISTIC, label.decomposition,
                     label.warnings + (
                         "entries mix algebraic bases that the exact lattice "
                         "cannot certify; falling back to float heuristics",))


# ---------------------------------------------------------------------------
# tensor and power laws


def _kron_exponents(e1, e2) -> tuple:
    return tuple(a + b for a in e1 for b in e2)


def tensor_type(a, b) -> TypeLabel:
    """lambda of the Kronecker product vector; two power forms over one
    base keep it, and bases not proved equal take the Kronecker entries."""
    if isinstance(a, PowerForm) and isinstance(b, PowerForm):
        try:
            one_base = scalars.same_value(a.base, b.base)
        except InvalidScalarError:
            one_base = False
        if one_base:
            return detect_lambda(PowerForm(a.base, _kron_exponents(a.exponents,
                                                                   b.exponents)))
    ea = a.entries() if isinstance(a, PowerForm) else tuple(
        scalars._as_scalar(v) for v in a)
    eb = b.entries() if isinstance(b, PowerForm) else tuple(
        scalars._as_scalar(v) for v in b)
    return detect_lambda(kronecker_vector(ea, eb))


def _check_power_size(n: int, k: int, dimension_cap: int) -> None:
    """Raise ResourceLimitError when n^k > dimension_cap, multiplying only
    until the product passes the cap, so a huge k costs no big power."""
    if n < 2:
        return
    size = 1
    for _ in range(k):
        size *= n
        if size > dimension_cap:
            raise ResourceLimitError(
                f"the Kronecker power of {n} entries exceeds the cap {dimension_cap}")


def _check_one_entry_size(base: Scalar, k: int) -> None:
    """Raise ResourceLimitError when base^k would pass POWER_LABEL_BITS.

    Each factor of the power adds the bits of the larger numerator or
    denominator of the rational part of base (or of its enclosure ends),
    plus its algebraic exponents; a float adds 1.
    """
    if isinstance(base, Enc):
        ends, exps = (base.interval.lo, base.interval.hi), ()
    elif isinstance(base, Flt):
        ends, exps = (), ()
    else:
        rational, factors = scalars._factors_of(base)
        ends, exps = (rational,), [e for _, e in factors]
    bits = sum(abs(e) for e in exps) + max(
        (max(abs(x.numerator).bit_length(), x.denominator.bit_length()) for x in ends),
        default=1)
    if k * bits > POWER_LABEL_BITS:
        raise ResourceLimitError(
            f"the power {k} of a one-entry vector exceeds the label size cap "
            f"of {POWER_LABEL_BITS} bits")


def power_type_direct(a, k: int, dimension_cap: int = DEFAULT_DIMENSION_CAP) -> TypeLabel:
    """lambda of the k-fold Kronecker power of a.  The power of one entry
    (a_1) is (a_1^k), built without the Kronecker loop and only within
    POWER_LABEL_BITS."""
    k = int(k)
    if k < 1:
        raise DomainError("the power must be a positive integer")
    if isinstance(a, PowerForm) and len(a.exponents) == 1:
        _check_one_entry_size(a.base, a.exponents[0] * k)
        return detect_lambda(PowerForm(a.base, (a.exponents[0] * k,)))
    if isinstance(a, PowerForm):
        _check_power_size(len(a.exponents), k, dimension_cap)
        exps = a.exponents
        for _ in range(k - 1):
            exps = _kron_exponents(exps, a.exponents)
        return detect_lambda(PowerForm(a.base, exps))
    entries = tuple(scalars._as_scalar(v) for v in a)
    if len(entries) == 1:
        _check_one_entry_size(entries[0], k)
        _validate_open_unit(entries)
        power = scalars.make_power(entries[0], k)
        if isinstance(power, Flt) and power.value == 0:
            raise ResourceLimitError(BELOW_FLOAT_RANGE)
        return detect_lambda((power,))
    _check_power_size(len(entries), k, dimension_cap)
    acc = entries
    for _ in range(k - 1):
        acc = kronecker_vector(acc, entries)
    return detect_lambda(acc)


def power_type_ck2(p: int, q: int, k: int) -> int:
    """Exponent r with lambda(a^{kron k}) = x^r for a = (x^p, x^q) over a
    2x2 full matrix, gcd(p,q) = 1: r = gcd(|p-q|, k), where gcd(k,0) = k."""
    p, q, k = int(p), int(q), int(k)
    if p < 1 or q < 1:
        raise DomainError("exponents must be positive integers")
    if k < 1:
        raise DomainError("the power must be a positive integer")
    if math.gcd(p, q) != 1:
        raise PreconditionError("exponents must be coprime")
    return math.gcd(abs(p - q), k)


def afd_tensor_label(lam, mu) -> TypeLabel:
    """The label of the tensor of two injective type-III factors: tau when
    (lambda, mu) = (tau^p, tau^q) with coprime p, q, and 1 otherwise.  A
    float input gives detect_lambda's heuristic label and its warnings."""
    lam = scalars._as_scalar(lam)
    mu = scalars._as_scalar(mu)
    for s in (lam, mu):
        c = scalars.compare_rational(s, Q(1))
        if c > 0 or scalars.compare_rational(s, Q(0)) <= 0:
            raise DomainError("labels must lie in (0, 1]")
    if scalars.compare_rational(lam, Q(1)) == 0 or \
            scalars.compare_rational(mu, Q(1)) == 0:
        return LABEL_ONE
    return detect_lambda((lam, mu))


def afd_tensor_rule(lam, mu) -> Scalar:
    """The value of afd_tensor_label."""
    return afd_tensor_label(lam, mu).lam


def iii1_family(n: int, dimension_cap: int = DEFAULT_DIMENSION_CAP) -> tuple:
    """A rational vector in the full-matrix parameter simplex with label 1:
    (n-1 copies of 1/(n+1), then 2/(n+1)) for even n, and (n-2 copies of
    1/(n+2), then two copies of 2/(n+2)) for odd n.  Raises
    ResourceLimitError when n exceeds dimension_cap."""
    n = int(n)
    if n < 2:
        raise DomainError("need n >= 2")
    if n > dimension_cap:
        raise ResourceLimitError(f"a family of {n} entries exceeds the cap {dimension_cap}")
    if n % 2 == 0:
        return tuple([Q(1, n + 1)] * (n - 1) + [Q(2, n + 1)])
    return tuple([Q(1, n + 2)] * (n - 2) + [Q(2, n + 2)] * 2)


# ---------------------------------------------------------------------------
# independent modulus cross-check


@dataclass(frozen=True)
class OkaReport:
    match: bool
    lam: Scalar
    modulus: tuple  # interval endpoints of r = -log(lam candidate)
    gap: Fraction


def oka_crosscheck(matrix, omega) -> OkaReport:
    """Cross-check the invariant against the modulus of the subgroup of the
    reals generated by beta times the frequencies.

    For rational frequencies m_i / L with g = gcd(m), the subgroup is
    (beta g / L) Z, so the label must equal e^{-beta g / L}; the check
    compares that enclosure with the classified label's enclosure.
    """
    solution = solve_beta(matrix, omega)
    if solution.mode != EXACT:
        raise PreconditionError("the cross-check needs rational frequencies")
    label = detect_lambda(PowerForm(solution.base, solution.exponents))
    r_iv = solution.beta * (1 / solution.scale)
    e_minus_r = exp_interval(-r_iv, DEFAULT_PRECISION)
    lam_iv = scalars.refine(label.lam, DEFAULT_PRECISION)
    gap = lam_iv.distance_sup(e_minus_r)
    return OkaReport(gap <= DEFAULT_TOLERANCE, label.lam, (r_iv.lo, r_iv.hi), gap)
