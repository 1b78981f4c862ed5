"""Kronecker products, the index-level embedding, and tensor-product states.

The composite index convention is u = m(i-1) + j for i in 1..n, j in 1..m.
The embedding sends the composite generator s_u to s_i tensor s_j, so its
action on monomials is letterwise index splitting; the tensor product of
two states evaluates a composite monomial as the product of the two factor
evaluations of the split monomials.

The homomorphism verifier compares that tensor evaluation against the state
of the Kronecker parameter vector over the Kronecker matrix, with the
composite eigenvector recomputed independently by power iteration.  A state
of this class vanishes on every s_J s_K* with J != K (the state formula of
Enomoto, Fujii and Watatani), and the letterwise split of such a monomial
has unequal sequences in at least one half, so both sides vanish there and
the identity can only fail on the diagonal.  There the verifier reads both
sides from per-state tables of value enclosures (states.diagonal_table),
built once per call by integer prefix products along the admissible words,
and compares them in integers, one common denominator per word length.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import ckwords, scalars, states
from .ckwords import Monomial
from .errors import DimensionError, DomainError
from .intervals import Q
from .matrix01 import kronecker_matrix
from .perron import (DEFAULT_PRECISION, DEFAULT_TOLERANCE, FrequencyVector,
                     ParamVector)
from .scalars import Rat, Scalar
from .states import StateSpec, state_spec


@dataclass(frozen=True)
class IndexSplit:
    n: int
    m: int

    def __post_init__(self):
        if self.n < 2 or self.m < 2:
            raise DomainError("factor dimensions must be at least 2")

    @property
    def size(self) -> int:
        return self.n * self.m

    def pair_index(self, i: int, j: int) -> int:
        if not (1 <= i <= self.n and 1 <= j <= self.m):
            raise DomainError(f"pair ({i},{j}) outside 1..{self.n} x 1..{self.m}")
        return self.m * (i - 1) + j

    def split_index(self, u: int):
        if not 1 <= u <= self.size:
            raise DomainError(f"composite index {u} outside 1..{self.size}")
        return ((u - 1) // self.m + 1, (u - 1) % self.m + 1)


def kronecker_vector(v, w) -> tuple:
    """(v kron w)_{m(i-1)+j} = v_i w_j as exact scalar products."""
    vs = [scalars._as_scalar(x) for x in v]
    ws = [scalars._as_scalar(x) for x in w]
    return tuple(scalars.mul(a, b) for a in vs for b in ws)


def embed_monomial(split: IndexSplit, mono: Monomial):
    """Letterwise index splitting: the pair of factor monomials whose tensor
    is the image of the composite monomial."""
    _check_composite(split.size, mono)
    return _split_monomial(split.m, mono)


def _check_composite(size: int, mono: Monomial):
    letters = mono.J + mono.K
    if letters and (min(letters) < 1 or max(letters) > size):
        u = next(u for u in letters if not 1 <= u <= size)
        raise DomainError(f"composite index {u} outside 1..{size}")


def _split_monomial(m: int, mono: Monomial):
    # u - 1 = m(i - 1) + (j - 1) splits a checked composite letter u into
    # the letters i and j of factors of dimensions n and m
    first = ckwords._monomial(tuple((u - 1) // m + 1 for u in mono.J),
                              tuple((u - 1) // m + 1 for u in mono.K))
    second = ckwords._monomial(tuple((u - 1) % m + 1 for u in mono.J),
                               tuple((u - 1) % m + 1 for u in mono.K))
    return first, second


def tensor_state_eval(spec_a: StateSpec, spec_b: StateSpec, x) -> Scalar:
    """(rho_a tensor rho_b) of a composite normal form, evaluated through
    the embedding: each composite monomial splits into two factor monomials
    and the values multiply.

    A term with J != K vanishes (module docstring) and is skipped before
    either factor is evaluated."""
    composite = kronecker_matrix(spec_a.matrix, spec_b.matrix)
    nf = ckwords.as_normal_form(composite, x)
    if nf.is_zero:
        return scalars.ZERO
    terms = []
    for mono, coeff in nf.terms:
        _check_composite(composite.n, mono)
        if mono.J != mono.K:
            continue
        first, second = _split_monomial(spec_b.matrix.n, mono)
        va = states.eval_monomial(spec_a, first)
        if isinstance(va, Rat) and va.value == 0:
            continue
        vb = states.eval_monomial(spec_b, second)
        if isinstance(vb, Rat) and vb.value == 0:
            continue
        terms.append(scalars.mul(coeff, va, vb))
    if not terms:
        return scalars.ZERO
    return scalars.add(*terms)


# ---------------------------------------------------------------------------
# homomorphism verification


@dataclass(frozen=True)
class TensorReport:
    passed: bool
    max_residual: Fraction
    tolerance: Fraction
    diagonal_count: int
    max_len: int


def verify_tensor_identity(spec_a: StateSpec, spec_b: StateSpec, max_len: int,
                           tolerance=DEFAULT_TOLERANCE) -> TensorReport:
    """Compare the tensor evaluation with the state of the Kronecker
    parameter over the Kronecker matrix.

    Every admissible diagonal monomial s_J s_J* with |J| <= max_len is
    checked on enclosures from states.diagonal_table: one table per factor
    state over its words of length <= max_len, one for the composite state
    over the composite words.  The tensor side of s_J s_J* is the product
    of the factor entries of the two halves of J, split letter by letter,
    and its distance bound to the composite entry is the residual.  The
    comparison cross-multiplies the tables' integer endpoints, and one
    Fraction per word length gives the exact max_residual.  Every
    entry contains its true value, so max_residual bounds
    |rho_a tensor rho_b - rho_{a kron b}| on every checked monomial, and
    so on all of the span of the words up to max_len: both sides vanish on
    every s_J s_K* with J != K (module docstring).

    The composite state takes one power iteration on the Kronecker matrix;
    when its eigenvalue bracket misses 1 +- `tolerance` that raises
    MembershipRejected.
    """
    tolerance = Q(tolerance)
    composite = kronecker_matrix(spec_a.matrix, spec_b.matrix)
    ab = kronecker_vector(spec_a.param.entries, spec_b.param.entries)
    spec_ab = state_spec(ParamVector(composite, ab, "verified", tolerance),
                         precision=min(spec_a.precision, spec_b.precision,
                                       tolerance / 64),
                         independent_pf=True)
    split = IndexSplit(spec_a.matrix.n, spec_b.matrix.n)
    words = ckwords.enumerate_admissible(composite, max_len)
    table_a = states.diagonal_table(
        spec_a, ckwords.enumerate_admissible(spec_a.matrix, max_len))
    table_b = states.diagonal_table(
        spec_b, ckwords.enumerate_admissible(spec_b.matrix, max_len))
    table_ab = states.diagonal_table(spec_ab, words)
    halves = {u: split.split_index(u) for u in range(1, split.size + 1)}
    # a word of length m has its tensor side over da_m db_m and its
    # composite entry over dab_m, so both are compared over da_m db_m dab_m;
    # top[m] is the largest distance numerator among the words of length m
    weights = [(dab, da * db) for da, db, dab in zip(
        table_a.denominators, table_b.denominators, table_ab.denominators)]
    ea, eb, eab = table_a.entries, table_b.entries, table_ab.entries
    top = {}
    diagonal = 0
    for J in words:
        if J and not ckwords.followers(composite, J, J):
            continue
        alo, ahi = ea[tuple(halves[u][0] for u in J)]
        blo, bhi = eb[tuple(halves[u][1] for u in J)]
        clo, chi = eab[J]
        wl, wr = weights[len(J)]
        gap = max(abs(ahi * bhi * wl - clo * wr), abs(chi * wr - alo * blo * wl))
        diagonal += 1
        if gap > top.get(len(J), -1):
            top[len(J)] = gap
    max_residual = max((Q(gap, weights[m][0] * weights[m][1])
                        for m, gap in top.items()), default=Q(0))
    return TensorReport(max_residual <= tolerance, max_residual, tolerance,
                        diagonal, max_len)


# ---------------------------------------------------------------------------
# gauge actions on tensor products


def combined_frequencies(split: IndexSplit, omega1, beta1, omega2,
                         beta2) -> FrequencyVector:
    """Frequencies of the tensor of two rescaled gauge actions:
    Omega_{m(i-1)+j} = beta1 omega_i + beta2 omega_j.  The Kronecker state
    is KMS for this action at inverse temperature 1."""
    if not isinstance(omega1, FrequencyVector):
        omega1 = FrequencyVector(tuple(omega1))
    if not isinstance(omega2, FrequencyVector):
        omega2 = FrequencyVector(tuple(omega2))
    if len(omega1.entries) != split.n or len(omega2.entries) != split.m:
        raise DimensionError("frequency lengths must match the split dimensions")
    b1 = states._beta_scalar(beta1)
    b2 = states._beta_scalar(beta2)
    for b in (b1, b2):
        if scalars.refine(b, DEFAULT_PRECISION).lo <= 0:
            raise DomainError("inverse temperatures must be positive")
    entries = []
    for wi in omega1.entries:
        for wj in omega2.entries:
            entries.append(scalars.add(scalars.mul(b1, wi), scalars.mul(b2, wj)))
    return FrequencyVector(tuple(entries))


# ---------------------------------------------------------------------------
# coassociativity of the index splitting


def check_coassociativity(n_a: int, n_b: int, n_c: int) -> bool:
    """Both ways of splitting a triple-product generator index agree:
    u -> (composite, k) -> ((i, j), k) equals u -> (i, composite) -> (i, (j, k))."""
    if min(n_a, n_b, n_c) < 2:
        raise DomainError("all three dimensions must be at least 2")
    left_outer = IndexSplit(n_a * n_b, n_c)
    left_inner = IndexSplit(n_a, n_b)
    right_outer = IndexSplit(n_a, n_b * n_c)
    right_inner = IndexSplit(n_b, n_c)
    for u in range(1, n_a * n_b * n_c + 1):
        uc, k = left_outer.split_index(u)
        i1, j1 = left_inner.split_index(uc)
        i2, vc = right_outer.split_index(u)
        j2, k2 = right_inner.split_index(vc)
        if (i1, j1, k) != (i2, j2, k2):
            return False
    return True
