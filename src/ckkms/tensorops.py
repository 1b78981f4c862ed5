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
the identity can only fail on the diagonal.  There each side is enclosed
by prefix products of per-letter data (states.letter_data): the tensor
side's data are the Kronecker product of the two factors', the composite
side's those of the composite state.  The verifier walks the composite
words once, carrying both sides as integer prefix products, and compares
them in integers, one pair of common denominators per word length.  Like
ckwords.enumerate_admissible, it refuses more than ckwords.WORD_CAP words.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import ckwords, scalars, states
from .ckwords import Monomial
from .errors import DimensionError, DomainError, ResourceLimitError
from .intervals import Q
from .matrix01 import kronecker_matrix
from .perron import (DEFAULT_PRECISION, DEFAULT_TOLERANCE, FrequencyVector,
                     ParamVector, TensorFrequencyVector)
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
    terms = []
    for mono, coeff in ckwords.as_normal_form(composite, x).terms:
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


def _kronecker_letters(data_a, data_b) -> tuple:
    """The letter data of the tensor side, from the two factors' data of
    states.letter_data: letter u = m(i-1) + j gets the endpoint products of
    letter i of the first factor and letter j of the second, over the
    product of their denominators."""
    (ea, d_ea, xa, d_xa), (eb, d_eb, xb, d_xb) = data_a, data_b
    e = [(alo * blo, ahi * bhi) for alo, ahi in ea for blo, bhi in eb]
    x = [(alo * blo, ahi * bhi) for alo, ahi in xa for blo, bhi in xb]
    return e, d_ea * d_eb, x, d_xa * d_xb


def verify_tensor_identity(spec_a: StateSpec, spec_b: StateSpec, max_len: int,
                           tolerance=DEFAULT_TOLERANCE) -> TensorReport:
    """Compare the tensor evaluation with the state of the Kronecker
    parameter over the Kronecker matrix.

    Every admissible diagonal monomial s_J s_J* with |J| <= max_len is
    checked on enclosures built from states.letter_data.  The tensor side
    of s_J s_J* is the product of the factor values of the two halves of J,
    split letter by letter, which is the diagonal value of the Kronecker
    letter data (_kronecker_letters); the composite side takes the letter
    data of the composite state.  One walk over the composite words, level
    by level from the unit, extends each word's two prefix products by one
    letter: a word's entry is its parent's prefix times the letter's x, and
    its own prefix its parent's times the letter's e.  The comparison
    cross-multiplies integer endpoints over one pair of denominators per
    word length, and one Fraction per length gives the exact max_residual.
    Every entry contains its true value, so max_residual bounds
    |rho_a tensor rho_b - rho_{a kron b}| on every checked monomial, and
    so on all of the span of the words up to max_len: both sides vanish on
    every s_J s_K* with J != K (module docstring).

    `max_len` is an int >= 0 and `tolerance` is positive, else DomainError.
    More than ckwords.WORD_CAP composite words up to max_len raise
    ResourceLimitError before any word is walked.  The composite state
    takes one power iteration on the Kronecker matrix; when its eigenvalue
    bracket misses 1 +- `tolerance` that raises MembershipRejected.
    """
    if isinstance(max_len, bool) or not isinstance(max_len, int) or max_len < 0:
        raise DomainError(f"max_len must be an integer >= 0, not {max_len!r}")
    tolerance = Q(tolerance)
    if tolerance <= 0:
        raise DomainError(f"tolerance must be positive, not {tolerance}")
    composite = kronecker_matrix(spec_a.matrix, spec_b.matrix)
    ab = kronecker_vector(spec_a.param.entries, spec_b.param.entries)
    spec_ab = state_spec(ParamVector(composite, ab, scalars.CERTIFIED, tolerance),
                         precision=min(spec_a.precision, spec_b.precision,
                                       tolerance / 64),
                         independent_pf=True)
    # after[v]: the 0-based followers of letter v + 1, after[-1] those of
    # the unit; a word is diagonal when its last letter has a follower
    after = [tuple(w - 1 for w in sorted(f))
             for f in composite.follower_sets[1:] + composite.follower_sets[:1]]
    ends, words = [1] * composite.n, 1
    for _ in range(max_len):
        words += sum(ends)
        if words > ckwords.WORD_CAP:
            raise ResourceLimitError("admissible word enumeration exceeded "
                                     f"{ckwords.WORD_CAP} entries")
        ends = [sum(c for c, f in zip(ends, composite.follower_sets[1:]) if w in f)
                for w in range(1, composite.n + 1)]
    diagonal_after = [tuple(w for w in f if after[w]) for f in after]
    te, d_te, tx, d_tx = _kronecker_letters(states.letter_data(spec_a),
                                            states.letter_data(spec_b))
    ce, d_ce, cx, d_cx = states.letter_data(spec_ab)
    # a node is (last letter, tensor prefix lo, hi, composite prefix lo, hi)
    frontier = [(-1, 1, 1, 1, 1)]
    diagonal, max_residual = 1, Q(0)
    for length in range(1, max_len + 1):
        # a word of this length has its tensor side over dt and its
        # composite entry over dc, so both are compared over dt dc
        dt, dc = d_te ** (length - 1) * d_tx, d_ce ** (length - 1) * d_cx
        xs = [(tlo * dc, thi * dc, clo * dt, chi * dt)
              for (tlo, thi), (clo, chi) in zip(tx, cx)]
        top = -1
        for v, tlo, thi, clo, chi in frontier:
            for w in diagonal_after[v]:
                xtlo, xthi, xclo, xchi = xs[w]
                gap = max(abs(thi * xthi - clo * xclo), abs(chi * xchi - tlo * xtlo))
                if gap > top:
                    top = gap
            diagonal += len(diagonal_after[v])
        if top >= 0:
            max_residual = max(max_residual, Q(top, dt * dc))
        if length < max_len:
            frontier = [(w, tlo * te[w][0], thi * te[w][1], clo * ce[w][0], chi * ce[w][1])
                        for v, tlo, thi, clo, chi in frontier for w in after[v]]
    return TensorReport(max_residual <= tolerance, max_residual, tolerance,
                        diagonal, max_len)


# ---------------------------------------------------------------------------
# gauge actions on tensor products


def combined_frequencies(split: IndexSplit, omega1, beta1, omega2,
                         beta2) -> FrequencyVector:
    """Frequencies of the tensor of two rescaled gauge actions:
    Omega_{m(i-1)+j} = beta1 omega_i + beta2 omega_j.  The Kronecker state
    is KMS for this action at inverse temperature 1.

    The entries are these sums as scalars (enclosures for a BetaSolution).
    When both factors carry an exact gauge (states._exact_gauge: an exact
    BetaSolution matching its rational omega, or a TensorFrequencyVector at
    beta exactly 1), the result is a TensorFrequencyVector whose gauge
    composes theirs: the bases concatenated, the exponent rows of letters i
    and j concatenated for letter m(i-1) + j, and the Kronecker vector of
    the two entry tuples.  states.kms_check at beta = 1 on a spec with
    exactly those entries then takes its precondition as proved by
    representation, and states.gauge_factor returns exact products of
    powers of the bases, for nested tensor products too.
    """
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
    entries = tuple(scalars.add(scalars.mul(b1, wi), scalars.mul(b2, wj))
                    for wi in omega1.entries for wj in omega2.entries)
    gauge1 = states._exact_gauge(omega1, beta1)
    gauge2 = states._exact_gauge(omega2, beta2)
    if gauge1 is None or gauge2 is None:
        return FrequencyVector(entries)
    (bases1, rows1, a1), (bases2, rows2, a2) = gauge1, gauge2
    return TensorFrequencyVector(entries, bases1 + bases2,
                                 tuple(r + s for r in rows1 for s in rows2),
                                 kronecker_vector(a1, a2))


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
