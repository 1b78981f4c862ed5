"""Words in the Cuntz-Krieger generators and their canonical normal form.

A word is a sequence of letters s_i or s_i*.  The single oriented rewrite
rule s_i* s_j -> delta_ij sum_k A_ik s_k s_k* pushes every starred letter to
the right; the measure counting, for each starred letter, the unstarred
letters to its right drops by exactly one per step, so rewriting terminates,
and since redexes never overlap the result is strategy-independent.

Monomials s_J s_K* sharing a complete set of common followers are linearly
dependent: summing s_{Jr} s_{Kr}* over every r with A_{j_last, r} =
A_{k_last, r} = 1 gives s_J s_K* back.  A final contraction pass folds such
complete equal-coefficient families onto the shorter monomial, which makes
the normal form canonical (the unit is kept as the empty monomial and is
never expanded into sum_i s_i s_i*).

Coefficients are rational, as the rewrite rule only sums 0-1 entries: a
normal form holds Fractions, and scalars enter only where a state evaluates it.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction

from . import scalars
from .errors import DimensionError, DomainError, ResourceLimitError
from .intervals import Q
from .matrix01 import ZeroOneMatrix
from .scalars import Rat

TERM_CAP = 10**5
WORD_CAP = 10**5


@dataclass(frozen=True)
class Letter:
    index: int
    starred: bool = False

    def __post_init__(self):
        index = _letter(self.index)
        if index < 1:
            raise DomainError("generator indices start at 1")
        object.__setattr__(self, "index", index)


def _letter(j) -> int:
    """A letter index at the word boundary, as an int.  Anything
    operator.index accepts (int, numpy integers) converts; a bool or a
    non-integer such as 1.5 raises DomainError instead of being truncated."""
    if type(j) is int:
        return j
    if isinstance(j, bool):
        raise DomainError(f"letter index {j!r} is a bool, not an integer")
    try:
        return operator.index(j)
    except TypeError:
        raise DomainError(f"letter index {j!r} is not an integer") from None


@dataclass(frozen=True)
class Monomial:
    """s_J s_K*.  The public constructor is the boundary: it converts and
    validates every letter with _letter.  Monomials built inside the
    package from letters already validated go through _monomial."""

    J: tuple
    K: tuple

    def __post_init__(self):
        object.__setattr__(self, "J", tuple(map(_letter, self.J)))
        object.__setattr__(self, "K", tuple(map(_letter, self.K)))

    @property
    def is_unit(self) -> bool:
        return not self.J and not self.K

    def letters(self) -> tuple:
        return (tuple(Letter(j) for j in self.J)
                + tuple(Letter(k, True) for k in reversed(self.K)))

    def adjoint(self) -> "Monomial":
        return _monomial(self.K, self.J)

    def sort_key(self):
        return (len(self.J) + len(self.K), len(self.J), self.J, self.K)


def _monomial(J: tuple, K: tuple) -> Monomial:
    """A Monomial from tuples of int letters, without the boundary
    conversion; it equals and hashes like Monomial(J, K)."""
    mono = object.__new__(Monomial)
    object.__setattr__(mono, "J", J)
    object.__setattr__(mono, "K", K)
    return mono


@dataclass(frozen=True)
class NormalForm:
    terms: tuple  # tuple[(Monomial, Fraction)], sorted, no zero coefficients

    @staticmethod
    def from_dict(d: dict) -> "NormalForm":
        """The form of a Monomial -> coefficient dict; a coefficient other
        than an int or a Fraction (a bool, a float, a Scalar) raises DomainError."""
        items = []
        for mono, c in d.items():
            if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
                raise DomainError(f"coefficient {c!r} is not an int or a Fraction")
            if c:
                items.append((mono, c if isinstance(c, Fraction) else Fraction(c)))
        items.sort(key=lambda t: t[0].sort_key())
        return NormalForm(tuple(items))

    def as_dict(self) -> dict:
        return {m: c for m, c in self.terms}

    @property
    def is_zero(self) -> bool:
        return not self.terms


ZERO_FORM = NormalForm(())
UNIT_FORM = NormalForm(((Monomial((), ()), Q(1)),))


# ---------------------------------------------------------------------------
# admissibility and the zero test


def _check_indices(matrix: ZeroOneMatrix, seq):
    n = matrix.n
    if seq and (min(seq) < 1 or max(seq) > n):
        bad = next(j for j in seq if not 1 <= j <= n)
        raise DomainError(f"letter index {bad} outside 1..{n}")


def _chain_allowed(masks: tuple, seq) -> bool:
    # every consecutive pair (i, j) of the validated letters has A_ij = 1
    for i, j in zip(seq, seq[1:]):
        if not masks[i] >> j & 1:
            return False
    return True


def is_admissible(matrix: ZeroOneMatrix, word) -> bool:
    """True iff every consecutive index pair is allowed by the matrix, so
    the product of unstarred generators along the word is nonzero."""
    seq = tuple(map(_letter, word))
    _check_indices(matrix, seq)
    return _chain_allowed(matrix.follower_masks, seq)


def followers(matrix: ZeroOneMatrix, J, K) -> frozenset:
    """Letters r for which both Jr and Kr stay admissible; the unit's
    followers are all letters."""
    _check_indices(matrix, (*J[-1:], *K[-1:]))
    sets = matrix.follower_sets
    return sets[J[-1] if J else 0] & sets[K[-1] if K else 0]


def monomial_is_zero(matrix: ZeroOneMatrix, mono: Monomial) -> bool:
    J, K = mono.J, mono.K
    _check_indices(matrix, J + K)
    masks = matrix.follower_masks
    if not _chain_allowed(masks, J) or not _chain_allowed(masks, K):
        return True
    if not J and not K:
        return False
    return not masks[J[-1] if J else 0] & masks[K[-1] if K else 0]


# ---------------------------------------------------------------------------
# parsing

_TOKEN = re.compile(r"s(\d+)(\*?)$")


def parse_word(text: str) -> tuple:
    """Parse the CLI word syntax `s1 s2* s1` into a Letter sequence."""
    letters = []
    for tok in text.split():
        m = _TOKEN.match(tok)
        if not m:
            raise DomainError(f"cannot parse letter {tok!r} (expected like s1 or s2*)")
        letters.append(Letter(int(m.group(1)), m.group(2) == "*"))
    return tuple(letters)


def format_word(letters) -> str:
    return " ".join(f"s{l.index}{'*' if l.starred else ''}" for l in letters)


# ---------------------------------------------------------------------------
# rewriting


def _letters_of(word) -> list:
    out = []
    for l in word:
        if isinstance(l, Letter):
            out.append((l.index, l.starred))
        else:
            idx, starred = l
            out.append((_letter(idx), bool(starred)))
    return out


def _term_is_dead(masks: tuple, letters) -> bool:
    # adjacent unstarred s_i s_j with A_ij = 0, or starred s_i* s_j* with
    # A_ji = 0, kill the whole term
    for (i, si), (j, sj) in zip(letters, letters[1:]):
        if not si and not sj and not masks[i] >> j & 1:
            return True
        if si and sj and not masks[j] >> i & 1:
            return True
    return False


def _find_redex(letters, strategy: str):
    rng = range(len(letters) - 1)
    if strategy == "rightmost":
        rng = reversed(rng)
    for t in rng:
        if letters[t][1] and not letters[t + 1][1]:
            return t
    return None


def _measure(letters) -> int:
    unstarred_right = 0
    total = 0
    for idx, starred in reversed(letters):
        if starred:
            total += unstarred_right
        else:
            unstarred_right += 1
    return total


def _split_normal(letters) -> Monomial:
    # no redex: unstarred prefix then starred suffix
    m = len(letters)
    cut = next((t for t, (_, starred) in enumerate(letters) if starred), m)
    J = tuple(idx for idx, _ in letters[:cut])
    K = tuple(idx for idx, _ in reversed(letters[cut:]))
    return _monomial(J, K)


def rewrite(matrix: ZeroOneMatrix, word, strategy: str = "leftmost",
            term_cap: int = TERM_CAP, trace: list | None = None) -> dict:
    """Run the rewrite to a redex-free linear combination.

    Returns a dict Monomial -> Fraction.  When `trace` is a list, the
    measure of every term picked for a step is appended before rewriting it.
    Raises ResourceLimitError past `term_cap` pending terms or `term_cap`
    steps, one per child term: the depth-first walk keeps few terms
    pending, so only the step count bounds the total work.
    """
    if strategy not in ("leftmost", "rightmost"):
        raise DomainError(f"unknown strategy {strategy!r}")
    start = _letters_of(word)
    _check_indices(matrix, [idx for idx, _ in start])
    masks = matrix.follower_masks
    result: dict = {}
    if _term_is_dead(masks, start):
        return result
    stack = [(Q(1), start)]
    steps = 0
    while stack:
        if len(stack) > term_cap or steps > term_cap:
            raise ResourceLimitError(f"rewrite exceeded {term_cap} pending terms or steps")
        coeff, letters = stack.pop()
        t = _find_redex(letters, strategy)
        if t is None:
            mono = _split_normal(letters)
            if not monomial_is_zero(matrix, mono):
                acc = result.get(mono, Q(0)) + coeff
                if acc:
                    result[mono] = acc
                else:
                    result.pop(mono, None)
            continue
        i = letters[t][0]
        j = letters[t + 1][0]
        if i != j:
            continue  # orthogonal ranges: the term is 0
        before = _measure(letters) if trace is not None else 0
        steps += len(matrix.follower_sets[i])
        for k in matrix.follower_sets[i]:
            child = letters[:t] + [(k, False), (k, True)] + letters[t + 2:]
            if trace is not None:
                trace.append((before, _measure(child)))
            # the parent is alive, so only the pairs at the new letters can kill
            if not _term_is_dead(masks, child[max(t - 1, 0):t + 3]):
                stack.append((coeff, child))
    return result


def _contract(matrix: ZeroOneMatrix, combo: dict) -> dict:
    """Fold complete equal-coefficient follower families onto their parent.

    A fold deletes children two letters longer than their parent and writes
    the parent, so it can only complete a family with a shorter parent, and
    families are disjoint: one pass over parent sizes, longest first,
    makes every fold.  The empty parent is skipped so the unit never
    absorbs sum_i s_i s_i*.
    """
    combo = dict(combo)
    by_size: dict = {}

    def note(mono):
        if mono.J and mono.K and mono.J[-1] == mono.K[-1]:
            parent = _monomial(mono.J[:-1], mono.K[:-1])
            level = by_size.setdefault(len(parent.J) + len(parent.K), {})
            level.setdefault(parent, set()).add(mono.J[-1])

    for mono in combo:
        note(mono)
    for size in range(max(by_size, default=0), 0, -1):
        for parent, seen in by_size.get(size, {}).items():
            fam = followers(matrix, parent.J, parent.K)
            if not fam or not fam <= seen:
                continue
            children = [_monomial(parent.J + (r,), parent.K + (r,)) for r in fam]
            # a child that its own fold zeroed stays in this seen set
            if any(c not in combo for c in children):
                continue
            c0 = combo[children[0]]
            if any(combo[c] != c0 for c in children[1:]):
                continue
            for c in children:
                del combo[c]
            acc = combo.get(parent, Q(0)) + c0
            if acc:
                combo[parent] = acc
                note(parent)
            else:
                combo.pop(parent, None)
    return combo


def normalize(matrix: ZeroOneMatrix, word, strategy: str = "leftmost") -> NormalForm:
    """Normal form of a word: rewrite to the monomial span, then contract."""
    return NormalForm.from_dict(_contract(matrix, rewrite(matrix, word, strategy)))


def rewrite_trace(matrix: ZeroOneMatrix, word, strategy: str = "leftmost") -> list:
    """(parent measure, child measure) pairs for every rewrite step; each
    child's measure is exactly one less than its parent's."""
    trace: list = []
    rewrite(matrix, word, strategy, trace=trace)
    return trace


# ---------------------------------------------------------------------------
# algebra operations on normal forms


def as_normal_form(matrix: ZeroOneMatrix, x) -> NormalForm:
    if isinstance(x, NormalForm):
        for mono, _ in x.terms:
            if max(mono.J + mono.K, default=0) > matrix.n:
                raise DimensionError("normal form uses letters beyond the matrix size")
        return x
    if isinstance(x, Monomial):
        if max(x.J + x.K, default=0) > matrix.n:
            raise DimensionError("monomial uses letters beyond the matrix size")
        if monomial_is_zero(matrix, x):
            return ZERO_FORM
        return NormalForm(((x, Q(1)),))
    if isinstance(x, str):
        return normalize(matrix, parse_word(x))
    return normalize(matrix, x)


def multiply(matrix: ZeroOneMatrix, x, y) -> NormalForm:
    """Bilinear product of normal forms over the same matrix."""
    xf = as_normal_form(matrix, x)
    yf = as_normal_form(matrix, y)
    combo: dict = {}
    for mx, cx in xf.terms:
        for my, cy in yf.terms:
            factor = cx * cy
            for mono, q in rewrite(matrix, mx.letters() + my.letters()).items():
                combo[mono] = combo.get(mono, 0) + factor * q
    return NormalForm.from_dict(_contract(matrix, {m: c for m, c in combo.items() if c}))


def adjoint(x: NormalForm) -> NormalForm:
    return NormalForm.from_dict({m.adjoint(): c for m, c in x.terms})


def unit_sum_form(matrix: ZeroOneMatrix) -> NormalForm:
    """sum_i s_i s_i* as a normal form (equal to the unit as an operator)."""
    return NormalForm.from_dict(
        {Monomial((i,), (i,)): Q(1) for i in range(1, matrix.n + 1)})


def enumerate_admissible(matrix: ZeroOneMatrix, max_len: int, cap: int = WORD_CAP):
    """All admissible index words of length <= max_len, an int >= 0, shortest first."""
    if isinstance(max_len, bool) or not isinstance(max_len, int) or max_len < 0:
        raise DomainError(f"max_len must be an integer >= 0, not {max_len!r}")
    out = [()]
    frontier = [()]
    letters = range(1, matrix.n + 1)
    for _ in range(max_len):
        nxt = []
        for word in frontier:
            allowed = matrix.follower_sets[word[-1]] if word else letters
            for j in allowed:
                nxt.append(word + (j,))
                if len(out) + len(nxt) > cap:
                    raise ResourceLimitError(
                        f"admissible word enumeration exceeded {cap} entries")
        out.extend(nxt)
        frontier = nxt
    return out


# ---------------------------------------------------------------------------
# JSON


def normal_form_to_json(x: NormalForm) -> list:
    return [
        {"J": list(m.J), "K": list(m.K), "coeff": scalars.scalar_to_json(Rat(c))}
        for m, c in x.terms
    ]


def normal_form_from_json(obj) -> NormalForm:
    if not isinstance(obj, list):
        raise DomainError("normal form JSON must be a list of terms")
    combo = {}
    for entry in obj:
        mono = Monomial(tuple(entry["J"]), tuple(entry["K"]))
        c = scalars.scalar_from_json(entry.get("coeff", 1))
        if not isinstance(c, Rat):
            raise DomainError(f"normal-form coefficient {c!r} is not rational")
        combo[mono] = combo.get(mono, 0) + c.value
    return NormalForm.from_dict(combo)
