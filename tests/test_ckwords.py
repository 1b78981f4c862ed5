"""Word rewriting over the generator relations, cross-checked against an
independent operator representation on finite admissible paths.

Oracle: generators act on basis vectors indexed by admissible paths,
    S_i e_x = [A(i, x_1) = 1] e_{(i,) + x}
    S_i* e_x = [x_1 = i] e_{x[1:]}
On paths long enough that no intermediate application empties the path, these
operators satisfy both defining relations exactly, so a word and its normal
form must act identically.  The action is computed with exact Fractions and
compared by dict equality.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckkms import ckwords, scalars, states, tensorops
from ckkms.ckwords import Letter, Monomial, NormalForm
from ckkms.errors import DimensionError, DomainError, ResourceLimitError
from ckkms.matrix01 import ZeroOneMatrix, kronecker_matrix
from ckkms.scalars import Q, Rat

from conftest import CYCLE3, FULL2, FULL3, GOLDEN, POOL, budget

PERM2 = ZeroOneMatrix(((0, 1), (1, 0)))


# ---------------------------------------------------------------------------
# the path-space oracle


def paths_of_length(matrix: ZeroOneMatrix, length: int) -> list:
    return [w for w in ckwords.enumerate_admissible(matrix, length)
            if len(w) == length]


def word_action(matrix: ZeroOneMatrix, letters, x: tuple):
    """Apply a letter string to a basis path, rightmost letter first.
    Returns the image path, or None when the vector is annihilated."""
    for letter in reversed(tuple(letters)):
        assert x, "oracle applied to a path that is too short"
        if letter.starred:
            if x[0] != letter.index:
                return None
            x = x[1:]
        else:
            if not matrix.entry(letter.index, x[0]):
                return None
            x = (letter.index,) + x
    return x


def combo_action(matrix: ZeroOneMatrix, terms, x: tuple) -> dict:
    """Image of e_x under a linear combination of monomials: path -> Fraction."""
    out: dict = {}
    for mono, coeff in terms:
        y = word_action(matrix, mono.letters(), x)
        if y is None:
            continue
        acc = out.get(y, Q(0)) + coeff
        if acc:
            out[y] = acc
        else:
            out.pop(y, None)
    return out


def as_fraction_terms(obj) -> list:
    if isinstance(obj, NormalForm):
        return list(obj.terms)
    return list(obj.items())


def assert_same_action(matrix: ZeroOneMatrix, letters, combo):
    """Check the raw word and a monomial combination act identically on every
    admissible path long enough to keep all intermediates nonempty."""
    depth = len(tuple(letters)) + 1
    terms = as_fraction_terms(combo)
    for x in paths_of_length(matrix, depth):
        image = word_action(matrix, letters, x)
        expected = {image: Q(1)} if image is not None else {}
        assert combo_action(matrix, terms, x) == expected, (
            f"action mismatch on path {x} for word "
            f"{ckwords.format_word(letters)}")


def random_word(rng: random.Random, n: int, max_len: int) -> tuple:
    length = rng.randint(0, max_len)
    return tuple(Letter(rng.randint(1, n), rng.random() < 0.5)
                 for _ in range(length))


def ref_admissible(matrix: ZeroOneMatrix, word) -> bool:
    return all(matrix.rows[i - 1][j - 1] for i, j in zip(word, word[1:]))


def ref_followers(matrix: ZeroOneMatrix, J, K) -> frozenset:
    return frozenset(r for r in range(1, len(matrix.rows) + 1)
                     if all(matrix.rows[seq[-1] - 1][r - 1] for seq in (J, K)
                            if seq))


def ref_is_zero(matrix: ZeroOneMatrix, J, K) -> bool:
    """Reference for monomial_is_zero read straight off matrix.rows."""
    if not ref_admissible(matrix, J) or not ref_admissible(matrix, K):
        return True
    return bool(J or K) and not ref_followers(matrix, J, K)


@st.composite
def matrices_and_words(draw):
    """A random 0-1 matrix with n = 2..5, two words over 1..n of length at
    most 5, and one letter outside 1..n."""
    n = draw(st.integers(2, 5))
    rows = tuple(tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
                 for _ in range(n))
    word = st.lists(st.integers(1, n), max_size=5).map(tuple)
    bad = draw(st.sampled_from((0, -1, n + 1, n + 9)))
    return ZeroOneMatrix(rows), draw(word), draw(word), bad


def random_nondegenerate(rng: random.Random, n: int) -> ZeroOneMatrix:
    while True:
        rows = tuple(tuple(rng.randint(0, 1) for _ in range(n))
                     for _ in range(n))
        if all(any(r) for r in rows) and all(any(col) for col in zip(*rows)):
            return ZeroOneMatrix(rows)


# ---------------------------------------------------------------------------
# admissibility / zero tests


class TestAdmissibility:
    def test_full_matrix_all_words(self):
        assert ckwords.is_admissible(FULL2, (1, 2, 1, 2))

    def test_forbidden_transition(self):
        assert not ckwords.is_admissible(GOLDEN, (2, 2))

    def test_short_words(self):
        assert ckwords.is_admissible(GOLDEN, (1,))
        assert ckwords.is_admissible(GOLDEN, ())

    def test_index_out_of_range(self):
        with pytest.raises(DomainError):
            ckwords.is_admissible(FULL2, (1, 3))

    def test_followers(self):
        assert ckwords.followers(GOLDEN, (1,), (2,)) == frozenset({1})
        assert ckwords.followers(GOLDEN, (), ()) == frozenset({1, 2})
        assert ckwords.followers(PERM2, (1,), (2,)) == frozenset()

    def test_empty_followers_means_zero_monomial(self):
        mono = Monomial((1,), (2,))
        assert ckwords.monomial_is_zero(PERM2, mono)
        assert not ckwords.monomial_is_zero(FULL2, mono)
        # oracle agreement: s1 s2* annihilates every basis path
        for x in paths_of_length(PERM2, 2):
            assert word_action(PERM2, mono.letters(), x) is None

    def test_inadmissible_legs_are_zero(self):
        assert ckwords.monomial_is_zero(GOLDEN, Monomial((2, 2), ()))
        assert ckwords.monomial_is_zero(GOLDEN, Monomial((), (2, 2)))
        assert not ckwords.monomial_is_zero(GOLDEN, Monomial((), ()))

    @settings(max_examples=200, deadline=None)
    @given(matrices_and_words())
    def test_predicates_match_the_rows(self, case):
        # the follower bitmasks and sets against a reference on matrix.rows
        matrix, J, K, bad = case
        assert ckwords.is_admissible(matrix, J) == ref_admissible(matrix, J)
        assert ckwords.followers(matrix, J, K) == ref_followers(matrix, J, K)
        assert ckwords.monomial_is_zero(matrix, Monomial(J, K)) == \
            ref_is_zero(matrix, J, K)
        with pytest.raises(DomainError):
            ckwords.is_admissible(matrix, J + (bad,) + K)
        with pytest.raises(DomainError):
            ckwords.followers(matrix, J, K + (bad,))
        with pytest.raises(DomainError):
            ckwords.monomial_is_zero(matrix, Monomial(J, (bad,) + K))


class TestLetterBoundary:
    """Letters are converted once, where words enter: a bool or a
    non-integer raises instead of being truncated by int()."""

    CASES = {
        "monomial": lambda J, K: Monomial(J, K),
        "json": lambda J, K: ckwords.normal_form_from_json(
            [{"J": list(J), "K": list(K)}]),
        "admissible": lambda J, K: ckwords.is_admissible(GOLDEN, J + K),
        "quasi_free": lambda J, K: states.quasi_free_eval(2, J, K),
        "letter": lambda J, K: (tuple(Letter(j) for j in J)
                                + tuple(Letter(k, True) for k in K)),
        "rewrite": lambda J, K: ckwords.rewrite(
            GOLDEN, [Letter(j) for j in J] + [Letter(k, True) for k in K]),
    }

    @pytest.mark.parametrize("where", sorted(CASES))
    @pytest.mark.parametrize("J, K", [((1.5,), (2.9,)), ((1.7,), (True,)),
                                      ((1,), (True,)), ((2.2, 1.9), ()),
                                      ((1,), ("2",))])
    def test_non_integer_letters_raise(self, where, J, K):
        with pytest.raises(DomainError):
            self.CASES[where](J, K)

    @pytest.mark.parametrize("where", sorted(CASES))
    def test_numpy_integers_accepted(self, where):
        J, K = tuple(np.array([1, 2], dtype=np.int64)), (np.int64(2),)
        assert self.CASES[where](J, K) == self.CASES[where]((1, 2), (2,))

    def test_letters_become_ints(self):
        mono = Monomial(np.array([1, 2], dtype=np.int64), (np.int64(2),))
        assert mono == Monomial((1, 2), (2,))
        assert all(type(j) is int for j in mono.J + mono.K)


class TestInternalMonomials:
    """Monomials built inside the package skip the boundary conversion; they
    must still equal, and hash like, the public construction, since
    _contract and the diagonal tables look them up in dicts."""

    @staticmethod
    def assert_public(mono):
        public = Monomial(mono.J, mono.K)
        assert mono == public and hash(mono) == hash(public)
        assert isinstance(mono.J, tuple) and isinstance(mono.K, tuple)
        assert all(type(j) is int for j in mono.J + mono.K)

    def test_normalize_and_adjoint(self):
        rng = random.Random(61)
        seen = 0
        for _ in range(60):
            matrix = POOL[rng.randrange(len(POOL))]
            nf = ckwords.normalize(matrix, random_word(rng, matrix.n, 5))
            for mono, _ in nf.terms + ckwords.adjoint(nf).terms:
                self.assert_public(mono)
                seen += 1
        # the contraction pass builds the parent monomial s1 s2
        contracted = ckwords.normalize(GOLDEN, ckwords.parse_word("s1 s1* s1 s2"))
        self.assert_public(contracted.terms[0][0])
        assert seen > 60

    def test_embed_monomial(self):
        rng = random.Random(67)
        split = tensorops.IndexSplit(GOLDEN.n, CYCLE3.n)
        composite = kronecker_matrix(GOLDEN, CYCLE3)
        for _ in range(40):
            mono = ckwords.normalize(composite, random_word(rng, 6, 3))
            for term, _ in mono.terms:
                for half in tensorops.embed_monomial(split, term):
                    self.assert_public(half)


class TestParsing:
    def test_roundtrip(self):
        letters = ckwords.parse_word("s1 s2* s1")
        assert letters == (Letter(1), Letter(2, True), Letter(1))
        assert ckwords.format_word(letters) == "s1 s2* s1"

    def test_rejects_garbage(self):
        for bad in ("x1", "s", "s1**", "1s", "s1*s2"):
            with pytest.raises(DomainError):
                ckwords.parse_word(bad)

    def test_rejects_index_zero(self):
        with pytest.raises(DomainError):
            ckwords.parse_word("s0")


# ---------------------------------------------------------------------------
# worked examples


class TestNormalizeExamples:
    def test_domain_projection_full2(self):
        nf = ckwords.normalize(FULL2, ckwords.parse_word("s1* s1"))
        assert nf.as_dict().keys() == {Monomial((1,), (1,)), Monomial((2,), (2,))}
        assert [c for _, c in nf.terms] == [Q(1), Q(1)]

    def test_orthogonal_ranges_vanish(self):
        for m in POOL:
            nf = ckwords.normalize(m, ckwords.parse_word("s1* s2"))
            assert nf.is_zero

    def test_mixed_word_over_golden(self):
        word = ckwords.parse_word("s1 s1* s1 s2")
        raw = ckwords.rewrite(GOLDEN, word)
        assert raw == {Monomial((1, 2, 1), (1,)): Q(1)}
        nf = ckwords.normalize(GOLDEN, word)
        assert nf.as_dict().keys() == {Monomial((1, 2), ())}
        # both the uncontracted and contracted answers act like the word
        assert_same_action(GOLDEN, word, raw)
        assert_same_action(GOLDEN, word, nf)

    def test_unit_not_expanded(self):
        nf = ckwords.normalize(FULL2, ())
        assert nf.as_dict() == {Monomial((), ()): Q(1)}

    def test_unit_sum_stays_expanded(self):
        # the contraction pass must not fold sum_i s_i s_i* onto the unit
        word = [Letter(1), Letter(1, True), Letter(1), Letter(1, True)]
        nf = ckwords.normalize(FULL2, word[:2])
        assert nf.as_dict().keys() == {Monomial((1,), (1,))}
        total = ckwords.unit_sum_form(FULL2)
        assert set(total.as_dict()) == {Monomial((1,), (1,)), Monomial((2,), (2,))}


    def test_nested_families_fold_in_one_pass(self):
        # the four s_{1rt} s_{1rt}* fold onto s_{1r} s_{1r}*, which then
        # fold onto s1 s1*; the unit does not absorb it
        combo = {Monomial((1, r, t), (1, r, t)): Q(3) for r in (1, 2) for t in (1, 2)}
        assert ckwords._contract(FULL2, combo) == {Monomial((1,), (1,)): Q(3)}
        # a parent that its own fold zeroes leaves its grandparent's family
        # incomplete
        combo[Monomial((1, 1), (1, 1))] = Q(-3)
        assert ckwords._contract(FULL2, combo) == {Monomial((1, 2), (1, 2)): Q(3)}


class TestMultiplyExamples:
    def test_projection_idempotent(self):
        p = ckwords.as_normal_form(FULL2, Monomial((1,), (1,)))
        assert ckwords.multiply(FULL2, p, p) == p

    def test_orthogonal_projections(self):
        p = ckwords.as_normal_form(FULL2, Monomial((1,), (1,)))
        q = ckwords.as_normal_form(FULL2, Monomial((2,), (2,)))
        assert ckwords.multiply(FULL2, p, q).is_zero

    def test_unit_sum_acts_as_identity(self):
        total = ckwords.unit_sum_form(FULL2)
        # operator level: the sum fixes every basis path
        for x in paths_of_length(FULL2, 2):
            assert combo_action(FULL2, as_fraction_terms(total), x) == {x: Q(1)}
        # normal-form level: absorbed by anything with at least one letter
        # (the unit monomial itself stays apart by design)
        rng = random.Random(7)
        checked = 0
        for _ in range(30):
            word = random_word(rng, 2, 4)
            if not word:
                continue
            x = ckwords.normalize(FULL2, word)
            assert ckwords.multiply(FULL2, total, x) == x
            assert ckwords.multiply(FULL2, x, total) == x
            checked += 1
        assert checked >= 20
        assert ckwords.multiply(FULL2, total, ckwords.UNIT_FORM) == total

    def test_isometry_relation(self):
        # s_i* s_i s_i* = s_i*
        si = ckwords.as_normal_form(FULL2, Monomial((1,), ()))
        si_star = ckwords.as_normal_form(FULL2, Monomial((), (1,)))
        prod = ckwords.multiply(FULL2, ckwords.multiply(FULL2, si_star, si),
                                si_star)
        assert prod == si_star

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            ckwords.as_normal_form(FULL2, Monomial((3,), ()))


class TestAdjoint:
    def test_swaps_legs(self):
        x = ckwords.as_normal_form(FULL2, Monomial((1, 2), (2,)))
        assert ckwords.adjoint(x).as_dict().keys() == {Monomial((2,), (1, 2))}

    def test_unit_fixed(self):
        assert ckwords.adjoint(ckwords.UNIT_FORM) == ckwords.UNIT_FORM

    def test_scalar_carried(self):
        x = NormalForm.from_dict({Monomial((1,), (2,)): Q(2)})
        y = ckwords.adjoint(x)
        assert y.as_dict() == {Monomial((2,), (1,)): Q(2)}

    def test_involution_and_antihomomorphism(self):
        rng = random.Random(11)
        for _ in range(15):
            x = ckwords.normalize(GOLDEN, random_word(rng, 2, 4))
            y = ckwords.normalize(GOLDEN, random_word(rng, 2, 4))
            assert ckwords.adjoint(ckwords.adjoint(x)) == x
            lhs = ckwords.adjoint(ckwords.multiply(GOLDEN, x, y))
            rhs = ckwords.multiply(GOLDEN, ckwords.adjoint(y),
                                   ckwords.adjoint(x))
            assert lhs == rhs


# ---------------------------------------------------------------------------
# engine properties


class TestRewriteEngine:
    def test_measure_strictly_decreases(self):
        rng = random.Random(3)
        observed = 0
        for _ in range(200):
            word = random_word(rng, 3, 6)
            for parent, child in ckwords.rewrite_trace(FULL3, word):
                assert child == parent - 1
                observed += 1
        assert observed > 100

    def test_confluence_leftmost_rightmost(self):
        rng = random.Random(17)
        for trial in range(1000):
            n = rng.randint(2, 3)
            matrix = random_nondegenerate(rng, n)
            word = random_word(rng, n, 6)
            left = ckwords.normalize(matrix, word, strategy="leftmost")
            right = ckwords.normalize(matrix, word, strategy="rightmost")
            assert left == right, f"trial {trial}: {ckwords.format_word(word)}"

    def test_unknown_strategy(self):
        with pytest.raises(DomainError):
            ckwords.rewrite(FULL2, (), strategy="innermost")

    def test_normal_form_shape(self):
        rng = random.Random(29)
        for _ in range(80):
            matrix = random_nondegenerate(rng, rng.randint(2, 3))
            nf = ckwords.normalize(matrix, random_word(rng, matrix.n, 6))
            for mono, coeff in nf.terms:
                assert not ckwords.monomial_is_zero(matrix, mono)
                assert not ref_is_zero(matrix, mono.J, mono.K)
                assert type(coeff) is Fraction and coeff != 0

    def test_representation_agreement(self):
        # the heart of the module: words, their raw rewrites, and their
        # contracted normal forms act identically on the path space
        rng = random.Random(41)
        for _ in range(120):
            matrix = POOL[rng.randrange(len(POOL))]
            word = random_word(rng, matrix.n, 5)
            raw = ckwords.rewrite(matrix, word)
            nf = ckwords.normalize(matrix, word)
            assert_same_action(matrix, word, raw)
            assert_same_action(matrix, word, nf)

    def test_representation_agreement_rightmost(self):
        rng = random.Random(43)
        for _ in range(40):
            matrix = random_nondegenerate(rng, rng.randint(2, 3))
            word = random_word(rng, matrix.n, 5)
            nf = ckwords.normalize(matrix, word, strategy="rightmost")
            assert_same_action(matrix, word, nf)

    def test_multiply_matches_concatenation(self):
        rng = random.Random(47)
        for _ in range(40):
            matrix = POOL[rng.randrange(len(POOL))]
            wx = random_word(rng, matrix.n, 3)
            wy = random_word(rng, matrix.n, 3)
            prod = ckwords.multiply(matrix, ckwords.normalize(matrix, wx),
                                    ckwords.normalize(matrix, wy))
            assert_same_action(matrix, tuple(wx) + tuple(wy), prod)
            assert prod == ckwords.normalize(matrix, tuple(wx) + tuple(wy))

    def test_multiply_associative(self):
        rng = random.Random(53)
        for _ in range(20):
            matrix = random_nondegenerate(rng, 2)
            forms = [ckwords.normalize(matrix, random_word(rng, 2, 3))
                     for _ in range(3)]
            x, y, z = forms
            left = ckwords.multiply(matrix, ckwords.multiply(matrix, x, y), z)
            right = ckwords.multiply(matrix, x, ckwords.multiply(matrix, y, z))
            assert left == right

    def test_term_cap(self):
        word = ckwords.parse_word("s1* s1 s2* s2 s3* s3")
        with pytest.raises(ResourceLimitError):
            ckwords.rewrite(FULL3, word, term_cap=4)

    def test_steps_count_against_the_cap(self):
        # s1*^n s1^n keeps few terms pending, but its steps grow about 3x per
        # extra pair of letters: 1,245 at n = 8, 345,774 at n = 18
        word = ckwords.parse_word(" ".join(["s1*"] * 40 + ["s1"] * 40))
        with budget(1.0), pytest.raises(ResourceLimitError):
            ckwords.normalize(GOLDEN, word)


class TestEnumeration:
    def test_counts(self):
        assert len(ckwords.enumerate_admissible(FULL2, 2)) == 7
        assert len(ckwords.enumerate_admissible(GOLDEN, 2)) == 6

    def test_shortest_first_and_admissible(self):
        words = ckwords.enumerate_admissible(CYCLE3, 3)
        lengths = [len(w) for w in words]
        assert lengths == sorted(lengths)
        assert all(ckwords.is_admissible(CYCLE3, w) for w in words)
        assert len(set(words)) == len(words)

    def test_golden_counts_follow_fibonacci(self):
        # admissible words of exact length m over the golden matrix
        counts = [len(paths_of_length(GOLDEN, m)) for m in range(1, 8)]
        assert counts == [2, 3, 5, 8, 13, 21, 34]

    def test_cap_enforced(self):
        with pytest.raises(ResourceLimitError):
            ckwords.enumerate_admissible(FULL3, 8, cap=100)

    @pytest.mark.parametrize("max_len", [-1, True, 2.0])
    def test_bad_max_len_raises(self, max_len):
        with pytest.raises(DomainError, match="max_len"):
            ckwords.enumerate_admissible(FULL2, max_len)


class TestJson:
    def test_roundtrip(self):
        rng = random.Random(59)
        for _ in range(10):
            nf = ckwords.normalize(GOLDEN, random_word(rng, 2, 5))
            back = ckwords.normal_form_from_json(ckwords.normal_form_to_json(nf))
            assert back == nf

    def test_merges_duplicate_terms(self):
        obj = [{"J": [1], "K": [1], "coeff": {"type": "rational", "num": 1,
                                              "den": 2}},
               {"J": [1], "K": [1], "coeff": {"type": "rational", "num": 1,
                                              "den": 2}}]
        nf = ckwords.normal_form_from_json(obj)
        assert nf.as_dict() == {Monomial((1,), (1,)): Q(1)}

    def test_rejects_non_list(self):
        with pytest.raises(DomainError):
            ckwords.normal_form_from_json({"J": [1]})


class TestRationalCoefficients:
    """Normal forms hold Fractions; a coefficient that is not an int or a
    Fraction is refused where a form is built, and in its JSON."""

    GOLDEN_RATIO = scalars.make_algebraic([-1, -1, 1], Q(1), Q(2))
    NON_RATIONAL = {
        "alg": GOLDEN_RATIO,
        "enc": scalars.Enc(scalars.refine(GOLDEN_RATIO, Q(1, 1000))),
        "float": 0.5,
        "rat": Rat(Q(1, 2)),
        "bool": True,
    }

    @pytest.mark.parametrize("kind", sorted(NON_RATIONAL))
    def test_from_dict_refuses(self, kind):
        with pytest.raises(DomainError):
            NormalForm.from_dict({Monomial((1,), (1,)): self.NON_RATIONAL[kind]})

    @pytest.mark.parametrize("kind", ["alg", "enc", "float"])
    def test_json_refuses(self, kind):
        coeff = self.NON_RATIONAL[kind]
        obj = [{"J": [1], "K": [1], "coeff": (coeff if isinstance(coeff, float)
                                              else scalars.scalar_to_json(coeff))}]
        with pytest.raises(DomainError):
            ckwords.normal_form_from_json(obj)

    def test_ints_become_fractions(self):
        nf = NormalForm.from_dict({Monomial((1,), (1,)): 3, Monomial((2,), (2,)): 0})
        assert nf.terms == ((Monomial((1,), (1,)), Q(3)),)
        assert type(nf.terms[0][1]) is Fraction

    def test_products_stay_fractions(self):
        rng = random.Random(71)
        for _ in range(40):
            matrix = POOL[rng.randrange(len(POOL))]
            x = ckwords.normalize(matrix, random_word(rng, matrix.n, 3))
            y = NormalForm.from_dict({m: Q(rng.randint(-3, 3), rng.randint(1, 4))
                                      for m, _ in x.terms})
            prod = ckwords.multiply(matrix, y, ckwords.adjoint(y))
            assert all(type(c) is Fraction and c for _, c in prod.terms)
