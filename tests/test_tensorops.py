"""Kronecker vectors, index splitting, tensor-product states, the
homomorphism verifier, and combined gauge frequencies, cross-checked against
numpy's kron and exact rational evaluation."""

import dataclasses
import itertools
import math
import random

import numpy as np
import pytest

from ckkms import ckwords, perron, scalars, states, tensorops
from ckkms.ckwords import Monomial
from ckkms.errors import (DimensionError, DomainError, PreconditionError,
                          ResourceLimitError)
from ckkms.intervals import Interval
from ckkms.matrix01 import ZeroOneMatrix, is_permutation, kronecker_matrix
from ckkms.scalars import Flt, Q, Rat
from ckkms.tensorops import IndexSplit

from conftest import (CYCLE3, FULL2, FULL3, GOLDEN, POOL, budget, prefix_table,
                      random_irreducible, random_positive_rationals,
                      to_fraction, transported)

PHI = (1 + math.sqrt(5)) / 2


def spec_for(matrix, **kw):
    return states.state_spec(perron.canonical_point(matrix), **kw)


def rat_vector(*values):
    return tuple(Rat(Q(v)) for v in values)


class TestIndexSplit:
    def test_generator_images(self):
        split = IndexSplit(2, 2)
        assert split.split_index(2) == (1, 2)
        assert split.split_index(3) == (2, 1)

    def test_bijection(self):
        for n, m in ((2, 2), (2, 3), (3, 2), (3, 4)):
            split = IndexSplit(n, m)
            seen = set()
            for u in range(1, n * m + 1):
                i, j = split.split_index(u)
                assert split.pair_index(i, j) == u
                seen.add((i, j))
            assert seen == {(i, j) for i in range(1, n + 1)
                            for j in range(1, m + 1)}

    def test_range_checks(self):
        split = IndexSplit(2, 3)
        with pytest.raises(DomainError):
            split.split_index(7)
        with pytest.raises(DomainError):
            split.pair_index(3, 1)
        with pytest.raises(DomainError):
            IndexSplit(1, 2)


class TestKroneckerVector:
    def test_rational_example(self):
        got = tensorops.kronecker_vector(rat_vector(Q(1, 3), Q(2, 3)),
                                         rat_vector(Q(1, 2), Q(1, 2)))
        assert [to_fraction(s) for s in got] == [
            Q(1, 6), Q(1, 6), Q(1, 3), Q(1, 3)]

    def test_golden_example(self):
        c = scalars.make_algebraic([-1, 1, 1], Q(0), Q(1))  # (sqrt5 - 1)/2
        c2 = scalars.mul(c, c)
        got = tensorops.kronecker_vector(rat_vector(Q(1, 2), Q(1, 2)), (c, c2))
        floats = [scalars.to_float(s) for s in got]
        expected = [(math.sqrt(5) - 1) / 4, (math.sqrt(5) - 1) ** 2 / 8]
        assert floats == pytest.approx(expected * 2, abs=1e-12)

    def test_scalar_unit(self):
        v = rat_vector(Q(2, 5), Q(3, 5))
        got = tensorops.kronecker_vector(v, (Rat(Q(1)),))
        assert [to_fraction(s) for s in got] == [Q(2, 5), Q(3, 5)]

    def test_against_numpy(self):
        rng = random.Random(61)
        for _ in range(20):
            v = random_positive_rationals(rng, rng.randint(2, 4))
            w = random_positive_rationals(rng, rng.randint(2, 4))
            got = tensorops.kronecker_vector(tuple(Rat(x) for x in v),
                                             tuple(Rat(x) for x in w))
            ref = np.kron(np.array([float(x) for x in v]),
                          np.array([float(x) for x in w]))
            assert [scalars.to_float(s) for s in got] == pytest.approx(
                list(ref), abs=1e-12)

    def test_associative(self):
        rng = random.Random(67)
        v, w, x = (tuple(Rat(q) for q in random_positive_rationals(rng, k))
                   for k in (2, 3, 2))
        left = tensorops.kronecker_vector(tensorops.kronecker_vector(v, w), x)
        right = tensorops.kronecker_vector(v, tensorops.kronecker_vector(w, x))
        assert [to_fraction(s) for s in left] == \
               [to_fraction(s) for s in right]


class TestEmbedMonomial:
    def test_generators(self):
        split = IndexSplit(2, 2)
        first, second = tensorops.embed_monomial(split, Monomial((2,), ()))
        assert (first, second) == (Monomial((1,), ()), Monomial((2,), ()))
        first, second = tensorops.embed_monomial(split, Monomial((3,), ()))
        assert (first, second) == (Monomial((2,), ()), Monomial((1,), ()))

    def test_unit(self):
        split = IndexSplit(2, 3)
        assert tensorops.embed_monomial(split, Monomial((), ())) == (
            Monomial((), ()), Monomial((), ()))

    def test_letterwise(self):
        split = IndexSplit(2, 2)
        first, second = tensorops.embed_monomial(split, Monomial((1, 4), (2,)))
        assert first == Monomial((1, 2), (1,))
        assert second == Monomial((1, 2), (2,))

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            tensorops.embed_monomial(IndexSplit(2, 2), Monomial((5,), ()))

    def test_admissibility_preserved(self):
        rng = random.Random(71)
        for a, b in ((GOLDEN, FULL2), (CYCLE3, GOLDEN)):
            split = IndexSplit(a.n, b.n)
            composite = kronecker_matrix(a, b)
            for _ in range(120):
                word = tuple(rng.randint(1, composite.n)
                             for _ in range(rng.randint(1, 4)))
                mono = Monomial(word, ())
                first, second = tensorops.embed_monomial(split, mono)
                assert ckwords.is_admissible(composite, word) == (
                    ckwords.is_admissible(a, first.J)
                    and ckwords.is_admissible(b, second.J))

    def test_zero_monomials_split(self):
        rng = random.Random(73)
        a, b = GOLDEN, CYCLE3
        split = IndexSplit(a.n, b.n)
        composite = kronecker_matrix(a, b)
        for _ in range(150):
            J = tuple(rng.randint(1, composite.n)
                      for _ in range(rng.randint(0, 3)))
            K = tuple(rng.randint(1, composite.n)
                      for _ in range(rng.randint(0, 3)))
            mono = Monomial(J, K)
            first, second = tensorops.embed_monomial(split, mono)
            assert ckwords.monomial_is_zero(composite, mono) == (
                ckwords.monomial_is_zero(a, first)
                or ckwords.monomial_is_zero(b, second))


class TestTensorStateEval:
    def test_quasi_free_product(self):
        spec2, spec3 = spec_for(FULL2), spec_for(FULL3)
        for u in range(1, 7):
            got = tensorops.tensor_state_eval(spec2, spec3,
                                              Monomial((u,), (u,)))
            assert to_fraction(got) == Q(1, 6)

    def test_quasi_free_product_depth_two(self):
        # the product of uniform states is the uniform state on the product
        spec2, spec3 = spec_for(FULL2), spec_for(FULL3)
        for J in ckwords.enumerate_admissible(ZeroOneMatrix.full(6), 2):
            got = tensorops.tensor_state_eval(spec2, spec3, Monomial(J, J))
            assert to_fraction(got) == states.quasi_free_eval(
                6, J, J).value

    def test_off_diagonal_zero(self):
        spec2, spec3 = spec_for(FULL2), spec_for(FULL3)
        assert tensorops.tensor_state_eval(
            spec2, spec3, Monomial((1,), (2,))) == scalars.ZERO

    def test_weighted_example(self):
        pa = perron.in_lambda(FULL2, rat_vector(Q(1, 3), Q(2, 3)))
        pb = perron.in_lambda(FULL2, rat_vector(Q(1, 2), Q(1, 2)))
        got = tensorops.tensor_state_eval(states.state_spec(pa),
                                          states.state_spec(pb),
                                          Monomial((1,), (1,)))
        assert to_fraction(got) == Q(1, 6)

    def test_matches_kronecker_state_exactly(self):
        # over full factors both sides are exact rationals; require equality
        pa = perron.in_lambda(FULL2, rat_vector(Q(1, 3), Q(2, 3)))
        pb = perron.in_lambda(FULL2, rat_vector(Q(1, 4), Q(3, 4)))
        spec_a, spec_b = states.state_spec(pa), states.state_spec(pb)
        composite = kronecker_matrix(FULL2, FULL2)
        ab = tensorops.kronecker_vector(pa.entries, pb.entries)
        spec_ab = states.state_spec(perron.in_lambda(composite, ab))
        for J in ckwords.enumerate_admissible(composite, 2):
            mono = Monomial(J, J)
            lhs = tensorops.tensor_state_eval(spec_a, spec_b, mono)
            rhs = states.eval_state(spec_ab, mono)
            assert to_fraction(lhs) == to_fraction(rhs)

    def test_vanishing_halves_skipped(self, monkeypatch):
        # F2 x F3 has composite letters u = 3(i - 1) + j; the terms split
        # into (diagonal, off-diagonal), (off-diagonal, diagonal) and
        # (diagonal, diagonal) pairs of halves, valued exactly
        spec_a = states.state_spec(perron.in_lambda(FULL2, rat_vector(Q(1, 3), Q(2, 3))))
        spec_b = states.state_spec(
            perron.in_lambda(FULL3, rat_vector(Q(1, 6), Q(1, 3), Q(1, 2))))
        split = IndexSplit(2, 3)
        coeffs = {Monomial((1,), (2,)): Q(2), Monomial((1, 5), (4, 5)): Q(-3),
                  Monomial((2, 4), (2, 4)): Q(5), Monomial((1,), (1,)): Q(1, 7)}
        halves = [tensorops.embed_monomial(split, mono) for mono in coeffs]
        assert [(f.J == f.K, s.J == s.K) for f, s in halves] == [
            (True, False), (False, True), (True, True), (True, True)]
        expected = sum(
            c * to_fraction(states.eval_monomial(spec_a, f))
            * to_fraction(states.eval_monomial(spec_b, s))
            for c, (f, s) in zip(coeffs.values(), halves))
        evaluated = []
        inner = states.eval_monomial

        def recording(spec, mono):
            evaluated.append(mono)
            return inner(spec, mono)

        monkeypatch.setattr(states, "eval_monomial", recording)
        nf = ckwords.NormalForm.from_dict(coeffs)
        got = tensorops.tensor_state_eval(spec_a, spec_b, nf)
        assert to_fraction(got) == expected != 0
        assert evaluated and all(mono.J == mono.K for mono in evaluated)

    def test_letter_beyond_composite_raises(self):
        spec_a, spec_b = spec_for(GOLDEN), spec_for(FULL3)
        beyond = ckwords.NormalForm.from_dict({Monomial((1,), (2,)): 1,
                                               Monomial((7,), (7,)): 1})
        with pytest.raises(DimensionError):
            tensorops.tensor_state_eval(spec_a, spec_b, beyond)
        with pytest.raises(DimensionError):
            tensorops.tensor_state_eval(spec_a, spec_b, Monomial((1, 7), (2,)))
        below = ckwords.NormalForm.from_dict({Monomial((0,), (1,)): 1})
        with pytest.raises(DomainError):
            tensorops.tensor_state_eval(spec_a, spec_b, below)


def composite_spec(spec_a, spec_b, tolerance=Q(1, 10**9)):
    """The state of the Kronecker parameter over the Kronecker matrix, built
    as verify_tensor_identity builds it."""
    composite = kronecker_matrix(spec_a.matrix, spec_b.matrix)
    ab = tensorops.kronecker_vector(spec_a.param.entries, spec_b.param.entries)
    return states.state_spec(
        perron.ParamVector(composite, ab, "certified", tolerance),
        precision=min(spec_a.precision, spec_b.precision, tolerance / 64),
        independent_pf=True)


def reference_report(spec_a, spec_b, max_len, tolerance=Q(1, 10**9)):
    """verify_tensor_identity as a plain loop that sends every diagonal
    monomial through the two public evaluators, tensor_state_eval and
    eval_state: (max residual, diagonal count)."""
    spec_ab = composite_spec(spec_a, spec_b, tolerance)
    words = ckwords.enumerate_admissible(spec_ab.matrix, max_len)
    work = tolerance / 64
    diagonal = [states.residual_bound(
                    tensorops.tensor_state_eval(spec_a, spec_b, Monomial(J, J)),
                    states.eval_state(spec_ab, Monomial(J, J)), work)
                for J in words
                if not J or ckwords.followers(spec_ab.matrix, J, J)]
    return max(diagonal), len(diagonal)


EDGE_PAIRS = ((FULL2, FULL2), (GOLDEN, CYCLE3), (FULL3, GOLDEN))


def record_letter_data(monkeypatch) -> list:
    """(spec, data) for every letter_data call, in call order: the verifier
    takes the two factors' data, then the composite state's."""
    calls = []
    inner = states.letter_data

    def recording(spec):
        calls.append((spec, inner(spec)))
        return calls[-1][1]

    monkeypatch.setattr(states, "letter_data", recording)
    return calls


def fraction_diagonal_table(spec, words) -> dict:
    """The diagonal values of states.letter_data in Fraction interval
    arithmetic, the oracle for the verifier's integer walk: the same
    refinements, and one interval product per prefix and per value."""
    width = scalars.ENCLOSURE_WIDTH
    entries = [scalars.refine(a, width) for a in spec.param.entries]
    if spec.exact_vector is None:
        x = spec.eigenvector
    else:
        x = [scalars.refine(v, width) for v in spec.exact_vector]
    prefix = {(): Interval.point(1)}
    table = dict(prefix)
    for J in words:
        if J:
            head = prefix[J[:-1]]
            prefix[J] = head * entries[J[-1] - 1]
            table[J] = head * x[J[-1] - 1]
    return table


def fraction_report(spec_a, spec_b, max_len, tolerance=Q(1, 10**9)):
    """verify_tensor_identity on Fraction tables, compared word by word
    with interval products and distance_sup; it refines the same values to
    the same widths, so it sees the same enclosures."""
    spec_ab = composite_spec(spec_a, spec_b, tolerance)
    composite = spec_ab.matrix
    words = ckwords.enumerate_admissible(composite, max_len)
    table_a = fraction_diagonal_table(
        spec_a, ckwords.enumerate_admissible(spec_a.matrix, max_len))
    table_b = fraction_diagonal_table(
        spec_b, ckwords.enumerate_admissible(spec_b.matrix, max_len))
    table_ab = fraction_diagonal_table(spec_ab, words)
    split = IndexSplit(spec_a.matrix.n, spec_b.matrix.n)
    max_residual, diagonal = Q(0), 0
    for J in words:
        if J and not ckwords.followers(composite, J, J):
            continue
        first, second = tensorops.embed_monomial(split, Monomial(J, J))
        gap = (table_a[first.J] * table_b[second.J]).distance_sup(table_ab[J])
        diagonal += 1
        max_residual = max(max_residual, gap)
    return tensorops.TensorReport(max_residual <= tolerance, max_residual,
                                  tolerance, diagonal, max_len)


# every pool matrix under every permutation of its benchmark frequencies
POOL_OMEGAS = [(m, omega) for m in POOL
               for omega in sorted(set(itertools.permutations(
                   (1, 2) if m.n == 2 else (1, 1, 2))))]


class TestIntegerTables:
    @pytest.mark.parametrize("max_len", range(4))
    def test_reports_equal_the_fraction_loop(self, max_len):
        for (a, omega_a), (b, omega_b) in itertools.product(POOL_OMEGAS, repeat=2):
            spec_a = states.state_spec(perron.solve_beta(a, omega_a).param)
            spec_b = states.state_spec(perron.solve_beta(b, omega_b).param)
            assert tensorops.verify_tensor_identity(spec_a, spec_b, max_len) == \
                fraction_report(spec_a, spec_b, max_len), (a, omega_a, b, omega_b)

    def test_entry_without_a_positive_enclosure_raises(self):
        # an Enc entry whose enclosure reaches 0 cannot take the product of
        # lower endpoints; a fixed enclosure cannot be refined further
        spec = spec_for(GOLDEN)
        loose = scalars.Enc(Interval(Q(0), Q(1, 2)))
        bad = dataclasses.replace(spec, param=dataclasses.replace(
            spec.param, entries=(loose,) + spec.param.entries[1:]))
        with pytest.raises(PreconditionError, match="sign"):
            states.letter_data(bad)
        bad = dataclasses.replace(spec, eigenvector=(
            Interval(Q(0), Q(1)),) + spec.eigenvector[1:])
        with pytest.raises(PreconditionError, match="not positive"):
            states.letter_data(bad)


class TestVerifyTensorIdentity:
    @pytest.mark.parametrize("a, omega_a, b, omega_b", [
        (GOLDEN, (1, 2), CYCLE3, (1, 1, 2)),
        (FULL2, (2, 1), GOLDEN, (1, 2)),
        (FULL3, (1, 2, 1), FULL2, (1, 2)),
    ])
    def test_matches_reference_loop(self, a, omega_a, b, omega_b, monkeypatch):
        # Enclosures depend on the order in which exact values were refined
        # before, so the two residual bounds differ in their last digits;
        # the counts and verdicts agree, and every diagonal enclosure the
        # verifier compares meets the value the public evaluators give.
        spec_a = states.state_spec(perron.solve_beta(a, omega_a).param)
        spec_b = states.state_spec(perron.solve_beta(b, omega_b).param)
        calls = record_letter_data(monkeypatch)
        report = tensorops.verify_tensor_identity(spec_a, spec_b, max_len=2)
        residual, diagonal = reference_report(spec_a, spec_b, max_len=2)
        assert report.diagonal_count == diagonal
        assert report.passed and residual <= report.tolerance

        # the verifier walks the tensor side on the Kronecker letter data
        # and the composite side on the composite state's
        (_, data_a), (_, data_b), (spec_ab, data_ab) = calls
        words = ckwords.enumerate_admissible(spec_ab.matrix, 2)
        assert len(words) == report.diagonal_count
        table_a = prefix_table(data_a, ckwords.enumerate_admissible(a, 2))
        table_b = prefix_table(data_b, ckwords.enumerate_admissible(b, 2))
        tensor = prefix_table(tensorops._kronecker_letters(data_a, data_b), words)
        table_ab = prefix_table(data_ab, words)
        split = IndexSplit(a.n, b.n)
        deep = Q(1, 10**30)
        for J in words:
            mono = Monomial(J, J)
            first, second = tensorops.embed_monomial(split, mono)
            assert tensor[J] == table_a[first.J] * table_b[second.J], J
            assert tensor[J].intersects(scalars.refine(
                tensorops.tensor_state_eval(spec_a, spec_b, mono), deep)), J
            assert table_ab[J].intersects(scalars.refine(
                states.eval_state(spec_ab, mono), deep)), J

    def test_full2_pair(self):
        pa = perron.in_lambda(FULL2, rat_vector(Q(1, 3), Q(2, 3)))
        pb = perron.in_lambda(FULL2, rat_vector(Q(1, 2), Q(1, 2)))
        report = tensorops.verify_tensor_identity(states.state_spec(pa),
                                                  states.state_spec(pb),
                                                  max_len=3)
        assert report.passed
        assert report.max_residual <= Q(1, 10**9)
        assert report.diagonal_count == 1 + 4 + 16 + 64

    def test_one_composite_perron_computation(self, monkeypatch):
        spec_a, spec_b = spec_for(GOLDEN), spec_for(CYCLE3)
        sizes = []
        inner = perron.pf_data

        def counting(matrix, *args, **kwargs):
            sizes.append(matrix.n)
            return inner(matrix, *args, **kwargs)

        monkeypatch.setattr(perron, "pf_data", counting)
        report = tensorops.verify_tensor_identity(spec_a, spec_b, max_len=2)
        assert report.passed
        assert sizes.count(6) == 1

    def test_golden_pair(self):
        spec = spec_for(GOLDEN)
        report = tensorops.verify_tensor_identity(spec, spec, max_len=3)
        assert report.passed

    def test_max_len_zero(self):
        # only the unit is checked
        for a, b in EDGE_PAIRS:
            report = tensorops.verify_tensor_identity(spec_for(a), spec_for(b),
                                                      max_len=0)
            assert report.passed
            assert (report.diagonal_count, report.max_residual) == (1, 0)

    def test_max_len_one(self):
        for a, b in EDGE_PAIRS:
            spec_a, spec_b = spec_for(a), spec_for(b)
            report = tensorops.verify_tensor_identity(spec_a, spec_b, max_len=1)
            _, diagonal = reference_report(spec_a, spec_b, max_len=1)
            assert report.passed and report.max_residual <= Q(1, 10**12)
            assert report.diagonal_count == diagonal == 1 + a.n * b.n

    def test_both_sides_vanish_off_the_diagonal(self):
        # the verifier checks only the diagonal: on every nonzero composite
        # s_J s_K* with J != K, of any lengths, both sides are exactly zero
        for a, b in EDGE_PAIRS:
            spec_a, spec_b = spec_for(a), spec_for(b)
            spec_ab = composite_spec(spec_a, spec_b)
            words = ckwords.enumerate_admissible(spec_ab.matrix, 2)
            checked = 0
            for J in words:
                for K in words:
                    mono = Monomial(J, K)
                    if J == K or ckwords.monomial_is_zero(spec_ab.matrix, mono):
                        continue
                    assert tensorops.tensor_state_eval(spec_a, spec_b, mono) \
                        == scalars.ZERO, (J, K)
                    assert states.eval_state(spec_ab, mono) == scalars.ZERO, (J, K)
                    checked += 1
            assert checked > len(words)

    def test_swapped_composite_eigenvector_fails(self, monkeypatch):
        # two unequal entries of the composite eigenvector trade places
        inner = tensorops.state_spec

        def swapped(*args, **kwargs):
            spec = inner(*args, **kwargs)
            x = list(spec.eigenvector)
            i, j = next((i, j) for i in range(len(x)) for j in range(i)
                        if not x[i].intersects(x[j]))
            x[i], x[j] = x[j], x[i]
            return dataclasses.replace(spec, eigenvector=tuple(x))

        monkeypatch.setattr(tensorops, "state_spec", swapped)
        report = tensorops.verify_tensor_identity(spec_for(GOLDEN),
                                                  spec_for(CYCLE3), max_len=2)
        assert report.passed is False

    def test_factor_table_of_the_wrong_state_fails(self, monkeypatch):
        # the first factor's letter data come from another state on its matrix
        right = states.state_spec(perron.solve_beta(FULL2, (1, 2)).param)
        wrong = spec_for(FULL2)
        inner = states.letter_data
        monkeypatch.setattr(states, "letter_data",
                            lambda spec: inner(wrong if spec is right else spec))
        report = tensorops.verify_tensor_identity(right, spec_for(GOLDEN),
                                                  max_len=2)
        assert report.passed is False

    def test_both_orders_pass_independently(self):
        pa = perron.in_lambda(FULL2, rat_vector(Q(1, 5), Q(4, 5)))
        spec_a = states.state_spec(pa)
        spec_b = spec_for(GOLDEN)
        fwd = tensorops.verify_tensor_identity(spec_a, spec_b, max_len=2)
        rev = tensorops.verify_tensor_identity(spec_b, spec_a, max_len=2)
        assert fwd.passed and rev.passed

    def test_mixed_cycle_pair(self):
        report = tensorops.verify_tensor_identity(spec_for(CYCLE3),
                                                  spec_for(FULL2), max_len=2)
        assert report.passed


class TestArguments:
    @pytest.mark.parametrize("max_len", [-1, True, 2.0])
    def test_bad_max_len_raises(self, max_len):
        with pytest.raises(DomainError, match="max_len"):
            tensorops.verify_tensor_identity(spec_for(GOLDEN), spec_for(FULL2),
                                             max_len)

    @pytest.mark.parametrize("tolerance", [0, -1])
    def test_non_positive_tolerance_raises(self, tolerance):
        with pytest.raises(DomainError, match="tolerance"):
            tensorops.verify_tensor_identity(spec_for(GOLDEN), spec_for(FULL2),
                                             1, tolerance)


class TestWordCap:
    """More than 10^5 composite words up to max_len raise, as
    enumerate_admissible does, before the walk; F3 tensor F3 has
    9^0 + ... + 9^5 = 66,430 words up to length 5 and 597,871 up to 6."""

    def test_above_the_cap_raises(self):
        spec = spec_for(FULL3)
        with budget(1.0):
            with pytest.raises(ResourceLimitError, match="admissible word "
                               "enumeration exceeded 100000 entries"):
                tensorops.verify_tensor_identity(spec, spec, max_len=6)

    def test_below_the_cap_passes(self):
        spec = spec_for(FULL3)
        report = tensorops.verify_tensor_identity(spec, spec, max_len=5)
        assert report.passed
        assert report.diagonal_count == sum(9 ** k for k in range(6)) == 66430


def random_primitive(rng: random.Random, n: int) -> ZeroOneMatrix:
    """An irreducible, aperiodic 0-1 matrix that is not a permutation:
    by Wielandt's bound A^((n-1)^2 + 1) has no zero entry."""
    while True:
        m = random_irreducible(rng, n)
        power = np.linalg.matrix_power(np.array(m.rows, dtype=np.int64),
                                       (n - 1) ** 2 + 1)
        if (power > 0).all() and not is_permutation(m):
            return m


def generated_family() -> list:
    """Three seeded primitive matrices of each size 2..4, each with
    frequencies in {1, 2, 3}; the Kronecker product of primitive matrices is
    primitive, so every composite is irreducible."""
    rng = random.Random(27)
    family = []
    for n in (2, 2, 2, 3, 3, 3, 4, 4, 4):
        m = random_primitive(rng, n)
        omega = tuple(rng.choice((1, 2, 3)) for _ in range(n))
        family.append((m, omega))
    return family


def nonzero_monomials(matrix, max_len) -> list:
    words = ckwords.enumerate_admissible(matrix, max_len)
    return [Monomial(J, K) for J in words for K in words
            if not ckwords.monomial_is_zero(matrix, Monomial(J, K))]


class TestGeneratedFamily:
    def test_pairs_of_primitive_matrices(self):
        family = generated_family()
        with budget(10.0):
            specs = [states.state_spec(perron.solve_beta(m, omega).param)
                     for m, omega in family]
            for (ia, spec_a), (ib, spec_b) in itertools.product(
                    enumerate(specs), repeat=2):
                report = tensorops.verify_tensor_identity(spec_a, spec_b, 2)
                case = (family[ia], family[ib])
                assert report == fraction_report(spec_a, spec_b, 2), case
                assert report.passed, case

    def test_kms_check_on_kronecker_states(self):
        # the Kronecker state of every ordered pair is KMS at beta = 1 for
        # the combined frequencies, on seeded pairs (x, y) of composite
        # monomials with sides of length <= 1, drawn independently
        family = generated_family()
        rng = random.Random(29)
        checked = 0
        with budget(15.0):
            for (a, om_a), (b, om_b) in itertools.product(family, repeat=2):
                spec, omega = transported(a, om_a, b, om_b)
                assert isinstance(omega, perron.TensorFrequencyVector)
                monos = nonzero_monomials(spec.matrix, 1)
                for _ in range(3):
                    x, y = rng.choice(monos), rng.choice(monos)
                    res = states.kms_check(spec, omega, Rat(Q(1)), x, y)
                    assert res.ok, (a.rows, om_a, b.rows, om_b, x, y,
                                    float(res.residual))
                    checked += 1
        assert checked == 243


class TestCombinedFrequencies:
    def test_uniform_example(self):
        sol = perron.solve_beta(FULL2, (Q(1), Q(1)))
        omega = tensorops.combined_frequencies(IndexSplit(2, 2),
                                               (Q(1), Q(1)), sol,
                                               (Q(1), Q(1)), sol)
        for entry in omega.entries:
            iv = scalars.refine(entry, Q(1, 10**12))
            assert abs(float(iv.mid) - 2 * math.log(2)) < 1e-10

    def test_mixed_example(self):
        phi_sol = perron.solve_beta(FULL2, (Q(1), Q(2)))
        two_sol = perron.solve_beta(FULL2, (Q(1), Q(1)))
        omega = tensorops.combined_frequencies(IndexSplit(2, 2),
                                               (Q(1), Q(2)), phi_sol,
                                               (Q(1), Q(1)), two_sol)
        logphi, log2 = math.log(PHI), math.log(2)
        expected = [logphi + log2, logphi + log2,
                    2 * logphi + log2, 2 * logphi + log2]
        got = [float(scalars.refine(e, Q(1, 10**12)).mid)
               for e in omega.entries]
        assert got == pytest.approx(expected, abs=1e-10)

    def test_unit_betas_plain_sums(self):
        omega = tensorops.combined_frequencies(IndexSplit(2, 2),
                                               (Q(1), Q(2)), Rat(Q(1)),
                                               (Q(3), Q(5)), Rat(Q(1)))
        assert [e.value for e in omega.entries] == [4, 6, 5, 7]

    def test_keeps_the_pair_only_for_matching_exact_solutions(self):
        sol2 = perron.solve_beta(FULL2, (1, 1))
        sol3 = perron.solve_beta(FULL3, (1, 1, 1))
        kept = tensorops.combined_frequencies(IndexSplit(2, 2), (1, 1), sol2,
                                              (1, 1), sol2)
        assert isinstance(kept, perron.TensorFrequencyVector)
        assert kept.kronecker == (Rat(Q(1, 4)),) * 4
        # the first 2 of sol3's 3 exponents match omega = (1, 1), but sol3
        # solves another matrix; a float beta matches no omega
        for beta in (sol3, Flt(math.log(2))):
            plain = tensorops.combined_frequencies(IndexSplit(2, 2), (1, 1),
                                                   beta, (1, 1), sol2)
            assert type(plain) is perron.FrequencyVector

    def test_validation(self):
        with pytest.raises(DimensionError):
            tensorops.combined_frequencies(IndexSplit(2, 2), (Q(1),),
                                           Rat(Q(1)), (Q(1), Q(1)), Rat(Q(1)))
        with pytest.raises(DomainError):
            tensorops.combined_frequencies(IndexSplit(2, 2), (Q(1), Q(1)),
                                           Rat(Q(-1)), (Q(1), Q(1)), Rat(Q(1)))


class TestKmsTransport:
    def test_kronecker_state_is_equilibrium_at_one(self):
        sol_a = perron.solve_beta(FULL2, (Q(1), Q(1)))
        sol_b = perron.solve_beta(FULL2, (Q(1), Q(2)))
        split = IndexSplit(2, 2)
        composite = kronecker_matrix(FULL2, FULL2)
        ab = tensorops.kronecker_vector(sol_a.param.entries,
                                        sol_b.param.entries)
        spec = states.state_spec(perron.in_lambda(composite, ab))
        omega = tensorops.combined_frequencies(split, (Q(1), Q(1)), sol_a,
                                               (Q(1), Q(2)), sol_b)
        words = ckwords.enumerate_admissible(composite, 1)
        monos = [Monomial(J, K) for J in words for K in words]
        for mono in monos:
            res = states.kms_check(spec, omega, Rat(Q(1)), mono,
                                   mono.adjoint(), tolerance=Q(1, 10**9))
            assert res.ok, (mono, float(res.residual))


class TestStructuralPrecondition:
    """kms_check takes the precondition of a transported state as proved
    only when the spec's entries are the stored Kronecker vector; every
    other spec goes through the enclosure proof."""

    def test_swapped_kronecker_vector_raises(self, exp_calls):
        # F2 at (1, 2) and F3 at (1, 1, 2) are not symmetric: the Kronecker
        # vector of the reversed pair lists other products at some indices,
        # yet sums to 1, so it is a parameter of the full 6x6 composite
        sol_a = perron.solve_beta(FULL2, (1, 2))
        sol_b = perron.solve_beta(FULL3, (1, 1, 2))
        omega = tensorops.combined_frequencies(IndexSplit(2, 3), (1, 2), sol_a,
                                               (1, 1, 2), sol_b)
        swapped = tensorops.kronecker_vector(sol_b.param.entries,
                                             sol_a.param.entries)
        assert swapped != omega.kronecker
        spec = states.state_spec(perron.in_lambda(kronecker_matrix(FULL2, FULL3),
                                                  swapped))
        with pytest.raises(PreconditionError):
            states.kms_check(spec, omega, Rat(Q(1)), "s2", "s2*")
        assert exp_calls

    def test_nearby_rational_entry_takes_the_enclosure_path(self, exp_calls):
        spec, omega = transported(GOLDEN, (1, 1), CYCLE3, (1, 1, 1))
        plain = perron.FrequencyVector(omega.entries)
        for offset, passes in ((Q(1, 10**20), True), (Q(1, 10**6), False)):
            entries = list(spec.param.entries)
            entries[0] = Rat(scalars.refine(entries[0], Q(1, 10**24)).lo + offset)
            # a loose membership tolerance admits the state, whose radius
            # moves by about the offset
            near = states.state_spec(perron.ParamVector(
                spec.matrix, tuple(entries), "certified", Q(1, 10**4)))
            for x, y in (("s1", "s1*"), ("s1 s2", "s2*")):
                if not passes:
                    with pytest.raises(PreconditionError):
                        states.kms_check(near, omega, Rat(Q(1)), x, y)
                    with pytest.raises(PreconditionError):
                        states.kms_check(near, plain, Rat(Q(1)), x, y)
                    continue
                exp_calls.clear()
                res = states.kms_check(near, omega, Rat(Q(1)), x, y)
                assert len(exp_calls) >= len(entries)
                ref = states.kms_check(near, plain, Rat(Q(1)), x, y)
                assert res.ok == ref.ok

    def test_exact_gauge_factors_lie_in_the_enclosures(self):
        # every transported a05 monomial: the exact factor lies inside the
        # enclosure path's, and the two checks give the same verdict
        one = Rat(Q(1))
        for a, b in itertools.product(POOL, repeat=2):
            spec, omega = transported(a, (1,) * a.n, b, (1,) * b.n)
            plain = perron.FrequencyVector(omega.entries)
            for mono in nonzero_monomials(spec.matrix, 2):
                if len(mono.J) + len(mono.K) > 2:
                    continue
                exact = states.gauge_factor(omega, one, mono)
                assert scalars.is_exact(exact)
                iv = scalars.refine(states.gauge_factor(plain, one, mono),
                                    Q(1, 10**12))
                assert scalars.compare_rational(exact, iv.lo) >= 0, mono
                assert scalars.compare_rational(exact, iv.hi) <= 0, mono
                got = states.kms_check(spec, omega, one, mono, mono.adjoint())
                ref = states.kms_check(spec, plain, one, mono, mono.adjoint())
                assert got.ok == ref.ok, mono


    def test_nested_tensor_products_stay_exact(self, exp_calls):
        # (a kron b) kron c and a kron (b kron c) compose the same exact
        # gauge, and the Kronecker state of the triple is KMS at beta = 1
        # for either with no exp enclosure
        one = Rat(Q(1))
        sol_a = perron.solve_beta(FULL2, (1, 2))
        sol_b = perron.solve_beta(GOLDEN, (1, 1))
        sol_c = perron.solve_beta(FULL2, (1, 1))
        omega_ab = tensorops.combined_frequencies(IndexSplit(2, 2), (1, 2), sol_a,
                                                  (1, 1), sol_b)
        omega_bc = tensorops.combined_frequencies(IndexSplit(2, 2), (1, 1), sol_b,
                                                  (1, 1), sol_c)
        left = tensorops.combined_frequencies(IndexSplit(4, 2), omega_ab, one,
                                              (1, 1), sol_c)
        right = tensorops.combined_frequencies(IndexSplit(2, 4), (1, 2), sol_a,
                                               omega_bc, one)
        for omega in (left, right):
            assert isinstance(omega, perron.TensorFrequencyVector)
            assert len(omega.bases) == 3
        assert (left.bases, left.rows, left.kronecker) == (
            right.bases, right.rows, right.kronecker)
        matrix = kronecker_matrix(kronecker_matrix(FULL2, GOLDEN), FULL2)
        spec = states.state_spec(perron.in_lambda(matrix, left.kronecker))
        monos = nonzero_monomials(matrix, 1)
        assert len(monos) == 81
        for omega in (left, right):
            plain = perron.FrequencyVector(omega.entries)
            for mono in monos:
                exp_calls.clear()
                got = states.kms_check(spec, omega, one, mono, mono.adjoint())
                assert got.ok and not exp_calls, mono
                ref = states.kms_check(spec, plain, one, mono, mono.adjoint())
                assert got.ok == ref.ok, mono


class TestCoassociativity:
    def test_triples(self):
        assert tensorops.check_coassociativity(2, 2, 2)
        assert tensorops.check_coassociativity(2, 3, 2)
        assert tensorops.check_coassociativity(3, 4, 2)

    def test_minimum_dimensions(self):
        with pytest.raises(DomainError):
            tensorops.check_coassociativity(2, 2, 1)
