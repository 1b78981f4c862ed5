"""State evaluation, gauge scaling, and the equilibrium-condition check,
cross-checked against closed forms and a numpy eigenvector oracle."""

import dataclasses
import math
import random
from fractions import Fraction
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckkms import ckwords, perron, scalars, states
from ckkms.ckwords import Monomial
from ckkms.errors import (DimensionError, DomainError, MembershipRejected,
                          PreconditionError)
from ckkms.intervals import Interval
from ckkms.matrix01 import ZeroOneMatrix
from ckkms.scalars import Enc, Flt, Q, Rat

from conftest import (CYCLE3, FULL2, FULL3, GOLDEN, prefix_table,
                      random_positive_rationals, to_fraction, transported)

PHI = (1 + math.sqrt(5)) / 2


def spec_for(matrix, **kw):
    return states.state_spec(perron.canonical_point(matrix), **kw)


def oracle_value(matrix, a_floats, J) -> float:
    """Float reference for the diagonal value a_{j1}..a_{j,m-1} x_{jm}, with
    x computed by numpy as the eigenvalue-1 eigenvector of diag(a) A."""
    arr = np.diag(a_floats) @ np.array(matrix.rows, dtype=float)
    vals, vecs = np.linalg.eig(arr)
    k = int(np.argmin(abs(vals - 1)))
    x = vecs[:, k].real
    x = x / x.sum()
    out = 1.0
    for j in J[:-1]:
        out *= a_floats[j - 1]
    return out * x[J[-1] - 1]


class TestQuasiFree:
    def test_examples(self):
        assert states.quasi_free_eval(2, (1, 2), (1, 2)) == Rat(Q(1, 4))
        assert states.quasi_free_eval(3, (1,), (2,)) == scalars.ZERO
        assert states.quasi_free_eval(2, (), ()) == scalars.ONE

    def test_matches_uniform_state(self):
        spec = spec_for(FULL3)
        for J in ckwords.enumerate_admissible(FULL3, 3):
            got = states.eval_monomial(spec, Monomial(J, J))
            assert to_fraction(got) == Q(1, 3 ** len(J))
            assert states.quasi_free_eval(3, J, J).value == Q(1, 3 ** len(J))

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            states.quasi_free_eval(1, (), ())
        with pytest.raises(DomainError):
            states.quasi_free_eval(2, (3,), (3,))

    @pytest.mark.parametrize("n", [2.7, True, "2"])
    def test_non_integer_dimension_raises(self, n):
        # 2.7 used to be truncated to 2
        with pytest.raises(DomainError):
            states.quasi_free_eval(n, (1,), (1,))

    def test_numpy_dimension_accepted(self):
        assert states.quasi_free_eval(np.int64(3), (1, 2), (1, 2)) == Rat(Q(1, 9))


class TestEvalState:
    def test_uniform_full2(self):
        spec = spec_for(FULL2)
        assert spec.exact_vector is not None
        got = states.eval_state(spec, "s1 s1*")
        assert to_fraction(got) == Q(1, 2)

    def test_golden_cube(self):
        spec = spec_for(GOLDEN)
        got = states.eval_monomial(spec, Monomial((1, 2), (1, 2)))
        iv = scalars.refine(got, Q(1, 10**12))
        assert float(iv.lo) <= PHI ** -3 <= float(iv.hi)
        assert abs(float(iv.mid) - 0.236068) < 1e-6

    def test_off_diagonal_zero(self):
        for matrix in (FULL2, GOLDEN):
            spec = spec_for(matrix)
            assert states.eval_state(spec, "s1 s2*") == scalars.ZERO
            assert states.eval_monomial(spec, Monomial((1, 1), (1,))) == scalars.ZERO

    def test_unit_is_one(self):
        for matrix in (FULL2, GOLDEN):
            assert states.eval_state(spec_for(matrix), ()) == scalars.ONE

    def test_inadmissible_diagonal_zero(self):
        spec = spec_for(GOLDEN)
        assert states.eval_monomial(spec, Monomial((2, 2), (2, 2))) == scalars.ZERO

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            states.eval_monomial(spec_for(FULL2), Monomial((3,), (3,)))

    def test_full_matrix_product_formula(self):
        # over full matrices the state is the product of parameter entries
        rng = random.Random(13)
        for n in (2, 3):
            raw = random_positive_rationals(rng, n)
            total = sum(raw)
            a = tuple(v / total for v in raw)
            param = perron.in_lambda(ZeroOneMatrix.full(n),
                                     tuple(Rat(v) for v in a))
            spec = states.state_spec(param)
            for J in ckwords.enumerate_admissible(ZeroOneMatrix.full(n), 3):
                got = states.eval_monomial(spec, Monomial(J, J))
                expected = Q(1)
                for j in J:
                    expected *= a[j - 1]
                assert to_fraction(got) == expected

    def test_golden_against_numpy(self):
        spec = spec_for(GOLDEN)
        a_floats = [scalars.to_float(e) for e in spec.param.entries]
        for J in ckwords.enumerate_admissible(GOLDEN, 4):
            if not J:
                continue
            got = scalars.to_float(states.eval_monomial(spec, Monomial(J, J)))
            assert abs(got - oracle_value(GOLDEN, a_floats, J)) < 1e-9

    def test_row_sum_telescopes(self):
        # sum_i rho(s_J s_i s_i* s_J*) = rho(s_J s_J*) whenever the family is
        # complete, e.g. over full matrices
        spec = spec_for(FULL2)
        for J in ((1,), (2, 1), (1, 1, 2)):
            parent = to_fraction(states.eval_monomial(spec, Monomial(J, J)))
            kids = sum(to_fraction(
                states.eval_monomial(spec, Monomial(J + (r,), J + (r,))))
                for r in (1, 2))
            assert kids == parent

    def test_positivity(self):
        rng = random.Random(31)
        for matrix in (FULL2, GOLDEN):
            spec = spec_for(matrix)
            for _ in range(25):
                length = rng.randint(0, 3)
                word = tuple(
                    ckwords.Letter(rng.randint(1, 2), rng.random() < 0.5)
                    for _ in range(length))
                x = ckwords.normalize(matrix, word)
                xx = ckwords.multiply(matrix, ckwords.adjoint(x), x)
                value = states.eval_state(spec, xx)
                iv = scalars.refine(value, Q(1, 10**12))
                assert float(iv.hi) >= -1e-12
                assert float(iv.lo) >= -1e-9

    def test_independent_pf_agrees_on_full(self):
        fast = spec_for(FULL2)
        slow = spec_for(FULL2, independent_pf=True)
        assert slow.exact_vector is None
        for J in ((1,), (1, 2), (2, 2, 1)):
            a = states.eval_monomial(fast, Monomial(J, J))
            b = states.eval_monomial(slow, Monomial(J, J))
            assert states.residual_bound(a, b) < Q(1, 10**10)


class TestDiagonalTable:
    """The diagonal values of letter_data against eval_monomial, word by
    word."""

    @pytest.mark.parametrize("matrix, omega", [
        (FULL2, (1, 2)), (FULL3, (2, 1, 1)), (GOLDEN, (1, 2)),
        (CYCLE3, (1, 1, 2)),
    ])
    def test_entries_enclose_eval_monomial(self, matrix, omega):
        spec = states.state_spec(perron.solve_beta(matrix, omega).param)
        words = ckwords.enumerate_admissible(matrix, 3)
        e, d_e, x, d_x = data = states.letter_data(spec)
        assert len(e) == len(x) == matrix.n
        table = prefix_table(data, words)
        assert list(table) == words
        for J in words:
            value = states.eval_monomial(spec, Monomial(J, J))
            deep = scalars.refine(value, Q(1, 10**30))
            entry = table[J]
            if scalars.is_exact(value):
                # full matrices evaluate exactly: the entry holds the value
                assert entry.lo <= deep.lo and deep.hi <= entry.hi, J
            else:
                assert entry.intersects(deep), J
            assert entry.lo > 0 and entry.width <= Q(1, 10**11), J


class TestStateSpecInvariants:
    def test_eigendata_enclosures(self):
        for matrix in (FULL2, FULL3, GOLDEN):
            spec = spec_for(matrix)
            assert spec.eigenvalue.lo <= 1 <= spec.eigenvalue.hi
            assert all(iv.lo > 0 for iv in spec.eigenvector)
            assert sum(iv.lo for iv in spec.eigenvector) <= 1
            assert sum(iv.hi for iv in spec.eigenvector) >= 1

    def test_rejects_off_manifold_parameter(self):
        param = perron.ParamVector(GOLDEN, (Rat(Q(1, 3)), Rat(Q(1, 3))),
                                   "certified", Q(1, 10**9))
        with pytest.raises(PreconditionError):
            states.state_spec(param)

    def test_off_manifold_rejection_carries_the_bracket(self):
        # (diag a) A for the golden-mean A and a = (1/3, 1/3) has spectral
        # radius (1 + sqrt 5)/6, the positive root of 9x^2 - 3x - 1
        param = perron.ParamVector(GOLDEN, (Rat(Q(1, 3)), Rat(Q(1, 3))),
                                   "certified", Q(1, 10**9))
        with pytest.raises(MembershipRejected) as info:
            states.state_spec(param)
        assert isinstance(info.value, PreconditionError)
        bracket = info.value.enclosure
        assert 9 * bracket.lo**2 - 3 * bracket.lo - 1 <= 0 <= \
            9 * bracket.hi**2 - 3 * bracket.hi - 1
        assert 0 < bracket.lo and bracket.hi < 1
        assert "does not meet 1" in str(info.value)


class TestMembershipCertificate:
    """state_spec reuses the pf_data that in_lambda decided membership with,
    through pf_data's memo."""

    @staticmethod
    def pf_data_calls(monkeypatch) -> list:
        calls = []
        inner = perron.pf_data

        def counting(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(perron, "pf_data", counting)
        return calls

    def test_one_perron_computation_per_state(self, certified_pf_calls):
        golden = perron.canonical_point(GOLDEN).entries
        full = (golden[0], scalars.make_power(golden[0], 2))  # g + g^2 = 1
        calls = certified_pf_calls
        states.state_spec(perron.in_lambda(GOLDEN, golden))
        assert len(calls) == 1
        states.state_spec(perron.in_lambda(FULL2, full))
        assert len(calls) == 1

    def test_reused_certificate_matches_a_fresh_computation(self, monkeypatch):
        entries = perron.canonical_point(GOLDEN).entries
        tolerance = Q(1, 10**9)
        # both sides start from an empty Perron memo, so the fresh side
        # computes its Perron data again
        perron._pf_memo.cache_clear()
        param = perron.in_lambda(GOLDEN, entries, tolerance)
        reused = states.state_spec(param)
        perron._pf_memo.cache_clear()
        fresh = states.state_spec(
            perron.ParamVector(GOLDEN, entries, "certified", tolerance))
        for field in dataclasses.fields(states.StateSpec):
            assert getattr(reused, field.name) == getattr(fresh, field.name), field.name
        calls = self.pf_data_calls(monkeypatch)
        finer = states.state_spec(param, precision=Q(1, 10**15))
        assert len(calls) == 1
        assert finer.precision == Q(1, 10**15)
        assert finer.eigenvalue.width <= Q(1, 10**15)


class TestGaugeFactor:
    def test_diagonal_is_one(self):
        sol = perron.solve_beta(FULL2, (Q(1), Q(1)))
        got = states.gauge_factor((Q(1), Q(1)), sol, Monomial((1,), (1,)))
        assert got == scalars.ONE

    def test_single_letter_half(self):
        sol = perron.solve_beta(FULL2, (Q(1), Q(1)))
        got = states.gauge_factor((Q(1), Q(1)), sol, Monomial((1,), ()))
        assert to_fraction(got) == Q(1, 2)

    def test_golden_square(self):
        sol = perron.solve_beta(FULL2, (Q(1), Q(2)))
        got = states.gauge_factor((Q(1), Q(2)), sol, Monomial((2,), ()))
        assert abs(scalars.to_float(got) - PHI ** -2) < 1e-12
        # adjoint leg flips the sign of the exponent
        inv = states.gauge_factor((Q(1), Q(2)), sol, Monomial((), (2,)))
        assert abs(scalars.to_float(inv) - PHI ** 2) < 1e-11

    def test_float_beta_enclosure(self):
        got = states.gauge_factor((Q(1), Q(1)), Flt(math.log(2)),
                                  Monomial((1,), ()))
        iv = scalars.refine(got, Q(1, 10**12))
        assert float(iv.lo) - 1e-12 <= 0.5 <= float(iv.hi) + 1e-12

    def test_balanced_weights_cancel(self):
        # omega(J) == omega(K) with different letters still gives exactly 1
        got = states.gauge_factor((Q(1), Q(2)), Flt(0.7310),
                                  Monomial((2,), (1, 1)))
        assert got == scalars.ONE


class TestKmsCheck:
    def test_full2_textbook_pair(self):
        sol = perron.solve_beta(FULL2, (Q(1), Q(1)))
        spec = states.state_spec(sol.param)
        res = states.kms_check(spec, (Q(1), Q(1)), sol, "s1", "s1*")
        assert res.ok and res.residual == 0
        assert to_fraction(res.lhs) == Q(1, 2)
        assert to_fraction(res.rhs) == Q(1, 2)

    def test_unit_argument(self):
        sol = perron.solve_beta(FULL2, (Q(1), Q(1)))
        spec = states.state_spec(sol.param)
        for y in ("s1 s1*", "s2", "s1 s2*"):
            res = states.kms_check(spec, (Q(1), Q(1)), sol, (), y)
            assert res.ok
            assert states.residual_bound(res.lhs, res.rhs) <= res.tolerance

    def test_golden_mixed_frequencies(self):
        sol = perron.solve_beta(GOLDEN, (Q(1), Q(2)))
        spec = states.state_spec(sol.param)
        res = states.kms_check(spec, (Q(1), Q(2)), sol, "s1", "s1*",
                               tolerance=Q(1, 10**9))
        assert res.ok

    def test_float_beta_within_tolerance(self):
        sol = perron.solve_beta(FULL2, (Q(1), Q(1)))
        spec = states.state_spec(sol.param)
        res = states.kms_check(spec, (Q(1), Q(1)), Flt(math.log(2)),
                               "s2", "s2*", tolerance=Q(1, 10**6))
        assert res.ok

    def test_precondition_violation(self):
        spec = spec_for(FULL2)
        sol = perron.solve_beta(FULL2, (Q(1), Q(2)))
        with pytest.raises(PreconditionError):
            states.kms_check(spec, (Q(1), Q(2)), sol, "s1", "s1*")

    def test_dimension_mismatch(self):
        spec = spec_for(FULL2)
        sol = perron.solve_beta(FULL2, (Q(1), Q(1)))
        with pytest.raises(DimensionError):
            states.kms_check(spec, (Q(1), Q(1), Q(1)), sol, "s1", "s1*")

    def test_all_short_monomial_pairs(self):
        # the defining identity across every short monomial pair on the pool
        for matrix, omega in ((FULL2, (Q(1), Q(1))),
                              (FULL3, (Q(1), Q(1), Q(1))),
                              (GOLDEN, (Q(1), Q(2)))):
            sol = perron.solve_beta(matrix, omega)
            spec = states.state_spec(sol.param)
            words = ckwords.enumerate_admissible(matrix, 1)
            monos = [Monomial(J, K) for J in words for K in words
                     if not ckwords.monomial_is_zero(matrix, Monomial(J, K))]
            for x in monos:
                for y in monos:
                    res = states.kms_check(spec, omega, sol, x, y,
                                           tolerance=Q(1, 10**9))
                    assert res.ok, (matrix.rows, x, y, float(res.residual))

    def test_termwise_solution_identification(self):
        # a_i = e^{-beta omega_i}: state values match the exponential form
        sol = perron.solve_beta(GOLDEN, (Q(1), Q(2)))
        spec = states.state_spec(sol.param)
        beta = float(sol.beta.mid)
        omega = (1.0, 2.0)
        a_floats = [math.exp(-beta * w) for w in omega]
        for J in ckwords.enumerate_admissible(GOLDEN, 3):
            if not J:
                continue
            got = scalars.to_float(states.eval_monomial(spec, Monomial(J, J)))
            assert abs(got - oracle_value(GOLDEN, a_floats, J)) < 1e-9


@lru_cache(maxsize=None)
def side_cases() -> tuple:
    """(spec, omega, beta, monomials, a, x): exact factor states at their
    own beta, with exact sides on F2 and enclosures on the others, and
    Kronecker states under combined frequencies at beta = 1; the nonzero
    monomials with sides of length <= 1; and the float parameter and the
    numpy Perron vector (sum 1) of diag(a) A."""
    cases = []

    def add(spec, omega, beta):
        matrix = spec.matrix
        words = ckwords.enumerate_admissible(matrix, 1)
        monos = [Monomial(J, K) for J in words for K in words
                 if not ckwords.monomial_is_zero(matrix, Monomial(J, K))]
        a = [scalars.to_float(e) for e in spec.param.entries]
        vals, vecs = np.linalg.eig(np.diag(a) @ np.array(matrix.rows, dtype=float))
        x = vecs[:, int(np.argmin(abs(vals - 1)))].real
        cases.append((spec, omega, beta, monos, a, x / x.sum()))

    for matrix, omega in ((FULL2, (1, 2)), (GOLDEN, (1, 2)), (CYCLE3, (1, 1, 2))):
        sol = perron.solve_beta(matrix, omega)
        add(states.state_spec(sol.param), omega, sol)
    for (a, om_a), (b, om_b) in (((GOLDEN, (1, 1)), (CYCLE3, (1, 1, 1))),
                                 ((CYCLE3, (1, 1, 2)), (GOLDEN, (1, 2))),
                                 ((FULL2, (1, 2)), (GOLDEN, (1, 1)))):
        add(*transported(a, om_a, b, om_b), Rat(Q(1)))
    return tuple(cases)


def numpy_value(matrix, a, x, nf) -> float:
    """The state of parameter a and Perron vector x on a normal form."""
    total = 0.0
    for mono, coeff in nf.terms:
        if mono.J == mono.K:
            value = 1.0 if not mono.J else x[mono.J[-1] - 1]
            for j in mono.J[:-1]:
                value *= a[j - 1]
            total += float(coeff) * value
    return total


class TestKmsCheckSides:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_sides_on_the_grid(self, data):
        # each enclosure side is the unrounded one rounded outward onto the
        # grid 2^-60, at most two cells wider; the verdict and the residual
        # are those of the unrounded sides; every side holds the numpy value
        spec, omega, beta, monos, a, x_np = data.draw(st.sampled_from(side_cases()))
        x, y = data.draw(st.sampled_from(monos)), data.draw(st.sampled_from(monos))
        res = states.kms_check(spec, omega, beta, x, y)
        with mock.patch.object(states, "_on_grid", lambda s: s):
            raw = states.kms_check(spec, omega, beta, x, y)
        assert (res.ok, res.residual) == (raw.ok, raw.residual)
        assert states.SIDE_BITS == 60
        cell = Q(1, 2 ** states.SIDE_BITS)
        want = numpy_value(spec.matrix, a, x_np, ckwords.multiply(spec.matrix, x, y))
        for side, unrounded in ((res.lhs, raw.lhs), (res.rhs, raw.rhs)):
            if not isinstance(side, Enc):
                assert side == unrounded
                assert abs(scalars.to_float(side) - want) <= 1e-12
                continue
            iv, ref = side.interval, unrounded.interval
            for q in (iv.lo, iv.hi):
                assert q.denominator & (q.denominator - 1) == 0
                assert q.denominator <= 2 ** states.SIDE_BITS
            assert iv.lo <= ref.lo and ref.hi <= iv.hi
            assert iv.width <= ref.width + 2 * cell
            assert iv.lo - 1e-12 <= want <= iv.hi + 1e-12


class TestResidualBound:
    def test_exact_points(self):
        assert states.residual_bound(Rat(Q(1, 2)), Rat(Q(1, 3))) == Q(1, 6)
        assert states.residual_bound(Rat(Q(1, 2)), Rat(Q(1, 2))) == 0

    def test_bounds_true_distance(self):
        a = scalars.make_algebraic([-1, -1, 1], Q(1), Q(2))  # golden mean
        b = Rat(Q(8, 5))
        bound = states.residual_bound(a, b)
        assert bound >= abs(Fraction(PHI).limit_denominator(10**12) - Q(8, 5)) - Q(1, 10**10)
        assert bound <= Q(1, 40)
