"""Certified Perron-Frobenius data, manifold membership, canonical points,
and inverse-temperature solving, cross-checked against numpy eigensolves and
independent float bisection."""

import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckkms import perron, scalars
from ckkms.errors import (DomainError, MembershipRejected, NumericalFailureError,
                          PreconditionError, ResourceLimitError)
from ckkms.matrix01 import ZeroOneMatrix, kronecker_matrix
from ckkms.intervals import Interval, exp_interval
from ckkms.scalars import Enc, Flt, Q, Rat

from conftest import (CYCLE3, FULL2, FULL3, GOLDEN, POOL, budget,
                      random_irreducible, to_fraction)

PHI = (1 + math.sqrt(5)) / 2
POOL_AND_PRODUCTS = POOL + tuple(kronecker_matrix(a, b) for a in POOL for b in POOL)

# ---------------------------------------------------------------------------
# independent oracles


def np_perron(rows) -> tuple[float, np.ndarray]:
    """Dominant eigenvalue and positive eigenvector (sum 1) via numpy."""
    arr = np.array(rows, dtype=float)
    vals, vecs = np.linalg.eig(arr)
    k = int(np.argmax(vals.real))
    vec = vecs[:, k].real
    if vec.sum() < 0:
        vec = -vec
    return float(vals[k].real), vec / vec.sum()


def bisect_beta(omega, n_terms_fn, lo=1e-9, hi=60.0) -> float:
    """Solve sum-of-exponentials equations by plain float bisection."""
    for _ in range(200):
        mid = (lo + hi) / 2
        if n_terms_fn(mid) >= 1:
            lo = mid
        else:
            hi = mid
    return lo


def np_radius(rows, omega, beta: float) -> float:
    """Spectral radius of diag(e^{-beta omega}) A via numpy."""
    weights = np.exp(-beta * np.array(omega, dtype=float))
    scaled = np.array(rows, dtype=float) * weights[:, None]
    return float(max(abs(np.linalg.eigvals(scaled))))


def bisect_radius_beta(rows, omega) -> float:
    """The beta where the numpy spectral radius crosses 1, by float bisection."""
    return bisect_beta(omega, lambda b: np_radius(rows, omega, b))


class TestPfData:
    def test_full_matrices(self):
        # the float start hits the uniform eigenvector exactly, so the
        # eigenvalue and eigenvector come back as exact points, not grid cells
        for n in (2, 3, 4, 6):
            data = perron.pf_data(ZeroOneMatrix.full(n))
            assert data.eigenvalue == Interval.point(n)
            assert data.eigenvector == (Interval.point(Q(1, n)),) * n

    def test_golden_matrix(self):
        data = perron.pf_data(GOLDEN)
        assert float(data.eigenvalue.lo) <= PHI <= float(data.eigenvalue.hi) + 1e-15
        oracle_val, oracle_vec = np_perron(GOLDEN.rows)
        assert abs(float(data.eigenvalue.mid) - oracle_val) < 1e-10
        for entry, ref in zip(data.eigenvector, oracle_vec):
            assert abs(float(entry.mid) - ref) < 1e-8

    def test_random_matrices_against_numpy(self):
        rng = random.Random(23)
        for _ in range(25):
            m = random_irreducible(rng, rng.randint(2, 5))
            data = perron.pf_data(m)
            oracle_val, oracle_vec = np_perron(m.rows)
            assert abs(float(data.eigenvalue.mid) - oracle_val) < 1e-9
            assert data.eigenvalue.width <= Q(1, 10**11)
            for entry, ref in zip(data.eigenvector, oracle_vec):
                assert abs(float(entry.mid) - ref) < 1e-7

    def test_weighted_matrix_eigenvalue_one(self):
        data = perron.pf_data(FULL2, (Rat(Q(1, 3)), Rat(Q(2, 3))))
        assert data.eigenvalue.lo <= 1 <= data.eigenvalue.hi
        for entry, ref in zip(data.eigenvector, (Q(1, 3), Q(2, 3))):
            assert entry.lo <= ref <= entry.hi

    def test_collatz_wielandt_sandwich(self):
        # at the certified eigenvector, min and max quotients bracket the PFE
        data = perron.pf_data(CYCLE3)
        x = [float(e.mid) for e in data.eigenvector]
        ax = [sum(CYCLE3.entry(i + 1, j + 1) * x[j] for j in range(3))
              for i in range(3)]
        quotients = [ax[i] / x[i] for i in range(3)]
        lam = float(data.eigenvalue.mid)
        assert min(quotients) - 1e-9 <= lam <= max(quotients) + 1e-9

    def test_eigenvector_enclosure_raises_when_it_stalls_above_one(self):
        # 1 + u + u^2 bounds e^u only for u <= 1.  These fixed-width entries
        # give a bracket of width about 1e-7, but the 1e-8 entry makes B so
        # ill-conditioned that the Birkhoff distance stalls at about 5, and
        # Enc entries cannot be refined, so no enclosure may be returned
        a = (Enc(Interval(Q(1, 2) - Q(1, 10**15), Q(1, 2) + Q(1, 10**15))),
             Enc(Interval(Q(1, 10**8) - Q(1, 10**15), Q(1, 10**8) + Q(1, 10**15))))
        with pytest.raises(NumericalFailureError, match="projective distance"):
            perron.pf_data(GOLDEN, a, Q(1, 10**6))

    def test_hopeless_enclosure_raises_promptly(self):
        # a 1e-30 entry makes (M+I)^2 so ill-conditioned that no iterate
        # certifies the eigenvector, and the entries are exact, so narrowing
        # them cannot help: this raises instead of running to ITERATION_CAP
        a = (Rat(Q(1, 2)), Rat(Q(1, 10**30)), Rat(Q(1, 3)))
        start = time.monotonic()
        with pytest.raises(NumericalFailureError) as info:
            perron.pf_data(CYCLE3, a)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"pf_data took {elapsed:.2f}s to fail"
        assert f"within {perron.ITERATION_CAP} steps" not in str(info.value)

    @staticmethod
    def fixed_half(radius):
        half = Enc(Interval(Q(1, 2) - radius, Q(1, 2) + radius))
        return (half, half)

    def test_narrow_fixed_width_entries_give_a_bracket(self):
        # Enc entries cannot be refined; these are narrow enough for 1e-12
        data = perron.pf_data(GOLDEN, self.fixed_half(Q(1, 10**20)), Q(1, 10**12))
        lo, hi = data.eigenvalue.lo, data.eigenvalue.hi
        # lo <= (1 + sqrt 5)/4 <= hi, decided exactly
        assert 4 * lo - 1 <= 0 or (4 * lo - 1) ** 2 <= 5
        assert 4 * hi - 1 > 0 and (4 * hi - 1) ** 2 >= 5
        assert hi - lo <= Q(1, 10**12)

    def test_wide_fixed_width_entries_raise(self):
        with pytest.raises(NumericalFailureError,
                           match="limited by fixed-width enclosure entries"):
            perron.pf_data(GOLDEN, self.fixed_half(Q(1, 10**6)), Q(1, 10**12))

    @pytest.mark.parametrize("matrix, a, x, perron_vector", [
        # the exact Perron direction of F3, summing to 3
        (FULL3, (1, 1, 1), [1, 1, 1], [Q(1, 3)] * 3),
        # near the Perron direction (1/3, 2/3) of diag(1/3, 2/3) F2
        (FULL2, (Q(1, 3), Q(2, 3)), [10**20, 2 * 10**20 + 4], [Q(1, 3), Q(2, 3)]),
    ])
    def test_eigenvector_enclosure_normalises_the_iterate(self, matrix, a, x,
                                                          perron_vector):
        width = Q(1, 24 * 10**12)
        entries = perron._grid_entries(tuple(Rat(Q(v)) for v in a), width, 104)
        lo, hi, _ = perron._shifted_bounds(matrix, entries, 104)
        u = perron._birkhoff_distance(lo, hi, 104)(x)
        assert u <= Q(1, 10**12)
        vector = perron._eigenvector_enclosure(x, u, 104)
        for entry, ref in zip(vector, perron_vector):
            assert entry.lo <= ref <= entry.hi
            assert entry.width <= Q(1, 10**11)

    @given(st.sampled_from(POOL_AND_PRODUCTS),
           st.lists(st.fractions(min_value=Fraction(1, 20), max_value=2,
                                 max_denominator=40), min_size=9, max_size=9),
           st.sampled_from([Q(1, 10**6), Q(1, 10**9), Q(1, 10**12)]))
    @settings(max_examples=30, deadline=None)
    def test_certificates_contain_numpy_and_sit_on_a_dyadic_grid(
            self, matrix, weights, precision):
        a = weights[:matrix.n]
        data = perron.pf_data(matrix, tuple(Rat(w) for w in a), precision)
        scaled = np.array(matrix.rows, dtype=float) * np.array(a, dtype=float)[:, None]
        oracle_val, oracle_vec = np_perron(scaled)
        assert data.eigenvalue.width <= precision
        if data.eigenvalue.lo != data.eigenvalue.hi:  # exact points stay exact
            for end in (data.eigenvalue.lo, data.eigenvalue.hi):
                assert end.denominator & (end.denominator - 1) == 0
        # slack for numpy's own rounding error, not for the certificate
        assert data.eigenvalue.lo - 1e-12 <= oracle_val <= data.eigenvalue.hi + 1e-12
        for entry, ref in zip(data.eigenvector, oracle_vec):
            assert float(entry.lo) - 1e-10 <= ref <= float(entry.hi) + 1e-10
            if entry.lo != entry.hi:  # exact points keep their own denominators
                for end in (entry.lo, entry.hi):
                    assert end.denominator & (end.denominator - 1) == 0


class TestPfMemo:
    def test_equal_inputs_return_the_identical_result(self, certified_pf_calls):
        calls = certified_pf_calls
        a = [Rat(Q(1, 2)), Rat(Q(1, 2))]
        first = perron.pf_data(FULL2, a, Q(1, 10**12))
        assert perron.pf_data(FULL2, tuple(a), Fraction(2, 2 * 10**12)) is first
        assert perron.pf_data(FULL2, (Q(1, 2), Q(1, 2)), Q(1, 10**12)) is first
        ones = perron.pf_data(GOLDEN)
        assert perron.pf_data(GOLDEN, [1, 1]) is ones
        assert perron.pf_data(GOLDEN, (scalars.ONE, scalars.ONE),
                              perron.DEFAULT_PRECISION) is ones
        assert len(calls) == 2
        assert perron._pf_memo.cache_info().maxsize == perron.PF_MEMO_SIZE

    def test_another_precision_computes_anew(self, certified_pf_calls):
        calls = certified_pf_calls
        coarse = perron.pf_data(CYCLE3, None, Q(1, 10**6))
        fine = perron.pf_data(CYCLE3, None, Q(1, 10**15))
        assert len(calls) == 2
        assert (coarse.precision, fine.precision) == (Q(1, 10**6), Q(1, 10**15))
        assert fine.eigenvalue.width <= Q(1, 10**15)

    def test_float_and_rational_entries_are_different_inputs(self, certified_pf_calls):
        calls = certified_pf_calls
        perron.pf_data(FULL2, (Rat(Q(1, 2)), Rat(Q(1, 2))))
        perron.pf_data(FULL2, (Flt(0.5), Flt(0.5)))
        assert len(calls) == 2

    def test_failures_are_not_remembered(self, certified_pf_calls):
        calls = certified_pf_calls
        reducible = ZeroOneMatrix(((1, 1), (0, 1)))
        for _ in range(2):
            with pytest.raises(PreconditionError):
                perron.pf_data(reducible)
        assert len(calls) == 2


class TestMembership:
    def test_uniform_accepted_on_full(self):
        param = perron.in_lambda(FULL2, (Rat(Q(1, 2)), Rat(Q(1, 2))))
        assert param.certificate == "exact"

    def test_off_simplex_rejected_with_enclosure(self):
        with pytest.raises(MembershipRejected) as info:
            perron.in_lambda(FULL2, (Rat(Q(1, 2)), Rat(Q(1, 3))))
        enc = info.value.enclosure
        assert enc is not None
        assert enc.lo <= Q(5, 6) <= enc.hi

    def test_canonical_point_accepted_on_golden(self):
        param = perron.canonical_point(GOLDEN)
        verified = perron.in_lambda(GOLDEN, param.entries)
        assert verified.certificate in ("exact", "certified")

    def test_every_pool_canonical_point_accepted(self):
        for m in POOL:
            param = perron.canonical_point(m)
            perron.in_lambda(m, param.entries)  # must not raise

    def test_domain_validation(self):
        with pytest.raises(Exception):
            perron.in_lambda(FULL2, (Rat(Q(1, 2)),))  # wrong arity
        with pytest.raises(Exception):
            perron.in_lambda(FULL2, (Rat(Q(3, 2)), Rat(Q(1, 2))))  # outside (0,1)

    @pytest.mark.parametrize("tolerance", [0, Q(-1, 10**9)])
    def test_nonpositive_tolerance_is_a_domain_error(self, tolerance):
        # both paths: the entry sum on a full matrix, pf_data on the other
        golden = perron.canonical_point(GOLDEN).entries
        for matrix, entries in ((FULL2, (Rat(Q(1, 2)),) * 2), (GOLDEN, golden)):
            with pytest.raises(DomainError, match="tolerance must be positive"):
                perron.in_lambda(matrix, entries, tolerance=tolerance)

    def test_full_matrix_radius_is_the_entry_sum(self):
        # a = (g, g^3) with g = 1/phi: the radius g + g^3 = 3g - 1 is the
        # positive root of r^2 + 5r - 5
        g = scalars.make_algebraic([-1, 1, 1], Q(0), Q(1))
        with pytest.raises(MembershipRejected) as info:
            perron.in_lambda(FULL2, (g, scalars.make_power(g, 3)))
        enc = info.value.enclosure
        assert enc.lo**2 + 5 * enc.lo - 5 <= 0 <= enc.hi**2 + 5 * enc.hi - 5
        assert enc.width <= Q(1, 4 * 10**9)

    def test_tight_tolerance_is_decided_at_its_own_precision(self, monkeypatch):
        # a = (x, x) on the golden-mean matrix with x * phi = 1 + 2e-13 lies
        # outside the band, and with 1 + 0.5e-13 inside it; the float value
        # of sqrt 5 is off by far less than either margin
        def golden_vector(radius):
            x = Rat(Q(2) / (1 + Q(math.sqrt(5))) * radius)
            return (x, x)

        tolerance = Q(1, 10**13)
        with pytest.raises(MembershipRejected) as info:
            perron.in_lambda(GOLDEN, golden_vector(1 + Q(2, 10**13)), tolerance)
        assert info.value.enclosure.lo > 1 + tolerance
        asked = []
        inner = perron.pf_data

        def spy(matrix, a, precision):
            asked.append((precision, inner(matrix, a, precision)))
            return asked[-1][1]

        monkeypatch.setattr(perron, "pf_data", spy)
        perron.in_lambda(GOLDEN, golden_vector(1 + Q(1, 2 * 10**13)), tolerance)
        [(precision, data)] = asked
        assert precision == data.precision == tolerance / 4
        assert data.eigenvalue.width <= tolerance / 4


# the entry of this matrix's canonical point is the root of x^3 + x^2 + x - 1
TRIBONACCI = ZeroOneMatrix(((1, 1, 0), (1, 0, 1), (1, 0, 0)))


class TestCanonicalPoint:
    @pytest.mark.parametrize("matrix", POOL + (TRIBONACCI,))
    def test_is_the_unit_frequency_solution(self, matrix):
        param = perron.canonical_point(matrix)
        ones = (1,) * matrix.n
        assert param == perron.solve_beta(matrix, ones).param
        assert param.certificate == "exact"
        radius, _ = np_perron(matrix.rows)
        for entry in param.entries:
            assert scalars.is_exact(entry)
            assert abs(scalars.to_float(entry) * radius - 1) < 1e-12

    def test_tribonacci_entry_meets_a_finer_precision(self):
        # the entry does not depend on the precision of the solve; refine
        # meets the finer one
        entry = perron.canonical_point(TRIBONACCI).entries[0]
        fine = perron.solve_beta(TRIBONACCI, (1, 1, 1), Q(1, 10**30)).param.entries[0]
        assert fine == entry and entry.poly == (-1, 1, 1, 1)
        iv = scalars.refine(entry, Q(1, 10**30))
        assert iv.width <= Q(1, 10**30) and abs(float(iv.lo) - 0.5436890126920764) < 1e-15

    def test_permutation_matrix_rejected(self):
        swap = ZeroOneMatrix(((0, 1), (1, 0)))
        with pytest.raises(PreconditionError):
            perron.canonical_point(swap)

    def test_above_degree_cap_raises(self):
        # the numeric solver's float entries are never handed back
        big = ZeroOneMatrix.full(perron.SOLVE_BETA_DEGREE_CAP + 1)
        with pytest.raises(ResourceLimitError):
            perron.canonical_point(big)

    def test_full_matrices_exact(self):
        p2 = perron.canonical_point(FULL2)
        assert [e.value for e in p2.entries] == [Q(1, 2), Q(1, 2)]
        p6 = perron.canonical_point(ZeroOneMatrix.full(6))
        assert [e.value for e in p6.entries] == [Q(1, 6)] * 6

    def test_golden_entries(self):
        param = perron.canonical_point(GOLDEN)
        expected = (math.sqrt(5) - 1) / 2  # reciprocal of the eigenvalue
        for entry in param.entries:
            assert abs(scalars.to_float(entry) - expected) < 1e-10


# beta brackets of seeded float-frequency solves, recorded while the sign
# test took its e^{-beta omega} bounds from Fraction series.  A decided sign
# is the true sign whichever enclosure decides it, so the bisection path and
# these endpoints must not depend on how the bounds are computed.
PINNED_FLOAT_BETA = (
    ("GOLDEN", 6, 0, "25455/131072", "203641/1048576"),
    ("GOLDEN", 6, 1, "223553/1048576", "111777/524288"),
    ("GOLDEN", 12, 0, "191461860729/549755813888", "382923721459/1099511627776"),
    ("GOLDEN", 12, 1, "114908538269/549755813888", "229817076539/1099511627776"),
    ("FULL2", 6, 0, "495273/1048576", "247637/524288"),
    ("FULL2", 6, 1, "160363/262144", "641453/1048576"),
    ("FULL2", 12, 0, "366294082233/1099511627776", "183147041117/549755813888"),
    ("FULL2", 12, 1, "69862267979/137438953472", "558898143833/1099511627776"),
    ("CYCLE3", 6, 0, "549967/1048576", "34373/65536"),
    ("CYCLE3", 6, 1, "178367/524288", "356735/1048576"),
    ("CYCLE3", 12, 0, "477557283763/1099511627776", "119389320941/274877906944"),
    ("CYCLE3", 12, 1, "402678791409/1099511627776", "201339395705/549755813888"),
)

# beta brackets and modes of 27 seeded float-frequency solves at 1e-6, 1e-9
# and 1e-12, recorded while the sign test formed beta * omega_i as an
# Interval before calling exp_neg_grid; the bisection must not depend on how
# its entry bounds are computed
FLOAT_SOLVES = json.loads(
    (Path(__file__).parent / "data" / "solve_beta_float.json").read_text(encoding="utf-8"))


# F_n with omega = (1, ..., 1, n/2 + 1) has a small base t, which ln t
# spreads by about 1/t; the pool takes seeded rational frequencies
_RNG = random.Random(15)
EXACT_BETA_CASES = (
    [(ZeroOneMatrix.full(n), (1,) * (n - 1) + (n // 2 + 1,)) for n in range(4, 17, 2)]
    + [(m, tuple(Q(_RNG.randint(1, 4), _RNG.randint(1, 3)) for _ in range(m.n)))
       for m in POOL for _ in range(2)])


class TestSolveBeta:
    def test_full2_unit_frequencies(self):
        sol = perron.solve_beta(FULL2, (Q(1), Q(1)))
        assert sol.mode == "exact"
        assert abs(float(sol.beta.mid) - math.log(2)) < 1e-12
        assert [to_fraction(e) for e in sol.param.entries] == [
            Q(1, 2), Q(1, 2)]

    @pytest.mark.parametrize("precision", [0, -1, Q(-1, 3)])
    @pytest.mark.parametrize("omega", [(1, 2), (1.3, 0.7)], ids=["exact", "float"])
    def test_nonpositive_precision_is_a_domain_error(self, omega, precision):
        with pytest.raises(DomainError, match="precision must be positive"):
            perron.solve_beta(GOLDEN, omega, precision)

    def test_full2_frequencies_one_two(self):
        # independent oracle: e^-b + e^-2b = 1
        oracle = bisect_beta((1, 2), lambda b: math.exp(-b) + math.exp(-2 * b))
        assert abs(oracle - math.log(PHI)) < 1e-12
        sol = perron.solve_beta(FULL2, (Q(1), Q(2)))
        assert sol.mode == "exact"
        assert abs(float(sol.beta.mid) - oracle) < 1e-10
        a1, a2 = (scalars.to_float(e) for e in sol.param.entries)
        assert abs(a1 - 1 / PHI) < 1e-10 and abs(a2 - 1 / PHI**2) < 1e-10

    def test_full_n_log_n(self):
        for n in (2, 3, 5):
            sol = perron.solve_beta(ZeroOneMatrix.full(n), [Q(1)] * n)
            assert abs(float(sol.beta.mid) - math.log(n)) < 1e-12

    def test_golden_matrix_unit_frequencies(self):
        sol = perron.solve_beta(GOLDEN, (Q(1), Q(1)))
        assert sol.mode == "exact"
        assert abs(float(sol.beta.mid) - math.log(PHI)) < 1e-10

    def test_rational_frequencies_scaled(self):
        # frequencies (1/2, 1) must give exactly twice the beta of (1, 2)
        sol_small = perron.solve_beta(FULL2, (Q(1, 2), Q(1)))
        sol_big = perron.solve_beta(FULL2, (Q(1), Q(2)))
        assert abs(float(sol_small.beta.mid) - 2 * float(sol_big.beta.mid)) < 1e-9
        # the parameter vector is identical (gauge-scaling invariance)
        for a, b in zip(sol_small.param.entries, sol_big.param.entries):
            assert scalars.same_value(a, b)

    @pytest.mark.parametrize("n, seconds", [(5, 2.0), (6, 0.5), (7, 1.0)],
                             ids=["25x25", "36x36", "49x49"])
    def test_exact_solve_of_a_kronecker_composite(self, n, seconds):
        # the Kronecker product of two random n x n matrices, frequencies in
        # {1, 2, 3}: for this seed the determinant has degree 43, 65 and 76
        # (frequency sums 43, 79 and 90) for n = 5, 6 and 7
        rng = random.Random(1)
        m = kronecker_matrix(random_irreducible(rng, n), random_irreducible(rng, n))
        omega = [rng.choice((1, 2, 3)) for _ in range(m.n)]
        with budget(seconds):
            sol = perron.solve_beta(m, [Q(w) for w in omega])
        assert sol.mode == "exact"
        assert sol.beta.width <= perron.DEFAULT_PRECISION
        oracle = bisect_radius_beta(m.rows, omega)
        assert float(sol.beta.lo) <= oracle <= float(sol.beta.hi)

    def test_irrational_frequencies_fall_back(self):
        w2 = scalars.Flt(math.sqrt(2))
        sol = perron.solve_beta(FULL2, (Q(1), w2))
        assert sol.mode == "heuristic"
        beta = float(sol.beta.mid)
        residual = math.exp(-beta) + math.exp(-beta * math.sqrt(2)) - 1
        assert abs(residual) < 1e-9

    def test_param_satisfies_radius_one(self):
        rng = random.Random(5)
        for m in POOL:
            omega = [Q(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(m.n)]
            sol = perron.solve_beta(m, omega)
            entries = [scalars.to_float(e) for e in sol.param.entries]
            scaled = np.array(m.rows, dtype=float) * np.array(entries)[:, None]
            radius = max(abs(np.linalg.eigvals(scaled)))
            assert abs(radius - 1) < 1e-9

    def test_float_frequencies_default_precision_fast(self):
        omega = (1.0, math.sqrt(2), math.sqrt(3))
        start = time.monotonic()
        sol = perron.solve_beta(CYCLE3, omega)
        elapsed = time.monotonic() - start
        assert sol.mode == "heuristic"
        assert sol.beta.width <= perron.DEFAULT_PRECISION
        assert abs(float(sol.beta.mid) - bisect_radius_beta(CYCLE3.rows, omega)) < 1e-9
        assert elapsed < 2.0, f"solve took {elapsed:.2f}s"

    @pytest.mark.parametrize("digits", [12, 30])
    @pytest.mark.parametrize("matrix, omega", EXACT_BETA_CASES)
    def test_exact_beta_meets_its_width(self, matrix, omega, digits):
        precision = Q(1, 10**digits)
        sol = perron.solve_beta(matrix, omega, precision)
        assert sol.mode == "exact"
        assert sol.beta.width <= precision
        assert abs(float(sol.beta.mid) - bisect_radius_beta(matrix.rows, omega)) < 1e-9

    def test_float_width_beyond_the_working_floor_raises(self):
        # the sign test stops refining at working width 1e-60, so a bracket
        # this fine is out of reach and must not come back wider than asked
        with pytest.raises(NumericalFailureError):
            perron.solve_beta(FULL2, (1.0, math.sqrt(2)), Fraction(1, 10**70))

    def test_positive_frequencies_required(self):
        with pytest.raises(Exception):
            perron.solve_beta(FULL2, (Q(0), Q(1)))

    @pytest.mark.parametrize("entry", [
        Enc(Interval(Q(-2), Q(-1))),
        Enc(Interval(Q(0), Q(1))),  # not proved positive
        scalars.make_algebraic([-1, 1, 1], Q(-2), Q(-1)),  # -phi
        scalars.make_algebraic([-1, -1, 1], Q(-1), Q(0)),  # 1 - phi
        Flt(-0.5),
    ])
    def test_frequency_not_proved_positive_rejected(self, entry):
        with pytest.raises(DomainError, match="frequencies must be positive"):
            perron.FrequencyVector((entry, Rat(Q(1))))

    def test_positive_irrational_frequencies_accepted(self):
        sqrt2 = scalars.make_algebraic([-2, 0, 1], Q(0), Q(2))
        omega = perron.FrequencyVector((sqrt2, Enc(Interval(Q(1, 2), Q(1)))))
        assert omega.entries[0] == sqrt2

    @pytest.mark.parametrize("name, digits, seed, lo, hi", PINNED_FLOAT_BETA)
    def test_float_frequency_brackets_pinned(self, name, digits, seed, lo, hi):
        rows = {"GOLDEN": GOLDEN, "FULL2": FULL2, "CYCLE3": CYCLE3}[name]
        rng = random.Random(f"pin/{name}/{digits}/{seed}")
        omega = tuple(rng.uniform(0.3, 3.0) for _ in range(rows.n))
        sol = perron.solve_beta(rows, omega, precision=Fraction(1, 10**digits))
        assert (sol.beta.lo, sol.beta.hi) == (Fraction(lo), Fraction(hi))

    @pytest.mark.parametrize("case", FLOAT_SOLVES, ids=lambda c: "{}-{}-{}".format(
        c["matrix"], c["precision"], "/".join(w[:6] for w in c["omega"])))
    def test_float_solves_match_their_recorded_brackets(self, case):
        rows = {"GOLDEN": GOLDEN, "FULL2": FULL2, "CYCLE3": CYCLE3}[case["matrix"]]
        omega = [float(w) for w in case["omega"]]
        sol = perron.solve_beta(rows, omega, Fraction(case["precision"]))
        assert sol.mode == case["mode"]
        assert [str(sol.beta.lo), str(sol.beta.hi)] == case["beta"]


class TestRadiusVsOne:
    """The bisection's sign test against the numpy spectral radius."""

    WORKS = (Q(1, 64 * 10**6), Q(1, 10**15))

    @staticmethod
    def grid(omega, work):
        """The sign tests' grid of float frequencies at working width `work`."""
        return perron._frequency_grid([Flt(w) for w in omega], work)

    @staticmethod
    def beta_grid(rng, rows, omega):
        root = bisect_radius_beta(rows, omega)
        near = [root * (1 + s * 10.0**-k) for k in (3, 5, 7, 9, 11) for s in (-1, 1)]
        spread = [rng.uniform(0.05, 3.0) * root for _ in range(8)]
        return [Fraction(b) for b in near + spread]

    @staticmethod
    def check_sign(sign, gap, context) -> bool:
        """No wrong sign outside the 1e-12 band, and a decided one outside
        the 1e-6 band; True when the sign had to be decided."""
        if abs(gap) > 1e-12:
            assert sign in (0, 1 if gap > 0 else -1), context
        if abs(gap) > 1e-6:
            assert sign == (1 if gap > 0 else -1), context
            return True
        return False

    def test_sign_is_never_wrong_and_decided_away_from_one(self):
        rng = random.Random(41)
        decided = 0
        for m in POOL:
            for _ in range(3):
                omega = tuple(rng.uniform(0.3, 3.0) for _ in range(m.n))
                for beta in self.beta_grid(rng, m.rows, omega):
                    gap = np_radius(m.rows, omega, float(beta)) - 1
                    for work in self.WORKS:
                        sign, _ = perron._radius_vs_one(m, self.grid(omega, work),
                                                        beta.numerator, beta.denominator,
                                                        [1] * m.n)
                        decided += self.check_sign(sign, gap, (m, omega, beta, work))
        assert decided >= 250  # the grid reaches well past the 1e-6 band

    def test_warm_starts_are_sound(self):
        # any positive start vector gives a valid bracket: a lopsided one, and
        # the iterates that tests at another beta and on another matrix of
        # the same size return, as the bisection passes them on
        rng = random.Random(47)
        decided = 0
        for m in POOL:
            other = next(p for p in POOL if p.n == m.n and p != m)
            for _ in range(2):
                omega = tuple(rng.uniform(0.3, 3.0) for _ in range(m.n))
                other_omega = tuple(rng.uniform(0.3, 3.0) for _ in range(m.n))
                for beta in self.beta_grid(rng, m.rows, omega):
                    gap = np_radius(m.rows, omega, float(beta)) - 1
                    b = (beta.numerator, beta.denominator)
                    for work in self.WORKS:
                        grid = self.grid(omega, work)
                        elsewhere = Fraction(rng.uniform(0.05, 3.0)) * beta
                        starts = (
                            [1] * m.n,
                            [1, 2**300] + [1] * (m.n - 2),
                            perron._radius_vs_one(m, grid, elsewhere.numerator,
                                                  elsewhere.denominator, [1] * m.n)[1],
                            perron._radius_vs_one(other, self.grid(other_omega, work), *b,
                                                  [1] * m.n)[1],
                        )
                        for k, start in enumerate(starts):
                            sign, x = perron._radius_vs_one(m, grid, *b, start)
                            assert len(x) == m.n and all(v >= 1 for v in x)
                            decided += self.check_sign(sign, gap, (m, omega, beta, work, k))
        assert decided >= 4 * 150

    def test_warm_start_step_count_and_brackets(self, monkeypatch):
        # each sign test starts from the iterate of the one before; a cold
        # start from the all-ones vector takes about 550 steps per golden-mean
        # solve and 1,360 per 3-cycle solve at 1e-12.  The brackets must not move.
        steps = [0]
        loop = perron._collatz_wielandt

        def counting(*args):
            for item in loop(*args):
                steps[0] += 1
                yield item

        def solves(m):
            out = []
            for seed in range(20):
                rng = random.Random(f"warm/{m.rows}/{seed}")
                omega = tuple(rng.uniform(0.3, 3.0) for _ in range(m.n))
                steps[0] = 0
                sol = perron.solve_beta(m, omega, Fraction(1, 10**12))
                out.append(((sol.beta.lo, sol.beta.hi), steps[0]))
            return out

        monkeypatch.setattr(perron, "_collatz_wielandt", counting)
        for m in (GOLDEN, CYCLE3):
            warm = solves(m)
            assert max(n for _, n in warm) <= 150, [n for _, n in warm]
            sign_test = perron._radius_vs_one
            with monkeypatch.context() as cold:
                cold.setattr(perron, "_radius_vs_one",
                             lambda mat, g, num, den, x: sign_test(mat, g, num, den,
                                                                   [1] * mat.n))
                assert [b for b, _ in solves(m)] == [b for b, _ in warm]

    def test_tiny_entries_round_to_a_zero_lower_bound(self):
        # e^{-60 * 2} is far below the 2^-96 grid step: its lower bound
        # rounds to 0, which still bounds the radius from below
        omega = (1.0, 60.0)
        assert np_radius(GOLDEN.rows, omega, 2.0) < 1
        sign, _ = perron._radius_vs_one(GOLDEN, self.grid(omega, Q(1, 10**15)),
                                        2, 1, [1, 1])
        assert sign == -1

    def test_radius_exactly_one_is_undecided(self):
        # at beta = 0 the swap matrix has radius exactly 1: the bracket
        # collapses onto 2 and the sign test must not pick a side
        swap = ZeroOneMatrix(((0, 1), (1, 0)))
        sign, _ = perron._radius_vs_one(swap, self.grid((1.0, 2.5), Q(1, 10**15)),
                                        0, 1, [1, 1])
        assert sign == 0

    def test_sign_tests_form_no_interval_product(self, monkeypatch):
        # the entry bounds come from exp_neg_grid on integer numerators and
        # denominators, so no sign test forms beta * omega_i as an Interval
        calls = []
        inner = Interval.__mul__

        def counting(self, other):
            calls.append(other)
            return inner(self, other)

        monkeypatch.setattr(Interval, "__mul__", counting)
        monkeypatch.setattr(Interval, "__rmul__", counting)
        for matrix, omega in ((GOLDEN, (1.3, 0.7)), (CYCLE3, (1.3, 0.7, 2.1))):
            assert perron.solve_beta(matrix, omega).mode == "heuristic"
        assert calls == []


def fraction_bisection(matrix, omega, precision) -> tuple:
    """The bracket (lo, hi) of the float solve by the bisection that held
    beta as a Fraction: the reference for the integer-endpoint one, on the
    same sign test."""
    entries = perron.FrequencyVector(tuple(omega)).entries
    work = max(precision / 64, Q(1, 10**15))
    grid = perron._frequency_grid(entries, work)

    def sign_test(beta, x):
        return perron._radius_vs_one(matrix, grid, beta.numerator, beta.denominator, x)

    hi = Q(1)
    sign, x = sign_test(hi, [1] * matrix.n)
    while sign >= 0:
        hi *= 2
        sign, x = sign_test(hi, x)
    lo = Q(0)
    while hi - lo > precision:
        mid = (lo + hi) / 2
        sign, x = sign_test(mid, x)
        if sign == 0:
            work /= 16
            grid = perron._frequency_grid(entries, work)
            continue
        if sign > 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


class TestBisection:
    """The float solve's bisection on integer endpoints [lo, hi] / 2^e."""

    @pytest.mark.parametrize("digits", [6, 9, 12])
    @pytest.mark.parametrize("name", ["GOLDEN", "CYCLE3", "FULL2"])
    def test_matches_the_fraction_bisection(self, name, digits):
        matrix = {"GOLDEN": GOLDEN, "FULL2": FULL2, "CYCLE3": CYCLE3}[name]
        precision = Fraction(1, 10**digits)
        for seed in range(5):
            rng = random.Random(f"bisect/{name}/{digits}/{seed}")
            omega = tuple(rng.uniform(0.3, 3.0) for _ in range(matrix.n))
            beta = perron.solve_beta(matrix, omega, precision).beta
            assert (beta.lo, beta.hi) == fraction_bisection(matrix, omega, precision)
            assert beta.width <= precision

    @pytest.mark.parametrize("step", [0, 3, 12])
    def test_undecided_sign_retries_at_the_same_beta(self, monkeypatch, step):
        # the sign test at bisection step `step` returns 0 once: the retry
        # takes the same beta on a grid 16 times finer, and the bracket is
        # the one the undisturbed solve gives
        omega, precision = (1.3, 0.7, 2.1), Fraction(1, 10**9)
        want = perron.solve_beta(CYCLE3, omega, precision).beta
        inner_test, inner_grid = perron._radius_vs_one, perron._frequency_grid
        bisection, works = [], []

        def undecided_once(matrix, grid, num, den, x):
            if den > 1:  # the doubling phase tests integers over 1
                bisection.append((num, den))
                if len(bisection) == step + 1:
                    return 0, x
            return inner_test(matrix, grid, num, den, x)

        def recording_grid(entries, work):
            works.append(work)
            return inner_grid(entries, work)

        monkeypatch.setattr(perron, "_radius_vs_one", undecided_once)
        monkeypatch.setattr(perron, "_frequency_grid", recording_grid)
        assert perron.solve_beta(CYCLE3, omega, precision).beta == want
        assert works == [precision / 64, precision / 64 / 16]
        assert bisection[step] == bisection[step + 1]
        assert len(set(bisection)) == len(bisection) - 1

    def test_no_bracket_when_the_radius_never_drops_below_one(self, monkeypatch):
        betas = []

        def always_above(matrix, grid, num, den, x):
            betas.append(Fraction(num, den))
            return 1, x

        monkeypatch.setattr(perron, "_radius_vs_one", always_above)
        with pytest.raises(NumericalFailureError,
                           match="no bracket for the inverse temperature"):
            perron.solve_beta(GOLDEN, (1.3, 0.7))
        assert betas == [Fraction(2**k) for k in range(81)]

    def test_fraction_arithmetic_does_not_grow_with_the_steps(self, monkeypatch):
        # the bisection runs on integers: going from 1e-6 to 1e-12 adds 20
        # sign tests and no Fraction operation
        ops, tests = [0], [0]
        inner_test = perron._radius_vs_one

        def counting_test(*args):
            tests[0] += 1
            return inner_test(*args)

        def counting(name):
            inner = getattr(Fraction, name)

            def method(*args):
                ops[0] += 1
                return inner(*args)
            return method

        def solve(matrix, omega, digits):
            ops[0] = tests[0] = 0
            with monkeypatch.context() as patched:
                for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                             "__rmul__", "__truediv__", "__rtruediv__", "__floordiv__",
                             "__lt__", "__le__", "__gt__", "__ge__"):
                    patched.setattr(Fraction, name, counting(name))
                perron.solve_beta(matrix, omega, Fraction(1, 10**digits))
            return ops[0], tests[0]

        monkeypatch.setattr(perron, "_radius_vs_one", counting_test)
        for matrix, omega in ((GOLDEN, (1.3, 0.7)), (CYCLE3, (1.3, 0.7, 2.1))):
            (coarse_ops, coarse_tests), (fine_ops, fine_tests) = (
                solve(matrix, omega, 6), solve(matrix, omega, 12))
            assert fine_tests >= coarse_tests + 19
            assert fine_ops == coarse_ops


class TestCollatzWielandt:
    """The integer loop that pf_data and the bisection's sign test share."""

    BITS = 104

    def bounds(self, matrix):
        one = 1 << self.BITS
        return perron._shifted_bounds(matrix, [(one, one)] * matrix.n, self.BITS)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_uniform_start_is_exact_on_full_matrices(self, n):
        lo, hi, mid = self.bounds(ZeroOneMatrix.full(n))
        loop = perron._collatz_wielandt(lo, hi, mid, [1] * n, self.BITS)
        b_lo, b_hi, x, stall = next(loop)
        assert b_lo == b_hi == (n + 1) << self.BITS
        assert x == [1] * n and stall == 0

    @pytest.mark.parametrize("matrix", [GOLDEN, CYCLE3, kronecker_matrix(FULL2, GOLDEN)])
    def test_brackets_are_nested_and_contain_the_radius(self, matrix):
        rng = random.Random(f"cw/{matrix.rows}")
        lo, hi, mid = self.bounds(matrix)
        radius = np_perron(matrix.rows)[0] + 1  # of M + I
        one = 1 << self.BITS
        for _ in range(3):
            x = [rng.randint(1, 10**6) for _ in range(matrix.n)]
            loop = perron._collatz_wielandt(lo, hi, mid, x, self.BITS)
            previous = (0, math.inf)
            for _, (b_lo, b_hi, _, _) in zip(range(40), loop):
                assert b_lo / one - 1e-12 <= radius <= b_hi / one + 1e-12
                assert previous[0] <= b_lo <= b_hi <= previous[1]
                previous = (b_lo, b_hi)

    def test_sign_test_agrees_with_pf_data(self):
        # the same loop decides both: _radius_vs_one on exp_neg_grid bounds,
        # pf_data on exp_interval enclosures of the same e^{-beta omega_i}
        rng = random.Random(43)
        compared = 0
        for m in POOL:
            for _ in range(2):
                omega = tuple(rng.uniform(0.3, 3.0) for _ in range(m.n))
                grid = TestRadiusVsOne.grid(omega, Q(1, 10**15))
                for beta in TestRadiusVsOne.beta_grid(rng, m.rows, omega):
                    if abs(np_radius(m.rows, omega, float(beta)) - 1) <= 1e-6:
                        continue
                    a = [Enc(exp_interval(Interval.point(-beta * Fraction(w))))
                         for w in omega]
                    bracket = perron.pf_data(m, a, Q(1, 10**9)).eigenvalue
                    assert bracket.lo > 1 or bracket.hi < 1
                    sign, _ = perron._radius_vs_one(m, grid, beta.numerator,
                                                    beta.denominator, [1] * m.n)
                    assert sign == (1 if bracket.lo > 1 else -1), (m, omega, beta)
                    compared += 1
        assert compared >= 80


class TestPowerEquation:
    def test_pair_one_one(self):
        s = perron.solve_power_equation((1, 1))
        assert isinstance(s, Rat) and s.value == Q(1, 2)

    def test_pair_one_two_golden(self):
        s = perron.solve_power_equation((1, 2))
        assert abs(scalars.to_float(s) - (math.sqrt(5) - 1) / 2) < 1e-12

    def test_pair_five_eleven(self):
        # independent bisection on t^5 + t^11 = 1
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = (lo + hi) / 2
            if mid**5 + mid**11 <= 1:
                lo = mid
            else:
                hi = mid
        s = perron.solve_power_equation((5, 11))
        assert abs(scalars.to_float(s) - lo) < 1e-12
        assert abs(lo - 0.9127694673795899) < 1e-12
