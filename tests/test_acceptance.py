"""Acceptance gate: twelve timed end-to-end checks, one pass/fail line each.

Every check asserts its stated numeric tolerance and a wall-clock budget
(measured with time.monotonic).  Checks marked exact use rational or
algebraic arithmetic with zero tolerance; enclosure-based checks state
their bound explicitly.
"""

import itertools
import math
import random

from ckkms import ckwords, classify, paper, perron, scalars, states, tensorops
from ckkms.ckwords import Letter, Monomial
from ckkms.classify import PowerForm
from ckkms.errors import MembershipRejected
from ckkms.matrix01 import ZeroOneMatrix, kronecker_matrix
from ckkms.scalars import Q, Rat
from ckkms.tensorops import IndexSplit

from conftest import FULL2, FULL3, POOL, budget, to_fraction

TOL9 = Q(1, 10**9)
TOL10 = Q(1, 10**10)


def run_check(check_id):
    """(passed, detail) of one paper check at the default precision and
    tolerance."""
    return dict(paper.CHECKS)[check_id](perron.DEFAULT_PRECISION,
                                        perron.DEFAULT_TOLERANCE)


def golden_base():
    """Root of x^2 + x - 1 in (0,1), i.e. (sqrt(5)-1)/2."""
    return scalars.make_algebraic([-1, 1, 1], 0, 1)


def uniform_vector(n):
    return tuple(Q(1, n) for _ in range(n))


def ones(n):
    return tuple(Q(1) for _ in range(n))


def admissible_monomials(matrix, side_len=None, total_len=None):
    """Nonzero monomials s_J s_K* with per-side or combined length bounds."""
    word_len = side_len if side_len is not None else total_len
    words = ckwords.enumerate_admissible(matrix, word_len)
    out = []
    for J in words:
        for K in words:
            if total_len is not None and len(J) + len(K) > total_len:
                continue
            mono = Monomial(tuple(J), tuple(K))
            if not ckwords.monomial_is_zero(matrix, mono):
                out.append(mono)
    return out


def random_word(rng, n, max_len):
    length = rng.randint(0, max_len)
    return tuple(Letter(rng.randint(1, n), rng.random() < 0.5)
                 for _ in range(length))


def random_nondegenerate(rng, n):
    while True:
        rows = tuple(tuple(rng.randint(0, 1) for _ in range(n))
                     for _ in range(n))
        if all(any(r) for r in rows) and all(any(col) for col in zip(*rows)):
            return ZeroOneMatrix(rows)


def test_a01_label_examples_exact():
    """Labels of the three reference vectors and two tensor products; exact,
    zero tolerance, < 1 s."""
    with budget(1.0):
        g = golden_base()
        b = (Q(1, 2), Q(1, 2))

        # the labels of (1/3, 2/3) and of b, and of their tensor product,
        # are the registry's checks of the same inputs
        assert run_check("label-rational-pair-a")[0]  # 1, exact

        passed, detail = run_check("label-rational-pair-b")  # 1/2
        assert passed
        assert detail["label"].mode == "exact"

        lc = classify.detect_lambda(PowerForm(g, (1, 2)))
        assert lc.mode == "exact"
        assert scalars.same_value(lc.lam, g)

        assert run_check("label-tensor-ab")[0]  # 1, exact

        lbc = classify.tensor_type(b, (g, scalars.mul(g, g)))
        assert lbc.is_one and lbc.mode == "exact"


def test_a02_uniform_tensor_type_is_product_of_dimensions():
    """tensor_type of the uniform vectors in dimensions n, m equals 1/(nm)
    exactly for n, m in {2,3,4}; < 1 s."""
    with budget(1.0):
        for n, m in itertools.product((2, 3, 4), repeat=2):
            label = classify.tensor_type(uniform_vector(n), uniform_vector(m))
            assert isinstance(label.lam, Rat) and label.lam.value == Q(1, n * m)
            assert label.mode == "exact"


def test_a03_power_rule_matches_direct_computation():
    """The closed-form tensor-power exponent rule agrees with the direct
    lattice computation, symbolically, for four bases and k = 1..12; the
    mod-6 exponent table follows gcd(6, k) with the rows where a published
    listing differs (k congruent to 4 mod 6) flagged in the reproduction
    report; < 5 s."""
    with budget(5.0):
        for p, q in ((1, 1), (1, 2), (1, 3), (5, 11)):
            base = perron.solve_power_equation((p, q))
            form = PowerForm(base, (p, q))
            for k in range(1, 13):
                r = classify.power_type_ck2(p, q, k)
                label = classify.power_type_direct(form, k)
                assert scalars.same_value(
                    label.lam, scalars.make_power(base, r)), (p, q, k, r)

        table = {k: classify.power_type_ck2(5, 11, k) for k in range(1, 13)}
        assert table == {k: math.gcd(6, k) for k in range(1, 13)}
        assert table[4] == table[10] == 2

        passed, detail = run_check("power-mod6-table")
        assert passed
        assert any("4" in flag for flag in detail["flags"])


def test_a04_tensor_homomorphism_residuals():
    """verify_tensor_identity at max word length 3 over all 16 ordered pool
    pairs, parameters from solve_beta on 3 random rational frequency vectors
    per matrix (48 runs); max residual <= 1e-9; < 60 s."""
    with budget(60.0):
        rng = random.Random(41)
        omegas = [[tuple(Q(rng.randint(1, 4), rng.randint(1, 3))
                         for _ in range(matrix.n)) for _ in range(3)]
                  for matrix in POOL]
        worst = Q(0)
        runs = 0
        for ia, ib in itertools.product(range(len(POOL)), repeat=2):
            for t in range(3):
                sol_a = perron.solve_beta(POOL[ia], omegas[ia][t])
                sol_b = perron.solve_beta(POOL[ib], omegas[ib][t])
                report = tensorops.verify_tensor_identity(
                    states.state_spec(sol_a.param),
                    states.state_spec(sol_b.param), max_len=3)
                assert report.passed, (POOL[ia].rows, POOL[ib].rows, t)
                worst = max(worst, report.max_residual)
                runs += 1
        assert runs == 48
        assert worst <= TOL9, float(worst)


def test_a05_kms_condition_on_pool_and_transported_states(exp_calls):
    """kms_check residual <= 1e-9 (i) per pool matrix at the unit frequency
    vector for every nonzero monomial with both sides of length <= 2, against
    its adjoint, and (ii) for the Kronecker-product state of every ordered
    pool pair under combined frequencies at inverse temperature 1, for every
    nonzero composite monomial of combined length <= 2, whose precondition
    and gauge factors are exact and take no exp enclosure; < 30 s."""
    with budget(30.0):
        checked = 0
        for matrix in POOL:
            omega = ones(matrix.n)
            sol = perron.solve_beta(matrix, omega)
            spec = states.state_spec(sol.param)
            for mono in admissible_monomials(matrix, side_len=2):
                res = states.kms_check(spec, omega, sol, mono,
                                       mono.adjoint(), tolerance=TOL9)
                assert res.ok, (matrix.rows, mono, float(res.residual))
                checked += 1
        assert checked >= 300

        transported = 0
        for a_mat, b_mat in itertools.product(POOL, repeat=2):
            om_a, om_b = ones(a_mat.n), ones(b_mat.n)
            sol_a = perron.solve_beta(a_mat, om_a)
            sol_b = perron.solve_beta(b_mat, om_b)
            split = IndexSplit(a_mat.n, b_mat.n)
            composite = kronecker_matrix(a_mat, b_mat)
            ab = tensorops.kronecker_vector(sol_a.param.entries,
                                            sol_b.param.entries)
            spec = states.state_spec(perron.in_lambda(composite, ab))
            omega = tensorops.combined_frequencies(split, om_a, sol_a,
                                                   om_b, sol_b)
            for mono in admissible_monomials(composite, total_len=2):
                res = states.kms_check(spec, omega, Rat(Q(1)), mono,
                                       mono.adjoint(), tolerance=TOL9)
                assert res.ok, (a_mat.rows, b_mat.rows, mono,
                                float(res.residual))
                transported += 1
        assert transported >= 1500
        assert exp_calls == []


def test_a06_full_matrix_membership_iff_unit_sum():
    """For 100 random positive rational vectors per n in {2..5}, membership
    over the full matrix holds iff the entries sum to 1 (enclosure tolerance
    1e-9); < 10 s."""
    with budget(10.0):
        rng = random.Random(61)
        for n in range(2, 6):
            matrix = ZeroOneMatrix.full(n)
            for _ in range(100):
                entries = [Q(rng.randint(1, 9), rng.randint(10, 24))
                           for _ in range(n)]
                if rng.random() < 0.5:
                    total = sum(entries)
                    entries = [e / total for e in entries]
                total = sum(entries)
                try:
                    perron.in_lambda(matrix,
                                     tuple(Rat(e) for e in entries),
                                     tolerance=TOL9)
                    accepted = True
                except MembershipRejected:
                    accepted = False
                assert accepted == (total == 1), (entries, total)


def test_a07_eigenvalue_multiplicativity_over_pool():
    """|PFE(A (x) B) - PFE(A) PFE(B)| <= 1e-10 for all 16 ordered pool
    pairs; < 5 s."""
    with budget(5.0):
        for a_mat, b_mat in itertools.product(POOL, repeat=2):
            comp = perron.pf_data(kronecker_matrix(a_mat, b_mat)).eigenvalue
            ea = perron.pf_data(a_mat).eigenvalue
            eb = perron.pf_data(b_mat).eigenvalue
            assert abs(comp.mid - ea.mid * eb.mid) <= TOL10, (
                a_mat.rows, b_mat.rows)


def test_a08_rewrite_confluence_and_termination():
    """Leftmost and rightmost normalization agree on 1000 random words
    (length <= 6, alphabet size <= 3) and every traced rewrite step lowers
    the termination measure by exactly 1; < 10 s."""
    with budget(10.0):
        rng = random.Random(81)
        traced = 0
        for trial in range(1000):
            n = rng.randint(2, 3)
            matrix = random_nondegenerate(rng, n)
            word = random_word(rng, n, 6)
            left = ckwords.normalize(matrix, word, strategy="leftmost")
            right = ckwords.normalize(matrix, word, strategy="rightmost")
            assert left == right, f"trial {trial}: {ckwords.format_word(word)}"
            for parent, child in ckwords.rewrite_trace(matrix, word):
                assert child == parent - 1
                traced += 1
        assert traced > 300


def test_a09_coassociativity_of_index_splitting():
    """check_coassociativity holds for every dimension triple in {2,3}^3;
    < 1 s."""
    with budget(1.0):
        for triple in itertools.product((2, 3), repeat=3):
            assert tensorops.check_coassociativity(*triple), triple


def test_a10_quasi_free_product_law():
    """The tensor product of the uniform states in dimensions 2 and 3 equals
    the uniform state in dimension 6, exactly, on all 67081 monomials with
    both sides of length <= 3; < 5 s."""
    with budget(5.0):
        full6 = ZeroOneMatrix.full(6)
        spec2 = states.state_spec(
            perron.in_lambda(FULL2, tuple(Rat(e) for e in uniform_vector(2))))
        spec3 = states.state_spec(
            perron.in_lambda(FULL3, tuple(Rat(e) for e in uniform_vector(3))))
        words = ckwords.enumerate_admissible(full6, 3)
        pairs = 0
        for J in words:
            for K in words:
                got = tensorops.tensor_state_eval(
                    spec2, spec3, Monomial(tuple(J), tuple(K)))
                want = states.quasi_free_eval(6, tuple(J), tuple(K))
                assert to_fraction(got) == to_fraction(want), (
                    J, K)
                pairs += 1
        assert pairs == 259 ** 2


def test_a11_type_one_families_and_tensor_powers():
    """The odd-denominator family vectors have label 1 exactly for n in
    {2..6}, as do all 25 of their pairwise tensor products; every label-1
    vector in play keeps label 1 under tensor powers up to k = 4; < 10 s."""
    with budget(10.0):
        families = {n: classify.iii1_family(n) for n in range(2, 7)}
        for family in families.values():
            label = classify.detect_lambda(family)
            assert label.is_one and label.mode == "exact"
        for n, m in itertools.product(range(2, 7), repeat=2):
            label = classify.tensor_type(families[n], families[m])
            assert label.is_one and label.mode == "exact", (n, m)
        one_vectors = list(families.values()) + [(Q(1, 3), Q(2, 3))]
        for vec in one_vectors:
            for k in range(1, 5):
                label = classify.power_type_direct(vec, k)
                assert label.is_one and label.mode == "exact", (vec, k)


def test_a12_finite_approximation_tensor_rule():
    """The tensor rule returns tau on (tau^2, tau^3) for 20 random rational
    tau in (0,1), and 1 on (1/2, 1/3) and on (lambda, 1); exact; < 1 s."""
    with budget(1.0):
        rng = random.Random(121)
        for _ in range(20):
            den = rng.randint(3, 30)
            tau = Q(rng.randint(1, den - 1), den)
            got = classify.afd_tensor_rule(Rat(tau * tau), Rat(tau ** 3))
            assert to_fraction(got) == tau, tau
        assert classify.afd_tensor_rule(Rat(Q(1, 2)),
                                        Rat(Q(1, 3))) == scalars.ONE
        for lam in (Q(1, 2), Q(3, 7)):
            assert classify.afd_tensor_rule(Rat(lam), Rat(Q(1))) == scalars.ONE
            assert classify.afd_tensor_rule(Rat(Q(1)), Rat(lam)) == scalars.ONE
