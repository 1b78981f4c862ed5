"""The four seeded workloads.

Each workload builds one round of inputs from `(seed, round index)` with
its own `random.Random`, runs the round through a `Clock` (which times every
call into ckkms), and turns each job's output into a small record of plain
Python numbers.  The records are checked after the timed phase by
`oracle.py`, so the checks neither run inside timed calls nor keep program
objects alive.  Every round of a workload holds the same number of jobs of
each kind, so the job mix does not depend on the seed or on how many rounds
a run completes.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd

POOL = (
    ((1, 1), (1, 1)),                    # F2, the full 2x2 matrix
    ((1, 1, 1), (1, 1, 1), (1, 1, 1)),   # F3
    ((1, 1), (1, 0)),                    # golden-mean shift
    ((1, 1, 0), (0, 1, 1), (1, 0, 1)),   # 3-cycle with loops
)
# rational frequencies m_i: the seed permutes these exponent patterns, which
# keeps the degree of every determinant polynomial (and so the cost) fixed
PATTERN = {2: (1, 2), 3: (1, 1, 2)}


class Failed:
    """Marker for a timed call that raised."""


FAILED = Failed()


# ---------------------------------------------------------------------------
# benchmark-side combinatorics (independent of ckwords)


def kron_rows(a, b) -> tuple:
    m = len(b)
    return tuple(tuple(a[i][k] * b[j][l] for k in range(len(a)) for l in range(m))
                 for i in range(len(a)) for j in range(m))


def admissible_words(rows, max_len: int) -> list:
    """Words over 1..n whose consecutive letters are allowed by `rows`,
    shortest first, the empty word included."""
    n = len(rows)
    out, frontier = [()], [()]
    for _ in range(max_len):
        frontier = [w + (j,) for w in frontier for j in range(1, n + 1)
                    if not w or rows[w[-1] - 1][j - 1]]
        out += frontier
    return out


def nonzero_monomial(rows, J, K) -> bool:
    """s_J s_K* != 0 for admissible J, K: some letter may follow both."""
    if not J and not K:
        return True
    return any((not J or rows[J[-1] - 1][r]) and (not K or rows[K[-1] - 1][r])
               for r in range(len(rows)))


def monomials(rows, side_len=None, total_len=None) -> list:
    """Nonzero (J, K) with both sides of length <= side_len, or with
    |J| + |K| <= total_len."""
    words = admissible_words(rows, side_len if side_len is not None else total_len)
    return [(J, K) for J in words for K in words
            if (total_len is None or len(J) + len(K) <= total_len)
            and nonzero_monomial(rows, J, K)]


def diagonal_count(rows, max_len: int) -> int:
    """Admissible words J, |J| <= max_len, for which s_J s_J* != 0."""
    return sum(1 for J in admissible_words(rows, max_len)
               if nonzero_monomial(rows, J, J))


def seeded_omega(rng: random.Random, n: int) -> tuple:
    pattern = list(PATTERN[n])
    rng.shuffle(pattern)
    return tuple(pattern)


# ---------------------------------------------------------------------------
# compact records of program scalars


def describe(s):
    """A program scalar as plain data: ("q", value) for exact rationals,
    ("e", lo, hi) for enclosures, ("f", value) for floats, and
    ("p", rational, ((poly, lo, hi, exponent), ...)) for products of
    algebraic powers.  Dispatch is on the class name so that records from
    any import of ckkms compare alike."""
    kind = type(s).__name__
    if kind == "Rat":
        return ("q", s.value)
    if kind == "Enc":
        return ("e", s.interval.lo, s.interval.hi)
    if kind == "Flt":
        return ("f", s.value)
    if kind == "Alg":
        return ("p", Fraction(1), ((s.poly, s.lo, s.hi, 1),))
    if kind == "Power":
        b = s.base
        return ("p", Fraction(1), ((b.poly, b.lo, b.hi, s.exp),))
    if kind == "Product":
        return ("p", s.rational, tuple((b.poly, b.lo, b.hi, e) for b, e in s.factors))
    raise TypeError(f"unexpected scalar {s!r}")


# ---------------------------------------------------------------------------
# kms-check


class KmsCheck:
    """kms_check(spec, omega, beta, x, x*) on the factor state of every pool
    matrix at its own beta (exact gauge path) and on the Kronecker state of
    every ordered pool pair under combined frequencies at beta = 1
    (enclosure path).  Each state is built inside the timed phase, then a
    third of its nonzero monomials (seeded sample) are checked."""

    name = "kms-check"

    def make_round(self, ck, seed: int, index: int) -> dict:
        rng = random.Random(f"{self.name}/{seed}/{index}")
        Z = ck.matrix01.ZeroOneMatrix
        Mono = ck.ckwords.Monomial
        omegas = [seeded_omega(rng, len(rows)) for rows in POOL]

        def sample(rows, **bounds):
            pop = monomials(rows, **bounds)
            return [(J, K, Mono(J, K), Mono(K, J))
                    for J, K in rng.sample(pop, (len(pop) + 2) // 3)]

        factors = [(rows, Z(rows), tuple(Fraction(w) for w in om),
                    sample(rows, side_len=2))
                   for rows, om in zip(POOL, omegas)]
        pairs = [(ia, ib, Z(kron_rows(POOL[ia], POOL[ib])),
                  ck.tensorops.IndexSplit(len(POOL[ia]), len(POOL[ib])),
                  sample(kron_rows(POOL[ia], POOL[ib]), total_len=2))
                 for ia, ib in itertools.product(range(len(POOL)), repeat=2)]
        return {"omegas": omegas, "factors": factors, "pairs": pairs,
                "one": ck.scalars.ONE}

    def run_round(self, ck, inputs, clock) -> list:
        records = []
        sols = []
        for idx, (rows, matrix, omega, checks) in enumerate(inputs["factors"]):
            state = clock.build(self._factor_state, ck, matrix, omega)
            sols.append(state)
            key = ("factor", rows, inputs["omegas"][idx])
            records += self._checks(ck, clock, key, state, omega, checks,
                                    None if state is FAILED else state[1])
        for ia, ib, composite, split, checks in inputs["pairs"]:
            key = ("pair", POOL[ia], inputs["omegas"][ia], POOL[ib],
                   inputs["omegas"][ib])
            if sols[ia] is FAILED or sols[ib] is FAILED:
                state = FAILED
            else:
                state = clock.build(self._pair_state, ck, composite, split,
                                    inputs["factors"][ia][2], sols[ia][1],
                                    inputs["factors"][ib][2], sols[ib][1])
            omega = None if state is FAILED else state[1]
            records += self._checks(ck, clock, key, state, omega, checks,
                                    inputs["one"])
        return records

    @staticmethod
    def _factor_state(ck, matrix, omega):
        sol = ck.perron.solve_beta(matrix, omega)
        return ck.states.state_spec(sol.param), sol

    @staticmethod
    def _pair_state(ck, composite, split, om_a, sol_a, om_b, sol_b):
        ab = ck.tensorops.kronecker_vector(sol_a.param.entries, sol_b.param.entries)
        spec = ck.states.state_spec(ck.perron.in_lambda(composite, ab))
        omega = ck.tensorops.combined_frequencies(split, om_a, sol_a, om_b, sol_b)
        return spec, omega

    @staticmethod
    def _checks(ck, clock, key, state, omega, checks, beta) -> list:
        if state is FAILED:
            return [None] * len(checks)
        spec = state[0]
        out = []
        for J, K, x, x_star in checks:
            res = clock.job(ck.states.kms_check, spec, omega, beta, x, x_star)
            if res is FAILED:
                out.append(None)
                continue
            out.append((key, J, K, describe(res.lhs), describe(res.rhs),
                        float(res.residual), res.ok))
        return out


# ---------------------------------------------------------------------------
# tensor-verify


class TensorVerify:
    """Per ordered pool pair: two exact beta solutions from seeded rational
    frequencies, their states, and verify_tensor_identity at max_len = 3."""

    name = "tensor-verify"
    max_len = 3

    def make_round(self, ck, seed: int, index: int) -> list:
        rng = random.Random(f"{self.name}/{seed}/{index}")
        Z = ck.matrix01.ZeroOneMatrix
        jobs = []
        for ia, ib in itertools.product(range(len(POOL)), repeat=2):
            om_a = seeded_omega(rng, len(POOL[ia]))
            om_b = seeded_omega(rng, len(POOL[ib]))
            jobs.append((POOL[ia], om_a, POOL[ib], om_b,
                         Z(POOL[ia]), tuple(Fraction(w) for w in om_a),
                         Z(POOL[ib]), tuple(Fraction(w) for w in om_b)))
        return jobs

    def prepare(self, ck) -> None:
        """Keep the composite state that verify_tensor_identity builds, so
        that its eigenvector enclosure can be checked."""
        inner = ck.tensorops.state_spec
        self.captured = None

        def capturing(*args, **kwargs):
            self.captured = inner(*args, **kwargs)
            return self.captured

        ck.tensorops.state_spec = capturing

    def run_round(self, ck, inputs, clock) -> list:
        records = []
        for rows_a, om_a, rows_b, om_b, mat_a, q_a, mat_b, q_b in inputs:
            self.captured = None
            report = clock.job(self._job, ck, mat_a, q_a, mat_b, q_b)
            if report is FAILED or self.captured is None:
                records.append(None)
                continue
            enclosure = tuple((iv.lo, iv.hi) for iv in self.captured.eigenvector)
            records.append(((rows_a, om_a, rows_b, om_b), report.passed,
                            float(report.max_residual), report.diagonal_count,
                            enclosure))
        return records

    def _job(self, ck, mat_a, om_a, mat_b, om_b):
        sol_a = ck.perron.solve_beta(mat_a, om_a)
        sol_b = ck.perron.solve_beta(mat_b, om_b)
        return ck.tensorops.verify_tensor_identity(
            ck.states.state_spec(sol_a.param), ck.states.state_spec(sol_b.param),
            max_len=self.max_len)


# ---------------------------------------------------------------------------
# beta-float


class BetaFloat:
    """solve_beta on seeded float frequencies over the golden-mean matrix,
    the certified bisection path, at precision 1e-6.  A solve takes about
    0.2 s there, so a run holds some ninety of them.  At 1e-9 (0.4 s) a run
    held about 39 and its median moved by 9.5% from seed to seed; at the
    default 1e-12 a solve takes 1-2 s on a 2x2 and 6-10 s on a 3x3 matrix."""

    name = "beta-float"
    rows = POOL[2]
    precision = Fraction(1, 10**6)

    def make_round(self, ck, seed: int, index: int) -> tuple:
        rng = random.Random(f"{self.name}/{seed}/{index}")
        return (ck.matrix01.ZeroOneMatrix(self.rows),
                tuple(rng.uniform(0.5, 2.0) for _ in self.rows))

    def run_round(self, ck, inputs, clock) -> list:
        matrix, omega = inputs
        sol = clock.job(ck.perron.solve_beta, matrix, omega, precision=self.precision)
        if sol is FAILED:
            return [None]
        return [(self.rows, omega, sol.beta.lo, sol.beta.hi, sol.mode)]


# ---------------------------------------------------------------------------
# type-labels


def _coprime_pair(rng, top: int) -> tuple:
    while True:
        p, q = rng.randint(1, top), rng.randint(1, top)
        if p != q and gcd(p, q) == 1:
            return p, q


class TypeLabels:
    """classify calls on exact inputs: rational vectors, power forms over
    bases from solve_power_equation, and vectors of explicit algebraic
    powers.  Per round: 8 detect_lambda and 4 tensor_type on rationals,
    4 afd_tensor_rule, 4 detect_lambda, 4 tensor_type and 4
    power_type_direct on power forms, and power_type_direct on explicit
    entries at k = 4, 5 and 6."""

    name = "type-labels"
    base_patterns = ((1, 2), (1, 3), (2, 3))  # x^p + x^q = 1, irrational root

    def make_round(self, ck, seed: int, index: int) -> list:
        rng = random.Random(f"{self.name}/{seed}/{index}")
        Rat, PowerForm = ck.scalars.Rat, ck.classify.PowerForm
        bases = {}

        def base():
            pattern = rng.choice(self.base_patterns)
            if pattern not in bases:
                bases[pattern] = ck.perron.solve_power_equation(pattern)
            return bases[pattern]

        def rational_vector():
            n = rng.randint(2, 4)
            if rng.random() < 0.5:
                den = rng.randint(2, 7)
                tau = Fraction(rng.randint(1, den - 1), den)
                return tuple(tau ** rng.randint(1, 4) for _ in range(n))
            return tuple(Fraction(rng.randint(1, 9), rng.randint(10, 24))
                         for _ in range(n))

        def exponents(n):
            g = rng.randint(1, 3)
            return tuple(g * rng.randint(1, 4) for _ in range(n))

        jobs = []
        for _ in range(8):
            vec = rational_vector()
            jobs.append(("rational", vec, None, "detect_lambda",
                         (tuple(Rat(v) for v in vec),)))
        for _ in range(4):
            a, b = rational_vector(), rational_vector()
            jobs.append(("rational-tensor", (a, b), None, "tensor_type",
                         (tuple(Rat(v) for v in a), tuple(Rat(v) for v in b))))
        for _ in range(4):
            den = rng.randint(3, 30)
            tau = Fraction(rng.randint(1, den - 1), den)
            p, q = _coprime_pair(rng, 5)
            jobs.append(("afd", (tau, p, q), None, "afd_tensor_rule",
                         (Rat(tau ** p), Rat(tau ** q))))
        for _ in range(4):
            b, e = base(), exponents(rng.randint(2, 4))
            jobs.append(("power", e, b, "detect_lambda", (PowerForm(b, e),)))
        for _ in range(4):
            b, e1, e2 = base(), exponents(2), exponents(rng.randint(2, 3))
            jobs.append(("power-tensor", (e1, e2), b, "tensor_type",
                         (PowerForm(b, e1), PowerForm(b, e2))))
        for _ in range(4):
            b, (p, q), k = base(), _coprime_pair(rng, 6), rng.randint(2, 8)
            jobs.append(("power-k", (p, q, k), b, "power_type_direct",
                         (PowerForm(b, (p, q)), k)))
        for k in (4, 5, 6):
            b, (p, q) = base(), _coprime_pair(rng, 4)
            entries = (ck.scalars.make_power(b, p), ck.scalars.make_power(b, q))
            jobs.append(("explicit", (p, q, k), b, "power_type_direct", (entries, k)))
        return [(kind, data, None if b is None else describe(b), fn, args)
                for kind, data, b, fn, args in jobs]

    def run_round(self, ck, inputs, clock) -> list:
        records = []
        for kind, data, base, fn, args in inputs:
            out = clock.job(getattr(ck.classify, fn), *args)
            if out is FAILED:
                records.append(None)
            elif kind == "afd":
                records.append((kind, data, base, describe(out), None))
            else:
                exps = None if out.decomposition is None else \
                    tuple(out.decomposition.exponents)
                records.append((kind, data, base, describe(out.lam), exps))
        return records


WORKLOADS = {w.name: w for w in (KmsCheck, TensorVerify, BetaFloat, TypeLabels)}
