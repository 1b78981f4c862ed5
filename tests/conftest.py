"""Shared fixtures: the matrix pool and seeded rational generators."""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from ckkms import perron, scalars, states, tensorops
from ckkms.intervals import Interval
from ckkms.matrix01 import (ZeroOneMatrix, is_irreducible, is_nondegenerate,
                            kronecker_matrix)

FULL2 = ZeroOneMatrix.full(2)
FULL3 = ZeroOneMatrix.full(3)
GOLDEN = ZeroOneMatrix(((1, 1), (1, 0)))
CYCLE3 = ZeroOneMatrix(((1, 1, 0), (0, 1, 1), (1, 0, 1)))

POOL = (FULL2, FULL3, GOLDEN, CYCLE3)


@contextmanager
def budget(seconds):
    """Assert that the block takes less than `seconds` of wall-clock time."""
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"wall-clock budget {seconds}s exceeded: {elapsed:.2f}s"


def to_fraction(s) -> Fraction | None:
    """The value of a rational scalar, None for any other scalar."""
    return s.value if isinstance(s, scalars.Rat) else None


@pytest.fixture(scope="session")
def pool():
    return POOL


@pytest.fixture
def certified_pf_calls(monkeypatch) -> list:
    """The arguments of every certified Perron computation, recorded below
    pf_data's memo, which starts empty."""
    perron._pf_memo.cache_clear()
    calls = []
    inner = perron._certified_pf

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(perron, "_certified_pf", counting)
    return calls


@pytest.fixture
def exp_calls(monkeypatch) -> list:
    """The arguments of every exp_interval call that states makes: the
    precondition proof and the gauge factors of kms_check's enclosure
    path."""
    calls = []
    inner = states.exp_interval

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(states, "exp_interval", counting)
    return calls


def random_irreducible(rng: random.Random, n: int) -> ZeroOneMatrix:
    while True:
        rows = tuple(tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(n))
        m = ZeroOneMatrix(rows)
        if is_nondegenerate(m) and is_irreducible(m):
            return m


def transported(a, om_a, b, om_b):
    """(spec, omega): the Kronecker state of the exact solutions of two
    factors over the Kronecker matrix, and the combined frequencies of the
    pair."""
    sol_a, sol_b = perron.solve_beta(a, om_a), perron.solve_beta(b, om_b)
    ab = tensorops.kronecker_vector(sol_a.param.entries, sol_b.param.entries)
    spec = states.state_spec(perron.in_lambda(kronecker_matrix(a, b), ab))
    omega = tensorops.combined_frequencies(tensorops.IndexSplit(a.n, b.n),
                                           om_a, sol_a, om_b, sol_b)
    return spec, omega


def prefix_table(data, words) -> dict:
    """The diagonal values that letter data (e, d_e, x, d_x) of
    states.letter_data enclose, as intervals keyed by word: the prefix
    products e[j_1] ... e[j_{m-1}] x[j_m] over d_e^(m-1) d_x along `words`,
    which lists every prefix of a word before the word."""
    e, d_e, x, d_x = data
    prefix, table = {(): (1, 1)}, {(): Interval.point(1)}
    for J in words:
        if J:
            (plo, phi), (xlo, xhi) = prefix[J[:-1]], x[J[-1] - 1]
            d = d_e ** (len(J) - 1) * d_x
            table[J] = Interval(Fraction(plo * xlo, d), Fraction(phi * xhi, d))
            elo, ehi = e[J[-1] - 1]
            prefix[J] = (plo * elo, phi * ehi)
    return table


def random_rational(rng: random.Random, lo=1, hi=6, den=7) -> Fraction:
    """Positive rational with small numerator/denominator."""
    d = rng.randint(2, den)
    n = rng.randint(lo, min(hi, d - 1)) if hi < d else rng.randint(lo, d - 1)
    return Fraction(n, d)


def random_positive_rationals(rng: random.Random, count: int) -> list:
    return [Fraction(rng.randint(1, 9), rng.randint(10, 24)) for _ in range(count)]
