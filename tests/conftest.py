"""Shared fixtures: the matrix pool and seeded rational generators."""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from ckkms import perron
from ckkms.matrix01 import ZeroOneMatrix

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


def random_rational(rng: random.Random, lo=1, hi=6, den=7) -> Fraction:
    """Positive rational with small numerator/denominator."""
    d = rng.randint(2, den)
    n = rng.randint(lo, min(hi, d - 1)) if hi < d else rng.randint(lo, d - 1)
    return Fraction(n, d)


def random_positive_rationals(rng: random.Random, count: int) -> list:
    return [Fraction(rng.randint(1, 9), rng.randint(10, 24)) for _ in range(count)]
