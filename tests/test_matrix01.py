"""0-1 matrices: validation predicates, irreducibility, the admissible class,
and the Kronecker product against a numpy oracle."""

import itertools
import random

import numpy as np
import pytest

from ckkms.errors import DimensionError, DomainError
from ckkms.matrix01 import (
    ZeroOneMatrix,
    in_class_cdm,
    is_irreducible,
    is_nondegenerate,
    is_permutation,
    kronecker_matrix,
)

from conftest import CYCLE3, FULL2, FULL3, GOLDEN


def random_matrix(rng: random.Random, n: int) -> ZeroOneMatrix:
    while True:
        rows = tuple(tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(n))
        if all(any(r) for r in rows) and all(any(c) for c in zip(*rows)):
            return ZeroOneMatrix(rows)


class TestPredicates:
    def test_nondegenerate(self):
        assert is_nondegenerate(FULL2)
        assert not is_nondegenerate(ZeroOneMatrix(((1, 0), (0, 0))))
        assert is_nondegenerate(GOLDEN)

    def test_irreducible(self):
        assert is_irreducible(GOLDEN)  # its square is strictly positive
        assert not is_irreducible(ZeroOneMatrix(((1, 0), (0, 1))))
        assert is_irreducible(FULL3)
        assert is_irreducible(CYCLE3)

    def test_irreducible_iff_shifted_power_positive(self):
        # A is irreducible iff (I + A)^(n-1) has no zero entry
        checked = 0
        for n in (2, 3):
            for bits in itertools.product((0, 1), repeat=n * n):
                rows = tuple(tuple(bits[n * i:n * i + n]) for i in range(n))
                shifted = np.eye(n, dtype=np.int64) + np.array(rows, dtype=np.int64)
                positive = bool((np.linalg.matrix_power(shifted, n - 1) > 0).all())
                assert is_irreducible(ZeroOneMatrix(rows)) == positive, rows
                checked += 1
        assert checked == 16 + 512

    def test_admissible_class(self):
        assert not in_class_cdm(ZeroOneMatrix(((0, 1), (1, 0))))  # permutation
        assert in_class_cdm(GOLDEN)
        assert not in_class_cdm(ZeroOneMatrix(((1, 1), (0, 0))))  # zero row
        assert is_permutation(ZeroOneMatrix(((0, 1), (1, 0))))
        assert not is_permutation(GOLDEN)

    def test_entries_validated(self):
        with pytest.raises((DomainError, ValueError)):
            ZeroOneMatrix(((2, 0), (0, 1)))
        with pytest.raises((DimensionError, DomainError, ValueError)):
            ZeroOneMatrix(((1, 0, 1), (0, 1)))

    def test_full_and_entry_access(self):
        assert FULL2.is_full()
        assert not GOLDEN.is_full()
        assert GOLDEN.entry(2, 2) == 0 and GOLDEN.entry(2, 1) == 1
        assert GOLDEN.row_set(2) == frozenset({1})

    def test_json_roundtrip(self):
        for m in (FULL2, GOLDEN, CYCLE3):
            assert ZeroOneMatrix.from_json(m.to_json()) == m


class TestKronecker:
    def test_full_times_full(self):
        assert kronecker_matrix(FULL2, FULL2) == ZeroOneMatrix.full(4)

    def test_golden_square_rows(self):
        got = kronecker_matrix(GOLDEN, GOLDEN)
        assert got.rows == (
            (1, 1, 1, 1),
            (1, 0, 1, 0),
            (1, 1, 0, 0),
            (1, 0, 0, 0),
        )

    def test_index_convention(self):
        # entry at (m(i-1)+j, m(i'-1)+j') equals A[i,i'] * B[j,j']
        a, b = GOLDEN, CYCLE3
        m = b.n
        prod = kronecker_matrix(a, b)
        for i in range(1, a.n + 1):
            for j in range(1, m + 1):
                for i2 in range(1, a.n + 1):
                    for j2 in range(1, m + 1):
                        u, v = m * (i - 1) + j, m * (i2 - 1) + j2
                        assert prod.entry(u, v) == a.entry(i, i2) * b.entry(j, j2)

    def test_matches_numpy_kron(self):
        rng = random.Random(11)
        for _ in range(40):
            a = random_matrix(rng, rng.randint(2, 4))
            b = random_matrix(rng, rng.randint(2, 4))
            got = kronecker_matrix(a, b)
            oracle = np.kron(np.array(a.rows), np.array(b.rows))
            assert np.array_equal(np.array(got.rows), oracle)

    def test_permutation_factor_still_computed(self):
        perm = ZeroOneMatrix(((0, 1), (1, 0)))
        got = kronecker_matrix(GOLDEN, perm)
        assert got.n == 4  # class membership is checked separately

    def test_dimension_cap(self):
        with pytest.raises((DimensionError, Exception)):
            kronecker_matrix(FULL3, FULL3, dimension_cap=8)
