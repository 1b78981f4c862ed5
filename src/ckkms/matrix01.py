"""Square 0-1 matrices: admissibility structure and Kronecker products.

A matrix is in the working class when it is nondegenerate (no zero row or
column), irreducible (its digraph is strongly connected), and not a
permutation matrix.  Indices are 1-based at the API boundary to match the
generator labels s_1..s_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import DimensionError, DomainError, ResourceLimitError

DEFAULT_DIMENSION_CAP = 4096


@dataclass(frozen=True)
class ZeroOneMatrix:
    """A square 0-1 matrix.  Besides `rows`, construction stores plain
    attributes that the word layer reads on every letter: `n`, and the
    followers of each letter, 1-based, as `follower_masks[i]` (bit j set
    when A[i][j] = 1) and as `follower_sets[i]` (the frozenset row_set
    returns).  Entry 0 of both holds every letter, the followers of the
    empty word.  The hash is computed once; equality compares `rows`."""

    rows: tuple  # tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if n < 2:
            raise DimensionError("matrices must be at least 2x2")
        for r in rows:
            if len(r) != n:
                raise DimensionError("matrix must be square")
            for v in r:
                if v not in (0, 1):
                    raise DomainError(f"entries must be 0 or 1, got {v!r}")
        sets = [frozenset(range(1, n + 1))]
        sets += [frozenset(j + 1 for j, v in enumerate(r) if v) for r in rows]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "follower_sets", tuple(sets))
        object.__setattr__(self, "follower_masks",
                           tuple(sum(1 << j for j in s) for s in sets))
        object.__setattr__(self, "_hash", hash(rows))

    def __hash__(self):
        return self._hash

    def entry(self, i: int, j: int) -> int:
        """1-based entry access."""
        return self.rows[i - 1][j - 1]

    def row_set(self, i: int) -> frozenset:
        """Column indices j with A[i][j] = 1 (1-based)."""
        return self.follower_sets[i]

    @staticmethod
    def full(n: int) -> "ZeroOneMatrix":
        """The all-ones matrix F_n."""
        return ZeroOneMatrix(tuple(tuple(1 for _ in range(n)) for _ in range(n)))

    def is_full(self) -> bool:
        return all(all(v == 1 for v in r) for r in self.rows)

    def to_json(self) -> dict:
        return {"n": self.n, "rows": [list(r) for r in self.rows]}

    @staticmethod
    def from_json(obj: dict) -> "ZeroOneMatrix":
        if not isinstance(obj, dict) or "rows" not in obj:
            raise DomainError(f"malformed matrix JSON: {obj!r}")
        m = ZeroOneMatrix(tuple(tuple(r) for r in obj["rows"]))
        if "n" in obj and obj["n"] != m.n:
            raise DimensionError("matrix JSON 'n' does not match row count")
        return m


def is_nondegenerate(a: ZeroOneMatrix) -> bool:
    """No zero row and no zero column."""
    if any(not any(r) for r in a.rows):
        return False
    return all(any(a.rows[i][j] for i in range(a.n)) for j in range(a.n))


def is_irreducible(a: ZeroOneMatrix) -> bool:
    """Strong connectivity of the digraph i -> j when A[i][j] = 1: every
    vertex is reachable from vertex 0, and vertex 0 from every vertex."""
    n = a.n

    def reaches_all(edge) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for j in range(n):
                if j not in seen and edge(i, j):
                    seen.add(j)
                    stack.append(j)
        return len(seen) == n

    return (reaches_all(lambda i, j: a.rows[i][j])
            and reaches_all(lambda i, j: a.rows[j][i]))


def is_permutation(a: ZeroOneMatrix) -> bool:
    return all(sum(r) == 1 for r in a.rows) and all(
        sum(a.rows[i][j] for i in range(a.n)) == 1 for j in range(a.n)
    )


def in_class_cdm(a: ZeroOneMatrix) -> bool:
    """Nondegenerate, irreducible, and not a permutation matrix."""
    return is_nondegenerate(a) and is_irreducible(a) and not is_permutation(a)


# Tensor-state evaluation asks for the product of the same two factors on
# every call; the matrices are frozen, so one product can serve them all.
# A cap violation raises and is not cached.
@lru_cache(maxsize=64)
def kronecker_matrix(a: ZeroOneMatrix, b: ZeroOneMatrix,
                     dimension_cap: int = DEFAULT_DIMENSION_CAP) -> ZeroOneMatrix:
    """Kronecker product; block index u = m(i-1)+j for (i, j)."""
    n, m = a.n, b.n
    if n * m > dimension_cap:
        raise ResourceLimitError(
            f"Kronecker dimension {n * m} exceeds the cap {dimension_cap}")
    rows = tuple(
        tuple(a.rows[i][ip] * b.rows[j][jp] for ip in range(n) for jp in range(m))
        for i in range(n) for j in range(m)
    )
    return ZeroOneMatrix(rows)
