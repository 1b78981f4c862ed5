"""Checks of the workload records against values computed without ckkms.

Floats come from numpy (Perron eigenvectors, spectral radii) and from the
benchmark's own arithmetic (float bisection for beta and for algebraic
roots, prime-exponent labels for rationals).  Importing this module loads
numpy, so the harness imports it only after the timed phase and after it
has read the peak resident memory.  BLAS is held to one thread.

Each `check_<workload>` takes the list of records (None for a job that
raised) and returns the number of failed jobs.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from math import gcd

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from workloads import TensorVerify, diagonal_count, kron_rows  # noqa: E402

KMS_TOL = 1e-9        # the residual bound kms_check certifies against
BETA_TOL = 1e-9       # distance of the beta enclosure from the float root
LABEL_RTOL = 1e-9     # relative float tolerance for algebraic labels
ENCLOSURE_SLACK = 1e-12  # float rounding allowance around certified intervals


# ---------------------------------------------------------------------------
# float evaluation of recorded scalars


def alg_root(poly, lo, hi) -> float:
    """The root of the integer polynomial (constant first) isolated in
    [lo, hi], by float bisection."""
    def f(x):
        acc = 0.0
        for c in reversed(poly):
            acc = acc * x + c
        return acc

    a, b = float(lo), float(hi)
    fa = f(a)
    if a == b:
        return a
    for _ in range(200):
        m = 0.5 * (a + b)
        if m in (a, b):
            break
        fm = f(m)
        if fm == 0:
            return m
        if (fm > 0) == (fa > 0):
            a, fa = m, fm
        else:
            b = m
    return 0.5 * (a + b)


def value(desc) -> tuple:
    """(lo, hi) float bounds of a recorded scalar; lo == hi when exact."""
    kind = desc[0]
    if kind in ("q", "f"):
        v = float(desc[1])
        return v, v
    if kind == "e":
        return float(desc[1]), float(desc[2])
    v = float(desc[1])
    for poly, lo, hi, e in desc[2]:
        v *= alg_root(poly, lo, hi) ** e
    return v, v


def distance(desc, expected: float) -> float:
    lo, hi = value(desc)
    return max(abs(lo - expected), abs(hi - expected))


# ---------------------------------------------------------------------------
# Perron data with numpy


def perron_vector(m) -> np.ndarray:
    vals, vecs = np.linalg.eig(m)
    v = np.abs(np.real(vecs[:, np.argmax(np.real(vals))]))
    return v / v.sum()


def spectral_radius(m) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def beta_root(rows, omega) -> float:
    """beta > 0 with spectral radius of diag(e^{-beta omega}) A equal to 1,
    by float bisection."""
    a = np.array(rows, dtype=float)
    w = np.array(omega, dtype=float)

    def above(beta):
        return spectral_radius(np.exp(-beta * w)[:, None] * a) > 1.0

    lo, hi = 0.0, 1.0
    while above(hi):
        lo, hi = hi, 2 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if above(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def factor_state(rows, omega):
    """(a, x, beta) of the KMS state of rows at its own beta."""
    beta = beta_root(rows, omega)
    a = np.exp(-beta * np.array(omega, dtype=float))
    x = perron_vector(a[:, None] * np.array(rows, dtype=float))
    return a, x, beta


# ---------------------------------------------------------------------------
# kms-check


class _State:
    """Float model of a KMS state: rho(s_W s_W*) = a_{w1}..a_{w(m-1)} x_{wm}."""

    def __init__(self, rows, a, x, omega, beta):
        self.rows, self.a, self.x = rows, a, x
        self.omega, self.beta = omega, beta

    def diag(self, W) -> float:
        if not W:
            return 1.0
        out = float(self.x[W[-1] - 1])
        for w in W[:-1]:
            out *= float(self.a[w - 1])
        return out

    def x_xstar(self, J, K) -> float:
        """rho(s_J s_K* s_K s_J*), using s_k* s_k = sum_j A(k, j) s_j s_j*."""
        if not K:
            return self.diag(J)
        return sum(self.diag(J + (j,)) for j in range(1, len(self.rows) + 1)
                   if self.rows[K[-1] - 1][j - 1]
                   and (not J or self.rows[J[-1] - 1][j - 1]))

    def kms_sides(self, J, K) -> tuple:
        """(rho(x* sigma_{i beta}(x)), rho(x x*)) for x = s_J s_K*."""
        shift = sum(self.omega[j - 1] for j in J) - sum(self.omega[k - 1] for k in K)
        return math.exp(-self.beta * shift) * self.x_xstar(K, J), self.x_xstar(J, K)


def _kms_state(key) -> _State:
    if key[0] == "factor":
        _, rows, omega = key
        a, x, beta = factor_state(rows, omega)
        return _State(rows, a, x, omega, beta)
    _, rows_a, om_a, rows_b, om_b = key
    a_a, x_a, beta_a = factor_state(rows_a, om_a)
    a_b, x_b, beta_b = factor_state(rows_b, om_b)
    rows = kron_rows(rows_a, rows_b)
    a = np.kron(a_a, a_b)
    x = perron_vector(a[:, None] * np.array(rows, dtype=float))
    omega = (beta_a * np.array(om_a, dtype=float)[:, None]
             + beta_b * np.array(om_b, dtype=float)[None, :]).ravel()
    return _State(rows, a, x, omega, 1.0)


def check_kms(records) -> int:
    states = {}
    failed = 0
    for rec in records:
        if rec is None:
            failed += 1
            continue
        key, J, K, lhs, rhs, residual, ok = rec
        if key not in states:
            states[key] = _kms_state(key)
        want_lhs, want_rhs = states[key].kms_sides(J, K)
        if not (ok and residual <= KMS_TOL and distance(lhs, want_lhs) <= KMS_TOL
                and distance(rhs, want_rhs) <= KMS_TOL):
            failed += 1
    return failed


# ---------------------------------------------------------------------------
# tensor-verify


def check_tensor(records) -> int:
    failed = 0
    for rec in records:
        if rec is None:
            failed += 1
            continue
        (rows_a, om_a, rows_b, om_b), passed, residual, diagonal, enclosure = rec
        _, x_a, _ = factor_state(rows_a, om_a)
        _, x_b, _ = factor_state(rows_b, om_b)
        want = np.kron(x_a, x_b)
        inside = len(enclosure) == len(want) and all(
            float(lo) - ENCLOSURE_SLACK <= v <= float(hi) + ENCLOSURE_SLACK
            for (lo, hi), v in zip(enclosure, want))
        if not (passed and residual <= KMS_TOL and inside
                and diagonal == diagonal_count(kron_rows(rows_a, rows_b),
                                               TensorVerify.max_len)):
            failed += 1
    return failed


# ---------------------------------------------------------------------------
# beta-float


def check_beta(records) -> int:
    failed = 0
    for rec in records:
        if rec is None:
            failed += 1
            continue
        rows, omega, lo, hi, mode = rec
        beta = beta_root(rows, omega)
        if not (mode == "heuristic"
                and float(lo) - BETA_TOL <= beta <= float(hi) + BETA_TOL):
            failed += 1
    return failed


# ---------------------------------------------------------------------------
# type-labels


def _prime_exponents(q: Fraction) -> dict:
    out = {}
    for sign, n in ((1, q.numerator), (-1, q.denominator)):
        p = 2
        while p * p <= n:
            while n % p == 0:
                out[p] = out.get(p, 0) + sign
                n //= p
            p += 1
        if n > 1:
            out[n] = out.get(n, 0) + sign
    return out


def rational_label(values) -> Fraction:
    """lambda of rationals in (0,1): the common base b^g when every entry is
    b^{k_i} for one rational b and positive integers k_i with gcd g, else 1.
    Entries share a base exactly when their prime-exponent vectors are
    positive multiples of one primitive vector."""
    vecs = [_prime_exponents(Fraction(v)) for v in values]
    primes = sorted(set().union(*vecs))
    rows = [[v.get(p, 0) for p in primes] for v in vecs]
    g0 = gcd(*rows[0])
    prim = [e // g0 for e in rows[0]]
    ks = []
    for row in rows:
        lead = next(i for i, e in enumerate(prim) if e)
        if row[lead] % prim[lead]:
            return Fraction(1)
        k = row[lead] // prim[lead]
        if k <= 0 or any(r != k * p for r, p in zip(row, prim)):
            return Fraction(1)
        ks.append(k)
    g = gcd(*ks)
    out = Fraction(1)
    for p, e in zip(primes, prim):
        out *= Fraction(p) ** (e * g)
    return out


def _kron_sums(e1, e2) -> tuple:
    return tuple(a + b for a in e1 for b in e2)


def _algebraic_label_ok(base, exps, label, label_exps, r) -> bool:
    """The label is base^r, its decomposition exponents are exps / r, and
    label^{p_i} = base^{exps_i} holds in floats."""
    b = value(base)[0]
    lam = value(label)[0]
    if label_exps is None or tuple(label_exps) != tuple(e // r for e in exps):
        return False
    if not math.isclose(lam, b ** r, rel_tol=LABEL_RTOL):
        return False
    return all(math.isclose(lam ** p, b ** e, rel_tol=LABEL_RTOL)
               for p, e in zip(label_exps, exps))


def _label_ok(rec) -> bool:
    kind, data, base, label, label_exps = rec
    if kind in ("rational", "rational-tensor", "afd"):
        if kind == "rational":
            values = data
        elif kind == "rational-tensor":
            values = [x * y for x in data[0] for y in data[1]]
        else:
            tau, p, q = data
            values = (tau ** p, tau ** q)
        want = rational_label(values)
        if label != ("q", want):
            return False
        if kind == "afd" or want == 1:
            return True
        return label_exps is not None and all(
            want ** p == v for p, v in zip(label_exps, values))
    if kind in ("power", "power-tensor"):
        exps = data if kind == "power" else _kron_sums(*data)
        return _algebraic_label_ok(base, exps, label, label_exps, gcd(*exps))
    # power-k and explicit: the k-fold Kronecker power of (x^p, x^q) with
    # gcd(p, q) = 1 has label x^r, r = gcd(|p - q|, k)
    p, q, k = data
    exps = (p, q)
    for _ in range(k - 1):
        exps = _kron_sums(exps, (p, q))
    return _algebraic_label_ok(base, exps, label, label_exps, gcd(abs(p - q), k))


def check_labels(records) -> int:
    return sum(1 for rec in records if rec is None or not _label_ok(rec))


CHECKS = {"kms-check": check_kms, "tensor-verify": check_tensor,
          "beta-float": check_beta, "type-labels": check_labels}
