import math
import random
from fractions import Fraction

import numpy as np
from tsppsd.linalg import (
    certified_pd,
    cholesky_shift,
    exact_ldlt,
    integer_matmul,
)
from tsppsd.rational import clear_denominators


def form_value(rows, v):
    d = len(v)
    return sum(v[i] * sum(rows[i][j] * v[j] for j in range(d)) for i in range(d))


def conjugate(diag, L):
    # L^T diag L in exact arithmetic
    d = len(diag)
    rows = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            rows[i][j] = sum(L[k][i] * diag[k] * L[k][j] for k in range(d))
    return rows


def random_unimodular(d, rng):
    L = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for _ in range(2 * d):
        i, j = rng.randrange(d), rng.randrange(d)
        if i == j:
            continue
        c = Fraction(rng.randint(-2, 2))
        for k in range(d):
            L[i][k] += c * L[j][k]
    return L


def scaled(rows):
    # numerators beyond int64 once the denominators are cleared
    a = Fraction(10**19 + 1, 10**19 + 3)
    return [[a * x for x in row] for row in rows]


def test_witness_found_behind_several_pivots():
    rng = random.Random(12)
    cases = []
    for trial in range(10):
        d = 6
        L = random_unimodular(d, rng)
        diag = [Fraction(1)] * d
        diag[rng.randrange(d)] = Fraction(-1, 3)
        cases.append(conjugate(diag, L))
    cases.append(scaled(cases[0]))
    for rows in cases:
        res = exact_ldlt(clear_denominators(rows)[0])
        assert not res.is_psd
        assert form_value(rows, res.witness) < 0


def test_psd_with_rank_deficiency():
    rng = random.Random(5)
    d = 6
    L = random_unimodular(d, rng)
    diag = [Fraction(2), Fraction(1), Fraction(0), Fraction(0), Fraction(3), Fraction(0)]
    rows = conjugate(diag, L)
    for case in (rows, scaled(rows)):
        res = exact_ldlt(clear_denominators(case)[0])
        assert res.is_psd and res.rank == 3


def test_zero_matrix_is_psd():
    res = exact_ldlt([[0] * 3 for _ in range(3)])
    assert res.is_psd and res.rank == 0


def test_certified_pd_respects_entry_error():
    A = np.eye(3) * 1e-6
    # honest tiny entries: certifiable
    assert certified_pd(A, entry_error_bound=0.0)
    # a claimed conversion error larger than the smallest eigenvalue kills it
    assert not certified_pd(A, entry_error_bound=1e-5)


def test_cholesky_shift_is_rumps_bound():
    # gamma_{r+1} / (1 - 2 gamma_{r+1}) * trace + 16 r (r + 2 + max a_ii) 2^-1074
    # + r * entry_error_bound, rounded up
    rng = np.random.default_rng(3)
    u, eta = Fraction(1, 2**53), Fraction(1, 2**1074)
    for r, err in ((1, 0.0), (7, 1e-17), (40, 3e-12), (530, 0.0), (1711, 2e-16)):
        # only the diagonal enters the shift
        A = np.diag(rng.uniform(0.1, 3.0, r))
        A[0, -1] = A[-1, 0] = 5.0
        g = (r + 1) * u / (1 - (r + 1) * u)
        trace = sum(Fraction(x) for x in np.diagonal(A).tolist())
        exact = (
            g / (1 - 2 * g) * trace
            + 16 * r * (r + 2 + Fraction(float(np.max(np.diagonal(A))))) * eta
            + r * Fraction(err)
        )
        shift = cholesky_shift(A, err)
        # the least float >= exact, or the next one: the trace enters as an
        # upper bound one float above its correctly rounded value
        least = float(exact)
        if Fraction(least) < exact:
            least = math.nextafter(least, math.inf)
        assert shift in (least, math.nextafter(least, math.inf))


def test_certified_pd_decides_at_the_shift():
    # on a diagonal matrix, Cholesky of A - s I succeeds iff every a_ii > s
    s0 = cholesky_shift(np.diag([1.0, 1.0, 0.0]))
    assert certified_pd(np.diag([1.0, 1.0, 2 * s0]))
    assert not certified_pd(np.diag([1.0, 1.0, s0 / 2]))
    # a negative diagonal entry is never certified
    assert not certified_pd(np.array([[1.0, 0.0], [0.0, -1e-300]]))


def test_integer_matmul_is_exact_in_every_regime():
    # partial sums below 2^53 (float64 BLAS), below 2^63 (int64) and beyond
    # (Python ints); the result is an integer array in each
    rng = random.Random(5)
    for top in (2**20, 2**28, 2**40):
        A = [[rng.randint(-top, top) for _ in range(5)] for _ in range(4)]
        B = [[rng.randint(-top, top) for _ in range(3)] for _ in range(5)]
        P = integer_matmul(np.array(A, dtype=object), np.array(B, dtype=object))
        assert P.dtype in (np.int64, object)
        assert P.tolist() == [
            [sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A
        ]
    assert all(isinstance(x, int) for x in P.ravel().tolist())
    assert integer_matmul(np.ones((3, 2), dtype=np.int64),
                          np.zeros((2, 0), dtype=np.int64)).shape == (3, 0)
