import random
from fractions import Fraction

import numpy as np
from tsppsd.linalg import (
    RationalRowReducer,
    certified_pd,
    exact_ldlt,
    jacobi_eigh,
)


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
        res = exact_ldlt(rows)
        assert not res.is_psd
        assert form_value(rows, res.witness) < 0


def test_psd_with_rank_deficiency():
    rng = random.Random(5)
    d = 6
    L = random_unimodular(d, rng)
    diag = [Fraction(2), Fraction(1), Fraction(0), Fraction(0), Fraction(3), Fraction(0)]
    rows = conjugate(diag, L)
    for case in (rows, scaled(rows)):
        res = exact_ldlt(case)
        assert res.is_psd and res.rank == 3


def test_zero_matrix_is_psd():
    res = exact_ldlt([[Fraction(0)] * 3 for _ in range(3)])
    assert res.is_psd and res.rank == 0


def test_certified_pd_respects_entry_error():
    A = np.eye(3) * 1e-6
    # honest tiny entries: certifiable
    assert certified_pd(A, entry_error_bound=0.0)
    # a claimed conversion error larger than the smallest eigenvalue kills it
    assert not certified_pd(A, entry_error_bound=1e-5)


def test_jacobi_deterministic_and_accurate():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(20, 20))
    A = A + A.T
    e1, v1 = jacobi_eigh(A)
    e2, v2 = jacobi_eigh(A)
    assert np.array_equal(e1, e2) and np.array_equal(v1, v2)
    assert np.allclose(e1, np.linalg.eigvalsh(A), atol=1e-9)
    assert np.allclose(v1 @ np.diag(e1) @ v1.T, A, atol=1e-8)


def test_jacobi_trivial_sizes():
    evals, vecs = jacobi_eigh(np.array([[4.0]]))
    assert evals[0] == 4.0 and vecs[0, 0] == 1.0
    evals, _ = jacobi_eigh(np.zeros((3, 3)))
    assert np.array_equal(evals, np.zeros(3))


def test_row_reducer_rank_and_membership():
    red = RationalRowReducer()
    assert red.add({0: Fraction(1), 1: Fraction(2)})
    assert red.add({1: Fraction(1)})
    assert not red.add({0: Fraction(2), 1: Fraction(7)})
    assert red.rank == 2
    assert red.contains({0: Fraction(5), 1: Fraction(-3)})
    assert not red.contains({2: Fraction(1)})
    assert red.contains({})
