import math
import random
from fractions import Fraction

import numpy as np
import pytest
from tsppsd.linalg import (
    certified_pd,
    cholesky_shift,
    exact_ldlt,
    integer_matmul,
    kept_coordinates,
    nonsingular_block,
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
    # honest tiny entries: certifiable (certified_pd shifts its argument)
    assert certified_pd(A.copy(), entry_error_bound=0.0)
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


def fraction_shift(A, err=0.0):
    """`cholesky_shift` in Fraction arithmetic, the reference: the same sum
    from the trace rounded one float up, rounded up once."""
    r = A.shape[0]
    diag = np.diagonal(A).tolist()
    trace = Fraction(math.nextafter(math.fsum(diag), math.inf))
    u = Fraction(1, 2**53)
    g = (r + 1) * u / (1 - (r + 1) * u)
    exact = (
        g / (1 - 2 * g) * trace
        + 16 * r * (r + 2 + Fraction(max(diag, default=0.0))) * Fraction(1, 2**1074)
        + r * Fraction(err)
    )
    up = float(exact)
    return up if Fraction(up) >= exact else math.nextafter(up, math.inf)


def test_cholesky_shift_equals_the_fraction_reference():
    # the integer evaluation gives the same float, bit for bit, on ordinary,
    # tiny, subnormal, zero and large diagonals
    rng = np.random.default_rng(7)
    for trial in range(600):
        r = int(rng.integers(1, 80))
        d = [
            rng.uniform(0, 3, r),
            rng.uniform(0, 1, r) * 10.0 ** rng.integers(-320, 300, r),
            np.zeros(r),
            5e-324 * rng.integers(0, 5, r),
        ][trial % 4]
        err = [0.0, 1e-17, float(rng.uniform(0, 1e-3)), 5e-324][trial // 4 % 4]
        A = np.diag(d)
        assert cholesky_shift(A, err) == fraction_shift(A, err)


def test_certified_pd_decides_at_the_shift():
    # on a diagonal matrix, Cholesky of A - s I succeeds iff every a_ii > s
    s0 = cholesky_shift(np.diag([1.0, 1.0, 0.0]))
    assert certified_pd(np.diag([1.0, 1.0, 2 * s0]))
    assert not certified_pd(np.diag([1.0, 1.0, s0 / 2]))
    # a negative diagonal entry is never certified
    assert not certified_pd(np.array([[1.0, 0.0], [0.0, -1e-300]]))


def test_certified_pd_refuses_other_dtypes():
    # the shift bounds float64 rounding, so a float32 or integer matrix is
    # refused rather than factored in the wrong precision
    for dtype in (np.float32, np.int64, object):
        A = np.eye(3, dtype=dtype)
        with pytest.raises(TypeError, match="certified_pd needs a float64 array"):
            certified_pd(A)
        assert A.tolist() == np.eye(3).tolist()


def test_certified_pd_shifts_its_argument_in_place():
    # the argument holds fl(A - s I) afterwards, proved or not; a negative
    # diagonal entry is refused before the shift
    G = np.random.default_rng(4).standard_normal((40, 40))
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    for A, proved in ((G @ G.T + np.eye(40), True), (indefinite, False)):
        want = A.copy()
        want.flat[:: len(A) + 1] -= cholesky_shift(A, 1e-17)
        assert certified_pd(A, 1e-17) is proved
        assert A.tobytes() == want.tobytes()
    A = np.diag([1.0, -1.0])
    assert not certified_pd(A) and A.tolist() == [[1.0, 0.0], [0.0, -1.0]]


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


def test_integer_matmul_bound_does_not_wrap_in_int64():
    # int64 operands whose column sums of |B| reach 2^64, which int64
    # arithmetic wraps to 0, and an A holding INT64_MIN, whose abs wraps
    ones = np.ones((1, 4), dtype=np.int64)
    for B in ([[2**62]] * 4, [[2**62], [2**62], [-(2**62)], [-(2**62)]],
              [[2**62 - 1]] * 4, [[2**61 + 3]] * 3):
        B = np.array(B, dtype=np.int64)
        want = [[sum(x for (x,) in B.tolist())]]
        assert integer_matmul(ones[:, : len(B)], B).tolist() == want
        assert integer_matmul(ones[:, : len(B)], B, 1).tolist() == want
    A = np.array([[-(2**63), 0]], dtype=np.int64)
    B = np.array([[3], [1]], dtype=np.int64)
    assert integer_matmul(A, B).tolist() == [[-3 * 2**63]]
    # partial sums just below and just above 2^53, each exact
    for x in (2**52 - 1, 2**52, 2**52 + 1):
        B = np.array([[x], [x]], dtype=np.int64)
        assert integer_matmul(np.ones((1, 2), dtype=np.int64), B).tolist() == [[2 * x]]


def test_kept_coordinates_continue_one_elimination():
    # the relations' block cached, then the zero rows and the row copies
    # reduced against it: the same pivots as one elimination of all the
    # columns, and the dropped rows carry a block of full rank
    rng = np.random.default_rng(3)
    for _ in range(20):
        d, t = int(rng.integers(4, 12)), int(rng.integers(1, 5))
        R = rng.integers(-3, 4, size=(d, t)) * (rng.random((d, t)) < 0.5)
        priority = rng.permutation(d)
        rows = rng.permutation(d)
        zero = tuple(sorted(rows[:2].tolist()))
        copies = tuple(
            (int(i), int(j), int(rng.integers(0, 4)))
            for i, j in zip(rows[2:5].tolist(), rows[5:8].tolist())
        )
        X = np.zeros((d, len(zero) + len(copies)), dtype=np.int64)
        for col, i in enumerate(zero):
            X[i, col] = 1
        for col, (i, j, a) in enumerate(copies, len(zero)):
            X[i, col], X[j, col] = 1, -a
        K = np.hstack([R, X])
        whole = nonsingular_block(K, priority)
        kept = kept_coordinates(nonsingular_block(R, priority), zero, copies)
        assert sorted(kept) == sorted(set(range(d)) - set(whole.pivots.tolist()))
        A = K[whole.pivots][:, whole.columns]
        assert exact_ldlt((A.T @ A).tolist()).rank == len(whole.pivots) == d - len(kept)
