"""Exact and certified linear algebra for symmetric matrices.

Two engines:

* `exact_ldlt`: symmetric fraction-free Bareiss elimination (Bareiss 1968,
  Math. Comp. 22) on an integer matrix, with full diagonal pivoting and rank
  detection.  A rational matrix M = N / scale is decided on its integer
  numerators N, since a positive scale changes neither the verdict nor the
  witnesses; every step divides exactly by the previous pivot, so entries
  stay minors of the input and no rational arithmetic is needed.
  Semidefinite inputs are the normal case here (every tour moment matrix
  has the vertex-degree relations in its kernel), so a zero pivot is not
  an error: the matrix is PSD iff every pivot is positive and the block
  left after the last positive pivot is identically zero.  Indefiniteness
  yields an exact integer witness vector.

* `certified_pd`: a rigorous floating-point positive-definiteness proof.
  If floating Cholesky succeeds on A - shift*I with Rump's shift (BIT 46,
  2006) for the Cholesky rounding error plus a bound on the exact-to-float
  conversion error, the exact matrix is PD.  Failure proves nothing and
  callers fall back to `exact_ldlt`.

`exact_ldlt` is the only exact elimination over the integers: ranks of
integer vector families are the Bareiss ranks of their Gram matrices.
`nonsingular_block` picks the pivots of a structural relation matrix by
elimination modulo a prime, once per matrix; the nonzero determinant mod p
that it finds proves the pivot block nonsingular.  `kept_coordinates`
carries that elimination on through the kernel vectors read from one
matrix and returns the coordinates that its pivots leave.

Floating-point eigenvalues, where a caller needs them, come from LAPACK
(`np.linalg.eigh` / `eigvalsh`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

Rows = Sequence[Sequence[int]]


@dataclass
class LdltResult:
    is_psd: bool
    rank: int
    witness: list[int] | None  # exact v with v^T M v < 0 when not PSD


def peak(A: np.ndarray) -> int:
    """max |A| of an integer array as a Python int, 0 when A is empty."""
    return max(int(A.max(initial=0)), -int(A.min(initial=0)))


def integer_matmul(A: np.ndarray, B: np.ndarray, a_max: int | None = None) -> np.ndarray:
    """Exact A @ B for integer arrays, as an integer array: float64 BLAS
    while every partial sum is an integer below 2^53, int64 below 2^63,
    Python ints beyond.  `a_max` bounds |A| when the caller knows it.

    The partial sums are bounded by a_max times the largest column sum of
    |B|.  Summed in int64 those sums would wrap modulo 2^64 exactly when
    they matter, so a fixed-width B is summed in float64 and the sum is
    raised by (rows + 2) units of 2^-52, more than its rounding error; a
    B of Python ints is summed exactly."""
    if a_max is None:
        a_max = peak(A)
    if B.dtype == object:
        Bf = None
        col = int(np.abs(B).sum(axis=0).max(initial=0))
    else:
        Bf = np.asarray(B, dtype=float)
        col = math.ceil(np.abs(Bf).sum(axis=0).max(initial=0) * (1 + (len(B) + 2) * 2.0**-52))
    bound = a_max * col
    if bound < 2**53:
        Bf = B.astype(float) if Bf is None else Bf
        return (A.astype(float) @ Bf).astype(np.int64)
    dt = np.int64 if bound < 2**63 else object
    return A.astype(dt) @ B.astype(dt)


def _witness_value(M: Rows, v: Sequence[int]) -> int:
    """Exact v^T M v; zero entries of v are skipped."""
    support = [j for j, x in enumerate(v) if x]
    return sum((v[i] * sum(M[i][j] * v[j] for j in support) for i in support), 0)


def exact_ldlt(matrix: Rows) -> LdltResult:
    """Decide positive semidefiniteness of a symmetric integer matrix."""
    d = len(matrix)
    A = [list(row) for row in matrix]
    active = list(range(d))
    # After eliminating the pivots S, A[i][j] is the minor det A[S+i, S+j] of
    # the input and `prev` is det A[S, S] > 0: the Schur complement is
    # A / prev, so signs and pivot order match rational LDL^T, and witnesses
    # agree with it up to a positive factor.
    prev = 1
    # elimination trail: (pivot index, pivot value, column {j: A[j][p]})
    trail: list[tuple[int, int, dict[int, int]]] = []

    def pull_back(w: dict[int, int]) -> list[int]:
        # x[p] = -(col . x) / piv, kept integral by scaling x by piv > 0
        x = dict(w)
        for p, piv, col in reversed(trail):
            s = sum(col[j] * xj for j, xj in x.items() if j in col)
            if s:
                x = {j: xj * piv for j, xj in x.items()}
                x[p] = -s
                g = math.gcd(*x.values())
                x = {j: xj // g for j, xj in x.items()}
        v = [0] * d
        for j, val in x.items():
            v[j] = val
        if _witness_value(matrix, v) >= 0:
            raise RuntimeError("witness does not certify")
        return v

    while active:
        p_pos, p = max(enumerate(active), key=lambda t: A[t[1]][t[1]])
        piv = A[p][p]
        if piv > 0:
            active.pop(p_pos)
            Ap = A[p]
            trail.append((p, piv, {j: Ap[j] for j in active if Ap[j]}))
            for i_pos, i in enumerate(active):
                Ai = A[i]
                a = Ai[p]
                for j in active[i_pos:]:
                    q, r = divmod(piv * Ai[j] - a * Ap[j], prev)
                    if r:
                        raise RuntimeError("inexact Bareiss division")
                    Ai[j] = A[j][i] = q
            prev = piv
            continue
        if piv < 0:
            return LdltResult(False, len(trail), pull_back({p: 1}))
        # all remaining diagonals are <= 0 and the max is 0: PSD iff the
        # whole remaining block vanishes
        for i in active:
            Ai = A[i]
            for j in active:
                if Ai[j]:
                    if Ai[i] < 0:
                        w = {i: 1}
                    elif A[j][j] < 0:
                        w = {j: 1}
                    else:
                        # A[i][i] = A[j][j] = 0, A[i][j] != 0
                        w = {i: -1, j: 1 if Ai[j] > 0 else -1}
                    return LdltResult(False, len(trail), pull_back(w))
        break
    return LdltResult(True, len(trail), None)


PIVOT_PRIME = 1_000_003  # p^2 times any row count up to 2^13 fits int64


@dataclass(frozen=True, eq=False)
class PivotBlock:
    """Rows P = `pivots` and columns Q = `columns` of an integer matrix R
    with R[P, Q] square and nonsingular, and |Q| the rank of R modulo the
    prime `PIVOT_PRIME` (`nonsingular_block`).  `reduced` is B = R[:, Q] T
    mod p, with T invertible mod p and B[P] = I, and `order` holds the rank
    of each row in the priority of the pivots.  The arrays are read-only,
    and a block hashes by identity, so a cached block can key a cache
    (`kept_coordinates`)."""

    pivots: np.ndarray
    columns: np.ndarray
    reduced: np.ndarray
    order: np.ndarray


def _eliminate(
    X: np.ndarray, order: np.ndarray
) -> tuple[list[int], list[int], np.ndarray]:
    """Gauss-Jordan elimination modulo p of the columns of the integer
    matrix X, in order: a column independent mod p of those taken is taken,
    and its pivot row is the row of least `order` where its reduced form is
    nonzero.  Returns the pivot rows, the columns taken and their reduced
    forms, kept at the identity on the pivot rows.  Each pivot clears its
    row in every column at once, so a column found dependent costs one test
    for zero."""
    p = PIVOT_PRIME
    Y = np.asfortranarray(X % p)
    P: list[int] = []
    Q: list[int] = []
    for j in range(Y.shape[1]):
        nz = np.flatnonzero(Y[:, j])
        if nz.size == 0:
            continue
        i = int(nz[np.argmin(order[nz])])
        x = Y[:, j] * pow(int(Y[i, j]), -1, p) % p
        cols = np.flatnonzero(Y[i])
        Y[:, cols] = (Y[:, cols] - np.outer(x, Y[i, cols])) % p
        Y[:, j] = x
        P.append(i)
        Q.append(j)
    return P, Q, np.ascontiguousarray(Y[:, Q])


def nonsingular_block(R: np.ndarray, priority: Sequence[int]) -> PivotBlock:
    """The pivot block of the integer matrix R by Gaussian elimination
    modulo p: the columns are taken in order, a column independent mod p of
    those taken joins Q, and its pivot row is the first row in `priority`
    (a permutation of the rows) where its reduced form is nonzero.  The
    reduced columns B = R[:, Q] T are kept at the identity on the pivot
    rows, so R[P, Q] T = I mod p and det R[P, Q] is nonzero mod p, hence
    nonzero: the selection is its own exact proof.
    """
    order = np.empty(len(R), dtype=np.int64)
    order[np.asarray(priority)] = np.arange(len(R))
    P, Q, B = _eliminate(R, order)
    arrays = (np.array(P, dtype=np.int64), np.array(Q, dtype=np.int64), B, order)
    for a in arrays:
        a.flags.writeable = False
    return PivotBlock(*arrays)


@functools.lru_cache(maxsize=256)
def kept_coordinates(
    block: PivotBlock, zero: tuple[int, ...], copies: tuple[tuple[int, int, int], ...]
) -> tuple[int, ...]:
    """The coordinates that complement the span of the columns R[:, Q] of
    `block`, the unit vector of each row in `zero` and e_i - a e_j for each
    (i, j, a) in `copies`: the kernel vectors known for a matrix that
    annihilates R[:, Q], has those zero rows and has row i equal to a times
    row j.  The columns read are reduced against B in one product, which
    makes them vanish on P, and eliminated among themselves on the other
    rows, in the priority of the block.  Their reduced forms are those of
    one elimination of all the columns, so the pivot block of the whole is
    nonsingular by the same proof as R[P, Q].  Built once per argument."""
    p = PIVOT_PRIME
    d = len(block.order)
    X = np.zeros((d, len(zero) + len(copies)), dtype=np.int64)
    X[list(zero), np.arange(len(zero))] = 1
    if copies:
        i, j, a = np.array(copies, dtype=np.int64).T
        at = len(zero) + np.arange(len(copies))
        X[i, at] = 1
        X[j, at] = -a
    P = block.pivots
    X = (X - integer_matmul(block.reduced, X[P] % p, p)) % p
    kept = np.ones(d, dtype=bool)
    kept[P] = False
    free = np.flatnonzero(kept)
    kept[free[_eliminate(X[free], block.order[free])[0]]] = False
    return tuple(np.flatnonzero(kept).tolist())


def cholesky_shift(A: np.ndarray, entry_error_bound: float = 0.0) -> float:
    """The diagonal shift of `certified_pd`, rounded upward:

        gamma / (1 - 2 gamma) * trace(A)          Cholesky rounding (Rump)
        + 16 r (r + 2 + max_i a_ii) * 2^-1074     underflow, generously
        + r * entry_error_bound                   float conversion

    with gamma = (r+1) u / (1 - (r+1) u) and u = 2^-53, so that
    gamma / (1 - 2 gamma) = (r+1) / (2^53 - 3 (r+1)).  The sum is formed
    exactly from an upper bound on the trace, as one integer fraction P / Q
    over Q = (2^53 - 3 (r+1)) 2^2148 (every float is an integer over a
    power of two up to 2^1074), and rounded up once.  Assumes a_ii >= 0.
    """
    r = A.shape[0]
    diag = np.diagonal(A).tolist()
    # fsum is correctly rounded, so one step up bounds the exact trace
    tn, td = math.nextafter(math.fsum(diag), math.inf).as_integer_ratio()
    mn, md = max(diag, default=0.0).as_integer_ratio()
    en, ed = float(entry_error_bound).as_integer_ratio()
    d0 = 2**53 - 3 * (r + 1)
    top = 2**2148
    P = (
        (r + 1) * tn * (top // td)
        + d0 * (16 * r * ((r + 2) * md + mn) * (2**1074 // md) + r * en * (top // ed))
    )
    Q = d0 * top
    up = P / Q  # correctly rounded
    a, b = up.as_integer_ratio()
    return up if a * Q >= P * b else math.nextafter(up, math.inf)


def certified_pd(A: np.ndarray, entry_error_bound: float = 0.0) -> bool:
    """Rigorous proof that the exact matrix approximated by A is PD.

    `entry_error_bound` bounds |A_exact[i][j] - A[i][j]| elementwise.
    Rump, "Verification of positive definiteness", BIT 46 (2006): if
    floating Cholesky of fl(A - s I) runs to completion, with A of
    nonnegative diagonal, then lambda_min(A) > s - c, where c is
    gamma_{r+1}/(1 - 2 gamma_{r+1}) * trace(A) plus an underflow term.  The
    conversion moves each eigenvalue by at most r * entry_error_bound, so
    s = `cholesky_shift` proves the exact matrix PD.  A True return is a
    proof (up to IEEE-754 conformance); False is merely inconclusive, and
    so is any negative diagonal entry.

    A must be a float64 array, and the caller gives it up: it is shifted in
    place and holds fl(A - s I) on return, unless a negative diagonal entry
    made the call return False untouched.
    """
    if A.dtype != np.float64:
        raise TypeError(f"certified_pd needs a float64 array, got {A.dtype}")
    r = A.shape[0]
    if r == 0:
        return True
    if np.any(np.diagonal(A) < 0):
        return False
    A.flat[:: r + 1] -= cholesky_shift(A, entry_error_bound)  # bitwise fl(A - s I)
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return False
    return True
