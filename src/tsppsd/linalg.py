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

`exact_ldlt` is the only exact elimination: ranks of integer vector
families are the Bareiss ranks of their Gram matrices.

Floating-point eigenvalues, where a caller needs them, come from LAPACK
(`np.linalg.eigh` / `eigvalsh`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

Rows = Sequence[Sequence[int]]


@dataclass
class LdltResult:
    is_psd: bool
    rank: int
    witness: list[int] | None  # exact v with v^T M v < 0 when not PSD


def integer_matmul(A: np.ndarray, B: np.ndarray, a_max: int | None = None) -> np.ndarray:
    """Exact A @ B for integer arrays, as an integer array: float64 BLAS
    while every partial sum is an integer below 2^53, int64 below 2^63,
    Python ints beyond.  `a_max` bounds |A| when the caller knows it."""
    if a_max is None:
        a_max = int(np.abs(A).max(initial=0))
    bound = a_max * int(np.abs(B).sum(axis=0).max(initial=0))
    if bound < 2**53:
        return (A.astype(float) @ B.astype(float)).astype(np.int64)
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


UNIT_ROUNDOFF = Fraction(1, 2**53)  # u of IEEE-754 binary64
SUBNORMAL_MIN = Fraction(1, 2**1074)  # smallest positive binary64


def cholesky_shift(A: np.ndarray, entry_error_bound: float = 0.0) -> float:
    """The diagonal shift of `certified_pd`, rounded upward:

        gamma / (1 - 2 gamma) * trace(A)          Cholesky rounding (Rump)
        + 16 r (r + 2 + max_i a_ii) * 2^-1074     underflow, generously
        + r * entry_error_bound                   float conversion

    with gamma = (r+1) u / (1 - (r+1) u) and u = 2^-53.  The sum is formed
    from an upper bound on the trace and rounded up once.  Assumes
    a_ii >= 0.
    """
    r = A.shape[0]
    diag = np.diagonal(A).tolist()
    # fsum is correctly rounded, so one step up bounds the exact trace
    trace = Fraction(math.nextafter(math.fsum(diag), math.inf))
    gamma = (r + 1) * UNIT_ROUNDOFF / (1 - (r + 1) * UNIT_ROUNDOFF)
    shift = (
        gamma / (1 - 2 * gamma) * trace
        + 16 * r * (r + 2 + Fraction(max(diag, default=0.0))) * SUBNORMAL_MIN
        + r * Fraction(entry_error_bound)
    )
    up = float(shift)
    return up if Fraction(up) >= shift else math.nextafter(up, math.inf)


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
    """
    r = A.shape[0]
    if r == 0:
        return True
    if np.any(np.diagonal(A) < 0):
        return False
    B = np.array(A, dtype=np.float64)  # the one work array besides the factor
    B.flat[:: r + 1] -= cholesky_shift(A, entry_error_bound)  # bitwise fl(A - s I)
    try:
        np.linalg.cholesky(B)
    except np.linalg.LinAlgError:
        return False
    return True
