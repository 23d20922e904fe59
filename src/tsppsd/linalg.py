"""Exact and certified linear algebra for symmetric rational matrices.

Three engines:

* `exact_ldlt`: symmetric fraction-free Bareiss elimination (Bareiss 1968,
  Math. Comp. 22) on Python integers, with full diagonal pivoting and rank
  detection.  Denominators are cleared once; after that every step divides
  exactly by the previous pivot, so entries stay minors of the input and no
  rational arithmetic is needed.  Semidefinite inputs are the normal case
  here (every tour moment matrix has the vertex-degree relations in its
  kernel), so a zero pivot is not an error: the matrix is PSD iff every
  pivot is positive and the block left after the last positive pivot is
  identically zero.  Indefiniteness yields an exact integer witness vector.

* `certified_pd`: a rigorous floating-point positive-definiteness proof.
  If floating Cholesky succeeds on A - shift*I, the standard backward-error
  bound for Cholesky puts lambda_min(A) above shift minus the error margin;
  choosing shift above (margin + an elementwise bound on the exact-to-float
  conversion error) makes success a proof that the exact matrix is PD.
  Failure proves nothing and callers fall back to `exact_ldlt`.

* `jacobi_eigh`: deterministic cyclic-sweep Jacobi eigendecomposition used
  for tolerance-based float verdicts and small spectral cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

Rows = Sequence[Sequence[Fraction | int]]


@dataclass
class LdltResult:
    is_psd: bool
    rank: int
    witness: list[int] | None  # exact v with v^T M v < 0 when not PSD


def _witness_value(M: Rows, v: Sequence[Fraction | int]) -> Fraction | int:
    """Exact v^T M v; zero entries of v are skipped."""
    support = [j for j, x in enumerate(v) if x]
    return sum((v[i] * sum(M[i][j] * v[j] for j in support) for i in support), 0)


def exact_ldlt(matrix: Rows) -> LdltResult:
    """Decide positive semidefiniteness of a symmetric rational matrix."""
    d = len(matrix)
    den = math.lcm(*{x.denominator for row in matrix for x in row})
    # a positive scale changes neither the verdict nor the witnesses
    ints = [[x.numerator * (den // x.denominator) for x in row] for row in matrix]
    A = [row[:] for row in ints]
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
        if _witness_value(ints, v) >= 0:
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


def certified_pd(A: np.ndarray, entry_error_bound: float = 0.0) -> bool:
    """Rigorous proof that the exact matrix approximated by A is PD.

    `entry_error_bound` bounds |A_exact[i][j] - A[i][j]| elementwise.  A
    True return is a proof (up to IEEE-754 conformance); False is merely
    inconclusive.
    """
    r = A.shape[0]
    if r == 0:
        return True
    eps = float(np.finfo(np.float64).eps)  # 2^-52
    B = np.abs(A, dtype=np.float64)  # the one work array besides the factor
    norm = float(np.max(B.sum(axis=1)))
    # ||dA||_2 <= r * entry_error_bound for the conversion, and the Cholesky
    # backward error is within c*(r+1)*eps*||A||; factor 8 absorbs blocked
    # LAPACK constants and the rounding of the shift subtraction itself.
    margin = 8.0 * (r + 1) * eps * max(norm, 1.0)
    conversion = r * entry_error_bound
    shift = margin + conversion
    np.copyto(B, A)
    B.flat[:: r + 1] -= shift  # bitwise A - shift * I
    try:
        np.linalg.cholesky(B)
    except np.linalg.LinAlgError:
        return False
    return True


def jacobi_eigh(
    A: np.ndarray,
    tol: float = 1e-13,
    max_sweeps: int = 30,
) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic-by-rows Jacobi eigendecomposition of a symmetric matrix.

    Deterministic sweep order; returns (eigenvalues ascending, eigenvectors
    as columns).  Row/column rotations are vectorized.
    """
    n = A.shape[0]
    M = A.astype(float).copy()
    V = np.eye(n)
    if n <= 1:
        return np.diag(M).copy(), V
    scale = max(1.0, float(np.max(np.abs(M))))
    for _ in range(max_sweeps):
        off = math.sqrt(max(0.0, float(np.sum(M * M) - np.sum(np.diag(M) ** 2))))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = M[p, q]
                if abs(apq) <= 1e-300:
                    continue
                diff = M[q, q] - M[p, p]
                if abs(apq) < 1e-36 * abs(diff):
                    t = apq / diff
                else:
                    phi = diff / (2.0 * apq)
                    t = 1.0 / (abs(phi) + math.sqrt(phi * phi + 1.0))
                    if phi < 0.0:
                        t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rp = M[p, :].copy()
                rq = M[q, :].copy()
                M[p, :] = c * rp - s * rq
                M[q, :] = s * rp + c * rq
                cp = M[:, p].copy()
                cq = M[:, q].copy()
                M[:, p] = c * cp - s * cq
                M[:, q] = s * cp + c * cq
                M[p, q] = 0.0
                M[q, p] = 0.0
                vp = V[:, p].copy()
                V[:, p] = c * vp - s * V[:, q]
                V[:, q] = s * vp + c * V[:, q]
    evals = np.diag(M).copy()
    order = np.argsort(evals, kind="stable")
    return evals[order], V[:, order]


class RationalRowReducer:
    """Incremental exact Gaussian elimination for rank/span queries."""

    def __init__(self) -> None:
        self._rows: dict[int, dict[int, Fraction]] = {}  # pivot col -> row

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, vector: dict[int, Fraction]) -> bool:
        """Reduce `vector` against the span; returns True if rank grew."""
        v = {c: x for c, x in vector.items() if x}
        while v:
            piv = min(v)
            row = self._rows.get(piv)
            if row is None:
                inv = 1 / v[piv]
                self._rows[piv] = {c: x * inv for c, x in v.items()}
                return True
            fac = v[piv]
            for c, x in row.items():
                nv = v.get(c, Fraction(0)) - fac * x
                if nv:
                    v[c] = nv
                else:
                    v.pop(c, None)
        return False

    def contains(self, vector: dict[int, Fraction]) -> bool:
        v = {c: x for c, x in vector.items() if x}
        while v:
            piv = min(v)
            row = self._rows.get(piv)
            if row is None:
                return False
            fac = v[piv]
            for c, x in row.items():
                nv = v.get(c, Fraction(0)) - fac * x
                if nv:
                    v[c] = nv
                else:
                    v.pop(c, None)
        return True
