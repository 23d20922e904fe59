"""Positive-semidefiniteness decisions, membership in P_k, and boundary
certificates.

Membership of a functional in P_1 is decided on its closed-form degree-1
moment matrix.  The decision pipeline, fastest first:

1. quotient out the always-present kernel (one degree relation per vertex),
   which reduces to a principal submatrix;
2. strip exactly-zero rows;
3. try a rigorous floating-point Cholesky certificate of definiteness;
4. if the reduced matrix is numerically singular, deflate exact kernel
   vectors reconstructed from the numerical nullspace (each one re-verified
   in exact integer arithmetic before use) and retry; if it is clearly
   indefinite, round the LAPACK eigenvector of the smallest eigenvalue to
   an integer vector and keep it as the witness when v^T M v < 0 holds
   exactly on the integer numerators of M;
5. fall back to fraction-free Bareiss elimination on those integer
   numerators, which is always conclusive and produces an exact witness
   when the answer is NOT_PSD; above `EXACT_FALLBACK_CAP` reduced
   coordinates its cost is out of reach and ResourceLimitError is raised.

Every PSD verdict is therefore backed by either an exact elimination or a
rigorous floating-point proof; every NOT_PSD verdict carries an exact
integer witness vector.  Verdicts do not depend on the machine.  A witness
from step 4 comes from LAPACK, so the vector itself is deterministic per
machine only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from tsppsd.cycles import (
    DEFAULT_CYCLE_CAP,
    Edge,
    edge,
    edge_index,
)
from tsppsd.errors import ResourceLimitError
from tsppsd.functionals import FacetSpec, LinearFunctional, average_on_x
from tsppsd.linalg import certified_pd, exact_ldlt
from tsppsd.moment import (
    ClosedFormK1,
    DEFAULT_BASIS_CAP,
    GroundSet,
    MomentMatrix,
    closed_form_k1,
    moment_matrix_enumerated_cycles,
    quadratic_form_value,
    zero_one_certificate,
)
from tsppsd.polynomials import CertificatePolynomial, edge_monomial, one_minus_edge
from tsppsd.rational import clear_denominators

DEFAULT_EXACT_CAP = 60
FLOAT_TOLERANCE = 1e-10  # relative tolerance of the `is_psd_float` verdict
# Largest reduced dimension r on which `membership_p1` runs exact Bareiss
# (r = 190 at n = 21).  Its cost grows about as r^5: on a 2-CPU Xeon
# r = 171 (n = 20) takes 3.4 s and r = 253 (n = 24) 24 s, and r = 1711
# (n = 60) would take days.
EXACT_FALLBACK_CAP = 200


@dataclass(frozen=True)
class PsdVerdict:
    status: str  # "PSD" | "NOT_PSD"
    witness: tuple[int, ...] | None = None
    min_eigenvalue_estimate: float | None = None
    method: str = "exact-ldlt"

    @property
    def is_psd(self) -> bool:
        return self.status == "PSD"


def is_psd_exact(M: MomentMatrix) -> PsdVerdict:
    """Exact decision by fraction-free Bareiss elimination on N = scale * M."""
    res = exact_ldlt(M.numerators().tolist())
    if res.is_psd:
        return PsdVerdict("PSD", method="exact-ldlt")
    return PsdVerdict("NOT_PSD", witness=tuple(res.witness), method="exact-ldlt")


def is_psd_float(M: MomentMatrix, tol: float = FLOAT_TOLERANCE) -> PsdVerdict:
    """Tolerance verdict from a LAPACK eigendecomposition.

    PSD iff lambda_min >= -tol * max(1, ||M||_inf).  A NOT_PSD verdict
    attaches a witness only when the rounded eigenvector certifies
    v^T M v < 0 in exact arithmetic.  The estimate and the witness are
    deterministic per machine only.
    """
    A = M.to_float()  # correctly rounded, so bitwise float(M[i][j])
    evals, vecs = np.linalg.eigh(A)
    lam = float(evals[0])
    scale = max(1.0, float(np.max(np.sum(np.abs(A), axis=1)))) if A.size else 1.0
    if lam >= -tol * scale:
        return PsdVerdict("PSD", min_eigenvalue_estimate=lam, method="float-eigh")
    v = _integer_direction(vecs[:, 0])
    return PsdVerdict(
        "NOT_PSD",
        witness=tuple(v) if M.quadratic_form(v) < 0 else None,
        min_eigenvalue_estimate=lam,
        method="float-eigh",
    )


def _integer_direction(x: np.ndarray) -> list[int]:
    """x scaled so that its first largest-magnitude entry is 2^20, rounded
    to integers; dividing by that entry fixes the sign."""
    peak = x[int(np.argmax(np.abs(x)))]
    return np.rint(x / peak * 2**20).astype(np.int64).tolist()


def _check_star_kernel(cf: ClosedFormK1) -> None:
    """Tripwire: the degree relations must annihilate the matrix.  The
    property holds structurally for every closed-form moment matrix, so a
    failure means a transcription bug."""
    if not cf.star_kernel_verified():
        raise RuntimeError("degree relations not in matrix kernel")


def membership_p1(
    f: LinearFunctional, exact_cap: int = DEFAULT_EXACT_CAP
) -> PsdVerdict:
    """Decide membership of f in the first relaxation, any n up to the cap."""
    if f.n > exact_cap:
        raise ResourceLimitError(f"n={f.n} exceeds exact membership cap {exact_cap}")
    avg = average_on_x(f)
    if avg != 1:
        raise ValueError(
            f"membership requires average exactly 1 on X, got {avg}"
        )
    cf = closed_form_k1(f)
    n = cf.n
    # cheap transcription tripwire; the kernel property itself is structural
    _check_star_kernel(cf)
    # The n degree relations pair invertibly with {constant, edges at vertex
    # 1}, so dropping those coordinates restricts the form to a complement
    # of the known kernel.
    dropped = {0} | {1 + edge_index(edge(1, j), n) for j in range(2, n + 1)}
    zero = set(cf.zero_rows())
    keep = [i for i in range(cf.dim) if i not in dropped and i not in zero]
    verdict = _decide_reduced(cf, keep)
    if verdict.witness is not None:
        full = [0] * cf.dim
        for pos, i in enumerate(keep):
            full[i] = verdict.witness[pos]
        verdict = PsdVerdict(
            verdict.status,
            witness=tuple(full),
            min_eigenvalue_estimate=verdict.min_eigenvalue_estimate,
            method=verdict.method,
        )
    return verdict


def _decide_reduced(cf: MomentMatrix, keep: list[int]) -> PsdVerdict:
    if not keep:
        return PsdVerdict("PSD", method="trivial")
    A = cf.float_matrix(keep)
    err = cf.float_entry_error_bound()
    if certified_pd(A, err):
        return PsdVerdict("PSD", method="certified-cholesky")
    evals, vecs = np.linalg.eigh(A)
    scale = max(1.0, float(np.max(np.abs(A))))
    lam_min = float(evals[0])
    if lam_min > -1e-7 * scale:
        deflated = _deflate_numerical_kernel(cf, keep, evals, vecs, scale)
        if deflated is not None:
            sub_keep, lam = deflated
            B = cf.float_matrix(sub_keep)
            if certified_pd(B, err):
                return PsdVerdict(
                    "PSD",
                    min_eigenvalue_estimate=lam_min,
                    method="certified-cholesky+deflation",
                )
    else:
        v = _integer_direction(vecs[:, 0])
        if cf.quadratic_form(v, keep) < 0:
            return PsdVerdict(
                "NOT_PSD",
                witness=tuple(v),
                min_eigenvalue_estimate=lam_min,
                method="eigenvector-witness",
            )
    # conclusive exact path on the integer numerators N = scale * M
    if len(keep) > EXACT_FALLBACK_CAP:
        raise ResourceLimitError(
            f"exact fallback on a reduced matrix of dimension {len(keep)} "
            f"exceeds cap {EXACT_FALLBACK_CAP}"
        )
    res = exact_ldlt(cf.numerators(keep).tolist())
    if res.is_psd:
        return PsdVerdict(
            "PSD", min_eigenvalue_estimate=lam_min, method="exact-ldlt"
        )
    return PsdVerdict(
        "NOT_PSD",
        witness=tuple(res.witness),
        min_eigenvalue_estimate=lam_min,
        method="exact-ldlt",
    )


def _deflate_numerical_kernel(
    cf: MomentMatrix,
    keep: list[int],
    evals: np.ndarray,
    vecs: np.ndarray,
    scale: float,
) -> tuple[list[int], float] | None:
    """Reconstruct exact kernel vectors from the numerical nullspace.

    Returns surviving coordinates and the smallest nonkernel eigenvalue, or
    None if any candidate fails exact verification.
    """
    null_mask = np.abs(evals) <= 1e-8 * scale
    kdim = int(np.count_nonzero(null_mask))
    if kdim == 0 or kdim == len(keep):
        return None
    W = vecs[:, null_mask].T.copy()  # kdim x r
    r = W.shape[1]
    pivots: list[int] = []
    for row in range(kdim):
        cand = int(np.argmax(np.abs(W[row])))
        if abs(W[row, cand]) < 1e-6:
            return None
        W[row] /= W[row, cand]
        for other in range(kdim):
            if other != row:
                W[other] -= W[other, cand] * W[row]
        pivots.append(cand)
    for row in range(kdim):
        w = [Fraction(x).limit_denominator(10**8) for x in W[row]]
        w = [x if abs(float(x)) > 1e-10 else Fraction(0) for x in w]
        if not _kernel_vector_verified(cf, keep, w):
            return None
    sub_keep = [keep[j] for j in range(r) if j not in set(pivots)]
    lam = float(evals[~null_mask][0]) if np.any(~null_mask) else 0.0
    return sub_keep, lam


def _kernel_vector_verified(
    cf: MomentMatrix, keep: list[int], w: list[Fraction]
) -> bool:
    """Exact check that M restricted to `keep` annihilates w: w scaled to
    integers by its common denominator, times the integer numerator matrix
    of M, must vanish."""
    (column,), _ = clear_denominators([w])
    return cf.annihilates(np.array(column, dtype=object)[:, None], keep)


def membership_pk_enumerated(
    f: LinearFunctional,
    k: int,
    cycle_cap: int = DEFAULT_CYCLE_CAP,
    basis_cap: int = DEFAULT_BASIS_CAP,
) -> PsdVerdict:
    """Exact membership decision on the full degree <= k moment matrix."""
    avg = average_on_x(f)
    if avg != 1:
        raise ValueError(f"membership requires average exactly 1 on X, got {avg}")
    M = moment_matrix_enumerated_cycles(f.n, f, k, cycle_cap, basis_cap)
    return is_psd_exact(M)


def boundary_certificate(spec: FacetSpec) -> CertificatePolynomial:
    """The 0/1 polynomial certifying that the facet functional sits on the
    boundary of the relaxation of matching degree."""
    n = spec.n
    if spec.kind == "edge-upper":
        if spec.edge is None:
            raise ValueError("edge bound needs an edge")
        return edge_monomial(n, [spec.edge])
    if spec.kind == "edge-lower":
        if spec.edge is None:
            raise ValueError("edge bound needs an edge")
        return one_minus_edge(n, spec.edge)
    if spec.kind == "subtour":
        U = sorted(set(spec.U))
        if len(U) < 2:
            raise ValueError("subtour certificate needs |U| >= 2")
        path = [edge(U[i], U[i + 1]) for i in range(len(U) - 1)]
        return edge_monomial(n, path)
    if spec.kind == "two-matching":
        return _two_matching_certificate(spec)
    raise ValueError(f"no boundary certificate for kind {spec.kind!r}")


def _two_matching_certificate(spec: FacetSpec) -> CertificatePolynomial:
    Uset = set(spec.U)
    F = sorted(set(spec.F))
    size = len(F)
    if size < 3 or size % 2 == 0:
        raise ValueError(f"need |F| >= 3 odd, got {size}")
    s = (size - 1) // 2
    ell: list[int] = []
    outer: list[int] = []
    for e in F:
        inside = [x for x in e if x in Uset]
        if len(inside) != 1:
            raise ValueError(f"F edge {e.u}-{e.v} must cross the cut exactly once")
        ell.append(inside[0])
        outer.append(e.v if inside[0] == e.u else e.u)
    ell.extend(sorted(Uset - set(ell)))
    m = len(ell)
    factors: list[Edge] = []
    factors.extend(edge(ell[i], outer[i]) for i in range(2 * s + 1))
    factors.extend(edge(ell[2 * j - 2], ell[2 * j - 1]) for j in range(1, s + 1))
    factors.extend(edge(ell[k], ell[k + 1]) for k in range(2 * s, m - 1))
    return edge_monomial(spec.n, factors)


def verify_certificate(
    f: LinearFunctional,
    p: CertificatePolynomial,
    n: int,
    cycle_cap: int = DEFAULT_CYCLE_CAP,
) -> bool:
    """True iff the quadratic form vanishes exactly on the certificate."""
    return quadratic_form_value(f, p, n, cycle_cap) == 0


@dataclass(frozen=True)
class CollapseReport:
    in_q: bool
    witness_point: tuple[Fraction, ...] | None = None
    certificate: CertificatePolynomial | None = None
    q_value: Fraction | None = None


def zero_one_collapse_check(
    X: GroundSet, values: Sequence[Fraction | int]
) -> CollapseReport:
    """On a 0/1 ground set, a negative value of f at y is certified by the
    indicator polynomial p_y: q_f(p_y) = f(y)/|X| < 0, so f is outside the
    full-degree relaxation; otherwise f is in the dual body."""
    if len(values) != len(X.points):
        raise ValueError("need one value per point")
    vals = [Fraction(v) for v in values]
    for y, fy in zip(X.points, vals):
        if fy < 0:
            cert = zero_one_certificate(y, X)
            total = sum(
                (fv * cert.evaluate(pt) ** 2 for pt, fv in zip(X.points, vals)),
                Fraction(0),
            )
            q_val = total / len(X.points)
            if q_val != fy / len(X.points):
                raise RuntimeError("certificate value mismatch")
            return CollapseReport(False, y, cert, q_val)
    return CollapseReport(True)
