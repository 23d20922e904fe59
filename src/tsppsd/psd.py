"""Positive-semidefiniteness decisions, membership in P_k, and boundary
certificates.

Membership of a functional in P_k is decided on its degree-k moment matrix
M = N / scale, in one pipeline for every k: the kernel vectors known
exactly are quotiented out, which reduces M (at k = 1, its matrix G in a
symmetry-adapted basis) to a principal submatrix, and `_decide_reduced`
decides that block.  There are two builders.
`membership_p1` takes the closed-form degree-1 matrix, at any n up to the
cap; `membership_pk_enumerated` takes the matrix of any degree k over the
enumerated tours, up to the cycle cap.  The pipeline, fastest first:

1. quotient out the kernel vectors known exactly:

   * k = 1, closed form: vertices u and v are twins when c_uw = c_vw for
     every other vertex w, and f, hence M, is invariant under the
     symmetric groups of the twin classes (`symmetry`).  M is taken to
     G = U^T N U / scale in an integer symmetry-adapted basis U, one
     column per copy of each irreducible representation.  G needs only one
     closed-form row of N per distinct representative of a column of U
     (`ClosedFormK1.rows`), c rows or fewer in place of 1 + C(n, 2): within
     a type G[i, j] = kappa_i (N U_j)[rep_i], and between types G is 0.
     The degree relations are checked exactly on every row read, which
     also checks the corner; then the functional's average over the
     tours, which must be 1, is read from G[0, 0] / scale = N[0, 0] /
     scale.  Each type block of G must be symmetric (checked exactly), M
     is PSD iff G is, and a witness y of G lifts to U y, checked on the
     whole M.  The kernel vectors of G known exactly are the images of
     the degree relations (one per class, one per class of two or more
     vertices), the unit vector of each zero row, and e_O - |O| e_0 for
     each edge orbit O whose row is |O| times the constant row; their
     pivots come from `linalg.nonsingular_block`, which proves them.
     Every facet kind of the benchmark grid, up to n = 60 where M has
     dimension 1771, reads at most a few dozen rows of N (58 for a
     two-matching facet with five teeth) and reaches step 2 with a
     definite block of at most a few dozen coordinates, which needs no
     eigendecomposition.  Without twins U = I, every row is a
     representative and G = M;
   * any k, enumerated: the structural relations of `moment.tour_relations`
     (a repeated edge collapses, x_e^2 m = x_e m, and each degree relation
     times each monomial of degree <= k - 1), with a pivot block proved
     nonsingular once per (n, k) and relabeled to a pairing vertex, checked
     exactly with `annihilates` on every call; then the unit vector of each
     zero row and e_i - e_j for each repeated row, read from N off the
     pivots.  At n = 8, k = 2 this takes the 435-dimensional matrix of the
     all-ones functional to its rank, 203;
2. try a rigorous floating-point Cholesky certificate of definiteness on
   one float matrix, the correctly rounded N / scale gathered on the kept
   coordinates, which the Cholesky shifts in place (it is rebuilt only
   when the certificate fails and step 3 needs it);
3. if the reduced matrix is numerically singular, deflate exact kernel
   vectors reconstructed from the numerical nullspace (each one re-verified
   in exact integer arithmetic before use) and retry; if it is clearly
   indefinite, round the LAPACK eigenvector of the smallest eigenvalue to
   an integer vector and keep it as the witness when v^T M v < 0 holds
   exactly on the integer numerators of M;
4. fall back to fraction-free Bareiss elimination on those integer
   numerators, which is always conclusive and produces an exact witness
   when the answer is NOT_PSD; above `EXACT_FALLBACK_CAP` reduced
   coordinates its cost is out of reach and ResourceLimitError is raised.

Every PSD verdict is therefore backed by either an exact elimination or a
rigorous floating-point proof; every NOT_PSD verdict carries an exact
integer witness vector on the whole matrix: at k = 1 the vector U y for a
witness y of the kept block of G (zero on its dropped coordinates), at
k >= 2 a vector zero on the dropped coordinates.  `PsdVerdict.method`
names the step that decided.  Verdicts do not depend on the machine.  A
witness from step 3 comes from LAPACK, so the vector itself is
deterministic per machine only.  `is_psd_exact` (Bareiss on the whole
matrix) and `is_psd_float` (a tolerance verdict) decide a given matrix
without the quotient.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from tsppsd.cycles import (
    DEFAULT_CYCLE_CAP,
    Edge,
    edge,
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
    relation_complement,
    zero_one_certificate,
)
from tsppsd.polynomials import CertificatePolynomial, edge_monomial, one_minus_edge
from tsppsd.rational import clear_denominators
from tsppsd.symmetry import AdaptedBasis, adapted_basis, kept_coordinates, twin_classes

DEFAULT_EXACT_CAP = 60
FLOAT_TOLERANCE = 1e-10  # relative tolerance of the `is_psd_float` verdict
# Largest reduced dimension r on which the membership decisions run exact
# Bareiss: r = 190 at n = 21 for k = 1 without twins, and every k = 2
# block up to n = 7 (r <= 99).  Its cost grows about as r^5: on a 2-CPU
# Xeon r = 171 (n = 20) takes 3.4 s and r = 253 (n = 24) 24 s, and
# r = 1711 (n = 60) would take days.
EXACT_FALLBACK_CAP = 200


@dataclass(frozen=True)
class PsdVerdict:
    """A decision on a moment matrix M.  `min_eigenvalue_estimate` is a
    float estimate of the least eigenvalue of the block that was decided:
    of M itself for `is_psd_float`, of the kept block for the membership
    decisions, which at k = 1 is a block of G = U^T M U in the adapted
    basis U and not of M.  It is None when no eigendecomposition ran."""

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


def _check_star_kernel(cf: ClosedFormK1, R: np.ndarray | None = None) -> None:
    """Tripwire: the degree relations must annihilate the rows R of the
    matrix, all of it by default.  The property holds structurally for
    every closed-form moment matrix, so a failure means a transcription
    bug."""
    if not cf.star_kernel_verified(R):
        raise RuntimeError("degree relations not in matrix kernel")


def require_unit_average(avg: Fraction) -> None:
    """Refuse a functional whose average over X is not exactly 1."""
    if avg != 1:
        raise ValueError(f"membership requires average exactly 1 on X, got {avg}")


def membership_p1(
    f: LinearFunctional, exact_cap: int = DEFAULT_EXACT_CAP
) -> PsdVerdict:
    """Decide membership of f in the first relaxation, any n up to the cap."""
    if f.n > exact_cap:
        raise ResourceLimitError(f"n={f.n} exceeds exact membership cap {exact_cap}")
    cf = closed_form_k1(f)
    # the quotient checks the degree relations on every row it reads, the
    # constant row among them, so also the corner read as the average
    G, U, keep = _adapted_quotient(cf)
    require_unit_average(G.entry(0, 0))  # the average of f over X, N[0, 0]
    verdict = _lifted(_decide_reduced(G, keep), keep, G.dim)
    if U is None or verdict.witness is None:
        return verdict
    w = U.times(verdict.witness).tolist()
    # w^T N w = y^T G y when G is exact; checked on M, so a wrong G cannot
    # pass a witness
    if cf.quadratic_form(w) >= 0:
        raise RuntimeError("lifted witness does not certify")
    return replace(verdict, witness=tuple(w))


def _lifted(verdict: PsdVerdict, keep: list[int], dim: int) -> PsdVerdict:
    """The verdict on the kept block as a verdict on the whole matrix: a
    witness is padded with zeros on the dropped coordinates."""
    if verdict.witness is None:
        return verdict
    full = [0] * dim
    for pos, i in enumerate(keep):
        full[i] = verdict.witness[pos]
    return replace(verdict, witness=tuple(full))


def _adapted_quotient(
    cf: ClosedFormK1,
) -> tuple[MomentMatrix, AdaptedBasis | None, list[int]]:
    """The matrix G = U^T N U / scale of the form in the adapted basis U of
    the twin group of f (`symmetry`; G = M and U = None when the group is
    trivial), and the coordinates of a complement in G of the kernel
    vectors known exactly (`symmetry.kept_coordinates`):

    * the images of the degree relations, which M annihilates;
    * the unit vector of each zero row of G;
    * e_O - |O| e_0 for the indicator of each edge orbit O whose row is |O|
      times the constant row (at |O| = 1, 1 - x_e for an edge row equal to
      the constant row).

    G is formed from the rows of N at the representatives of the columns
    of U (`AdaptedBasis.gram`), one row per distinct representative, and N
    is never built unless U is the identity, where every row is one.  The
    degree relations are checked exactly on every row read
    (`_check_star_kernel`): the images of the relations are combinations
    of the relations, and each row of G on their type is a multiple of one
    row read, so this proves that G annihilates them.  Every vector is then
    a kept vector plus a kernel vector, the form on G is the form on the
    kept block, and a certified PD kept block proves M PSD.  Raises
    RuntimeError if a type block of G is not symmetric: M is invariant
    under the group by construction, so that means a transcription bug.
    """
    U, shape = adapted_basis(twin_classes(cf.C))
    G: MomentMatrix = cf
    if U is None:
        _check_star_kernel(cf)
    else:
        reps, at = np.unique(U.rep, return_inverse=True)
        R = cf.rows(reps)
        _check_star_kernel(cf, R)
        N = U.gram(R, at)
        index = range(len(N))
        G = MomentMatrix(
            1, [(j,) for j in index], map(str, index), N, cf.scale, n=cf.n
        )
    N = G.N
    sizes = shape.orbit_sizes
    # a row |O| times the constant row has the diagonal |O|^2 N[0, 0]; a
    # product that wraps in int64 only lets a candidate through, which the
    # comparison in Python ints then refuses
    square = sizes.astype(N.dtype) ** 2 * N[0, 0]
    row0 = N[0].tolist()
    copies = tuple(
        j
        for j in np.flatnonzero((sizes > 0) & (N.diagonal() == square)).tolist()
        if N[j].tolist() == [int(sizes[j]) * x for x in row0]
    )
    zero = tuple(G.zero_rows())
    return G, U, list(kept_coordinates(shape.sizes, zero, copies))


def _decide_reduced(cf: MomentMatrix, keep: list[int]) -> PsdVerdict:
    if not keep:
        return PsdVerdict("PSD", method="trivial")
    err = cf.float_entry_error_bound()
    if certified_pd(cf.float_matrix(keep), err):
        return PsdVerdict("PSD", method="certified-cholesky")
    A = cf.float_matrix(keep)  # certified_pd shifted its copy
    evals, vecs = np.linalg.eigh(A)
    scale = max(1.0, float(np.max(np.abs(A))))
    lam_min = float(evals[0])
    if lam_min > -1e-7 * scale:
        sub_keep = _deflate_numerical_kernel(cf, keep, evals, vecs, scale)
        if sub_keep is not None:
            if certified_pd(cf.float_matrix(sub_keep), err):
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
) -> list[int] | None:
    """Reconstruct exact kernel vectors from the numerical nullspace.

    Returns the coordinates left after dropping one pivot per kernel vector,
    or None if any candidate fails exact verification.
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
    return [keep[j] for j in range(r) if j not in set(pivots)]


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
    """Decide membership of f in the degree-k relaxation on its full
    enumerated degree <= k moment matrix, through `_decide_reduced`."""
    require_unit_average(average_on_x(f))
    M = moment_matrix_enumerated_cycles(f.n, f, k, cycle_cap, basis_cap)
    keep = _structural_quotient(M)
    return _lifted(_decide_reduced(M, keep), keep, M.dim)


def _structural_quotient(M: MomentMatrix) -> list[int]:
    """Coordinates of a complement of the kernel vectors of the enumerated
    tour moment matrix M that are known exactly.

    They are the structural relations R[:, Q] of `relation_complement`, with
    pivots P, at a pairing vertex w, and, read from N outside P, the unit
    vector of each zero row and e_i - e_j for each row i equal to an earlier
    row j (N is symmetric by construction).  The vectors read from N vanish
    on P, so their matrix on the pivots (P, the zero rows, the later rows of
    each class) is block triangular with R[P, Q] and identities on the
    diagonal, hence nonsingular, and needs no proof per call.  As at k = 1,
    every vector is then a kept vector plus a kernel vector, and a certified
    PD kept block proves M PSD.  A pivot on a zero row or on a row of a
    class loses that kernel vector, so w is the first vertex that drops the
    most coordinates.  Raises RuntimeError if M does not annihilate R[:, Q]:
    the property is structural, so a failure means a transcription bug.
    """
    rc = relation_complement(M.n, M.k)
    zero = M.zero_rows()
    classes = M.equal_rows()

    def dropped(w: int) -> np.ndarray:
        drop = np.zeros(M.dim, dtype=bool)
        drop[rc.pivots_at(w)] = True
        for members in classes:  # disjoint, and without zero rows
            drop[[i for i in members if not drop[i]][1:]] = True
        drop[zero] = True
        return drop

    w, drop = max(
        ((w, dropped(w)) for w in range(1, M.n + 1)),
        key=lambda t: np.count_nonzero(t[1]),
    )
    if not M.annihilates(rc.relations_at(w)):
        raise RuntimeError("structural relations not in matrix kernel")
    return np.flatnonzero(~drop).tolist()


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
