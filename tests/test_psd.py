import math
import random
from fractions import Fraction

import numpy as np
import pytest

from tsppsd.cycles import all_edges, edge, edge_index
from tsppsd.errors import ResourceLimitError
from tsppsd.functionals import (
    FacetSpec,
    average_on_x,
    combine,
    functional_from_spec,
    functional_to_spec,
    make_edge_bound,
    make_ones,
    make_subtour,
    make_two_matching,
)
from tsppsd.linalg import certified_pd, exact_ldlt, jacobi_eigh
from tsppsd.moment import (
    GroundSet,
    MomentMatrix,
    closed_form_k1,
    moment_matrix_closed_form_k1,
    moment_matrix_enumerated_cycles,
)
from tsppsd.psd import (
    boundary_certificate,
    is_psd_exact,
    is_psd_float,
    membership_p1,
    membership_pk_enumerated,
    verify_certificate,
    zero_one_collapse_check,
)
from tsppsd.spectra import residual_pair


def as_matrix(rows):
    rows = [[Fraction(x) for x in row] for row in rows]
    d = len(rows)
    return MomentMatrix(1, tuple((i,) for i in range(d)), tuple(map(str, range(d))), rows)


def form_value(rows, v):
    # exact v^T M v over one common denominator, so that the matrices at
    # n = 60 need no Fraction sums
    den = math.lcm(*{x.denominator for row in rows for x in row})
    support = [j for j, x in enumerate(v) if x]
    total = 0
    for i in support:
        row = rows[i]
        total += v[i] * sum(
            row[j].numerator * (den // row[j].denominator) * v[j] for j in support
        )
    return Fraction(total, den)


def test_exact_ldlt_basic():
    assert is_psd_exact(as_matrix([[0, 0], [0, 1]])).is_psd
    verdict = is_psd_exact(as_matrix([[-1, 0], [0, 1]]))
    assert not verdict.is_psd
    assert form_value([[Fraction(-1), Fraction(0)], [Fraction(0), Fraction(1)]],
                      verdict.witness) < 0


def test_exact_ldlt_zero_diagonal_indefinite():
    # zero diagonal with a nonzero off-diagonal entry cannot be PSD
    M = [[0, 1], [1, 0]]
    verdict = is_psd_exact(as_matrix(M))
    assert not verdict.is_psd
    rows = [[Fraction(x) for x in r] for r in M]
    assert form_value(rows, verdict.witness) < 0


def test_exact_ldlt_rank():
    res = exact_ldlt([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])
    assert res.is_psd and res.rank == 1
    res = exact_ldlt(
        [
            [Fraction(2), Fraction(-1)],
            [Fraction(-1), Fraction(2)],
        ]
    )
    assert res.is_psd and res.rank == 2


def test_exact_ldlt_needs_pivoting():
    # leading entry is zero but the matrix is PSD after pivoting
    M = [[0, 0, 0], [0, 1, 0], [0, 0, 2]]
    assert is_psd_exact(as_matrix(M)).is_psd


def test_is_psd_float_examples():
    assert is_psd_float(as_matrix([[0, 0], [0, 1]])).is_psd
    verdict = is_psd_float(as_matrix([[-1, 0], [0, 1]]))
    assert not verdict.is_psd
    assert verdict.min_eigenvalue_estimate == pytest.approx(-1.0)
    assert verdict.witness is not None


def test_float_and_exact_agree_on_perturbed_moment_matrices():
    rng = random.Random(0)
    base = moment_matrix_closed_form_k1(make_ones(6))
    for trial in range(40):
        rows = [row[:] for row in base.entries]
        i = rng.randrange(len(rows))
        j = rng.randrange(len(rows))
        eps = Fraction(rng.choice([-1, 1]), rng.choice([2, 3, 5]))
        rows[i][j] += eps
        rows[j][i] = rows[i][j]
        M = as_matrix(rows)
        fl = is_psd_float(M)
        ex = is_psd_exact(M)
        # verdicts must agree whenever the minimum eigenvalue is not marginal
        scale = max(abs(float(x)) for row in rows for x in row)
        if abs(fl.min_eigenvalue_estimate) > 1e-9 * max(1.0, scale):
            assert fl.is_psd == ex.is_psd


def test_jacobi_matches_numpy():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(12, 12))
    A = (A + A.T) / 2
    evals, vecs = jacobi_eigh(A)
    assert np.allclose(evals, np.linalg.eigvalsh(A), atol=1e-10)
    assert np.allclose(A @ vecs, vecs @ np.diag(evals), atol=1e-9)


def test_certified_pd_rejects_indefinite_and_accepts_pd():
    A = np.diag([1.0, 2.0, 3.0])
    assert certified_pd(A)
    B = np.diag([1.0, -1e-3, 3.0])
    assert not certified_pd(B)
    # singular matrices cannot be certified strictly definite
    C = np.diag([1.0, 0.0, 3.0])
    assert not certified_pd(C)


def test_membership_ones_and_facets():
    assert membership_p1(make_ones(7)).is_psd
    for n in (7, 8, 11):
        for m in range(2, n // 2 + 1):
            assert membership_p1(make_subtour(n, range(1, m + 1))).is_psd
    assert membership_p1(make_edge_bound(9, edge(2, 3), "lower")).is_psd
    assert membership_p1(make_edge_bound(9, edge(2, 3), "upper")).is_psd
    assert membership_p1(
        make_two_matching(9, {1, 2, 3}, [edge(1, 4), edge(2, 5), edge(3, 6)])
    ).is_psd


def test_membership_of_explicit_facets_at_n60():
    # the explicit spec carries only the constant and the coefficients
    n = 60
    F = [edge(1, 31), edge(2, 32), edge(3, 33)]
    for f in (make_subtour(n, range(1, 16)), make_two_matching(n, range(1, 6), F)):
        g = functional_from_spec(functional_to_spec(f))
        assert membership_p1(g).status == "PSD"


def test_membership_requires_average_one():
    f = combine(2, make_ones(6), 0, make_ones(6))
    with pytest.raises(ValueError, match="2"):
        membership_p1(f)
    with pytest.raises(ResourceLimitError):
        membership_p1(make_ones(70), exact_cap=60)


def test_membership_rejects_beyond_dual_body():
    # pushing past the subtour facet along h_U leaves the relaxation at a = n
    for n, m in ((8, 3), (9, 4)):
        f = combine(n, make_subtour(n, range(1, m + 1)), 1 - n, make_ones(n))
        verdict = membership_p1(f)
        assert not verdict.is_psd
        assert verdict.witness is not None
        rows = moment_matrix_closed_form_k1(f).entries
        assert form_value(rows, list(verdict.witness)) < 0


def test_membership_rejects_sqrt_n_mixes_at_scale():
    # a * h_U + (1 - a) * ones with a above sqrt(n) leaves P_1; the rounded
    # eigenvector certifies it without exact elimination
    for n, m in ((24, 5), (40, 10), (60, 15)):
        a = math.isqrt(n) + 1
        f = combine(a, make_subtour(n, range(1, m + 1)), 1 - a, make_ones(n))
        verdict = membership_p1(f)
        assert verdict.status == "NOT_PSD"
        assert verdict.method == "eigenvector-witness"
        rows = moment_matrix_closed_form_k1(f).entries
        assert form_value(rows, verdict.witness) < 0


def test_exact_fallback_when_eigenvector_witness_fails(monkeypatch):
    n, m = 10, 3
    a = math.isqrt(n) + 1
    f = combine(a, make_subtour(n, range(1, m + 1)), 1 - a, make_ones(n))
    eigh = np.linalg.eigh

    def top_vector_first(A):
        # the eigenvector of the largest eigenvalue cannot certify v^T M v < 0
        evals, vecs = eigh(A)
        vecs = vecs.copy()
        vecs[:, 0] = vecs[:, -1]
        return evals, vecs

    monkeypatch.setattr(np.linalg, "eigh", top_vector_first)
    verdict = membership_p1(f)
    assert verdict.status == "NOT_PSD"
    assert verdict.method == "exact-ldlt"
    rows = moment_matrix_closed_form_k1(f).entries
    assert form_value(rows, verdict.witness) < 0


def test_membership_rejection_matches_residual_eigenvalue_sign():
    n, m = 9, 4
    pair = residual_pair(n, m, Fraction(n + 1))
    assert pair.lambda_minus < 0
    f = combine(n + 1, make_subtour(n, range(1, m + 1)), -n, make_ones(n))
    assert not membership_p1(f).is_psd


def test_membership_k2_mirrors_k1():
    for n in (6, 7):
        assert membership_pk_enumerated(make_ones(n), 2).is_psd
        assert membership_pk_enumerated(make_subtour(n, {1, 2, 3}), 2).is_psd
        f = combine(n, make_subtour(n, {1, 2, 3}), 1 - n, make_ones(n))
        verdict = membership_pk_enumerated(f, 2)
        assert not verdict.is_psd
        rows = moment_matrix_enumerated_cycles(n, f, 2).entries
        assert form_value(rows, verdict.witness) < 0


def test_rejected_at_k1_rejected_at_k2():
    # the relaxations are nested, so a degree-1 rejection persists at degree 2
    for n, a in ((6, 7), (7, 9)):
        f = combine(a, make_subtour(n, {1, 2, 3}), 1 - a, make_ones(n))
        if not membership_p1(f).is_psd:
            assert not membership_pk_enumerated(f, 2).is_psd


def test_m2_subtour_on_boundary_with_extra_kernel():
    # with |U| = 2 the facet already sits on the boundary: the row of the
    # inner edge vanishes identically, one more kernel dimension
    for n in (8, 13, 40):
        cf = closed_form_k1(make_subtour(n, {2, 3}))
        assert cf.zero_rows() == [1 + edge_index(edge(2, 3), n)]
    assert membership_p1(make_subtour(10, {2, 3})).is_psd


def test_boundary_certificates_edge_bounds_exhaustive_n6():
    n = 6
    for e in all_edges(n):
        for kind in ("edge-lower", "edge-upper"):
            spec = FacetSpec(kind, n, edge=e)
            p = boundary_certificate(spec)
            assert verify_certificate(spec.functional(), p, n)


def test_boundary_certificates_subtour():
    for n in (6, 7, 8):
        for m in range(2, n // 2 + 1):
            spec = FacetSpec("subtour", n, U=tuple(range(2, m + 2)))
            p = boundary_certificate(spec)
            assert p.degree == m - 1
            assert verify_certificate(spec.functional(), p, n)


def test_boundary_certificate_two_matching():
    for n in (7, 8):
        spec = FacetSpec(
            "two-matching", n, U=(1, 2, 3), F=(edge(1, 4), edge(2, 5), edge(3, 6))
        )
        p = boundary_certificate(spec)
        assert p.degree == 4  # s + m with s = 1, m = 3
        assert verify_certificate(spec.functional(), p, n)


def test_certificate_failure_for_positive_form():
    ones = make_ones(6)
    p = boundary_certificate(FacetSpec("edge-upper", 6, edge=edge(1, 2)))
    assert not verify_certificate(ones, p, 6)


def test_zero_one_collapse_examples():
    pts = tuple(
        (Fraction(a), Fraction(b)) for a in (0, 1) for b in (0, 1)
    )
    X = GroundSet(2, pts)
    # f = 1 + x1 - 3x2 is negative at (0, 1)
    values = [1 + p[0] - 3 * p[1] for p in pts]
    report = zero_one_collapse_check(X, values)
    assert not report.in_q
    assert report.witness_point == (0, 1)
    assert report.q_value == Fraction(-2, 4)
    # nonnegative functions are inside the dual body
    assert zero_one_collapse_check(X, [v + 10 for v in values]).in_q
    # f = x1 + x2 - 1/2 at y = (0,0): q value -1/8
    values = [p[0] + p[1] - Fraction(1, 2) for p in pts]
    report = zero_one_collapse_check(X, values)
    assert report.witness_point == (0, 0)
    assert report.q_value == Fraction(-1, 8)


def test_witnesses_verify_exactly():
    f = combine(8, make_subtour(8, {1, 2, 3}), -7, make_ones(8))
    verdict = membership_p1(f)
    rows = moment_matrix_closed_form_k1(f).entries
    assert form_value(rows, list(verdict.witness)) < 0


def random_facet_mix(n, rng):
    gens = [
        make_ones(n),
        make_subtour(n, {1, 2, 3}),
        make_subtour(n, {1, 2}),
        make_edge_bound(n, edge(1, 2), "lower"),
        make_edge_bound(n, edge(1, 2), "upper"),
    ]
    weights = [Fraction(rng.randint(0, 5)) for _ in gens]
    total = sum(weights) or Fraction(1)
    acc = combine(0, gens[0], 0, gens[0])
    for w, g in zip(weights, gens):
        acc = combine(1, acc, w / total, g)
    return acc if sum(weights) else gens[0]


def test_facet_mix_inside_q_stays_psd_k1():
    rng = random.Random(4)
    for n in (6, 7):
        for _ in range(8):
            acc = random_facet_mix(n, rng)
            assert average_on_x(acc) == 1
            assert membership_p1(acc).is_psd
        # numerators beyond int64 and a scale beyond 2^53
        a = Fraction(10**19 + 1, 10**19 + 3)
        assert membership_p1(combine(a, acc, 1 - a, make_ones(n))).is_psd


def test_facet_mix_inside_q_stays_psd_k2():
    rng = random.Random(5)
    for _ in range(2):
        acc = random_facet_mix(6, rng)
        assert membership_pk_enumerated(acc, 2).is_psd
