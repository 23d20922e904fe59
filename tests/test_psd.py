import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from tsppsd import cli, psd
from tsppsd.cycles import all_edges, edge, edge_index
from tsppsd.errors import ResourceLimitError
from tsppsd.functionals import (
    FacetSpec,
    LinearFunctional,
    average_on_x,
    combine,
    functional_from_spec,
    functional_to_spec,
    make_edge_bound,
    make_ones,
    make_subtour,
    make_two_matching,
)
from tsppsd.linalg import certified_pd, exact_ldlt
from tsppsd.moment import (
    ClosedFormK1,
    GroundSet,
    MomentMatrix,
    closed_form_k1,
    degree_relations,
    moment_matrix_closed_form_k1,
    moment_matrix_enumerated_cycles,
    relation_complement,
    tour_relations,
)
from tsppsd.psd import (
    EXACT_FALLBACK_CAP,
    _adapted_quotient,
    _decide_reduced,
    _structural_quotient,
    boundary_certificate,
    is_psd_exact,
    is_psd_float,
    membership_p1,
    membership_pk_enumerated,
    verify_certificate,
    zero_one_collapse_check,
)
from tsppsd.spectra import residual_pair
from tsppsd.symmetry import (
    AdaptedBasis,
    adapted_basis,
    kept_coordinates,
    quotient_vectors,
    twin_classes,
)


def as_matrix(rows):
    d = len(rows)
    return MomentMatrix.from_rows(
        1, tuple((i,) for i in range(d)), tuple(map(str, range(d))), rows
    )


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
    res = exact_ldlt([[1, 1], [1, 1]])
    assert res.is_psd and res.rank == 1
    res = exact_ldlt([[2, -1], [-1, 2]])
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
    with pytest.raises(ValueError, match="^membership requires average exactly 1 on X, got 2"):
        membership_p1(f)
    # the size cap is checked first
    for g in (make_ones(70), combine(2, make_ones(70), 0, make_ones(70))):
        with pytest.raises(ResourceLimitError):
            membership_p1(g, exact_cap=60)


def with_numerators(cf, N):
    """The closed-form matrix cf with its numerators replaced by N, also in
    the rows that `rows` reads."""
    bad = object.__new__(ClosedFormK1)
    MomentMatrix.__init__(bad, 1, cf.basis, cf.labels, N, cf.scale, n=cf.n)
    bad.f, bad.edges, bad.C = cf.f, cf.edges, cf.C
    bad.rows = lambda idx: N[np.asarray(idx)]
    return bad


def rows_read(cf):
    """The rows of N that `membership_p1` reads: one per representative of
    the adapted basis, or all of them without twins."""
    U, _ = adapted_basis(twin_classes(cf.C))
    return range(cf.dim) if U is None else np.unique(U.rep).tolist()


def planted_faults():
    # one wrong entry in each row that membership_p1 reads, off the diagonal
    # without its mirror, and at the corner read as the average, on int64
    # and on Python-int numerators; the tripwire runs before the average is
    # read
    a = Fraction(10**19 + 1, 10**19 + 3)
    big = combine(a, make_subtour(6, {1, 2}), 1 - a, make_ones(6))
    for f in (make_subtour(6, {1, 2, 3}), big):
        cf = closed_form_k1(f)
        assert cf.star_kernel_verified()
        read = rows_read(cf)
        assert 0 in read and len(read) < cf.dim
        for i, j in [(r, 9 if r != 9 else 8) for r in read] + [(0, 0)]:
            N = cf.N.copy()
            N[i, j] += 1
            yield f, with_numerators(cf, N)


def test_star_check_catches_a_planted_entry(monkeypatch, tmp_path):
    dtypes = set()
    for f, bad in planted_faults():
        dtypes.add(bad.N.dtype)
        assert not bad.star_kernel_verified()
        monkeypatch.setattr(psd, "closed_form_k1", lambda g: bad)
        with pytest.raises(RuntimeError, match="degree relations not in matrix kernel"):
            membership_p1(f)
        spec = tmp_path / "f.json"
        spec.write_text(json.dumps(functional_to_spec(f)))
        assert cli.run(["membership", "--func", str(spec)]) == cli.EXIT_INTERNAL == 4
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}


def test_star_check_sums_exactly_near_the_int64_limit():
    # 2^62 too much in one column of every edge row of the K_5 on vertices
    # 1..5: each vertex sum is off by 4 * 2^62 = 2^64, which int64 sums
    # would not see, so the check sums Python ints
    n = 6
    cf = closed_form_k1(make_subtour(n, {1, 2, 3}))
    N = cf.N.copy()
    rows = [1 + edge_index(edge(i, j), n) for i in range(1, 6) for j in range(i + 1, 6)]
    N[rows, 7] += 2**62
    assert N.dtype == np.int64
    assert not with_numerators(cf, N).star_kernel_verified()


def test_star_check_covers_every_block_of_vertices():
    # at n = 30 the rows are gathered a few vertices at a time; one wrong
    # entry in the row of any edge is caught
    n = 30
    cf = closed_form_k1(make_subtour(n, {1, 2, 3}))
    assert cf.star_kernel_verified()
    N = cf.N.copy()
    bad = with_numerators(cf, N)
    for row in range(1, cf.dim):
        N[row, 5] += 1
        assert not bad.star_kernel_verified(), row
        N[row, 5] -= 1


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
        M = moment_matrix_closed_form_k1(f)
        assert form_value(M.entries, verdict.witness) < 0
        if n == 24:
            # the tolerance verdict on the same functional (dimension 277)
            fl = is_psd_float(M)
            assert fl.status == "NOT_PSD" and fl.method == "float-eigh"
            assert fl.witness is not None
            assert form_value(M.entries, fl.witness) < 0


def top_vector_first(monkeypatch):
    """Make `np.linalg.eigh` hand back the eigenvector of the largest
    eigenvalue first, which cannot certify v^T M v < 0."""
    eigh = np.linalg.eigh

    def patched(A):
        evals, vecs = eigh(A)
        vecs = vecs.copy()
        vecs[:, 0] = vecs[:, -1]
        return evals, vecs

    monkeypatch.setattr(np.linalg, "eigh", patched)


def test_exact_fallback_when_eigenvector_witness_fails(monkeypatch):
    n, m = 10, 3
    a = math.isqrt(n) + 1
    f = combine(a, make_subtour(n, range(1, m + 1)), 1 - a, make_ones(n))
    top_vector_first(monkeypatch)
    verdict = membership_p1(f)
    assert verdict.status == "NOT_PSD"
    assert verdict.method == "exact-ldlt"
    rows = moment_matrix_closed_form_k1(f).entries
    assert form_value(rows, verdict.witness) < 0


def without_twins(f):
    """f with each coefficient c_uv moved by u v / n^3 and the average put
    back to 1: no two vertices are twins, so the twin group is trivial."""
    n = f.n
    g = LinearFunctional(
        n,
        f.constant,
        {e: c + Fraction(e.u * e.v, n**3) for e, c in f.linear_coefficients().items()},
    )
    avg = average_on_x(g)
    return LinearFunctional(n, g.constant / avg, {e: c / avg for e, c in g.coeff.items()})


def test_exact_fallback_refused_above_its_cap(monkeypatch, tmp_path):
    # without twins n = 24 reduces to r = 276 - 23 = 253 coordinates, where
    # Bareiss would take tens of seconds: a resource limit (exit 3), not a
    # long run
    n, m = 24, 5
    assert n * (n - 1) // 2 - (n - 1) > EXACT_FALLBACK_CAP
    a = math.isqrt(n) + 1
    f = without_twins(combine(a, make_subtour(n, range(1, m + 1)), 1 - a, make_ones(n)))
    cf = closed_form_k1(f)
    assert twin_classes(cf.C).tolist() == list(range(n))
    assert len(_adapted_quotient(cf)[2]) == 253
    top_vector_first(monkeypatch)
    with pytest.raises(ResourceLimitError, match="exact fallback"):
        membership_p1(f)
    spec = tmp_path / "f.json"
    spec.write_text(json.dumps(functional_to_spec(f)))
    argv = ["membership", "--func", str(spec), "--out", str(tmp_path / "out.json")]
    assert cli.run(argv) == cli.EXIT_RESOURCE


def test_float_witness_checked_on_the_numerators():
    # NOT_PSD witnesses of is_psd_float: v^T N v / scale < 0, the same value
    # as the Fraction sum over the entries
    for n, m, a in ((8, 3, 8), (9, 4, 10), (12, 4, 5)):
        f = combine(a, make_subtour(n, range(1, m + 1)), 1 - a, make_ones(n))
        mats = [moment_matrix_closed_form_k1(f)]
        if n <= 8:
            mats.append(moment_matrix_enumerated_cycles(n, f, 1))
        for M in mats:
            verdict = is_psd_float(M)
            assert verdict.status == "NOT_PSD" and verdict.witness is not None
            value = M.quadratic_form(verdict.witness)
            assert value < 0
            assert value == form_value(M.entries, verdict.witness)


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


def boundary_facets(n):
    """Facets whose degree-1 boundary certificate is x_e or 1 - x_e, at an
    edge through vertex 1."""
    e = edge(1, n // 2)
    return (
        make_edge_bound(n, e, "lower"),
        make_edge_bound(n, e, "upper"),
        make_subtour(n, {1, n // 2}),
    )


def test_boundary_facets_certified_without_eigendecomposition(monkeypatch):
    def no_eigh(A):
        raise AssertionError("eigendecomposition in the P_1 decision")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    for n in (24, 44):
        for f in boundary_facets(n):
            verdict = membership_p1(f)
            assert (verdict.status, verdict.method) == ("PSD", "certified-cholesky")


def test_symmetric_facets_never_build_the_whole_matrix(monkeypatch):
    # at n = 60 the decision reads a few rows of N, one per representative
    # of the adapted basis, and never the 1771 x 1771 matrix
    def whole(self):
        raise AssertionError("the whole matrix was built")

    read = []
    rows = ClosedFormK1.rows
    monkeypatch.setattr(ClosedFormK1, "N", property(whole))
    monkeypatch.setattr(ClosedFormK1, "rows", lambda self, idx: read.append(len(idx)) or rows(self, idx))
    for f in (make_ones(60), make_subtour(60, range(1, 16))):
        verdict = membership_p1(f)
        assert (verdict.status, verdict.method) == ("PSD", "certified-cholesky")
    assert read == [3, 6]


def test_adapted_quotient_keeps_the_rank_block_by_block():
    # exactly: each kept block of a type rho is definite, and the blocks
    # weighted by dim(rho) add up to the rank of M, so the dropped
    # coordinates pair with the whole kernel
    for n in (6, 7):
        fs = boundary_facets(n) + (
            make_edge_bound(n, edge(2, 3), "lower"),
            make_edge_bound(n, edge(2, 3), "upper"),
            make_ones(n),
            make_subtour(n, {1, 2, 3}),
            make_two_matching(n, {1, 2, 3}, [edge(1, 4), edge(2, 5), edge(3, 6)]),
        )
        for f in fs:
            cf = closed_form_k1(f)
            G, U, keep = _adapted_quotient(cf)
            _, shape = adapted_basis(twin_classes(cf.C))
            types, dims = shape.types, shape.dims
            total = 0
            for rho in set(types.tolist()):
                block = [i for i in keep if types[i] == rho]
                kept = exact_ldlt(G.numerators(block).tolist())
                assert kept.is_psd and kept.rank == len(block)
                total += int(dims[block[0]]) * kept.rank if block else 0
            assert total == exact_ldlt(cf.numerators().tolist()).rank


def test_deflation_certifies_a_kernel_not_read_from_the_rows():
    # G = A^T A has rank 3 and no zero row, and no row repeats row 0 since
    # no column of A repeats column 0: its kernel is found numerically
    A = np.array([[1, 2, 0, 1, 3], [0, 1, 1, 2, 1], [2, 0, 1, 1, 1]])
    M = as_matrix((A.T @ A).tolist())
    assert M.zero_rows() == []
    assert not any(np.array_equal(M.N[i], M.N[0]) for i in range(1, 5))
    verdict = _decide_reduced(M, list(range(5)))
    assert (verdict.status, verdict.method) == ("PSD", "certified-cholesky+deflation")


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


def benchmark_facets(n, verts):
    """The facet kinds of the benchmark grid that fit K_n (ones, |U| = 2,
    n/4 and n/2 subtours, both edge bounds, the 2-matching with |F| = 3),
    labelled by the vertex order verts."""
    yield make_ones(n)
    for m in sorted({2, n // 4, n // 2}):
        if 2 <= m <= n - 2:
            yield make_subtour(n, verts[:m])
    yield make_edge_bound(n, edge(*verts[:2]), "lower")
    yield make_edge_bound(n, edge(*verts[:2]), "upper")
    if n >= 6:
        yield make_two_matching(
            n, verts[:3], [edge(verts[i], verts[3 + i]) for i in range(3)]
        )


def test_k2_verdicts_match_bareiss_on_the_full_matrix():
    # the reduced pipeline against fraction-free Bareiss on the whole
    # enumerated degree-2 matrix; witnesses checked on the whole matrix
    rng = random.Random(9)
    for n in (5, 6):
        a = math.isqrt(n) + 1
        fs = [f for verts in (list(range(1, n + 1)), list(range(n, 0, -1)))
              for f in benchmark_facets(n, verts)]
        fs += [combine(a, make_subtour(n, U), 1 - a, make_ones(n))
               for U in ({1, 2, 3}, {n - 2, n - 1, n})]
        fs += [random_facet_mix(n, rng) for _ in range(3)]
        statuses = set()
        for f in fs:
            verdict = membership_pk_enumerated(f, 2)
            M = moment_matrix_enumerated_cycles(n, f, 2)
            full = exact_ldlt(M.numerators().tolist())  # `is_psd_exact`
            assert verdict.is_psd == full.is_psd
            if verdict.is_psd:
                # the quotient drops only kernel directions: the kept block
                # keeps the rank of M
                keep = _structural_quotient(M)
                assert exact_ldlt(M.numerators(keep).tolist()).rank == full.rank
            else:
                assert M.quadratic_form(verdict.witness) < 0
            statuses.add(verdict.status)
        assert statuses == {"PSD", "NOT_PSD"}


def test_relation_complement_is_cached_read_only_and_nonsingular():
    for n in range(4, 8):
        rc = relation_complement(n, 2)
        assert relation_complement(n, 2) is rc
        R, P, Q = rc.relations, rc.pivots, rc.columns
        assert R is tour_relations(n, 2) and len(P) == len(Q)
        for a in (R, P, Q, rc.relabel):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0
        # the Bareiss rank of the Gram matrix confirms the proof mod p
        A = R[P][:, Q]
        assert exact_ldlt((A.T @ A).tolist()).rank == len(P)
        # every vertex relabeling keeps the block: the relabeled relations
        # vanish on the tours and have the same block on the moved pivots
        M = moment_matrix_enumerated_cycles(n, make_ones(n), 2)
        for w in (1, n):
            relations, pivots = rc.relations_at(w), rc.pivots_at(w)
            assert M.annihilates(relations)
            assert np.array_equal(relations[pivots], A)
    # at k = 1: the degree relations, paired with the constant and the edges
    # at the pairing vertex
    n = 7
    rc = relation_complement(n, 1)
    assert np.array_equal(rc.relations, degree_relations(n))
    for w in range(1, n + 1):
        at_w = [1 + edge_index(edge(w, j), n) for j in range(1, n + 1) if j != w]
        assert sorted(rc.pivots_at(w).tolist()) == [0] + sorted(at_w)


def planted_enumerated_faults():
    # one wrong entry off the diagonal without its mirror, in the constant
    # row, or at the corner, on int64 and on Python-int numerators
    a = Fraction(10**19 + 1, 10**19 + 3)
    big = combine(a, make_subtour(5, {1, 2}), 1 - a, make_ones(5))
    for f in (make_subtour(5, {1, 2, 3}), big):
        M = moment_matrix_enumerated_cycles(5, f, 2)
        for i, j in ((4, 30), (0, 12), (0, 0)):
            N = M.N.copy()
            N[i, j] += 1
            yield f, MomentMatrix(2, M.basis, M.labels, N, M.scale, n=5)


def test_relation_check_catches_a_planted_entry(monkeypatch, tmp_path):
    dtypes = set()
    for f, bad in planted_enumerated_faults():
        dtypes.add(bad.N.dtype)
        monkeypatch.setattr(psd, "moment_matrix_enumerated_cycles", lambda *a: bad)
        with pytest.raises(RuntimeError, match="structural relations not in matrix kernel"):
            membership_pk_enumerated(f, 2)
        spec = tmp_path / "f.json"
        spec.write_text(json.dumps(functional_to_spec(f)))
        argv = ["membership", "--func", str(spec), "--k", "2"]
        assert cli.run(argv) == cli.EXIT_INTERNAL == 4
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}


def test_k2_at_n8_without_bareiss(monkeypatch):
    # Bareiss on the 435-dimensional matrix takes over a minute; the reduced
    # pipeline decides these without it
    def no_bareiss(rows):
        raise AssertionError("exact elimination in the k = 2 decision")

    monkeypatch.setattr(psd, "exact_ldlt", no_bareiss)
    n = 8
    for f in (
        make_ones(n),
        make_subtour(n, {1, 2, 3}),
        make_subtour(n, {1, 2}),
        make_edge_bound(n, edge(1, 2), "lower"),
        make_edge_bound(n, edge(1, 2), "upper"),
    ):
        assert membership_pk_enumerated(f, 2).status == "PSD"
    a = math.isqrt(n) + 1
    f = combine(a, make_subtour(n, {1, 2, 3}), 1 - a, make_ones(n))
    verdict = membership_pk_enumerated(f, 2)
    assert verdict.status == "NOT_PSD"
    M = moment_matrix_enumerated_cycles(n, f, 2)
    assert M.dim == 435 and M.quadratic_form(verdict.witness) < 0


def unit_average(n, constant, coeff):
    """The functional constant + sum coeff_e x_e scaled to average 1 on the
    tours, or None when its average is 0."""
    g = LinearFunctional(n, Fraction(constant), coeff)
    avg = average_on_x(g)
    if avg == 0:
        return None
    return LinearFunctional(n, g.constant / avg, {e: c / avg for e, c in coeff.items()})


def class_structured_functional(n, rng):
    """Coefficients constant on the edges within and between the blocks of a
    random partition of the vertices: a nontrivial twin group."""
    block = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
    value = {}
    coeff = {}
    for e in all_edges(n):
        key = tuple(sorted((block[e.u - 1], block[e.v - 1])))
        if key not in value:
            value[key] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        coeff[e] = value[key]
    return unit_average(n, rng.randint(-3, 3), coeff)


def asymmetric_functional(n, rng):
    """Random coefficients on every edge: almost surely no twins."""
    coeff = {e: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for e in all_edges(n)}
    return unit_average(n, rng.randint(-3, 3), coeff)


def test_p1_agrees_with_bareiss_on_the_whole_matrix():
    # the adapted quotient against fraction-free Bareiss on the whole
    # closed-form matrix, for every facet kind, convex combinations, sqrt-n
    # mixes, and random functionals with and without twins; witnesses are
    # checked on the whole matrix, and on the enumerated one at n <= 8
    rng = random.Random(11)
    methods = set()
    for n in range(3, 11):
        a = math.isqrt(n) + 1
        # the upper edge bound degenerates at n = 3
        fs = [f for verts in (list(range(1, n + 1)), rng.sample(range(1, n + 1), n))
              for f in benchmark_facets(n, verts)] if n > 3 else [make_ones(n)]
        fs += [combine(a, make_subtour(n, range(1, m + 1)), 1 - a, make_ones(n))
               for m in range(2, n - 1)]
        if n >= 5:
            fs += [random_facet_mix(n, rng) for _ in range(3)]
        fs += [class_structured_functional(n, rng) for _ in range(8)]
        fs += [asymmetric_functional(n, rng) for _ in range(3)]
        for f in filter(None, fs):
            verdict = membership_p1(f)
            M = closed_form_k1(f)
            assert verdict.is_psd == is_psd_exact(M).is_psd
            if not verdict.is_psd:
                assert M.quadratic_form(verdict.witness) < 0
                if n <= 8:
                    E = moment_matrix_enumerated_cycles(n, f, 1)
                    assert E.quadratic_form(verdict.witness) < 0
            methods.add((verdict.status, verdict.method))
    assert {("PSD", "certified-cholesky"), ("NOT_PSD", "eigenvector-witness")} <= methods


def diagonal_coincidence(n, rng):
    """An average-1 functional without twins whose row of the edge 1-2 has
    the diagonal of a copy of the constant row, E[f x_12] = E[f], without
    being one."""
    e = edge(1, 2)
    j = 1 + edge_index(e, n)
    base = {h: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for h in all_edges(n)}

    def moments(c0, ce):
        cf = closed_form_k1(LinearFunctional(n, Fraction(c0), {**base, e: Fraction(ce)}))
        return cf.entry(0, 0), cf.entry(0, j)

    (a0, b0), (a1, b1), (a2, b2) = moments(0, 0), moments(1, 0), moments(0, 1)
    # solve a0 + c0 (a1 - a0) + ce (a2 - a0) = 1 = b0 + c0 (b1 - b0) + ce (b2 - b0)
    det = (a1 - a0) * (b2 - b0) - (a2 - a0) * (b1 - b0)
    c0 = ((1 - a0) * (b2 - b0) - (a2 - a0) * (1 - b0)) / det
    ce = ((a1 - a0) * (1 - b0) - (1 - a0) * (b1 - b0)) / det
    return LinearFunctional(n, c0, {**base, e: ce})


def test_quotient_reads_its_kernel_vectors_from_g_exactly():
    # the zero rows of G and its orbit rows |O| times the constant row, found
    # by brute force, give the kept coordinates, and G annihilates every
    # quotient vector: facets, random functionals with and without twins,
    # and a functional whose edge row has the diagonal of a copy without
    # being one
    rng = random.Random(12)
    fs = [diagonal_coincidence(7, rng)]
    for n in (6, 7, 9):
        fs += list(benchmark_facets(n, rng.sample(range(1, n + 1), n)))
        fs += [class_structured_functional(n, rng) for _ in range(6)]
        fs += [asymmetric_functional(n, rng)]
    seen_copy = seen_coincidence = False
    for f in filter(None, fs):
        cf = closed_form_k1(f)
        G, U, keep = _adapted_quotient(cf)
        shape = adapted_basis(twin_classes(cf.C))[1]
        rows = G.N.tolist()
        sizes = shape.orbit_sizes.tolist()
        zero = tuple(i for i, row in enumerate(rows) if not any(row))
        copies = tuple(
            i for i, row in enumerate(rows)
            if sizes[i] and row == [sizes[i] * x for x in rows[0]]
        )
        assert keep == list(kept_coordinates(shape.sizes, zero, copies))
        assert G.annihilates(quotient_vectors(shape.sizes, zero, copies))
        seen_copy |= bool(copies)
        seen_coincidence |= any(
            sizes[i] and i not in copies and rows[i][i] == sizes[i] ** 2 * rows[0][0]
            for i in range(len(rows))
        )
    assert seen_copy and seen_coincidence


def test_lifted_witness_is_checked_on_the_whole_matrix(monkeypatch):
    # a G with one diagonal entry lowered is indefinite while M is PSD: the
    # witness y of G lifts to U y, and w^T N w = y^T G y >= 0 on the true G
    f = make_subtour(7, {1, 2, 3})
    gram = AdaptedBasis.gram

    def lowered(self, R, at):
        G = gram(self, R, at)
        G[-1, -1] -= 10**6 * abs(int(G[-1, -1])) + 1
        return G

    assert membership_p1(f).is_psd
    monkeypatch.setattr(AdaptedBasis, "gram", lowered)
    with pytest.raises(RuntimeError, match="lifted witness does not certify"):
        membership_p1(f)


def test_off_block_check_catches_a_non_invariant_matrix(monkeypatch, tmp_path):
    # N + w w^T with w = x_12 - x_23 + x_34 - x_14: w has zero vertex sums,
    # so the degree relations still annihilate it and the star check passes,
    # but it is not invariant under the twin group S_{1,2,3} x S_{4..7} of a
    # subtour facet; on int64 and on Python-int numerators
    n = 7
    w = np.zeros(1 + n * (n - 1) // 2, dtype=np.int64)
    for (u, v), s in (((1, 2), 1), ((2, 3), -1), ((3, 4), 1), ((1, 4), -1)):
        w[1 + edge_index(edge(u, v), n)] = s
    a = Fraction(10**19 + 1, 10**19 + 3)
    for f in (make_subtour(n, {1, 2, 3}), combine(a, make_subtour(n, {1, 2, 3}), 1 - a, make_ones(n))):
        cf = closed_form_k1(f)
        bad = with_numerators(cf, cf.N + np.outer(w, w).astype(cf.N.dtype))
        assert bad.star_kernel_verified()
        monkeypatch.setattr(psd, "closed_form_k1", lambda g: bad)
        with pytest.raises(RuntimeError, match="not invariant under the twin group"):
            membership_p1(f)
        spec = tmp_path / "f.json"
        spec.write_text(json.dumps(functional_to_spec(f)))
        assert cli.run(["membership", "--func", str(spec)]) == cli.EXIT_INTERNAL
