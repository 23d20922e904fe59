import math
import random
from fractions import Fraction

import numpy as np
import pytest

from tsppsd.cycles import all_edges, edge, edge_index, enumerate_cycles
from tsppsd.errors import ResourceLimitError
from tsppsd.functionals import (
    LinearFunctional,
    average_on_x,
    combine,
    make_edge_bound,
    make_ones,
    make_subtour,
    make_two_matching,
)
from tsppsd.linalg import exact_ldlt
from tsppsd.cycles import factorial, num_cycles
from tsppsd.moment import (
    GroundSet,
    MomentMatrix,
    _closed_form_weights,
    _edge_layout,
    closed_form_k1,
    containment_probability,
    cycle_ground_set,
    degree_relations,
    expected_trace,
    moment_matrix_closed_form_k1,
    moment_matrix_enumerated,
    moment_matrix_enumerated_cycles,
    monomial_basis,
    quadratic_form_value,
    trace_of,
    zero_one_certificate,
)
from tsppsd.polynomials import CertificatePolynomial, edge_monomial, one_minus_edge
from tsppsd.psd import boundary_certificate
from tsppsd.functionals import FacetSpec


def coord(n, u, v):
    return 1 + edge_index(edge(u, v), n)


def generators(n):
    gens = [make_ones(n)]
    gens += [make_subtour(n, range(1, m + 1)) for m in range(2, n // 2 + 1)]
    gens.append(make_edge_bound(n, edge(2, 3), "lower"))
    if n >= 4:
        gens.append(make_edge_bound(n, edge(2, 3), "upper"))
    if n >= 7:
        gens.append(
            make_two_matching(n, {1, 2, 3}, [edge(1, 4), edge(2, 5), edge(3, 6)])
        )
    return gens


def random_functional(n, rng, normalized=False):
    coeff = {
        e: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for e in all_edges(n)
        if rng.random() < 0.5
    }
    f = LinearFunctional(n, Fraction(rng.randint(-2, 3)), coeff)
    if not normalized:
        return f
    avg = average_on_x(f)
    if avg == 0:
        return make_ones(n)
    return combine(1 / avg, f, 0, f)


def large_functional(n, rng, size=10**20):
    coeff = {
        e: Fraction(size + rng.randint(-9, 9), rng.randint(1, 3)) * rng.choice((1, -1))
        for e in all_edges(n)
        if rng.random() < 0.5
    }
    return LinearFunctional(n, Fraction(rng.randint(-2, 2) * size), coeff)


def test_basis_ordering_and_size():
    basis = monomial_basis(3, 2)
    assert basis[0] == ()
    assert basis[1:4] == [(0,), (1,), (2,)]
    assert (0, 0) in basis and (0, 2) in basis
    assert len(basis) == 1 + 3 + 6
    with pytest.raises(ResourceLimitError):
        monomial_basis(100, 3, cap=1000)


def test_ones_entries_n6():
    M = moment_matrix_closed_form_k1(make_ones(6))
    assert M.entry(coord(6, 1, 2), coord(6, 1, 2)) == Fraction(2, 5)
    assert M.entry(0, coord(6, 1, 2)) == Fraction(2, 5)
    assert M.entry(coord(6, 1, 2), coord(6, 3, 4)) == Fraction(1, 5)
    assert M.entry(coord(6, 1, 2), coord(6, 1, 3)) == Fraction(1, 10)
    assert M.labels[0] == "1" and M.labels[1] == "1-2"


def test_worked_subtour_entry():
    # mixed entry (x_ij, x_ip) with i,j inside, p outside: 2(m-2)/((n-2)(n-3)(m-1))
    for n, m in ((6, 3), (8, 3), (9, 4), (12, 5)):
        f = make_subtour(n, range(1, m + 1))
        M = closed_form_k1(f)
        got = M.entry(coord(n, 1, 2), coord(n, 1, m + 1))
        assert got == Fraction(2 * (m - 2), (n - 2) * (n - 3) * (m - 1))


def test_closed_form_equals_enumeration():
    for n in (3, 4, 5, 6, 7, 8):
        for f in generators(n):
            closed = moment_matrix_closed_form_k1(f)
            enum = moment_matrix_enumerated_cycles(n, f, 1)
            assert closed.entries == enum.entries
            assert closed.labels == enum.labels
            assert closed == enum


def test_closed_form_equals_enumeration_random_functionals():
    rng = random.Random(7)
    for n in (3, 4, 5, 6, 7, 8):
        for _ in range(3):
            f = random_functional(n, rng)
            # the second copy has numerators beyond int64
            for g in (f, combine(Fraction(10**19 + 1, 10**19 + 3), f, 0, f)):
                closed = moment_matrix_closed_form_k1(g)
                enum = moment_matrix_enumerated_cycles(n, g, 1)
                assert closed.entries == enum.entries
                assert closed == enum


def test_constant_functional_gives_containment_probabilities():
    f = LinearFunctional(6, Fraction(1), {})
    M = moment_matrix_closed_form_k1(f)
    e1, e2 = edge(1, 2), edge(3, 4)
    assert M.entry(coord(6, *e1), coord(6, *e2)) == containment_probability(6, [e1, e2])
    assert M.entry(0, coord(6, *e1)) == Fraction(2, 5)


def test_closed_form_matches_containment_counts_at_large_n():
    # entry (I, J) = const * P(B) + sum_e c_e * P(B u {e}) with B = I u J,
    # counted edge set by edge set; one pair of each kind per round
    rng = random.Random(17)
    for n in (40, 60):
        f = random_functional(n, rng)
        cf = closed_form_k1(f)
        for _ in range(3):
            x, y, z, w = rng.sample(range(1, n + 1), 4)
            xy, xz, zw = coord(n, x, y), coord(n, x, z), coord(n, z, w)
            for i, j in ((0, 0), (0, xy), (xy, xy), (xy, xz), (xy, zw)):
                base = {cf.edges[k - 1] for k in (i, j) if k}
                want = f.constant * containment_probability(n, base) + sum(
                    (c * containment_probability(n, base | {e})
                     for e, c in f.coeff.items()),
                    Fraction(0),
                )
                assert cf.entry(i, j) == cf.entry(j, i) == want, (n, i, j)


def test_trace_identity():
    for n in (6, 7):
        for k in (1, 2):
            f = make_subtour(n, {1, 2, 3})
            M = moment_matrix_enumerated_cycles(n, f, k)
            assert trace_of(M) == expected_trace(n, k)
    M = moment_matrix_closed_form_k1(make_ones(6))
    assert trace_of(M) == 7
    M2 = moment_matrix_enumerated_cycles(6, make_ones(6), 2)
    assert trace_of(M2) == 28


def test_trace_scales_with_average():
    f = combine(2, make_ones(6), 0, make_ones(6))
    M = moment_matrix_closed_form_k1(f)
    assert trace_of(M) == 14
    rng = random.Random(3)
    for _ in range(5):
        g = random_functional(6, rng)
        M = moment_matrix_enumerated_cycles(6, g, 1)
        assert trace_of(M) == expected_trace(6, 1, average_on_x(g))


def test_nonnegative_functional_matrices_are_psd():
    for n in (6, 7):
        for f in generators(n):
            res = exact_ldlt(moment_matrix_closed_form_k1(f).N.tolist())
            assert res.is_psd


def test_rank_bounded_by_ground_set():
    X = cycle_ground_set(5)
    vals = [Fraction(1)] * len(X.points)
    M = moment_matrix_enumerated(X, vals, 2)
    res = exact_ldlt(M.N.tolist())
    assert res.is_psd
    assert res.rank <= len(X.points)


def test_star_kernel_all_n_up_to_40():
    for n in range(6, 41):
        for f in (make_ones(n), make_subtour(n, range(1, n // 2 + 1))):
            assert closed_form_k1(f).star_kernel_verified(), n


def fraction_weights(n, const, total):
    """The closed-form weights as Fractions from the path probabilities, the
    integer weights over the lcm R of their denominators, the corner and R."""
    def p(k, m):
        return Fraction(2 ** (m - 1) * factorial(n - k - 1), num_cycles(n)) if k + m <= n else 0

    p1, p2a, p2d, p31, p32, p33 = p(1, 1), p(2, 1), p(2, 2), p(3, 1), p(3, 2), p(3, 3)
    tri = Fraction(n == 3)
    W = [
        [const * p2d + total * p33, p32 - p33, p2d - 2 * p32 + p33, p31 - 2 * p32 + p33, 0],
        [const * p2a + total * p32, p31 - p32, p2a + p31 - tri, p32 - 2 * p31 + tri, p32 - 2 * p31],
        [const * p1 + total * p2d, 0, (p1 - 2 * p2a + p2d) / 2, 0, p2a - p2d],
    ]
    corner = const + total * p1
    R = math.lcm(Fraction(corner).denominator,
                 *(Fraction(w).denominator for row in W for w in row))
    return [[int(w * R) for w in row] for row in W], int(corner * R), R


def test_integer_weights_equal_the_fraction_weights():
    # the weights formed in integers from path counts cached per n equal
    # those of Fraction path probabilities, and so do N's scale and dtype,
    # for n = 3..60 on facets, random functionals and 10^20 coefficients
    rng = random.Random(13)
    dtypes = set()
    for n in range(3, 61):
        fs = [make_ones(n), random_functional(n, rng), large_functional(n, rng)]
        if n >= 5:
            fs += [make_subtour(n, {1, 2}), make_edge_bound(n, edge(2, 3), "lower")]
        for f in fs:
            const, coeff = f.constant, f.coeff.values()
            den = math.lcm(const.denominator, *(c.denominator for c in coeff))
            const, total = int(const * den), sum(int(c * den) for c in coeff)
            Wi, corner, R = _closed_form_weights(n, const, total)
            assert (Wi, corner, R) == fraction_weights(n, const, total)
            if n <= 12 or n % 16 == 0:
                cf = closed_form_k1(f)
                assert cf.scale == den * R and cf.N[0, 0] == corner
                dtypes.add(cf.N.dtype)
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}


def test_rows_equal_the_whole_matrix():
    # rows(idx) is N[idx, :] for random subsets, orders and repeats of the
    # indices, n = 3..12 and 60, in int64 and in Python ints; N itself is
    # checked against enumeration and containment counts above
    rng = random.Random(14)
    dtypes = set()
    for n in list(range(3, 13)) + [60]:
        for f in (random_functional(n, rng), large_functional(n, rng)):
            cf = closed_form_k1(f)
            N = cf.N
            dtypes.add(N.dtype)
            for _ in range(4 if n == 60 else 12):
                idx = rng.sample(range(cf.dim), rng.randint(1, min(cf.dim, 40)))
                for ask in (sorted(idx), idx, idx + idx[:3]):
                    got = cf.rows(ask)
                    assert got.dtype == N.dtype and np.array_equal(got, N[ask])
            assert np.array_equal(cf.rows(range(cf.dim)), N)
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}


def test_corner_is_the_average():
    # M[0, 0] is the average of f over X, on int64 and Python-int numerators
    rng = random.Random(12)
    a = Fraction(10**19 + 1, 10**19 + 3)
    dtypes = set()
    for n in (3, 4, 7, 12, 25):
        f = random_functional(n, rng)
        for g in (f, combine(a, f, 1 - a, make_ones(n))):
            cf = closed_form_k1(g)
            dtypes.add(cf.N.dtype)
            assert Fraction(cf.N[0, 0], cf.scale) == average_on_x(g)
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}


def test_per_n_index_arrays_are_cached_and_read_only():
    n = 9
    D = degree_relations(n)
    assert degree_relations(n) is D
    for i in range(1, n + 1):
        want = [2] + [-1 if i in e else 0 for e in all_edges(n)]
        assert D[:, i - 1].tolist() == want
    layout = _edge_layout(n)
    assert _edge_layout(n) is layout
    edges = all_edges(n)
    for x in range(n):
        assert sorted(layout.at[x].tolist()) == [
            k for k, e in enumerate(edges) if x + 1 in e
        ]
        assert [
            edges[k].u + edges[k].v - x - 2 for k in layout.at[x].tolist()
        ] == layout.other[x].tolist()
    for a in (D, layout.u, layout.v, layout.at, layout.other):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


def test_rows_read_from_the_numerators():
    # edge-upper vanishes with x_e (zero row e), edge-lower is supported on
    # x_e = 1 (row e copies the constant row)
    n, e = 7, edge(2, 5)
    upper = closed_form_k1(make_edge_bound(n, e, "upper"))
    lower = closed_form_k1(make_edge_bound(n, e, "lower"))

    def copies(cf):
        return [i for i in range(1, cf.dim) if np.array_equal(cf.N[i], cf.N[0])]

    assert upper.zero_rows() == [coord(n, *e)] and copies(upper) == []
    assert lower.zero_rows() == [] and copies(lower) == [coord(n, *e)]
    assert copies(closed_form_k1(make_ones(n))) == []


def test_closed_form_quadratic_form_is_exact():
    # vector sizes and a functional with numerators beyond int64 reach each
    # of the float64, int64 and Python-int products
    rng = random.Random(8)
    f = random_functional(7, rng)
    a = Fraction(10**19 + 1, 10**19 + 3)
    for g in (f, combine(a, f, 1 - a, make_ones(7))):
        cf = closed_form_k1(g)
        keep = sorted(rng.sample(range(cf.dim), 15))
        rows = [[cf.entry(i, j) for j in keep] for i in keep]
        for size in (1, 2**20, 2**40):
            v = [rng.randint(-size, size) for _ in keep]
            want = sum(v[i] * rows[i][j] * v[j] for i in range(15) for j in range(15))
            assert cf.quadratic_form(v, keep) == want
        v = [rng.randint(-9, 9) for _ in range(cf.dim)]
        rows = cf.entries
        assert cf.quadratic_form(v) == sum(
            v[i] * rows[i][j] * v[j] for i in range(cf.dim) for j in range(cf.dim)
        )


def test_float_matrix_is_correctly_rounded():
    # N / scale is bitwise float(Fraction) per entry, for int64 numerators
    # and for Python-int numerators beyond 2^63
    f = combine(Fraction(5, 2), make_subtour(6, {1, 2, 3}), Fraction(-3, 2), make_ones(6))
    a = Fraction(10**19 + 1, 10**19 + 3)
    for g, big in ((f, False), (combine(a, f, 1 - a, make_ones(6)), True)):
        mats = [
            moment_matrix_closed_form_k1(g),
            moment_matrix_enumerated_cycles(6, g, 1),
            moment_matrix_enumerated_cycles(6, g, 2),
        ]
        for M in mats:
            assert (M.N.dtype == object) == big
            want = np.array([[float(x) for x in row] for row in M.entries])
            assert M.float_matrix().tobytes() == want.tobytes()
            assert M.to_float().tobytes() == want.tobytes()
            keep = [0, 3, 5, 9]
            assert M.float_matrix(keep).tobytes() == want[np.ix_(keep, keep)].tobytes()
            if big:
                # the error bound is the largest rounding error of an entry,
                # one float up and then up until it is an upper bound
                worst = max(abs(Fraction(float(x)) - x) for row in M.entries for x in row)
                up = math.nextafter(float(worst), math.inf)
                if Fraction(up) < worst:
                    up = math.nextafter(up, math.inf)
                assert M.float_entry_error_bound() == up


def test_rows_constructor_clears_denominators_once():
    rows = [[Fraction(1, 2), Fraction(-1, 3)], [Fraction(-1, 3), 4]]
    M = MomentMatrix.from_rows(1, ((0,), (1,)), ("a", "b"), rows)
    assert M.scale == 6 and M.N.tolist() == [[3, -2], [-2, 24]]
    assert M.entries == rows and M.trace() == Fraction(9, 2)
    # equality compares values, whatever the scale
    assert M == MomentMatrix(1, M.basis, M.labels, M.N * 5, 30)
    assert M != MomentMatrix(1, M.basis, M.labels, M.N, 7)
    big = Fraction(1, 2**70)
    M = MomentMatrix.from_rows(1, ((0,),), ("a",), [[big + 2**70]])
    assert M.N.dtype == object and M.entry(0, 0) == big + 2**70


def test_product_with_no_columns_is_empty():
    cf = closed_form_k1(make_ones(6))
    X = np.zeros((cf.dim, 0), dtype=np.int64)
    assert cf.product(X).shape == (cf.dim, 0)
    keep = [1, 2, 5]
    assert cf.product(X[keep], keep).shape == (3, 0)
    assert cf.annihilates(X) and cf.annihilates(X[keep], keep)


def test_product_is_an_integer_array():
    # the float64 BLAS path comes back as exact int64
    cf = closed_form_k1(make_ones(7))
    X = np.arange(cf.dim, dtype=np.int64)[:, None] - 9
    P = cf.product(X)
    assert P.dtype == np.int64
    assert P[:, 0].tolist() == [
        sum(a * b for a, b in zip(row, X[:, 0].tolist())) for row in cf.N.tolist()
    ]


def brute_force_form(f, p, n):
    """(1/|X|) sum over tours of f(x) p(x)^2, tour by tour."""
    cycles = enumerate_cycles(n)
    total = sum(
        (f.evaluate(c) * p.evaluate(c.incidence) ** 2 for c in cycles), Fraction(0)
    )
    return total / len(cycles)


@pytest.mark.parametrize("n", [6, 7])
def test_quadratic_form_matches_a_brute_force_sum(n):
    rng = random.Random(n)
    specs = [FacetSpec(kind, n, edge=e) for e in all_edges(n)
             for kind in ("edge-lower", "edge-upper")]
    specs += [FacetSpec("subtour", n, U=tuple(range(1, m + 1))) for m in range(2, n // 2 + 1)]
    if n == 7:
        specs.append(
            FacetSpec("two-matching", n, U=(1, 2, 3), F=(edge(1, 4), edge(2, 5), edge(3, 6)))
        )
    other = random_functional(n, rng)
    for spec in specs:
        p = boundary_certificate(spec)
        for f in (spec.functional(), other):
            assert quadratic_form_value(f, p, n) == brute_force_form(f, p, n)
    universe = all_edges(n)
    for _ in range(30):
        # products of edge variables and complements, repeats and a factor
        # next to its own complement included
        factors = edge_monomial(n, rng.choices(universe, k=rng.randint(0, 3))).factors
        for e in rng.choices(universe, k=rng.randint(0, 2)):
            factors += one_minus_edge(n, e).factors
        p = CertificatePolynomial("monomial-product", tuple(rng.sample(factors, len(factors))))
        f = large_functional(n, rng) if rng.random() < 0.3 else random_functional(n, rng)
        assert quadratic_form_value(f, p, n) == brute_force_form(f, p, n)


def test_quadratic_form_values():
    n = 6
    f = make_edge_bound(n, edge(1, 2), "upper")
    p = edge_monomial(n, [edge(1, 2)])
    assert quadratic_form_value(f, p, n) == 0
    ones = make_ones(n)
    const = edge_monomial(n, [])
    assert quadratic_form_value(ones, const, n) == 1
    assert quadratic_form_value(ones, p, n) == Fraction(2, 5)
    sub = make_subtour(7, {1, 2, 3})
    p_u = boundary_certificate(FacetSpec("subtour", 7, U=(1, 2, 3)))
    assert quadratic_form_value(sub, p_u, 7) == 0


def brute_force_moments(points, values, basis):
    """Integer sums S over a denominator D with S[I][J] / D =
    (1/|X|) sum_x f(x) mono_I(x) mono_J(x), point by point."""
    den = math.lcm(*(Fraction(v).denominator for v in values))
    d = len(basis)
    S = [[0] * d for _ in range(d)]
    for x, fx in zip(points, values):
        w = int(fx * den)
        live = [i for i, m in enumerate(basis) if all(x[c] for c in m)]
        for i in live:
            row = S[i]
            for j in live:
                row[j] += w
    return S, den * len(points)


def assert_matches_brute_force(M, points, values):
    S, D = brute_force_moments(points, values, M.basis)
    N = M.N.tolist()
    # N / scale == S / D entry by entry, in integers
    assert all(a * D == b * M.scale for ra, rb in zip(N, S) for a, b in zip(ra, rb))
    fits = all(-(2**63) <= a < 2**63 for row in N for a in row)
    assert M.N.dtype == (np.int64 if fits else object)


@pytest.mark.parametrize("n,k", [(5, 1), (5, 2), (5, 3), (6, 1), (6, 2), (6, 3), (7, 2)])
def test_enumerated_build_matches_a_brute_force_sum(n, k):
    rng = random.Random(10 * n + k)
    # values beyond 2^32 whose matrix still fits in int64, and beyond int64
    fs = [random_functional(n, rng), large_functional(n, rng, 10**10),
          large_functional(n, rng)]
    if n < 7:
        fs += generators(n)
    else:
        fs.append(make_two_matching(n, {1, 2, 3}, [edge(1, 4), edge(2, 5), edge(3, 6)]))
    cycles = enumerate_cycles(n)
    points = [c.incidence for c in cycles]
    for f in fs:
        M = moment_matrix_enumerated_cycles(n, f, k)
        assert M.n == n and M.basis == tuple(monomial_basis(len(all_edges(n)), k))
        assert_matches_brute_force(M, points, [f.evaluate(c) for c in cycles])


def test_ground_set_build_matches_a_brute_force_sum():
    rng = random.Random(4)
    for trial in range(12):
        d = rng.randint(3, 6)
        pts = rng.sample(
            [tuple((mask >> i) & 1 for i in range(d)) for mask in range(2**d)],
            rng.randint(2, 12),
        )
        X = GroundSet(d, tuple(tuple(map(Fraction, p)) for p in pts))
        big = 10**20 if trial % 3 == 0 else 1
        values = [Fraction(rng.randint(-5, 5) * big, rng.randint(1, 4)) for _ in pts]
        for k in (1, 2, 3):
            M = moment_matrix_enumerated(X, values, k)
            assert_matches_brute_force(M, pts, values)


def test_enumerated_matches_ground_set_route():
    n = 6
    f = make_subtour(n, {1, 2, 3})
    X = cycle_ground_set(n)
    vals = [f.evaluate(c) for c in enumerate_cycles(n)]
    A = moment_matrix_enumerated(X, vals, 1)
    B = moment_matrix_enumerated_cycles(n, f, 1)
    assert A.entries == B.entries


def test_zero_one_certificate_examples():
    X = GroundSet(2, ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))))
    p = zero_one_certificate((1, 1), X)
    assert [p.evaluate(pt) for pt in X.points] == [0, 1]
    full = GroundSet(
        2,
        tuple(
            (Fraction(a), Fraction(b)) for a in (0, 1) for b in (0, 1)
        ),
    )
    p = zero_one_certificate((1, 0), full)
    assert [p.evaluate(pt) for pt in full.points] == [0, 0, 1, 0]
    with pytest.raises(ValueError):
        zero_one_certificate((1, 1), full.__class__(2, full.points[:2]))


def test_zero_one_certificate_q_value():
    # q_f(p_y) = f(y)/|X| for any f
    rng = random.Random(11)
    pts = tuple(
        (Fraction(a), Fraction(b), Fraction(c))
        for a in (0, 1)
        for b in (0, 1)
        for c in (0, 1)
    )
    X = GroundSet(3, pts)
    vals = [Fraction(rng.randint(-5, 5)) for _ in pts]
    for y, fy in zip(pts, vals):
        p = zero_one_certificate(y, X)
        total = sum(
            (fv * p.evaluate(pt) ** 2 for pt, fv in zip(pts, vals)), Fraction(0)
        )
        assert total / len(pts) == Fraction(fy, len(pts))


def test_matrix_json_shape():
    M = moment_matrix_closed_form_k1(make_ones(6))
    d = M.to_json_dict()
    assert d["n"] == 6 and d["k"] == 1
    assert d["basis"][:3] == ["1", "1-2", "1-3"]
    assert d["entries"][1][1] == "2/5"
