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
from tsppsd.moment import (
    GroundSet,
    MomentMatrix,
    closed_form_k1,
    containment_probability,
    cycle_ground_set,
    expected_trace,
    moment_matrix_closed_form_k1,
    moment_matrix_enumerated,
    moment_matrix_enumerated_cycles,
    monomial_basis,
    quadratic_form_value,
    trace_of,
    zero_one_certificate,
)
from tsppsd.polynomials import edge_monomial
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
