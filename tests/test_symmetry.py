import math
import random

import numpy as np
import pytest

from fractions import Fraction

from tsppsd.cycles import all_edges, edge
from tsppsd.functionals import (
    LinearFunctional,
    combine,
    make_edge_bound,
    make_ones,
    make_subtour,
    make_two_matching,
)
from tsppsd.linalg import exact_ldlt
from tsppsd.moment import closed_form_k1, degree_relations
from tsppsd.psd import _adapted_quotient, membership_p1
from tsppsd.symmetry import adapted_basis, basis_shape, twin_classes


def dense(U, dtype=np.int64):
    """The adapted basis as a dense matrix, from its parts."""
    A = np.zeros((U.dim, len(U.units) + len(U.others)), dtype=dtype)
    A[U.pick, U.units] = 1
    for a, b, R, W in U.chunks:
        cols = np.broadcast_to(U.others[a:b, None], R.shape)
        np.add.at(A, (R, cols), 1 if W is None else W)
    return A


def brute_force_classes(C):
    """Twin classes by the definition, numbered in the order of the smallest
    member."""
    n = len(C)
    rep = [
        next(u for u in range(n)
             if all(C[u][w] == C[v][w] for w in range(n) if w not in (u, v)))
        for v in range(n)
    ]
    order = sorted(set(rep))
    return [order.index(r) for r in rep]


def class_structured(n, rng, big=False):
    """A symmetric coefficient matrix constant on the edges between (and
    within) the blocks of a random partition, with a random constant
    within each block."""
    r = rng.randint(1, n)
    block = [rng.randrange(r) for _ in range(n)]
    top = 10**20 if big else 3
    value = {}
    C = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            key = (min(block[u], block[v]), max(block[u], block[v]))
            if key not in value:
                value[key] = rng.randint(-top, top)
            C[u][v] = C[v][u] = value[key]
    return C


def test_twin_classes_match_the_definition():
    rng = random.Random(1)
    for trial in range(200):
        n = rng.randint(3, 12)
        C = class_structured(n, rng, big=trial % 4 == 0)
        if trial % 5 == 0:  # break some symmetry at random
            u, v = rng.sample(range(n), 2)
            C[u][v] = C[v][u] = C[u][v] + 1
        A = np.array(C, dtype=object if trial % 4 == 0 else np.int64)
        assert twin_classes(A).tolist() == brute_force_classes(C)


@pytest.mark.parametrize(
    "sizes",
    [(1, 1, 1), (3,), (2, 1), (1, 2), (4,), (2, 2), (3, 3), (1, 3, 1), (4, 1, 2),
     (5,), (2, 7), (1, 2, 3, 4, 5), (6, 1, 1, 1), (1,) * 9, (9, 9)],
)
def test_adapted_basis_spans_the_space_in_blocks(sizes):
    # the dimension identity holds (it is checked when the basis is built),
    # the columns are independent, and columns of different types are
    # orthogonal
    classes = np.repeat(np.arange(len(sizes)), sizes)
    n = len(classes)
    U, shape = adapted_basis(classes)
    c = len(shape.types)
    assert shape.sizes == sizes
    assert int(shape.dims.sum()) == 1 + math.comb(n, 2)
    if U is None:
        assert all(s == 1 for s in sizes) and c == 1 + math.comb(n, 2)
        return
    # the chunks cover the other columns in order, each no larger than its
    # bound; every other column has distinct rows and is no unit column,
    # and the unit columns pick distinct rows, e_0 first
    assert sorted(U.units.tolist() + U.others.tolist()) == list(range(c))
    cover = [x for a, b, _, _ in U.chunks for x in range(a, b)]
    assert sorted(set(cover)) == list(range(len(U.others)))
    assert all(R.size <= max(1, (1 << 18) // U.dim) for _, _, R, _ in U.chunks)
    A = dense(U)
    other = A[:, U.others]
    assert np.all(np.abs(other) <= 1)
    assert not np.any((np.count_nonzero(other, axis=0) == 1) & (other.sum(axis=0) == 1))
    assert len(set(U.pick.tolist())) == len(U.pick)
    assert U.units[0] == 0 and U.pick[0] == 0
    assert not np.any(shape.types[U.units])  # unit columns are trivial
    assert U.reach == np.count_nonzero(A, axis=0).max()
    assert np.all(np.diff(shape.types) >= 0)  # one diagonal block per type
    U = dense(U)
    gram = U.T @ U
    assert exact_ldlt(gram.tolist()).rank == c
    assert not np.any(gram[shape.types[:, None] != shape.types])
    # entries are 0, 1 or -1; e_0 is the first column
    assert set(np.unique(U).tolist()) <= {-1, 0, 1}
    assert U[:, 0].tolist() == [1] + [0] * math.comb(n, 2)


def test_relation_images_are_the_degree_relations():
    # U y = -(sum of D_v over a class), and D_q - D_p for the first two
    # members p, q of each class with two or more vertices
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(3, 11)
        classes = twin_classes(np.array(class_structured(n, rng), dtype=np.int64))
        U, shape = adapted_basis(classes)
        U = np.eye(1 + math.comb(n, 2), dtype=np.int64) if U is None else dense(U)
        D = degree_relations(n)
        members = [np.flatnonzero(classes == i) for i in range(classes.max() + 1)]
        want = [-D[:, m].sum(axis=1) for m in members]
        want += [D[:, m[1]] - D[:, m[0]] for m in members if len(m) >= 2]
        assert np.array_equal(U @ shape.relations, np.array(want).T)


def test_orbit_sizes_and_types_follow_the_classes():
    classes = np.array([0, 1, 0, 1, 1, 2])  # {1, 3}, {2, 4, 5}, {6}
    U, shape = adapted_basis(classes)
    U = dense(U)
    edges = all_edges(6)
    orbits = [j for j in range(len(shape.types)) if shape.orbit_sizes[j]]
    # the orbit indicators partition the edges
    cover = U[1:, orbits]
    assert cover.sum(axis=1).tolist() == [1] * len(edges)
    assert cover.sum(axis=0).tolist() == shape.orbit_sizes[orbits].tolist()
    by_orbit = {
        j: {tuple(sorted((classes[e.u - 1], classes[e.v - 1])))
            for e, x in zip(edges, U[1:, j]) if x}
        for j in orbits
    }
    assert all(len(pairs) == 1 for pairs in by_orbit.values())
    assert len(by_orbit) == 5  # {1,3}, {1,3}x{2,4,5}, {2,4,5}, and x{6} twice
    # the shape is built once per tuple of class sizes
    assert basis_shape((2, 3, 1)) is shape


def invariant_matrix(classes, rng):
    """A random symmetric integer matrix on the degree-1 basis of K_n that
    is invariant under the twin group of `classes`: entry (a, b) depends
    only on the orbit of the pair, its classes and the pattern of equal
    endpoints, taken in the least of its relabelings."""
    n = len(classes)
    ends = [()] + [(e.u - 1, e.v - 1) for e in all_edges(n)]

    def key(a, b):
        forms = []
        for x in (a, a[::-1]):
            for y in (b, b[::-1]):
                for p in ((x, y), (y, x)):
                    verts = p[0] + p[1]
                    forms.append((
                        len(p[0]), len(p[1]), tuple(classes[w] for w in verts),
                        tuple(verts.index(w) for w in verts),
                    ))
        return min(forms)

    value = {}
    N = np.zeros((len(ends), len(ends)), dtype=np.int64)
    for i, a in enumerate(ends):
        for j, b in enumerate(ends):
            N[i, j] = value.setdefault(key(a, b), int(rng.integers(-9, 10)))
    return N


def test_gram_and_lift_match_the_dense_products():
    # U^T N U from the rows of N at the representatives and U y against
    # dense products, for random invariant symmetric N in int64 and in
    # Python ints and random vertex orders
    rng = np.random.default_rng(3)
    for sizes in ((3, 2), (1, 1, 4), (5,), (2, 2, 2), (1, 6, 1, 2)):
        classes = np.repeat(np.arange(len(sizes)), sizes)
        rng.shuffle(classes)
        first = np.unique(classes, return_index=True)[1]
        classes = np.argsort(np.argsort(first))[classes]  # by smallest member
        U, _ = adapted_basis(classes)
        A = dense(U)
        assert np.array_equal(A[U.rep, np.arange(A.shape[1])], np.ones(A.shape[1]))
        assert np.array_equal(U.kappa, np.count_nonzero(A, axis=0))
        N = invariant_matrix(classes.tolist(), rng)
        assert np.array_equal(N, N.T)
        reps, at = np.unique(U.rep, return_inverse=True)
        assert np.array_equal(U.gram(N[reps], at), A.T @ N @ A)
        assert U.gram(N[reps].astype(object) * 2**70, at).tolist() == (
            (A.T @ N @ A).astype(object) * 2**70).tolist()
        y = rng.integers(-5, 6, A.shape[1])
        assert U.times(y).tolist() == (A @ y).tolist()


def class_structured_functional(n, rng, top):
    """A functional whose coefficients are constant on the edges between
    (and within) the blocks of a random partition, with denominators up to
    10^12 + 39."""
    C = class_structured(n, rng)
    den = rng.choice((1, 7, 10**12 + 39))
    coeff = {e: Fraction(C[e.u - 1][e.v - 1] * top, den) for e in all_edges(n)}
    return LinearFunctional(n, Fraction(rng.randint(-3, 3), den), coeff)


def test_gram_from_rows_matches_the_dense_product_on_functionals():
    # G read from the rows at the representatives is U^T N U in Python
    # ints, for every facet kind and random class-structured functionals
    # in int64 and Python ints
    rng = random.Random(8)
    fs = []
    for n in (5, 7, 9, 12):
        fs += [make_ones(n), make_subtour(n, {1, 2}), make_subtour(n, range(1, n // 2 + 1)),
               make_edge_bound(n, edge(2, 4), "lower"), make_edge_bound(n, edge(2, 4), "upper"),
               make_two_matching(n, {1, 2, 3}, [edge(1, 4), edge(2, 5), edge(3, 6)])
               if n >= 7 else make_ones(n)]
        fs += [class_structured_functional(n, rng, top) for top in (1, 10**20) for _ in range(4)]
    dtypes = set()
    for f in fs:
        cf = closed_form_k1(f)
        G, U, _ = _adapted_quotient(cf)
        if U is None:
            continue
        A = dense(U, object)
        assert G.N.tolist() == (A.T @ cf.N.astype(object) @ A).tolist()
        dtypes.add(G.N.dtype)
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}


def test_gram_is_exact_where_int64_sums_would_wrap():
    # an int64 N with max|N| * reach < 2^63 <= max|N| * reach^2: the entries
    # of N U fit in int64 but some of G = U^T N U do not.  A convex mix of
    # two members of P_1 is in P_1.
    n, a = 16, Fraction(2**39 + 1, 2**39 + 3)
    f = combine(a, make_subtour(n, {1, 2}), 1 - a, make_ones(n))
    cf = closed_form_k1(f)
    U, _ = adapted_basis(twin_classes(cf.C))
    assert cf.N.dtype == np.int64
    assert cf.max_abs * U.reach < 2**63 <= cf.max_abs * U.reach**2
    G = _adapted_quotient(cf)[0].N
    A = dense(U, object)
    want = A.T @ cf.N.astype(object) @ A
    assert G.tolist() == want.tolist() and np.abs(want).max() >= 2**63
    assert membership_p1(f).is_psd


@pytest.mark.parametrize("sizes", [(15, 45), (2,) * 30, (2,) + (1,) * 58])
def test_chunks_hold_at_most_a_block_at_n_60(sizes):
    # a gathered chunk holds at most 2^18 entries of a row of N (or one
    # row), and the chunks cover each other column with its entries
    U = basis_shape(sizes).basis
    cap = (1 << 18) // U.dim
    assert all(R.size <= cap for _, _, R, _ in U.chunks)
    entries = np.zeros(len(U.others), dtype=np.int64)
    for a, b, R, W in U.chunks:
        live = np.ones(R.shape, dtype=bool) if W is None else W != 0
        entries[a:b] += live.sum(axis=1)
    n, big = sum(sizes), sum(s >= 2 for s in sizes)
    nnz = (1 + math.comb(n, 2) + 2 * (n - 2) * big + 4 * sum(s >= 4 for s in sizes)
           + 4 * math.comb(big, 2))
    assert entries.sum() + len(U.units) == nnz
