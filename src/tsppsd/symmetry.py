"""Symmetry reduction of the degree-1 moment matrix by the twin group of a
functional (the standard reduction of invariant semidefinite programs:
Gatermann and Parrilo, J. Pure Appl. Algebra 192, 2004; de Klerk,
Pasechnik and Schrijver, Math. Program. 109, 2007).

Vertices u and v of K_n are twins for a functional f when its coefficients
satisfy c_uw = c_vw for every other vertex w.  Twinship is an equivalence
relation (from u ~ v and v ~ w, c_uv = c_uw = c_vw), and a transposition of
twins fixes every coefficient.  So f, the tours, and hence the moment matrix
M = N / scale are invariant under the twin group S_{I_1} x ... x S_{I_r},
the product of the symmetric groups of the twin classes I_1..I_r.

The degree-1 basis, the constant e_0 and the edges x_e, splits into edge
orbits of the twin group: the pairs within one class and the pairs between
two classes.  As modules of the group, the pairs within a class of size m are trivial + std +
(m-2, 2), with std for m >= 3 and (m-2, 2) for m >= 4, and the pairs between
classes of sizes a and b are trivial + std_a + std_b + std_a (x) std_b.
`adapted_basis` takes one integer vector per copy of each irreducible
representation, the copies of one type being the images of one vector under
equivariant maps:

* trivial (dimension 1): e_0 and the indicator of each edge orbit;
* std_i (dimension |I_i| - 1), for |I_i| >= 2 with p, q the first two
  members of I_i: sum_{w in J} (x_pw - x_qw) for each other class J, and
  for J = I_i minus {p, q} when |I_i| >= 3;
* (|I_i| - 2, 2) (dimension |I_i| (|I_i| - 3) / 2), for |I_i| >= 4 with
  p, q, r, s the first four members of I_i: x_pq - x_rq - x_ps + x_rs;
* std_i (x) std_j (dimension (|I_i| - 1)(|I_j| - 1)), for |I_i|, |I_j| >= 2
  with a, b the first two members of I_j: x_pa - x_qa - x_pb + x_qb.

Let U be the matrix of these columns.  Its entries are 0 and +-1, and
few: the orbit indicators partition the edges, a copy of std has at most
2 (n - 2) entries, and the others four.  Each column U_i has a
representative, a row rep_i where it is +1, and for each row r of its
support the group has an element that maps rep_i to r and every column
of the type of U_i to U_i[r] times itself.  So, within a type,
U_i^T N U_j = kappa_i (N U_j)[rep_i], with kappa_i the number of entries
of U_i: G below needs only the rows of N at the representatives, at most
c of the 1 + C(n, 2), and is formed from them by signed sums
(`AdaptedBasis.gram`), in about c * nnz(U) additions.  By Schur's lemma
G = U^T N U vanishes between columns of different types, and N on the
isotypic component of type rho is congruent to (the block of G on the
copies of rho) (x) I_dim(rho).  So M is PSD iff G is, and y^T G y < 0
gives the witness w = U y, with w^T N w = y^T G y exactly.  The copies of
each type are independent (their supports are disjoint edge sets), so the
dimension identity sum_rho dim(rho) * multiplicity(rho) = 1 + C(n, 2),
checked when the basis of a tuple of class sizes is built, shows that they
span the whole space.  The same congruence gives the spectrum of M
(`isotypic_eigh`): the eigenvalues of each type block of G, scaled by the
column norms, each with multiplicity dim(rho).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from tsppsd.linalg import PivotBlock, nonsingular_block, peak


@dataclass(frozen=True)
class BasisShape:
    """What the adapted basis depends on through the class sizes only:
    one column per copy of each irreducible representation, in the order
    trivial, std, (m-2, 2), std (x) std.  The arrays are read-only.

    `sizes` are the class sizes in class order.  `types` labels the
    representation type of each column (0 for the trivial one, then
    nondecreasing) and `dims` the dimension of that type.  `orbit_sizes`
    holds |O| for the indicator
    of an edge orbit O and 0 for every other column.  `relations` (c x t)
    holds the images y of the degree relations
    (D_v = 2 e_0 - sum_{e at v} x_e): U y = -sum_{v in I_i} D_v for each
    class, and U y = D_q - D_p for each class with |I_i| >= 2 and p, q its
    first two members; `block` is their pivot block with the rows in
    order (`linalg.nonsingular_block`).  `basis` is U when each class is a
    run of consecutive vertices, and None when every class is a singleton:
    the group is then trivial and U is the identity.  Its rows are then the
    coordinates of the edges of K_n with the classes in that order, and its
    arrays are read-only.
    """

    sizes: tuple[int, ...]
    types: np.ndarray
    dims: np.ndarray
    orbit_sizes: np.ndarray
    relations: np.ndarray
    block: PivotBlock
    basis: AdaptedBasis | None


def twin_classes(C: np.ndarray) -> np.ndarray:
    """Twin class of each vertex for the symmetric coefficient matrix C with
    zero diagonal, numbered 0.. in the order of the smallest member.

    Rows u and v of C differ at w = u and w = v exactly when c_uv != 0, so u
    and v are twins iff their rows differ in 2 [c_uv != 0] places."""
    nonzero = C != 0
    if C.dtype == object:  # compare labels of the values, not Python ints
        C = np.unique(C.ravel(), return_inverse=True)[1].reshape(C.shape)
    differ = np.count_nonzero(C[:, None, :] != C[None, :, :], axis=2)
    first = (differ == 2 * nonzero).argmax(axis=1)  # smallest twin
    return np.cumsum(first == np.arange(len(C)))[first] - 1


_BLOCK = 2**18  # gathered entries held at once by `AdaptedBasis._sum_rows`


@dataclass(frozen=True)
class AdaptedBasis:
    """The adapted basis U, (1 + C(n, 2)) x c with entries 0 and +-1, in
    two parts.  The unit columns, at `units`, have a single entry 1 at the
    rows `pick`.  The other columns are listed in `others` and stored in
    `chunks` (a, b, R, W): for i < b - a, the (a + i)-th other column has
    entries W[i, j] at the rows R[i, j], W None meaning all 1 (a weight 0
    pads a short column).  A column in several chunks is their sum.  Each
    R has at most max(1, _BLOCK // dim) entries, so a chunk of the rows of
    a matrix with `dim` columns or fewer holds at most _BLOCK entries, or
    one row.  `reach` is the largest number of entries in a column.

    Column i has kappa[i] entries and the entry +1 at the row rep[i], its
    representative, and dims[i] is the dimension of its representation
    type.  The columns of one type are consecutive: `single` lists those
    alone in their type, and `blocks` the ranges (s, e) of the types with
    two or more columns."""

    units: np.ndarray
    pick: np.ndarray
    others: np.ndarray
    chunks: tuple[tuple[int, int, np.ndarray, np.ndarray | None], ...]
    dim: int
    reach: int
    rep: np.ndarray
    kappa: np.ndarray
    dims: np.ndarray
    single: np.ndarray
    blocks: tuple[tuple[int, int], ...]

    def relabeled(self, row: np.ndarray) -> AdaptedBasis:
        """The basis with each row i moved to row[i]."""
        chunks = tuple((a, b, row[R], W) for a, b, R, W in self.chunks)
        return replace(self, pick=row[self.pick], chunks=chunks, rep=row[self.rep])

    def _sum_rows(self, X: np.ndarray) -> np.ndarray:
        """U[:, others]^T X for an integer array X with `dim` rows and at
        most `dim` columns, in the dtype of X, one chunk at a time.  Exact
        when a sum of `reach` entries of X cannot overflow."""
        out = np.zeros((len(self.others), X.shape[1]), dtype=X.dtype)
        for a, b, R, W in self.chunks:
            part = X[R]
            out[a:b] += part.sum(axis=1) if W is None else np.matmul(W[:, None], part)[:, 0]
        return out

    def gram(self, R: np.ndarray, at: np.ndarray) -> np.ndarray:
        """Exact G = U^T N U for a symmetric integer matrix N invariant under
        the twin group, from its rows at the representatives: row at[i] of
        R is N[rep[i]].

        Within a type, G[i, j] = kappa[i] (N U_j)[rep[i]]: for each row r
        of the support of U_i the group has an element that maps rep[i] to
        r and U_j to U_i[r] U_j, so each of the kappa[i] terms
        U_i[r] (N U_j)[r] of U_i^T N U_j is (N U_j)[rep[i]].  Between types
        G is 0 by Schur's lemma.  So G costs len(R) * nnz(U) additions, never N: with
        Q = U^T R^T (rows of R^T at `pick`, and signed sums of its rows),
        G[i, j] = kappa[i] Q[j, at[i]].  It is int64 when
        max|R| * reach^2 < 2^63, which bounds every entry and partial sum,
        and Python ints otherwise.

        A type block is filled as its transpose and must be symmetric, as
        U^T N U is; else RuntimeError is raised: N is invariant under the
        group by construction, so that means a transcription bug.
        """
        T = R.T  # C-contiguous for the rows of `moment.ClosedFormK1.rows`
        if T.dtype != object and peak(T) * self.reach**2 >= 2**63:
            T = T.astype(object)
        c = len(self.rep)
        Q = np.empty((c, T.shape[1]), dtype=T.dtype)
        Q[self.units] = T[self.pick]
        Q[self.others] = self._sum_rows(T)
        G = np.zeros((c, c), dtype=T.dtype)
        one = self.single
        G[one, one] = self.kappa[one] * Q[one, at[one]]
        for s, e in self.blocks:
            block = G[s:e, s:e]
            np.multiply(Q[s:e].take(at[s:e], axis=1), self.kappa[s:e], out=block)
            if not np.array_equal(block, block.T):
                raise RuntimeError("moment matrix not invariant under the twin group")
        return G

    def times(self, y) -> np.ndarray:
        """U y for an integer vector y, in Python ints."""
        y = np.array(y, dtype=object)
        w = np.zeros(self.dim, dtype=object)
        w[self.pick] = y[self.units]  # distinct coordinates
        for a, b, R, W in self.chunks:
            x = y[self.others[a:b], None]
            np.add.at(w, R, x if W is None else x * W)
        return w


@dataclass(frozen=True)
class IsotypicSpectrum:
    """The spectrum of a matrix M invariant under the twin group, type block
    by type block: M has the eigenvalue values[k] with multiplicity
    multiplicity[k], and, when the eigenvectors were asked for, U applied
    to column k of `vectors` (c x c, each column supported on one type
    block) is an eigenvector of M for values[k]."""

    values: np.ndarray
    multiplicity: np.ndarray
    vectors: np.ndarray | None

    def ascending(self) -> np.ndarray:
        """Every eigenvalue of M, repeated by its multiplicity, ascending."""
        return np.sort(np.repeat(self.values, self.multiplicity))


def isotypic_eigh(
    A: np.ndarray, U: AdaptedBasis | None, vectors: bool = False
) -> IsotypicSpectrum:
    """The spectrum of M from the float matrix A = U^T M U in the adapted
    basis U, without an eigendecomposition of M: U = None stands for the
    identity, one block.

    Let D = diag(kappa) on the columns of one type t.  Copies of t have
    disjoint supports, so U_t^T U_t = D, and the columns U_i / sqrt(kappa_i)
    are the images of one unit vector under the isometric embeddings of the
    copies (Schur's lemma makes every equivariant map between copies a
    scaled isometry).  So M acts on the isotypic component of t as
    B_t (x) I_dims[t] with B_t = D^-1/2 A_t D^-1/2: each eigenvalue of B_t
    is one of M with multiplicity dims[t], and an eigenvector x of B_t
    lifts to the eigenvector U (D^-1/2 x) of M.  A type with one column is
    the 1 x 1 block A_ii / kappa_i.  With U = None, A = M is one block.
    """
    c = len(A)
    if U is None:
        values, Y = np.linalg.eigh(A) if vectors else (np.linalg.eigvalsh(A), None)
        return IsotypicSpectrum(values, np.ones(c, dtype=np.int64), Y)
    inv = 1 / np.sqrt(U.kappa)
    single = U.single
    values = [A[single, single] / U.kappa[single]]
    multiplicity = [U.dims[single]]
    Y = None
    if vectors:
        Y = np.zeros((c, c))
        Y[single, np.arange(len(single))] = inv[single]
    col = len(single)
    # the blocks of one size in one stacked call, one block per layer
    by_size: dict[int, list[int]] = {}
    for s, e in U.blocks:
        by_size.setdefault(e - s, []).append(s)
    for size, starts in by_size.items():
        at = np.add.outer(starts, np.arange(size))
        scale = inv[at]
        B = A[at[:, :, None], at[:, None, :]] * scale[:, :, None] * scale[:, None, :]
        if Y is None:
            w = np.linalg.eigvalsh(B)
        else:
            w, x = np.linalg.eigh(B)
            cols = col + np.arange(at.size).reshape(at.shape)
            Y[at[:, :, None], cols[:, None, :]] = x * scale[:, :, None]
        values.append(w.ravel())
        multiplicity.append(np.repeat(U.dims[starts], size))
        col += at.size
    return IsotypicSpectrum(np.concatenate(values), np.concatenate(multiplicity), Y)


def adapted_basis(classes: np.ndarray) -> tuple[AdaptedBasis | None, BasisShape]:
    """The adapted basis U of the twin class of each vertex of K_n,
    numbered 0..r-1 in the order of the smallest member (`twin_classes`),
    or None when U is the identity, and its shape: the basis of
    `basis_shape` with the vertices relabeled."""
    order = np.argsort(classes, kind="stable")  # the vertices class by class
    shape = basis_shape(tuple(np.bincount(classes).tolist()))
    if shape.basis is None:
        return None, shape
    table, eu, ev = _coordinates(len(classes))
    # the coordinate of each class-order edge among the edges of f
    row = np.concatenate(([0], table[order[eu], order[ev]]))
    return shape.basis.relabeled(row), shape


@functools.lru_cache(maxsize=64)
def _coordinates(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n x n table of the basis index of the edge between two 0-based
    vertices, and the endpoints of the edges in basis order, read-only."""
    eu, ev = np.triu_indices(n, 1)
    table = np.zeros((n, n), dtype=np.int64)
    table[eu, ev] = table[ev, eu] = 1 + np.arange(len(eu))
    for a in (table, eu, ev):
        a.flags.writeable = False
    return table, eu, ev


@functools.lru_cache(maxsize=64)
def basis_shape(sizes: tuple[int, ...]) -> BasisShape:
    """The adapted basis when class i is the run of sizes[i] vertices after
    those of the classes before it, built once per tuple of sizes.  Raises
    RuntimeError if the dimension identity fails, which would mean a
    transcription bug."""
    size = np.array(sizes, dtype=np.int64)
    n, r = int(size.sum()), len(sizes)
    E = n * (n - 1) // 2
    start = np.cumsum(size) - size
    classes = np.repeat(np.arange(r), size)
    table, eu, ev = _coordinates(n)
    # edge orbits, lexicographic in the classes of their ends (their ends
    # are ordered, so classes[eu] <= classes[ev]): with every class a
    # singleton they are the edges in basis order, and U = I
    lo, hi = classes[eu], classes[ev]
    present = np.zeros((r, r), dtype=bool)
    present[lo, hi] = True
    olo, ohi = np.nonzero(present)
    orbit = (np.cumsum(present) - 1).reshape(r, r)[lo, hi]
    counts = np.bincount(orbit, minlength=len(olo))
    trivial = 1 + len(olo)
    # std_i: class i has copies for the other classes J and, when |I_i| >= 3,
    # for I_i minus {p, q}; `left` counts the vertices w of J, w != p, q
    big = np.flatnonzero(size >= 2)
    left = np.repeat(size[None, :], len(big), axis=0)
    left[np.arange(len(big)), big] -= 2
    copy = left > 0
    mult = copy.sum(axis=1)
    std = int(mult.sum())
    four = np.flatnonzero(size >= 4)
    bi, bj = np.triu_indices(len(big), 1)
    c = trivial + std + len(four) + len(bi)

    owner = np.repeat(np.arange(len(big)), mult)
    types = np.concatenate([
        np.zeros(trivial, dtype=np.int64),
        1 + big[owner],
        1 + r + four,
        1 + 2 * r + big[bi] * r + big[bj],
    ])
    dims = np.concatenate([
        np.ones(trivial, dtype=np.int64),
        size[big][owner] - 1,
        size[four] * (size[four] - 3) // 2,
        (size[big][bi] - 1) * (size[big][bj] - 1),
    ])
    if dims.sum() != 1 + E:
        raise RuntimeError(f"adapted basis spans {dims.sum()} of {1 + E} dimensions")
    orbit_sizes = np.zeros(c, dtype=np.int64)
    orbit_sizes[1:trivial] = counts

    # degree relations: per class, -2|I_i| on e_0, 2 on the orbit within it
    # and 1 on each orbit between it and another class; per std_i, all ones
    relations = np.zeros((c, r + len(big)), dtype=np.int64)
    relations[0, :r] = -2 * size
    relations[np.arange(1, trivial), olo] += 1
    relations[np.arange(1, trivial), ohi] += 1
    relations[trivial + np.arange(std), r + owner] = 1

    basis = None
    if r < n:
        p, q = start[big], start[big] + 1
        k, w = np.nonzero((np.arange(n) != p[:, None]) & (np.arange(n) != q[:, None]))
        slot = (np.cumsum(mult) - mult)[k] + (np.cumsum(copy, axis=1) - 1)[k, classes[w]]
        m = start[four][:, None] + np.arange(4)
        parts = [
            ([0], [0], [1]),
            (1 + np.arange(E), 1 + orbit, np.ones(E)),
            (table[p[k], w], trivial + slot, np.ones(len(k))),
            (table[q[k], w], trivial + slot, -np.ones(len(k))),
            _square(table, trivial + std + np.arange(len(four)),
                    m[:, 0], m[:, 2], m[:, 1], m[:, 3]),
            _square(table, c - len(bi) + np.arange(len(bi)), p[bi], q[bi], p[bj], q[bj]),
        ]
        rows, cols, vals = (
            np.concatenate([np.asarray(part[i], dtype=np.int64) for part in parts])
            for i in range(3)
        )
        basis = _chunked(rows, cols, vals, 1 + E, types, dims)
    for a in (types, dims, orbit_sizes, relations):
        a.flags.writeable = False
    block = nonsingular_block(relations, np.arange(c))
    return BasisShape(sizes, types, dims, orbit_sizes, relations, block, basis)


def _chunked(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    dim: int,
    types: np.ndarray,
    dims: np.ndarray,
) -> AdaptedBasis:
    """The basis with the nonzero entries U[rows[t], cols[t]] = vals[t], the
    nondecreasing representation type of each column and its dimension."""
    c = len(types)
    count = np.bincount(cols, minlength=c)
    # the representative of each column: its first row where it is +1
    rep = np.full(c, dim, dtype=np.int64)
    np.minimum.at(rep, cols[vals == 1], rows[vals == 1])
    bounds = np.flatnonzero(np.diff(types, prepend=-1, append=-1))
    size = np.diff(bounds)
    single = bounds[:-1][size == 1]
    blocks = tuple(zip(bounds[:-1][size > 1].tolist(), bounds[1:][size > 1].tolist()))
    unit = (count == 1) & (np.bincount(cols, weights=vals, minlength=c) == 1)
    units = np.flatnonzero(unit)
    pick = np.zeros(c, dtype=np.int64)
    pick[cols[unit[cols]]] = rows[unit[cols]]
    pick = pick[units]
    # the other columns by their number of entries, then their entries
    # column by column, at start[j]..start[j] + k[j] - 1 for the j-th one
    others = np.flatnonzero(~unit)
    others = others[np.argsort(count[others], kind="stable")]
    place = np.zeros(c, dtype=np.int64)
    place[others] = np.arange(len(others))
    e = np.flatnonzero(~unit[cols])
    e = e[np.argsort(place[cols[e]], kind="stable")]
    rows, vals, k = rows[e], vals[e], count[others]
    start = np.cumsum(k) - k
    cap = max(1, _BLOCK // dim)  # gathered rows per chunk
    chunks, a = [], 0
    while a < len(others):
        b = a + 1
        if k[a] > cap:  # one column, cap entries at a time
            parts = [(start[a] + np.arange(lo, min(k[a], lo + cap))[None, :], False)
                     for lo in range(0, k[a], cap)]
        else:  # the columns that fit, padded to the longest with weight 0
            while b < len(others) and (b + 1 - a) * k[b] <= cap:
                b += 1
            j = np.arange(k[b - 1])
            pad = j >= k[a:b, None]
            parts = [(start[a:b, None] + np.where(pad, 0, j), pad)]
        for at, pad in parts:
            W = np.where(pad, 0, vals[at])
            chunks.append((a, b, rows[at], None if np.all(W == 1) else W))
        a = b
    arrays = [x for chunk in chunks for x in chunk[2:] if x is not None]
    for x in (units, pick, others, rep, count, single, *arrays):
        x.flags.writeable = False
    return AdaptedBasis(
        units, pick, others, tuple(chunks), dim, int(count.max()),
        rep, count, dims, single, blocks,
    )


def _square(table: np.ndarray, cols, p, r, q, s) -> tuple:
    """Triplets of x_pq - x_rq - x_ps + x_rs in the columns `cols`."""
    rows = np.concatenate([table[p, q], table[r, q], table[p, s], table[r, s]])
    vals = np.repeat([1, -1, -1, 1], len(cols))
    return rows, np.tile(cols, 4), vals
