"""Moment matrices of the quadratic form q_f(h) = (1/|X|) sum f(x) h(x)^2.

Two construction routes:

* enumeration over an explicit finite ground set (any degree k, exact
  rationals, resource-capped basis size);
* a closed form for degree 1 over the Hamiltonian-cycle ground set of K_n:
  every entry is f.constant * P(I u J) + sum_e coeff(e) * P(I u J u {e}),
  where P(E) is the fraction of tours containing the edge set E, available
  in closed form from the disjoint-path count.

The closed-form builder needs only the edge coefficients, their vertex sums
and their total: every entry is affine in a few statistics of the edge pair,
so it is built with a few numpy operations at any n.

Both routes produce the same representation, `MomentMatrix`: one exact
integer numerator array N (int64 when every entry fits, Python ints
otherwise) over one positive integer scale, M = N / scale.  Every consumer
works on N: the float view is the correctly rounded N / scale, exact
products, quadratic forms and kernel tests are integer products, exact
elimination takes N itself, and output formats each distinct numerator
once.  Fractions appear only in the read-only `entries` view.  Floats
appear only in eigensolving.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from tsppsd.cycles import (
    DEFAULT_CYCLE_CAP,
    Edge,
    all_edges,
    count_cycles_with_edge_set,
    enumerate_cycles,
    factorial,
    num_cycles,
)
from tsppsd.errors import ResourceLimitError
from tsppsd.functionals import LinearFunctional
from tsppsd.linalg import integer_matmul
from tsppsd.polynomials import CertificatePolynomial
from tsppsd.rational import clear_denominators, format_fraction

DEFAULT_BASIS_CAP = 6000

Monomial = tuple[int, ...]  # sorted coordinate indices, repetition allowed


@dataclass(frozen=True)
class GroundSet:
    """A finite set of rational vectors, coordinates indexed 0..dimension-1."""

    dimension: int
    points: tuple[tuple[Fraction, ...], ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("ground set must be nonempty")
        for p in self.points:
            if len(p) != self.dimension:
                raise ValueError("point dimension mismatch")
        if len(set(self.points)) != len(self.points):
            raise ValueError("ground set has duplicate points")
        if self.labels is not None and len(self.labels) != self.dimension:
            raise ValueError("need one label per coordinate")

    def label(self, c: int) -> str:
        return self.labels[c] if self.labels else f"x{c + 1}"

    @property
    def is_zero_one(self) -> bool:
        return all(x in (0, 1) for p in self.points for x in p)


def cycle_ground_set(n: int, cap: int = DEFAULT_CYCLE_CAP) -> GroundSet:
    """Incidence vectors of all Hamiltonian cycles of K_n."""
    pts = tuple(
        tuple(Fraction(b) for b in c.incidence) for c in enumerate_cycles(n, cap)
    )
    labels = tuple(f"{e.u}-{e.v}" for e in all_edges(n))
    return GroundSet(n * (n - 1) // 2, pts, labels)


def monomial_basis(dimension: int, k: int, cap: int = DEFAULT_BASIS_CAP) -> list[Monomial]:
    """Coordinate multisets of size <= k, ordered by degree then lexicographically."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    size = sum(math.comb(dimension + j - 1, j) for j in range(k + 1))
    if size > cap:
        raise ResourceLimitError(f"basis size {size} exceeds cap {cap}")
    basis: list[Monomial] = []
    for deg in range(k + 1):
        basis.extend(itertools.combinations_with_replacement(range(dimension), deg))
    return basis


def monomial_label(mono: Monomial, ground: GroundSet) -> str:
    return _edge_monomial_label(mono, [ground.label(c) for c in range(ground.dimension)])


class MomentMatrix:
    """Symmetric exact matrix M = N / scale of q_f in the monomial basis.

    N is an integer array, int64 when every entry fits and Python ints
    otherwise, and scale is a positive integer; every consumer works on
    these numerators.  `entries` is a read-only Fraction view for callers
    that want rationals.  Immutable by convention.
    """

    def __init__(
        self,
        k: int,
        basis: Sequence[Monomial],
        labels: Sequence[str],
        N: np.ndarray,
        scale: int,
        n: int | None = None,  # vertex count when built over tours of K_n
    ):
        self.k = k
        self.basis = tuple(basis)
        self.labels = tuple(labels)
        self.N = N
        self.scale = scale
        self.n = n
        self._fractions: dict[int, Fraction] = {}
        self._max_abs = max(int(N.max()), -int(N.min()))
        # both operands exact in float64, so one correctly rounded division
        self._float_exact = self._max_abs < 2**53 and scale < 2**53

    @classmethod
    def from_rows(
        cls,
        k: int,
        basis: Sequence[Monomial],
        labels: Sequence[str],
        rows: Sequence[Sequence[Fraction | int]],
        n: int | None = None,
    ) -> MomentMatrix:
        """The matrix of rational rows, denominators cleared once."""
        nums, den = clear_denominators(rows)
        return cls(k, basis, labels, _integer_array(nums), den, n)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MomentMatrix):
            return NotImplemented
        if (self.k, self.basis, self.labels, self.n) != (
            other.k, other.basis, other.labels, other.n
        ):
            return False
        # N / scale == N' / scale' iff N * scale' == N' * scale
        a, b = self.N, other.N
        if max(self._max_abs, other._max_abs, self.scale, other.scale) ** 2 >= 2**63:
            a, b = a.astype(object), b.astype(object)
        return bool(np.array_equal(a * other.scale, b * self.scale))

    __hash__ = None  # type: ignore[assignment]

    def _exact(self, x: int) -> Fraction:
        """Exact value of the numerator x; each distinct one is converted
        once per matrix."""
        q = self._fractions.get(x)
        if q is None:
            q = self._fractions[x] = Fraction(x, self.scale)
        return q

    def entry(self, i: int, j: int) -> Fraction:
        return self._exact(self.N.item(i, j))

    def row(self, i: int) -> list[Fraction]:
        return [self._exact(x) for x in self.N[i].tolist()]

    @functools.cached_property
    def entries(self) -> list[list[Fraction]]:
        """Read-only Fraction view of M, built once on first use."""
        return [self.row(i) for i in range(self.dim)]

    def trace(self) -> Fraction:
        return Fraction(sum(self.N.diagonal().tolist()), self.scale)

    def numerators(self, keep: Sequence[int] | None = None) -> np.ndarray:
        """N, or its principal submatrix on `keep`."""
        return self.N if keep is None else self.N[np.ix_(keep, keep)]

    def float_matrix(self, keep: Sequence[int] | None = None) -> np.ndarray:
        """Correctly rounded float64 entries."""
        N = self.numerators(keep)
        if self._float_exact:
            return N / self.scale
        # Python int division rounds correctly at any size
        return (N.astype(object) / self.scale).astype(float)

    def to_float(self) -> np.ndarray:
        """The float view of the whole matrix, `float_matrix()`."""
        return self.float_matrix()

    def float_entry_error_bound(self) -> float:
        """Bound on |float_matrix() - M| per entry, rounded outward."""
        if self._float_exact:
            # a correctly rounded value is within 2^-53 of it, relatively
            worst = Fraction(self._max_abs, self.scale * 2**53)
        else:
            worst = max(
                abs(Fraction(x / self.scale) - Fraction(x, self.scale))
                for x in np.unique(self.N).tolist()
            )
        up = math.nextafter(float(worst), math.inf)
        return up if Fraction(up) >= worst else math.nextafter(up, math.inf)

    def product(self, X: np.ndarray, keep: Sequence[int] | None = None) -> np.ndarray:
        """Exact N[keep, keep] @ X for an integer matrix X, as an integer
        array (`linalg.integer_matmul`).  An X without columns gives the
        empty product."""
        return integer_matmul(self.numerators(keep), X, self._max_abs)

    def annihilates(self, X: np.ndarray, keep: Sequence[int] | None = None) -> bool:
        """Exact test that M, restricted to `keep`, maps every column of the
        integer matrix X to zero."""
        return not np.any(self.product(X, keep))

    def quadratic_form(self, v: Sequence[int], keep: Sequence[int] | None = None) -> Fraction:
        """Exact v^T M v for an integer vector v, M restricted to `keep`."""
        x = np.array(v, dtype=object)
        Nv = self.product(x[:, None], keep)[:, 0].tolist()
        return Fraction(sum(a * b for a, b in zip(Nv, v)), self.scale)

    def zero_rows(self) -> list[int]:
        """Indices whose entire row is exactly zero."""
        return np.flatnonzero(~(self.N != 0).any(axis=1)).tolist()

    def formatted_rows(self) -> list[list[str]]:
        """Entries as "p/q" strings; each distinct numerator is formatted once."""
        rows = self.N.tolist()
        text = {
            x: format_fraction(Fraction(x, self.scale))
            for x in {x for row in rows for x in row}
        }
        return [[text[x] for x in row] for row in rows]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "basis": list(self.labels),
            "entries": self.formatted_rows(),
        }


def _integer_array(rows: Sequence[Sequence[int]]) -> np.ndarray:
    """int64 array of integer rows when every entry fits, Python ints otherwise."""
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


def trace_of(M: MomentMatrix) -> Fraction:
    return M.trace()


def expected_trace(n: int, k: int, average: Fraction | int = 1) -> Fraction:
    """Trace forced by the multiset count: C(n+k, k) times the average of f."""
    return math.comb(n + k, k) * Fraction(average)


def moment_matrix_enumerated(
    ground: GroundSet,
    values: Sequence[Fraction],
    k: int,
    basis_cap: int = DEFAULT_BASIS_CAP,
) -> MomentMatrix:
    """Entry (I, J) = (1/|X|) sum_x f(x) mono_I(x) mono_J(x), exact."""
    if len(values) != len(ground.points):
        raise ValueError("need one value per ground-set point")
    basis = monomial_basis(ground.dimension, k, basis_cap)
    labels = tuple(monomial_label(m, ground) for m in basis)
    vals = [Fraction(v) for v in values]
    if ground.is_zero_one:
        den = math.lcm(*(v.denominator for v in vals)) if vals else 1
        weighted = (
            ([c for c, x in enumerate(pt) if x], int(v * den))
            for pt, v in zip(ground.points, vals)
        )
        N = _zero_one_entries(basis, k, weighted)
        return MomentMatrix(k, basis, labels, N, den * len(ground.points))
    # general rational points
    d = len(basis)
    entries = [[Fraction(0)] * d for _ in range(d)]
    for pt, fv in zip(ground.points, vals):
        if fv == 0:
            continue
        mono_vals = [_mono_value(m, pt) for m in basis]
        for i in range(d):
            mi = mono_vals[i]
            if mi == 0:
                continue
            fmi = fv * mi
            row = entries[i]
            for j in range(i, d):
                if mono_vals[j]:
                    row[j] += fmi * mono_vals[j]
    npts = len(ground.points)
    for i in range(d):
        for j in range(i, d):
            entries[i][j] = entries[i][j] / npts
            entries[j][i] = entries[i][j]
    return MomentMatrix.from_rows(k, basis, labels, entries)


def _zero_one_entries(
    basis: Sequence[Monomial],
    k: int,
    weighted: Iterable[tuple[Sequence[int], int]],
) -> np.ndarray:
    """Integer matrix with entry (I, J) = sum fv mono_I(x) mono_J(x) over
    zero-one points x, each given by its sorted support and its integer
    value fv.  Sums are kept over the upper triangle and mirrored."""
    index = {m: i for i, m in enumerate(basis)}
    d = len(basis)
    num = [[0] * d for _ in range(d)]
    for support, fv in weighted:
        if fv == 0:
            continue
        # mono_I(x) = 1 iff every coordinate of I is 1 on x; repetition collapses.
        live = [0]
        for deg in range(1, k + 1):
            live.extend(
                index[m] for m in itertools.combinations_with_replacement(support, deg)
            )
        for a_pos, ia in enumerate(live):
            row = num[ia]
            for ib in live[a_pos:]:
                row[ib] += fv
    for i in range(d):
        row = num[i]
        for j in range(i + 1, d):
            num[j][i] = row[j]
    return _integer_array(num)


def _mono_value(mono: Monomial, point: Sequence[Fraction]) -> Fraction:
    val = Fraction(1)
    for c in mono:
        val *= point[c]
        if val == 0:
            return val
    return val


def _integer_functional(f: LinearFunctional) -> tuple[int, dict[Edge, int], int]:
    """f times the least common denominator den of its constant and edge
    coefficients: the integer constant, the integer coefficients, and den."""
    (row,), den = clear_denominators([[f.constant, *f.coeff.values()]])
    return row[0], dict(zip(f.coeff, row[1:])), den


def moment_matrix_enumerated_cycles(
    n: int,
    f: LinearFunctional,
    k: int,
    cycle_cap: int = DEFAULT_CYCLE_CAP,
    basis_cap: int = DEFAULT_BASIS_CAP,
) -> MomentMatrix:
    """Enumerated moment matrix over the tours of K_n for a linear functional."""
    if f.n != n:
        raise ValueError(f"functional has n={f.n}, requested n={n}")
    cycles = enumerate_cycles(n, cycle_cap)
    edges = all_edges(n)
    dim = len(edges)
    basis = monomial_basis(dim, k, basis_cap)
    const_i, coeff_i, den = _integer_functional(f)
    eidx = {e: i for i, e in enumerate(edges)}
    weighted = (
        (
            sorted(eidx[e] for e in cyc.edges),
            const_i + sum(coeff_i.get(e, 0) for e in cyc.edges),
        )
        for cyc in cycles
    )
    N = _zero_one_entries(basis, k, weighted)
    enames = [f"{e.u}-{e.v}" for e in edges]
    labels = tuple(_edge_monomial_label(m, enames) for m in basis)
    return MomentMatrix(k, basis, labels, N, den * len(cycles), n=n)


def _edge_monomial_label(mono: Monomial, names: Sequence[str]) -> str:
    if not mono:
        return "1"
    parts = []
    for c, grp in itertools.groupby(mono):
        mult = len(list(grp))
        parts.append(names[c] if mult == 1 else f"{names[c]}^{mult}")
    return "*".join(parts)


# ---------------------------------------------------------------------------
# closed form for k = 1
# ---------------------------------------------------------------------------

def containment_probability(n: int, E: Iterable[Edge]) -> Fraction:
    """Fraction of Hamiltonian cycles of K_n containing every edge of E."""
    return Fraction(count_cycles_with_edge_set(n, E), num_cycles(n))


def _path_probability(n: int, k: int, m: int) -> Fraction:
    """Fraction of tours of K_n containing a fixed system of m vertex-disjoint
    paths with k edges in total; 0 when no such system fits in K_n."""
    if m == 0:
        return Fraction(1)
    if k + m > n:
        return Fraction(0)
    return Fraction(2 ** (m - 1) * factorial(n - k - 1), num_cycles(n))


def _edge_vertex_incidence(n: int) -> np.ndarray:
    """0/1 int64 matrix, one row per vertex and one column per edge of K_n."""
    edges = all_edges(n)
    inc = np.zeros((n, len(edges)), dtype=np.int64)
    cols = np.arange(len(edges))
    inc[[e.u - 1 for e in edges], cols] = 1
    inc[[e.v - 1 for e in edges], cols] = 1
    return inc


def degree_relations(n: int) -> np.ndarray:
    """Integer matrix whose column i-1 is the vertex-degree relation at i in
    the degree-1 basis: 2 on the constant, -1 on each edge at i."""
    return np.vstack(
        [np.full((1, n), 2, dtype=np.int64), -_edge_vertex_incidence(n).T]
    )


ROW_BLOCK = 256  # rows of N built at once; bounds the size of temporaries


class ClosedFormK1(MomentMatrix):
    """Degree-1 closed-form moment matrix M = N / scale.

    Basis order: the constant monomial, then the edges of K_n
    lexicographically.  Entry (a, b) of two edges is
    const * P(a u b) + sum_e c_e * P(a u b u {e}), and by the path-block
    count P depends only on how e meets a u b.  Summed over e, the entry is
    affine in four statistics of the pair, with coefficients chosen by a
    fifth, the adjacency (B B^T)_ab in {0, 1, 2} (disjoint, adjacent, equal):

    * t_a + t_b, where t = B s and s = C 1 are the vertex sums;
    * c_a + c_b;
    * (B C B^T)_ab, the coefficients between endpoints of a and of b;
    * (B diag(s) B^T)_ab, the vertex sums at shared endpoints.

    Here C is the symmetric vertex-by-vertex coefficient matrix and B the
    edge-vertex incidence.  The constant row repeats the diagonal.  N is
    int64 when a bound on its entries computed from the functional fits,
    and holds Python ints otherwise.
    """

    def __init__(self, f: LinearFunctional):
        self.f = f
        n = f.n
        self.edges = all_edges(n)
        E = len(self.edges)
        dim = 1 + E
        const, coeff, den = _integer_functional(f)
        total = sum(coeff.values())
        p1, p2a, p2d = (_path_probability(n, k, m) for k, m in ((1, 1), (2, 1), (2, 2)))
        p31, p32, p33 = (_path_probability(n, 3, m) for m in (1, 2, 3))
        tri = Fraction(n == 3)  # a closed triangle is a tour only at n = 3
        # Coefficients of (1, t_a+t_b, c_a+c_b, (BCB^T)_ab, (B diag(s) B^T)_ab)
        # for disjoint, adjacent and equal edge pairs, in units of 1/den.
        W = [
            [const * p2d + total * p33, p32 - p33, p2d - 2 * p32 + p33,
             p31 - 2 * p32 + p33, Fraction(0)],
            [const * p2a + total * p32, p31 - p32, p2a + p31 - tri,
             p32 - 2 * p31 + tri, p32 - 2 * p31],
            [const * p1 + total * p2d, Fraction(0), (p1 - 2 * p2a + p2d) / 2,
             Fraction(0), p2a - p2d],
        ]
        corner = const + total * p1
        R = math.lcm(corner.denominator, *(w.denominator for row in W for w in row))
        Wi = [[int(w * R) for w in row] for row in W]
        # every statistic is at most 4 * sum |c_e| in magnitude
        stat = 4 * sum(abs(c) for c in coeff.values())
        bound = max(
            [abs(int(corner * R)), stat]
            + [abs(row[0]) + stat * sum(abs(w) for w in row[1:]) for row in Wi]
        )
        dt = np.int64 if bound < 2**63 else object
        Wi = np.array(Wi, dtype=dt)
        C = np.zeros((n, n), dtype=dt)
        for e, c in coeff.items():
            C[e.u - 1, e.v - 1] = C[e.v - 1, e.u - 1] = c
        inc = _edge_vertex_incidence(n)
        u = np.array([e.u - 1 for e in self.edges], dtype=np.int64)
        v = np.array([e.v - 1 for e in self.edges], dtype=np.int64)
        s = C.sum(axis=1)
        t = s[u] + s[v]
        c = C[u, v]
        H = C @ inc.astype(dt)  # H[x, b]: coefficients from x to the ends of b
        N = np.empty((dim, dim), dtype=dt)
        N[0, 0] = int(corner * R)
        for lo in range(0, E, ROW_BLOCK):
            rows = slice(lo, min(lo + ROW_BLOCK, E))
            ua, va = u[rows], v[rows]
            adj = inc[ua] + inc[va]
            block = Wi[adj, 0]
            block += Wi[adj, 1] * (t[rows, None] + t)
            block += Wi[adj, 2] * (c[rows, None] + c)
            block += Wi[adj, 3] * (H[ua] + H[va])
            block += Wi[adj, 4] * (s[ua, None] * inc[ua] + s[va, None] * inc[va])
            N[1 + lo : 1 + rows.stop, 1:] = block
        N[0, 1:] = N[1:, 0] = N.diagonal()[1:]
        basis: list[Monomial] = [()] + [(i,) for i in range(E)]
        labels = ("1",) + tuple(f"{e.u}-{e.v}" for e in self.edges)
        super().__init__(1, basis, labels, N, den * R, n=n)

    def star_kernel_verified(self) -> bool:
        """Exact check that every vertex-degree relation annihilates the
        matrix (2 on the constant coordinate, -1 on each edge at the vertex)."""
        return self.annihilates(degree_relations(self.n))


def closed_form_k1(f: LinearFunctional) -> ClosedFormK1:
    return ClosedFormK1(f)


def moment_matrix_closed_form_k1(f: LinearFunctional) -> MomentMatrix:
    """Exact degree-1 moment matrix at any n, no enumeration."""
    return ClosedFormK1(f)


def quadratic_form_value(
    f: LinearFunctional,
    p: CertificatePolynomial,
    n: int,
    cycle_cap: int = DEFAULT_CYCLE_CAP,
) -> Fraction:
    """(1/|X|) sum over tours of f(x) p(x)^2, exact, by enumeration."""
    if f.n != n:
        raise ValueError(f"functional has n={f.n}, requested n={n}")
    cycles = enumerate_cycles(n, cycle_cap)
    const_i, coeff_i, den = _integer_functional(f)
    fedges = p.factor_edges(n)
    total = 0
    for cyc in cycles:
        ce = cyc.edges
        if any((e in ce) == comp for e, comp in fedges):
            continue
        total += const_i + sum(coeff_i.get(e, 0) for e in ce)
    return Fraction(total, den * len(cycles))


def zero_one_certificate(y: Sequence[Fraction | int], X: GroundSet) -> CertificatePolynomial:
    """Indicator polynomial of the 0/1 point y within the 0/1 ground set X."""
    if not X.is_zero_one:
        raise ValueError("ground set must consist of 0/1 points")
    yt = tuple(Fraction(x) for x in y)
    if yt not in X.points:
        raise ValueError("y is not a point of the ground set")
    factors = tuple((c, x == 0) for c, x in enumerate(yt))
    return CertificatePolynomial("zero-one-product", factors)
