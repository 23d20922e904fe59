"""Moment matrices of the quadratic form q_f(h) = (1/|X|) sum f(x) h(x)^2.

Two construction routes:

* enumeration over an explicit finite ground set (any degree k, exact
  rationals, resource-capped basis size).  Over 0/1 points, the tours of
  K_n among them, the matrix is one exact product Phi^T (fv * Phi), where
  row x of the 0/1 matrix Phi marks the monomials that are 1 at x and fv
  holds the integer values of f; it is formed in blocks of points as
  float64 BLAS products whose partial sums are exact integers.  The
  monomials live at each tour are cached per (n, k) as one index array;
  the tours come from `cycles.tour_array`;
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
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from tsppsd.cycles import (
    DEFAULT_CYCLE_CAP,
    Edge,
    TourArray,
    all_edges,
    count_cycles_with_edge_set,
    edge_index,
    enumerate_cycles,
    factorial,
    num_cycles,
    tour_array,
)
from tsppsd.errors import ResourceLimitError
from tsppsd.functionals import LinearFunctional
from tsppsd.linalg import PivotBlock, integer_matmul, nonsingular_block, peak
from tsppsd.polynomials import CertificatePolynomial
from tsppsd.rational import clear_denominators, format_fraction
from tsppsd.symmetry import AdaptedBasis, BasisShape, adapted_basis, twin_classes

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
    these numerators.  A subclass may pass N = None and build N on first
    use (`ClosedFormK1`).  `entries` is a read-only Fraction view for
    callers that want rationals.  Immutable by convention.
    """

    def __init__(
        self,
        k: int,
        basis: Sequence[Monomial],
        labels: Sequence[str],
        N: np.ndarray | None,
        scale: int,
        n: int | None = None,  # vertex count when built over tours of K_n
    ):
        self.k = k
        self.basis = tuple(basis)
        self.labels = tuple(labels)
        if N is not None:
            self.N = N
        self.scale = scale
        self.n = n
        self._fractions: dict[int, Fraction] = {}

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

    @functools.cached_property
    def max_abs(self) -> int:
        """max |N|, which bounds every exact product with N."""
        return peak(self.N)

    @functools.cached_property
    def _float_exact(self) -> bool:
        # both operands exact in float64, so one correctly rounded division
        return self.max_abs < 2**53 and self.scale < 2**53

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MomentMatrix):
            return NotImplemented
        if (self.k, self.basis, self.labels, self.n) != (
            other.k, other.basis, other.labels, other.n
        ):
            return False
        # N / scale == N' / scale' iff N * scale' == N' * scale
        a, b = self.N, other.N
        if max(self.max_abs, other.max_abs, self.scale, other.scale) ** 2 >= 2**63:
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
        return self.N if keep is None else self.N.take(keep, 0).take(keep, 1)

    def float_matrix(self, keep: Sequence[int] | None = None) -> np.ndarray:
        """Correctly rounded float64 entries, as a new array the caller owns."""
        return correctly_rounded(self.numerators(keep), self.scale, self._float_exact)

    def to_float(self) -> np.ndarray:
        """The float view of the whole matrix, `float_matrix()`."""
        return self.float_matrix()

    def float_entry_error_bound(self) -> float:
        """Bound on |float_matrix() - M| per entry, rounded outward."""
        if self._float_exact:
            # a correctly rounded value is within 2^-53 of it, relatively
            worst = Fraction(self.max_abs, self.scale * 2**53)
        else:
            worst = max(
                abs(Fraction(x / self.scale) - Fraction(x, self.scale))
                for x in set(self.N.ravel().tolist())
            )
        up = math.nextafter(float(worst), math.inf)
        return up if Fraction(up) >= worst else math.nextafter(up, math.inf)

    def product(self, X: np.ndarray, keep: Sequence[int] | None = None) -> np.ndarray:
        """Exact N[keep, keep] @ X for an integer matrix X, as an integer
        array (`linalg.integer_matmul`).  An X without columns gives the
        empty product."""
        return integer_matmul(self.numerators(keep), X, self.max_abs)

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
        """Indices whose entire row is exactly zero.  Such a row has
        N[i, i] = 0, so whole rows are tested only where the diagonal is 0."""
        N = self.N
        cand = np.flatnonzero(N.diagonal() == 0)
        return [i for i in cand.tolist() if not np.count_nonzero(N[i])]

    def equal_rows(self) -> list[list[int]]:
        """Classes of at least two indices whose rows are exactly equal and
        not zero, each class and the list in increasing order."""
        N = self.N
        key = (lambda i: N[i].tobytes()) if N.dtype != object else (
            lambda i: tuple(N[i].tolist())
        )
        classes: dict[object, list[int]] = {}
        for i in np.flatnonzero(np.count_nonzero(N, axis=1)).tolist():
            classes.setdefault(key(i), []).append(i)
        return [c for c in classes.values() if len(c) > 1]

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


def correctly_rounded(N: np.ndarray, scale: int, exact: bool | None = None) -> np.ndarray:
    """The correctly rounded float64 N / scale of an integer array N, as a
    new array.  `exact` says whether N and scale are exact in float64,
    max|N| < 2^53 and scale < 2^53, when the caller knows it."""
    if exact is None:
        exact = peak(N) < 2**53 and scale < 2**53
    if exact:  # one correctly rounded division of exact operands
        return np.asarray(N / scale, dtype=float)
    # Python int division rounds correctly at any size
    return (N.astype(object) / scale).astype(float)


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
        rows = [
            _live_monomials(
                np.array([[c for c, x in enumerate(pt) if x]], dtype=np.int64),
                ground.dimension,
                k,
            )[0]
            for pt in ground.points
        ]
        # one row of live monomials per point; index d pads the shorter rows
        d = len(basis)
        live = np.full((len(rows), max(map(len, rows))), d, dtype=np.int64)
        for i, row in enumerate(rows):
            live[i, : len(row)] = row
        fv = _integer_array([int(v * den) for v in vals])
        N = _zero_one_entries(d, live, fv)
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


_BLOCK = 1024  # points per block of the exact product
_LIMB = 2**32


def _zero_one_entries(d: int, live: np.ndarray, fv: np.ndarray) -> np.ndarray:
    """Integer matrix with entry (I, J) = sum_x fv(x) mono_I(x) mono_J(x)
    over zero-one points x, as the exact product Phi^T (fv * Phi).

    Row x of `live` holds the basis indices of the monomials that are 1 at
    x (an index >= d pads a shorter row), and fv the integer value at each
    point.  Phi is formed one block of points at a time, so memory stays
    O(block * d + d^2).  fv is split into base-2^32 limbs; each limb's
    block product has partial sums below 2^53, so it is one exact float64
    BLAS product (`integer_matmul`), summed over the blocks in int64.  The
    limbs are recombined in Python ints only when there is more than one.
    N is int64 when every entry fits, Python ints otherwise.
    """
    nonzero = np.flatnonzero(fv)
    if len(nonzero) < len(fv):
        live, fv = live[nonzero], fv[nonzero]
    limbs = _limbs(fv)
    acc = [np.zeros((d, d), dtype=np.int64) for _ in limbs]
    for lo in range(0, len(live), _BLOCK):
        block = live[lo : lo + _BLOCK]
        phi = np.zeros((len(block), d + 1))
        np.put_along_axis(phi, block, 1.0, axis=1)
        phi = phi[:, :d]
        for total, limb in zip(acc, limbs):
            total += integer_matmul(phi.T, phi * limb[lo : lo + _BLOCK, None], 1)
    if len(acc) == 1:
        return acc[0]
    N = acc[-1].astype(object)
    for total in reversed(acc[:-1]):
        N = N * _LIMB + total
    if -(2**63) <= N.min() and N.max() < 2**63:
        return N.astype(np.int64)
    return N


def _limbs(fv: np.ndarray) -> list[np.ndarray]:
    """Float64 arrays l_0, l_1, ... with fv = sum_i l_i 2^(32 i) exactly:
    base-2^32 digits, the last one signed, so every |l_i| < 2^32."""
    out = []
    rest = fv
    while int(np.abs(rest).max(initial=0)) >= _LIMB:
        rest = rest.astype(object)
        out.append((rest % _LIMB).astype(float))
        rest = rest // _LIMB
    out.append(rest.astype(float))
    return out


def _live_monomials(supports: np.ndarray, dimension: int, k: int) -> np.ndarray:
    """Indices in `monomial_basis(dimension, k)` of the monomials that are 1
    at 0/1 points, one row per point: the multisets of size <= k of its
    support.  Row x of `supports` is the sorted support of point x, all of
    one size."""
    cols = [np.zeros((len(supports), 1), dtype=np.int64)]
    offset = 1
    for deg in range(1, k + 1):
        pos = np.array(
            list(itertools.combinations_with_replacement(range(supports.shape[1]), deg)),
            dtype=np.intp,
        ).reshape(-1, deg)
        # nondecreasing positions into a sorted support give sorted monomials
        mono = supports[:, pos].astype(np.int64)
        # c_1 <= ... <= c_m in range(D) <-> c_j + j - 1 strictly increasing
        # in range(D + m - 1), in the same lexicographic order
        cols.append(offset + _subset_rank(mono + np.arange(deg), dimension + deg - 1))
        offset += math.comb(dimension + deg - 1, deg)
    return np.concatenate(cols, axis=1)


def _subset_rank(b: np.ndarray, size: int) -> np.ndarray:
    """Lexicographic rank of each strictly increasing last-axis row b among
    the m-subsets of range(size), m = b.shape[-1]."""
    m = b.shape[-1]
    rank = np.full(b.shape[:-1], math.comb(size, m) - 1, dtype=np.int64)
    for j in range(m):
        # the subsets after b that first differ from it at position j take
        # their other m - j elements above b_j; a count never exceeds
        # C(size, m), so every used entry fits
        later = np.array([math.comb(a, m - j) for a in range(size - j)], dtype=np.int64)
        rank -= later[size - 1 - b[..., j]]
    return rank


@functools.lru_cache(maxsize=16)
def _tour_monomials(n: int, k: int) -> np.ndarray:
    """Read-only |X| x C(n+k, k) array: row t holds the indices in the
    enumerated degree-k basis of the monomials that are 1 on tour t."""
    tours = tour_array(n, cap=n)  # callers check their own cap first
    live = _live_monomials(tours.edges, n * (n - 1) // 2, k)
    return _read_only(live.astype(np.int32))


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
    tours = tour_array(n, cycle_cap)
    edges = all_edges(n)
    basis = monomial_basis(len(edges), k, basis_cap)
    fv, den = _tour_values(tours, f)
    N = _zero_one_entries(len(basis), _tour_monomials(n, k), fv)
    enames = [f"{e.u}-{e.v}" for e in edges]
    labels = tuple(_edge_monomial_label(m, enames) for m in basis)
    return MomentMatrix(k, basis, labels, N, den * len(tours), n=n)


def _tour_values(tours: TourArray, f: LinearFunctional) -> tuple[np.ndarray, int]:
    """den * f(x) at every tour x as an integer array (int64 when a bound
    from the coefficients fits, Python ints otherwise), and den."""
    const, coeff, den = _integer_functional(f)
    n = tours.n
    bound = abs(const) + n * max((abs(c) for c in coeff.values()), default=0)
    c = np.zeros(n * (n - 1) // 2, dtype=np.int64 if bound < 2**63 else object)
    for e, ce in coeff.items():
        c[edge_index(e, n)] = ce
    return const + c[tours.edges].sum(axis=1), den


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


@functools.lru_cache(maxsize=64)
def _path_counts(n: int) -> tuple[int, ...]:
    """|X| = num_cycles(n), then, for (k, m) = (1, 1), (2, 1), (2, 2), (3, 1),
    (3, 2) and (3, 3), the number of tours of K_n containing a fixed system
    of m vertex-disjoint paths with k edges in total: 2^(m-1) (n-k-1)!, or
    0 when no such system fits in K_n."""
    return (num_cycles(n),) + tuple(
        2 ** (m - 1) * factorial(n - k - 1) if k + m <= n else 0
        for k, m in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3))
    )


def _closed_form_weights(
    n: int, const: int, total: int
) -> tuple[list[list[int]], int, int]:
    """The weights of the degree-1 closed form for the integer constant and
    the total of the integer coefficients of den * f: the coefficients of
    (1, t_a+t_b, c_a+c_b, (BCB^T)_ab, (B diag(s) B^T)_ab) for disjoint,
    adjacent and equal edge pairs (3 x 5) and the corner, all as integers
    in units of 1/(den R), and R, the least common denominator of these
    weights in units of 1/den.

    Each weight is an integer combination of path counts over |X|, or half
    of one, so it is an integer w over 2|X|: its reduced denominator is
    2|X| / gcd(w, 2|X|), and R is the lcm of those."""
    T, p1, p2a, p2d, p31, p32, p33 = _path_counts(n)
    tri = T if n == 3 else 0  # a closed triangle is a tour only at n = 3
    W = [
        [const * p2d + total * p33, p32 - p33, p2d - 2 * p32 + p33,
         p31 - 2 * p32 + p33, 0],
        [const * p2a + total * p32, p31 - p32, p2a + p31 - tri,
         p32 - 2 * p31 + tri, p32 - 2 * p31],
        [const * p1 + total * p2d, 0, 0, 0, p2a - p2d],
    ]
    W = [[2 * w for w in row] for row in W]
    W[2][2] = p1 - 2 * p2a + p2d  # the one weight that is halved
    corner = 2 * (const * T + total * p1)
    R = math.lcm(*(2 * T // math.gcd(w, 2 * T) for w in [corner, *sum(W, [])]))
    return [[w * R // (2 * T) for w in row] for row in W], corner * R // (2 * T), R


@dataclass(frozen=True)
class _EdgeLayout:
    """Index data of the degree-1 basis of K_n, shared by every matrix at n.
    The arrays are read-only."""

    edges: tuple[Edge, ...]  # lexicographic, the basis order after the constant
    u: np.ndarray  # 0-based endpoints of each edge, u < v
    v: np.ndarray
    at: np.ndarray  # n x (n-1): the indices of the edges at each vertex
    other: np.ndarray  # n x (n-1): the other endpoint of each edge in `at`
    basis: tuple[Monomial, ...]
    labels: tuple[str, ...]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=64)
def _edge_layout(n: int) -> _EdgeLayout:
    edges = tuple(all_edges(n))
    E = len(edges)
    u = np.array([e.u - 1 for e in edges], dtype=np.int64)
    v = np.array([e.v - 1 for e in edges], dtype=np.int64)
    # every vertex lies on n-1 edges, so sorting the edge ids by endpoint
    # groups them into n rows of n-1
    ends = np.concatenate([u, v])
    ids = np.concatenate([np.arange(E), np.arange(E)])
    at = ids[np.argsort(ends, kind="stable")].reshape(n, n - 1)
    other = u[at] + v[at] - np.arange(n)[:, None]
    basis: tuple[Monomial, ...] = ((),) + tuple((i,) for i in range(E))
    labels = ("1",) + tuple(f"{e.u}-{e.v}" for e in edges)
    return _EdgeLayout(
        edges, *map(_read_only, (u, v, at, other)), basis, labels
    )


@functools.lru_cache(maxsize=64)
def tour_relations(n: int, k: int) -> np.ndarray:
    """Read-only integer matrix whose columns are polynomials of degree <= k
    that vanish on every tour of K_n, on the enumerated monomial basis of its
    edges, so that every degree-k moment matrix over the tours annihilates
    them.  In this order:

    * x_e^2 m - x_e m, a repeated edge collapsing, for each monomial m of
      degree <= k - 2 and each edge e;
    * D_v m for each monomial m of degree <= k - 1 and each vertex v, where
      D_v = 2 - sum_{e at v} x_e is the vertex-degree relation.

    At k = 1 these are the n degree relations, `degree_relations(n)`.
    """
    edges = all_edges(n)
    basis = monomial_basis(len(edges), k, cap=sys.maxsize)
    index = {m: i for i, m in enumerate(basis)}

    def times(m: Monomial, *es: int) -> int:
        return index[tuple(sorted(m + es))]

    cols: list[dict[int, int]] = [
        {times(m, e, e): 1, times(m, e): -1}
        for m in basis
        if len(m) <= k - 2
        for e in range(len(edges))
    ]
    at = _edge_layout(n).at.tolist()
    for m in basis:
        if len(m) < k:
            for edges_at_v in at:
                col = {index[m]: 2}
                col.update((times(m, e), -1) for e in edges_at_v)
                cols.append(col)
    R = np.zeros((len(basis), len(cols)), dtype=np.int64)
    for j, col in enumerate(cols):
        R[list(col), j] = list(col.values())
    return _read_only(R)


@dataclass(frozen=True)
class RelationComplement:
    """The structural relations of the degree-k moment matrices over the
    tours of K_n and their pivot block, shared by every such matrix.  The
    arrays are read-only.

    `relations` is R = `tour_relations(n, k)`, and `block` its pivot block
    (`linalg.nonsingular_block`, which proves R[P, Q] nonsingular and keeps
    the reduced form B of R[:, Q] mod p, so that `linalg.kept_coordinates`
    reduces only the kernel vectors read from a matrix against it).  The
    pivots prefer the monomials with a repeated edge, then those with more
    factors at vertex 1, then those of lower degree, so at k = 1 they are
    the constant and the edges at vertex 1.
    """

    relations: np.ndarray
    block: PivotBlock


@functools.lru_cache(maxsize=16)
def relation_complement(n: int, k: int) -> RelationComplement:
    """The pivot block of the degree-k tour relations of K_n, built once."""
    edges = all_edges(n)
    basis = monomial_basis(len(edges), k, cap=sys.maxsize)

    def preference(i: int) -> tuple[bool, int, int]:
        m = basis[i]
        return len(set(m)) == len(m), -sum(1 in edges[c] for c in m), len(m)

    R = tour_relations(n, k)
    return RelationComplement(
        R, nonsingular_block(R, sorted(range(len(basis)), key=preference))
    )


def degree_relations(n: int) -> np.ndarray:
    """Read-only integer matrix whose column i-1 is the vertex-degree
    relation at i in the degree-1 basis: 2 on the constant, -1 on each edge
    at i."""
    return tour_relations(n, 1)


_STAR_BLOCK = 2**16  # entries gathered at once by the degree-relation check


class ClosedFormK1(MomentMatrix):
    """Degree-1 closed-form moment matrix M = N / scale, read row by row.

    Basis order: the constant monomial, then the edges of K_n
    lexicographically.  Entry (a, b) of two edges is
    const * P(a u b) + sum_e c_e * P(a u b u {e}), and by the path-block
    count P depends only on how e meets a u b.  Summed over e, the entry is
    affine in four statistics of the pair, with coefficients chosen by how
    a and b meet (disjoint, adjacent or equal; `_closed_form_weights`, in
    integers from path counts cached per n):

    * t_a + t_b, where t = B s and s = C 1 are the vertex sums;
    * c_a + c_b;
    * (B C B^T)_ab, the coefficients between endpoints of a and of b;
    * (B diag(s) B^T)_ab, the vertex sums at shared endpoints (0 for a
      disjoint pair).

    Here C is the symmetric vertex-by-vertex coefficient matrix, den times
    the coefficients of f (kept as `C`, read-only), and B the edge-vertex
    incidence.  The constructor forms only these statistics, O(n^2) work;
    `rows(idx)` evaluates any rows N[idx, :], and N itself is `rows` over
    every index, built on first use.  A caller that needs a few rows, as
    `gram` does for the adapted basis of the twin group (`twin_basis`),
    never builds N.  N is int64 when a bound on its entries and on every partial
    sum, computed from the functional, fits, and holds Python ints
    otherwise; both take the same code path.
    """

    def __init__(self, f: LinearFunctional):
        self.f = f
        n = f.n
        layout = _edge_layout(n)
        self.edges = layout.edges
        const, coeff, den = _integer_functional(f)
        Wi, corner, R = _closed_form_weights(n, const, sum(coeff.values()))
        # every statistic is at most 4 * sum |c_e| in magnitude
        stat = 4 * sum(abs(c) for c in coeff.values())
        bound = max(
            [abs(corner), stat]
            + [abs(row[0]) + stat * sum(abs(w) for w in row[1:]) for row in Wi]
        )
        dt = np.int64 if bound < 2**63 else object
        wd, wa, we = np.array(Wi, dtype=dt)
        C = np.zeros((n, n), dtype=dt)
        for e, c in coeff.items():
            C[e.u - 1, e.v - 1] = C[e.v - 1, e.u - 1] = c
        u, v = layout.u, layout.v
        s = C.sum(axis=1)
        t = s[u] + s[v]
        c = C[u, v]
        # disjoint pairs: wd . (1, t_a+t_b, c_a+c_b, H[u_b, a]+H[v_b, a], 0)
        # with H = C B^T (H[x, a]: the coefficients from x to the ends of
        # a) and g = wd[1] t + wd[2] c
        self._g = wd[1] * t + wd[2] * c
        self._wd = wd
        # adjacent pairs a = xy, b = xz at x: (BCB^T)_ab = c_a + c_b + C[y, z]
        # and (B diag(s) B^T)_ab = s_x, so the entry is
        # wa[0] + wa[4] s_x + h_a + h_b + wa[3] C[y, z] with
        # h = wa[1] t + (wa[2] + wa[3]) c
        self._h = wa[1] * t + (wa[2] + wa[3]) * c
        self._h_at = self._h[layout.at]
        self._x_part = wa[0] + wa[4] * s
        self._wa3 = wa[3]
        # equal pairs: t_a+t_a, c_a+c_a, (BCB^T)_aa = 2 c_a, s_u + s_v = t_a;
        # the constant row repeats the diagonal
        self._diag = (
            we[0] + we[1] * (2 * t) + we[2] * (2 * c) + we[3] * (2 * c) + we[4] * t
        )
        self._corner = corner
        self.C = _read_only(C)
        super().__init__(1, layout.basis, layout.labels, None, den * R, n=n)

    @functools.cached_property
    def N(self) -> np.ndarray:
        """The whole numerator matrix, `rows` over every index, built on
        first use.  N is symmetric, so it is also the C-contiguous array of
        which `rows` returns the transpose."""
        return self.rows(np.arange(self.dim)).T

    def entry(self, i: int, j: int) -> Fraction:
        """M[i, j], from N once it is built and else from the closed-form
        row i alone, so that reading one entry never builds N."""
        if "N" in self.__dict__:
            return super().entry(i, j)
        return self._exact(self.rows([i]).item(j))

    @functools.cached_property
    def twin_basis(self) -> tuple[AdaptedBasis | None, BasisShape]:
        """The adapted basis of the twin group of the functional and its
        shape (`symmetry.adapted_basis`); the basis is None, the identity,
        when the group is trivial."""
        return adapted_basis(twin_classes(self.C))

    def gram(self, U: AdaptedBasis | None) -> tuple[np.ndarray, np.ndarray]:
        """The exact numerators G = U^T N U of M in the adapted basis U of a
        group under which M is invariant (N itself when U is None, the
        identity), and the rows of N read for them: one closed-form row per
        distinct representative of a column of U (`AdaptedBasis.gram`), or
        all of N when U is None.

        The degree relations are checked exactly on every row read: the
        images of the relations are combinations of the relations, and each
        row of G on their type is a multiple of one row read, so this proves
        that G annihilates them.  Raises RuntimeError if the check fails or
        if a type block of G is not symmetric: both hold for every closed
        form by construction, so a failure means a transcription bug.
        """
        if U is None:
            R = self.N
            ok = self.star_kernel_verified()
        else:
            reps, at = np.unique(U.rep, return_inverse=True)
            R = self.rows(reps)
            ok = self.star_kernel_verified(R)
        if not ok:
            raise RuntimeError("degree relations not in matrix kernel")
        return (R if U is None else U.gram(R, at)), R

    def rows(self, idx: Sequence[int] | np.ndarray) -> np.ndarray:
        """The rows N[idx, :], a new array, from the closed form.

        The array is the transpose of a C-contiguous T = N[:, idx] (N is
        symmetric), so that the sums over the edges at a vertex, of
        N[idx, :] or of U^T N U, are sums of contiguous rows of T.

        T is filled for the asked indices at once, in increasing order, as
        N was filled row by row: row b of an edge is first the disjoint-pair
        formula hA[u_b] + Hx[v_b] + g_b everywhere, where
        Hx = wd[3] H[:, asked] and hA = Hx + g[asked] + wd[0] are vertex by
        asked index.  The edges b with one smaller endpoint y are
        consecutive rows, so each such group is two contiguous passes, one
        add of Hx[y+1:] and hA[y] and one add of g down the rows.  The
        2(n - 2) adjacent pairs of each asked row, the diagonal and the
        constant row and column are then overwritten with their own
        formulas, so no array is indexed by the pair type.
        """
        idx = np.asarray(idx, dtype=np.int64).reshape(-1)
        want, back = np.unique(idx, return_inverse=True)
        k = len(want)
        T = np.empty((self.dim, k), dtype=self._g.dtype)
        first = int(k > 0 and want[0] == 0)
        a = want[first:] - 1  # edge indices
        layout = _edge_layout(self.n)
        u, v = layout.u[a], layout.v[a]
        Hx = self._wd[3] * (self.C[:, u] + self.C[:, v])
        hA = Hx + (self._g[a] + self._wd[0])
        lo = 0
        for y in range(self.n - 1):
            hi = lo + self.n - 1 - y
            block = T[1 + lo : 1 + hi, first:]
            np.add(Hx[y + 1 :], hA[y], out=block)
            block += self._g[lo:hi, None]
            lo = hi
        # at each end x of a, the other edges at x; the a == b entries this
        # writes are overwritten by the diagonal below
        x = np.stack([u, v], axis=1)
        adj = self._wa3 * self.C[x[:, ::-1, None], layout.other[x]]
        adj += self._h[a][:, None, None]
        adj += self._h_at[x]
        adj += self._x_part[x][:, :, None]
        pos = first + np.arange(len(a))
        # scattered through flat indices into T, which is contiguous
        T.reshape(-1)[(1 + layout.at[x]) * k + pos[:, None, None]] = adj
        T[1 + a, pos] = T[0, pos] = self._diag[a]
        if first:
            T[0, 0] = self._corner
            T[1:, 0] = self._diag
        return (T if np.array_equal(want, idx) else T[:, back]).T

    def star_kernel_verified(self, R: np.ndarray | None = None) -> bool:
        """Exact check that every vertex-degree relation D_x (2 on the
        constant coordinate, -1 on each edge at x) annihilates the rows R
        of N, all of N by default: in each row the entries at the edges at
        x must add up to twice the entry at the constant.

        The check runs on T = R^T, C-contiguous for the rows that `rows`
        returns (N itself for all of N): the rows of T at the edges at x
        must add up to twice its first row.  A sum of n - 1 entries is
        exact in int64 while (n + 1) max|R| < 2^63, and the check runs on
        Python ints beyond that.  The rows are gathered for as many
        vertices at a time as keep the gathered block near _STAR_BLOCK
        entries.
        """
        # N is symmetric, so it is its own transpose
        top, T = (self.max_abs, self.N) if R is None else (peak(R), R.T)
        if T.dtype != object and (self.n + 1) * top >= 2**63:
            T = T.astype(object)
        twice = 2 * T[0]
        at = 1 + _edge_layout(self.n).at
        step = max(1, _STAR_BLOCK // at.shape[1] // T.shape[1])
        return all(
            (T[at[x : x + step]].sum(axis=1) == twice).all()
            for x in range(0, self.n, step)
        )


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
    tours = tour_array(n, cycle_cap)
    fv, den = _tour_values(tours, f)
    factors = p.factor_edges(n)
    # p(x)^2 = p(x) is 1 exactly where x has every plain factor edge and no
    # complemented one
    live = tours.containing(
        [e for e, comp in factors if not comp], [e for e, comp in factors if comp]
    )
    return Fraction(sum(fv[live].tolist()), den * len(tours))


def zero_one_certificate(y: Sequence[Fraction | int], X: GroundSet) -> CertificatePolynomial:
    """Indicator polynomial of the 0/1 point y within the 0/1 ground set X."""
    if not X.is_zero_one:
        raise ValueError("ground set must consist of 0/1 points")
    yt = tuple(Fraction(x) for x in y)
    if yt not in X.points:
        raise ValueError("y is not a point of the ground set")
    factors = tuple((c, x == 0) for c, x in enumerate(yt))
    return CertificatePolynomial("zero-one-product", factors)
