"""Closed-form eigensystems of the subtour-facet moment matrices.

For the functional a*h_U + (1-a)*ones with |U| = m, the degree-1 moment
matrix has six tabled eigenvalue families (the zero family from the vertex
degree relations plus five affine-in-a families with explicit eigenvector
patterns) and one residual pair (c +- sqrt(d)) / denominator, where c, d
and the denominator are fixed integer polynomials in n, m, a.

The c and d polynomials are transcribed once below and are too large to
trust by eye, so every public entry point that evaluates them also offers a
cross-check: exactly via the trace identities (the sum and the sum of
squares of the residual pair are rational even though the pair itself is
not), and numerically against the spectrum of the closed-form matrix.
That spectrum is never taken from a dense eigendecomposition of the
(1 + C(n, 2))-square matrix: the matrix is invariant under the twin group
of h_U (`symmetry`), S_m x S_{n-m}, so it is read, type block by type
block, from its matrix in the adapted basis of that group, whose largest
block has four coordinates (`symmetry.isotypic_eigh`).

The eigenvector generators of each family are the integer columns of an
integer matrix V, built and checked in column blocks of bounded size.  Each
block is checked with one exact integer product of the moment numerators
N (M = N / scale): M V = (p/q) V iff q N V = p scale V.  The span rank is
the Bareiss rank (`exact_ldlt`) of the Gram matrix of V, so no rational
arithmetic is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations, islice
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from tsppsd.cycles import edge, edge_index
from tsppsd.functionals import (
    LinearFunctional,
    combine,
    make_ones,
    make_subtour,
)
from tsppsd.linalg import exact_ldlt, integer_matmul
from tsppsd.moment import (
    ClosedFormK1,
    MomentMatrix,
    closed_form_k1,
    correctly_rounded,
    degree_relations,
)
from tsppsd.symmetry import AdaptedBasis, isotypic_eigh

FAMILY_LABELS = (
    "degree-relations",
    "four-cycle-in-U",
    "four-cycle-out-U",
    "cross-square",
    "pair-difference-in-U",
    "pair-difference-out-U",
)


@dataclass(frozen=True)
class EigenFamily:
    label: str
    eigenvalue: Fraction | float
    multiplicity: int


@dataclass(frozen=True)
class ResidualPair:
    c_value: Fraction | float
    d_value: Fraction | float
    denominator: int
    alpha: Fraction | float
    beta: Fraction | float
    lambda_plus: float
    lambda_minus: float

    @property
    def d_nonnegative(self) -> bool:
        return self.d_value >= 0


@dataclass(frozen=True)
class SpectrumReport:
    n: int
    m: int
    a: Fraction | float
    families: tuple[EigenFamily, ...]
    residual: ResidualPair
    dimension: int
    multiplicity_total: int


def _check_range(n: int, m: int) -> None:
    if n < 6:
        raise ValueError(f"need n >= 6, got {n}")
    if not (3 <= m <= n / 2):
        raise ValueError(f"need 3 <= m <= n/2, got m={m}, n={n}")


def subtour_family_values(n: int, m: int, a):
    """The five nonzero tabled eigenvalues of a*A_U + (1-a)*A_ones."""
    base = (1 - a) * Fraction(2, n - 1)
    return (
        a * Fraction(2 * (m - 2), (n - 2) * (m - 1)) + base,
        a * Fraction(2 * (n - m - 2), (n - 2) * (n - m - 1)) + base,
        a * Fraction(2 * (m * (n - 3) * (n - m) - (n - 2) ** 2),
                     (n - 2) * (n - 3) * (m - 1) * (n - m - 1)) + base,
        a * Fraction(2 * (m - 2), (n - 3) * (m - 1)) + base,
        a * Fraction(2 * (n - m - 2), (n - 3) * (n - m - 1)) + base,
    )


def cross_square_value_expanded(n: int, m: int, a):
    """Alternative printed form of the cross-square family eigenvalue."""
    num = 2 * (m * n**2 - n * m**2 - n**2 + 4 * n - 3 * m * n + 3 * m**2 - 4)
    den = (n - 2) * (n - 3) * (m * n - m**2 - n + 1)
    return a * Fraction(num, den) + (1 - a) * Fraction(2, n - 1)


def family_multiplicities(n: int, m: int) -> tuple[int, ...]:
    return (
        n,
        m * (m - 3) // 2,
        (n - m) * (n - m - 3) // 2,
        (n - m - 1) * (m - 1),
        m - 1,
        n - m - 1,
    )


def residual_denominator(n: int, m: int) -> int:
    core = (m * n**3 - n**3 - 5 * m * n**2 + 6 * n**2 - m**2 * n**2
            - 11 * n + 5 * m**2 * n + 6 * m * n + 6 - 6 * m**2)
    return 2 * core * (n - 1)


def residual_c(n: int, m: int, a):
    return (3 * n**4 * m - 3 * n**4 - 2 * a * n**3 - 3 * m**2 * n**3
            + 17 * n**3 - 14 * m * n**3 + 4 * a * n**2 + 8 * a * m * n**2
            - 27 * n**2 + 14 * m**2 * n**2 + 13 * m * n**2 - 13 * m**2 * n
            - 16 * a * m * n - 8 * a * m**2 * n + 6 * m * n + 2 * a * n
            + 7 * n - 6 * m**2 + 16 * a * m**2 - 4 * a + 6)


def residual_d(n: int, m: int, a):
    t = (162 - 72 * a - 675 * n + 324 * m * n - 324 * m**2 - 120 * a * n**3
         - 12 * a * n**5 + 72 * a * n**4 + 333 * m**2 * n**3
         + 702 * m**3 * n**2 - 288 * a * m**4 + 252 * a * m**2 * n**3
         + 9 * n**6 * m**2 + 8 * a**2 - 4 * a**2 * n**3 + 4 * a**2 * n**4
         + 200 * a**2 * m**4 - 12 * a**2 * n**2 + 4 * a**2 * n
         - 136 * a**2 * m**2 - 104 * a**2 * m**2 * n**3
         + 80 * a**2 * m**2 * n**2 - 400 * a**2 * m**3 * n
         + 136 * a**2 * m * n + 256 * a**2 * m**3 * n**2
         + 24 * a**2 * m**2 * n**4 + 232 * a**2 * m**2 * n
         - 24 * a**2 * m * n**4 - 232 * a**2 * m * n**2
         + 120 * a**2 * m * n**3 - 128 * a**2 * m**4 * n
         + 24 * a**2 * m**4 * n**2 - 48 * a**2 * m**3 * n**3
         - 60 * a * m**2 * n**2 + 576 * a * m**3 * n - 360 * a * m * n
         - 351 * m**4 * n + 180 * n**5 * m - 18 * n**6 * m + 432 * n**4
         - 684 * n**4 * m - 954 * n**3 + 162 * m**4 - 324 * m**3 * n
         - 63 * m**2 * n**5 - 480 * a * m**3 * n**2 + 12 * a * m * n**5
         + 1125 * n**2 + 132 * a * n + 360 * a * m**2 - 522 * m**3 * n**3
         + 261 * m**4 * n**2 - 99 * n**5 + 9 * n**6 - 1026 * m * n**2
         - 1062 * m**2 * n**2 + 1224 * m * n**3 + 1026 * m**2 * n
         - 60 * a * m**2 * n**4 - 588 * a * m**2 * n - 12 * a * m * n**4
         + 588 * a * m * n**2 - 228 * a * m * n**3 + 240 * a * m**4 * n
         - 48 * a * m**4 * n**2 + 96 * a * m**3 * n**3 - 18 * m**3 * n**5
         + 9 * n**4 * m**4 + 81 * n**4 * m**2 + 162 * n**4 * m**3
         - 81 * n**3 * m**4)
    return (n**2 - 3 * n + 2) * t


def residual_pair(n: int, m: int, a) -> ResidualPair:
    """Residual eigenvalue pair (c +- sqrt(d)) / denominator.

    Accepts rational a (exact c, d) or float a (e.g. sqrt(n)).  A negative
    d is reported through the fields, not raised.
    """
    _check_range(n, m)
    den = residual_denominator(n, m)
    if den == 0:
        raise ValueError(f"residual denominator vanishes at n={n}, m={m}")
    if isinstance(a, float):
        c = residual_c(n, m, a)
        d = residual_d(n, m, a)
        alpha = c / den
        beta = d / den**2
    else:
        a = Fraction(a)
        c = Fraction(residual_c(n, m, a))
        d = Fraction(residual_d(n, m, a))
        alpha = c / den
        beta = d / den**2
    if d >= 0:
        root = math.sqrt(float(d))
        lam_plus = (float(c) + root) / den
        lam_minus = (float(c) - root) / den
    else:
        lam_plus = lam_minus = float("nan")
    return ResidualPair(c, d, den, alpha, beta, lam_plus, lam_minus)


def closed_form_spectrum(n: int, m: int, a) -> SpectrumReport:
    """All tabled eigenvalue families plus the residual pair."""
    _check_range(n, m)
    a_val = math.sqrt(n) if a == "sqrt-n" else a
    if isinstance(a_val, float):
        base = 2.0 / (n - 1)
        pure = subtour_family_values(n, m, Fraction(1))
        values = [a_val * float(v) + (1.0 - a_val) * base for v in pure]
    else:
        a_val = Fraction(a_val)
        values = list(subtour_family_values(n, m, a_val))
    mults = family_multiplicities(n, m)
    families = [EigenFamily(FAMILY_LABELS[0], Fraction(0) if not isinstance(a_val, float) else 0.0, mults[0])]
    families += [
        EigenFamily(FAMILY_LABELS[i + 1], values[i], mults[i + 1])
        for i in range(5)
    ]
    pair = residual_pair(n, m, a_val)
    dim = n * (n - 1) // 2 + 1
    total = sum(mults) + 2
    if total != dim:
        raise RuntimeError(f"multiplicity accounting failed: {total} != {dim}")
    return SpectrumReport(n, m, a_val, tuple(families), pair, dim, total)


# ---------------------------------------------------------------------------
# eigenvector generators (rows: 0 = constant, 1 + edge index)
# ---------------------------------------------------------------------------

def _coord(n: int, u: int, v: int) -> int:
    return 1 + edge_index(edge(u, v), n)


def _squares(n: int, quads: Sequence[tuple[int, int, int, int]]) -> np.ndarray:
    """One column per four-cycle a-b-c-d: +1 on ab and cd, -1 on bc and da."""
    V = np.zeros((1 + n * (n - 1) // 2, len(quads)), dtype=np.int64)
    for col, (a, b, c, d) in enumerate(quads):
        V[[_coord(n, a, b), _coord(n, c, d)], col] = 1
        V[[_coord(n, b, c), _coord(n, d, a)], col] = -1
    return V


def _four_cycles(verts: Sequence[int]) -> Iterator[tuple[int, int, int, int]]:
    """The three four-cycles on every four vertices of `verts`."""
    for a, b, c, d in combinations(sorted(verts), 4):
        yield from ((a, b, c, d), (a, b, d, c), (a, c, b, d))


def _pair_differences(
    n: int, pairs: Sequence[tuple[int, int]], inner: Sequence[int],
    outer: Sequence[int],
) -> np.ndarray:
    """One column per pair (i, j) of `inner`: |outer| on the edges from i to
    the rest of `inner` against |inner| - 2 on the edges from i to `outer`,
    and the negation at j."""
    w_in, w_out = len(outer), len(inner) - 2
    V = np.zeros((1 + n * (n - 1) // 2, len(pairs)), dtype=np.int64)
    for col, (i, j) in enumerate(pairs):
        for sign, x in ((1, i), (-1, j)):
            for ell in inner:
                if ell not in (i, j):
                    V[_coord(n, x, ell), col] = sign * w_in
            for t in outer:
                V[_coord(n, x, t), col] = -sign * w_out
    return V


def _stars(n: int, vertices: Sequence[int]) -> np.ndarray:
    """The vertex-degree relations at the given 0-based vertices."""
    return degree_relations(n)[:, list(vertices)]


Family = tuple[Callable[[int, list], np.ndarray], Iterable]


def _families(n: int, m: int) -> dict[str, Family]:
    """Spanning generators for each tabled family, U = {1..m}: a builder of
    integer columns and the lazy sequence it builds them from."""
    _check_range(n, m)
    U = list(range(1, m + 1))
    W = list(range(m + 1, n + 1))
    cross = ((p, i, q, j) for i, j in combinations(U, 2) for p, q in combinations(W, 2))
    return dict(zip(FAMILY_LABELS, (
        (_stars, range(n)),
        (_squares, _four_cycles(U)),
        (_squares, _four_cycles(W)),
        (_squares, cross),
        (partial(_pair_differences, inner=U, outer=W), combinations(U, 2)),
        (partial(_pair_differences, inner=W, outer=U), combinations(W, 2)),
    )))


def eigenvector_families(n: int, m: int) -> dict[str, np.ndarray]:
    """Spanning generators for each tabled family, U = {1..m}: one int64
    matrix per family, one column per generator."""
    return {
        label: build(n, list(specs)) for label, (build, specs) in _families(n, m).items()
    }


def _is_eigen(M: MomentMatrix, V: np.ndarray, lam: Fraction) -> bool:
    """Exact test that M V = lam V, as one integer product: with
    lam = p/q, N V q == p scale V."""
    P = M.product(V)
    p, q = lam.numerator * M.scale, lam.denominator
    # initial=1: p and q must fit as well, also when V has no columns
    big = max(int(np.abs(P).max(initial=1)) * q,
              abs(p) * int(np.abs(V).max(initial=1)))
    dt = np.int64 if big < 2**63 else object
    return bool(np.array_equal(P.astype(dt) * q, V.astype(dt) * p))


BLOCK_ENTRIES = 2**18  # int64 entries in one column block of a family (2 MiB)


def _check_family(
    M: MomentMatrix, family: Family, lam: Fraction
) -> tuple[int, int, bool]:
    """Span rank, number of columns and the exact test M V = lam V of a
    family V, built max(dim, BLOCK_ENTRIES / dim) columns at a time so that
    a family of any size is held one block at a time.  The rank is the
    Bareiss rank of the smaller Gram matrix, which is PSD with the rank of
    V: V^T V when V is narrower than dim, else V V^T summed over blocks."""
    build, specs = family[0], iter(family[1])
    width = max(M.dim, BLOCK_ENTRIES // M.dim)
    V = build(M.n, list(islice(specs, width)))
    if V.shape[1] < M.dim:  # narrower than one block: the whole family
        rank = exact_ldlt(integer_matmul(V.T, V).tolist()).rank
        return rank, V.shape[1], _is_eigen(M, V, lam)
    G, bound, cols, ok = 0, 0, 0, True
    while V.shape[1]:
        bound += int(np.abs(V).max()) ** 2 * V.shape[1]
        B = integer_matmul(V, V.T)
        G = G + (B if bound < 2**63 else B.astype(object))
        cols += V.shape[1]
        ok = ok and _is_eigen(M, V, lam)
        V = build(M.n, list(islice(specs, width)))
    return exact_ldlt(G.tolist()).rank, cols, ok


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass
class FamilyCheck:
    label: str
    eigenvalue: Fraction
    claimed_multiplicity: int
    span_rank: int
    vectors_checked: int
    exact_pass: bool


@dataclass
class EigenpairReport:
    n: int
    m: int
    a: Fraction
    families: list[FamilyCheck]
    multiplicity_total_ok: bool
    trace_ok: bool
    residual_sum_ok: bool
    residual_square_ok: bool

    @property
    def all_ok(self) -> bool:
        return (
            all(f.exact_pass for f in self.families)
            and self.multiplicity_total_ok
            and self.trace_ok
            and self.residual_sum_ok
            and self.residual_square_ok
        )


def subtour_mix(n: int, m: int, a) -> LinearFunctional:
    """a * h_U + (1-a) * ones with U = {1..m}."""
    return combine(a, make_subtour(n, range(1, m + 1)), 1 - Fraction(a), make_ones(n))


def verify_eigenpairs_exact(n: int, m: int, a) -> EigenpairReport:
    """Exact M V = lambda V check and span rank for every tabled family, and
    the exact residual-pair trace identities."""
    _check_range(n, m)
    a = Fraction(a)
    cf = closed_form_k1(subtour_mix(n, m, a))
    zero = Fraction(0)
    values = (zero,) + subtour_family_values(n, m, a)
    mults = family_multiplicities(n, m)
    checks = [
        FamilyCheck(label, lam, mult, *_check_family(cf, family, lam))
        for (label, family), lam, mult in zip(_families(n, m).items(), values, mults)
    ]
    mult_ok = sum(mults) == n * (n - 1) // 2 - 1 and all(
        c.span_rank == c.claimed_multiplicity for c in checks
    )
    trace = cf.trace()
    trace_ok = trace == n + 1
    pair = residual_pair(n, m, a)
    fam_sum = sum((lam * mult for lam, mult in zip(values, mults)), zero)
    residual_sum_ok = trace - fam_sum == Fraction(2) * pair.c_value / pair.denominator
    trace_sq = Fraction(sum(x * x for x in cf.N.ravel().tolist()), cf.scale**2)
    fam_sq = sum((lam * lam * mult for lam, mult in zip(values, mults)), zero)
    expected_sq = Fraction(2) * (pair.c_value**2 + pair.d_value) / pair.denominator**2
    residual_square_ok = trace_sq - fam_sq == expected_sq
    return EigenpairReport(
        n, m, a, checks, mult_ok, trace_ok, residual_sum_ok, residual_square_ok
    )


def _mix_grams(
    ones: ClosedFormK1, m: int
) -> tuple[np.ndarray, np.ndarray, AdaptedBasis | None]:
    """The correctly rounded matrices G / scale of h_U, U = {1..m}, and of
    `ones`, the closed form of the all-ones functional, in one basis: the
    adapted basis of the twin group of h_U (ones is invariant under every
    relabeling), returned third.  Each is read from one closed-form row per
    representative (`ClosedFormK1.gram`)."""
    cf = closed_form_k1(make_subtour(ones.n, range(1, m + 1)))
    U = cf.twin_basis[0]
    return (
        correctly_rounded(cf.gram(U)[0], cf.scale),
        correctly_rounded(ones.gram(U)[0], ones.scale),
        U,
    )


def numerical_spectrum(n: int, m: int, a_val: float) -> np.ndarray:
    """Eigenvalues of the closed-form matrix a*A_U + (1-a)*A_ones, ascending,
    with their multiplicities: a float combination of the two matrices in
    the adapted basis of the twin group of h_U, decomposed type block by
    type block (`symmetry.isotypic_eigh`)."""
    GU, G1, U = _mix_grams(closed_form_k1(make_ones(n)), m)
    return isotypic_eigh(a_val * GU + (1.0 - a_val) * G1, U).ascending()


def spectrum_matches_numerical(n: int, m: int, a, tol: float = 1e-9) -> float:
    """Max absolute deviation between the closed-form spectrum (as a
    multiset) and the numerically computed one."""
    report = closed_form_spectrum(n, m, a)
    a_val = float(math.sqrt(n)) if a == "sqrt-n" else float(a)
    expected = []
    for fam in report.families:
        expected.extend([float(fam.eigenvalue)] * fam.multiplicity)
    expected.append(report.residual.lambda_plus)
    expected.append(report.residual.lambda_minus)
    expected.sort()
    actual = numerical_spectrum(n, m, a_val)
    return float(np.max(np.abs(np.array(expected) - actual)))


@dataclass
class SqrtNCheck:
    m: int
    lambda_minus: float
    lambda_min_numerical: float
    ok: bool


def sqrt_n_nonpositivity(n: int, tol: float = 1e-12) -> list[SqrtNCheck]:
    """At a = sqrt(n) the smaller residual eigenvalue is nonpositive for
    every 3 <= m <= n/2; verified from the c/d formulas and from the least
    eigenvalue of the closed-form matrix, taken type block by type block
    as in `numerical_spectrum`."""
    if n < 6:
        raise ValueError(f"need n >= 6, got {n}")
    a_val = math.sqrt(n)
    ones = closed_form_k1(make_ones(n))
    out = []
    for m in range(3, n // 2 + 1):
        pair = residual_pair(n, m, a_val)
        scale = max(1.0, abs(pair.lambda_plus), abs(pair.lambda_minus))
        GU, G1, U = _mix_grams(ones, m)
        lam_num = float(isotypic_eigh(a_val * GU + (1.0 - a_val) * G1, U).values.min())
        ok = (
            pair.d_nonnegative
            and pair.lambda_minus <= tol * scale
            and lam_num <= tol * scale
            and abs(lam_num - pair.lambda_minus) <= 1e-9 * scale
        )
        out.append(SqrtNCheck(m, pair.lambda_minus, lam_num, ok))
    return out


@dataclass
class OnesSpectrumReport:
    n: int
    star_rank: int
    four_cycle_rank: int
    four_cycle_value: Fraction
    trace: Fraction
    residual_value: Fraction
    exact_pass: bool
    numerical_max_deviation: float


def ones_spectrum(n: int) -> OnesSpectrumReport:
    """Spectrum of the all-ones moment matrix: the two tabled families plus
    the one further simple eigenvalue forced by the trace identity, whose
    value is measured, not assumed."""
    if n < 5:
        raise ValueError(f"need n >= 5, got {n}")
    cf = closed_form_k1(make_ones(n))
    lam = Fraction(2, n - 1)
    star_rank, _, stars_ok = _check_family(cf, (_stars, range(n)), Fraction(0))
    cycles = (_squares, _four_cycles(range(1, n + 1)))
    cycle_rank, _, cycles_ok = _check_family(cf, cycles, lam)
    target = n * (n - 3) // 2
    trace = cf.trace()
    residual = trace - lam * cycle_rank
    ok = (
        stars_ok
        and cycles_ok
        and star_rank == n
        and cycle_rank == target
        and trace == n + 1
    )
    U = cf.twin_basis[0]
    evals = isotypic_eigh(correctly_rounded(cf.gram(U)[0], cf.scale), U).ascending()
    expected = np.sort(
        np.array([0.0] * n + [float(lam)] * target + [float(residual)])
    )
    dev = float(np.max(np.abs(evals - expected)))
    return OnesSpectrumReport(
        n, star_rank, cycle_rank, lam, trace, residual, ok, dev
    )
