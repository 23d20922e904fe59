"""Metric approximation constants a_k = n/k + alpha_k and their oracles.

How negative can a functional in P_k get on a tour?  Fix a tour y and sum,
over all maximal sets Gamma of disjoint tour edges ("every other" subsets)
and all k-subsets I of Gamma, the number of tours containing I and a fixed
edge e.  That sum takes exactly two values, b_k for e outside y and c_k for
e on y, and positive semidefiniteness then forces
f(y) >= -b_k (n-1) / (2 (c_k - b_k)).  The counts have closed forms in
binomials and factorials (f1/f2 for even n, g1/g2 for odd n), the bound
collapses to a two-term rational expression, and a_k = 1 - bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from tsppsd.cycles import (
    DEFAULT_CYCLE_CAP,
    Edge,
    HamiltonianCycle,
    edge,
    factorial,
    tour_array,
)


def comb0(a: int, b: int) -> int:
    """Binomial coefficient with C(a, b) = 0 outside 0 <= b <= a."""
    if b < 0 or b > a or a < 0:
        return 0
    return math.comb(a, b)


def _term(binom: int, exp: int, fact: int) -> int:
    """binom * 2^exp * fact in pure integers; a zero binomial kills the term
    before a negative exponent (which only occurs alongside one) is raised."""
    if binom == 0:
        return 0
    return binom * 2**exp * fact


@dataclass(frozen=True)
class EOSubset:
    """A maximal set of pairwise disjoint edges of a fixed tour."""

    cycle: HamiltonianCycle
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for e in self.edges:
            if e.u in seen or e.v in seen:
                raise ValueError("EO edges must be pairwise disjoint")
            seen.update(e)
        if not self.edges <= self.cycle.edges:
            raise ValueError("EO edges must lie on the tour")
        if len(self.edges) != self.cycle.n // 2:
            raise ValueError("EO subset must have floor(n/2) edges")


def eo_subsets(y: HamiltonianCycle) -> list[EOSubset]:
    """The 2 (n even) or n (n odd) maximal disjoint edge sets of the tour;
    for odd n the i-th subset is the one leaving vertex i uncovered."""
    n = y.n
    o = y.order
    tour = [edge(o[t], o[(t + 1) % n]) for t in range(n)]
    out = []
    if n % 2 == 0:
        for start in (0, 1):
            out.append(
                EOSubset(y, frozenset(tour[t] for t in range(start, n, 2)))
            )
        return out
    for i in range(1, n + 1):
        t0 = o.index(i)
        chosen = [tour[(t0 + 1 + 2 * s) % n] for s in range((n - 1) // 2)]
        out.append(EOSubset(y, frozenset(chosen)))
    return out


def f_counts(n: int, k: int) -> tuple[int, int]:
    """Exact (f1, f2) for even n: the two values of the double sum, for an
    edge off the tour and on the tour respectively."""
    if n % 2 != 0:
        raise ValueError(f"f counts need even n, got {n}")
    if not (1 <= k <= n // 2):
        raise ValueError(f"need 1 <= k <= n/2, got k={k}, n={n}")
    h = n // 2
    fa2 = factorial(n - k - 2)
    f1 = 2 * (
        _term(comb0(h - 2, k - 2), k - 2, fa2)
        + 2 * _term(comb0(h - 2, k - 1), k - 1, fa2)
        + _term(comb0(h - 2, k), k, fa2)
    )
    f2 = (
        _term(comb0(h - 1, k - 1), k - 1, factorial(n - k - 1))
        + _term(comb0(h - 1, k), k, fa2)
        + _term(comb0(h - 2, k - 2), k - 2, fa2)
        + 2 * _term(comb0(h - 2, k - 1), k - 1, fa2)
        + _term(comb0(h - 2, k), k, fa2)
    )
    return f1, f2


def g_counts(n: int, k: int) -> tuple[int, int]:
    """Exact (g1, g2) for odd n."""
    if n % 2 == 0:
        raise ValueError(f"g counts need odd n, got {n}")
    if not (1 <= k <= (n - 1) // 2):
        raise ValueError(f"need 1 <= k <= (n-1)/2, got k={k}, n={n}")
    h = (n - 1) // 2
    fa2 = factorial(n - k - 2)
    inner = (
        _term(comb0(h - 2, k - 2), k - 2, fa2)
        + 2 * _term(comb0(h - 2, k - 1), k - 1, fa2)
        + _term(comb0(h - 2, k), k, fa2)
    )
    tail = 2 * (
        _term(comb0(h - 1, k - 1), k - 1, fa2)
        + _term(comb0(h - 1, k), k, fa2)
    )
    g1 = (n - 2) * inner + tail
    g2 = (
        h * (
            _term(comb0(h - 1, k - 1), k - 1, factorial(n - k - 1))
            + _term(comb0(h - 1, k), k, fa2)
        )
        + (h - 1) * inner
        + tail
    )
    return g1, g2


def lemma_bound(b: int | Fraction, c: int | Fraction, n: int) -> Fraction:
    """-b (n-1) / (2 (c - b)), valid for positive b < c."""
    b, c = Fraction(b), Fraction(c)
    if not (0 < b < c):
        raise ValueError(f"need 0 < b < c, got b={b}, c={c}")
    return -b * (n - 1) / (2 * (c - b))


def proposition_bound(n: int, k: int) -> Fraction:
    """Closed-form lower bound -n/k + 1 - n (k-1) / (k den) for f(y) over f
    in P_k, with den parity-dispatched, normalized once."""
    if not (1 <= k <= n // 2):
        raise ValueError(f"need 1 <= k <= n/2, got k={k}, n={n}")
    if n % 2 == 0:
        den = n**2 - k * n - 3 * n + k + 3
    else:
        den = n**2 - n * k - 4 * n + 4 + 2 * k
    return Fraction((k - n) * den - n * (k - 1), k * den)


@dataclass(frozen=True)
class BoundReport:
    n: int
    k: int
    parity: str
    b_k: int
    c_k: int
    bound: Fraction
    a_k: Fraction
    alpha_k: Fraction


def bound_report(n: int, k: int) -> BoundReport:
    """Assemble the counts, the bound, and a_k = n/k + alpha_k; the count
    route and the closed form must agree exactly.  They are compared in
    integers: -b (n-1) / (2 (c - b)) = p/q iff -b (n-1) q = 2 (c - b) p."""
    if n % 2 == 0:
        b, c = f_counts(n, k)
    else:
        b, c = g_counts(n, k)
    prop = proposition_bound(n, k)
    p, q = prop.numerator, prop.denominator
    if not (0 < b < c) or -b * (n - 1) * q != 2 * (c - b) * p:
        bound = lemma_bound(b, c, n)  # raises ValueError unless 0 < b < c
        raise RuntimeError(f"count bound {bound} != closed form {prop} at n={n}, k={k}")
    a_k = 1 - prop
    return BoundReport(
        n, k, "even" if n % 2 == 0 else "odd", b, c, prop, a_k, a_k - Fraction(n, k)
    )


def theorem1_constants(n: int, k: int) -> BoundReport:
    """BoundReport plus the guarantee |alpha_k| <= 10/n (needs n >= 9)."""
    if n < 9:
        raise ValueError(f"need n >= 9, got {n}")
    report = bound_report(n, k)
    if abs(report.alpha_k) > Fraction(10, n):
        raise RuntimeError(
            f"alpha_k bound violated at n={n}, k={k}: {report.alpha_k}"
        )
    return report


def bound_oracle(
    n: int,
    k: int,
    y: HamiltonianCycle,
    e: Edge,
    cycle_cap: int = DEFAULT_CYCLE_CAP,
) -> int:
    """Brute-force double sum: over every EO subset Gamma of y and every
    k-subset I of Gamma, the number of tours containing I and e."""
    if y.n != n:
        raise ValueError(f"cycle has n={y.n}, requested n={n}")
    tours = tour_array(n, cycle_cap)
    total = 0
    for gamma in eo_subsets(y):
        for I in combinations(sorted(gamma.edges), k):
            total += int(np.count_nonzero(tours.containing({*I, e})))
    return total
