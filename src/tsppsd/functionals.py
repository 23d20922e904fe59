"""Affine functionals on the set X of Hamiltonian-cycle incidence vectors.

A functional is a constant plus rational per-edge coefficients.  The
generators built here are the facet inequalities of the tour polytope,
normalized so their average over X equals 1, which places them inside the
dual body: the average of any single edge coordinate over X is 2/(n-1), so
every normalization constant has a closed form and no enumeration is needed.

A functional is only its constant and coefficients: the degree-1 moment
matrix is built from those alone, at the same cost for a facet and for an
arbitrary explicit functional.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from tsppsd.cycles import Edge, HamiltonianCycle, all_edges, check_edge, edge
from tsppsd.rational import format_fraction, parse_fraction

FACET_KINDS = (
    "subtour",
    "edge-upper",
    "edge-lower",
    "two-matching",
    "ones",
    "explicit",
    "combination",
)


@dataclass(frozen=True)
class LinearFunctional:
    n: int
    constant: Fraction
    coeff: Mapping[Edge, Fraction]

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError(f"need n >= 3, got {self.n}")
        for e in self.coeff:
            check_edge(e, self.n)

    def coefficient(self, e: Edge) -> Fraction:
        return self.coeff.get(e, Fraction(0))

    def evaluate(self, cycle: HamiltonianCycle) -> Fraction:
        if cycle.n != self.n:
            raise ValueError(f"cycle has n={cycle.n}, functional has n={self.n}")
        return self.constant + sum(
            (self.coeff[e] for e in cycle.edges if e in self.coeff), Fraction(0)
        )

    def linear_coefficients(self) -> dict[Edge, Fraction]:
        """Purely linear representation on the affine span of X.

        On the affine span the constant function 1 equals the inner product
        with the vector (1/n, ..., 1/n), so the constant term folds into the
        edge coefficients.
        """
        shift = Fraction(self.constant, self.n)
        return {e: self.coefficient(e) + shift for e in all_edges(self.n)}


def average_on_x(f: LinearFunctional) -> Fraction:
    """Exact average of f over X, via the barycenter value 2/(n-1) per edge."""
    total = sum(f.coeff.values(), Fraction(0))
    return f.constant + Fraction(2, f.n - 1) * total


def make_ones(n: int) -> LinearFunctional:
    """The all-ones function, written linearly: 1/n on every edge."""
    w = Fraction(1, n)
    return LinearFunctional(n, Fraction(0), {e: w for e in all_edges(n)})


def make_subtour(n: int, U: Iterable[int]) -> LinearFunctional:
    """Normalized subtour elimination functional for the cut (U, V-U).

    Coefficient c = (n-1) / (2(m(n-m)+1-n)) on each cut edge and constant
    -2c, where m = |U|; the average over X is then exactly 1.
    """
    Uset = frozenset(U)
    m = len(Uset)
    if not all(1 <= x <= n for x in Uset):
        raise ValueError(f"U must be a subset of 1..{n}")
    if not (2 <= m <= n - 2):
        raise ValueError(f"need 2 <= |U| <= n-2, got |U|={m}, n={n}")
    c = Fraction(n - 1, 2 * (m * (n - m) + 1 - n))
    coeff = {}
    for u in Uset:
        for v in range(1, n + 1):
            if v not in Uset:
                coeff[edge(u, v)] = c
    return LinearFunctional(n, -2 * c, coeff)


def make_edge_bound(n: int, e: Edge, side: str) -> LinearFunctional:
    """Normalized edge bound: ((n-1)/2) x_e for the lower side x_e >= 0,
    ((n-1)/(n-3)) (1 - x_e) for the upper side x_e <= 1."""
    check_edge(e, n)
    if side == "lower":
        return LinearFunctional(n, Fraction(0), {e: Fraction(n - 1, 2)})
    if side == "upper":
        if n == 3:
            raise ValueError("upper edge bound degenerates at n=3")
        c = Fraction(n - 1, n - 3)
        return LinearFunctional(n, c, {e: -c})
    raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")


def make_two_matching(n: int, U: Iterable[int], F: Iterable[Edge]) -> LinearFunctional:
    """Normalized 2-matching functional for handle U and odd matching F.

    Unnormalized form: sum of cut edges outside F, minus sum over F, minus
    1 + |F|.  Each F edge must have exactly one endpoint in U, F must be a
    matching of odd size >= 3.
    """
    Uset = frozenset(U)
    m = len(Uset)
    Fedges = sorted(set(F))
    if not all(1 <= x <= n for x in Uset) or not (2 <= m <= n - 2):
        raise ValueError(f"U must satisfy 2 <= |U| <= n-2 within 1..{n}")
    s2 = len(Fedges)
    if s2 < 3 or s2 % 2 == 0:
        raise ValueError(f"need |F| >= 3 odd, got |F|={s2}")
    touched: set[int] = set()
    for e in Fedges:
        check_edge(e, n)
        if len({e.u, e.v} & Uset) != 1:
            raise ValueError(f"F edge {e.u}-{e.v} must cross the cut exactly once")
        if {e.u, e.v} & touched:
            raise ValueError("F is not a matching")
        touched |= {e.u, e.v}
    cut = {
        edge(u, v)
        for u in Uset
        for v in range(1, n + 1)
        if v not in Uset
    }
    avg = Fraction(2, n - 1) * (len(cut) - 2 * s2) + s2 - 1
    if avg <= 0:
        raise ValueError("two-matching form has nonpositive average; cannot normalize")
    c = 1 / avg
    coeff = {e: (-c if e in Fedges else c) for e in cut}
    return LinearFunctional(n, -c * (1 - s2), coeff)


def combine(
    a: Fraction | int,
    f: LinearFunctional,
    b: Fraction | int,
    g: LinearFunctional,
) -> LinearFunctional:
    """Coefficient-wise a*f + b*g."""
    if f.n != g.n:
        raise ValueError(f"mismatched n: {f.n} vs {g.n}")
    a, b = Fraction(a), Fraction(b)
    coeff: dict[Edge, Fraction] = {}
    for e in set(f.coeff) | set(g.coeff):
        val = a * f.coefficient(e) + b * g.coefficient(e)
        if val:
            coeff[e] = val
    return LinearFunctional(f.n, a * f.constant + b * g.constant, coeff)


@dataclass(frozen=True)
class FacetSpec:
    """Parameters of one facet-functional generator."""

    kind: str
    n: int
    U: tuple[int, ...] = ()
    edge: Edge | None = None
    F: tuple[Edge, ...] = ()

    def functional(self) -> LinearFunctional:
        if self.kind == "subtour":
            return make_subtour(self.n, self.U)
        if self.kind in ("edge-upper", "edge-lower"):
            if self.edge is None:
                raise ValueError("edge bound needs an edge")
            return make_edge_bound(self.n, self.edge, self.kind.split("-")[1])
        if self.kind == "two-matching":
            return make_two_matching(self.n, self.U, self.F)
        if self.kind == "ones":
            return make_ones(self.n)
        raise ValueError(f"no facet generator for kind {self.kind!r}")


def functional_from_spec(spec: Mapping | str) -> LinearFunctional:
    """Build a functional from its JSON description.

    Kinds: subtour {n, U}, edge-upper/edge-lower {n, edge}, two-matching
    {n, U, F}, ones {n}, explicit {n, constant, coeffs}, combination {terms:
    [{scale, func}, ...]}.  Rationals are "p/q" strings; edges "u-v" strings.
    """
    if isinstance(spec, str):
        spec = json.loads(spec)
    kind = spec.get("kind")
    if kind not in FACET_KINDS:
        raise ValueError(f"unknown functional kind {kind!r}")
    if kind == "combination":
        terms = spec["terms"]
        if not terms:
            raise ValueError("combination needs at least one term")
        acc = None
        for t in terms:
            part = functional_from_spec(t["func"])
            scale = parse_fraction(t["scale"])
            acc = (
                combine(1, acc, scale, part)
                if acc is not None
                else combine(scale, part, 0, part)
            )
        return acc
    n = int(spec["n"])
    if kind == "ones":
        return make_ones(n)
    if kind == "subtour":
        return make_subtour(n, [int(x) for x in spec["U"]])
    if kind in ("edge-upper", "edge-lower"):
        return make_edge_bound(n, _parse_edge(spec["edge"]), kind.split("-")[1])
    if kind == "two-matching":
        F = [_parse_edge(e) for e in spec["F"]]
        return make_two_matching(n, [int(x) for x in spec["U"]], F)
    constant = parse_fraction(spec.get("constant", 0))
    coeffs = {
        _parse_edge(k): parse_fraction(v) for k, v in spec.get("coeffs", {}).items()
    }
    return LinearFunctional(n, constant, coeffs)


def functional_to_spec(f: LinearFunctional) -> dict:
    """Explicit JSON description of a functional (inverse of the explicit kind)."""
    return {
        "kind": "explicit",
        "n": f.n,
        "constant": format_fraction(f.constant),
        "coeffs": {
            f"{e.u}-{e.v}": format_fraction(c)
            for e, c in sorted(f.coeff.items())
            if c
        },
    }


def _parse_edge(text: str) -> Edge:
    try:
        u, v = text.split("-")
        return edge(int(u), int(v))
    except ValueError as exc:
        raise ValueError(f"cannot parse edge {text!r} (expected 'u-v')") from exc
