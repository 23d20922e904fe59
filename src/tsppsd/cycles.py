"""Hamiltonian cycles of K_n: enumeration and closed-form containment counts.

A tour is kept in canonical form as a permutation starting at vertex 1 whose
second entry is smaller than its last entry, which picks one representative
out of the two traversal directions.  The closed-form counter implements the
path-block argument: a system of m vertex-disjoint paths with k edges in
total lies in exactly 2^(m-1) * (n-k-1)! Hamiltonian cycles.

The enumeration is built once per n as read-only arrays (`tour_array`):
every consumer that sums or counts over tours reads them, and
`enumerate_cycles` wraps their rows as `HamiltonianCycle` objects.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple

import numpy as np

from tsppsd.errors import ResourceLimitError

DEFAULT_CYCLE_CAP = 12


class Edge(NamedTuple):
    u: int
    v: int


def edge(u: int, v: int) -> Edge:
    """Normalized unordered edge {u, v} with u < v."""
    if u == v:
        raise ValueError(f"edge endpoints must differ, got {{{u},{v}}}")
    if u < 1 or v < 1:
        raise ValueError(f"vertex ids are 1-based, got {{{u},{v}}}")
    return Edge(u, v) if u < v else Edge(v, u)


def check_edge(e: Edge, n: int) -> None:
    if not (1 <= e.u < e.v <= n):
        raise ValueError(f"edge {e.u}-{e.v} invalid for n={n}")


def all_edges(n: int) -> list[Edge]:
    """All edges of K_n in lexicographic order."""
    return [Edge(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]


def edge_index(e: Edge, n: int) -> int:
    """Position of e in the lexicographic edge list of K_n."""
    u, v = e
    return (u - 1) * (2 * n - u) // 2 + (v - u - 1)


@lru_cache(maxsize=513)
def factorial(n: int) -> int:
    if n < 0:
        raise ValueError(f"factorial of negative {n}")
    if n > 512:
        raise ResourceLimitError(f"factorial cap is 512, got {n}")
    return math.factorial(n)


def num_cycles(n: int) -> int:
    """(n-1)!/2, the number of Hamiltonian cycles of K_n."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    return factorial(n - 1) // 2


@dataclass(frozen=True)
class HamiltonianCycle:
    """A tour in canonical permutation form."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.order)
        if n < 3 or self.order[0] != 1 or self.order[1] > self.order[-1]:
            raise ValueError(f"not a canonical tour: {self.order}")
        if sorted(self.order) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.order}")

    @property
    def n(self) -> int:
        return len(self.order)

    @cached_property
    def edges(self) -> frozenset[Edge]:
        o = self.order
        n = len(o)
        return frozenset(edge(o[i], o[(i + 1) % n]) for i in range(n))

    @cached_property
    def incidence(self) -> tuple[int, ...]:
        n = self.n
        vec = [0] * (n * (n - 1) // 2)
        for e in self.edges:
            vec[edge_index(e, n)] = 1
        return tuple(vec)

    def contains(self, edges: Iterable[Edge]) -> bool:
        own = self.edges
        return all(e in own for e in edges)


def canonical_cycle(order: Iterable[int]) -> HamiltonianCycle:
    """Canonical representative of the tour visiting `order` cyclically."""
    o = list(order)
    n = len(o)
    if sorted(o) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {o}")
    i = o.index(1)
    o = o[i:] + o[:i]
    if n >= 3 and o[1] > o[-1]:
        o = [o[0]] + list(reversed(o[1:]))
    return HamiltonianCycle(tuple(o))


@dataclass(frozen=True)
class TourArray:
    """The canonical tours of K_n in lexicographic permutation order, as
    read-only arrays with one row per tour:

    * `orders`, |X| x n: the vertex order of the tour;
    * `edges`, |X| x n uint8: the sorted lexicographic indices of its edges.
    """

    n: int
    orders: np.ndarray
    edges: np.ndarray

    def __len__(self) -> int:
        return len(self.orders)

    def containing(
        self, present: Iterable[Edge], absent: Iterable[Edge] = ()
    ) -> np.ndarray:
        """Boolean mask of the tours that contain every edge of `present`
        and no edge of `absent`.  No tour contains an edge outside K_n."""
        n = self.n
        E = n * (n - 1) // 2
        need = np.zeros(E, dtype=bool)
        for e in present:
            if not 1 <= e.u < e.v <= n:
                return np.zeros(len(self), dtype=bool)
            need[edge_index(e, n)] = True
        bar = np.zeros(E, dtype=bool)
        bar[[edge_index(e, n) for e in absent if 1 <= e.u < e.v <= n]] = True
        # the edges of a tour are distinct, so it holds every needed edge
        # iff it holds as many of them as there are
        hits = np.count_nonzero(need[self.edges], axis=1)
        return (hits == np.count_nonzero(need)) & ~bar[self.edges].any(axis=1)


def tour_array(n: int, cap: int = DEFAULT_CYCLE_CAP) -> TourArray:
    """All (n-1)!/2 canonical tours of K_n, built once per n."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if n > cap:
        raise ResourceLimitError(f"n={n} exceeds enumeration cap {cap}")
    return _tours(n)


@lru_cache(maxsize=16)
def _tours(n: int) -> TourArray:
    perms = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(2, n + 1))),
        dtype=np.uint8,
        count=factorial(n - 1) * (n - 1),
    ).reshape(-1, n - 1)
    # one direction of each tour: the second vertex below the last
    rest = perms[perms[:, 0] < perms[:, -1]]
    orders = np.hstack([np.ones((len(rest), 1), dtype=np.uint8), rest])
    a = orders.astype(np.int64)
    b = np.roll(a, -1, axis=1)
    u, v = np.minimum(a, b), np.maximum(a, b)
    idx = (u - 1) * (2 * n - u) // 2 + (v - u - 1)  # edge_index, elementwise
    edges = np.sort(idx, axis=1).astype(np.uint8)
    orders.flags.writeable = False
    edges.flags.writeable = False
    return TourArray(n, orders, edges)


def enumerate_cycles(n: int, cap: int = DEFAULT_CYCLE_CAP) -> list[HamiltonianCycle]:
    """All (n-1)!/2 canonical tours of K_n in lexicographic permutation order."""
    return [HamiltonianCycle(tuple(o)) for o in tour_array(n, cap).orders.tolist()]


@dataclass(frozen=True)
class PathSystem:
    """Vertex-disjoint simple paths in K_n, each a tuple of >= 2 vertices."""

    paths: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for p in self.paths:
            if len(p) < 2:
                raise ValueError(f"path needs at least one edge: {p}")
            if len(set(p)) != len(p):
                raise ValueError(f"path revisits a vertex: {p}")
            if seen & set(p):
                raise ValueError(f"paths share a vertex: {p}")
            seen |= set(p)

    @property
    def m(self) -> int:
        return len(self.paths)

    @property
    def k(self) -> int:
        return sum(len(p) - 1 for p in self.paths)

    @property
    def edges(self) -> frozenset[Edge]:
        return frozenset(
            edge(p[i], p[i + 1]) for p in self.paths for i in range(len(p) - 1)
        )


def count_cycles_containing(n: int, ps: PathSystem) -> int:
    """Number of Hamiltonian cycles of K_n containing every path of `ps`.

    Closed form 2^(m-1) * (n-k-1)!: orient the first path, then order and
    orient the remaining path blocks and loose vertices.
    """
    if ps.m == 0:
        return num_cycles(n)
    for p in ps.paths:
        for x in p:
            if not (1 <= x <= n):
                raise ValueError(f"vertex {x} out of range for n={n}")
    if ps.k + ps.m > n:
        raise ValueError(f"need k+m <= n, got k={ps.k}, m={ps.m}, n={n}")
    return 2 ** (ps.m - 1) * factorial(n - ps.k - 1)


def classify_edge_set(E: Iterable[Edge]) -> PathSystem | None:
    """Assemble an edge set into a PathSystem, or None if it is not a
    disjoint union of simple paths (degree >= 3 somewhere, or a closed cycle).
    """
    adj: dict[int, list[int]] = {}
    edges = set(E)
    for e in edges:
        for a, b in ((e.u, e.v), (e.v, e.u)):
            nbrs = adj.setdefault(a, [])
            if len(nbrs) >= 2:
                return None
            nbrs.append(b)
    visited: set[int] = set()
    paths = []
    ends = sorted(x for x, nbrs in adj.items() if len(nbrs) == 1)
    for start in ends:
        if start in visited:
            continue
        walk = [start]
        visited.add(start)
        cur, prev = start, None
        while True:
            nxt = [x for x in adj[cur] if x != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            walk.append(cur)
            visited.add(cur)
        paths.append(tuple(walk))
    if len(visited) != len(adj):
        return None  # leftover vertices all have degree 2: a closed cycle
    return PathSystem(tuple(paths))


def count_cycles_with_edge_set(n: int, E: Iterable[Edge]) -> int:
    """Hamiltonian cycles of K_n containing every edge of E (total function)."""
    edges = set(E)
    for e in edges:
        check_edge(e, n)
    if not edges:
        return num_cycles(n)
    ps = classify_edge_set(edges)
    if ps is None:
        # A single closed n-cycle through every vertex is itself a tour.
        verts = {x for e in edges for x in e}
        if len(edges) == n and len(verts) == n:
            degs = [0] * (n + 1)
            for e in edges:
                degs[e.u] += 1
                degs[e.v] += 1
            if all(d == 2 for d in degs[1:]):
                return 1
        return 0
    return count_cycles_containing(n, ps)
