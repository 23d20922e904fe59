import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsppsd import cycles as cycles_module
from tsppsd.cycles import (
    Edge,
    PathSystem,
    all_edges,
    canonical_cycle,
    count_cycles_containing,
    count_cycles_with_edge_set,
    edge,
    edge_index,
    enumerate_cycles,
    num_cycles,
    tour_array,
)
from tsppsd.errors import ResourceLimitError


def test_counts_small():
    assert len(enumerate_cycles(4)) == 3
    assert len(enumerate_cycles(5)) == 12
    cycles = enumerate_cycles(8)
    assert len(cycles) == 2520
    assert all(len(c.edges) == 8 for c in cycles)


def test_enumeration_is_canonical_and_duplicate_free():
    for n in (4, 5, 6, 7):
        cycles = enumerate_cycles(n)
        assert len(cycles) == num_cycles(n)
        assert len({c.order for c in cycles}) == len(cycles)
        assert len({c.edges for c in cycles}) == len(cycles)
        for c in cycles:
            assert c.order[0] == 1
            assert c.order[1] < c.order[-1]
        assert [c.order for c in cycles] == sorted(c.order for c in cycles)


def test_tour_array_is_read_only_and_matches_the_enumeration():
    for n in range(3, 9):
        tours = tour_array(n)
        assert tour_array(n) is tours  # built once per n
        assert len(tours) == num_cycles(n)
        assert tours.orders.shape == tours.edges.shape == (num_cycles(n), n)
        assert tours.edges.dtype == np.uint8
        for a in (tours.orders, tours.edges):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 0
        rows = zip(tours.orders.tolist(), tours.edges.tolist(), enumerate_cycles(n))
        for order, edges, c in rows:
            assert tuple(order) == c.order
            assert edges == sorted(edge_index(e, n) for e in c.edges)


def test_tour_array_checks_the_cap_before_enumerating(monkeypatch):
    def enumerate_anyway(n):
        raise AssertionError(f"enumerated the tours of K_{n}")

    monkeypatch.setattr(cycles_module, "_tours", enumerate_anyway)
    with pytest.raises(ResourceLimitError, match="12"):
        tour_array(13)
    with pytest.raises(ResourceLimitError, match="12"):
        enumerate_cycles(13)
    with pytest.raises(ResourceLimitError, match="7"):
        tour_array(8, cap=7)
    with pytest.raises(ValueError):
        tour_array(2)


def test_tour_masks_match_the_cycle_objects():
    rng = random.Random(3)
    n = 7
    tours = tour_array(n)
    cycles = enumerate_cycles(n)
    universe = all_edges(n)
    for _ in range(40):
        present = rng.sample(universe, rng.randint(0, 3))
        absent = rng.sample(universe, rng.randint(0, 3))
        want = [
            set(present) <= c.edges and not set(absent) & c.edges for c in cycles
        ]
        assert tours.containing(present, absent).tolist() == want
    # no tour of K_7 has an edge at vertex 9, and none avoids all of them
    assert not tours.containing([Edge(1, 9)]).any()
    assert tours.containing([], [Edge(1, 9)]).all()


def test_canonical_cycle_identifies_rotations_and_reflections():
    base = canonical_cycle((3, 1, 4, 2, 5))
    for rot in range(5):
        o = base.order[rot:] + base.order[:rot]
        assert canonical_cycle(o) == base
        assert canonical_cycle(tuple(reversed(o))) == base


def test_incidence_sums_to_n():
    for c in enumerate_cycles(6):
        assert sum(c.incidence) == 6
        assert len(c.incidence) == 15


def test_edge_index_matches_lex_order():
    for n in (4, 7, 11):
        for i, e in enumerate(all_edges(n)):
            assert edge_index(e, n) == i


def test_edge_validation():
    with pytest.raises(ValueError):
        edge(3, 3)
    with pytest.raises(ValueError):
        edge(0, 2)
    assert edge(5, 2) == edge(2, 5)


def test_enumerate_argument_errors():
    with pytest.raises(ValueError):
        enumerate_cycles(2)
    with pytest.raises(ResourceLimitError, match="12"):
        enumerate_cycles(13)


def test_path_system_validation():
    with pytest.raises(ValueError):
        PathSystem(((1, 2), (2, 3)))  # shared vertex
    with pytest.raises(ValueError):
        PathSystem(((1,),))  # no edge
    with pytest.raises(ValueError):
        PathSystem(((1, 2, 1),))  # revisits
    ps = PathSystem(((1, 2, 3), (4, 5)))
    assert ps.k == 3 and ps.m == 2


def test_hamiltonian_path_closes_uniquely():
    for n in (5, 6, 7, 9):
        ps = PathSystem((tuple(range(1, n + 1)),))
        assert count_cycles_containing(n, ps) == 1


def test_count_cycles_containing_examples():
    assert count_cycles_containing(6, PathSystem(((1, 2), (3, 4)))) == 12
    assert count_cycles_containing(6, PathSystem(((1, 2),))) == 24
    assert count_cycles_containing(6, PathSystem(((1, 2),))) == math.factorial(4)


def test_count_cycles_containing_rejects_out_of_range():
    # k + m <= n holds automatically for disjoint paths inside 1..n, so the
    # only way to break it is a vertex beyond n
    with pytest.raises(ValueError):
        count_cycles_containing(4, PathSystem(((1, 2), (3, 5))))
    assert count_cycles_containing(4, PathSystem(((1, 2), (3, 4)))) == 2


def test_edge_set_special_cases():
    assert count_cycles_with_edge_set(6, []) == 60
    star = [edge(1, 2), edge(1, 3), edge(1, 4)]
    assert count_cycles_with_edge_set(6, star) == 0
    triangle = [edge(1, 2), edge(2, 3), edge(1, 3)]
    assert count_cycles_with_edge_set(6, triangle) == 0
    full = [edge(i, i + 1) for i in range(1, 6)] + [edge(1, 6)]
    assert count_cycles_with_edge_set(6, full) == 1
    sub_cycle_plus_edge = triangle + [edge(4, 5)]
    assert count_cycles_with_edge_set(6, sub_cycle_plus_edge) == 0


def path_patterns(n):
    """Nonincreasing path-length tuples (k_1 >= ... >= k_m) with k + m <= n."""
    out = set()

    def rec(prefix, cap):
        k, m = sum(prefix), len(prefix)
        for part in range(1, cap + 1):
            if k + part + m + 1 <= n:
                out.add(tuple(prefix + [part]))
                rec(prefix + [part], part)

    rec([], n - 1)
    return sorted(out)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_lemma_paths_against_enumeration(n):
    cycles = enumerate_cycles(n)
    rng = random.Random(n)
    for pattern in path_patterns(n):
        labels = list(range(1, n + 1))
        rng.shuffle(labels)
        paths, pos = [], 0
        for length in pattern:
            paths.append(tuple(labels[pos: pos + length + 1]))
            pos += length + 1
        ps = PathSystem(tuple(paths))
        expected = count_cycles_containing(n, ps)
        assert expected == sum(1 for c in cycles if ps.edges <= c.edges)


@settings(max_examples=60, deadline=None)
@given(st.integers(6, 7), st.data())
def test_random_edge_sets_match_enumeration(n, data):
    universe = all_edges(n)
    size = data.draw(st.integers(0, 4))
    E = data.draw(
        st.lists(st.sampled_from(universe), min_size=size, max_size=size, unique=True)
    )
    expected = count_cycles_with_edge_set(n, E)
    got = sum(1 for c in enumerate_cycles(n) if set(E) <= c.edges)
    assert expected == got


def test_single_edge_counts_sum_to_n_times_cycles():
    for n in (5, 6, 7):
        total = sum(
            count_cycles_with_edge_set(n, [e]) for e in all_edges(n)
        )
        assert total == n * num_cycles(n)


def test_each_edge_in_n_minus_2_factorial_cycles():
    for n in (5, 6, 7, 8):
        assert count_cycles_with_edge_set(n, [edge(1, 2)]) == math.factorial(n - 2)
