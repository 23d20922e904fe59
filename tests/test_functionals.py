import json
from fractions import Fraction

import pytest

from tsppsd.cycles import all_edges, edge, enumerate_cycles
from tsppsd.functionals import (
    FacetSpec,
    LinearFunctional,
    average_on_x,
    combine,
    functional_from_spec,
    functional_to_spec,
    make_edge_bound,
    make_ones,
    make_subtour,
    make_two_matching,
)


def enumeration_average(f):
    cycles = enumerate_cycles(f.n)
    return sum((f.evaluate(c) for c in cycles), Fraction(0)) / len(cycles)


def test_subtour_example_n6():
    f = make_subtour(6, {1, 2, 3})
    assert f.constant == Fraction(-5, 4)
    cut = [e for e in all_edges(6) if (e.u <= 3) != (e.v <= 3)]
    assert len(cut) == 9
    assert all(f.coefficient(e) == Fraction(5, 8) for e in cut)
    assert average_on_x(f) == 1
    assert enumeration_average(f) == 1


def test_subtour_unnormalized_average_closed_form():
    # average of (cut sum - 2) over X equals 2(m(n-m)+1-n)/(n-1)
    for n, m in ((6, 3), (7, 2), (8, 4), (9, 3)):
        f = make_subtour(n, range(1, m + 1))
        c = f.coefficient(edge(1, n))
        unnormalized_avg = average_on_x(f) / c
        assert unnormalized_avg == Fraction(2 * (m * (n - m) + 1 - n), n - 1)


def test_subtour_complement_gives_same_functional():
    n = 8
    f = make_subtour(n, {1, 2, 5})
    g = make_subtour(n, set(range(1, n + 1)) - {1, 2, 5})
    assert f.constant == g.constant and dict(f.coeff) == dict(g.coeff)


def test_subtour_precondition():
    with pytest.raises(ValueError):
        make_subtour(6, {1})
    with pytest.raises(ValueError):
        make_subtour(6, {1, 2, 3, 4, 5})
    with pytest.raises(ValueError):
        make_subtour(6, {0, 1})


def test_ones():
    f = make_ones(6)
    assert all(f.coefficient(e) == Fraction(1, 6) for e in all_edges(6))
    assert average_on_x(make_ones(7)) == 1
    for c in enumerate_cycles(5):
        assert make_ones(5).evaluate(c) == 1


def test_edge_bounds_n5():
    lower = make_edge_bound(5, edge(1, 2), "lower")
    assert lower.coefficient(edge(1, 2)) == 2 and lower.constant == 0
    upper = make_edge_bound(5, edge(1, 2), "upper")
    assert upper.constant == 2 and upper.coefficient(edge(1, 2)) == -2
    assert enumeration_average(lower) == 1
    assert enumeration_average(upper) == 1
    cyc = next(c for c in enumerate_cycles(5) if edge(1, 2) in c.edges)
    assert lower.evaluate(cyc) == Fraction(5 - 1, 2)


def test_edge_bound_degenerate_upper():
    with pytest.raises(ValueError):
        make_edge_bound(3, edge(1, 2), "upper")
    with pytest.raises(ValueError):
        make_edge_bound(5, edge(1, 2), "sideways")


def test_two_matching_example_n7():
    F = [edge(1, 4), edge(2, 5), edge(3, 6)]
    f = make_two_matching(7, {1, 2, 3}, F)
    # unnormalized average is 4, so the scale is 1/4
    assert f.coefficient(edge(1, 5)) == Fraction(1, 4)
    assert f.coefficient(edge(1, 4)) == Fraction(-1, 4)
    assert f.constant == Fraction(1, 2)
    assert average_on_x(f) == 1
    assert enumeration_average(f) == 1
    # tours through the paths 4-1-2-5 and 6-3-7 satisfy the facet with equality
    zero_tours = [
        c
        for c in enumerate_cycles(7)
        if {edge(4, 1), edge(1, 2), edge(2, 5), edge(6, 3), edge(3, 7)} <= c.edges
    ]
    assert zero_tours and all(f.evaluate(c) == 0 for c in zero_tours)


def test_two_matching_validation():
    with pytest.raises(ValueError, match="odd"):
        make_two_matching(8, {1, 2}, [edge(1, 5), edge(2, 6)])
    with pytest.raises(ValueError, match="cross"):
        make_two_matching(8, {1, 2, 3}, [edge(1, 2), edge(3, 5), edge(4, 6)])
    with pytest.raises(ValueError, match="matching"):
        make_two_matching(8, {1, 2, 3}, [edge(1, 5), edge(2, 5), edge(3, 6)])


def test_facet_generators_nonnegative_on_cycles():
    for n in (6, 7, 8):
        funcs = [
            make_ones(n),
            make_edge_bound(n, edge(1, 2), "lower"),
            make_edge_bound(n, edge(1, 2), "upper"),
        ]
        funcs += [make_subtour(n, range(1, m + 1)) for m in range(2, n // 2 + 1)]
        if n >= 7:
            funcs.append(
                make_two_matching(n, {1, 2, 3}, [edge(1, 4), edge(2, 5), edge(3, 6)])
            )
        for f in funcs:
            assert average_on_x(f) == enumeration_average(f) == 1
            assert all(f.evaluate(c) >= 0 for c in enumerate_cycles(n))


def test_combine():
    f = make_subtour(7, {1, 2, 3})
    g = make_ones(7)
    assert combine(1, f, 0, g).coeff == f.coeff
    assert combine(0, f, 1, g).coeff == g.coeff
    h = combine(Fraction(1, 3), f, Fraction(2, 3), g)
    assert average_on_x(h) == 1
    with pytest.raises(ValueError):
        combine(1, f, 1, make_ones(6))


def test_single_edge_average_is_barycenter_value():
    f = LinearFunctional(9, Fraction(0), {edge(1, 2): Fraction(1)})
    assert average_on_x(f) == Fraction(1, 4)  # 2/(n-1)


def test_json_round_trip():
    spec = {"kind": "subtour", "n": 8, "U": [1, 2, 3]}
    f = functional_from_spec(spec)
    assert f.coeff == make_subtour(8, {1, 2, 3}).coeff
    g = functional_from_spec(json.dumps(functional_to_spec(f)))
    assert g.constant == f.constant and dict(g.coeff) == dict(f.coeff)


def test_combination_spec():
    spec = {
        "kind": "combination",
        "terms": [
            {"scale": "3/1", "func": {"kind": "ones", "n": 6}},
            {"scale": "-2/1", "func": {"kind": "ones", "n": 6}},
        ],
    }
    f = functional_from_spec(spec)
    assert average_on_x(f) == 1
    assert f.coefficient(edge(1, 2)) == Fraction(1, 6)


def test_explicit_spec_rationals():
    f = functional_from_spec(
        {"kind": "explicit", "n": 6, "constant": "-5/4", "coeffs": {"1-4": "5/8"}}
    )
    assert f.constant == Fraction(-5, 4)
    assert f.coefficient(edge(1, 4)) == Fraction(5, 8)
    with pytest.raises(ValueError):
        functional_from_spec({"kind": "mystery", "n": 6})


def test_facet_spec_dispatch():
    assert FacetSpec("ones", 6).functional().coeff == make_ones(6).coeff
    f = FacetSpec("edge-lower", 7, edge=edge(2, 3)).functional()
    assert f.coefficient(edge(2, 3)) == 3
