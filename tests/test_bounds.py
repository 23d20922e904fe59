import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsppsd import bounds
from tsppsd.bounds import (
    BoundReport,
    bound_oracle,
    bound_report,
    comb0,
    eo_subsets,
    f_counts,
    g_counts,
    lemma_bound,
    proposition_bound,
    theorem1_check,
    theorem1_constants,
)
from tsppsd.cycles import HamiltonianCycle, all_edges, canonical_cycle, edge, enumerate_cycles
from tsppsd.functionals import LinearFunctional, average_on_x, combine, make_ones
from tsppsd.suites import suite_bounds


def test_comb0_convention():
    assert comb0(4, 2) == 6
    assert comb0(4, -1) == 0
    assert comb0(3, 5) == 0
    assert comb0(-1, 0) == 0


def test_eo_subsets_even():
    y = HamiltonianCycle((1, 2, 3, 4, 5, 6))
    subsets = {s.edges for s in eo_subsets(y)}
    assert subsets == {
        frozenset({edge(1, 2), edge(3, 4), edge(5, 6)}),
        frozenset({edge(2, 3), edge(4, 5), edge(1, 6)}),
    }


def test_eo_subsets_odd():
    y = HamiltonianCycle((1, 2, 3, 4, 5))
    subsets = eo_subsets(y)
    assert len(subsets) == 5
    for s in subsets:
        assert len(s.edges) == 2
    # the subset skipping vertex i covers everybody else
    for i, s in enumerate(subsets, start=1):
        covered = {v for e in s.edges for v in e}
        assert covered == set(range(1, 6)) - {i}


def test_eo_subset_count_matches_parity():
    for n in (6, 7, 8, 9):
        y = HamiltonianCycle(tuple(range(1, n + 1)))
        assert len(eo_subsets(y)) == (2 if n % 2 == 0 else n)
        for s in eo_subsets(y):
            assert len(s.edges) == n // 2


def test_f_counts_example_n6():
    assert f_counts(6, 1) == (48, 72)
    assert lemma_bound(48, 72, 6) == -5  # = -(n-1)


def test_count_parity_validation():
    with pytest.raises(ValueError):
        f_counts(7, 1)
    with pytest.raises(ValueError):
        g_counts(8, 1)
    with pytest.raises(ValueError):
        f_counts(8, 5)
    with pytest.raises(ValueError):
        g_counts(9, 5)


def test_lemma_bound_validation_and_examples():
    with pytest.raises(ValueError):
        lemma_bound(3, 3, 6)
    with pytest.raises(ValueError):
        lemma_bound(0, 3, 6)
    with pytest.raises(ValueError):
        lemma_bound(5, 3, 6)
    # b = c/2 makes the two factors of 2 cancel: -(n-1)/2
    assert lemma_bound(6, 12, 9) == Fraction(-(9 - 1), 2)
    # b = 2c/3 is the k=1 ratio and gives -(n-1)
    assert lemma_bound(8, 12, 9) == -(9 - 1)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 10**6),
    st.integers(1, 10**6),
    st.integers(1, 100),
    st.integers(4, 50),
)
def test_lemma_bound_scale_invariance(b, extra, t, n):
    c = b + extra
    assert lemma_bound(b, c, n) == lemma_bound(t * b, t * c, n)


def test_proposition_bound_examples():
    assert proposition_bound(6, 1) == -5
    assert proposition_bound(10, 1) == -9
    assert proposition_bound(10, 2) == Fraction(-45, 11)
    assert proposition_bound(9, 2) == Fraction(-127, 35)


def test_k1_bound_is_one_minus_n_everywhere():
    for n in range(6, 30):
        assert proposition_bound(n, 1) == -(n - 1)
        rep = bound_report(n, 1)
        assert rep.a_k == n and rep.alpha_k == 0


def test_bound_report_matches_closed_form_grid():
    for n in range(6, 61):
        for k in range(1, n // 2 + 1):
            rep = bound_report(n, k)
            assert rep.bound == proposition_bound(n, k)
            assert 0 < rep.b_k < rep.c_k
            assert rep.a_k == 1 - rep.bound


def test_bound_report_equals_the_lemma_route_field_by_field():
    for n in range(6, 41):
        for k in range(1, n // 2 + 1):
            b, c = f_counts(n, k) if n % 2 == 0 else g_counts(n, k)
            bound = lemma_bound(b, c, n)
            want = BoundReport(
                n, k, "even" if n % 2 == 0 else "odd", b, c, bound, 1 - bound,
                1 - bound - Fraction(n, k),
            )
            assert bound_report(n, k) == want


def test_bound_report_rejects_counts_that_miss_the_closed_form(monkeypatch):
    for name in ("f_counts", "g_counts"):
        real = getattr(bounds, name)
        monkeypatch.setattr(
            bounds, name, lambda n, k, real=real: (real(n, k)[0], real(n, k)[1] + 1)
        )
    for n in (10, 11):
        with pytest.raises(RuntimeError, match="closed form"):
            bound_report(n, 2)
    # counts outside 0 < b < c are refused as the lemma refuses them
    monkeypatch.setattr(bounds, "f_counts", lambda n, k: (5, 5))
    with pytest.raises(ValueError, match="0 < b < c"):
        bound_report(10, 2)


def test_theorem1_examples_and_grid():
    rep = theorem1_constants(10, 2)
    assert rep.a_k == Fraction(56, 11) and rep.alpha_k == Fraction(1, 11)
    rep = theorem1_constants(10, 1)
    assert rep.a_k == 10 and rep.alpha_k == 0
    for n in range(9, 201):
        for k in range(1, n // 2 + 1):
            rep = theorem1_constants(n, k)
            assert abs(rep.alpha_k) <= Fraction(10, n)
    with pytest.raises(ValueError):
        theorem1_constants(8, 1)


def test_integer_theorem1_check_is_the_fraction_check():
    # alpha_k = n (k-1) / (k den), so |alpha_k| <= 10/n iff
    # n^2 (k-1) <= 10 k den: the integer check against the Fraction one
    # over the whole 9..200 grid
    for n in range(9, 201):
        for k in range(1, n // 2 + 1):
            b, c, p, q = theorem1_check(n, k)
            assert Fraction(p, q) == proposition_bound(n, k) and q > 0
            assert (b, c) == (f_counts(n, k) if n % 2 == 0 else g_counts(n, k))
            alpha = 1 - Fraction(p, q) - Fraction(n, k)
            assert alpha == Fraction(n * (k - 1), q)
            assert (n * n * (k - 1) <= 10 * q) == (abs(alpha) <= Fraction(10, n))


def test_planted_alpha_violation_still_raises(monkeypatch):
    # closed-form parts whose alpha_k = n (k-1) / q is too large for 10/n,
    # with counts that agree with them, fail the check and the suite's grid
    real = bounds._checked_counts

    def planted(n, k):
        b, c, p, q = real(n, k)
        return (b, c, p, q) if (n, k) != (30, 4) else (b, c, p, n * (k - 1) - 1)

    monkeypatch.setattr(bounds, "_checked_counts", planted)
    with pytest.raises(RuntimeError, match="alpha_k bound violated at n=30, k=4"):
        theorem1_check(30, 4)
    with pytest.raises(RuntimeError, match="alpha_k bound violated at n=30, k=4"):
        theorem1_constants(30, 4)
    grid = [c for c in suite_bounds(6) if c["id"] == "bounds/grid-9-200/alpha-bound"]
    assert [(c["status"], c["detail"]) for c in grid] == [("fail", "first failure at n=30, k=4")]


def test_counts_match_brute_force_small():
    for n in (6, 7, 8):
        y = HamiltonianCycle(tuple(range(1, n + 1)))
        for k in range(1, n // 2 + 1):
            counts = f_counts(n, k) if n % 2 == 0 else g_counts(n, k)
            oracle = (
                bound_oracle(n, k, y, edge(1, 3)),
                bound_oracle(n, k, y, edge(1, 2)),
            )
            assert counts == oracle, (n, k)


def test_oracle_two_values_over_all_edges():
    n, k = 7, 2
    y = HamiltonianCycle(tuple(range(1, n + 1)))
    g1, g2 = g_counts(n, k)
    for e in all_edges(n):
        value = bound_oracle(n, k, y, e)
        assert value == (g2 if e in y.edges else g1)


def test_oracle_invariant_under_tour_choice():
    rng = random.Random(9)
    n, k = 7, 2
    g1, g2 = g_counts(n, k)
    for _ in range(5):
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        y = canonical_cycle(perm)
        on_edge = next(iter(y.edges))
        off_edge = next(e for e in all_edges(n) if e not in y.edges)
        assert bound_oracle(n, k, y, on_edge) == g2
        assert bound_oracle(n, k, y, off_edge) == g1


def test_edge_value_decomposition_identity():
    # (n-1)/2 - f(y) equals the sum of linear coefficients off the tour
    rng = random.Random(2)
    for n in (6, 7, 8):
        cycles = enumerate_cycles(n)
        for _ in range(4):
            coeff = {
                e: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                for e in all_edges(n)
                if rng.random() < 0.7
            }
            f = LinearFunctional(n, Fraction(rng.randint(-1, 2)), coeff)
            avg = average_on_x(f)
            if avg == 0:
                continue
            f = combine(1 / avg, f, 0, make_ones(n))
            lin = f.linear_coefficients()
            y = cycles[rng.randrange(len(cycles))]
            lhs = Fraction(n - 1, 2) - f.evaluate(y)
            rhs = sum(
                (lin[e] for e in all_edges(n) if e not in y.edges), Fraction(0)
            )
            assert lhs == rhs


def test_report_is_frozen_dataclass():
    rep = bound_report(10, 2)
    assert isinstance(rep, BoundReport)
    with pytest.raises(AttributeError):
        rep.a_k = 0


def test_members_of_p1_respect_the_k1_bound():
    # anything accepted by degree-1 membership stays above 1 - n on tours
    from tsppsd.psd import membership_p1

    rng = random.Random(6)
    for n in (6, 7, 8):
        cycles = enumerate_cycles(n)
        accepted = 0
        trials = 0
        while accepted < 3 and trials < 60:
            trials += 1
            coeff = {
                e: Fraction(rng.randint(0, 3), rng.randint(1, 3))
                for e in all_edges(n)
                if rng.random() < 0.5
            }
            f = LinearFunctional(n, Fraction(rng.randint(-1, 1)), coeff)
            avg = average_on_x(f)
            if avg <= 0:
                continue
            f = combine(1 / avg, f, 0, make_ones(n))
            if not membership_p1(f).is_psd:
                continue
            accepted += 1
            low = min(f.evaluate(c) for c in cycles)
            assert low >= proposition_bound(n, 1)
        assert accepted >= 3
