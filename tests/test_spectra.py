import math
from fractions import Fraction

import numpy as np
import pytest

from tsppsd.cycles import edge, edge_index
from tsppsd.functionals import make_subtour
from tsppsd.linalg import exact_ldlt
from tsppsd import spectra
from tsppsd.moment import closed_form_k1
from tsppsd.spectra import (
    FAMILY_LABELS,
    closed_form_spectrum,
    cross_square_value_expanded,
    eigenvector_families,
    family_multiplicities,
    numerical_spectrum,
    ones_spectrum,
    residual_denominator,
    residual_pair,
    spectrum_matches_numerical,
    sqrt_n_nonpositivity,
    subtour_family_values,
    subtour_mix,
    verify_eigenpairs_exact,
)


def test_family_values_examples():
    # n=8, m=4, a=1: second family eigenvalue 2(m-2)/((n-2)(m-1)) = 2/9
    vals = subtour_family_values(8, 4, Fraction(1))
    assert vals[0] == Fraction(2, 9)
    assert family_multiplicities(8, 4)[1] == 2
    # a=0 collapses every nonzero family to 2/(n-1)
    vals0 = subtour_family_values(8, 4, Fraction(0))
    assert all(v == Fraction(2, 7) for v in vals0)


def test_multiplicity_accounting():
    for n in range(6, 16):
        for m in range(3, n // 2 + 1):
            mults = family_multiplicities(n, m)
            assert sum(mults) == n * (n - 1) // 2 - 1
            assert all(mu >= 0 for mu in mults)


def test_cross_square_forms_agree():
    # the two printed forms of the cross family eigenvalue coincide
    for n in range(6, 20):
        for m in range(3, n // 2 + 1):
            for a in (Fraction(0), Fraction(1), Fraction(7, 3)):
                tabled = subtour_family_values(n, m, a)[2]
                assert tabled == cross_square_value_expanded(n, m, a)


def test_range_validation():
    with pytest.raises(ValueError):
        closed_form_spectrum(5, 3, 1)
    with pytest.raises(ValueError):
        closed_form_spectrum(8, 2, 1)
    with pytest.raises(ValueError):
        closed_form_spectrum(8, 5, 1)


def test_star_vectors_annihilate_every_moment_matrix():
    for n, m in ((6, 3), (9, 4)):
        cf = closed_form_k1(subtour_mix(n, m, Fraction(2)))
        stars = eigenvector_families(n, m)[FAMILY_LABELS[0]]
        assert stars.shape == (cf.dim, n)
        for v in stars.T.tolist():
            for r in range(cf.dim):
                val = sum((cf.entry(r, c) * x for c, x in enumerate(v)), Fraction(0))
                assert val == 0


def test_eigenvector_family_shapes():
    fams = eigenvector_families(8, 4)
    # four distinct vertices inside U exist, spanning dimension m(m-3)/2 = 2
    V = fams[FAMILY_LABELS[1]]
    assert V.shape == (29, 3)
    assert exact_ldlt((V.T @ V).tolist()).rank == 2
    assert exact_ldlt((V @ V.T).tolist()).rank == 2
    # m = 3 has no four-vertex family inside U
    assert eigenvector_families(6, 3)[FAMILY_LABELS[1]].shape == (16, 0)


def test_family5_vector_matches_printed_pattern():
    # the pair-difference patterns scaled to integers: in-U by m-2 to n-m
    # against m-2, out-U by n-m-2 to m against n-m-2
    for n, m in ((6, 3), (11, 4)):
        fams = eigenvector_families(n, m)
        for label, i, j, inner, outer in (
            (FAMILY_LABELS[4], 1, 2, range(3, m + 1), range(m + 1, n + 1)),
            (FAMILY_LABELS[5], m + 1, m + 2, range(m + 3, n + 1), range(1, m + 1)),
        ):
            v = fams[label][:, 0]  # the first pair (i, j)
            w_in, w_out = len(outer), len(inner)
            for ell in inner:
                assert v[1 + edge_index(edge(i, ell), n)] == w_in
                assert v[1 + edge_index(edge(j, ell), n)] == -w_in
            for t in outer:
                assert v[1 + edge_index(edge(i, t), n)] == -w_out
                assert v[1 + edge_index(edge(j, t), n)] == w_out
            assert np.count_nonzero(v) == 2 * (len(inner) + len(outer))


def test_eigen_check_rejects_a_wrong_eigenvalue(monkeypatch):
    # shift the four-cycle-in-U value by 10^-12; ranks do not depend on it
    off = Fraction(1, 10**12)
    monkeypatch.setattr(
        "tsppsd.spectra.subtour_family_values",
        lambda n, m, a: (subtour_family_values(n, m, a)[0] + off,)
        + subtour_family_values(n, m, a)[1:],
    )
    rep = verify_eigenpairs_exact(9, 4, 2)
    assert [c.exact_pass for c in rep.families] == [True, False, True, True, True, True]
    assert [c.span_rank for c in rep.families] == list(family_multiplicities(9, 4))
    assert not rep.all_ok


def test_eigen_check_is_exact_for_a_large_rational_a():
    # with a = (10^9+7)/(10^9+9), p = numerator * scale passes 2^63 while
    # N V stays below 2^53, so the check compares Python ints
    a = Fraction(10**9 + 7, 10**9 + 9)
    for n, m in ((6, 3), (9, 4)):
        cf = closed_form_k1(subtour_mix(n, m, a))
        assert abs(subtour_family_values(n, m, a)[2].numerator) * cf.scale >= 2**63
        rep = verify_eigenpairs_exact(n, m, a)
        assert rep.all_ok, (n, m)
        assert [c.span_rank for c in rep.families] == list(family_multiplicities(n, m))


def test_family_checks_do_not_depend_on_the_block_width(monkeypatch):
    # blocks one dim wide give the same reports as whole families
    whole = verify_eigenpairs_exact(10, 3, 2), ones_spectrum(8)
    widths = []
    is_eigen = spectra._is_eigen
    monkeypatch.setattr(spectra, "BLOCK_ENTRIES", 1)
    monkeypatch.setattr(
        spectra, "_is_eigen",
        lambda M, V, lam: widths.append(V.shape[1]) or is_eigen(M, V, lam),
    )
    assert (verify_eigenpairs_exact(10, 3, 2), ones_spectrum(8)) == whole
    # four-cycle-out-U at (10, 3) has 105 columns and dim is 46; the 210
    # four-cycles of ones_spectrum(8) against dim 29
    assert widths[2:5] == [46, 46, 13]
    assert max(widths) <= 46 and widths.count(29) == 7


def test_verify_eigenpairs_grid():
    for n in range(6, 11):
        for m in range(3, n // 2 + 1):
            for a in (0, 1, 2):
                rep = verify_eigenpairs_exact(n, m, a)
                assert rep.all_ok, (n, m, a)


def test_residual_pair_reproduces_ones_spectrum_at_a0():
    # at a = 0 the matrix is the all-ones moment matrix, whose two
    # non-tabled eigenvalues are 2/(n-1) and (3n-1)/(n-1)
    for n, m in ((6, 3), (8, 4), (11, 5)):
        pair = residual_pair(n, m, Fraction(0))
        lam_sum = Fraction(2) * pair.c_value / pair.denominator
        lam_prod = (pair.c_value**2 - pair.d_value) / pair.denominator**2
        expect = {Fraction(2, n - 1), Fraction(3 * n - 1, n - 1)}
        a, b = sorted(expect)
        assert lam_sum == a + b
        assert lam_prod == a * b


def test_residual_trace_identities_hold_exactly():
    for n, m, a in ((8, 4, 1), (9, 3, 5), (10, 5, 0), (10, 3, 2)):
        rep = verify_eigenpairs_exact(n, m, a)
        assert rep.residual_sum_ok and rep.residual_square_ok


def test_residual_denominator_nonzero_on_grid():
    for n in range(6, 41):
        for m in range(3, n // 2 + 1):
            assert residual_denominator(n, m) != 0


def test_spectrum_matches_numerical_small_grid():
    for n in range(6, 11):
        for m in range(3, n // 2 + 1):
            for a in (Fraction(0), Fraction(1), Fraction(5)):
                dev = spectrum_matches_numerical(n, m, a)
                assert dev < 1e-9, (n, m, a, dev)


def test_closed_form_spectrum_sqrt_n_marker():
    rep = closed_form_spectrum(12, 4, "sqrt-n")
    assert rep.multiplicity_total == 12 * 11 // 2 + 1
    assert isinstance(rep.residual.lambda_minus, float)
    assert rep.residual.lambda_minus <= 1e-12


def test_sqrt_n_nonpositivity_examples():
    for c in sqrt_n_nonpositivity(9):
        assert c.ok and c.lambda_minus <= 0
    checks = {c.m: c for c in sqrt_n_nonpositivity(16)}
    assert checks[8].ok and checks[8].lambda_minus <= 0


def test_pure_subtour_spectrum_nonnegative_inside_q():
    # h_U itself is in the dual body, so the whole spectrum at a=1 is >= 0
    rep = closed_form_spectrum(9, 3, Fraction(1))
    assert all(f.eigenvalue >= 0 for f in rep.families)
    assert rep.residual.lambda_minus >= -1e-12


def test_numerical_spectrum_matches_table_n12():
    n, m, a = 12, 5, Fraction(1)
    evals = numerical_spectrum(n, m, float(a))
    rep = closed_form_spectrum(n, m, a)
    expected = []
    for fam in rep.families:
        expected += [float(fam.eigenvalue)] * fam.multiplicity
    expected += [rep.residual.lambda_plus, rep.residual.lambda_minus]
    assert np.allclose(np.sort(np.array(expected)), evals, atol=1e-9)


def test_m2_remark_gives_extra_kernel_vector():
    # outside the m >= 3 hypothesis the inner-edge row vanishes
    for n in (6, 9):
        cf = closed_form_k1(make_subtour(n, {2, 3}))
        dead = 1 + edge_index(edge(2, 3), n)
        assert all(cf.entry(dead, j) == 0 for j in range(cf.dim))


def test_ones_spectrum_n6():
    rep = ones_spectrum(6)
    assert rep.exact_pass
    assert rep.four_cycle_value == Fraction(2, 5)
    assert rep.trace == 7
    assert rep.star_rank == 6
    assert rep.four_cycle_rank == 9
    assert rep.residual_value == Fraction(17, 5)
    assert rep.numerical_max_deviation < 1e-9


def test_ones_spectrum_residual_is_simple():
    for n in (6, 7, 8):
        rep = ones_spectrum(n)
        assert rep.exact_pass
        # the residual eigenvalue closes the trace identity
        assert rep.residual_value == (n + 1) - Fraction(2, n - 1) * rep.four_cycle_rank
        assert rep.numerical_max_deviation < 1e-9


def test_sqrt_n_d_polynomial_nonnegative_in_tested_range():
    for n in (8, 12, 16):
        for m in range(3, n // 2 + 1):
            pair = residual_pair(n, m, math.sqrt(n))
            assert pair.d_nonnegative
